"""Layered benchmark of pbrules on a seeded synthetic PaBuLib corpus.

One run generates the workload's corpus from ``--seed``, writes it as
``.pb`` files, then repeats the workload's CLI command sequence in
process (``--jobs 1``) for about ``--seconds`` seconds, checks every
output and prints one JSON object as the last line of standard output.
A background thread samples the machine's speed with a fixed calibration
workload throughout, and reported times are scaled to a reference speed
(see ``calibrate``).

``--trace 0`` reports the end-to-end metrics on unmodified code.
``--trace 1`` alternates untraced passes with passes in which the
package's public functions are wrapped from outside (see ``tracing``),
and reports the per-layer metrics plus the tracing overhead.

    python3 perfbench/run.py --workload corpus_star --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, both modes, full report

The process exits non-zero if any check failed.  Generated files live in
``.perfbench_work/`` under the checkout and are removed at exit; traced
runs leave their spans in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_REPEATS = 11
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import pbrules, pbrules.cli"


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _import_package() -> None:
    """Import pbrules from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "pbrules" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pbrules sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pbrules
    import pbrules.cli  # noqa: F401

    if Path(pbrules.__file__).resolve().parent != SRC / "pbrules":
        raise SystemExit(f"perfbench: imported pbrules from {pbrules.__file__}, not {SRC}")


def _import_package_fresh() -> None:
    """Import pbrules in a fresh interpreter and wait for it to exit."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, timeout=60)


def _digest(out: Path, stdout: list[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    for text in stdout:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def _run_pass(workload, corpus: Path, out: Path, checks, meter, tracer=None) -> tuple[float, float, str]:
    """Run the command sequence once.  Returns the commands' wall seconds
    as measured and at the reference speed, and the output digest."""
    from pbrules.cli import cli_main

    out.mkdir()
    captured = []
    wall = scaled = 0.0
    for argv in workload.commands(corpus, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = cli_main(argv)
                else:
                    with tracer.span("cli.command"):
                        code = cli_main(argv)
        except Exception:  # a crash is one failed outcome; the run goes on
            code = traceback.format_exc()
        end = perf_counter()
        wall += end - start
        scaled += meter.scaled(start, end)
        checks.expect(code == 0, f"pbrules {argv[0]} failed: {code} {stderr.getvalue()}")
        captured.append(stdout.getvalue())
    return wall, scaled, _digest(out, captured)


def _run_check(check, corpus: Path, out: Path, checks) -> None:
    try:
        check(corpus, out, checks)
    except Exception as exc:  # a check that cannot read its inputs is a failed outcome
        checks.expect(False, f"{check.__name__}: {type(exc).__name__}: {exc}")


def _setup(workload, seed: int, work: Path, checks, meter) -> tuple[float, float]:
    """Import pbrules in a fresh interpreter, then generate and write the
    corpus into ``work/corpus``, SETUP_REPEATS times; returns the median
    seconds of one set-up at the reference speed and as measured."""
    from corpus import write_corpus

    scaled, raw, digests = [], [], set()
    corpus = work / "corpus"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(corpus, ignore_errors=True)
        start = perf_counter()
        _import_package_fresh()
        write_corpus(corpus, workload.generate(random.Random(seed)))
        end = perf_counter()
        scaled.append(meter.scaled(start, end))
        raw.append(end - start)
        digests.add(_digest(corpus, []))
    checks.expect(len(digests) == 1, "the same seed generated different corpora")
    return statistics.median(scaled), statistics.median(raw)


def _engine_column(corpus: Path, checks) -> dict[str, float]:
    """Time MesEngine alone on arrays built here from each instance, on the
    pure engine and, when it imports, the compiled kernel; the two must
    return identical selections, payments and wallets."""
    from pbrules import IngestFilter, _mes_pure, ingest_directory

    _mes_kernel = _kernel_module()
    engines = {"pure": _mes_pure, "kernel": _mes_kernel}
    seconds = {name: 0.0 for name in engines}
    dataset = ingest_directory(corpus, IngestFilter(min_voters=1, min_projects=1)).accepted
    for instance, profile in dataset:
        arrays = _engine_arrays(instance, profile)
        share = Fraction(instance.budget_limit, profile.voter_count)
        results = {}
        for name, module in engines.items():
            if module is None:
                continue
            start = perf_counter()
            results[name] = module.MesEngine(*arrays).run(share, want_ledger=True)
            seconds[name] += perf_counter() - start
        if _mes_kernel is not None:
            checks.expect(results["pure"] == results["kernel"], f"engines disagree on {instance.instance_id}")
    return {"engine.pure_run_s": seconds["pure"], "engine.kernel_run_s": seconds["kernel"]}


def _engine_arrays(instance, profile):
    index = {p.id: j for j, p in enumerate(instance.projects)}
    costs = [p.cost for p in instance.projects]
    ballots = [sorted(index[pid] for pid in b.approved) for b in profile.ballots]
    approvers: list[list[int]] = [[] for _ in costs]
    for voter, approved in enumerate(ballots):
        for j in approved:
            approvers[j].append(voter)
    order = sorted(range(len(costs)), key=lambda j: (costs[j], instance.projects[j].id))
    tie_rank = [0] * len(costs)
    for position, j in enumerate(order):
        tie_rank[j] = position
    return profile.voter_count, costs, approvers, tie_rank, ballots


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    import pbrules.rules
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Checks

    spec = _load_spec()
    if name not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    checks = Checks()
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # one core for the commands, the calibration thread and the import
    # probe, so that the calibration samples the core the timed work uses
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = calibrate.Speedometer()
    meter.start()
    try:
        setup_s, raw_setup_s = _setup(workload, seed, work, checks, meter)
        corpus = work / "corpus"
        gc.collect()
        walls: list[float] = []  # untraced passes, as measured
        scaled: list[float] = []  # the same at the reference speed
        traced: list[tuple[float, float, dict]] = []
        digests: set[str] = set()
        tracer = None
        deadline = perf_counter() + seconds
        longest = 0.0
        passes = 0
        while passes < (4 if trace else 3) or perf_counter() + longest < deadline:
            out = work / f"out{passes}"
            if trace and passes % 2 == 1:
                tracer = Tracer()
                with tracer.installed():
                    wall, wall_ref, digest = _run_pass(workload, corpus, out, checks, meter, tracer)
                traced.append((wall, wall_ref, layer_metrics(tracer)))
            else:
                wall, wall_ref, digest = _run_pass(workload, corpus, out, checks, meter)
                walls.append(wall)
                scaled.append(wall_ref)
            if workload.check_pass is not None:
                _run_check(workload.check_pass, corpus, out, checks)
            longest = max(longest, wall)
            digests.add(digest)
            if passes:
                shutil.rmtree(work / f"out{passes - 1}")
            passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        (digest,) = digests if len(digests) == 1 else ("mismatch",)
        checks.expect(len(digests) == 1, f"passes produced {len(digests)} different outputs")
        if seed == reference["seed"]:
            checks.expect(digest == reference["digests"][name], f"output digest {digest} differs from the reference")
        _run_check(workload.check_results, corpus, out, checks)
        meter.stop()
        units = [seconds for _, seconds in meter.samples]
        checks.expect(meter.wrong_results == 0, "the calibration workload gave a different result")

        if trace:
            layers = {key: statistics.median(m.get(key, 0) for *_, m in traced) for key in traced[-1][2]}
            layers.update(_engine_column(corpus, checks))
            layers["trace.wall_s"] = statistics.median(w for w, _, _ in traced)
            layers["trace.overhead_frac"] = statistics.median(s for _, s, _ in traced) / statistics.median(scaled) - 1
            layers["raw.wall_s"] = statistics.median(walls)
            layers["raw.setup_s"] = raw_setup_s
            layers["raw.calibration_unit_s"] = statistics.median(units)
            layers["engine.kernel_active"] = int(pbrules.rules.SELECTION_BACKEND == "kernel")
            layers["checks.failed_frac"] = checks.failed / checks.attempted
            tracer.write(ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl")
            metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            values = {
                "wall_ref_s": statistics.median(scaled),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    finally:
        meter.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    kernel = "imports" if _kernel_module() else "not built (pbrules._mes_kernel does not import; kernel columns read 0)"
    print(f"workload {name}  seed {seed}  passes {passes}  trace {int(trace)}")
    print("untraced pass seconds " + " ".join(f"{w:.3f}" for w in walls))
    print("at reference speed    " + " ".join(f"{w:.3f}" for w in scaled))
    print(f"calibration unit seconds, median {statistics.median(units):.6f} of {len(units)}")
    print(f"selection backend {pbrules.rules.SELECTION_BACKEND}; compiled kernel {kernel}")
    print(f"output digest {digest}" + (" (reference seed)" if seed == reference["seed"] else ""))
    if checks.star_status:
        print("star status " + ", ".join(f"{k}={v}" for k, v in sorted(checks.star_status.items())))
    print(f"checked outcomes {checks.attempted}, failed {checks.failed} (failed_frac {checks.failed / checks.attempted:.4g})")
    for message in checks.messages[:20]:
        print(f"FAILED: {message}")
    for metric, entry in metrics.items():
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checks.failed == 0 else 1


def _kernel_module():
    """The compiled engine module, or None when it is not built."""
    try:
        from pbrules import _mes_kernel
    except ImportError:
        return None
    return _mes_kernel


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    spec = _load_spec()
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                status = 1
            if trace and proc.returncode == 0:
                _print_shares(workload["name"], json.loads(proc.stdout.splitlines()[-1])["metrics"])
            print()
    return status


def _print_shares(name: str, metrics: dict) -> None:
    wall = metrics["trace.wall_s"]["value"]
    shares = {
        "star completion": metrics["star.complete_s"]["value"],
        "metrics": metrics["metrics.self_s"]["value"],
        "mes (arrays, engine, ledger)": metrics["rules.mes_s"]["value"],
        "ledger rendering": metrics["rules.ledger_render_s"]["value"],
        "parsing": metrics["pabulib.parse_s"]["value"],
    }
    print(f"share of traced wall time on {name}: " + ", ".join(f"{k} {v / wall:.0%}" for k, v in shares.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; omit to run all of them, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
