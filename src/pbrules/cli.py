"""Command line interface.

Subcommands: ``stats`` (corpus descriptives), ``run`` (one rule on one
file), ``compare`` (aggregate rule comparison), ``extremes`` (largest and
smallest rule effects).  Exit codes: 0 on success, 1 for usage errors,
2 for data errors (unreadable, undecodable or ill-formed input files,
unwritable output paths, empty corpus).

``--dir`` defaults to the PB_DATA_DIR environment variable.  An output
that names a ``.pb`` file in that corpus directory, existing or not, is
a usage error: the next ingest would read it as an election.  ``--config``
names a flat key=value file whose keys mirror the long option names;
explicit flags win over the config, the config wins over defaults.  Every
config value is converted and checked by its option's ``type`` and
``choices``, as a flag value is, before any command runs; that holds
for a value a flag overrides and for a key whose option only another
subcommand has too, so ``epsilon`` must be positive and
``max-iterations`` at least 1 for every command.  An on/off flag takes
1/true/yes/on or 0/false/no/off, in any case.  A key may appear once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    compare_rules,
    extract_extremes,
    instance_stats,
    repeated_rules,
    stats_csv,
    stats_json,
)
from .model import Money, parse_money
from .pabulib import IngestFilter, PabulibParseError, ingest_directory, read_pabulib
from .rules import (
    RULE_NAMES,
    RuleSpec,
    Variant,
    emit_trace,
    run_rule,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here reserves 2
    # for data errors, so usage failures exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _options(subcommands: dict[str, argparse.ArgumentParser]) -> dict[str, argparse.Action]:
    """The subcommands' long options, minus config and help, by dest; a
    dest shared by several subcommands has one type and one choices."""
    return {
        action.dest: action
        for sub in subcommands.values()
        for action in sub._actions
        if action.dest not in ("config", "help")
        and any(option.startswith("--") for option in action.option_strings)
    }


def _load_config(path: str, options: dict[str, argparse.Action]) -> dict[str, str | bool]:
    """The values of the config file at ``path`` by option dest; an
    on/off flag's value becomes a bool."""
    mapping: dict[str, str | bool] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        dest = key.replace("-", "_")
        if dest not in options:
            raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if dest in mapping:
            raise _UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        if options[dest].nargs == 0:  # an on/off flag has no type to convert its value
            if value.lower() not in _ON + _OFF:
                raise _UsageError(
                    f"{path}:{lineno}: config key {key!r} is on ({'/'.join(_ON)}) "
                    f"or off ({'/'.join(_OFF)}), got {value!r}"
                )
            value = value.lower() in _ON
        mapping[dest] = value
    return mapping


def _check_config(
    sub: _Parser, options: dict[str, argparse.Action], mapping: dict[str, str | bool]
) -> None:
    # argparse checks choices for command-line values only, and converts
    # a config value only for an option of the chosen subcommand that no
    # flag overrides: convert and check every config value here, with the
    # flag's own message
    for dest, value in mapping.items():
        try:
            sub._check_value(options[dest], sub._get_value(options[dest], value))
        except argparse.ArgumentError as exc:
            sub.error(str(exc))


def _at_least(floor: int, flag: str):
    """An argparse type: an int of at least ``floor``, named ``flag`` in
    the error."""

    def convert(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
        if number < floor:
            raise argparse.ArgumentTypeError(f"{flag} must be at least {floor}, got {number}")
        return number

    return convert


_jobs = _at_least(1, "--jobs")
_rounds = _at_least(1, "--max-iterations")


def _epsilon(value: str) -> Money:
    try:
        amount = parse_money(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if amount <= 0:
        raise argparse.ArgumentTypeError(f"--epsilon must be positive, got {amount}")
    return amount


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key=value config file")

    parser = _Parser(prog="pbrules", description=__doc__, parents=[common])
    parser.add_argument("--version", action="version", version=f"pbrules {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_dir(p):
        p.add_argument("--dir", help="corpus directory of .pb files (default: $PB_DATA_DIR)")
        for flag, what in (("--min-voters", "voters"), ("--min-projects", "projects")):
            p.add_argument(flag, type=_at_least(0, flag), help=f"skip files with fewer {what}")
        p.add_argument(
            "--filter-defaults",
            action="store_true",
            default=False,
            help="apply the study filter (>= 100 voters, >= 10 projects)",
        )
        p.add_argument("--skip-report", metavar="FILE", help="write skipped files as JSON lines")

    def add_star(p):
        p.add_argument(
            "--epsilon", type=_epsilon, help="budget increment per completion round (money)"
        )
        p.add_argument("--max-iterations", type=_rounds, help="cap on completion rounds")

    p_stats = sub.add_parser("stats", parents=[common], help="per-instance corpus statistics")
    add_dir(p_stats)
    p_stats.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p_stats.add_argument("--format", choices=("csv", "json"), default="csv")

    p_run = sub.add_parser("run", parents=[common], help="run one rule on one file")
    p_run.add_argument("--file", help="a .pb file")
    p_run.add_argument("--rule", help=f"one of: {', '.join(RULE_NAMES)}")
    add_star(p_run)
    p_run.add_argument("--trace", action="store_true", default=False, help="print the purchase trace")
    p_run.add_argument("--ledger-out", metavar="FILE", help="write the full payment ledger as JSON")
    p_run.add_argument("--out", metavar="FILE", help="write the result JSON here instead of stdout")

    p_compare = sub.add_parser("compare", parents=[common], help="aggregate rule comparison")
    add_dir(p_compare)
    p_compare.add_argument(
        "--rules", default="greedcost,mes+,mes*+", help="comma-separated rule names"
    )
    add_star(p_compare)
    p_compare.add_argument("--jobs", type=_jobs, default=1, help="parallel worker processes")
    p_compare.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p_compare.add_argument("--raw-out", metavar="FILE", help="write the per-instance table too")
    p_compare.add_argument("--format", choices=("csv", "json"), default="csv")

    p_extremes = sub.add_parser(
        "extremes", parents=[common], help="rank instances by rule effect"
    )
    add_dir(p_extremes)
    add_star(p_extremes)
    p_extremes.add_argument("--jobs", type=_jobs, default=1, help="parallel worker processes")
    p_extremes.add_argument("--out", metavar="FILE", help="write the JSON report here")

    return parser, sub.choices


def _write_out(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _DataError(f"cannot write {path}: {exc}") from None


def _corpus_dir(args) -> str | None:
    return args.dir or os.environ.get("PB_DATA_DIR")


def _check_outputs(args, config: str | None) -> None:
    """Before any input is read: an output naming the file of an input
    (``--file``, the ``config`` read), of an earlier output or a ``.pb``
    file in the corpus directory is a usage error; one that is a
    directory, or in none that exists, a data error."""
    corpus = _corpus_dir(args) if args.command != "run" else None
    named: dict[str, str] = {}
    for flag in ("--file", "--config", "--out", "--raw-out", "--ledger-out", "--skip-report"):
        path = config if flag == "--config" else getattr(args, flag[2:].replace("-", "_"), None)
        if not path:
            continue
        first = named.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise _UsageError(f"{first} and {flag} both name {path}")
        if flag in ("--file", "--config"):
            continue
        if (
            corpus
            and Path(path).match("*.pb")
            and os.path.realpath(Path(path).parent) == os.path.realpath(corpus)
        ):
            raise _UsageError(f"{flag} {path} names a .pb file in the corpus directory {corpus}")
        if Path(path).is_dir():
            raise _DataError(f"cannot write {path}: is a directory")
        if not Path(path).parent.is_dir():
            raise _DataError(f"cannot write {path}: no such directory: {Path(path).parent}")


def _ingest(args) -> tuple:
    directory = _corpus_dir(args)
    if not directory:
        raise _UsageError("no corpus directory: pass --dir or set PB_DATA_DIR")
    base = IngestFilter() if args.filter_defaults else IngestFilter(min_voters=1, min_projects=1)
    ingest_filter = IngestFilter(
        min_voters=base.min_voters if args.min_voters is None else args.min_voters,
        min_projects=base.min_projects if args.min_projects is None else args.min_projects,
    )
    try:
        result = ingest_directory(directory, ingest_filter)
    except OSError as exc:
        raise _DataError(str(exc)) from None
    if args.skip_report:
        lines = result.skip_report_lines()
        _write_out("\n".join(lines) + ("\n" if lines else ""), args.skip_report)
    print(
        f"accepted {len(result.accepted)} instances, skipped {len(result.skipped)} files",
        file=sys.stderr,
    )
    if not result.accepted:
        raise _DataError(f"no instances accepted from {directory}")
    return result.accepted


def _make_spec(name: str, args) -> RuleSpec:
    star = {"epsilon": args.epsilon, "max_iterations": args.max_iterations}
    try:
        return RuleSpec.from_name(name, **{k: v for k, v in star.items() if v is not None})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_stats(args) -> int:
    dataset = _ingest(args)
    rows = [instance_stats(instance, profile) for instance, profile in dataset]
    _write_out(stats_json(rows) if args.format == "json" else stats_csv(rows), args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    if not args.file:
        raise _UsageError("run needs --file")
    if not args.rule:
        raise _UsageError("run needs --rule")
    spec = _make_spec(args.rule, args)
    if spec.variant is Variant.GREED_COST and (args.ledger_out or args.trace):
        kept = "payment ledger" if args.ledger_out else "purchase trace"
        raise _UsageError(f"rule {spec.variant.value} produces no {kept}")
    try:
        instance, profile = read_pabulib(args.file)
    except PabulibParseError as exc:
        prefix = "cannot read " if exc.code == "unreadable" else ""
        raise _DataError(f"{prefix}{Path(args.file)}: {exc}") from None
    result = run_rule(spec, instance, profile)
    _write_out(json.dumps(result.to_json_dict(instance), indent=2), args.out)
    if args.ledger_out:
        _write_out(result.ledger.to_json(), args.ledger_out)
    if args.trace:
        print(emit_trace(result.ledger, instance))
    return EXIT_OK


def _cmd_compare(args) -> int:
    names = [name.strip() for name in args.rules.split(",") if name.strip()]
    if not names:
        raise _UsageError("--rules lists no rule names")
    specs = [_make_spec(name, args) for name in names]
    repeated = repeated_rules(specs)
    if repeated:
        raise _UsageError(f"--rules lists {', '.join(repeated)} more than once")
    report = compare_rules(_ingest(args), specs, jobs=args.jobs)
    _write_out(report.to_json() if args.format == "json" else report.to_csv(), args.out)
    if args.raw_out:
        _write_out(report.raw_csv(), args.raw_out)
    return EXIT_OK


def _cmd_extremes(args) -> int:
    spec = _make_spec("mes*+", args)
    dataset = _ingest(args)
    try:
        report = extract_extremes(dataset, mes_spec=spec, jobs=args.jobs)
    except ValueError as exc:
        raise _DataError(str(exc)) from None
    _write_out(report.to_json(), args.out)
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "extremes": _cmd_extremes,
}


def cli_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    try:
        known, _ = probe.parse_known_args(argv)
        parser, subcommands = _build_parser()
        options = _options(subcommands)
        mapping = _load_config(known.config, options) if known.config else {}
        # set_defaults keeps explicit flags winning, and argparse passes a
        # string default through the option's type as it does a flag value;
        # subparsers parse into a fresh namespace, so each one needs the defaults
        for sub in subcommands.values():
            sub.set_defaults(**mapping)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version
            return int(exc.code or 0)
        _check_config(subcommands[args.command], options, mapping)
        _check_outputs(args, known.config)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"pbrules: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
