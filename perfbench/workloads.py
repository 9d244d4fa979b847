"""The benchmark's workloads: a seeded corpus, the CLI command sequence
users run on it, and the checks on what those commands produce.

Each workload stresses a different layer of pbrules:

- ``corpus_plain``: ``stats`` then ``compare`` of greedcost, mes and mes+
  over Amsterdam-shaped elections; the metrics dominate, the star
  completion never runs;
- ``corpus_star``: ``compare`` of greedcost and mes*+ then ``extremes``
  over small elections with a small per-voter share; the star completion
  dominates;
- ``large_run``: ``run`` of greedcost, mes and mes+ on one large election;
  the equal-shares engine and parsing dominate, no metric runs.

Every election has a fixed design per slot (projects, costs, labels and
popularity, drawn from a stream seeded by its instance id) and ballots
drawn from the run's seed, so different seeds give different corpora of
comparable work.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from pbrules import (
    ApprovalBallot,
    Instance,
    IngestFilter,
    Profile,
    Project,
    RuleSpec,
    ingest_directory,
    is_complete,
    parse_pabulib,
    run_rule,
    write_pabulib,
)

from corpus import ElectionShape, election, malformed_text

MALFORMED = "999.pb"
UNCATEGORISED_ID = "108"
LARGE_FILE = "701.pb"

# (voters, projects) per corpus_plain slot; the seed varies the content only
PLAIN_SLOTS = ((300, 20), (450, 26), (600, 32), (750, 36), (900, 42), (1050, 46), (1200, 52), (1400, 60))
STAR_SLOTS = 84
STAR_RULES = ("greedcost", "mes*+")
PLAIN_RULES = ("greedcost", "mes", "mes+")
RUN_RULES = ("greedcost", "mes", "mes+")


@dataclass
class Checks:
    """Outcome tally of one benchmark run.  One outcome is one (instance,
    rule) result, one CLI command or one comparison of outputs."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    star_status: Counter = field(default_factory=Counter)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random], dict[str, str]]
    commands: Callable[[Path, Path], list[list[str]]]
    check_pass: Callable[[Path, Path, Checks], None] | None
    check_results: Callable[[Path, Path, Checks], None]


def _plain_corpus(rng: random.Random) -> dict[str, str]:
    files = {}
    for slot, (voters, projects) in enumerate(PLAIN_SLOTS, start=1):
        iid = str(100 + slot)
        design = random.Random(iid)
        shape = ElectionShape(
            voters=voters,
            projects=projects,
            share=design.uniform(60.0, 120.0),
            budget_fraction=design.uniform(0.3, 0.4),
            cents=slot % 2 == 0,
            categorised=iid != UNCATEGORISED_ID,
        )
        files[f"{iid}.pb"] = write_pabulib(*election(design, rng, iid, shape))
    files[MALFORMED] = malformed_text(rng)
    return files


def bloc_election(instance_id: str, overshoot: bool) -> tuple[Instance, Profile]:
    """A two-bloc election whose star completion ends in a known state.

    Nine tenths of the voters approve two projects costing 50% and 45% of
    the budget; the other tenth approves one project costing 4% (or 6%
    with ``overshoot``), and one of them also a 2% project no wallet can
    reach.  Equal shares buys the 45% and the small bloc project at once
    and the 50% project once the share has grown by 1/18, which totals
    99% of the budget (a complete outcome) or 101% (the round overshoots,
    so the search ends ``next_infeasible``).
    """
    voters = 200
    budget = voters * 10
    small = 6 if overshoot else 4
    projects = (
        Project("1", Fraction(budget * 50, 100), "Central park", frozenset({"greenery"})),
        Project("2", Fraction(budget * 45, 100), "Market square", frozenset({"public-space"})),
        Project("3", Fraction(budget * small, 100), "Youth club", frozenset({"welfare"})),
        Project("4", Fraction(budget * 2, 100), "Chess tables", frozenset({"sport"})),
    )
    majority = voters * 9 // 10
    ballots = [ApprovalBallot(str(v + 1), frozenset({"1", "2"})) for v in range(majority)]
    ballots += [ApprovalBallot(str(v + 1), frozenset({"3"})) for v in range(majority, voters - 1)]
    ballots.append(ApprovalBallot(str(voters), frozenset({"3", "4"})))
    meta = {"description": f"Synthetic two-bloc election {instance_id}", "instance_id": instance_id}
    return Instance(projects, Fraction(budget), meta), Profile(tuple(ballots))


def _star_corpus(rng: random.Random) -> dict[str, str]:
    files = {}
    for slot in range(STAR_SLOTS):
        iid = str(301 + slot)
        shape = ElectionShape(
            voters=25 + 5 * (slot % 6),
            projects=10 + slot % 5,
            share=0.7,
            budget_fraction=0.4,
            cents=slot % 2 == 1,
            popularity_tail=2.0,
        )
        files[f"{iid}.pb"] = write_pabulib(*election(random.Random(iid), rng, iid, shape))
    files["401.pb"] = write_pabulib(*bloc_election("401", overshoot=False))
    files["402.pb"] = write_pabulib(*bloc_election("402", overshoot=True))
    return files


def _large_corpus(rng: random.Random) -> dict[str, str]:
    shape = ElectionShape(voters=20_000, projects=100, share=40.0, budget_fraction=0.5, cents=False, popularity_tail=3.0)
    iid = LARGE_FILE[:-3]
    return {LARGE_FILE: write_pabulib(*election(random.Random(iid), rng, iid, shape))}


def _plain_commands(corpus: Path, out: Path) -> list[list[str]]:
    return [
        ["stats", "--dir", str(corpus), "--out", str(out / "stats.csv")],
        [
            "compare", "--dir", str(corpus), "--rules", ",".join(PLAIN_RULES), "--jobs", "1",
            "--out", str(out / "compare.csv"), "--raw-out", str(out / "raw.csv"),
            "--skip-report", str(out / "skipped.jsonl"),
        ],
    ]


def _star_commands(corpus: Path, out: Path) -> list[list[str]]:
    return [
        [
            "compare", "--dir", str(corpus), "--rules", ",".join(STAR_RULES), "--jobs", "1",
            "--out", str(out / "compare.csv"), "--raw-out", str(out / "raw.csv"),
        ],
        ["extremes", "--dir", str(corpus), "--jobs", "1", "--out", str(out / "extremes.json")],
    ]


def _run_commands(corpus: Path, out: Path) -> list[list[str]]:
    commands = []
    for rule in RUN_RULES:
        argv = ["run", "--file", str(corpus / LARGE_FILE), "--rule", rule, "--out", str(out / f"{rule}.json")]
        if rule != "greedcost":  # greedy keeps no ledger, so these flags would be usage errors
            argv += ["--ledger-out", str(out / f"{rule}.ledger.json"), "--trace"]
        commands.append(argv)
    return commands


def _raw_rows(out: Path) -> dict[tuple[str, str], dict]:
    with (out / "raw.csv").open(newline="", encoding="utf-8") as handle:
        return {(row["instance_id"], row["rule"]): row for row in csv.DictReader(handle)}


def _check_plain_pass(corpus: Path, out: Path, checks: Checks) -> None:
    lines = (out / "skipped.jsonl").read_text(encoding="utf-8").splitlines()
    checks.expect(
        [json.loads(line)["file"] for line in lines] == [MALFORMED],
        f"skip report should list only {MALFORMED}: {lines}",
    )
    for (iid, rule), row in _raw_rows(out).items():
        defined = row["proportionality"] != ""
        expected = iid != UNCATEGORISED_ID and row["winners"] != "0"
        checks.expect(defined == expected, f"{iid} {rule}: proportionality defined={defined}")


def _check_star_pass(corpus: Path, out: Path, checks: Checks) -> None:
    report = json.loads((out / "extremes.json").read_text(encoding="utf-8"))
    ranked = {iid for iid, _ in report["ranking"]}
    expected = {path.stem for path in corpus.glob("*.pb")}
    checks.expect(ranked == expected and not report["uncategorized"], "extremes ranking misses instances")
    for block in ("minimum", "median", "maximum"):
        checks.expect(report[block]["instance_id"] in ranked, f"extremes {block} not ranked")


def _recompute(rules: tuple[str, ...]) -> Callable[[Path, Path, Checks], None]:
    """Rerun each rule on each accepted instance through the library and
    check feasibility, completeness and the winner count ``compare``
    reported; one outcome per (instance, rule)."""

    def check(corpus: Path, out: Path, checks: Checks) -> None:
        raw = _raw_rows(out)
        dataset = ingest_directory(corpus, IngestFilter(min_voters=1, min_projects=1)).accepted
        for instance, profile in dataset:
            for rule in rules:
                label = f"{instance.instance_id} {rule}"
                try:
                    result = run_rule(RuleSpec.from_name(rule), instance, profile)
                except Exception as exc:  # a raise is this outcome's failure
                    checks.expect(False, f"{label}: {type(exc).__name__}: {exc}")
                    continue
                allocation = result.allocation
                if result.star is not None:
                    checks.star_status[result.star.status] += 1
                problems = []
                if allocation.total_cost > instance.budget_limit:
                    problems.append("over budget")
                if rule in ("mes+", "mes*+") and not is_complete(allocation, instance):
                    problems.append("incomplete")
                row = raw.get((instance.instance_id, rule))
                if row is None or int(row["winners"]) != len(allocation):
                    problems.append(f"compare reported {row and row['winners']} winners, not {len(allocation)}")
                checks.expect(not problems, f"{label}: {', '.join(problems)}")

    return check


def _check_star_results(corpus: Path, out: Path, checks: Checks) -> None:
    _recompute(STAR_RULES)(corpus, out, checks)
    for status in ("complete", "next_infeasible"):
        checks.expect(checks.star_status[status] >= 1, f"no star completion ended {status}")


def _check_run_results(corpus: Path, out: Path, checks: Checks) -> None:
    """Feasibility, completeness and payment conservation from the files
    ``run`` wrote; one outcome per rule."""
    path = corpus / LARGE_FILE
    instance, _ = parse_pabulib(path.read_text(encoding="utf-8"), source=path.name)
    for rule in RUN_RULES:
        result = json.loads((out / f"{rule}.json").read_text(encoding="utf-8"))
        problems = []
        if Fraction(result["total_cost"]) > Fraction(result["budget_limit"]):
            problems.append("over budget")
        if result["winner_count"] != len(result["selected"]):
            problems.append("winner count")
        if rule == "mes+" and not result["complete"]:
            problems.append("incomplete")
        if rule != "greedcost":
            ledger = json.loads((out / f"{rule}.ledger.json").read_text(encoding="utf-8"))
            paid = Fraction(0)
            for pid in ledger["selection_order"]:
                amount = sum(map(Fraction, ledger["payments"][pid].values()), Fraction(0))
                if amount != instance.cost_of(pid):
                    problems.append(f"payments for {pid} sum to {amount}")
                paid += amount
            left = sum(map(Fraction, ledger["budgets"].values()), Fraction(0))
            if paid + left != Fraction(ledger["run_budget"]):
                problems.append("money not conserved")
            if not set(ledger["selection_order"]) <= set(result["selected"]):
                problems.append("ledger buys projects the result lacks")
        checks.expect(not problems, f"run {rule}: {', '.join(problems)}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus_plain",
            _plain_corpus,
            _plain_commands,
            _check_plain_pass,
            _recompute(PLAIN_RULES),
        ),
        Workload(
            "corpus_star",
            _star_corpus,
            _star_commands,
            _check_star_pass,
            _check_star_results,
        ),
        Workload(
            "large_run",
            _large_corpus,
            _run_commands,
            None,
            _check_run_results,
        ),
    )
}
