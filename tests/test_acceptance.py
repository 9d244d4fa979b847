"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test prints exactly one ``CRITERION n: PASS/FAIL/SKIP (...)`` line
(echoed again by the conftest terminal hook, since pytest captures stdout).
Criteria 1-6 need the Amsterdam 2022 corpus and skip with a download hint
when it is absent; criteria 7 and 8 are self-contained and always run.
"""
from __future__ import annotations

import dataclasses
import random
import statistics
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import oracle
from conftest import ACCEPTANCE_LINES, CORPUS_HINT, corpus_dir

from pbrules.analysis import compare_rules, extract_extremes, instance_stats
from pbrules.metrics import gini, similarity
from pbrules.model import build_district_example, is_complete
from pbrules.pabulib import ingest_directory, parse_pabulib, write_pabulib
from pbrules.rules import RuleSpec, Variant, greed_cost, mes, run_rule
from pbrules.stats import student_t_two_sided_p


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _skip(number: int, reason: str) -> None:
    line = f"CRITERION {number}: SKIP ({reason})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    pytest.skip(reason)


_CACHE: dict = {}


def _corpus(number: int):
    path = corpus_dir()
    if path is None:
        _skip(number, CORPUS_HINT)
    if "ingest" not in _CACHE:
        _CACHE["ingest"] = ingest_directory(path)
    return _CACHE["ingest"]


def _pair(result, instance_id: str, number: int):
    for instance, profile in result.accepted:
        if instance.instance_id == instance_id:
            return instance, profile
    _report(number, False, f"instance {instance_id} not in the accepted corpus")


def _outcomes(instance, profile):
    key = ("outcome", instance.instance_id)
    if key not in _CACHE:
        greed = greed_cost(instance, profile)
        star = run_rule(RuleSpec(Variant.MES_STAR_PLUS), instance, profile)
        _CACHE[key] = (greed, star.allocation)
    return _CACHE[key]


# Expected cost multisets of the common / greedy-only / equal-shares-only
# blocks for the three audited instances (whole euros).
GOLDEN_BLOCKS = {
    "522": {
        "common": [30000, 20000, 7000, 6300],
        "greed_only": [29000],
        "mes_only": [20000, 8250],
    },
    "613": {
        "common": [
            13139, 9115, 9600, 9780, 4600, 11638, 25350,
            14000, 31650, 4120, 32926, 17300, 8880, 9580,
        ],
        "greed_only": [59000],
        "mes_only": [
            3298, 13075, 3104, 6055, 6340, 7325, 2260, 2160, 5404, 2260, 6500,
        ],
    },
    "644": {
        "common": [60000, 5000, 7000, 11500, 30000, 5000],
        "greed_only": [75000, 72000],
        "mes_only": [
            5000, 7700, 15500, 6000, 6700, 5000, 7500,
            9400, 10000, 7000, 23000, 30000, 6000, 8460,
        ],
    },
}


def _block_failures(instance, greed_selected, mes_selected, expected) -> list[str]:
    common = greed_selected & mes_selected
    blocks = {
        "common": common,
        "greed_only": greed_selected - common,
        "mes_only": mes_selected - common,
    }
    failures = []
    for name, ids in blocks.items():
        want = Counter(expected[name])
        got = Counter(instance.cost_of(pid) for pid in ids)
        if got != want:
            failures.append(
                f"{name}: {len(ids)} projects / total {sum(got.elements())},"
                f" expected {len(want)} / {sum(want.elements())}"
            )
    return failures


def test_criterion_1_golden_522():
    result = _corpus(1)
    instance, profile = _pair(result, "522", 1)
    start = time.perf_counter()
    greed, star = _outcomes(instance, profile)
    elapsed = time.perf_counter() - start
    failures = _block_failures(
        instance, greed.selected, star.selected, GOLDEN_BLOCKS["522"]
    )
    if not (len(greed) == 5 and greed.total_cost == 92300):
        failures.append(f"greedy: {len(greed)} projects / {greed.total_cost}")
    if not (len(star) == 6 and star.total_cost == 91550):
        failures.append(f"star: {len(star)} projects / {star.total_cost}")
    overlap_cost = sum(
        (instance.cost_of(p) for p in greed.selected & star.selected), Fraction(0)
    )
    if overlap_cost != 63300:
        failures.append(f"overlap cost {overlap_cost}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _report(
        1,
        not failures,
        "; ".join(failures)
        or f"greedy 5/92300, star 6/91550, overlap 63300, {elapsed:.2f}s",
    )


def test_criterion_2_golden_613():
    result = _corpus(2)
    instance, profile = _pair(result, "613", 2)
    greed, star = _outcomes(instance, profile)
    failures = _block_failures(
        instance, greed.selected, star.selected, GOLDEN_BLOCKS["613"]
    )
    _report(
        2,
        not failures,
        "; ".join(failures) or "common 14/201678, greedy-only 1/59000, shares-only 11/57781",
    )


def test_criterion_3_golden_644():
    result = _corpus(3)
    instance, profile = _pair(result, "644", 3)
    greed, star = _outcomes(instance, profile)
    failures = _block_failures(
        instance, greed.selected, star.selected, GOLDEN_BLOCKS["644"]
    )
    _report(
        3,
        not failures,
        "; ".join(failures) or "common 6/118500, greedy-only 2/147000, shares-only 14/147260",
    )


def test_criterion_4_corpus_filter_and_stats():
    path = corpus_dir()
    if path is None:
        _skip(4, CORPUS_HINT)
    start = time.perf_counter()
    result = ingest_directory(path)
    rows = [instance_stats(instance, profile) for instance, profile in result.accepted]
    elapsed = time.perf_counter() - start
    _CACHE.setdefault("ingest", result)

    failures = []
    if len(rows) != 35:
        failures.append(f"accepted {len(rows)} instances, expected 35")
    if rows:
        med_votes = statistics.median(r.voters for r in rows)
        med_projects = statistics.median(r.projects for r in rows)
        med_budget = statistics.median(r.budget for r in rows)
        med_scarcity = float(statistics.median(r.scarcity for r in rows))
        med_project_share = float(
            statistics.median(r.mean_project_cost_share for r in rows)
        )
        med_ballot_share = float(
            statistics.median(r.mean_ballot_cost_share for r in rows)
        )
        if med_votes != 3218:
            failures.append(f"median votes {med_votes}")
        if med_projects != 34:
            failures.append(f"median projects {med_projects}")
        if med_budget != 250000:
            failures.append(f"median budget {med_budget}")
        if abs(med_scarcity - 3.5) > 0.1:
            failures.append(f"median scarcity {med_scarcity:.3f}")
        if abs(med_project_share - 0.08) > 0.01:
            failures.append(f"median project cost share {med_project_share:.4f}")
        if abs(med_ballot_share - 0.20) > 0.01:
            failures.append(f"median ballot cost share {med_ballot_share:.4f}")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, limit 10s")
    _report(
        4,
        not failures,
        "; ".join(failures)
        or (
            "35 instances; medians: votes 3218, projects 34, budget 250000, "
            f"scarcity {med_scarcity:.2f}, project share {med_project_share:.3f}, "
            f"ballot share {med_ballot_share:.3f}; {elapsed:.1f}s"
        ),
    )


def test_criterion_5_aggregate_comparison():
    result = _corpus(5)
    specs = [
        RuleSpec(Variant.GREED_COST),
        RuleSpec(Variant.MES_PLUS),
        RuleSpec(Variant.MES_STAR_PLUS),
    ]
    start = time.perf_counter()
    report = compare_rules(result.accepted, specs)
    elapsed = time.perf_counter() - start

    failures = []

    def row(metric, rule):
        return report.row(metric, rule)

    sim_plus = row("similarity", "mes+").mean
    sim_star = row("similarity", "mes*+").mean
    if sim_plus is None or abs(sim_plus - 0.83) > 0.03:
        failures.append(f"similarity mes+ mean {sim_plus}")
    if sim_star is None or abs(sim_star - 0.79) > 0.03:
        failures.append(f"similarity mes*+ mean {sim_star}")

    hap_greed = row("happiness", "greedcost").mean
    if hap_greed is None or abs(hap_greed - 0.94) > 0.015:
        failures.append(f"happiness greedy mean {hap_greed}")
    for rule in ("mes+", "mes*+"):
        hap = row("happiness", rule).mean
        if hap is None or not (0.945 <= hap <= 0.985):
            failures.append(f"happiness {rule} mean {hap}")

    for metric, direction in (("winners", 1), ("median_cost", -1)):
        base = row(metric, "greedcost").mean
        for rule in ("mes+", "mes*+"):
            cell = row(metric, rule)
            if cell.mean is None or base is None:
                failures.append(f"{metric} {rule} undefined")
                continue
            if direction * (cell.mean - base) <= 0:
                failures.append(f"{metric} {rule} mean {cell.mean:.2f} vs {base:.2f}")
            if cell.p_vs_baseline is None or cell.p_vs_baseline >= 0.05:
                failures.append(f"{metric} {rule} p {cell.p_vs_baseline}")

    for rule in ("mes+", "mes*+"):
        cell = row("proportionality", rule)
        if cell.p_vs_baseline is None or cell.p_vs_baseline < 0.05:
            failures.append(f"proportionality {rule} p {cell.p_vs_baseline}")

    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, limit 300s")
    _report(
        5,
        not failures,
        "; ".join(failures)
        or (
            f"similarity {sim_plus:.3f}/{sim_star:.3f}, happiness {hap_greed:.3f} vs "
            f"{row('happiness', 'mes+').mean:.3f}/{row('happiness', 'mes*+').mean:.3f}, "
            "winners up and median cost down at p<0.05, "
            f"proportionality not significant; {elapsed:.0f}s"
        ),
    )


def test_criterion_6_effect_extremes():
    result = _corpus(6)
    report = extract_extremes(result.accepted)
    k = len(report.ranking)
    failures = []
    if report.ranking and report.ranking[0][0] != "522":
        failures.append(f"minimum {report.ranking[0][0]}")
    if report.ranking and report.ranking[-1][0] != "644":
        failures.append(f"maximum {report.ranking[-1][0]}")
    try:
        rank_613 = report.rank_of("613")
    except KeyError:
        failures.append("613 missing from the ranking")
        rank_613 = None
    middle = {k // 2, k // 2 + 1}
    if rank_613 is not None and rank_613 not in middle:
        failures.append(f"613 rank {rank_613} of {k}, middle ranks {sorted(middle)}")
    _report(
        6,
        not failures,
        "; ".join(failures) or f"min 522, max 644, 613 rank {rank_613} of {k}",
    )


def test_criterion_7_district_example():
    failures = []

    # Uniform costs at a third of the budget: the plurality district can
    # absorb the whole budget under the greedy rule.
    instance, profile = build_district_example((4, 3, 2, 1), 120)
    greed = greed_cost(instance, profile)
    greed_districts = {
        label for pid in greed.selected for label in instance.project(pid).categories
    }
    if greed_districts != {"North"}:
        failures.append(f"greedy districts {sorted(greed_districts)}")
    if not is_complete(greed, instance):
        failures.append("greedy outcome incomplete")

    # Cheaper projects (a fifth of the budget): every district whose
    # voters can afford a project from their own equal share must get one.
    cheap, cheap_profile = build_district_example(
        (4, 3, 2, 1), 120, cost_model=lambda rng, d, j: Fraction(120, 5)
    )
    share = Fraction(cheap.budget_limit, cheap_profile.voter_count)
    affordable = {
        label
        for project in cheap.projects
        for label in project.categories
        if sum(project.id in b.approved for b in cheap_profile.ballots) * share >= project.cost
    }
    if affordable != {"North", "East", "South"}:
        failures.append(f"premise broke: affordable districts {sorted(affordable)}")
    allocation, _ = mes(cheap, cheap_profile)
    funded = {
        label for pid in allocation.selected for label in cheap.project(pid).categories
    }
    if not funded - {"North"}:
        failures.append(f"no project outside North funded: {sorted(funded)}")
    if not affordable <= funded:
        failures.append(f"unfunded affordable districts {sorted(affordable - funded)}")
    _report(
        7,
        not failures,
        "; ".join(failures)
        or f"greedy funds North only; equal shares funds {', '.join(sorted(funded))}",
    )


def _conservation_failures(count: int) -> list[str]:
    rng = random.Random(801)
    failures = []
    for k in range(count):
        base = helpers.random_instance(
            rng, max_voters=50, max_projects=20, tag=f"cons-{k}"
        )
        instance = dataclasses.replace(
            base[0], budget_limit=base[0].budget_limit * rng.choice((1, 2, 5, 10, 25))
        )
        profile = base[1]
        allocation, ledger = mes(instance, profile)
        share = Fraction(instance.budget_limit, profile.voter_count)
        paid = {ballot.voter_id: Fraction(0) for ballot in profile.ballots}
        for pid in allocation.selected:
            pays = ledger.payments[pid]
            if sum(pays.values(), Fraction(0)) != instance.cost_of(pid):
                failures.append(f"{instance.instance_id}: {pid} payments miss cost")
            fans = {b.voter_id for b in profile.ballots if pid in b.approved}
            if not set(pays) <= fans:
                failures.append(f"{instance.instance_id}: {pid} non-approver paid")
            if any(x <= 0 for x in pays.values()):
                failures.append(f"{instance.instance_id}: {pid} non-positive payment")
            for vid, x in pays.items():
                paid[vid] += x
        for ballot in profile.ballots:
            wallet = ledger.budgets[ballot.voter_id]
            if wallet != share - paid[ballot.voter_id]:
                failures.append(f"{instance.instance_id}: {ballot.voter_id} wallet leak")
            if wallet < 0:
                failures.append(f"{instance.instance_id}: {ballot.voter_id} negative wallet")
        total_left = sum(ledger.budgets.values(), Fraction(0))
        if total_left != instance.budget_limit - allocation.total_cost:
            failures.append(f"{instance.instance_id}: global conservation broke")
        if failures:
            break
    return failures


def _equivalence_failures(count: int, star_count: int) -> list[str]:
    rng = random.Random(802)
    failures = []
    for k in range(count):
        instance, profile = helpers.random_instance(rng, tag=f"equiv-{k}")
        allocation, ledger = mes(instance, profile)
        order, factors, payments, budgets = oracle.mes_bruteforce(instance, profile)
        if (
            ledger.selection_order != tuple(order)
            or ledger.affordabilities != factors
            or ledger.payments != payments
            or ledger.budgets != budgets
        ):
            failures.append(f"{instance.instance_id}: ledger diverges from brute force")
            break
        if allocation.selected != frozenset(order):
            failures.append(f"{instance.instance_id}: allocation diverges")
            break
    for k in range(star_count):
        instance, profile = helpers.random_instance(rng, tag=f"equiv-star-{k}")
        epsilon = Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
        got = run_rule(
            RuleSpec(Variant.MES_STAR_PLUS, epsilon=epsilon, max_iterations=40),
            instance,
            profile,
        )
        selected, chosen, examined, status = oracle.star_bruteforce(
            instance, profile, epsilon, 40
        )
        star = got.star
        if (
            star.allocation.selected != frozenset(selected)
            or star.chosen_round != chosen
            or star.rounds_examined != examined
            or star.status != status
        ):
            failures.append(f"{instance.instance_id}: star diverges from brute force")
            break
    return failures


def _minimality_failures(count: int) -> list[str]:
    rng = random.Random(803)
    failures = []
    for k in range(count):
        instance, profile = helpers.random_instance(rng, tag=f"mini-{k}")
        _, ledger = mes(instance, profile)
        tie = {project.id: oracle.tie_key(project) for project in instance.projects}
        budgets = {
            ballot.voter_id: ledger.initial_share for ballot in profile.ballots
        }
        remaining = set(instance.project_ids)
        for pid in ledger.selection_order:
            best = None
            for cand in remaining:
                fans = sorted(
                    b.voter_id for b in profile.ballots if cand in b.approved
                )
                got = oracle.affordability_fixed_point(
                    budgets, fans, instance.cost_of(cand)
                )
                if got is None:
                    continue
                factor, _ = got
                if best is None or (factor, tie[cand]) < (best[0], tie[best[1]]):
                    best = (factor, cand)
            if best is None or best[1] != pid or best[0] != ledger.affordabilities[pid]:
                failures.append(f"{instance.instance_id}: step {pid} not minimal")
                return failures
            for vid, x in ledger.payments[pid].items():
                budgets[vid] -= x
            remaining.discard(pid)
    return failures


def _completion_failures(count: int) -> list[str]:
    rng = random.Random(804)
    failures = []
    specs = [
        RuleSpec(Variant.GREED_COST),
        RuleSpec(Variant.MES_PLUS),
        RuleSpec(Variant.MES_STAR_PLUS, max_iterations=60),
    ]
    for k in range(count):
        instance, profile = helpers.random_instance(rng, tag=f"comp-{k}")
        for spec in specs:
            result = run_rule(spec, instance, profile)
            if not is_complete(result.allocation, instance):
                failures.append(f"{instance.instance_id}: {spec.variant.value} incomplete")
                return failures
    return failures


def _projection(instance, profile):
    return (
        tuple((p.id, p.cost, p.name, p.categories) for p in instance.projects),
        instance.budget_limit,
        instance.instance_id,
        tuple((b.voter_id, b.approved) for b in profile.ballots),
    )


def _round_trip_failures(random_count: int) -> tuple[list[str], int]:
    failures = []
    fixtures = sorted((Path(__file__).parent / "data").glob("*.pb"))
    for file in fixtures:
        instance, profile = parse_pabulib(file.read_text(encoding="utf-8"), source=file.name)
        again, again_profile = parse_pabulib(write_pabulib(instance, profile))
        if _projection(instance, profile) != _projection(again, again_profile):
            failures.append(f"{file.name}: round trip changed the model")
    rng = random.Random(805)
    for k in range(random_count):
        instance, profile = helpers.random_instance(
            rng,
            decimal_money=True,
            with_categories=(k % 2 == 0),
            tag=f"trip-{k}",
        )
        again, again_profile = parse_pabulib(write_pabulib(instance, profile))
        if _projection(instance, profile) != _projection(again, again_profile):
            failures.append(f"{instance.instance_id}: round trip changed the model")
            break
    return failures, len(fixtures)


def _invariant_failures(count: int) -> list[str]:
    rng = random.Random(806)
    failures = []
    for k in range(count):
        values = [
            Fraction(rng.randint(0, 30), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 12))
        ]
        g = gini(values)
        if not (0 <= g < 1):
            failures.append(f"gini out of range: {values}")
            break
        if gini([v * 7 for v in values]) != g:
            failures.append(f"gini not scale invariant: {values}")
            break
        shuffled = values[:]
        rng.shuffle(shuffled)
        if gini(shuffled) != g:
            failures.append(f"gini not permutation invariant: {values}")
            break
        if len(set(values)) == 1 and g != 0:
            failures.append(f"gini nonzero on equal values: {values}")
            break

        instance, _ = helpers.random_instance(rng, tag=f"inv-{k}")
        ids = sorted(instance.project_ids)
        left = helpers.allocation_of((p for p in ids if rng.random() < 0.5), instance)
        right = helpers.allocation_of((p for p in ids if rng.random() < 0.5), instance)
        s = similarity(left, right, instance)
        if not (0 <= s <= 1):
            failures.append(f"similarity out of range: {s}")
            break
        if similarity(right, left, instance) != s:
            failures.append("similarity not symmetric")
            break
        if (s == 1) != (left.selected == right.selected):
            failures.append(f"similarity 1 on unequal sets: {left.selected} vs {right.selected}")
            break
    return failures


def _t_test_failures() -> tuple[list[str], int]:
    try:
        import mpmath
    except ImportError:
        return ["mpmath unavailable for the integration oracle"], 0
    mpmath.mp.dps = 30
    failures = []
    points = 0
    for df in (1, 2, 3, 5, 10, 34, 100):
        norm = mpmath.gamma((df + 1) / mpmath.mpf(2)) / (
            mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / mpmath.mpf(2))
        )
        pdf = lambda x: norm * (1 + x * x / df) ** (-(df + 1) / mpmath.mpf(2))
        for t in (0.1, 0.7, 1.5, 2.1, 3.0, 5.5):
            expected = float(2 * mpmath.quad(pdf, [t, mpmath.inf]))
            got = student_t_two_sided_p(t, df)
            points += 1
            if abs(got - expected) > 1e-9:
                failures.append(f"df {df}, t {t}: {got} vs {expected}")
    return failures, points


def test_criterion_8_property_suites():
    failures = []
    failures += _conservation_failures(1000)
    failures += _equivalence_failures(300, 60)
    failures += _minimality_failures(120)
    failures += _completion_failures(200)
    trip_failures, fixture_count = _round_trip_failures(120)
    failures += trip_failures
    failures += _invariant_failures(250)
    t_failures, points = _t_test_failures()
    failures += t_failures
    _report(
        8,
        not failures,
        "; ".join(failures[:4])
        or (
            "conservation 1000, brute-force 300+60 star, minimality 120, "
            f"completions 200x3, round trips {fixture_count}+120, "
            f"invariants 250, t-test {points} points vs integration"
        ),
    )
