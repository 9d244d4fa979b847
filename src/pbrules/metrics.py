"""Outcome metrics: overlap, satisfaction, inequality, category shares.

Metrics stay exact (:class:`fractions.Fraction`) wherever the definition
is rational arithmetic; only the proportionality index, an exponential of
a root mean square, is a float.  Functions taking an allocation accept
either an :class:`Allocation` or a plain set of project ids.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Sequence

from .model import Allocation, Instance, Money, Profile, total_cost


def _selected(allocation: Allocation | AbstractSet[str]) -> frozenset[str]:
    if isinstance(allocation, Allocation):
        return allocation.selected
    return frozenset(allocation)


def similarity(
    first: Allocation | AbstractSet[str],
    second: Allocation | AbstractSet[str],
    instance: Instance,
) -> Fraction:
    """Cost-weighted overlap: cost of the intersection over the mean cost
    of the two selections.  1 when both are empty, and 1 iff equal sets."""
    a, b = _selected(first), _selected(second)
    denominator = total_cost(a, instance) + total_cost(b, instance)
    if denominator == 0:
        return Fraction(1)
    return Fraction(2) * total_cost(a & b, instance) / denominator


def cost_satisfaction(
    profile: Profile, allocation: Allocation | AbstractSet[str], instance: Instance
) -> list[Fraction]:
    """Per voter, the funded cost of their approved projects as a fraction
    of the budget limit; ballot order."""
    chosen = _selected(allocation)
    limit = instance.budget_limit
    return [
        total_cost(ballot.approved & chosen, instance) / limit
        for ballot in profile.ballots
    ]


def gini(values: Sequence[Fraction | int]) -> Fraction:
    """Gini coefficient of non-negative values, exact.

    Uses the sorted form sum_k (2k - n - 1) x_(k) / (n * sum x); an
    all-zero sequence has no dispersion and returns 0.
    """
    if not values:
        raise ValueError("gini of an empty sequence")
    ordered = sorted(Fraction(v) for v in values)
    if ordered[0] < 0:
        raise ValueError("gini needs non-negative values")
    n = len(ordered)
    total = sum(ordered, Fraction(0))
    if total == 0:
        return Fraction(0)
    weighted = sum(
        ((2 * k - n - 1) * x for k, x in enumerate(ordered, start=1)), Fraction(0)
    )
    return weighted / (n * total)


def effort(
    profile: Profile, allocation: Allocation | AbstractSet[str], instance: Instance
) -> list[Fraction]:
    """Per voter, the funded cost attributed to them when each funded
    project's cost is split equally over all its approvers; ballot order.
    Funded projects nobody approved contribute to nobody."""
    chosen = _selected(allocation)
    weight: dict[str, Fraction] = {}
    counts: dict[str, int] = {pid: 0 for pid in chosen}
    for ballot in profile.ballots:
        for pid in ballot.approved & chosen:
            counts[pid] += 1
    for pid, k in counts.items():
        if k:
            weight[pid] = instance.cost_of(pid) / k
    return [
        sum((weight[pid] for pid in ballot.approved & chosen if pid in weight), Fraction(0))
        for ballot in profile.ballots
    ]


def happiness(profile: Profile, allocation: Allocation | AbstractSet[str]) -> Fraction:
    """Fraction of voters with at least one approved project funded."""
    chosen = _selected(allocation)
    happy = sum(1 for ballot in profile.ballots if ballot.approved & chosen)
    return Fraction(happy, profile.voter_count)


def _category_ids(instance: Instance, label: str) -> frozenset[str]:
    return frozenset(p.id for p in instance.projects if label in p.categories)


def voter_category_share(profile: Profile, instance: Instance, label: str) -> Fraction:
    """Demand share of a category: the average, over voters whose ballot
    has positive total cost, of the cost fraction of their ballot that
    lies in the category."""
    shares, _ = _demand_shares(profile, instance, (label,))
    return shares[label]


def _demand_shares(
    profile: Profile, instance: Instance, labels: Sequence[str]
) -> tuple[dict[str, Fraction], int]:
    """:func:`voter_category_share` of every label in one pass over the
    ballots, and the number of ballots with zero total cost.

    Costs are integers over their common denominator, so each ballot's
    cost is summed once in ints; the per-label sums are grouped by
    ballot cost, and each share becomes a Fraction only at the end.
    """
    denominator = math.lcm(*(p.cost.denominator for p in instance.projects))
    units = {
        p.id: (
            p.cost.numerator * (denominator // p.cost.denominator),
            [i for i, label in enumerate(labels) if label in p.categories],
        )
        for p in instance.projects
    }
    # ballot cost -> per-label summed cost inside the label
    by_cost: dict[int, list[int]] = {}
    excluded = 0
    for ballot in profile.ballots:
        ballot_cost = 0
        inside = [0] * len(labels)
        for pid in ballot.approved:
            cost, members = units[pid]
            ballot_cost += cost
            for i in members:
                inside[i] += cost
        if ballot_cost == 0:
            excluded += 1
            continue
        sums = by_cost.setdefault(ballot_cost, [0] * len(labels))
        for i, amount in enumerate(inside):
            sums[i] += amount
    counted = len(profile.ballots) - excluded
    if not counted:
        return {label: Fraction(0) for label in labels}, excluded
    common, numerators = _sum_fractions(list(by_cost.items()))
    shares = {
        label: Fraction(numerator, common * counted)
        for label, numerator in zip(labels, numerators)
    }
    return shares, excluded


def _sum_fractions(terms: list[tuple[int, list[int]]]) -> tuple[int, list[int]]:
    """Sum of the vectors ``nums / den`` over ``terms`` of ``(den, nums)``,
    as one common denominator and a vector of numerators.

    Pairs are merged in a balanced tree over the lcm of their
    denominators, so the big integers only grow near the root.
    """
    while len(terms) > 1:
        merged = []
        for (d1, n1), (d2, n2) in zip(terms[::2], terms[1::2]):
            g = math.gcd(d1, d2)
            w1, w2 = d2 // g, d1 // g
            merged.append((d1 * w1, [a * w1 + b * w2 for a, b in zip(n1, n2)]))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


def rule_category_share(
    allocation: Allocation | AbstractSet[str], instance: Instance, label: str
) -> Fraction | None:
    """Supply share of a category: the cost fraction of the selection that
    lies in the category; None for an empty selection."""
    chosen = _selected(allocation)
    if not chosen:
        return None
    members = _category_ids(instance, label)
    return total_cost(chosen & members, instance) / total_cost(chosen, instance)


@dataclass(frozen=True)
class CategoryScores:
    label: str
    voter_share: Fraction
    rule_share: Fraction


@dataclass(frozen=True)
class CategoryReport:
    """Demand vs supply per category for one allocation.

    ``disproportionality`` is the root mean square of the per-category
    gaps; ``proportionality`` compresses it to (0, 1] as exp(-rms), so 1
    means supply matches demand exactly.  ``excluded_voters`` counts
    ballots with zero total cost, which the demand shares skip.
    """

    entries: tuple[CategoryScores, ...]
    excluded_voters: int
    disproportionality: float
    proportionality: float


def category_proportionality(
    profile: Profile,
    instance: Instance,
    allocation: Allocation | AbstractSet[str],
) -> CategoryReport | None:
    """Build the :class:`CategoryReport`, or None when the instance has no
    category labels or the allocation is empty (supply shares undefined)."""
    labels = instance.category_labels
    chosen = _selected(allocation)
    if not labels or not chosen:
        return None
    voter_shares, excluded = _demand_shares(profile, instance, labels)
    entries = []
    gap_squares = 0.0
    for label in labels:
        voter_share = voter_shares[label]
        rule_share = rule_category_share(chosen, instance, label)
        assert rule_share is not None
        entries.append(CategoryScores(label, voter_share, rule_share))
        gap_squares += float(voter_share - rule_share) ** 2
    rms = math.sqrt(gap_squares / len(labels))
    return CategoryReport(
        entries=tuple(entries),
        excluded_voters=excluded,
        disproportionality=rms,
        proportionality=math.exp(-rms),
    )


def effect_score(
    instance: Instance,
    profile: Profile,
    greed_allocation: Allocation | AbstractSet[str],
    mes_allocation: Allocation | AbstractSet[str],
) -> float | None:
    """How much switching from the greedy rule to equal shares helps:
    the mean of the proportionality gain and the satisfaction-Gini drop.
    None when either category report is undefined."""
    greed_report = category_proportionality(profile, instance, greed_allocation)
    mes_report = category_proportionality(profile, instance, mes_allocation)
    if greed_report is None or mes_report is None:
        return None
    return effect_value(
        greed_report,
        mes_report,
        cost_satisfaction(profile, greed_allocation, instance),
        cost_satisfaction(profile, mes_allocation, instance),
    )


def effect_value(
    greed_report: CategoryReport,
    mes_report: CategoryReport,
    greed_satisfaction: Sequence[Fraction],
    mes_satisfaction: Sequence[Fraction],
) -> float:
    """The :func:`effect_score` formula on the category reports and the
    per-voter cost satisfactions of the two outcomes."""
    return 0.5 * (
        (mes_report.proportionality - greed_report.proportionality)
        + (float(gini(greed_satisfaction)) - float(gini(mes_satisfaction)))
    )


METRIC_COLUMNS = (
    "instance_id",
    "rule",
    "similarity",
    "winners",
    "median_cost",
    "proportionality",
    "avg_satisfaction",
    "gini_cost",
    "gini_effort",
    "happiness",
)


def median_selected_cost(
    allocation: Allocation | AbstractSet[str], instance: Instance
) -> Money | None:
    chosen = _selected(allocation)
    if not chosen:
        return None
    return statistics.median(instance.cost_of(pid) for pid in chosen)


def metric_row(
    instance: Instance,
    profile: Profile,
    rule_name: str,
    allocation: Allocation | AbstractSet[str],
    baseline: Allocation | AbstractSet[str],
) -> dict:
    """One per-instance result row, keyed exactly by METRIC_COLUMNS.
    ``baseline`` is the allocation similarity is measured against (the
    greedy outcome in the comparison pipeline)."""
    satisfaction = cost_satisfaction(profile, allocation, instance)
    report = category_proportionality(profile, instance, allocation)
    return {
        "instance_id": instance.instance_id,
        "rule": rule_name,
        "similarity": similarity(allocation, baseline, instance),
        "winners": len(_selected(allocation)),
        "median_cost": median_selected_cost(allocation, instance),
        "proportionality": report.proportionality if report else None,
        "avg_satisfaction": sum(satisfaction, Fraction(0)) / len(satisfaction),
        "gini_cost": gini(satisfaction),
        "gini_effort": gini(effort(profile, allocation, instance)),
        "happiness": happiness(profile, allocation),
    }
