"""Outcome metrics: overlap, satisfaction, inequality, category shares.

Per-voter metrics and category shares are computed in integers over
the :class:`~pbrules.model.CompiledElection` of the instance, the one
the rules read too: costs are ints over their common denominator, so a
voter's funded cost is an int, and the Gini coefficient, being
scale-invariant, needs no per-voter fraction.
Results stay exact: each reported number is one
:class:`fractions.Fraction`, built at the end.  Only the proportionality
index, an exponential of a root mean square, is a float.  Functions
taking an allocation take the :class:`Allocation` a rule returns.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .model import (
    Allocation,
    Instance,
    Money,
    Profile,
    compile_election,
    total_cost,
)


def similarity(first: Allocation, second: Allocation, instance: Instance) -> Fraction:
    """Cost-weighted overlap: cost of the intersection over the mean cost
    of the two selections.  1 when both are empty, and 1 iff equal sets."""
    denominator = first.total_cost + second.total_cost
    if denominator == 0:
        return Fraction(1)
    return Fraction(2) * total_cost(first.selected & second.selected, instance) / denominator


def gini(values: Sequence[Fraction | int]) -> Fraction:
    """Gini coefficient of non-negative values, exact.

    Uses the sorted form sum_k (2k - n - 1) x_(k) / (n * sum x); an
    all-zero sequence has no dispersion and returns 0.  The coefficient
    is scale-invariant, so fractions are scaled to ints over their common
    denominator first.
    """
    if not values:
        raise ValueError("gini of an empty sequence")
    if not all(type(v) is int for v in values):
        fractions = [Fraction(v) for v in values]
        common = math.lcm(*(f.denominator for f in fractions))
        values = [f.numerator * (common // f.denominator) for f in fractions]
    if min(values) < 0:
        raise ValueError("gini needs non-negative values")
    return _gini(values)


def _gini(values: Sequence[int]) -> Fraction:
    """:func:`gini` of a non-empty sequence of non-negative ints."""
    n = len(values)
    total = sum(values)
    if total == 0:
        return Fraction(0)
    weighted = sum(map(mul, range(1 - n, n, 2), sorted(values)))
    return Fraction(weighted, n * total)


def voter_category_share(profile: Profile, instance: Instance, label: str) -> Fraction:
    """Demand share of a category: the average, over voters whose ballot
    has positive total cost, of the cost fraction of their ballot that
    lies in the category."""
    shares, _ = compile_election(instance, profile).demand
    return shares.get(label, Fraction(0))


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
    allocation: Allocation,
) -> CategoryReport | None:
    """Build the :class:`CategoryReport`, or None when the instance has no
    category labels or the allocation is empty (supply shares undefined).
    The demand shares are computed once per compiled election."""
    election = compile_election(instance, profile)
    labels = election.labels
    if not labels or not allocation:
        return None
    voter_shares, excluded = election.demand
    funded = election.funded(allocation)
    supply = sum(funded)
    entries = []
    gap_squares = 0.0
    for label in labels:
        voter_share = voter_shares[label]
        rule_share = Fraction(sum(map(funded.__getitem__, election.members[label])), supply)
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
    greed_allocation: Allocation,
    mes_allocation: Allocation,
) -> float | None:
    """How much switching from the greedy rule to equal shares helps:
    the mean of the proportionality gain and the satisfaction-Gini drop.
    None when either category report is undefined."""
    greed_report = category_proportionality(profile, instance, greed_allocation)
    mes_report = category_proportionality(profile, instance, mes_allocation)
    if greed_report is None or mes_report is None:
        return None
    election = compile_election(instance, profile)
    return effect_value(
        greed_report,
        mes_report,
        election.voter_funding(greed_allocation),
        election.voter_funding(mes_allocation),
    )


def effect_value(
    greed_report: CategoryReport,
    mes_report: CategoryReport,
    greed_satisfaction: Sequence[Fraction | int],
    mes_satisfaction: Sequence[Fraction | int],
) -> float:
    """The :func:`effect_score` formula on the category reports and the
    per-voter cost satisfactions of the two outcomes.  Only their Gini
    coefficients enter, so each may be scaled by any positive constant,
    such as the int funded costs of :meth:`CompiledElection.voter_funding`."""
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


def median_selected_cost(allocation: Allocation, instance: Instance) -> Money | None:
    if not allocation:
        return None
    return statistics.median(instance.cost_of(pid) for pid in allocation.selected)


def metric_row(
    instance: Instance,
    profile: Profile,
    rule_name: str,
    allocation: Allocation,
    baseline: Allocation,
) -> dict:
    """One per-instance result row, keyed exactly by METRIC_COLUMNS.
    ``baseline`` is the allocation similarity is measured against (the
    greedy outcome in the comparison pipeline)."""
    election = compile_election(instance, profile)
    funded = election.funded(allocation)
    funding = election.per_voter(funded)
    weights, _ = election.effort_weights(funded)
    n = len(funding)
    report = category_proportionality(profile, instance, allocation)
    return {
        "instance_id": instance.instance_id,
        "rule": rule_name,
        "similarity": similarity(allocation, baseline, instance),
        "winners": len(allocation),
        "median_cost": median_selected_cost(allocation, instance),
        "proportionality": report.proportionality if report else None,
        "avg_satisfaction": Fraction(sum(funding), election.cost_den * n)
        / instance.budget_limit,
        "gini_cost": _gini(funding),
        "gini_effort": _gini(election.per_voter(weights)),
        # costs are positive: a voter is happy iff some funding reaches them
        "happiness": Fraction(n - funding.count(0), n),
    }
