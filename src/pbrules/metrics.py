"""Outcome metrics: overlap, satisfaction, inequality, category shares.

Per-voter metrics and category shares are computed in integers over
the :class:`~pbrules.model.CompiledElection` of the instance, the one
the rules read too: costs are ints over their common denominator, so a
voter's funded cost is an int, and the Gini coefficient, being
scale-invariant, needs no per-voter fraction.
:func:`instance_rows` computes the rows of every rule of one instance
from one pass over the ballots: each project carries all the rules'
funded costs and effort weights packed into one int, in slots wide
enough that no voter's sum carries into the next slot, and the
per-voter sums are unpacked from the packed sums.
Results stay exact: each reported number is one
:class:`fractions.Fraction`, built at the end.  Only the proportionality
index, an exponential of a root mean square, is a float, and its
category gaps are correctly rounded int quotients.  Functions taking an
allocation take the :class:`Allocation` a rule returns.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import and_, mul, rshift
from typing import Iterator, Sequence

from .model import (
    Allocation,
    CompiledElection,
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
    if not election.labels or not allocation:
        return None
    voter_shares, excluded = election.demand
    funded = election.funded(allocation)
    supply = sum(funded)
    in_labels = _label_supplies(election, funded)
    rms = _gap_rms(election, in_labels, supply)
    return CategoryReport(
        entries=tuple(
            CategoryScores(label, voter_shares[label], Fraction(in_label, supply))
            for label, in_label in zip(election.labels, in_labels)
        ),
        excluded_voters=excluded,
        disproportionality=rms,
        proportionality=math.exp(-rms),
    )


def _label_supplies(election: CompiledElection, funded: Sequence[int]) -> list[int]:
    """Per label, the funded int cost of its member projects."""
    funded_cost = funded.__getitem__
    return [sum(map(funded_cost, election.members[label])) for label in election.labels]


def _gap_rms(election: CompiledElection, in_labels: Sequence[int], supply: int) -> float:
    """Root mean square over the labels of demand share minus supply
    share ``in_label / supply``.  Each gap is one int true division, the
    correctly rounded float of the exact difference, so no Fraction
    reduces the large demand denominators."""
    voter_shares, _ = election.demand
    gap_squares = 0.0
    for label, in_label in zip(election.labels, in_labels):
        share = voter_shares[label]
        num, den = share.numerator, share.denominator
        gap_squares += ((num * supply - in_label * den) / (den * supply)) ** 2
    return math.sqrt(gap_squares / len(in_labels))


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
    return instance_rows(instance, profile, [(rule_name, allocation)], baseline)[0]


def instance_rows(
    instance: Instance,
    profile: Profile,
    outcomes: Sequence[tuple[str, Allocation]],
    baseline: Allocation,
) -> list[dict]:
    """The :func:`metric_row` of each ``(rule_name, allocation)`` in
    ``outcomes``, in order, from one pass over the ballots."""
    if not outcomes:
        return []
    election = compile_election(instance, profile)
    n = len(election.ballots)
    funded = [election.funded(allocation) for _, allocation in outcomes]
    columns = []
    for funded_costs in funded:
        columns += funded_costs, election.effort_weights(funded_costs)[0]
    sums = _per_voter_sums(election, columns, [sum(column).bit_length() for column in columns])
    baseline_funded = election.funded(baseline)
    baseline_cost = sum(baseline_funded)
    rows = []
    for (rule_name, allocation), funded_costs, funding_sums, effort_sums in zip(
        outcomes, funded, sums[::2], sums[1::2]
    ):
        funding = list(funding_sums)
        supply = sum(funded_costs)
        both = supply + baseline_cost
        proportionality = None
        if election.labels and allocation:
            rms = _gap_rms(election, _label_supplies(election, funded_costs), supply)
            proportionality = math.exp(-rms)
        rows.append({
            "instance_id": instance.instance_id,
            "rule": rule_name,
            # an unfunded project's entry is 0, so min() is the cost funded by both
            "similarity": Fraction(2 * sum(map(min, funded_costs, baseline_funded)), both)
            if both
            else Fraction(1),
            "winners": len(allocation),
            "median_cost": median_selected_cost(allocation, instance),
            "proportionality": proportionality,
            "avg_satisfaction": Fraction(sum(funding), election.cost_den * n)
            / instance.budget_limit,
            "gini_cost": _gini(funding),
            "gini_effort": _gini(list(effort_sums)),
            # costs are positive: a voter is happy iff some funding reaches them
            "happiness": Fraction(n - funding.count(0), n),
        })
    return rows


def _per_voter_sums(
    election: CompiledElection, columns: Sequence[Sequence[int]], widths: Sequence[int]
) -> list[Iterator[int]]:
    """Per column of non-negative project weights, an iterator over its
    :meth:`~pbrules.model.CompiledElection.per_voter` sums, from one pass
    over the ballots.  Each project's weights are packed into one int,
    column k in a slot of ``widths[k]`` bits; no voter's sum exceeds the
    column's total, so ``sum(column).bit_length()`` bits keep every sum
    from carrying into the next slot.  The iterators unpack on demand, so
    a caller holds one column's sums at a time."""
    offsets = list(accumulate(widths, initial=0))
    packed = [sum(map(int.__lshift__, weights, offsets)) for weights in zip(*columns)]
    totals = election.per_voter(packed)
    return [
        map(and_, map(rshift, totals, repeat(offset)), repeat((1 << width) - 1))
        for offset, width in zip(offsets, widths)
    ]
