"""Budgeting rules: greedy cost welfare, the Method of Equal Shares and
its completions.

All rules are deterministic: ties are resolved by an explicit
:class:`TieBreak` (default: lower cost first, then lexicographically
smaller project id) so reruns agree bit for bit.

The equal-shares selection itself runs on the exact engine of
``_mes_pure``; this module owns the model-to-array translation, the
completion logic and the ledger bookkeeping.  Greedy cost welfare and
the greedy top-up of the ``mes+`` and ``mes*+`` completions share one
greedy walk: the top-up resumes it from the equal-shares selection with
the money left over.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping

from . import _mes_pure
from ._mes_pure import (
    STATUS_COMPLETE,
    STATUS_EXHAUSTED,
    STATUS_NEXT_INFEASIBLE,
    payment_cap,
)
from .model import (
    Allocation,
    Instance,
    Money,
    Profile,
    format_money,
    id_sort_key,
    is_complete,
    money,
)

# perfbench patches _backend.MesEngine and reads SELECTION_BACKEND: keep both
_backend = _mes_pure
SELECTION_BACKEND = "pure"

_TIE_TOKENS = ("cost", "-cost", "id")


@dataclass(frozen=True)
class TieBreak:
    """Deterministic tie ordering over projects.

    ``criteria`` is applied left to right; tokens: "cost" (cheaper
    first), "-cost" (dearer first), "id" (lexicographic).  An "id" token
    is appended automatically when absent so the order is always total.
    """

    criteria: tuple[str, ...] = ("cost", "id")

    def __post_init__(self) -> None:
        criteria = tuple(self.criteria)
        for token in criteria:
            if token not in _TIE_TOKENS:
                raise ValueError(f"unknown tie-break token {token!r} (use {_TIE_TOKENS})")
        if "id" not in criteria:
            criteria = criteria + ("id",)
        object.__setattr__(self, "criteria", criteria)

    def rank(self, instance: Instance) -> dict[str, int]:
        """Project id -> position in the tie order (0 wins ties)."""

        def key(project):
            parts: list = []
            for token in self.criteria:
                if token == "cost":
                    parts.append(project.cost)
                elif token == "-cost":
                    parts.append(-project.cost)
                else:
                    parts.append(project.id)
            return tuple(parts)

        ordered = sorted(instance.projects, key=key)
        return {project.id: position for position, project in enumerate(ordered)}


class Variant(enum.Enum):
    GREED_COST = "greedcost"
    MES = "mes"
    MES_PLUS = "mes+"
    MES_STAR_PLUS = "mes*+"


RULE_NAMES = tuple(v.value for v in Variant)


@dataclass(frozen=True)
class RuleSpec:
    """A fully pinned rule configuration.

    ``epsilon`` is the budget increment used by the star completion; None
    means one cent per voter per round.  ``max_iterations`` caps the
    number of star rounds examined.
    """

    variant: Variant
    epsilon: Money | None = None
    max_iterations: int = 10_000
    tiebreak: TieBreak = field(default_factory=TieBreak)

    def __post_init__(self) -> None:
        if self.epsilon is not None:
            eps = money(self.epsilon)
            if eps <= 0:
                raise ValueError("epsilon must be positive")
            object.__setattr__(self, "epsilon", eps)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "RuleSpec":
        try:
            variant = Variant(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown rule {name!r}; known rules: {', '.join(RULE_NAMES)}"
            ) from None
        return cls(variant=variant, **kwargs)


def default_epsilon(profile: Profile) -> Money:
    """One cent per voter: the smallest increment that moves every
    per-voter share by a whole cent each round."""
    return Fraction(profile.voter_count, 100)


@dataclass(frozen=True)
class MesLedger:
    """Full account of one equal-shares run.

    ``payments`` maps each bought project to its positive per-voter
    contributions (approvers with an empty wallet are omitted);
    ``affordabilities`` holds the factor each project was bought at;
    ``budgets`` the final wallets, in ballot order.

    :meth:`to_json_dict` renders every value exactly (see
    :func:`~pbrules.model.format_money`) and formats each distinct value
    once, so beyond one lookup per payment and wallet its cost grows
    with the number of distinct money values, not with the voters.
    """

    run_budget: Money
    initial_share: Money
    selection_order: tuple[str, ...]
    affordabilities: dict[str, Money]
    payments: dict[str, dict[str, Money]]
    budgets: dict[str, Money]

    def to_json_dict(self) -> dict:
        text = _money_text()
        return {
            "run_budget": text(self.run_budget),
            "initial_share": text(self.initial_share),
            "selection_order": list(self.selection_order),
            "affordabilities": {pid: text(a) for pid, a in self.affordabilities.items()},
            "payments": {
                pid: {vid: text(x) for vid, x in sorted(pays.items())}
                for pid, pays in self.payments.items()
            },
            "budgets": {vid: text(b) for vid, b in self.budgets.items()},
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


@dataclass(frozen=True)
class StarResult:
    """Outcome of the budget-increase completion.

    ``allocation`` is the selection of the chosen round, always feasible
    for the original limit.  ``status`` is "complete" when that selection
    is complete, "next_infeasible" when the following round overshot the
    original limit (the search then stops by definition, possibly leaving
    the result incomplete), or "exhausted" when ``max_iterations`` rounds
    were examined without either event.
    """

    allocation: Allocation
    status: str
    chosen_round: int
    rounds_examined: int
    epsilon: Money
    budget_used: Money
    ledger: MesLedger | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "chosen_round": self.chosen_round,
            "rounds_examined": self.rounds_examined,
            "epsilon": format_money(self.epsilon),
            "budget_used": format_money(self.budget_used),
        }


@dataclass(frozen=True)
class RuleResult:
    """What :func:`run_rule` returns: the final allocation plus whatever
    intermediate evidence the variant produced."""

    rule: str
    allocation: Allocation
    ledger: MesLedger | None = None
    star: StarResult | None = None

    def to_json_dict(self, instance: Instance) -> dict:
        return {
            "instance_id": instance.instance_id,
            "rule": self.rule,
            "selected": sorted(self.allocation.selected, key=id_sort_key),
            "winner_count": len(self.allocation),
            "total_cost": format_money(self.allocation.total_cost),
            "budget_limit": format_money(instance.budget_limit),
            "complete": is_complete(self.allocation, instance),
            "star": self.star.to_json_dict() if self.star else None,
        }


def _greedy_walk(
    instance: Instance,
    profile: Profile,
    tiebreak: TieBreak,
    funded: frozenset[str],
    remaining: Money,
) -> Allocation:
    """Walk the projects by (-approval score, tie rank), skip those in
    ``funded`` and fund each other one that fits in ``remaining``."""
    score: dict[str, int] = {p.id: 0 for p in instance.projects}
    for ballot in profile.ballots:
        for pid in ballot.approved:
            score[pid] += 1
    rank = tiebreak.rank(instance)
    order = sorted(instance.projects, key=lambda p: (-score[p.id], rank[p.id]))
    selected = list(funded)
    for project in order:
        if project.id not in funded and project.cost <= remaining:
            selected.append(project.id)
            remaining -= project.cost
    return Allocation.of(selected, instance)


def greed_cost(
    instance: Instance, profile: Profile, tiebreak: TieBreak | None = None
) -> Allocation:
    """Greedy cost welfare: walk projects by approval score (descending)
    and fund each one that still fits.  Complete by construction."""
    profile.validate_against(instance)
    return _greedy_walk(
        instance, profile, tiebreak or TieBreak(), frozenset(), instance.budget_limit
    )


def mes_affordability(
    budgets: Mapping[str, Money], approver_ids: Iterable[str], cost: Money
) -> tuple[Money, dict[str, Money]] | None:
    """Cheapest uniform way for the approvers to buy a project.

    Every approver contributes min(wallet, cap) where the cap is the
    smallest amount that makes contributions sum to ``cost``; agents whose
    whole wallet is below the equal share of what the others still owe pay
    everything they have.  Returns (cap / cost, contributions) with zero
    contributions omitted, or None when the wallets cannot cover the cost.
    """
    cost = money(cost)
    if cost <= 0:
        raise ValueError("cost must be positive")
    wallets = {i: money(budgets[i]) for i in sorted(set(approver_ids))}
    peel = payment_cap(wallets, sorted(wallets, key=wallets.__getitem__), cost)
    if peel is None:
        return None
    remaining, left = peel
    cap = remaining / left
    contributions = {}
    for voter, wallet in wallets.items():
        pay = min(wallet, cap)
        if pay > 0:
            contributions[voter] = pay
    return cap / cost, contributions


def _mes_arrays(instance: Instance, profile: Profile, tiebreak: TieBreak):
    pid_index = {p.id: i for i, p in enumerate(instance.projects)}
    costs = [p.cost for p in instance.projects]
    approver_lists: list[list[int]] = [[] for _ in instance.projects]
    ballot_lists: list[list[int]] = []
    for voter, ballot in enumerate(profile.ballots):
        indices = sorted(pid_index[pid] for pid in ballot.approved)
        ballot_lists.append(indices)
        for j in indices:
            approver_lists[j].append(voter)
    rank_map = tiebreak.rank(instance)
    tie_rank = [rank_map[p.id] for p in instance.projects]
    return costs, approver_lists, tie_rank, ballot_lists


def _make_engine(instance: Instance, profile: Profile, tiebreak: TieBreak):
    costs, approver_lists, tie_rank, ballot_lists = _mes_arrays(instance, profile, tiebreak)
    return _backend.MesEngine(
        profile.voter_count, costs, approver_lists, tie_rank, ballot_lists
    )


def _ledger_from_run(
    instance: Instance,
    profile: Profile,
    run_budget: Money,
    selected: list[int],
    factors,
    payments,
    final_budgets,
) -> MesLedger:
    pids = [p.id for p in instance.projects]
    vids = [b.voter_id for b in profile.ballots]
    return MesLedger(
        run_budget=run_budget,
        initial_share=Fraction(run_budget, profile.voter_count),
        selection_order=tuple(pids[p] for p in selected),
        affordabilities={pids[p]: f for p, f in zip(selected, factors)},
        payments={
            pids[p]: {vids[v]: amount for v, amount in pays}
            for p, pays in zip(selected, payments)
        },
        budgets={vids[i]: b for i, b in enumerate(final_budgets)},
    )


def mes(
    instance: Instance, profile: Profile, tiebreak: TieBreak | None = None
) -> tuple[Allocation, MesLedger]:
    """Method of Equal Shares at the instance's own budget limit.

    Each voter gets an equal share of the limit; projects are bought in
    order of affordability (approvers' cheapest uniform payment per unit
    of cost), cheapest first, deducting real payments from wallets.  Not
    complete in general; see the completions below.
    """
    tiebreak = tiebreak or TieBreak()
    profile.validate_against(instance)
    engine = _make_engine(instance, profile, tiebreak)
    share = Fraction(instance.budget_limit, profile.voter_count)
    selected, factors, payments, final_budgets = engine.run(share, want_ledger=True)
    ledger = _ledger_from_run(
        instance, profile, instance.budget_limit, selected, factors, payments, final_budgets
    )
    allocation = Allocation.of(ledger.selection_order, instance)
    return allocation, ledger


def complete_with_secondary(
    base: Allocation,
    instance: Instance,
    profile: Profile,
    tiebreak: TieBreak | None = None,
) -> Allocation:
    """Top up ``base`` with the greedy rule on the leftover budget.

    The greedy walk of :func:`greed_cost` resumes from ``base`` with the
    money it leaves over.  That equals greedy cost welfare on the
    leftover projects with ballots limited to them, because neither a
    leftover project's approval score nor its relative tie order depends
    on the other projects.  The result is complete; a complete ``base``
    is returned as is.
    """
    if is_complete(base, instance):
        return base
    leftover = instance.budget_limit - base.total_cost
    return _greedy_walk(instance, profile, tiebreak or TieBreak(), base.selected, leftover)


def _mes_star(
    instance: Instance,
    profile: Profile,
    epsilon: Money,
    max_iterations: int,
    tiebreak: TieBreak,
) -> StarResult:
    engine = _make_engine(instance, profile, tiebreak)
    budget = instance.budget_limit
    selected, chosen_round, examined, status = engine.run_star(
        budget, epsilon, max_iterations
    )
    budget_used = budget + chosen_round * epsilon
    share = Fraction(budget_used, profile.voter_count)
    replay, factors, payments, final_budgets = engine.run(share, want_ledger=True)
    if replay != selected:
        raise AssertionError("star replay diverged from the search run")
    ledger = _ledger_from_run(
        instance, profile, budget_used, replay, factors, payments, final_budgets
    )
    allocation = Allocation.of(ledger.selection_order, instance)
    return StarResult(
        allocation=allocation,
        status=status,
        chosen_round=chosen_round,
        rounds_examined=examined,
        epsilon=epsilon,
        budget_used=budget_used,
        ledger=ledger,
    )


def complete_star(
    rule,
    instance: Instance,
    profile: Profile,
    epsilon: Money | None = None,
    max_iterations: int = 10_000,
    tiebreak: TieBreak | None = None,
) -> StarResult:
    """Complete a rule by rerunning it at limit, limit + eps, limit + 2*eps,
    ... and returning the first round whose outcome is complete and still
    feasible for the *original* limit.

    A round that overshoots the original limit ends the search with the
    previous round's outcome (which may be incomplete); running out of
    rounds returns the last feasible outcome with status "exhausted".
    ``rule`` is either the name/variant of a built-in rule or any callable
    (Instance, Profile) -> Allocation; the equal-shares rule takes a fast
    path that reuses one engine across rounds.
    """
    tiebreak = tiebreak or TieBreak()
    epsilon = default_epsilon(profile) if epsilon is None else money(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    profile.validate_against(instance)

    if rule is mes or rule == "mes" or rule is Variant.MES:
        return _mes_star(instance, profile, epsilon, max_iterations, tiebreak)
    if rule == "greedcost" or rule is Variant.GREED_COST:
        rule_fn = lambda inst, prof: greed_cost(inst, prof, tiebreak)
    elif callable(rule):
        rule_fn = rule
    else:
        raise ValueError(f"not a rule: {rule!r}")

    budget = instance.budget_limit
    previous: Allocation | None = None
    chosen = 0
    for round_index in range(max_iterations):
        trial = dataclasses.replace(
            instance, budget_limit=budget + round_index * epsilon
        )
        outcome = rule_fn(trial, profile)
        if isinstance(outcome, tuple):
            outcome = outcome[0]
        if outcome.total_cost > budget:
            chosen = max(round_index - 1, 0)
            allocation = previous if previous is not None else Allocation(frozenset(), 0)
            return StarResult(
                allocation=allocation,
                status=STATUS_NEXT_INFEASIBLE,
                chosen_round=chosen,
                rounds_examined=round_index + 1,
                epsilon=epsilon,
                budget_used=budget + chosen * epsilon,
            )
        anchored = Allocation.of(outcome.selected, instance)
        if is_complete(anchored, instance):
            return StarResult(
                allocation=anchored,
                status=STATUS_COMPLETE,
                chosen_round=round_index,
                rounds_examined=round_index + 1,
                epsilon=epsilon,
                budget_used=budget + round_index * epsilon,
            )
        previous = anchored
    chosen = max_iterations - 1
    return StarResult(
        allocation=previous if previous is not None else Allocation(frozenset(), 0),
        status=STATUS_EXHAUSTED,
        chosen_round=chosen,
        rounds_examined=max_iterations,
        epsilon=epsilon,
        budget_used=budget + chosen * epsilon,
    )


def run_rule(spec: RuleSpec, instance: Instance, profile: Profile) -> RuleResult:
    """Dispatch a :class:`RuleSpec` and return the final allocation with
    the run's evidence (ledger, star metadata) attached."""
    tiebreak = spec.tiebreak
    name = spec.variant.value
    if spec.variant is Variant.GREED_COST:
        return RuleResult(name, greed_cost(instance, profile, tiebreak))
    if spec.variant is Variant.MES:
        allocation, ledger = mes(instance, profile, tiebreak)
        return RuleResult(name, allocation, ledger=ledger)

    if spec.variant is Variant.MES_PLUS:
        allocation, ledger = mes(instance, profile, tiebreak)
        completed = complete_with_secondary(allocation, instance, profile, tiebreak)
        return RuleResult(name, completed, ledger=ledger)
    if spec.variant is Variant.MES_STAR_PLUS:
        star = complete_star(
            mes,
            instance,
            profile,
            epsilon=spec.epsilon,
            max_iterations=spec.max_iterations,
            tiebreak=tiebreak,
        )
        completed = complete_with_secondary(star.allocation, instance, profile, tiebreak)
        return RuleResult(name, completed, ledger=star.ledger, star=star)
    raise ValueError(f"unhandled variant {spec.variant!r}")


def _money_text():
    """A :func:`format_money` that formats each distinct value once.

    Values are keyed by their ``(numerator, denominator)`` pair: hashing
    a ``Fraction`` computes a modular inverse of its denominator.
    """
    seen: dict[tuple[int, int], str] = {}

    def text(value: Money) -> str:
        key = value.as_integer_ratio()
        found = seen.get(key)
        if found is None:
            found = seen[key] = format_money(value)
        return found

    return text


def _group_payments(pays: dict[str, Money]) -> list[tuple[Money, list[str]]]:
    """Payers grouped by amount, ascending, voters in ledger order.

    Amounts are grouped by ``(numerator, denominator)`` and ordered as
    ints over the lcm of their denominators.
    """
    groups: dict[tuple[int, int], tuple[Money, list[str]]] = {}
    for vid, amount in pays.items():
        key = amount.as_integer_ratio()
        group = groups.get(key)
        if group is None:
            groups[key] = (amount, [vid])
        else:
            group[1].append(vid)
    unit = math.lcm(*(den for _, den in groups))
    order = sorted(groups, key=lambda key: key[0] * (unit // key[1]))
    return [groups[key] for key in order]


def _wallet_summary(wallets: Iterable[Money]) -> tuple[Money, Money, Money, Money]:
    """(min, median, max, total) of the wallets.

    The distinct values are tallied by ``(numerator, denominator)`` and
    summed and ranked as ints over the lcm of their denominators; one
    ``Fraction`` is built per result.  For an even count the median is
    the exact mean of the two middle wallets.
    """
    tally = Counter(wallet.as_integer_ratio() for wallet in wallets)
    unit = math.lcm(*(den for _, den in tally))
    counts = sorted((num * (unit // den), count) for (num, den), count in tally.items())
    ends = list(accumulate(count for _, count in counts))

    def ranked(rank: int) -> int:  # the wallet at 0-based ``rank``, ascending
        return counts[bisect_right(ends, rank)][0]

    n = ends[-1]
    middle = ranked((n - 1) // 2) + ranked(n // 2)
    total = sum(value * count for value, count in counts)
    return (
        Fraction(counts[0][0], unit),
        Fraction(middle, 2 * unit),
        Fraction(counts[-1][0], unit),
        Fraction(total, unit),
    )


def emit_trace(ledger: MesLedger, instance: Instance) -> str:
    """Human-readable account of an equal-shares run: the per-voter share,
    each purchase with its affordability factor and payments, and the
    final wallets.

    Every number is exact.  Each distinct money value is formatted once,
    payments are grouped and the wallet summary (min, median, max, total
    left) is computed as ints over the lcm of the distinct denominators,
    so beyond one pass over the payments and wallets the cost grows with
    the number of distinct values, not with the voters.
    """
    text = _money_text()
    n = len(ledger.budgets)
    lines = [
        f"Budget {text(ledger.run_budget)} split equally: "
        f"{n} voters, {text(ledger.initial_share)} each."
    ]
    for step, pid in enumerate(ledger.selection_order, start=1):
        project = instance.project(pid)
        pays = ledger.payments[pid]
        factor = ledger.affordabilities[pid]
        label = f"{pid} ({project.name})" if project.name else pid
        head = f"{step}. buy {label}, cost {text(project.cost)}, alpha = {text(factor)}: "
        groups = _group_payments(pays)
        if len(groups) == 1:
            amount, voters = groups[0]
            detail = f"{len(voters)} payer{'s' if len(voters) != 1 else ''}, each pays {text(amount)}."
        elif len(pays) <= 8:
            detail = "; ".join(
                f"{', '.join(sorted(voters))} pay{'s' if len(voters) == 1 else ''} {text(amount)}"
                for amount, voters in groups
            ) + "."
        else:
            detail = "; ".join(
                f"{len(voters)} pay {text(amount)}" for amount, voters in groups
            ) + "."
        lines.append(head + detail)
    if n <= 12:
        listing = ", ".join(f"{vid}={text(b)}" for vid, b in ledger.budgets.items())
        lines.append(f"Final wallets: {listing}.")
    else:
        low, median, high, total = _wallet_summary(ledger.budgets.values())
        lines.append(
            f"Final wallets: min {text(low)}, median {text(median)}, "
            f"max {text(high)}; total left {text(total)}."
        )
    return "\n".join(lines)
