"""Budgeting rules: greedy cost welfare, the Method of Equal Shares and
its completions.

All rules are deterministic: every tie goes by one fixed order, the
cheaper project first, then the smaller project id compared as a plain
string (``"10"`` before ``"9"``), so reruns agree bit for bit.  The
compiled election holds that order as ``tie_rank``.

Each rule reads the :class:`~pbrules.model.CompiledElection` of its
instance and profile from :func:`~pbrules.model.compile_election`, which
builds it once per pair, so the rules and metrics of one instance share
one compile.  The equal-shares selection runs on the exact engine of
``_mes_pure``, built on the compiled arrays; this module owns the
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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Collection

from . import _mes_pure
from ._mes_pure import STATUS_COMPLETE, STATUS_EXHAUSTED, STATUS_NEXT_INFEASIBLE
from .model import (
    Allocation,
    Instance,
    Money,
    Profile,
    compile_election,
    decimal_places,
    format_money,
    id_sort_key,
    is_complete,
    money,
)

# perfbench patches _backend.MesEngine and reads SELECTION_BACKEND: keep both
_backend = _mes_pure
SELECTION_BACKEND = "pure"

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

    :meth:`to_json` writes the JSON text itself, byte for byte what
    ``json.dumps(..., indent=2)`` writes for :meth:`to_json_dict`, with
    every value exact (see :func:`~pbrules.model.format_money`).  Each
    distinct money value is formatted once, each distinct money object
    escaped once and each voter id escaped once; per payment and wallet
    there are only lookups and joins done by ``map`` and ``str.join`` in
    C, so the Python-level work grows with the distinct values and
    voters, not with the payments.
    """

    run_budget: Money
    initial_share: Money
    selection_order: tuple[str, ...]
    affordabilities: dict[str, Money]
    payments: dict[str, dict[str, Money]]
    budgets: dict[str, Money]

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        literal = _money_literals(
            (self.run_budget, self.initial_share),
            self.affordabilities.values(),
            *(pays.values() for pays in self.payments.values()),
            self.budgets.values(),
        ).__getitem__
        # every voter id has a wallet: escape them all in one pass
        key = _JsonKeys(zip(self.budgets, map(encode_basestring_ascii, self.budgets))).__getitem__

        def block(amounts: dict[str, Money], depth: int, sort: bool = False) -> str:
            names = sorted(amounts) if sort else amounts
            values = map(amounts.__getitem__, names) if sort else amounts.values()
            return _json_block(
                "{}", list(map(key, names)), list(map(literal, map(id, values))), depth
            )

        fields = {
            "run_budget": literal(id(self.run_budget)),
            "initial_share": literal(id(self.initial_share)),
            "selection_order": _json_block(
                "[]", None, list(map(encode_basestring_ascii, self.selection_order)), 1
            ),
            "affordabilities": block(self.affordabilities, 1),
            "payments": _json_block(
                "{}",
                list(map(key, self.payments)),
                [block(pays, 2, sort=True) for pays in self.payments.values()],
                1,
            ),
            "budgets": block(self.budgets, 1),
        }
        return _json_block("{}", list(map(key, fields)), list(fields.values()), 0)


class _JsonKeys(dict):
    """JSON strings of object keys, each escaped on its first lookup."""

    def __missing__(self, name: str) -> str:
        text = self[name] = encode_basestring_ascii(name)
        return text


def _json_block(brackets: str, keys: list[str] | None, values: list[str], depth: int) -> str:
    """One JSON object or array, ``depth`` levels deep, as
    ``json.dumps(..., indent=2)`` writes it: ``values`` are JSON texts,
    each after its key string from ``keys`` in an object and alone when
    ``keys`` is None."""
    if not values:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    first, sep, last = brackets[0] + pad, "," + pad, "\n" + "  " * depth + brackets[1]
    if keys is None:
        return first + sep.join(values) + last
    pieces = [sep, "", ": ", ""] * len(values)
    pieces[0] = first
    pieces[1::4] = keys
    pieces[3::4] = values
    pieces.append(last)
    return "".join(pieces)


def _money_literals(*groups: Collection[Money]) -> dict[int, str]:
    """The JSON string of each money object in ``groups``, keyed by ``id``.

    Each distinct object is looked up and escaped once, and each
    distinct value formatted once (see :func:`_money_text`).  The ids
    are valid while the caller keeps the objects alive, as a ledger does
    during its rendering.
    """
    objects: dict[int, Money] = {}
    for values in groups:
        objects.update(zip(map(id, values), values))
    text = _money_text()
    return {key: encode_basestring_ascii(text(value)) for key, value in objects.items()}


@dataclass(frozen=True)
class StarResult:
    """Outcome of the budget-increase completion.

    ``allocation`` is the selection of the chosen round, always feasible
    for the original limit.  ``status`` is "complete" when that selection
    is complete, "next_infeasible" when the following round overshot the
    original limit (the search then stops by definition, possibly leaving
    the result incomplete), or "exhausted" when ``max_iterations`` rounds
    were examined without either event.  ``rounds_run`` counts the
    rounds whose selection was actually computed: the equal-shares
    search skips rounds it proves select the same projects as the round
    before, the generic search runs every round it examines.
    """

    allocation: Allocation
    status: str
    chosen_round: int
    rounds_examined: int
    rounds_run: int
    epsilon: Money
    budget_used: Money
    ledger: MesLedger | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "chosen_round": self.chosen_round,
            "rounds_examined": self.rounds_examined,
            "rounds_run": self.rounds_run,
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
    funded: frozenset[str],
    remaining: Money,
) -> Allocation:
    """Walk the projects by (-approval score, tie rank), skip those in
    ``funded`` and fund each other one that fits in ``remaining``."""
    election = compile_election(instance, profile)
    rank = election.tie_rank
    selected = list(funded)
    for j in sorted(range(len(rank)), key=lambda j: (-len(election.approvers[j]), rank[j])):
        project = instance.projects[j]
        if project.id not in funded and project.cost <= remaining:
            selected.append(project.id)
            remaining -= project.cost
    return Allocation.of(selected, instance)


def greed_cost(instance: Instance, profile: Profile) -> Allocation:
    """Greedy cost welfare: walk projects by approval score (descending)
    and fund each one that still fits.  Complete by construction."""
    return _greedy_walk(instance, profile, frozenset(), instance.budget_limit)


def _make_engine(instance: Instance, profile: Profile):
    election = compile_election(instance, profile)
    costs = [p.cost for p in instance.projects]
    return _backend.MesEngine(
        len(election.ballots), costs, election.approvers, election.tie_rank, election.ballots
    )


def _ledger_run(engine, instance: Instance, profile: Profile, run_budget: Money):
    """Run ``engine`` at an equal split of ``run_budget``; its selection and ledger."""
    share = Fraction(run_budget, profile.voter_count)
    selected, factors, payments, final_budgets = engine.run(share, want_ledger=True)
    pids = compile_election(instance, profile).ids
    vids = profile.voter_ids
    return selected, MesLedger(
        run_budget=run_budget,
        initial_share=share,
        selection_order=tuple(pids[p] for p in selected),
        affordabilities={pids[p]: f for p, f in zip(selected, factors)},
        payments={
            pids[p]: {vids[v]: amount for v, amount in pays}
            for p, pays in zip(selected, payments)
        },
        budgets=dict(zip(vids, final_budgets)),
    )


def mes(instance: Instance, profile: Profile) -> tuple[Allocation, MesLedger]:
    """Method of Equal Shares at the instance's own budget limit.

    Each voter gets an equal share of the limit; projects are bought in
    order of affordability (approvers' cheapest uniform payment per unit
    of cost), cheapest first, deducting real payments from wallets.  Not
    complete in general; see the completions below.
    """
    engine = _make_engine(instance, profile)
    _, ledger = _ledger_run(engine, instance, profile, instance.budget_limit)
    return Allocation.of(ledger.selection_order, instance), ledger


def complete_with_secondary(base: Allocation, instance: Instance, profile: Profile) -> Allocation:
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
    return _greedy_walk(instance, profile, base.selected, leftover)


def complete_star(
    rule,
    instance: Instance,
    profile: Profile,
    epsilon: Money | None = None,
    max_iterations: int = 10_000,
) -> StarResult:
    """Complete a rule by rerunning it at limit, limit + eps, limit + 2*eps,
    ... and returning the first round whose outcome is complete and still
    feasible for the *original* limit.

    A round that overshoots the original limit ends the search with the
    previous round's outcome (which may be incomplete); running out of
    rounds returns the last feasible outcome with status "exhausted".
    ``rule`` is either :func:`mes` or any callable (Instance, Profile) ->
    Allocation, run at every round.  The equal-shares rule takes a fast
    path inside this function: one engine runs the rounds and skips
    those it proves select what the round before selected (see
    ``MesEngine.run_star``), then replays the chosen round for the
    ledger.  A callable runs each round; both paths report the same
    status, chosen round and rounds examined; ``rounds_run`` tells them
    apart.
    """
    if not callable(rule):
        raise ValueError(f"not a rule: {rule!r}")
    epsilon = default_epsilon(profile) if epsilon is None else money(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    budget = instance.budget_limit
    ledger = None

    if rule is mes:
        engine = _make_engine(instance, profile)
        selected, chosen, examined, status, rounds_run = engine.run_star(
            budget, epsilon, max_iterations
        )
        replay, ledger = _ledger_run(engine, instance, profile, budget + chosen * epsilon)
        if replay != selected:
            raise AssertionError("star replay diverged from the search run")
        allocation = Allocation.of(ledger.selection_order, instance)
    else:
        allocation = Allocation(frozenset(), 0)
        status, chosen = STATUS_EXHAUSTED, max_iterations - 1
        for round_index in range(max_iterations):
            trial = dataclasses.replace(instance, budget_limit=budget + round_index * epsilon)
            outcome = rule(trial, profile)
            if outcome.total_cost > budget:
                status, chosen = STATUS_NEXT_INFEASIBLE, max(round_index - 1, 0)
                break
            allocation = Allocation.of(outcome.selected, instance)
            if is_complete(allocation, instance):
                status, chosen = STATUS_COMPLETE, round_index
                break
        # the round the search stopped at, the last one when none ended it
        rounds_run = examined = round_index + 1

    return StarResult(
        allocation=allocation,
        status=status,
        chosen_round=chosen,
        rounds_examined=examined,
        rounds_run=rounds_run,
        epsilon=epsilon,
        budget_used=budget + chosen * epsilon,
        ledger=ledger,
    )


def run_rule(spec: RuleSpec, instance: Instance, profile: Profile) -> RuleResult:
    """Dispatch a :class:`RuleSpec` and return the final allocation with
    the run's evidence (ledger, star metadata) attached."""
    name = spec.variant.value
    if spec.variant is Variant.GREED_COST:
        return RuleResult(name, greed_cost(instance, profile))
    star = None
    if spec.variant is Variant.MES_STAR_PLUS:
        star = complete_star(mes, instance, profile, spec.epsilon, spec.max_iterations)
        allocation, ledger = star.allocation, star.ledger
    else:
        allocation, ledger = mes(instance, profile)
    if spec.variant is not Variant.MES:
        allocation = complete_with_secondary(allocation, instance, profile)
    return RuleResult(name, allocation, ledger=ledger, star=star)


def _money_text():
    """A :func:`format_money` that formats each distinct value once.

    Values are keyed by their ``(numerator, denominator)`` pair: hashing
    a ``Fraction`` computes a modular inverse of its denominator.  Each
    distinct denominator is tested for a finite decimal form and, when
    it has none, written once.
    """
    seen: dict[tuple[int, int], str] = {}
    tails: dict[int, str] = {}  # "/den", or "" for a finite decimal

    def text(value: Money) -> str:
        key = value.as_integer_ratio()
        found = seen.get(key)
        if found is None:
            num, den = key
            tail = tails.get(den)
            if tail is None:
                tail = tails[den] = "" if decimal_places(den) is not None else f"/{den}"
            found = seen[key] = f"{num}{tail}" if tail else format_money(value)
        return found

    return text


def _tally(values: Collection[Money]) -> tuple[int, list[tuple[int, Money, int]]]:
    """The distinct values ascending, each as ``(value * unit, value,
    count)``, with ``unit`` the lcm of their denominators.

    The objects are counted by ``id`` in C, which is valid because
    ``values`` holds them, and then merged by ``(numerator,
    denominator)`` once per distinct object.
    """
    counts = Counter(map(id, values))
    objects = dict(zip(map(id, values), values))
    merged: dict[tuple[int, int], list] = {}
    for key, count in counts.items():
        value = objects[key]
        ratio = value.as_integer_ratio()
        entry = merged.get(ratio)
        if entry is None:
            merged[ratio] = [value, count]
        else:
            entry[1] += count
    dens = {den for _, den in merged}
    unit = math.lcm(*dens)
    scale = {den: unit // den for den in dens}
    return unit, sorted(
        (num * scale[den], value, count) for (num, den), (value, count) in merged.items()
    )


def _wallet_summary(wallets: Collection[Money]) -> tuple[Money, Money, Money, Money]:
    """(min, median, max, total) of the wallets.

    The distinct values (see :func:`_tally`) are summed and ranked as
    ints over the lcm of their denominators; one ``Fraction`` is built
    per result.  For an even count the median is the exact mean of the
    two middle wallets.
    """
    unit, tally = _tally(wallets)
    ends = list(accumulate(count for *_, count in tally))

    def ranked(rank: int) -> int:  # the wallet at 0-based ``rank``, ascending
        return tally[bisect_right(ends, rank)][0]

    n = ends[-1]
    middle = ranked((n - 1) // 2) + ranked(n // 2)
    total = sum(value * count for value, _, count in tally)
    return (
        Fraction(tally[0][0], unit),
        Fraction(middle, 2 * unit),
        Fraction(tally[-1][0], unit),
        Fraction(total, unit),
    )


def emit_trace(ledger: MesLedger, instance: Instance) -> str:
    """Human-readable account of an equal-shares run: the per-voter share,
    each purchase with its affordability factor and payments, and the
    final wallets.

    Every number is exact.  Each distinct money value is formatted once.
    The payments of a purchase and the final wallets are counted per
    object with ``Counter(map(id, ...))`` in C, the distinct objects
    merged by ``(numerator, denominator)``, and groups and the wallet
    summary (min, median, max, total left) computed as ints over the lcm
    of the distinct denominators; only a purchase of at most 8 payers,
    whose trace names them, and a ledger of at most 12 voters, whose
    wallets it lists, run Python code per voter.
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
        _, groups = _tally(pays.values())
        if len(groups) == 1:
            _, amount, count = groups[0]
            detail = f"{count} payer{'s' if count != 1 else ''}, each pays {text(amount)}."
        elif len(pays) <= 8:
            named = {amount.as_integer_ratio(): [] for _, amount, _ in groups}
            for vid in sorted(pays):
                named[pays[vid].as_integer_ratio()].append(vid)
            detail = "; ".join(
                f"{', '.join(voters)} pay{'s' if len(voters) == 1 else ''} {text(pays[voters[0]])}"
                for voters in named.values()
            ) + "."
        else:
            detail = "; ".join(f"{count} pay {text(amount)}" for _, amount, count in groups) + "."
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
