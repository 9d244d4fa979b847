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

__all__ = [
    "RULE_NAMES", "MesLedger", "RuleResult", "RuleSpec", "StarResult", "Variant",
    "complete_star", "complete_with_secondary", "default_epsilon", "emit_trace",
    "greed_cost", "mes", "run_rule",
]

import enum
import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import _mes_pure
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
        object.__setattr__(self, "epsilon", _star_options(self.epsilon, self.max_iterations))

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "RuleSpec":
        try:
            variant = Variant(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown rule {name!r}; known rules: {', '.join(RULE_NAMES)}"
            ) from None
        return cls(variant=variant, **kwargs)


def _star_options(epsilon: Money | None, max_iterations: int) -> Money | None:
    """``epsilon`` as money, after checking that it is positive (None
    stays None) and that ``max_iterations`` is an int of at least 1."""
    if epsilon is not None:
        epsilon = money(epsilon)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
    if isinstance(max_iterations, bool) or not isinstance(max_iterations, int):
        raise ValueError(f"max_iterations must be an int, not {max_iterations!r}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    return epsilon


def default_epsilon(profile: Profile) -> Money:
    """One cent per voter: the smallest increment that moves every
    per-voter share by a whole cent each round."""
    return Fraction(profile.voter_count, 100)


@dataclass(frozen=True, eq=False)
class MesLedger:
    """Full account of one equal-shares run, built from the engine's
    wallet-class groups (see ``MesEngine.run``) by :func:`mes` and
    :func:`run_rule`.

    ``affordabilities`` holds the factor each project was bought at.
    ``voters`` names each voter index; ``purchases`` maps each bought
    project to its ``(payers, classes, amounts, units)``: the paying
    voter indices, the class of each and one integer amount per class,
    in units of ``1/units``; ``final`` is ``(classes, wallets, units)``,
    the class of each voter and one integer wallet per class.  The
    ``payments`` dicts (each project's positive per-voter contributions,
    in ballot order) and ``budgets`` (the final wallets, in ballot
    order) are built from the groups on first read and then kept; ``==``
    compares them and the first four fields.

    :meth:`to_json` writes the JSON text itself, byte for byte what
    ``json.dumps(..., indent=2)`` writes for the fields ``==`` compares,
    every value exact (see :func:`~pbrules.model.format_money`), except
    that it sorts each purchase's payers by voter id as plain strings:
    with ballots ``b`` then ``a``, the ``payments`` keys are ``b, a`` and
    the JSON keys ``a, b``; ``budgets`` keeps ballot order in both.  It and
    :func:`emit_trace` pass single values to ``format_money``, test each
    denominator once for a decimal form and format each amount once per
    unit; the per-payer and per-wallet work is lookups, counts and joins
    done by ``map``, ``Counter`` and ``str.join`` in C.
    """

    run_budget: Money
    initial_share: Money
    selection_order: tuple[str, ...]
    affordabilities: dict[str, Money]
    voters: tuple[str, ...]
    purchases: dict[str, tuple[list[int], list[int], dict[int, int], int]]
    final: tuple[list[int], list[int], int]
    _tails: dict = field(default_factory=dict, init=False, repr=False)  # den -> "/den", or ""
    _amounts: dict = field(default_factory=dict, init=False, repr=False)  # units -> {amount: text}

    @cached_property
    def payments(self) -> dict[str, dict[str, Money]]:
        voters = self.voters
        payments = {}
        for pid, (payers, classes, amounts, units) in self.purchases.items():
            paid = {c: Fraction(amount, units) for c, amount in amounts.items()}
            payments[pid] = dict(zip(map(voters.__getitem__, payers), map(paid.__getitem__, classes)))
        return payments

    @cached_property
    def budgets(self) -> dict[str, Money]:
        classes, wallets, units = self.final
        held = {c: Fraction(wallets[c], units) for c in set(classes)}
        return dict(zip(self.voters, map(held.__getitem__, classes)))

    def __eq__(self, other):
        if not isinstance(other, MesLedger):
            return NotImplemented
        view = operator.attrgetter(
            "run_budget", "initial_share", "selection_order", "affordabilities", "payments", "budgets"
        )
        return view(self) == view(other)

    def _format(self, num: int, den: int) -> str:
        """:func:`~pbrules.model.format_money` of the reduced fraction
        ``num / den``, for :meth:`_texts`: each distinct denominator is
        tested once per ledger for a finite decimal form."""
        tail = self._tails.get(den)
        if tail is None:
            tail = self._tails[den] = "" if decimal_places(den) is not None else f"/{den}"
        return f"{num}{tail}" if tail else format_money(Fraction(num, den))

    def _texts(self, amounts: Iterable[int], units: int) -> dict[int, str]:
        """The text of ``amount / units`` for each of ``amounts``, and of
        the amounts of earlier calls with the same ``units``.

        The amounts are large ints, and a gcd costs more than a lookup:
        each distinct amount is reduced once per ledger, by gcds taken in
        one ``map``."""
        texts = self._amounts.setdefault(units, {})
        new = list(set(amounts).difference(texts))
        gcds = list(map(math.gcd, new, repeat(units)))
        nums = map(operator.floordiv, new, gcds)
        dens = map(operator.floordiv, repeat(units), gcds)
        texts.update(zip(new, map(self._format, nums, dens)))
        return texts

    def to_json(self) -> str:
        names = list(map(encode_basestring_ascii, self.voters))
        classes, wallets, units = self.final
        text = self._texts(map(wallets.__getitem__, set(classes)), units)
        fields = {
            "run_budget": [f'"{format_money(self.run_budget)}"'],
            "initial_share": [f'"{format_money(self.initial_share)}"'],
            "selection_order": _json_block(
                "[]", None, list(map(encode_basestring_ascii, self.selection_order)), 1
            ),
            "affordabilities": _json_block(
                "{}",
                list(map(encode_basestring_ascii, self.affordabilities)),
                list(map(format_money, self.affordabilities.values())),
                1,
                quote='"',
            ),
            "payments": _json_nest(
                "{}", list(map(encode_basestring_ascii, self.purchases)), self._paid(names), 1
            ),
            "budgets": _json_block(
                "{}",
                names,
                list(map(text.__getitem__, map(wallets.__getitem__, classes))),
                1,
                quote='"',
            ),
        }
        return "".join(_json_nest("{}", list(map(encode_basestring_ascii, fields)), list(fields.values()), 0))

    def _paid(self, names: list[str]) -> list[list[str]]:
        """The JSON pieces of each purchase's payments, payers by voter
        id, with ``names`` the JSON string of each voter id."""
        # sort the ids once; each purchase sorts its payers by rank
        order = sorted(range(len(names)), key=self.voters.__getitem__)
        rank = sorted(range(len(names)), key=order.__getitem__)
        ranked = list(map(names.__getitem__, order))
        blocks = []
        for payers, classes, amounts, units in self.purchases.values():
            text = self._texts(amounts.values(), units)
            text = dict(zip(amounts, map(text.__getitem__, amounts.values())))
            ranks = list(map(rank.__getitem__, payers))
            by_id = sorted(range(len(ranks)), key=ranks.__getitem__)
            names = list(map(ranked.__getitem__, map(ranks.__getitem__, by_id)))
            values = list(map(text.__getitem__, map(classes.__getitem__, by_id)))
            blocks.append(_json_block("{}", names, values, 2, quote='"'))
        return blocks


def _json_block(
    brackets: str, keys: list[str] | None, values: list[str], depth: int, quote: str = ""
) -> list[str]:
    """The pieces of one JSON object or array, ``depth`` levels deep, as
    ``json.dumps(..., indent=2)`` writes it: each of ``values`` is a JSON
    text once put between two ``quote``, after its key string from
    ``keys`` in an object and alone when ``keys`` is None."""
    if not values:
        return [brackets]
    pad = "\n" + "  " * (depth + 1)
    first, sep, last = brackets[0] + pad, quote + "," + pad, quote + "\n" + "  " * depth + brackets[1]
    if keys is None:
        return [first + quote, (sep + quote).join(values), last]
    pieces = [sep, "", ": " + quote, ""] * len(values)
    pieces[0] = first
    pieces[1::4] = keys
    pieces[3::4] = values
    pieces.append(last)
    return pieces


def _json_nest(brackets: str, keys: list[str], blocks: list[list[str]], depth: int) -> list[str]:
    """The pieces of one JSON object of nested values, as
    :func:`_json_block` writes it, with ``blocks`` the pieces of each
    value: one list of pieces to join, so the text is copied once."""
    if not blocks:
        return [brackets]
    pad = "\n" + "  " * (depth + 1)
    pieces = [brackets[0]]
    sep = pad
    for key, block in zip(keys, blocks):
        pieces += (sep, key, ": ")
        pieces += block
        sep = "," + pad
    pieces.append("\n" + "  " * depth + brackets[1])
    return pieces


@dataclass(frozen=True)
class StarResult:
    """Outcome of the budget-increase completion.

    ``allocation`` is the selection of the chosen round, always feasible
    for the original limit.  ``status`` is "complete" when that selection
    is complete, "next_infeasible" when the following round overshot the
    original limit (the search then stops by definition, possibly leaving
    the result incomplete), or "exhausted" when ``max_iterations`` rounds
    were examined without either event.  ``rounds_run`` counts the
    rounds run, by the engine or by a checked guess of what they buy:
    the search skips rounds it proves select the same projects as the
    round before.
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
    selected, factors, purchases, final = engine.run(share, want_ledger=True)
    bought = tuple(map(compile_election(instance, profile).ids.__getitem__, selected))
    return selected, MesLedger(
        run_budget,
        share,
        bought,
        dict(zip(bought, factors)),
        profile.voter_ids,
        dict(zip(bought, purchases)),
        final,
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


def mes_selection(instance: Instance, profile: Profile) -> Allocation:
    """The allocation of :func:`mes`, from a run that records no ledger."""
    share = Fraction(instance.budget_limit, profile.voter_count)
    selected = _make_engine(instance, profile).run(share)[0]
    ids = compile_election(instance, profile).ids
    return Allocation.of(map(ids.__getitem__, selected), instance)


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
    instance: Instance,
    profile: Profile,
    epsilon: Money | None = None,
    max_iterations: int = 10_000,
) -> StarResult:
    """Complete equal shares by rerunning it at limit, limit + eps,
    limit + 2*eps, ... and returning the first round whose selection is
    complete and still feasible for the *original* limit.

    A round that overshoots the original limit ends the search with the
    previous round's selection (which may be incomplete); running out of
    rounds returns the last feasible selection with status "exhausted".
    One engine runs the rounds and skips those it proves select what the
    round before selected (see ``MesEngine.run_star``), then replays the
    chosen round for the ledger.
    """
    epsilon = _star_options(epsilon, max_iterations)
    if epsilon is None:
        epsilon = default_epsilon(profile)
    budget = instance.budget_limit
    engine = _make_engine(instance, profile)
    selected, chosen, examined, status, rounds_run = engine.run_star(
        budget, epsilon, max_iterations
    )
    replay, ledger = _ledger_run(engine, instance, profile, budget + chosen * epsilon)
    if replay != selected:
        raise AssertionError("star replay diverged from the search run")
    return StarResult(
        allocation=Allocation.of(ledger.selection_order, instance),
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
        star = complete_star(instance, profile, spec.epsilon, spec.max_iterations)
        allocation, ledger = star.allocation, star.ledger
    else:
        allocation, ledger = mes(instance, profile)
    if spec.variant is not Variant.MES:
        allocation = complete_with_secondary(allocation, instance, profile)
    return RuleResult(name, allocation, ledger=ledger, star=star)


def _by_amount(classes: list[int], amounts) -> list[tuple[int, int]]:
    """The distinct amounts ``amounts[c]`` over ``classes``, ascending,
    each with how many entries of ``classes`` hold it."""
    return sorted(Counter(map(amounts.__getitem__, classes)).items())


def _wallet_summary(tally: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    """(min, twice the median, max, total) of the wallets counted in
    ``tally`` (see :func:`_by_amount`).  For an even count the median is
    the mean of the two middle wallets."""
    ends = list(accumulate(count for _, count in tally))

    def ranked(rank: int) -> int:  # the wallet at 0-based ``rank``, ascending
        return tally[bisect_right(ends, rank)][0]

    n = ends[-1]
    total = sum(wallet * count for wallet, count in tally)
    return tally[0][0], ranked((n - 1) // 2) + ranked(n // 2), tally[-1][0], total


def emit_trace(ledger: MesLedger, instance: Instance) -> str:
    """Human-readable account of an equal-shares run: the per-voter share,
    each purchase with its affordability factor and payments, and the
    final wallets.

    Every number is exact.  The trace reads the ledger's groups (see
    :class:`MesLedger`) and shares its formatted amounts with
    :meth:`MesLedger.to_json`.  A purchase's payers and the final
    wallets are counted per amount with ``Counter`` in C, and the groups
    and the wallet summary (min, median, max, total left) computed from
    those counts as ints; only a purchase of at most 8 payers, whose
    trace names them, and a ledger of at most 12 voters, whose wallets
    it lists, run Python code per voter.
    """
    voters = ledger.voters
    classes, wallets, units = ledger.final
    n = len(classes)
    lines = [
        f"Budget {format_money(ledger.run_budget)} split equally: "
        f"{n} voters, {format_money(ledger.initial_share)} each."
    ]
    for step, pid in enumerate(ledger.selection_order, start=1):
        project = instance.project(pid)
        payers, paid, amounts, scale = ledger.purchases[pid]
        text = ledger._texts(amounts.values(), scale)
        label = f"{pid} ({project.name})" if project.name else pid
        head = f"{step}. buy {label}, cost {format_money(project.cost)}, "
        head += f"alpha = {format_money(ledger.affordabilities[pid])}: "
        groups = _by_amount(paid, amounts)
        if len(groups) == 1:
            amount, count = groups[0]
            detail = f"{count} payer{'s' if count != 1 else ''}, each pays {text[amount]}."
        elif len(payers) <= 8:
            named: dict[int, list[str]] = {amount: [] for amount, _ in groups}
            for vid, c in sorted(zip(map(voters.__getitem__, payers), paid)):
                named[amounts[c]].append(vid)
            detail = "; ".join(
                f"{', '.join(names)} pay{'s' if len(names) == 1 else ''} {text[amount]}"
                for amount, names in named.items()
            ) + "."
        else:
            detail = "; ".join(f"{count} pay {text[amount]}" for amount, count in groups) + "."
        lines.append(head + detail)
    if n <= 12:
        text = ledger._texts(map(wallets.__getitem__, classes), units)
        listing = ", ".join(f"{vid}={text[wallets[c]]}" for vid, c in zip(voters, classes))
        lines.append(f"Final wallets: {listing}.")
    else:
        low, middle, high, total = _wallet_summary(_by_amount(classes, wallets))
        text = ledger._texts((low, high, total), units)
        lines.append(
            f"Final wallets: min {text[low]}, "
            f"median {ledger._texts((middle,), 2 * units)[middle]}, "
            f"max {text[high]}; total left {text[total]}."
        )
    return "\n".join(lines)
