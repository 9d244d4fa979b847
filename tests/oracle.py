"""Independent oracles for the selection rules.

Everything here follows the definitions literally and slowly: the
affordability fixed point iterates poor/rich contributions until stable,
and the brute-force method recomputes every candidate's affordability
from scratch at every step.  No laziness, no caching, no shared code
with the engines under test.  The ledger renderings format every value
on its own and sort and group ``Fraction``s directly.
"""

from __future__ import annotations

import dataclasses
import statistics
from fractions import Fraction

from pbrules.model import Instance, Profile, format_money, total_cost
from pbrules.rules import TieBreak


def affordability_fixed_point(budgets, approver_ids, cost):
    """Literal repeat-until-stable iteration.

    Start with equal contributions cost/k; repeatedly let agents whose
    budget cannot exceed their contribution pay their whole budget and
    split the remainder equally over the rest; stop when every budget
    covers its contribution.  Returns (factor, contributions) with zero
    contributions dropped, or None when the budgets cannot cover cost.
    """
    ids = sorted(approver_ids)
    if not ids:
        return None
    total = sum((budgets[i] for i in ids), Fraction(0))
    if total < cost:
        return None
    k = len(ids)
    gamma = {i: Fraction(cost, k) for i in ids}
    for _ in range(2 * k + 5):
        poor = [i for i in ids if budgets[i] <= gamma[i]]
        rich = [i for i in ids if budgets[i] > gamma[i]]
        new_gamma = {i: budgets[i] for i in poor}
        if rich:
            share = (cost - sum((budgets[i] for i in poor), Fraction(0))) / len(rich)
            for i in rich:
                new_gamma[i] = share
        if all(budgets[i] >= new_gamma[i] for i in ids):
            factor = max(new_gamma.values()) / cost
            return factor, {i: g for i, g in new_gamma.items() if g > 0}
        gamma = new_gamma
    raise AssertionError("affordability fixed point did not stabilize")


def mes_bruteforce(instance: Instance, profile: Profile, tiebreak: TieBreak | None = None):
    """Definitional equal shares: full rescan of every remaining project
    at every step, lowest (factor, tie rank) bought first.

    Returns (selection order, factors, payments, final budgets), all
    keyed by ids.
    """
    tiebreak = tiebreak or TieBreak()
    rank = tiebreak.rank(instance)
    n = profile.voter_count
    budgets = {
        ballot.voter_id: Fraction(instance.budget_limit, n) for ballot in profile.ballots
    }
    approver_map = {
        project.id: sorted(
            ballot.voter_id
            for ballot in profile.ballots
            if project.id in ballot.approved
        )
        for project in instance.projects
    }
    remaining = {project.id for project in instance.projects}
    order: list[str] = []
    factors: dict[str, Fraction] = {}
    payments: dict[str, dict[str, Fraction]] = {}
    while True:
        best = None
        for pid in sorted(remaining, key=rank.__getitem__):
            result = affordability_fixed_point(
                budgets, approver_map[pid], instance.cost_of(pid)
            )
            if result is None:
                continue
            factor, contributions = result
            if best is None or factor < best[1]:
                best = (pid, factor, contributions)
        if best is None:
            break
        pid, factor, contributions = best
        for vid, amount in contributions.items():
            budgets[vid] -= amount
        remaining.discard(pid)
        order.append(pid)
        factors[pid] = factor
        payments[pid] = contributions
    return order, factors, payments, budgets


def star_bruteforce(
    instance: Instance,
    profile: Profile,
    epsilon: Fraction,
    max_rounds: int,
    tiebreak: TieBreak | None = None,
):
    """Definitional budget-increase completion over mes_bruteforce.

    Returns (selected ids, chosen_round, rounds_examined, status) with
    the same semantics as the engines' run_star.
    """
    limit = instance.budget_limit
    previous: list[str] = []
    for r in range(max_rounds):
        trial = dataclasses.replace(instance, budget_limit=limit + r * epsilon)
        order, _, _, _ = mes_bruteforce(trial, profile, tiebreak)
        total = total_cost(order, instance)
        if total > limit:
            return previous, max(r - 1, 0), r + 1, "next_infeasible"
        leftover = limit - total
        chosen = set(order)
        if all(p.cost > leftover for p in instance.projects if p.id not in chosen):
            return order, r, r + 1, "complete"
        previous = order
    return previous, max_rounds - 1, max_rounds, "exhausted"


def topup_bruteforce(base_ids, instance: Instance, profile: Profile, tiebreak: TieBreak):
    """Definitional greedy top-up: a separate greedy election on the
    projects ``base_ids`` leaves unfunded, at the budget it leaves over,
    with every ballot cut down to those projects.

    Ties in approval score go to the project whose values under the
    ``tiebreak`` tokens ("cost", "-cost", "id") compare smaller, token by
    token.  Returns the union of ``base_ids`` and the projects bought.
    """
    funded = set(base_ids)
    leftover = instance.budget_limit - total_cost(funded, instance)
    rest = [project for project in instance.projects if project.id not in funded]
    rest_ids = {project.id for project in rest}
    ballots = [ballot.approved & rest_ids for ballot in profile.ballots]

    def priority(project):
        score = sum(1 for approved in ballots if project.id in approved)
        values = {"cost": project.cost, "-cost": -project.cost, "id": project.id}
        return (-score, tuple(values[token] for token in tiebreak.criteria))

    for project in sorted(rest, key=priority):
        if project.cost <= leftover:
            funded.add(project.id)
            leftover -= project.cost
    return funded


def ledger_json_dict(ledger):
    """``MesLedger.to_json_dict`` by definition: every money value is
    formatted on its own."""
    return {
        "run_budget": format_money(ledger.run_budget),
        "initial_share": format_money(ledger.initial_share),
        "selection_order": list(ledger.selection_order),
        "affordabilities": {
            pid: format_money(a) for pid, a in ledger.affordabilities.items()
        },
        "payments": {
            pid: {vid: format_money(x) for vid, x in sorted(pays.items())}
            for pid, pays in ledger.payments.items()
        },
        "budgets": {vid: format_money(b) for vid, b in ledger.budgets.items()},
    }


def _payment_groups(pays):
    groups = {}
    for vid, amount in pays.items():
        groups.setdefault(amount, []).append(vid)
    return [(amount, sorted(groups[amount])) for amount in sorted(groups)]


def trace_text(ledger, instance: Instance) -> str:
    """``emit_trace`` by definition: payments grouped by ``Fraction``
    value, the wallet summary from ``min``, ``statistics.median``,
    ``max`` and ``sum`` over every wallet."""
    n = len(ledger.budgets)
    lines = [
        f"Budget {format_money(ledger.run_budget)} split equally: "
        f"{n} voters, {format_money(ledger.initial_share)} each."
    ]
    for step, pid in enumerate(ledger.selection_order, start=1):
        project = instance.project(pid)
        pays = ledger.payments[pid]
        label = f"{pid} ({project.name})" if project.name else pid
        head = (
            f"{step}. buy {label}, cost {format_money(project.cost)}, "
            f"alpha = {format_money(ledger.affordabilities[pid])}: "
        )
        groups = _payment_groups(pays)
        if len(groups) == 1:
            amount, voters = groups[0]
            plural = "s" if len(voters) != 1 else ""
            detail = f"{len(voters)} payer{plural}, each pays {format_money(amount)}."
        elif len(pays) <= 8:
            detail = "; ".join(
                f"{', '.join(voters)} pay{'s' if len(voters) == 1 else ''} "
                f"{format_money(amount)}"
                for amount, voters in groups
            ) + "."
        else:
            detail = "; ".join(
                f"{len(voters)} pay {format_money(amount)}" for amount, voters in groups
            ) + "."
        lines.append(head + detail)
    wallets = list(ledger.budgets.values())
    if n <= 12:
        listing = ", ".join(f"{vid}={format_money(b)}" for vid, b in ledger.budgets.items())
        lines.append(f"Final wallets: {listing}.")
    else:
        lines.append(
            f"Final wallets: min {format_money(min(wallets))}, "
            f"median {format_money(statistics.median(wallets))}, "
            f"max {format_money(max(wallets))}; total left {format_money(sum(wallets))}."
        )
    return "\n".join(lines)
