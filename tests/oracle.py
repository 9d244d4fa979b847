"""Independent oracles for the selection rules.

Everything here follows the definitions literally and slowly: the
affordability fixed point iterates poor/rich contributions until stable,
and the brute-force method recomputes every candidate's affordability
from scratch at every step.  No laziness, no caching, no shared code
with the engines under test.  The ledger renderings format every value
on its own and sort and group ``Fraction``s directly.  The outcome
metrics are per-voter ``Fraction``s summed and sorted as such.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from fractions import Fraction

from pbrules.model import Instance, Profile, format_money, total_cost


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


def tie_key(project):
    """The tie order by definition: the cheaper project first, then the
    smaller id compared as a plain string."""
    return (project.cost, project.id)


def mes_bruteforce(instance: Instance, profile: Profile):
    """Definitional equal shares: full rescan of every remaining project
    at every step, lowest (factor, tie key) bought first.

    Returns (selection order, factors, payments, final budgets), all
    keyed by ids.
    """
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
        for pid in sorted(remaining, key=lambda pid: tie_key(instance.project(pid))):
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


def bruteforce_order(instance: Instance, profile: Profile) -> list[str]:
    """The ids mes_bruteforce buys, in purchase order."""
    return mes_bruteforce(instance, profile)[0]


def star_bruteforce(
    instance: Instance,
    profile: Profile,
    epsilon: Fraction,
    max_rounds: int,
    select=bruteforce_order,
):
    """Definitional budget-increase completion: ``select(instance,
    profile)`` gives the ids a round buys, rerun from scratch at every
    round (by default mes_bruteforce's order).

    Returns (selected ids, chosen_round, rounds_examined, status) with
    the same semantics as the engines' run_star.
    """
    limit = instance.budget_limit
    previous: list[str] = []
    for r in range(max_rounds):
        trial = dataclasses.replace(instance, budget_limit=limit + r * epsilon)
        order = select(trial, profile)
        total = total_cost(order, instance)
        if total > limit:
            return previous, max(r - 1, 0), r + 1, "next_infeasible"
        leftover = limit - total
        chosen = set(order)
        if all(p.cost > leftover for p in instance.projects if p.id not in chosen):
            return order, r, r + 1, "complete"
        previous = order
    return previous, max_rounds - 1, max_rounds, "exhausted"


def topup_bruteforce(base_ids, instance: Instance, profile: Profile):
    """Definitional greedy top-up: a separate greedy election on the
    projects ``base_ids`` leaves unfunded, at the budget it leaves over,
    with every ballot cut down to those projects.

    Ties in approval score go to the project with the smaller
    :func:`tie_key`.  Returns the union of ``base_ids`` and the projects
    bought.
    """
    funded = set(base_ids)
    leftover = instance.budget_limit - total_cost(funded, instance)
    rest = [project for project in instance.projects if project.id not in funded]
    rest_ids = {project.id for project in rest}
    ballots = [ballot.approved & rest_ids for ballot in profile.ballots]

    def priority(project):
        score = sum(1 for approved in ballots if project.id in approved)
        return (-score, tie_key(project))

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


def cost_satisfaction(profile: Profile, chosen, instance: Instance) -> list[Fraction]:
    """Per voter, the funded cost of their approved projects over the
    budget limit."""
    limit = instance.budget_limit
    return [total_cost(ballot.approved & chosen, instance) / limit for ballot in profile.ballots]


def gini(values) -> Fraction:
    """sum_k (2k - n - 1) x_(k) / (n * sum x) over the sorted values; 0
    when every value is 0."""
    ordered = sorted(Fraction(v) for v in values)
    n = len(ordered)
    total = sum(ordered, Fraction(0))
    if total == 0:
        return Fraction(0)
    weighted = sum(
        ((2 * k - n - 1) * x for k, x in enumerate(ordered, start=1)), Fraction(0)
    )
    return weighted / (n * total)


def effort(profile: Profile, chosen, instance: Instance) -> list[Fraction]:
    """Per voter, each funded approved project's cost over its number of
    approvers, summed; funded projects nobody approves count for nobody."""
    counts = {pid: 0 for pid in chosen}
    for ballot in profile.ballots:
        for pid in ballot.approved & chosen:
            counts[pid] += 1
    weight = {pid: instance.cost_of(pid) / k for pid, k in counts.items() if k}
    return [
        sum((weight[pid] for pid in ballot.approved & chosen if pid in weight), Fraction(0))
        for ballot in profile.ballots
    ]


def happiness(profile: Profile, chosen) -> Fraction:
    happy = sum(1 for ballot in profile.ballots if ballot.approved & chosen)
    return Fraction(happy, profile.voter_count)


def _members(instance: Instance, label: str) -> frozenset[str]:
    return frozenset(p.id for p in instance.projects if label in p.categories)


def voter_category_share(profile: Profile, instance: Instance, label: str) -> Fraction:
    """The average, over ballots of positive cost, of the cost fraction
    of the ballot inside the category; 0 when no ballot counts."""
    members = _members(instance, label)
    shares = [
        total_cost(ballot.approved & members, instance) / total_cost(ballot.approved, instance)
        for ballot in profile.ballots
        if total_cost(ballot.approved, instance) > 0
    ]
    return sum(shares, Fraction(0)) / len(shares) if shares else Fraction(0)


def category_report(profile: Profile, instance: Instance, chosen):
    """``(entries, excluded_voters, disproportionality, proportionality)``
    with entries ``(label, voter share, rule share)``, or None without
    labels or funded projects."""
    labels = instance.category_labels
    if not labels or not chosen:
        return None
    entries = []
    gap_squares = 0.0
    for label in labels:
        voter_share = voter_category_share(profile, instance, label)
        rule_share = total_cost(chosen & _members(instance, label), instance) / total_cost(
            chosen, instance
        )
        entries.append((label, voter_share, rule_share))
        gap_squares += float(voter_share - rule_share) ** 2
    rms = math.sqrt(gap_squares / len(labels))
    excluded = sum(1 for b in profile.ballots if total_cost(b.approved, instance) == 0)
    return entries, excluded, rms, math.exp(-rms)


def metric_row(instance: Instance, profile: Profile, rule_name: str, chosen, baseline) -> dict:
    """``metrics.metric_row`` by definition, for sets of project ids."""
    chosen, baseline = frozenset(chosen), frozenset(baseline)
    both = total_cost(chosen, instance) + total_cost(baseline, instance)
    satisfaction = cost_satisfaction(profile, chosen, instance)
    report = category_report(profile, instance, chosen)
    return {
        "instance_id": instance.instance_id,
        "rule": rule_name,
        "similarity": 2 * total_cost(chosen & baseline, instance) / both if both else Fraction(1),
        "winners": len(chosen),
        "median_cost": statistics.median(instance.cost_of(pid) for pid in chosen)
        if chosen
        else None,
        "proportionality": report[3] if report else None,
        "avg_satisfaction": sum(satisfaction, Fraction(0)) / len(satisfaction),
        "gini_cost": gini(satisfaction),
        "gini_effort": gini(effort(profile, chosen, instance)),
        "happiness": happiness(profile, chosen),
    }


def instance_stats(instance: Instance, profile: Profile) -> dict:
    """``analysis.instance_stats`` by definition, as a dict."""
    limit = instance.budget_limit
    m = len(instance.projects)
    asked = sum((p.cost for p in instance.projects), Fraction(0))
    ballot_cost = sum((total_cost(b.approved, instance) for b in profile.ballots), Fraction(0))
    return {
        "instance_id": instance.instance_id,
        "voters": profile.voter_count,
        "projects": m,
        "budget": limit,
        "mean_project_cost_share": asked / m / limit,
        "scarcity": asked / limit,
        "mean_ballot_cost_share": ballot_cost / profile.voter_count / limit,
    }


def effect_report(instance: Instance, profile: Profile, greed, mes_chosen):
    """The effect score, category bars ``(label, voter share, greedy
    share, equal-shares share)`` as floats and the sorted satisfaction
    curves of two outcomes, or None when either category report is."""
    greed, mes_chosen = frozenset(greed), frozenset(mes_chosen)
    greed_report = category_report(profile, instance, greed)
    mes_report = category_report(profile, instance, mes_chosen)
    if greed_report is None or mes_report is None:
        return None
    greed_satisfaction = cost_satisfaction(profile, greed, instance)
    mes_satisfaction = cost_satisfaction(profile, mes_chosen, instance)
    return {
        "effect": 0.5 * (
            (mes_report[3] - greed_report[3])
            + (float(gini(greed_satisfaction)) - float(gini(mes_satisfaction)))
        ),
        "bars": [
            (label, float(voter_share), float(g), float(m))
            for (label, voter_share, g), (_, _, m) in zip(greed_report[0], mes_report[0])
        ],
        "greed_curve": tuple(sorted(float(v) for v in greed_satisfaction)),
        "mes_curve": tuple(sorted(float(v) for v in mes_satisfaction)),
    }
