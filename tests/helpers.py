"""Seeded random instance builders and the star reference shared across
the test modules."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracle
from pbrules._mes_pure import payment_cap
from pbrules.model import Allocation, ApprovalBallot, Instance, Profile, Project, total_cost
from pbrules.rules import mes

STAR_FIELDS = ("allocation", "status", "chosen_round", "rounds_examined", "budget_used")

CATEGORY_POOL = ("roads", "parks", "schools", "culture")

# Denominators that stay representable as decimal strings; used when the
# instance must survive a file round trip.
DECIMAL_DENOMS = (1, 1, 1, 2, 4, 5, 10)
ANY_DENOMS = DECIMAL_DENOMS + (3, 7)
# Characters that JSON escapes in an id: a quote, a backslash, a control
# character, a non-ASCII one and one outside the BMP (a surrogate pair).
ESCAPED = ('"', "\\", "\t", "\u00e9", "\U0001f600")


def allocation_of(ids, instance: Instance) -> Allocation:
    """The :class:`Allocation` of the project ``ids`` with its exact
    total, feasible or not: the metric functions take no plain sets."""
    chosen = frozenset(ids)
    return Allocation(chosen, total_cost(chosen, instance))


def random_instance(
    rng: random.Random,
    max_voters: int = 12,
    max_projects: int = 6,
    decimal_money: bool = False,
    with_categories: bool = False,
    approval_rate: float = 0.4,
    tag: str = "rand",
    min_voters: int = 1,
):
    """One random instance/profile pair.  Ballots may be empty; every
    project keeps at least one approver (the model requires it)."""
    denoms = DECIMAL_DENOMS if decimal_money else ANY_DENOMS
    m = rng.randint(1, max_projects)
    n = rng.randint(min_voters, max_voters)
    projects = []
    for j in range(m):
        cost = Fraction(rng.randint(1, 40), rng.choice(denoms))
        categories = ()
        if with_categories and rng.random() < 0.7:
            categories = tuple(
                sorted(rng.sample(CATEGORY_POOL, rng.randint(1, 2)))
            )
        projects.append(Project(id=f"p{j + 1}", cost=cost, categories=categories))
    budget = Fraction(rng.randint(5, 80), rng.choice((1, 1, 2)))
    approvals = {p.id: set() for p in projects}
    ballots = []
    for i in range(n):
        approved = frozenset(
            p.id for p in projects if rng.random() < approval_rate
        )
        for pid in approved:
            approvals[pid].add(i)
        ballots.append(ApprovalBallot(voter_id=f"v{i + 1}", approved=approved))
    # Orphaned projects get one forced approver so the pair validates.
    for j, project in enumerate(projects):
        if not approvals[project.id]:
            i = rng.randrange(n)
            ballots[i] = ApprovalBallot(
                voter_id=ballots[i].voter_id,
                approved=ballots[i].approved | {project.id},
            )
    instance = Instance(
        projects=tuple(projects),
        budget_limit=budget,
        meta={"instance_id": f"{tag}", "description": f"seeded random ({tag})"},
    )
    profile = Profile(ballots=tuple(ballots))
    assert all(b.approved <= instance.project_ids for b in profile.ballots)
    return instance, profile


def small_share_election(rng: random.Random, n: int, m: int, cents: bool):
    """A district-style election of ``n`` voters and ``m`` projects with
    0.7 per voter, whose limit buys 40% of the total cost: the shape of
    the benchmark's star corpus, where the star search runs many rounds.
    Costs are log-uniform over a 30-fold spread, in whole units or in
    cents; each ballot approves 1 to 6 projects drawn by a popularity
    with a Pareto tail."""
    budget = max(1, round(0.7 * n))
    raw = [math.exp(rng.uniform(0.0, math.log(30.0))) for _ in range(m)]
    scale = budget / 0.4 / sum(raw)
    unit = 100 if cents else 1
    costs = [Fraction(max(unit + 1, round(value * scale * unit)), unit) for value in raw]
    projects = tuple(Project(id=str(j + 1), cost=cost) for j, cost in enumerate(costs))
    popularity = [rng.paretovariate(2.0) for _ in range(m)]
    sizes = rng.choices(range(1, 7), weights=(18, 24, 22, 16, 12, 8), k=n)
    ballots = []
    for v, k in enumerate(sizes):
        picks = set()
        while len(picks) < k:
            picks.add(rng.choices(range(m), weights=popularity)[0])
        ballots.append(ApprovalBallot(str(v + 1), frozenset(str(j + 1) for j in picks)))
    for j in range(m):
        if not any(str(j + 1) in b.approved for b in ballots):
            v = rng.randrange(n)
            ballots[v] = ApprovalBallot(ballots[v].voter_id, ballots[v].approved | {str(j + 1)})
    instance = Instance(projects=projects, budget_limit=Fraction(budget), meta={"instance_id": "small"})
    return instance, Profile(tuple(ballots))


def affordability(budgets, voter_ids, cost):
    """``(cap / cost, payments)`` at which the voters ``voter_ids`` buy a
    project of positive ``cost`` paying min(wallet, cap) each, by the
    engine's :func:`~pbrules._mes_pure.payment_cap` on the wallets
    ``budgets``; zero payments are omitted.  None when the wallets cannot
    cover the cost."""
    order = sorted(voter_ids, key=budgets.__getitem__)
    peel = payment_cap(budgets, order, cost)
    if peel is None:
        return None
    cap = Fraction(*peel)
    payments = {v: min(budgets[v], cap) for v in order}
    return cap / cost, {v: pay for v, pay in payments.items() if pay > 0}


def random_dataset(seed: int, count: int, **kwargs):
    """List of (instance, profile) pairs with distinct instance ids."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        kwargs["tag"] = f"{seed}-{k + 1}"
        pairs.append(random_instance(rng, **kwargs))
    return pairs


def bloc_election(instance_id: str, overshoot: bool):
    """A two-bloc election whose star completion ends in a known state.

    Nine tenths of 200 voters approve two projects costing 50% and 45%
    of the budget; the other tenth approves one project costing 4% (6%
    with ``overshoot``), and one of them also a 2% project no wallet can
    reach.  Equal shares buys the 45% and the small bloc project at once
    and the 50% project once the share has grown by 1/18: at one cent
    per voter per round that is round 56, where the selection totals 99%
    of the budget (complete) or 101% (the round overshoots, so the search
    ends ``next_infeasible``).  The same construction as the benchmark's
    two-bloc elections.
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
    return Instance(tuple(projects), Fraction(budget), meta), Profile(tuple(ballots))


def star_reference(instance: Instance, profile: Profile, epsilon: Fraction, max_rounds: int) -> dict:
    """The round-by-round star completion, :func:`oracle.star_bruteforce`
    over the engine's ``mes``, which reruns every round and skips none:
    the :data:`STAR_FIELDS` of the ``StarResult`` it should match."""
    selected, chosen, examined, status = oracle.star_bruteforce(
        instance, profile, epsilon, max_rounds, select=lambda i, p: mes(i, p)[0].selected
    )
    return {
        "allocation": Allocation.of(selected, instance),
        "status": status,
        "chosen_round": chosen,
        "rounds_examined": examined,
        "budget_used": instance.budget_limit + chosen * epsilon,
    }


def star_fields(result) -> dict:
    """The :data:`STAR_FIELDS` of a ``StarResult``."""
    return {name: getattr(result, name) for name in STAR_FIELDS}
