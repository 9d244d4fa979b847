"""Engine results against the definitional oracles in oracle.py.

The engines are lazy (stale bounds, equal-budget reset, permanent
drops); the oracles recompute everything from the definitions at every
step.  Observable behaviour must match exactly, Fraction for Fraction.
"""

import dataclasses
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import helpers
from oracle import (
    affordability_fixed_point,
    mes_bruteforce,
    star_bruteforce,
    topup_bruteforce,
)
from pbrules.model import Allocation, Instance, approvers, is_complete, total_cost
from pbrules.rules import (
    TieBreak,
    complete_star,
    complete_with_secondary,
    mes,
    mes_affordability,
)


def random_budgets(rng, k):
    return {
        f"v{i}": Fraction(rng.randint(0, 30), rng.choice((1, 2, 3, 4)))
        for i in range(k)
    }


class TestAffordabilityOracle:
    def test_matches_fixed_point(self):
        rng = random.Random(21)
        for _ in range(400):
            k = rng.randint(1, 9)
            budgets = random_budgets(rng, k)
            ids = list(budgets)
            cost = Fraction(rng.randint(1, 60), rng.choice((1, 2, 3)))
            ours = mes_affordability(budgets, ids, cost)
            oracle = affordability_fixed_point(budgets, ids, cost)
            assert ours == oracle

    def test_factor_is_max_payment_over_cost(self):
        rng = random.Random(22)
        for _ in range(200):
            k = rng.randint(1, 8)
            budgets = random_budgets(rng, k)
            cost = Fraction(rng.randint(1, 50))
            result = mes_affordability(budgets, list(budgets), cost)
            if result is None:
                assert sum(budgets.values()) < cost
                continue
            factor, pays = result
            assert sum(pays.values()) == cost
            assert max(pays.values()) == factor * cost
            for vid, amount in pays.items():
                assert 0 < amount <= budgets[vid]


class TestSelectionOracle:
    def test_matches_bruteforce(self):
        rng = random.Random(23)
        for _ in range(250):
            instance, profile = helpers.random_instance(rng)
            allocation, ledger = mes(instance, profile)
            order, factors, payments, budgets = mes_bruteforce(instance, profile)
            assert list(ledger.selection_order) == order
            assert ledger.affordabilities == factors
            assert ledger.payments == payments
            assert ledger.budgets == budgets
            assert allocation.selected == set(order)

    def test_ledger_replay_is_stepwise_minimal(self):
        rng = random.Random(24)
        rank_of = TieBreak().rank
        for _ in range(120):
            instance, profile = helpers.random_instance(rng)
            _, ledger = mes(instance, profile)
            rank = rank_of(instance)
            budgets = {
                b.voter_id: ledger.initial_share for b in profile.ballots
            }
            remaining = set(instance.project_ids)
            for pid in ledger.selection_order:
                candidates = {}
                for q in remaining:
                    result = affordability_fixed_point(
                        budgets, approvers(q, profile), instance.cost_of(q)
                    )
                    if result is not None:
                        candidates[q] = result[0]
                assert pid in candidates
                winner = min(candidates, key=lambda q: (candidates[q], rank[q]))
                assert winner == pid
                assert candidates[pid] == ledger.affordabilities[pid]
                for vid, amount in ledger.payments[pid].items():
                    budgets[vid] -= amount
                remaining.discard(pid)
            for q in remaining:
                assert (
                    affordability_fixed_point(
                        budgets, approvers(q, profile), instance.cost_of(q)
                    )
                    is None
                )


class TestStarOracle:
    def test_matches_bruteforce(self):
        rng = random.Random(25)
        for _ in range(120):
            instance, profile = helpers.random_instance(rng)
            eps = Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
            result = complete_star(mes, instance, profile, epsilon=eps, max_iterations=40)
            selected, chosen, examined, status = star_bruteforce(
                instance, profile, eps, 40
            )
            assert result.allocation.selected == set(selected)
            assert result.chosen_round == chosen
            assert result.rounds_examined == examined
            assert result.status == status
            assert result.budget_used == instance.budget_limit + chosen * eps
            assert result.allocation.total_cost == total_cost(selected, instance)


def random_feasible_base(rng, instance):
    """A random subset of the projects that fits in the budget limit."""
    chosen = []
    left = instance.budget_limit
    for project in rng.sample(instance.projects, len(instance.projects)):
        if rng.random() < 0.5 and project.cost <= left:
            chosen.append(project.id)
            left -= project.cost
    return Allocation.of(chosen, instance)


class TestTopUpOracle:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        criteria=st.lists(st.sampled_from(("cost", "-cost", "id")), unique=True, max_size=3),
        mes_base=st.booleans(),
        tie_heavy=st.booleans(),
    )
    def test_matches_bruteforce(self, seed, criteria, mes_base, tie_heavy):
        rng = random.Random(seed)
        instance, profile = helpers.random_instance(rng)
        if tie_heavy:
            # few distinct costs and a tight limit, so score and cost ties
            # reach the later tie-break tokens
            instance = Instance(
                projects=tuple(
                    dataclasses.replace(p, cost=Fraction(rng.randint(1, 3)))
                    for p in instance.projects
                ),
                budget_limit=Fraction(rng.randint(1, 8)),
                meta=instance.meta,
            )
        tiebreak = TieBreak(tuple(criteria))
        if mes_base:
            base, _ = mes(instance, profile, tiebreak)
        else:
            base = random_feasible_base(rng, instance)
        completed = complete_with_secondary(base, instance, profile, tiebreak)
        assert completed.selected == topup_bruteforce(
            base.selected, instance, profile, tiebreak
        )
        assert completed.total_cost == total_cost(completed.selected, instance)
        assert is_complete(completed, instance)
