"""Selection rules: hand-worked cases, tie-breaking, completions, traces."""

import dataclasses
import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import oracle
from pbrules import _mes_pure, rules
from pbrules._mes_pure import STATUS_COMPLETE, STATUS_EXHAUSTED, STATUS_NEXT_INFEASIBLE
from pbrules.model import (
    Allocation,
    ApprovalBallot,
    CompiledElection,
    Instance,
    Profile,
    Project,
    build_district_example,
    compile_election,
    is_complete,
    total_cost,
)
from pbrules.rules import (
    RULE_NAMES,
    RuleSpec,
    Variant,
    complete_star,
    complete_with_secondary,
    default_epsilon,
    emit_trace,
    greed_cost,
    mes,
    run_rule,
)


def build(projects, budget, ballots):
    instance = Instance(
        projects=tuple(Project(id=pid, cost=Fraction(cost)) for pid, cost in projects),
        budget_limit=Fraction(budget),
    )
    profile = Profile(
        tuple(
            ApprovalBallot(vid, frozenset(approved)) for vid, approved in ballots
        )
    )
    return instance, profile


# Two voters, shared project x (cost 6) plus v1's pet project y (cost 4),
# budget 10.  Worked by hand; exercised across rules below.
XY = build(
    [("x", 6), ("y", 4)],
    10,
    [("v1", {"x", "y"}), ("v2", {"x"})],
)


class TestTieBreak:
    """Every rule breaks ties by the compiled election's ``tie_rank``."""

    @staticmethod
    def rank(instance, profile):
        election = compile_election(instance, profile)
        return dict(zip(election.ids, election.tie_rank))

    def test_default_rank(self):
        instance, profile = build([("a", 5), ("b", 3), ("c", 5)], 20, [("v", {"a", "b", "c"})])
        assert self.rank(instance, profile) == {"b": 0, "a": 1, "c": 2}

    def test_ids_compare_as_plain_strings(self):
        ids = ("9", "10", "p9", "p10")
        instance, profile = build([(pid, 1) for pid in ids], 4, [("v", set(ids))])
        assert self.rank(instance, profile) == {"10": 0, "9": 1, "p10": 2, "p9": 3}

    def test_equal_costs_in_other_denominators_go_by_id(self):
        instance, profile = build(
            [("b", "1/2"), ("a", "2/4"), ("c", "1/3"), ("d", "3/6")],
            4,
            [("v", {"a", "b", "c", "d"})],
        )
        assert self.rank(instance, profile) == {"c": 0, "a": 1, "b": 2, "d": 3}

    def test_matches_the_oracle_key(self):
        rng = random.Random(18)
        for _ in range(200):
            instance, profile = helpers.random_instance(rng, max_projects=14)
            if rng.random() < 0.5:
                # few distinct costs, so the id decides many ties
                projects = tuple(
                    dataclasses.replace(p, cost=Fraction(rng.randint(1, 3), rng.choice((1, 2, 4))))
                    for p in instance.projects
                )
                instance = dataclasses.replace(instance, projects=projects)
            order = sorted(instance.projects, key=oracle.tie_key)
            assert self.rank(instance, profile) == {p.id: k for k, p in enumerate(order)}


class TestGreedCost:
    def test_score_order_then_ties(self):
        instance, profile = build(
            [("a", 4), ("b", 3), ("c", 3), ("d", 5)],
            10,
            [
                ("v1", {"a", "b"}),
                ("v2", {"a", "c"}),
                ("v3", {"a", "b", "c", "d"}),
            ],
        )
        assert greed_cost(instance, profile).selected == {"a", "b", "c"}

    def test_skips_and_continues(self):
        instance, profile = build(
            [("a", 9), ("b", 5), ("c", 1)],
            10,
            [
                ("v1", {"a", "b", "c"}),
                ("v2", {"a", "b"}),
                ("v3", {"a"}),
            ],
        )
        assert greed_cost(instance, profile).selected == {"a", "c"}

    def test_complete_by_construction(self):
        rng = random.Random(11)
        for _ in range(60):
            instance, profile = helpers.random_instance(rng)
            allocation = greed_cost(instance, profile)
            assert allocation.total_cost <= instance.budget_limit
            assert is_complete(allocation, instance)

    def test_scale_invariance(self):
        rng = random.Random(12)
        factor = Fraction(7, 3)
        for _ in range(40):
            instance, profile = helpers.random_instance(rng)
            scaled = Instance(
                projects=tuple(
                    Project(id=p.id, cost=p.cost * factor) for p in instance.projects
                ),
                budget_limit=instance.budget_limit * factor,
            )
            assert greed_cost(instance, profile).selected == greed_cost(
                scaled, profile
            ).selected


class TestAffordability:
    def test_poor_rich_split(self):
        budgets = {"a": Fraction(1), "b": Fraction(4), "c": Fraction(4)}
        factor, pays = helpers.affordability(budgets, ["a", "b", "c"], Fraction(9))
        assert factor == Fraction(4, 9)
        assert pays == {"a": 1, "b": 4, "c": 4}

    def test_equal_split(self):
        budgets = {"a": Fraction(5), "b": Fraction(5)}
        factor, pays = helpers.affordability(budgets, ["a", "b"], Fraction(6))
        assert factor == Fraction(1, 2)
        assert pays == {"a": 3, "b": 3}

    def test_insufficient(self):
        budgets = {"a": Fraction(1), "b": Fraction(1)}
        assert helpers.affordability(budgets, ["a", "b"], Fraction(9)) is None

    def test_no_approvers(self):
        assert helpers.affordability({}, [], Fraction(1)) is None

    def test_zero_wallets_pay_nothing(self):
        budgets = {"a": Fraction(0), "b": Fraction(7)}
        factor, pays = helpers.affordability(budgets, ["a", "b"], Fraction(6))
        assert factor == 1
        assert pays == {"b": 6}


class TestMes:
    def test_hand_example(self):
        instance, profile = XY
        allocation, ledger = mes(instance, profile)
        assert allocation.selected == {"x"}
        assert ledger.selection_order == ("x",)
        assert ledger.affordabilities == {"x": Fraction(1, 2)}
        assert ledger.payments == {"x": {"v1": 3, "v2": 3}}
        assert ledger.budgets == {"v1": Fraction(2), "v2": Fraction(2)}
        assert ledger.initial_share == Fraction(5)

    def test_payment_conservation(self):
        rng = random.Random(13)
        for _ in range(40):
            instance, profile = helpers.random_instance(rng)
            allocation, ledger = mes(instance, profile)
            share = ledger.initial_share
            paid = {b.voter_id: Fraction(0) for b in profile.ballots}
            for pid in ledger.selection_order:
                pays = ledger.payments[pid]
                assert sum(pays.values()) == instance.cost_of(pid)
                assert all(amount > 0 for amount in pays.values())
                approver_set = {
                    b.voter_id for b in profile.ballots if pid in b.approved
                }
                assert set(pays) <= approver_set
                for vid, amount in pays.items():
                    paid[vid] += amount
            for vid, wallet in ledger.budgets.items():
                assert wallet == share - paid[vid]
                assert wallet >= 0
            assert allocation.total_cost <= instance.budget_limit

    def test_scale_invariance(self):
        rng = random.Random(14)
        factor = Fraction(5, 7)
        for _ in range(30):
            instance, profile = helpers.random_instance(rng)
            scaled = Instance(
                projects=tuple(
                    Project(id=p.id, cost=p.cost * factor) for p in instance.projects
                ),
                budget_limit=instance.budget_limit * factor,
            )
            assert mes(instance, profile)[0].selected == mes(scaled, profile)[0].selected


class TestCompletions:
    def test_secondary_tops_up(self):
        instance, profile = XY
        base, _ = mes(instance, profile)
        completed = complete_with_secondary(base, instance, profile)
        assert completed.selected == {"x", "y"}
        assert completed.total_cost == 10

    def test_secondary_no_op_when_complete(self):
        instance, profile = XY
        full = Allocation.of({"x", "y"}, instance)
        assert complete_with_secondary(full, instance, profile) is full

    def test_star_hand_example(self):
        instance, profile = XY
        result = complete_star(instance, profile, epsilon=Fraction(2))
        assert result.allocation.selected == {"x", "y"}
        assert result.status == STATUS_COMPLETE
        assert result.chosen_round == 2
        assert result.rounds_examined == 3
        assert result.budget_used == 14
        assert result.ledger.run_budget == 14
        assert result.ledger.budgets == {"v1": Fraction(0), "v2": Fraction(4)}

    def test_star_next_infeasible(self):
        instance, profile = build(
            [("x", 6), ("y", 6)],
            10,
            [("v1", {"x"}), ("v2", {"y"})],
        )
        result = complete_star(instance, profile, epsilon=Fraction(2))
        assert result.status == STATUS_NEXT_INFEASIBLE
        assert result.allocation.selected == frozenset()
        assert result.chosen_round == 0
        assert result.rounds_examined == 2
        assert result.budget_used == 10

    def test_star_exhausted(self):
        instance, profile = build(
            [("x", 6), ("y", 6)],
            10,
            [("v1", {"x"}), ("v2", {"y"})],
        )
        result = complete_star(instance, profile, epsilon=Fraction(1, 2), max_iterations=3)
        assert result.status == STATUS_EXHAUSTED
        assert result.rounds_examined == 3
        assert result.chosen_round == 2
        assert result.allocation.selected == frozenset()

    def test_star_generic_rule_matches_fast_path(self):
        rng = random.Random(15)
        for _ in range(25):
            instance, profile = helpers.random_instance(rng)
            eps = Fraction(profile.voter_count, 100)
            fast = complete_star(instance, profile, epsilon=eps, max_iterations=60)
            slow = helpers.star_reference(instance, profile, eps, 60)
            assert helpers.star_fields(fast) == slow

    @pytest.mark.parametrize(
        "overshoot, status", [(False, STATUS_COMPLETE), (True, STATUS_NEXT_INFEASIBLE)]
    )
    def test_star_skips_the_two_bloc_rounds(self, overshoot, status):
        # the selection changes once, at round 56: the search runs round 0
        # and round 56 and skips the 55 rounds between them
        instance, profile = helpers.bloc_election("401", overshoot)
        fast = complete_star(instance, profile)
        slow = helpers.star_reference(instance, profile, default_epsilon(profile), 10_000)
        assert fast.rounds_examined == slow["rounds_examined"] == 57
        assert fast.status == slow["status"] == status
        assert helpers.star_fields(fast) == slow
        assert fast.rounds_run <= 3

    def test_engine_is_built_through_the_backend_binding(self, monkeypatch):
        # benchmark tracing wraps the engine by patching this one attribute
        original = rules._backend.MesEngine
        built = []

        def counting(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(rules._backend, "MesEngine", counting)
        instance, profile = XY
        mes(instance, profile)
        assert len(built) == 1
        complete_star(instance, profile, epsilon=Fraction(2))
        assert len(built) > 1

    def test_star_replay_must_select_what_the_search_selected(self, monkeypatch):
        run_star = _mes_pure.MesEngine.run_star

        def dropping_the_last_purchase(engine, *args):
            selected, *rest = run_star(engine, *args)
            return (selected[:-1], *rest)

        monkeypatch.setattr(_mes_pure.MesEngine, "run_star", dropping_the_last_purchase)
        instance, profile = XY
        with pytest.raises(AssertionError, match="star replay diverged from the search run"):
            complete_star(instance, profile, epsilon=Fraction(2))

    def test_rules_run_unchanged_under_benchmark_tracing(self, monkeypatch):
        # the tracer's engine stand-in proxies only MesEngine.run and
        # run_star: a rule that calls any other engine method fails here
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        instance, profile = build_district_example([40, 30, 20, 10], 1000)
        specs = [RuleSpec.from_name(name) for name in RULE_NAMES]
        untraced = [run_rule(spec, instance, profile) for spec in specs]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = [run_rule(spec, instance, profile) for spec in specs]
        assert traced == untraced
        assert {"rules.mes", "star.complete", "engine.run"} <= {span[0] for span in tracer.spans}

    def test_default_epsilon_is_a_cent_per_voter(self):
        _, profile = XY
        assert default_epsilon(profile) == Fraction(2, 100)

    def test_epsilon_validation(self):
        instance, profile = XY
        with pytest.raises(ValueError):
            complete_star(instance, profile, epsilon=Fraction(0))
        with pytest.raises(ValueError):
            complete_star(instance, profile, max_iterations=0)
        for rounds in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="max_iterations must be an int"):
                complete_star(instance, profile, max_iterations=rounds)


class TestRunRule:
    def test_rule_names(self):
        assert RULE_NAMES == ("greedcost", "mes", "mes+", "mes*+")
        assert RuleSpec.from_name(" MES+ ").variant is Variant.MES_PLUS
        with pytest.raises(ValueError):
            RuleSpec.from_name("approval")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RuleSpec(Variant.MES, epsilon=Fraction(-1))
        with pytest.raises(ValueError):
            RuleSpec(Variant.MES, max_iterations=0)
        for rounds in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="max_iterations must be an int"):
                RuleSpec(Variant.MES_STAR_PLUS, max_iterations=rounds)

    def test_dispatch_on_hand_example(self):
        instance, profile = XY
        assert run_rule(RuleSpec(Variant.GREED_COST), instance, profile).allocation.selected == {"x", "y"}
        result = run_rule(RuleSpec(Variant.MES), instance, profile)
        assert result.allocation.selected == {"x"}
        assert result.ledger is not None and result.star is None
        plus = run_rule(RuleSpec(Variant.MES_PLUS), instance, profile)
        assert plus.allocation.selected == {"x", "y"}
        star_plus = run_rule(
            RuleSpec(Variant.MES_STAR_PLUS, epsilon=Fraction(2)), instance, profile
        )
        assert star_plus.allocation.selected == {"x", "y"}
        assert star_plus.star.status == STATUS_COMPLETE
        assert star_plus.ledger is star_plus.star.ledger

    def test_completions_always_complete(self):
        rng = random.Random(16)
        for _ in range(40):
            instance, profile = helpers.random_instance(rng)
            for name in ("greedcost", "mes+", "mes*+"):
                spec = RuleSpec.from_name(name, max_iterations=80)
                allocation = run_rule(spec, instance, profile).allocation
                assert allocation.total_cost <= instance.budget_limit
                assert is_complete(allocation, instance)

    def test_mes_subset_of_mes_plus(self):
        rng = random.Random(17)
        for _ in range(40):
            instance, profile = helpers.random_instance(rng)
            bare = run_rule(RuleSpec(Variant.MES), instance, profile).allocation
            plus = run_rule(RuleSpec(Variant.MES_PLUS), instance, profile).allocation
            assert bare.selected <= plus.selected

    def test_json_dict(self):
        instance, profile = XY
        result = run_rule(RuleSpec(Variant.MES_STAR_PLUS, epsilon=Fraction(2)), instance, profile)
        payload = result.to_json_dict(instance)
        assert payload["rule"] == "mes*+"
        assert payload["selected"] == ["x", "y"]
        assert payload["winner_count"] == 2
        assert payload["total_cost"] == "10"
        assert payload["complete"] is True
        assert payload["star"]["status"] == "complete"
        assert payload["star"]["budget_used"] == "14"
        json.dumps(payload)

    def test_unknown_project_is_reported_as_validation_does(self):
        instance, profile = XY
        stray = ApprovalBallot("v3", frozenset({"x", "zz", "yy"}))
        ballots = profile.ballots
        bad = Profile((ballots[0], stray, ballots[1]))
        with pytest.raises(KeyError) as expected:
            compile_election(instance, bad)
        assert expected.value.args == ("ballot 'v3' approves unknown project 'yy'",)
        calls = [
            lambda: greed_cost(instance, bad),
            lambda: mes(instance, bad),
            lambda: complete_star(instance, bad),
        ]
        calls += [
            lambda name=name: run_rule(RuleSpec.from_name(name), instance, bad)
            for name in RULE_NAMES
        ]
        for call in calls:
            with pytest.raises(KeyError) as raised:
                call()
            assert raised.value.args == expected.value.args

    def test_shared_election_is_not_mutated(self):
        rng = random.Random(18)
        for _ in range(20):
            instance, profile = helpers.random_instance(rng, max_voters=30, max_projects=8)
            election = compile_election(instance, profile)
            for name in ("mes", "mes+", "mes*+"):
                run_rule(RuleSpec.from_name(name, max_iterations=60), instance, profile)
            assert compile_election(instance, profile) is election
            # a new profile of the same ballots compiles afresh
            fresh = compile_election(instance, Profile(profile.ballots))
            for field in dataclasses.fields(CompiledElection):
                assert getattr(election, field.name) == getattr(fresh, field.name), field.name

    def test_ledger_json_round_trip(self):
        instance, profile = XY
        _, ledger = mes(instance, profile)
        payload = json.loads(ledger.to_json())
        assert payload["selection_order"] == ["x"]
        assert payload["payments"]["x"] == {"v1": "3", "v2": "3"}
        assert payload["initial_share"] == "5"


class TestTrace:
    def test_uniform_payments(self):
        instance, profile = XY
        _, ledger = mes(instance, profile)
        text = emit_trace(ledger, instance)
        assert text.splitlines() == [
            "Budget 10 split equally: 2 voters, 5 each.",
            "1. buy x, cost 6, alpha = 0.5: 2 payers, each pays 3.",
            "Final wallets: v1=2, v2=2.",
        ]

    def test_mixed_payments_listed(self):
        instance, profile = build(
            [("p2", 4), ("p3", 6)],
            12,
            [("a", {"p2"}), ("b", {"p2", "p3"}), ("c", {"p3"})],
        )
        allocation, ledger = mes(instance, profile)
        assert ledger.selection_order == ("p2", "p3")
        assert ledger.affordabilities == {
            "p2": Fraction(1, 2),
            "p3": Fraction(2, 3),
        }
        assert ledger.payments["p3"] == {"b": 2, "c": 4}
        text = emit_trace(ledger, instance)
        assert "2. buy p3, cost 6, alpha = 2/3: b pays 2; c pays 4." in text.splitlines()
        assert text.splitlines()[-1] == "Final wallets: a=2, b=0, c=0."

    def test_large_profile_summarized(self):
        projects = [("big", 13)]
        ballots = [(f"v{i}", {"big"}) for i in range(13)]
        instance, profile = build(projects, 13, ballots)
        _, ledger = mes(instance, profile)
        text = emit_trace(ledger, instance)
        assert text.splitlines()[-1] == (
            "Final wallets: min 0, median 0, max 0; total left 0."
        )

    def test_large_profile_summary_is_exact(self):
        # 14 voters with 1 each: x leaves seven wallets at 1/2, y five at
        # 2/3, and two voters approve nothing.  The middle wallets (ranks 7
        # and 8 of 14) are 1/2 and 2/3, so the median is their mean 7/12;
        # the total 7/2 + 10/3 + 2 = 53/6 has no finite decimal.
        ballots = [(f"v{i}", {"x"}) for i in range(1, 8)]
        ballots += [(f"v{i}", {"y"}) for i in range(8, 13)]
        ballots += [("v13", set()), ("v14", set())]
        instance, profile = build([("x", Fraction(7, 2)), ("y", Fraction(5, 3))], 14, ballots)
        _, ledger = mes(instance, profile)
        assert ledger.selection_order == ("x", "y")
        text = emit_trace(ledger, instance)
        assert text.splitlines()[-1] == (
            "Final wallets: min 0.5, median 7/12, max 1; total left 53/6."
        )

    def test_project_names_shown(self):
        instance = Instance(
            projects=(Project(id="x", cost=Fraction(6), name="Pool"),),
            budget_limit=Fraction(10),
        )
        profile = Profile((ApprovalBallot("v1", frozenset({"x"})),))
        _, ledger = mes(instance, profile)
        assert "buy x (Pool)" in emit_trace(ledger, instance)
