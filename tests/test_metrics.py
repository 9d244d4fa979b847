"""Outcome metrics: exact values on hand examples plus invariants."""

import random
from fractions import Fraction

import pytest

import helpers
from pbrules.metrics import (
    METRIC_COLUMNS,
    category_proportionality,
    effect_score,
    gini,
    median_selected_cost,
    metric_row,
    similarity,
    voter_category_share,
)
from pbrules.model import (
    ApprovalBallot,
    Instance,
    Profile,
    Project,
    compile_election,
    total_cost,
)


def build(projects, budget, ballots, categories=None):
    categories = categories or {}
    instance = Instance(
        projects=tuple(
            Project(
                id=pid,
                cost=Fraction(cost),
                categories=frozenset(categories.get(pid, ())),
            )
            for pid, cost in projects
        ),
        budget_limit=Fraction(budget),
    )
    profile = Profile(
        tuple(ApprovalBallot(vid, frozenset(approved)) for vid, approved in ballots)
    )
    return instance, profile


INSTANCE, PROFILE = build(
    [("a", 4), ("b", 6), ("c", 10)],
    20,
    [
        ("v1", {"a", "b"}),
        ("v2", {"b", "c"}),
        ("v3", {"c"}),
        ("v4", set()),
    ],
    categories={"a": ("parks",), "b": ("roads",), "c": ("roads",)},
)


# every ballot is empty: no voter has a demand share to average
EMPTY_BALLOTS = build(
    [("a", 5), ("b", 3)],
    6,
    [("v1", set()), ("v2", set())],
    categories={"a": ("roads",), "b": ("parks",)},
)


class TestSimilarity:
    def test_hand_values(self):
        # costs: {a,b} = 10, {b,c} = 16, intersection {b} = 6.
        assert similarity({"a", "b"}, {"b", "c"}, INSTANCE) == Fraction(12, 26)
        assert similarity({"a"}, {"a"}, INSTANCE) == 1
        assert similarity({"a"}, {"c"}, INSTANCE) == 0
        assert similarity(set(), set(), INSTANCE) == 1
        assert similarity(set(), {"a"}, INSTANCE) == 0

    def test_invariants(self):
        rng = random.Random(31)
        for _ in range(120):
            instance, _ = helpers.random_instance(rng)
            ids = sorted(instance.project_ids)
            first = {pid for pid in ids if rng.random() < 0.5}
            second = {pid for pid in ids if rng.random() < 0.5}
            value = similarity(first, second, instance)
            assert 0 <= value <= 1
            assert value == similarity(second, first, instance)
            assert (value == 1) == (first == second)


class TestDistributions:
    def test_cost_satisfaction(self):
        # funded cost per voter, as ints over the common cost denominator
        election = compile_election(INSTANCE, PROFILE)
        assert election.cost_den == 1
        assert election.voter_funding({"a", "b"}) == [10, 6, 0, 0]

    def test_gini_hand_values(self):
        assert gini([1, 1, 1]) == 0
        assert gini([0, 1]) == Fraction(1, 2)
        assert gini([1, 2, 3]) == Fraction(2, 9)
        assert gini([0, 0, 0]) == 0

    def test_gini_errors(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([-1, 1])

    def test_gini_invariants(self):
        rng = random.Random(32)
        for _ in range(150):
            n = rng.randint(1, 12)
            values = [Fraction(rng.randint(0, 20), rng.choice((1, 2, 3))) for _ in range(n)]
            g = gini(values)
            assert 0 <= g < 1
            assert g <= Fraction(n - 1, n)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            assert gini([v * scale for v in values]) == g
            shuffled = values[:]
            rng.shuffle(shuffled)
            assert gini(shuffled) == g

    def test_effort_split_and_conservation(self):
        election = compile_election(INSTANCE, PROFILE)
        weights, scale = election.effort_weights(election.funded({"a", "b"}))
        values = election.per_voter(weights)
        # a has one approver (v1), b has two (v1, v2): ints over cost_den * 2
        assert (election.cost_den, scale) == (1, 2)
        assert values == [2 * (4 + 3), 2 * 3, 0, 0]
        assert sum(values) == 10 * scale

    def test_effort_ignores_unapproved_winners(self):
        instance, profile = build(
            [("a", 4), ("b", 6)],
            10,
            [("v1", {"a"})],
        )
        election = compile_election(instance, profile)
        weights, _ = election.effort_weights(election.funded({"a", "b"}))
        assert election.per_voter(weights) == [4]

    def test_happiness(self):
        def happiness(chosen):
            return metric_row(INSTANCE, PROFILE, "mes", chosen, chosen)["happiness"]

        assert happiness({"a"}) == Fraction(1, 4)
        assert happiness({"b"}) == Fraction(2, 4)
        assert happiness(set()) == 0


class TestCategories:
    def test_voter_share_skips_empty_ballots(self):
        # v1: roads 6/10; v2: roads 16/16; v3: roads 10/10; v4 excluded.
        assert voter_category_share(PROFILE, INSTANCE, "roads") == (
            Fraction(6, 10) + 1 + 1
        ) / 3
        assert voter_category_share(PROFILE, INSTANCE, "parks") == Fraction(4, 10) / 3

    def test_demand_shares_match_the_definition(self):
        # the literal per-ballot Fraction average, with costs of mixed
        # denominators, empty ballots and labels no project carries
        rng = random.Random(41)
        for _ in range(300):
            instance, profile = helpers.random_instance(
                rng, with_categories=True, approval_rate=rng.choice((0.1, 0.4))
            )
            labels = instance.category_labels
            for label in labels + ("unused",):
                members = {p.id for p in instance.projects if label in p.categories}
                shares = [
                    total_cost(b.approved & members, instance)
                    / total_cost(b.approved, instance)
                    for b in profile.ballots
                    if b.approved
                ]
                expected = sum(shares, Fraction(0)) / len(shares) if shares else 0
                assert voter_category_share(profile, instance, label) == expected
            report = category_proportionality(profile, instance, instance.project_ids)
            if report is None:
                assert not labels
                continue
            assert report.excluded_voters == sum(1 for b in profile.ballots if not b.approved)
            assert [e.voter_share for e in report.entries] == [
                voter_category_share(profile, instance, label) for label in labels
            ]

    def test_rule_share(self):
        report = category_proportionality(PROFILE, INSTANCE, {"a", "b"})
        assert [(e.label, e.rule_share) for e in report.entries] == [
            ("parks", Fraction(4, 10)),
            ("roads", Fraction(6, 10)),
        ]
        assert category_proportionality(PROFILE, INSTANCE, set()) is None

    def test_report(self):
        report = category_proportionality(PROFILE, INSTANCE, {"a", "b"})
        assert report is not None
        assert [e.label for e in report.entries] == ["parks", "roads"]
        assert report.excluded_voters == 1
        demand_parks = Fraction(4, 10) / 3
        demand_roads = (Fraction(6, 10) + 2) / 3
        gap = float(demand_parks - Fraction(4, 10)) ** 2 + float(
            demand_roads - Fraction(6, 10)
        ) ** 2
        assert report.disproportionality == pytest.approx((gap / 2) ** 0.5)
        assert report.proportionality == pytest.approx(
            pow(2.718281828459045, -report.disproportionality)
        )

    def test_report_none_cases(self):
        # No categories at all.
        instance, profile = build([("a", 4)], 10, [("v1", {"a"})])
        assert category_proportionality(profile, instance, {"a"}) is None
        # Empty allocation.
        assert category_proportionality(PROFILE, INSTANCE, set()) is None

    def test_every_ballot_empty(self):
        instance, profile = EMPTY_BALLOTS
        report = category_proportionality(profile, instance, {"a"})
        assert [(e.label, e.voter_share) for e in report.entries] == [("parks", 0), ("roads", 0)]
        assert report.excluded_voters == profile.voter_count == 2

    def test_perfect_match_scores_one(self):
        instance, profile = build(
            [("a", 5), ("b", 5)],
            10,
            [("v1", {"a"}), ("v2", {"b"})],
            categories={"a": ("parks",), "b": ("roads",)},
        )
        report = category_proportionality(profile, instance, {"a", "b"})
        assert report.disproportionality == 0
        assert report.proportionality == 1.0


class TestEffectScore:
    def test_positive_when_shares_rebalance(self):
        # Greedy funds only roads; the fairer selection matches demand.
        greed = {"b", "c"}
        fair = {"a", "b"}
        score = effect_score(INSTANCE, PROFILE, greed, fair)
        greed_report = category_proportionality(PROFILE, INSTANCE, greed)
        fair_report = category_proportionality(PROFILE, INSTANCE, fair)
        election = compile_election(INSTANCE, PROFILE)
        greed_gini = gini(election.voter_funding(greed))
        fair_gini = gini(election.voter_funding(fair))
        expected = 0.5 * (
            (fair_report.proportionality - greed_report.proportionality)
            + float(greed_gini)
            - float(fair_gini)
        )
        assert score == pytest.approx(expected)

    def test_none_when_undefined(self):
        assert effect_score(INSTANCE, PROFILE, set(), {"a"}) is None
        instance, profile = build([("a", 4)], 10, [("v1", {"a"})])
        assert effect_score(instance, profile, {"a"}, {"a"}) is None

    def test_zero_for_identical_allocations(self):
        assert effect_score(INSTANCE, PROFILE, {"a", "b"}, {"a", "b"}) == 0.0


class TestRows:
    def test_median_selected_cost(self):
        assert median_selected_cost({"a", "b"}, INSTANCE) == 5
        assert median_selected_cost({"a", "b", "c"}, INSTANCE) == 6
        assert median_selected_cost(set(), INSTANCE) is None

    def test_metric_row_keys_and_values(self):
        row = metric_row(INSTANCE, PROFILE, "mes+", {"a", "b"}, {"b", "c"})
        assert tuple(row) == METRIC_COLUMNS
        assert row["rule"] == "mes+"
        assert row["similarity"] == Fraction(12, 26)
        assert row["winners"] == 2
        assert row["median_cost"] == 5
        assert row["avg_satisfaction"] == Fraction(1, 5)
        assert row["gini_cost"] == gini([Fraction(10, 20), Fraction(6, 20), 0, 0])
        assert row["happiness"] == Fraction(1, 2)

    def test_metric_row_with_every_ballot_empty(self):
        instance, profile = EMPTY_BALLOTS
        row = metric_row(instance, profile, "mes", {"a"}, {"a"})
        assert row["proportionality"] is not None
        assert row["happiness"] == 0
        assert row["gini_cost"] == 0

    def test_metric_row_handles_empty_allocation(self):
        row = metric_row(INSTANCE, PROFILE, "mes", set(), {"a"})
        assert row["winners"] == 0
        assert row["median_cost"] is None
        assert row["proportionality"] is None
        assert row["similarity"] == 0
