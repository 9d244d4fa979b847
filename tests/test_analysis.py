"""Corpus analysis: descriptive stats, rule comparison, quadrants, extremes."""

import concurrent.futures
import csv
import dataclasses
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from pbrules import _mes_pure, metrics, rules
from pbrules.analysis import (
    AGGREGATE_METRICS,
    QUADRANT_LABELS,
    STAT_COLUMNS,
    _effect_worker,
    compare_rules,
    extract_extremes,
    format_sig,
    instance_stats,
    quadrant_partition,
    stats_csv,
)
from pbrules.metrics import METRIC_COLUMNS, metric_row
from pbrules.model import ApprovalBallot, CompiledElection, Instance, Profile, Project
from pbrules.pabulib import read_pabulib
from pbrules.rules import RuleSpec, Variant


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
        meta={"instance_id": projects[0][0] + "-inst"},
    )
    profile = Profile(
        tuple(ApprovalBallot(vid, frozenset(approved)) for vid, approved in ballots)
    )
    return instance, profile


def categorized_dataset(seed, count):
    return helpers.random_dataset(
        seed, count, max_voters=10, max_projects=6, with_categories=True
    )


class TestFormat:
    def test_four_significant_digits(self):
        assert format_sig(0.123456) == "0.1235"
        assert format_sig(1234.56) == "1235"
        assert format_sig(0.5) == "0.5"
        assert format_sig(1 / 3) == "0.3333"


class TestInstanceStats:
    def test_hand_values(self):
        instance, profile = build(
            [("a", 30), ("b", 60)],
            100,
            [("v1", {"a"}), ("v2", {"a", "b"})],
        )
        row = instance_stats(instance, profile)
        assert row.voters == 2
        assert row.projects == 2
        assert row.budget == 100
        assert row.scarcity == Fraction(90, 100)
        assert row.mean_project_cost_share == Fraction(45, 100)
        # ballot costs 30 and 90, mean 60, over the limit.
        assert row.mean_ballot_cost_share == Fraction(60, 100)

    def test_csv_shape(self):
        instance, profile = build(
            [("a", 30), ("b", 60)],
            100,
            [("v1", {"a"}), ("v2", {"a", "b"})],
        )
        text = stats_csv([instance_stats(instance, profile)])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(STAT_COLUMNS)
        assert rows[1][0] == "a-inst"
        assert rows[1][3] == "100"
        assert rows[1][5] == "0.9"


class TestCompareRules:
    def make_specs(self):
        return [
            RuleSpec(Variant.GREED_COST),
            RuleSpec(Variant.MES_PLUS),
            RuleSpec(Variant.MES_STAR_PLUS, max_iterations=60),
        ]

    def test_shape_and_baseline(self):
        dataset = categorized_dataset(41, 6)
        report = compare_rules(dataset, self.make_specs())
        assert report.rules == ("greedcost", "mes+", "mes*+")
        assert len(report.rows) == len(AGGREGATE_METRICS) * 3
        assert len(report.raw) == 6 * 3

        baseline_similarity = report.row("similarity", "greedcost")
        assert baseline_similarity.mean == 1.0
        assert baseline_similarity.p_vs_baseline is None
        assert baseline_similarity.significant is None
        assert baseline_similarity.n_instances == 6

        other = report.row("winners", "mes+")
        assert other.n_instances == 6
        if other.p_vs_baseline is not None:
            assert 0.0 <= other.p_vs_baseline <= 1.0
            assert other.significant == (other.p_vs_baseline < 0.05)

    def test_deterministic_and_parallel_identical(self):
        dataset = categorized_dataset(42, 5)
        specs = self.make_specs()
        first = compare_rules(dataset, specs)
        second = compare_rules(dataset, specs)
        parallel = compare_rules(dataset, specs, jobs=2)
        assert first == second
        assert first == parallel

    def test_pool_is_capped_at_the_work_size(self, monkeypatch):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, *columns):
                return map(worker, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        dataset = categorized_dataset(43, 2)
        specs = self.make_specs()
        assert compare_rules(dataset, specs, jobs=500) == compare_rules(dataset, specs)
        extract_extremes(dataset, mes_spec=RuleSpec(Variant.MES_PLUS), jobs=500)
        assert pools == [2, 2]
        compare_rules(dataset[:1], specs, jobs=500)
        assert pools == [2, 2]

    def test_proportionality_pairs_only_defined(self):
        # One categorized and one uncategorized instance: the paired test
        # for proportionality must use only the categorized one, leaving
        # fewer than two pairs, so p stays None.
        cat_instance, cat_profile = build(
            [("a", 5), ("b", 5)],
            10,
            [("v1", {"a"}), ("v2", {"b"})],
            categories={"a": ("parks",), "b": ("roads",)},
        )
        plain_instance, plain_profile = build(
            [("c", 5), ("d", 5)],
            10,
            [("v1", {"c"}), ("v2", {"d"})],
        )
        report = compare_rules(
            [(cat_instance, cat_profile), (plain_instance, plain_profile)],
            [RuleSpec(Variant.GREED_COST), RuleSpec(Variant.MES_PLUS)],
        )
        row = report.row("proportionality", "mes+")
        assert row.n_instances == 1
        assert row.p_vs_baseline is None
        assert row.significant is None

    def test_csv_rendering(self):
        dataset = categorized_dataset(43, 4)
        report = compare_rules(dataset, self.make_specs())
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == [
            "metric",
            "rule",
            "n_instances",
            "mean",
            "std_error",
            "p_vs_baseline",
            "significant",
        ]
        assert len(rows) == 1 + len(report.rows)
        raw_rows = list(csv.reader(io.StringIO(report.raw_csv())))
        assert raw_rows[0] == list(METRIC_COLUMNS)
        assert len(raw_rows) == 1 + len(report.raw)

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_rules([], self.make_specs())
        dataset = categorized_dataset(44, 2)
        with pytest.raises(ValueError):
            compare_rules(dataset, [])
        report = compare_rules(dataset, [RuleSpec(Variant.GREED_COST)])
        with pytest.raises(KeyError, match="no row for metric 'nope'"):
            report.row("nope", "greedcost")

    def test_repeated_rules_are_rejected(self):
        dataset = categorized_dataset(44, 2)
        specs = [
            RuleSpec(Variant.GREED_COST),
            RuleSpec(Variant.MES),
            RuleSpec(Variant.MES, max_iterations=7),
        ]
        with pytest.raises(ValueError, match="more than once: mes"):
            compare_rules(dataset, specs)

    def test_mes_and_mes_plus_share_one_run(self, monkeypatch):
        # one equal-shares selection per instance serves both rules, and
        # their rows are those of the rules run one by one, ledger and all
        dataset = categorized_dataset(45, 5)
        specs = [RuleSpec(Variant.GREED_COST), RuleSpec(Variant.MES), RuleSpec(Variant.MES_PLUS)]
        runs = []
        original = _mes_pure.MesEngine.run

        def counted_run(engine, *args, **kwargs):
            runs.append(engine)
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(_mes_pure.MesEngine, "run", counted_run)
        report = compare_rules(dataset, specs)
        assert len(runs) == len(dataset)
        expected = []
        for instance, profile in dataset:
            baseline = rules.greed_cost(instance, profile)
            for spec in specs:
                allocation = rules.run_rule(spec, instance, profile).allocation
                expected.append(
                    metric_row(instance, profile, spec.variant.value, allocation, baseline)
                )
        assert list(report.raw) == expected


class TestQuadrants:
    def test_at_median_counts_as_small(self):
        dataset = []
        for n, m in [(2, 2), (4, 3), (6, 4), (8, 5)]:
            projects = tuple(
                Project(id=f"p{j}", cost=Fraction(1)) for j in range(m)
            )
            instance = Instance(
                projects=projects,
                budget_limit=Fraction(m),
                meta={"instance_id": f"{n}x{m}"},
            )
            ballots = tuple(
                ApprovalBallot(f"v{i}", frozenset({"p0"})) for i in range(n)
            )
            dataset.append((instance, Profile(ballots)))
        partition = quadrant_partition(dataset)
        assert partition.median_voters == 5
        assert partition.median_projects == 3.5
        assert set(partition.quadrants) == set(QUADRANT_LABELS)
        assert partition.quadrants["small_votes_small_projects"] == ("2x2", "4x3")
        assert partition.quadrants["large_votes_large_projects"] == ("6x4", "8x5")
        assert partition.quadrants["small_votes_large_projects"] == ()
        assert partition.quadrants["large_votes_small_projects"] == ()

    def test_exact_median_membership(self):
        # Odd count: the middle instance sits exactly on both medians and
        # must land in the small/small quadrant.
        dataset = []
        for k, (n, m) in enumerate([(1, 1), (3, 3), (5, 5)]):
            projects = tuple(Project(id=f"p{j}", cost=Fraction(1)) for j in range(m))
            instance = Instance(
                projects=projects,
                budget_limit=Fraction(m),
                meta={"instance_id": str(k)},
            )
            ballots = tuple(
                ApprovalBallot(f"v{i}", frozenset({"p0"})) for i in range(n)
            )
            dataset.append((instance, Profile(ballots)))
        partition = quadrant_partition(dataset)
        assert "1" in partition.quadrants["small_votes_small_projects"]

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            quadrant_partition([])


class TestExtremes:
    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty dataset"):
            extract_extremes([])

    def test_ranking_and_reports(self):
        dataset = categorized_dataset(46, 7)
        report = extract_extremes(dataset, mes_spec=RuleSpec(Variant.MES_PLUS))
        effects = [effect for _, effect in report.ranking]
        assert effects == sorted(effects)
        assert report.minimum.instance_id == report.ranking[0][0]
        assert report.maximum.instance_id == report.ranking[-1][0]
        k = len(report.ranking)
        assert report.median.instance_id == report.ranking[(k - 1) // 2][0]
        assert report.rank_of(report.minimum.instance_id) == 1
        assert report.rank_of(report.maximum.instance_id) == k
        with pytest.raises(KeyError):
            report.rank_of("nope")

    def test_blocks_partition_the_outcomes(self):
        dataset = categorized_dataset(47, 5)
        report = extract_extremes(dataset, mes_spec=RuleSpec(Variant.MES_PLUS))
        for item in (report.minimum, report.median, report.maximum):
            common_ids = {p.id for p in item.common.projects}
            greed_ids = {p.id for p in item.greed_only.projects}
            mes_ids = {p.id for p in item.mes_only.projects}
            assert not common_ids & greed_ids
            assert not common_ids & mes_ids
            assert not greed_ids & mes_ids
            assert item.common.total_cost == sum(
                (p.cost for p in item.common.projects), Fraction(0)
            )
            assert item.common.count == len(item.common.projects)
            assert len(item.greed_curve) == len(item.mes_curve)
            assert list(item.greed_curve) == sorted(item.greed_curve)

    def test_one_ballot_pass_per_instance(self, monkeypatch):
        # the effect score, the bars and both satisfaction curves of an
        # instance come from one pass over the ballots, as compare's rows
        # do; an instance whose score is undefined makes none
        dataset = categorized_dataset(50, 6)
        spec = RuleSpec(Variant.MES_STAR_PLUS)
        passes = []
        original = CompiledElection.per_voter

        def counted_per_voter(election, weights):
            passes.append(election)
            return original(election, weights)

        def no_report(*args):
            raise AssertionError("extremes builds no CategoryReport")

        monkeypatch.setattr(CompiledElection, "per_voter", counted_per_voter)
        monkeypatch.setattr(metrics, "category_proportionality", no_report)
        scored = 0
        for pair in dataset:
            passes.clear()
            report = _effect_worker(*pair, spec)
            assert len(passes) == (report is not None)
            scored += report is not None
        assert scored > 0

    def test_uncategorized_instances_reported(self):
        cat = build(
            [("a", 5), ("b", 5)],
            10,
            [("v1", {"a"}), ("v2", {"b"})],
            categories={"a": ("parks",), "b": ("roads",)},
        )
        plain = build(
            [("c", 5), ("d", 5)],
            10,
            [("v1", {"c"}), ("v2", {"d"})],
        )
        report = extract_extremes([cat, plain], mes_spec=RuleSpec(Variant.MES_PLUS))
        assert report.uncategorized == ("c-inst",)
        assert [iid for iid, _ in report.ranking] == ["a-inst"]

    def test_tied_effects_rank_in_id_order(self):
        # greedy and mes*+ fund the same projects of basic.pb: both effects
        # are 0, and the tie goes by id_sort_key, 9 before 10
        instance, profile = read_pabulib(Path(__file__).parent / "data" / "basic.pb")
        dataset = [
            (dataclasses.replace(instance, meta={**instance.meta, "instance_id": iid}), profile)
            for iid in ("9", "10")
        ]
        report = extract_extremes(dataset)
        assert report.ranking == (("9", 0.0), ("10", 0.0))
        assert report.minimum.instance_id == report.median.instance_id == "9"
        assert report.maximum.instance_id == "10"

    def test_all_uncategorized_raises(self):
        plain = build([("c", 5)], 10, [("v1", {"c"})])
        with pytest.raises(ValueError):
            extract_extremes([plain], mes_spec=RuleSpec(Variant.MES_PLUS))

    def test_json_round_trip(self):
        dataset = categorized_dataset(48, 4)
        report = extract_extremes(dataset, mes_spec=RuleSpec(Variant.MES_PLUS))
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "ranking",
            "uncategorized",
            "minimum",
            "median",
            "maximum",
        }
        assert payload["minimum"]["common"]["count"] == report.minimum.common.count

    def test_parallel_matches_serial(self):
        dataset = categorized_dataset(49, 5)
        serial = extract_extremes(dataset, mes_spec=RuleSpec(Variant.MES_PLUS))
        parallel = extract_extremes(
            dataset, mes_spec=RuleSpec(Variant.MES_PLUS), jobs=2
        )
        assert serial.ranking == parallel.ranking
