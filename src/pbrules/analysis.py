"""Corpus-level analysis: descriptive statistics, rule comparisons,
size quadrants and the instances where the rule choice matters most.

Every function takes a dataset of (Instance, Profile) pairs (as produced
by :func:`pbrules.pabulib.ingest_directory`, already id-sorted) and
returns deterministic, serialization-ready report objects.  Aggregate
numbers are rendered with four significant digits; the underlying
arithmetic stays exact or double precision.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import operator
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import stats
from .metrics import METRIC_COLUMNS, category_proportionality, effect_value, instance_rows
from .model import Instance, Money, Profile, compile_election, format_money
from .rules import RuleSpec, Variant, complete_with_secondary, greed_cost, mes_selection, run_rule

Dataset = Sequence[tuple[Instance, Profile]]

SIGNIFICANCE_LEVEL = 0.05


def format_sig(value: float) -> str:
    """Four significant digits; plain decimal where possible."""
    return "%.4g" % float(value)


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (Fraction, float)):
        return format_sig(value)
    return str(value)


# columns rendered exactly with format_money, in CSV and JSON alike
MONEY_COLUMNS = {"budget", "median_cost"}


def _cell(column: str, value) -> str:
    if column in MONEY_COLUMNS and value is not None:
        return format_money(value)
    return _render(value)


def _csv(columns: Sequence[str], rows: Iterable[dict]) -> str:
    """A header of ``columns``, then one line per dict row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(column, row[column]) for column in columns] for row in rows)
    return out.getvalue()


@dataclass(frozen=True)
class InstanceStats:
    """Size and scarcity summary of one instance."""

    instance_id: str
    voters: int
    projects: int
    budget: Money
    mean_project_cost_share: Fraction
    scarcity: Fraction
    mean_ballot_cost_share: Fraction


STAT_COLUMNS = tuple(f.name for f in dataclasses.fields(InstanceStats))


def instance_stats(instance: Instance, profile: Profile) -> InstanceStats:
    election = compile_election(instance, profile)
    limit = instance.budget_limit
    m = len(instance.projects)
    asked = Fraction(sum(election.costs), election.cost_den)
    # every ballot's cost summed: each project's cost once per approver
    ballot_cost = Fraction(
        sum(map(operator.mul, election.costs, map(len, election.approvers))), election.cost_den
    )
    return InstanceStats(
        instance_id=instance.instance_id,
        voters=profile.voter_count,
        projects=m,
        budget=limit,
        mean_project_cost_share=asked / m / limit,
        scarcity=asked / limit,
        mean_ballot_cost_share=ballot_cost / profile.voter_count / limit,
    )


def stats_csv(rows: Sequence[InstanceStats]) -> str:
    return _csv(STAT_COLUMNS, map(vars, rows))


def stats_json(rows: Sequence[InstanceStats]) -> str:
    """Money columns exact, as in the CSV; other fractions as floats."""
    return json.dumps(
        [
            {
                column: format_money(value)
                if column in MONEY_COLUMNS
                else (float(value) if isinstance(value, Fraction) else value)
                for column, value in vars(row).items()
            }
            for row in rows
        ],
        indent=2,
    )


AGGREGATE_METRICS = METRIC_COLUMNS[2:]  # everything after instance_id, rule


@dataclass(frozen=True)
class ComparisonRow:
    """One aggregate cell: a metric under a rule, with the paired test
    against the greedy baseline (None for the baseline itself or when
    fewer than two paired values exist)."""

    metric: str
    rule: str
    n_instances: int
    mean: float | None
    std_error: float | None
    p_vs_baseline: float | None
    significant: bool | None


COMPARISON_COLUMNS = tuple(f.name for f in dataclasses.fields(ComparisonRow))


@dataclass(frozen=True)
class ComparisonReport:
    rules: tuple[str, ...]
    rows: tuple[ComparisonRow, ...]
    raw: tuple[dict, ...]

    def row(self, metric: str, rule: str) -> ComparisonRow:
        for r in self.rows:
            if r.metric == metric and r.rule == rule:
                return r
        raise KeyError(f"no row for metric {metric!r}, rule {rule!r}")

    def to_csv(self) -> str:
        return _csv(COMPARISON_COLUMNS, map(vars, self.rows))

    def to_json(self) -> str:
        """The rule names and rows; floats rounded as in the CSV."""
        rows = [
            {
                column: float(format_sig(value)) if isinstance(value, float) else value
                for column, value in vars(row).items()
            }
            for row in self.rows
        ]
        return json.dumps({"rules": list(self.rules), "rows": rows}, indent=2)

    def raw_csv(self) -> str:
        return _csv(METRIC_COLUMNS, self.raw)


def _map_jobs(worker, work: list, jobs: int) -> list:
    """``worker`` over ``work`` in order: in this process when one worker
    would do, else on a pool of at most one process per item."""
    workers = min(jobs, len(work))
    if workers <= 1:
        return [worker(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, work))


def _instance_comparison(args) -> list[dict]:
    """The metric rows of every rule on one instance.  ``mes`` and ``mes+``
    share one equal-shares run, which records no ledger."""
    (instance, profile), specs = args
    baseline = greed_cost(instance, profile)
    mes_run = functools.cache(lambda: mes_selection(instance, profile))
    outcomes = []
    for spec in specs:
        if spec.variant is Variant.GREED_COST:
            allocation = baseline
        elif spec.variant is Variant.MES:
            allocation = mes_run()
        elif spec.variant is Variant.MES_PLUS:
            allocation = complete_with_secondary(mes_run(), instance, profile)
        else:
            allocation = run_rule(spec, instance, profile).allocation
        outcomes.append((spec.variant.value, allocation))
    return instance_rows(instance, profile, outcomes, baseline)


def repeated_rules(specs: Sequence[RuleSpec]) -> list[str]:
    """The rule names ``specs`` lists more than once, sorted.  A report
    keys its rows by rule name, so each may appear only once."""
    names = [spec.variant.value for spec in specs]
    return sorted({name for name in names if names.count(name) > 1})


def compare_rules(
    dataset: Dataset, specs: Sequence[RuleSpec], jobs: int = 1
) -> ComparisonReport:
    """Run every rule on every instance and aggregate each metric.

    The paired test compares each rule's per-instance values against the
    greedy baseline, pairing only instances where both sides are defined
    (category proportionality, for example, exists only on categorized
    instances).  The raw per-instance table is kept on the report.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if not specs:
        raise ValueError("no rules requested")
    repeated = repeated_rules(specs)
    if repeated:
        raise ValueError(f"rules requested more than once: {', '.join(repeated)}")
    rule_names = [spec.variant.value for spec in specs]
    work = [((instance, profile), tuple(specs)) for instance, profile in dataset]
    per_instance = _map_jobs(_instance_comparison, work, jobs)

    raw: list[dict] = [row for rows in per_instance for row in rows]
    baseline_name = Variant.GREED_COST.value

    by_rule: dict[str, list[dict]] = {name: [] for name in rule_names}
    for rows in per_instance:
        for name, row in zip(rule_names, rows):
            by_rule[name].append(row)

    table: list[ComparisonRow] = []
    for metric in AGGREGATE_METRICS:
        for name in rule_names:
            values = [row[metric] for row in by_rule[name]]
            defined = [float(v) for v in values if v is not None]
            mean = stats.mean(defined) if defined else None
            se = stats.standard_error(defined) if len(defined) > 1 else None
            p = None
            significant = None
            if name != baseline_name and baseline_name in by_rule:
                pairs = [
                    (float(rv), float(bv))
                    for rv, bv in zip(values, (row[metric] for row in by_rule[baseline_name]))
                    if rv is not None and bv is not None
                ]
                if len(pairs) >= 2:
                    p = stats.paired_t_test([a for a, _ in pairs], [b for _, b in pairs]).p_value
                    significant = p < SIGNIFICANCE_LEVEL
            table.append(
                ComparisonRow(
                    metric=metric,
                    rule=name,
                    n_instances=len(defined),
                    mean=mean,
                    std_error=se,
                    p_vs_baseline=p,
                    significant=significant,
                )
            )
    return ComparisonReport(tuple(rule_names), tuple(table), tuple(raw))


QUADRANT_LABELS = (
    "small_votes_small_projects",
    "small_votes_large_projects",
    "large_votes_small_projects",
    "large_votes_large_projects",
)


@dataclass(frozen=True)
class QuadrantPartition:
    median_voters: float
    median_projects: float
    quadrants: dict[str, tuple[str, ...]]


def quadrant_partition(dataset: Dataset) -> QuadrantPartition:
    """Split instances at the median voter and project counts; instances
    sitting exactly on a median count as small."""
    if not dataset:
        raise ValueError("empty dataset")
    voter_counts = [profile.voter_count for _, profile in dataset]
    project_counts = [len(instance.projects) for instance, _ in dataset]
    median_voters = statistics.median(voter_counts)
    median_projects = statistics.median(project_counts)
    quadrants: dict[str, list[str]] = {label: [] for label in QUADRANT_LABELS}
    for (instance, profile), n, m in zip(dataset, voter_counts, project_counts):
        votes = "small" if n <= median_voters else "large"
        projects = "small" if m <= median_projects else "large"
        quadrants[f"{votes}_votes_{projects}_projects"].append(instance.instance_id)
    return QuadrantPartition(
        median_voters=median_voters,
        median_projects=median_projects,
        quadrants={label: tuple(ids) for label, ids in quadrants.items()},
    )


@dataclass(frozen=True)
class ProjectDetail:
    id: str
    name: str | None
    cost: Money
    categories: tuple[str, ...]


@dataclass(frozen=True)
class BlockSummary:
    """One outcome block (common, greedy-only or equal-shares-only):
    the projects, their total cost, and cost per category label."""

    count: int
    total_cost: Money
    projects: tuple[ProjectDetail, ...]
    category_cost: dict[str, Money]


@dataclass(frozen=True)
class CategoryBar:
    label: str
    voter_share: float
    greed_share: float
    mes_share: float


@dataclass(frozen=True)
class InstanceEffectReport:
    """Everything needed to illustrate one instance's rule gap: the block
    decomposition, demand-vs-supply bars per category, and the sorted
    satisfaction curves under both rules."""

    instance_id: str
    effect: float
    common: BlockSummary
    greed_only: BlockSummary
    mes_only: BlockSummary
    category_bars: tuple[CategoryBar, ...]
    greed_curve: tuple[float, ...]
    mes_curve: tuple[float, ...]


@dataclass(frozen=True)
class ExtremesReport:
    """Instances ranked by effect score, with full reports for the
    smallest, median and largest effect.  Its JSON follows the field
    order, with every money value rendered by :func:`format_money`."""

    ranking: tuple[tuple[str, float], ...]
    uncategorized: tuple[str, ...]
    minimum: InstanceEffectReport
    median: InstanceEffectReport
    maximum: InstanceEffectReport

    def rank_of(self, instance_id: str) -> int:
        """1-based rank in the ascending effect ordering."""
        for position, (iid, _) in enumerate(self.ranking, start=1):
            if iid == instance_id:
                return position
        raise KeyError(f"instance {instance_id!r} not in the ranking")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, default=format_money)


def _block(ids: set[str], instance: Instance) -> BlockSummary:
    details = tuple(
        ProjectDetail(p.id, p.name, p.cost, tuple(sorted(p.categories)))
        for p in instance.projects
        if p.id in ids
    )
    category_cost: dict[str, Money] = {}
    for detail in details:
        for label in detail.categories:
            category_cost[label] = category_cost.get(label, Fraction(0)) + detail.cost
    return BlockSummary(
        count=len(details),
        total_cost=sum((d.cost for d in details), Fraction(0)),
        projects=details,
        category_cost=dict(sorted(category_cost.items())),
    )


def _effect_worker(args) -> InstanceEffectReport | None:
    """The effect report of one instance, or None when its effect score
    is undefined (see :func:`pbrules.metrics.effect_score`)."""
    (instance, profile), mes_spec = args
    greed_allocation = greed_cost(instance, profile)
    mes_allocation = run_rule(mes_spec, instance, profile).allocation
    greed_report = category_proportionality(profile, instance, greed_allocation)
    mes_report = category_proportionality(profile, instance, mes_allocation)
    if greed_report is None or mes_report is None:
        return None
    election = compile_election(instance, profile)
    greed_funding = sorted(election.voter_funding(greed_allocation))
    mes_funding = sorted(election.voter_funding(mes_allocation))
    # satisfaction = funding / cost_den / limit = funding * num / den
    limit = instance.budget_limit
    num, den = limit.denominator, election.cost_den * limit.numerator
    bars = tuple(
        CategoryBar(
            label=g.label,
            voter_share=float(g.voter_share),
            greed_share=float(g.rule_share),
            mes_share=float(m.rule_share),
        )
        for g, m in zip(greed_report.entries, mes_report.entries)
    )
    greed_ids = set(greed_allocation.selected)
    mes_ids = set(mes_allocation.selected)
    return InstanceEffectReport(
        instance_id=instance.instance_id,
        effect=effect_value(greed_report, mes_report, greed_funding, mes_funding),
        common=_block(greed_ids & mes_ids, instance),
        greed_only=_block(greed_ids - mes_ids, instance),
        mes_only=_block(mes_ids - greed_ids, instance),
        category_bars=bars,
        # int / int rounds correctly, as float(Fraction) does
        greed_curve=tuple(x * num / den for x in greed_funding),
        mes_curve=tuple(x * num / den for x in mes_funding),
    )


def extract_extremes(
    dataset: Dataset,
    mes_spec: RuleSpec | None = None,
    jobs: int = 1,
) -> ExtremesReport:
    """Rank categorized instances by :func:`effect_score` (greedy vs the
    star-completed equal shares by default) and report the minimum,
    median and maximum instances in full."""
    if not dataset:
        raise ValueError("empty dataset")
    mes_spec = mes_spec or RuleSpec(Variant.MES_STAR_PLUS)
    work = [((instance, profile), mes_spec) for instance, profile in dataset]
    results = _map_jobs(_effect_worker, work, jobs)

    uncategorized = tuple(
        instance.instance_id
        for (instance, _), report in zip(dataset, results)
        if report is None
    )
    scored = sorted(
        (report for report in results if report is not None),
        key=lambda report: (report.effect, report.instance_id),
    )
    if not scored:
        raise ValueError("no categorized instances: effect scores undefined everywhere")
    return ExtremesReport(
        ranking=tuple((report.instance_id, report.effect) for report in scored),
        uncategorized=uncategorized,
        minimum=scored[0],
        median=scored[(len(scored) - 1) // 2],
        maximum=scored[-1],
    )
