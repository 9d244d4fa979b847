"""Span tracing of pbrules from outside the package.

A :class:`Tracer` wraps public functions of the package for the length of
one ``with tracer.installed():`` block.  Every namespace that binds a
wrapped object (``pbrules.analysis.metric_row`` as well as
``pbrules.metrics.metric_row``) is patched, and every patch is undone on
exit, so code run outside the block is the unmodified package.

Each call becomes a span ``(name, start_ns, end_ns, parent)`` kept in
memory; :func:`layer_metrics` derives busy time, self time and counts
from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import pbrules.analysis
import pbrules.metrics
import pbrules.pabulib
import pbrules.rules
import pbrules.stats

# (module, attribute, span name); the span name's prefix is its layer
FUNCTION_SPANS = (
    (pbrules.pabulib, "parse_pabulib", "pabulib.parse"),
    (pbrules.pabulib, "ingest_directory", "pabulib.ingest"),
    (pbrules.rules, "greed_cost", "rules.greedy"),
    (pbrules.rules, "mes", "rules.mes"),
    (pbrules.rules, "complete_with_secondary", "rules.topup"),
    (pbrules.rules, "emit_trace", "rules.ledger_render"),
    (pbrules.rules, "complete_star", "star.complete"),
    (pbrules.metrics, "metric_row", "metrics.metric_row"),
    (pbrules.metrics, "category_proportionality", "metrics.category_proportionality"),
    (pbrules.metrics, "voter_category_share", "metrics.voter_category_share"),
    (pbrules.metrics, "gini", "metrics.gini"),
    (pbrules.metrics, "effect_score", "metrics.effect_score"),
    (pbrules.stats, "paired_t_test", "stats.t_test"),
    (pbrules.analysis, "compare_rules", "analysis.compare"),
    (pbrules.analysis, "extract_extremes", "analysis.extremes"),
)

LAYERS = ("cli", "pabulib", "rules", "engine", "star", "metrics", "stats", "analysis")


@dataclass
class Tracer:
    spans: list[list] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter_ns()

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        patches = []
        for module, attribute, name in FUNCTION_SPANS:
            original = getattr(module, attribute)
            patches += _patch_everywhere(original, self.wrap(name, original, _OBSERVERS.get(name)))
        ledger = pbrules.rules.MesLedger
        patches.append((ledger, "to_json", ledger.to_json))
        setattr(ledger, "to_json", self.wrap("rules.ledger_render", ledger.to_json))
        engine_class = pbrules.rules._backend.MesEngine
        patches += _patch_everywhere(engine_class, functools.partial(_TracedEngine, self, engine_class))
        try:
            yield self
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)
            for owner, attribute, original in patches:
                if getattr(owner, attribute) is not original:
                    raise RuntimeError(f"could not restore {owner!r}.{attribute}")

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")


class _TracedEngine:
    """Stands in for ``MesEngine`` while tracing; times construction and
    every selection run of the real engine it holds."""

    def __init__(self, tracer: Tracer, engine_class, *args):
        self._tracer = tracer
        with tracer.span("engine.build"):
            self._engine = engine_class(*args)

    def run(self, *args, **kwargs):
        with self._tracer.span("engine.run"):
            result = self._engine.run(*args, **kwargs)
        self._tracer.counts["engine.selected"] += len(result[0])
        return result

    def run_star(self, *args, **kwargs):
        with self._tracer.span("engine.run"):
            return self._engine.run_star(*args, **kwargs)


def _patch_everywhere(original, replacement) -> list[tuple]:
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "pbrules" or module_name.startswith("pbrules.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attribute, original))
                setattr(module, attribute, replacement)
    return patches


def _count_parse(counts: Counter, args, result) -> None:
    counts["pabulib.bytes"] += len(args[0].encode("utf-8"))
    counts["pabulib.files_accepted"] += 1


def _count_ingest(counts: Counter, args, result) -> None:
    counts["pabulib.files_skipped"] += len(result.skipped)


def _count_star(counts: Counter, args, result) -> None:
    counts["star.rounds_examined"] += result.rounds_examined
    counts[f"star.status_{result.status}"] += 1


_OBSERVERS = {
    "pabulib.parse": _count_parse,
    "pabulib.ingest": _count_ingest,
    "star.complete": _count_star,
}

CALL_COUNTS = {
    "rules.greedy_calls": "rules.greedy",
    "rules.mes_calls": "rules.mes",
    "metrics.metric_rows": "metrics.metric_row",
    "stats.t_tests": "stats.t_test",
    "cli.commands": "cli.command",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy seconds, self seconds and counts of one traced pass.

    A span name's busy time counts each outermost span of that name once;
    a span's self time is its duration minus its direct children's.
    Layer self time sums the self time of every span in the layer, so the
    layers partition the traced wall time.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[name] += end - start
    out: dict[str, float] = {}
    for name, ns in busy.items():
        out[f"{name}_s"] = ns / 1e9
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls[name]
    out.update(tracer.counts)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            ns for name, ns in self_ns.items() if name.split(".")[0] == layer
        ) / 1e9
    out["analysis.compare_self_s"] = self_ns["analysis.compare"] / 1e9
    out["analysis.extremes_self_s"] = self_ns["analysis.extremes"] / 1e9
    rounds = out.get("star.rounds_examined", 0)
    out["star.s_per_round"] = out.get("star.complete_s", 0.0) / rounds if rounds else 0.0
    return out
