"""The public names of the package, the names each module imports, and
the names the benchmark under ``perfbench/`` reads."""

import ast
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pbrules
from pbrules import _mes_pure, analysis, metrics, model, pabulib, rules, stats
from pbrules.cli import cli_main
from pbrules.pabulib import parse_pabulib

ROOT = Path(__file__).resolve().parent.parent
BASIC = ROOT / "tests" / "data" / "basic.pb"


def test_every_exported_name_resolves():
    missing = [name for name in pbrules.__all__ if not hasattr(pbrules, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(pbrules.__all__)) == len(pbrules.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from pbrules import *", namespace)
    assert set(pbrules.__all__) <= namespace.keys()


PUBLIC_MODULES = (model, pabulib, rules, metrics, stats, analysis)

EXPORTED = {
    "__version__",
    "Allocation", "ApprovalBallot", "CompiledElection", "Instance", "Money", "Profile", "Project",
    "build_district_example", "compile_election", "format_money", "is_complete", "money",
    "parse_money", "total_cost",
    "IngestFilter", "IngestResult", "PabulibParseError", "SkippedFile",
    "ingest_directory", "parse_pabulib", "read_pabulib", "write_pabulib",
    "RULE_NAMES", "MesLedger", "RuleResult", "RuleSpec", "StarResult", "Variant",
    "complete_star", "complete_with_secondary", "default_epsilon", "emit_trace",
    "greed_cost", "mes", "run_rule",
    "METRIC_COLUMNS", "CategoryReport", "CategoryScores", "category_proportionality",
    "effect_score", "gini", "median_selected_cost", "metric_row", "similarity",
    "voter_category_share",
    "TTestResult", "paired_t_test", "regularized_incomplete_beta", "standard_error",
    "student_t_two_sided_p",
    "ComparisonReport", "ComparisonRow", "ExtremesReport", "InstanceStats", "QuadrantPartition",
    "compare_rules", "extract_extremes", "instance_stats", "quadrant_partition",
}


class TestSingleDeclaration:
    """Each public name is declared once, in the ``__all__`` of the module
    that defines it, and the package republishes those lists."""

    @pytest.mark.parametrize("module", PUBLIC_MODULES, ids=lambda module: module.__name__)
    def test_module_defines_every_name_it_exports(self, module):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        defined, classes_and_functions = set(), set()
        for statement in tree.body:
            if isinstance(statement, (ast.ClassDef, ast.FunctionDef)):
                defined.add(statement.name)
                classes_and_functions.add(statement.name)
            elif isinstance(statement, ast.Assign):
                defined.update(t.id for t in statement.targets if isinstance(t, ast.Name))
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                defined.add(statement.target.id)
        assert isinstance(module.__all__, list)
        assert [name for name in module.__all__ if name not in defined] == []
        assert [
            name
            for name in module.__all__
            if name in classes_and_functions
            and getattr(module, name).__module__ != module.__name__
        ] == []

    def test_no_name_is_in_two_module_lists(self):
        names = [name for module in PUBLIC_MODULES for name in module.__all__]
        assert len(names) == len(set(names))

    def test_package_list_is_the_module_lists(self):
        expected = ["__version__"]
        for module in PUBLIC_MODULES:
            expected += module.__all__
        assert pbrules.__all__ == expected
        assert set(pbrules.__all__) == EXPORTED

    def test_package_init_names_no_public_name(self):
        tree = ast.parse(Path(pbrules.__file__).read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        imported = {a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names}
        listed = [
            node.value for node in nodes if isinstance(node, ast.Constant) and node.value in EXPORTED
        ]
        assert imported == {"*"}
        assert listed == ["__version__"]


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(Path(pbrules.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for statement in tree.body:
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                for alias in statement.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_importing_the_cli_loads_no_process_pool():
    # multiprocessing is imported only when --jobs starts a pool
    source = str(Path(pbrules.__file__).resolve().parent.parent)
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, pbrules, pbrules.cli;"
            " print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))",
        ],
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/run.py`` and ``perfbench/tracing.py`` loaded by path,
    with the ``calibrate`` module that ``run.py`` imports."""
    loaded = {}
    for name in ("calibrate", "tracing", "run"):
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        loaded[name] = module
    return loaded


class TestBenchmarkNames:
    """Every package name the benchmark reads or patches resolves, so a
    rename fails here by name, not minutes into the digest check."""

    def test_traced_functions_resolve(self, perfbench):
        missing = [
            f"{module.__name__}.{attribute}"
            for module, attribute, _ in perfbench["tracing"].FUNCTION_SPANS
            if not callable(getattr(module, attribute, None))
        ]
        assert missing == []

    def test_engine_binding_and_ledger_renderer_resolve(self):
        assert rules._backend.MesEngine is _mes_pure.MesEngine
        assert rules.SELECTION_BACKEND == "pure"
        assert callable(rules.MesLedger.to_json)

    def test_traced_run_matches_the_untraced_one(self, perfbench):
        argv = ["run", "--file", str(BASIC), "--rule", "mes*+"]
        plain, traced = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(plain):
            assert cli_main(argv) == 0
        tracer = perfbench["tracing"].Tracer()
        with tracer.installed(), contextlib.redirect_stdout(traced):
            assert cli_main(argv) == 0
        assert traced.getvalue() == plain.getvalue()
        names = {span[0] for span in tracer.spans}
        assert {"star.complete", "engine.build", "engine.run"} <= names

    def test_five_argument_engine(self, perfbench):
        instance, profile = parse_pabulib(BASIC.read_text(encoding="utf-8"))
        share = Fraction(instance.budget_limit, profile.voter_count)
        arrays = perfbench["run"]._engine_arrays(instance, profile)
        selected, factors, payments, _ = _mes_pure.MesEngine(*arrays).run(share, want_ledger=True)
        assert selected == rules._make_engine(instance, profile).run(share)[0]
        assert len(factors) == len(payments) == len(selected)
