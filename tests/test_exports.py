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
from pbrules import _mes_pure, rules
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
