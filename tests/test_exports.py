"""The public names of the package, and the names each module imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pbrules


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
