"""The public names of the package, and the names each module imports."""

import ast
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
