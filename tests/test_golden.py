"""Byte-for-byte outputs of ``stats``, ``compare``, ``extremes`` and
``run`` on a small fixed corpus, pinned against the files in
``tests/data/golden``.

The corpus is five seeded elections of 20-40 voters built by
:mod:`helpers`; the fifth has no categories, the second and fourth name
their projects.  ``run`` pins the result JSON, the ``--ledger-out`` JSON
and the ``--trace`` text of ``mes`` and ``mes*+`` on the first election,
whose purchases split their cost unevenly among the payers.  To rewrite the golden files after a deliberate output
change, run ``python tests/test_golden.py`` with ``src`` on
``PYTHONPATH``.
"""

import contextlib
import io
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from pbrules.cli import EXIT_OK, cli_main
from pbrules.pabulib import write_pabulib

GOLDEN = Path(__file__).parent / "data" / "golden"

RULES = "greedcost,mes,mes+,mes*+"

# scales every cost and budget so that money has more digits than the
# four significant ones other numbers are rendered with
MONEY_SCALE = Fraction("123.45")

# output file name -> the command line that writes it; {dir} is the
# corpus, {out} the output file.  A command that writes no {out} file is
# pinned by what it prints.
COMMANDS = {
    "stats.csv": "stats --dir {dir} --out {out}",
    "stats.json": "stats --dir {dir} --format json --out {out}",
    "compare.csv": f"compare --dir {{dir}} --rules {RULES} --out {{out}}",
    "compare.json": f"compare --dir {{dir}} --rules {RULES} --format json --out {{out}}",
    "compare_raw.csv": f"compare --dir {{dir}} --rules {RULES} --out {{out}}.csv --raw-out {{out}}",
    "extremes.json": "extremes --dir {dir} --out {out}",
}
for rule, tag in (("mes", "mes"), ("mes*+", "mes_star_plus")):
    run = f"run --file {{dir}}/golden_1.pb --rule {rule}"
    COMMANDS[f"run_{tag}.json"] = f"{run} --out {{out}}"
    COMMANDS[f"run_{tag}_ledger.json"] = f"{run} --out {{out}}.json --ledger-out {{out}}"
    COMMANDS[f"run_{tag}_trace.txt"] = f"{run} --out {{out}}.json --trace"


def write_corpus(root: Path) -> None:
    rng = random.Random(656)
    for k in range(5):
        instance, profile = helpers.random_instance(
            rng,
            min_voters=20,
            max_voters=40,
            max_projects=8,
            decimal_money=True,
            with_categories=k < 4,
            approval_rate=0.3,
            tag=str(k + 1),
        )
        projects = tuple(
            replace(p, cost=p.cost * MONEY_SCALE, name=f"Project {p.id}" if k % 2 else None)
            for p in instance.projects
        )
        instance = replace(
            instance, projects=projects, budget_limit=instance.budget_limit * MONEY_SCALE
        )
        (root / f"golden_{k + 1}.pb").write_text(
            write_pabulib(instance, profile), encoding="utf-8"
        )


def render(name: str, corpus: Path, out: Path) -> bytes:
    argv = [arg.format(dir=corpus, out=out) for arg in COMMANDS[name].split()]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli_main(argv) == EXIT_OK
    return out.read_bytes() if out.exists() else printed.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_corpus")
    write_corpus(root)
    return root


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, corpus, tmp_path):
    assert render(name, corpus, tmp_path / name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write_corpus(root)
        for name in sorted(COMMANDS):
            (GOLDEN / name).write_bytes(render(name, root, root / name))
            print(f"wrote {GOLDEN / name}")
