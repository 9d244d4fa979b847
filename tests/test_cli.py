"""Command line behaviour: exit codes, outputs, config precedence."""

import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import oracle
from pbrules import cli
from pbrules.analysis import STAT_COLUMNS, _render
from pbrules.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _build_parser, cli_main
from pbrules.metrics import METRIC_COLUMNS
from pbrules.model import (
    ApprovalBallot,
    Instance,
    Profile,
    Project,
    format_money,
    is_complete,
)
from pbrules.pabulib import IngestFilter, ingest_directory, write_pabulib
from pbrules.rules import (
    RuleSpec,
    complete_with_secondary,
    default_epsilon,
    greed_cost,
    mes,
    run_rule,
)

CATS = ("roads", "parks", "schools")


def corpus_pair(k: int):
    m = 4 + k
    unit = k + 2
    projects = tuple(
        Project(
            id=str(j + 1),
            cost=Fraction((j + 1) * unit),
            categories=frozenset({CATS[j % 3]}),
        )
        for j in range(m)
    )
    total = sum(p.cost for p in projects)
    instance = Instance(
        projects=projects,
        budget_limit=total / 2,
        meta={"instance_id": str(k + 1)},
    )
    ballots = tuple(
        ApprovalBallot(
            f"v{i + 1}",
            frozenset({str(i % m + 1), str((i + 1) % m + 1)}),
        )
        for i in range(5 + k)
    )
    return instance, Profile(ballots)


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for k in range(3):
        instance, profile = corpus_pair(k)
        (root / f"city_{k + 1}.pb").write_text(
            write_pabulib(instance, profile), encoding="utf-8"
        )
    return root


@pytest.fixture
def one_file(tmp_path):
    instance, profile = corpus_pair(0)
    path = tmp_path / "one_1.pb"
    path.write_text(write_pabulib(instance, profile), encoding="utf-8")
    return path


def oracle_raw_row(instance, profile, name, chosen, baseline) -> list[str]:
    """The ``--raw-out`` row ``compare`` must write, from oracle.py."""
    row = oracle.metric_row(instance, profile, name, chosen, baseline)
    return [
        format_money(row[c]) if c == "median_cost" and row[c] is not None else _render(row[c])
        for c in METRIC_COLUMNS
    ]


class TestBasics:
    def test_version(self, capsys):
        assert cli_main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out == "pbrules 0.1.0\n"

    def test_help(self, capsys):
        assert cli_main(["--help"]) == EXIT_OK
        assert "COMMAND" in capsys.readouterr().out

    def test_missing_command_is_usage_error(self, capsys):
        assert cli_main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_USAGE

    def test_python_dash_m_runs_the_cli(self, capsys):
        # ``python -m pbrules`` from a checkout, without installing
        root = Path(__file__).resolve().parent.parent
        argv = ["run", "--file", str(root / "tests" / "data" / "basic.pb"), "--rule", "mes"]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pbrules", *argv],
            env=env, capture_output=True, text=True, encoding="utf-8", timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert cli_main(argv) == EXIT_OK
        assert json.loads(done.stdout) == json.loads(capsys.readouterr().out)


class TestStats:
    def test_csv_to_stdout(self, corpus, capsys):
        assert cli_main(["stats", "--dir", str(corpus)]) == EXIT_OK
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0][0] == "instance_id"
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert "accepted 3 instances, skipped 0 files" in captured.err

    def test_json_to_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert (
            cli_main(
                ["stats", "--dir", str(corpus), "--format", "json", "--out", str(out)]
            )
            == EXIT_OK
        )
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [entry["instance_id"] for entry in payload] == ["1", "2", "3"]
        assert all(entry["scarcity"] == pytest.approx(2.0) for entry in payload)

    def test_env_dir_fallback(self, corpus, capsys, monkeypatch):
        monkeypatch.setenv("PB_DATA_DIR", str(corpus))
        assert cli_main(["stats"]) == EXIT_OK

    def test_no_dir_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("PB_DATA_DIR", raising=False)
        assert cli_main(["stats"]) == EXIT_USAGE
        assert "PB_DATA_DIR" in capsys.readouterr().err

    def test_missing_dir_is_data_error(self, tmp_path, capsys):
        assert cli_main(["stats", "--dir", str(tmp_path / "nope")]) == EXIT_DATA

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        assert cli_main(["stats", "--dir", str(tmp_path)]) == EXIT_DATA
        assert "no instances accepted" in capsys.readouterr().err

    def test_min_voters_filter_and_skip_report(self, corpus, tmp_path, capsys):
        report = tmp_path / "skipped.jsonl"
        assert (
            cli_main(
                [
                    "stats",
                    "--dir",
                    str(corpus),
                    "--min-voters",
                    "6",
                    "--skip-report",
                    str(report),
                ]
            )
            == EXIT_OK
        )
        captured = capsys.readouterr()
        assert "accepted 2 instances, skipped 1 files" in captured.err
        entries = [
            json.loads(line)
            for line in report.read_text(encoding="utf-8").splitlines()
        ]
        assert entries == [
            {"file": "city_1.pb", "reason": "too few voters (5 < 6)"}
        ]

    def test_repeated_instance_id_in_skip_report(self, corpus, tmp_path, capsys):
        (corpus / "town_2.pb").write_bytes((corpus / "city_2.pb").read_bytes())
        report = tmp_path / "skipped.jsonl"
        assert cli_main(["stats", "--dir", str(corpus), "--skip-report", str(report)]) == EXIT_OK
        assert "accepted 3 instances, skipped 1 files" in capsys.readouterr().err
        assert [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()] == [
            {"file": "town_2.pb", "reason": "instance id '2' already read from city_2.pb"}
        ]

    def test_filter_defaults_skip_everything(self, corpus, capsys):
        assert cli_main(["stats", "--dir", str(corpus), "--filter-defaults"]) == EXIT_DATA


class TestRun:
    def test_star_plus_with_trace_and_ledger(self, one_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        ledger = tmp_path / "ledger.json"
        code = cli_main(
            [
                "run",
                "--file",
                str(one_file),
                "--rule",
                "mes*+",
                "--trace",
                "--out",
                str(out),
                "--ledger-out",
                str(ledger),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["rule"] == "mes*+"
        assert payload["instance_id"] == "1"
        assert payload["complete"] is True
        assert payload["star"]["status"] in ("complete", "next_infeasible", "exhausted")
        ledger_payload = json.loads(ledger.read_text(encoding="utf-8"))
        assert "selection_order" in ledger_payload
        trace = capsys.readouterr().out
        assert "split equally" in trace

    def test_result_to_stdout(self, one_file, capsys):
        assert cli_main(["run", "--file", str(one_file), "--rule", "greedcost"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "greedcost"
        assert payload["winner_count"] >= 1

    def test_greedy_has_no_ledger(self, one_file, tmp_path, capsys):
        ledger = tmp_path / "x.json"
        out = tmp_path / "result.json"
        for flags in (["--ledger-out", str(ledger)], ["--trace"]):
            for to_file in (True, False):
                argv = ["run", "--file", str(one_file), "--rule", "greedcost", *flags]
                code = cli_main(argv + (["--out", str(out)] if to_file else []))
                assert code == EXIT_USAGE
                assert not out.exists()
                assert not ledger.exists()
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "greedcost produces no" in captured.err
        # rejected before the file is read: a missing file is not a data error
        ghost = str(tmp_path / "ghost.pb")
        assert cli_main(["run", "--file", ghost, "--rule", "greedcost", "--trace"]) == EXIT_USAGE

    def test_ledger_and_trace_agree_on_a_large_election(self, tmp_path, capsys):
        rng = random.Random(400)
        projects = tuple(
            Project(id=str(j + 1), cost=Fraction(rng.randint(5_000, 90_000), 100))
            for j in range(24)
        )
        ballots = tuple(
            ApprovalBallot(
                f"v{i + 1}",
                frozenset(p.id for p in rng.sample(projects, rng.randint(1, 4))),
            )
            for i in range(400)
        )
        instance = Instance(
            projects=projects,
            budget_limit=Fraction(600_017, 100),
            meta={"instance_id": "400"},
        )
        election = tmp_path / "large.pb"
        election.write_text(write_pabulib(instance, Profile(ballots)), encoding="utf-8")
        ledger_path = tmp_path / "ledger.json"
        argv = ["run", "--file", str(election), "--rule", "mes", "--trace"]
        argv += ["--out", str(tmp_path / "result.json"), "--ledger-out", str(ledger_path)]
        assert cli_main(argv) == EXIT_OK
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
        assert len(ledger["budgets"]) == 400
        assert ledger["selection_order"]
        paid = Fraction(0)
        for pid in ledger["selection_order"]:
            amount = sum(map(Fraction, ledger["payments"][pid].values()), Fraction(0))
            assert amount == instance.cost_of(pid)
            paid += amount
        left = sum(map(Fraction, ledger["budgets"].values()), Fraction(0))
        assert paid + left == Fraction(ledger["run_budget"])
        last = capsys.readouterr().out.splitlines()[-1]
        match = re.fullmatch(r"Final wallets: min \S+, median \S+, max \S+; total left (\S+)\.", last)
        assert match is not None, last
        assert Fraction(match.group(1)) == left

    def test_ledger_and_trace_with_escaped_ids(self, tmp_path, capsys):
        # ids with characters JSON escapes, written to a file and read
        # back; the last purchase peels two of its three payers
        rng = random.Random(402)
        projects = tuple(
            Project(
                id=f"p{rng.choice(helpers.ESCAPED)}{j + 1}",
                cost=Fraction(rng.randint(100, 900), 100),
            )
            for j in range(6)
        )
        ballots = tuple(
            ApprovalBallot(
                f"v{rng.choice(helpers.ESCAPED)}{i + 1}",
                frozenset(p.id for p in rng.sample(projects, rng.randint(1, 3))),
            )
            for i in range(10)
        )
        instance = Instance(
            projects=projects, budget_limit=Fraction(1_501, 100), meta={"instance_id": "402"}
        )
        profile = Profile(ballots)
        election = tmp_path / "escaped.pb"
        election.write_text(write_pabulib(instance, profile), encoding="utf-8")
        ledger_path = tmp_path / "ledger.json"
        argv = ["run", "--file", str(election), "--rule", "mes", "--trace"]
        argv += ["--out", str(tmp_path / "result.json"), "--ledger-out", str(ledger_path)]
        assert cli_main(argv) == EXIT_OK
        _, ledger = mes(instance, profile)
        assert len(ledger.selection_order) == 3
        assert len(set(ledger.payments[ledger.selection_order[-1]].values())) == 2
        expected = json.dumps(oracle.ledger_json_dict(ledger), indent=2)
        assert ledger_path.read_text(encoding="utf-8") == expected
        assert capsys.readouterr().out == oracle.trace_text(ledger, instance) + "\n"

    def test_epsilon_flag(self, one_file, capsys):
        assert (
            cli_main(
                [
                    "run",
                    "--file",
                    str(one_file),
                    "--rule",
                    "mes*+",
                    "--epsilon",
                    "0.10",
                    "--max-iterations",
                    "50",
                ]
            )
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["star"]["epsilon"] == "0.1"

    def test_bad_epsilon_is_usage_error(self, one_file, capsys):
        assert (
            cli_main(
                ["run", "--file", str(one_file), "--rule", "mes*+", "--epsilon", "x"]
            )
            == EXIT_USAGE
        )

    def test_unknown_rule_is_usage_error(self, one_file, capsys):
        assert (
            cli_main(["run", "--file", str(one_file), "--rule", "borda"]) == EXIT_USAGE
        )

    def test_missing_flags_are_usage_errors(self, one_file, capsys):
        assert cli_main(["run", "--rule", "mes"]) == EXIT_USAGE
        assert cli_main(["run", "--file", str(one_file)]) == EXIT_USAGE

    def test_unreadable_file_is_data_error(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.pb"
        assert cli_main(["run", "--file", str(ghost), "--rule", "mes"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"pbrules: data error: cannot read {ghost}: ")

    def test_undecodable_file_is_data_error(self, tmp_path, capsys):
        binary = tmp_path / "binary.pb"
        binary.write_bytes(b"\xff\xfe\x00junk")
        assert cli_main(["run", "--file", str(binary), "--rule", "mes"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"pbrules: data error: cannot read {binary}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pb"
        bad.write_text("nonsense;here\n", encoding="utf-8")
        assert cli_main(["run", "--file", str(bad), "--rule", "mes"]) == EXIT_DATA
        assert "line 1" in capsys.readouterr().err


class TestCompare:
    def test_default_rules_csv(self, corpus, capsys):
        assert cli_main(["compare", "--dir", str(corpus)]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "metric"
        # 8 aggregate metrics x 3 rules.
        assert len(rows) == 1 + 8 * 3
        rules_seen = {r[1] for r in rows[1:]}
        assert rules_seen == {"greedcost", "mes+", "mes*+"}

    def test_rule_subset_and_raw_out(self, corpus, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        code = cli_main(
            [
                "compare",
                "--dir",
                str(corpus),
                "--rules",
                "greedcost,mes+",
                "--raw-out",
                str(raw),
            ]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + 8 * 2
        raw_rows = list(csv.reader(io.StringIO(raw.read_text(encoding="utf-8"))))
        assert raw_rows[0] == list(METRIC_COLUMNS)
        assert len(raw_rows) == 1 + 3 * 2

    def test_json_format(self, corpus, capsys):
        assert (
            cli_main(["compare", "--dir", str(corpus), "--format", "json"]) == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["greedcost", "mes+", "mes*+"]
        assert len(payload["rows"]) == 8 * 3

    def test_jobs_flag_matches_serial(self, corpus, capsys):
        assert cli_main(["compare", "--dir", str(corpus)]) == EXIT_OK
        serial = capsys.readouterr().out
        assert cli_main(["compare", "--dir", str(corpus), "--jobs", "2"]) == EXIT_OK
        assert capsys.readouterr().out == serial

    def test_unknown_rule_is_usage_error(self, corpus, capsys):
        assert (
            cli_main(["compare", "--dir", str(corpus), "--rules", "greedcost,borda"])
            == EXIT_USAGE
        )

    def test_empty_rules_is_usage_error(self, corpus, capsys):
        assert cli_main(["compare", "--dir", str(corpus), "--rules", " , "]) == EXIT_USAGE

    def test_rules_are_checked_before_the_corpus_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert cli_main(["compare", "--dir", missing, "--rules", "bogus"]) == EXIT_USAGE
        assert "unknown rule 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, corpus, capsys, jobs):
        assert cli_main(["compare", "--dir", str(corpus), "--jobs", jobs]) == EXIT_USAGE
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_jobs_must_be_an_int(self, corpus, capsys):
        assert cli_main(["compare", "--dir", str(corpus), "--jobs", "x"]) == EXIT_USAGE
        assert "argument --jobs: invalid int value: 'x'" in capsys.readouterr().err

    def test_repeated_rules_are_usage_error(self, corpus, tmp_path, capsys):
        argv = ["compare", "--rules", "greedcost,mes,MES", "--raw-out", str(tmp_path / "raw.csv")]
        assert cli_main(argv + ["--dir", str(corpus)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--rules lists mes more than once" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "raw.csv").exists()
        # checked before the corpus is read
        assert cli_main(argv + ["--dir", str(tmp_path / "missing")]) == EXIT_USAGE


def _unread(*args):
    raise AssertionError("an input was read before the outputs were checked")


@pytest.mark.parametrize(
    "command, flag",
    [
        ("stats", "--out"),
        ("stats", "--skip-report"),
        ("run", "--out"),
        ("run", "--ledger-out"),
        ("compare", "--out"),
        ("compare", "--raw-out"),
        ("extremes", "--out"),
    ],
)
class TestUnwritableOutput:
    """An output path that is a directory, or lies in a directory that
    does not exist, is a data error reported in one line before any
    input is read, for every option that writes a file."""

    @staticmethod
    def argv(command, corpus):
        if command == "run":
            return ["run", "--file", str(corpus / "city_1.pb"), "--rule", "mes"]
        return [command, "--dir", str(corpus)]

    def test_is_data_error(self, corpus, tmp_path, capsys, monkeypatch, command, flag):
        monkeypatch.setattr(cli, "read_pabulib", _unread)
        monkeypatch.setattr(cli, "ingest_directory", _unread)
        target = tmp_path / "missing" / "out.txt"
        assert cli_main([*self.argv(command, corpus), flag, str(target)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"pbrules: data error: cannot write {target}: no such directory: {target.parent}"
        ]
        assert not target.parent.exists()

    def test_directory_as_output_is_data_error(
        self, corpus, tmp_path, capsys, monkeypatch, command, flag
    ):
        monkeypatch.setattr(cli, "read_pabulib", _unread)
        monkeypatch.setattr(cli, "ingest_directory", _unread)
        assert cli_main([*self.argv(command, corpus), flag, str(tmp_path)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"pbrules: data error: cannot write {tmp_path}: is a directory"
        ]


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("stats", "--out", "--skip-report"),
        ("run", "--out", "--ledger-out"),
        ("compare", "--out", "--raw-out"),
        ("compare", "--raw-out", "--skip-report"),
        ("extremes", "--out", "--skip-report"),
    ],
)
def test_two_outputs_naming_one_file_are_a_usage_error(
    corpus, tmp_path, capsys, monkeypatch, command, first, second
):
    # checked before any input is read, also when the two paths differ
    # only in spelling
    monkeypatch.setattr(cli, "read_pabulib", _unread)
    monkeypatch.setattr(cli, "ingest_directory", _unread)
    target = tmp_path / "out.txt"
    spelled = tmp_path / "sub" / ".." / "out.txt"
    (tmp_path / "sub").mkdir()
    argv = [*TestUnwritableOutput.argv(command, corpus), first, str(target)]
    assert cli_main([*argv, second, str(spelled)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"{first} and {second} both name {spelled}"]
    assert not target.exists()


class TestOutputNamingAnInput:
    """An output naming the ``--file`` or ``--config`` the command reads
    is a usage error before any input is read, and leaves it as it was."""

    @pytest.mark.parametrize("flag", ["--out", "--ledger-out"])
    def test_output_naming_the_election_file(self, one_file, capsys, monkeypatch, flag):
        monkeypatch.setattr(cli, "read_pabulib", _unread)
        before = one_file.read_bytes()
        argv = ["run", "--file", str(one_file), "--rule", "mes", flag, str(one_file)]
        assert cli_main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"--file and {flag} both name {one_file}"]
        assert one_file.read_bytes() == before

    @pytest.mark.parametrize("config_first", [False, True])
    @pytest.mark.parametrize(
        "command, flag", [("stats", "--out"), ("stats", "--skip-report"), ("compare", "--raw-out")]
    )
    def test_output_naming_the_config(
        self, corpus, tmp_path, capsys, monkeypatch, command, flag, config_first
    ):
        # --config before the command name is read as well as after it
        monkeypatch.setattr(cli, "ingest_directory", _unread)
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"dir = {corpus}\n", encoding="utf-8")
        before = cfg.read_bytes()
        spelled = tmp_path / "sub" / ".." / "pb.cfg"
        (tmp_path / "sub").mkdir()
        argv = [command, flag, str(spelled)]
        config = ["--config", str(cfg)]
        assert cli_main(config + argv if config_first else argv + config) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"--config and {flag} both name {spelled}"]
        assert cfg.read_bytes() == before


@pytest.mark.parametrize("name", ["city_1.pb", "new.pb"])
@pytest.mark.parametrize(
    "command, flag, from_env",
    [
        ("stats", "--out", False),
        ("stats", "--skip-report", False),
        ("compare", "--raw-out", False),
        ("extremes", "--out", True),
    ],
)
def test_output_naming_a_corpus_election_is_a_usage_error(
    corpus, capsys, monkeypatch, command, flag, from_env, name
):
    # the next ingest would read the output as an election: refused
    # before any input is read, whether the file exists yet or not, with
    # the corpus directory from --dir or from PB_DATA_DIR
    monkeypatch.setattr(cli, "ingest_directory", _unread)
    before = {path.name: path.read_bytes() for path in corpus.iterdir()}
    if from_env:
        monkeypatch.setenv("PB_DATA_DIR", str(corpus))
        argv = [command]
    else:
        monkeypatch.delenv("PB_DATA_DIR", raising=False)
        argv = [command, "--dir", str(corpus)]
    target = corpus / "sub" / ".." / name
    assert cli_main([*argv, flag, str(target)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"{flag} {target} names a .pb file in the corpus directory {corpus}"
    ]
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before


@pytest.mark.parametrize("name", ["city_1.pb", "new.pb"])
@pytest.mark.parametrize("from_env", [False, True])
def test_output_linking_to_a_corpus_election_is_a_usage_error(
    corpus, tmp_path, capsys, monkeypatch, from_env, name
):
    # a symbolic link outside the corpus, to an election or to a .pb file
    # not there yet (a dangling link), is refused as the election's own
    # name is; the message names the link as typed
    monkeypatch.setattr(cli, "ingest_directory", _unread)
    before = {path.name: path.read_bytes() for path in corpus.iterdir()}
    if from_env:
        monkeypatch.setenv("PB_DATA_DIR", str(corpus))
        argv = ["stats"]
    else:
        monkeypatch.delenv("PB_DATA_DIR", raising=False)
        argv = ["stats", "--dir", str(corpus)]
    link = tmp_path / "out.csv"
    link.symlink_to(corpus / name)
    assert cli_main([*argv, "--out", str(link)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"--out {link} names a .pb file in the corpus directory {corpus}"]
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before


def test_link_in_the_corpus_to_an_outside_file_is_a_usage_error(corpus, tmp_path, capsys):
    # the next ingest would read the link's target as an election
    target = tmp_path / "stats.csv"
    (corpus / "link.pb").symlink_to(target)
    argv = ["stats", "--dir", str(corpus), "--out", str(corpus / "link.pb")]
    assert cli_main(argv) == EXIT_USAGE
    assert "names a .pb file in the corpus directory" in capsys.readouterr().err
    assert not target.exists()


def test_link_to_a_file_outside_the_corpus_is_written(corpus, tmp_path):
    target = tmp_path / "stats.csv"
    link = tmp_path / "link.pb"
    link.symlink_to(target)
    assert cli_main(["stats", "--dir", str(corpus), "--out", str(link)]) == EXIT_OK
    assert target.read_text(encoding="utf-8").startswith("instance_id,")
    assert link.is_symlink()


def test_other_outputs_in_the_corpus_directory_are_written(corpus, capsys):
    target = corpus / "stats.csv"
    assert cli_main(["stats", "--dir", str(corpus), "--out", str(target)]) == EXIT_OK
    assert target.read_text(encoding="utf-8").startswith("instance_id,")
    assert cli_main(["stats", "--dir", str(corpus)]) == EXIT_OK
    assert "accepted 3 instances, skipped 0 files" in capsys.readouterr().err


def test_failed_write_is_data_error(corpus, tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    target = tmp_path / "stats.csv"
    assert cli_main(["stats", "--dir", str(corpus), "--out", str(target)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "accepted 3 instances, skipped 0 files",
        f"pbrules: data error: cannot write {target}: [Errno 13] Permission denied: '{target}'",
    ]
    assert not target.exists()


class TestEmptyBallots:
    """An election where every ballot is empty: no voter has a demand
    share, and no equal-shares round can buy anything."""

    @pytest.fixture
    def root(self, tmp_path):
        instance = Instance(
            projects=(
                Project(id="a", cost=Fraction(5), categories=frozenset({"roads"})),
                Project(id="b", cost=Fraction(3), categories=frozenset({"parks"})),
            ),
            budget_limit=Fraction(6),
            meta={"instance_id": "5"},
        )
        profile = Profile((ApprovalBallot("v1", frozenset()), ApprovalBallot("v2", frozenset())))
        (tmp_path / "empty_5.pb").write_text(write_pabulib(instance, profile), encoding="utf-8")
        return tmp_path

    def test_corpus_commands(self, root, capsys):
        assert cli_main(["stats", "--dir", str(root)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("5,2,2,6,")
        argv = ["compare", "--dir", str(root), "--rules", "greedcost,mes,mes+,mes*+"]
        assert cli_main(argv) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 8 * 4
        assert cli_main(["extremes", "--dir", str(root)]) == EXIT_OK
        assert [entry[0] for entry in json.loads(capsys.readouterr().out)["ranking"]] == ["5"]

    def test_star_run_is_exhausted(self, root, capsys):
        argv = ["run", "--file", str(root / "empty_5.pb"), "--rule", "mes*+"]
        assert cli_main(argv) == EXIT_OK
        star = json.loads(capsys.readouterr().out)["star"]
        assert (star["status"], star["rounds_run"]) == ("exhausted", 1)


class TestExtremes:
    def test_json_report(self, corpus, capsys):
        assert cli_main(["extremes", "--dir", str(corpus)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"ranking", "minimum", "median", "maximum"}
        assert len(payload["ranking"]) == 3

    def test_out_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "extremes.json"
        assert cli_main(["extremes", "--dir", str(corpus), "--out", str(out)]) == EXIT_OK
        json.loads(out.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epsilon", "0", "epsilon must be positive"),
            ("--max-iterations", "0", "--max-iterations must be at least 1, got 0"),
        ],
    )
    def test_invalid_star_option_is_usage_error(
        self, corpus, tmp_path, capsys, flag, value, message
    ):
        assert cli_main(["extremes", "--dir", str(corpus), flag, value]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        missing = str(tmp_path / "missing")
        assert cli_main(["extremes", "--dir", missing, flag, value]) == EXIT_USAGE

    def test_jobs_below_one_is_usage_error(self, corpus, capsys):
        assert cli_main(["extremes", "--dir", str(corpus), "--jobs", "0"]) == EXIT_USAGE

    def test_uncategorized_corpus_is_data_error(self, tmp_path, capsys):
        root = tmp_path / "plain"
        root.mkdir()
        instance = Instance(
            projects=(Project(id="a", cost=Fraction(5)), Project(id="b", cost=Fraction(5))),
            budget_limit=Fraction(6),
            meta={"instance_id": "9"},
        )
        profile = Profile(
            (
                ApprovalBallot("v1", frozenset({"a"})),
                ApprovalBallot("v2", frozenset({"b"})),
            )
        )
        (root / "plain_9.pb").write_text(write_pabulib(instance, profile), encoding="utf-8")
        assert cli_main(["extremes", "--dir", str(root)]) == EXIT_DATA
        assert "no categorized instances" in capsys.readouterr().err


class TestConfig:
    def test_config_supplies_defaults(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(
            f"# compare settings\ndir = {corpus}\nrules = greedcost\n",
            encoding="utf-8",
        )
        assert cli_main(["compare", "--config", str(cfg)]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + 8
        assert {r[1] for r in rows[1:]} == {"greedcost"}

    def test_explicit_flag_beats_config(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"dir = {corpus}\nrules = greedcost\n", encoding="utf-8")
        assert (
            cli_main(["compare", "--config", str(cfg), "--rules", "greedcost,mes+"])
            == EXIT_OK
        )
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert {r[1] for r in rows[1:]} == {"greedcost", "mes+"}

    def test_every_subcommand_option_is_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        _, subcommands = _build_parser()
        checked = 0
        for command, sub in subcommands.items():
            for action in sub._actions:
                for option in action.option_strings:
                    if not option.startswith("--") or option in ("--config", "--help"):
                        continue
                    cfg.write_text(f"{option[2:]} = 1\n", encoding="utf-8")
                    args = [command, "--config", str(cfg), "--help"]
                    assert cli_main(args) == EXIT_OK, option
                    checked += 1
        assert checked >= 16
        capsys.readouterr()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        for key in ("colour", "config", "help", "version"):
            cfg.write_text(f"{key} = blue\n", encoding="utf-8")
            assert cli_main(["stats", "--config", str(cfg)]) == EXIT_USAGE, key
            assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text("just a line\n", encoding="utf-8")
        assert cli_main(["stats", "--config", str(cfg)]) == EXIT_USAGE

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["stats", "--config", str(tmp_path / "none.cfg")]) == EXIT_USAGE

    def test_config_may_start_with_a_byte_order_mark(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"\ufeffformat = json\ndir = {corpus}\n", encoding="utf-8")
        assert cli_main(["stats", "--config", str(cfg)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert len(json.loads(out)) == 3
        assert err == "accepted 3 instances, skipped 0 files\n"

    def test_undecodable_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        cfg.write_bytes(b"dir = \xff\n")
        assert cli_main(["stats", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read config {str(cfg)!r}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_flag_values_are_booleans(self, one_file, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        argv = ["run", "--file", str(one_file), "--rule", "mes", "--config", str(cfg)]
        outputs = {}
        for value in ("yes", "false"):
            cfg.write_text(f"trace = {value}\n", encoding="utf-8")
            assert cli_main(argv) == EXIT_OK
            outputs[value] = capsys.readouterr().out
        assert cli_main(argv[:5] + ["--trace"]) == EXIT_OK
        assert outputs["yes"] == capsys.readouterr().out
        assert cli_main(argv[:5]) == EXIT_OK
        assert outputs["false"] == capsys.readouterr().out
        assert "split equally" in outputs["yes"]
        assert outputs["false"] != outputs["yes"]

    def test_on_and_off_words_in_any_case(self, one_file, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        argv = ["run", "--file", str(one_file), "--rule", "mes", "--config", str(cfg)]
        for word in ("1", "TRUE", "Yes", "on", "0", "false", "NO", "Off"):
            cfg.write_text(f"trace = {word}\n", encoding="utf-8")
            assert cli_main(argv) == EXIT_OK, word
            traced = "split equally" in capsys.readouterr().out
            assert traced is (word.lower() in ("1", "true", "yes", "on")), word

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["run", "--rule", "mes", "--file"], "trace = ture"),
            (["stats", "--dir"], "filter-defaults = nope"),
            (["compare", "--dir"], "filter_defaults ="),
        ],
    )
    def test_bad_on_off_value_is_rejected_before_any_file_is_read(
        self, tmp_path, capsys, argv, line
    ):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"# flags\n{line}\n", encoding="utf-8")
        argv = argv + [str(tmp_path / "missing"), "--config", str(cfg)]
        assert cli_main(argv) == EXIT_USAGE
        key, _, value = line.partition("=")
        err = capsys.readouterr().err
        assert f"pb.cfg:2: config key {key.strip()!r} is on (1/true/yes/on)" in err
        assert f"or off (0/false/no/off), got {value.strip()!r}" in err

    @pytest.mark.parametrize(
        "text, key",
        [("trace = 1\ntrace = 0\n", "trace"), ("min-voters = 1\nmin_voters = 2\n", "min_voters")],
    )
    def test_duplicate_key_is_usage_error(self, one_file, tmp_path, capsys, text, key):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(text, encoding="utf-8")
        argv = ["run", "--file", str(one_file), "--rule", "mes", "--config", str(cfg)]
        assert cli_main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert f"pb.cfg:2: duplicate config key {key!r}" in out.err
        assert out.out == ""

    def test_filter_defaults_from_config(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        argv = ["stats", "--dir", str(corpus), "--config", str(cfg)]
        cfg.write_text("filter-defaults = true\n", encoding="utf-8")
        assert cli_main(argv) == EXIT_DATA
        assert "accepted 0 instances, skipped 3 files" in capsys.readouterr().err
        cfg.write_text("filter-defaults = off\n", encoding="utf-8")
        assert cli_main(argv) == EXIT_OK

    def test_count_from_config_matches_the_flag(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text("min-projects = 5\n", encoding="utf-8")
        argv = ["stats", "--dir", str(corpus)]
        assert cli_main(argv + ["--config", str(cfg)]) == EXIT_OK
        from_config = capsys.readouterr()
        assert cli_main(argv + ["--min-projects", "5"]) == EXIT_OK
        assert capsys.readouterr() == from_config
        assert "accepted 2 instances, skipped 1 files" in from_config.err

    @pytest.mark.parametrize("flag", ["--min-voters", "--min-projects"])
    def test_negative_count_is_usage_error(self, corpus, tmp_path, capsys, flag):
        # from a flag and from a config file alike; 0 keeps every file
        argv = ["stats", "--dir", str(corpus)]
        assert cli_main(argv + [flag, "-5"]) == EXIT_USAGE
        assert f"{flag} must be at least 0, got -5" in capsys.readouterr().err
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"{flag[2:]} = -1\n", encoding="utf-8")
        assert cli_main(argv + ["--config", str(cfg)]) == EXIT_USAGE
        assert f"{flag} must be at least 0, got -1" in capsys.readouterr().err
        assert cli_main(argv + [flag, "0"]) == EXIT_OK
        assert "accepted 3 instances, skipped 0 files" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("jobs = 0", "--jobs must be at least 1, got 0"),
            ("max-iterations = x", "argument --max-iterations: invalid int value: 'x'"),
            ("epsilon =", "argument --epsilon: not a decimal money amount: ''"),
            ("min-voters = 1.5", "argument --min-voters: invalid int value: '1.5'"),
        ],
    )
    def test_bad_value_is_rejected_before_the_corpus_is_read(
        self, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"dir = {tmp_path / 'missing'}\n{line}\n", encoding="utf-8")
        assert cli_main(["compare", "--config", str(cfg)]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, bad, good, message",
        [
            ("stats", "jobs", "x", "2", "argument --jobs: invalid int value: 'x'"),
            (
                "run",
                "format",
                "xml",
                "json",
                "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')",
            ),
        ],
    )
    def test_value_for_another_commands_option_is_checked(
        self, corpus, one_file, tmp_path, capsys, command, key, bad, good, message
    ):
        # stats has no --jobs and run no --format: the value is still checked
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"{key} = {bad}\n", encoding="utf-8")
        inputs = {
            "stats": ["--dir", str(corpus)],
            "run": ["--file", str(one_file), "--rule", "mes"],
        }
        argv = [command, *inputs[command], "--config", str(cfg)]
        assert cli_main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert f"pbrules {command}: error: {message}" in out.err
        assert out.out == ""
        cfg.write_text(f"{key} = {good}\n", encoding="utf-8")
        assert cli_main(argv) == EXIT_OK

    @pytest.mark.parametrize("command", ["stats", "compare"])
    def test_choice_from_config_is_checked_as_the_flag_is(
        self, corpus, tmp_path, capsys, command
    ):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text("format = xml\n", encoding="utf-8")
        argv = [command, "--dir", str(corpus)]
        assert cli_main(argv + ["--format", "xml"]) == EXIT_USAGE
        from_flag = capsys.readouterr()
        assert "argument --format: invalid choice: 'xml'" in from_flag.err
        assert cli_main(argv + ["--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr() == from_flag
        # a valid choice from the config takes effect, and a flag still wins
        cfg.write_text("format = json\n", encoding="utf-8")
        assert cli_main(argv + ["--config", str(cfg)]) == EXIT_OK
        json.loads(capsys.readouterr().out)
        assert cli_main(argv + ["--config", str(cfg), "--format", "csv"]) == EXIT_OK
        from_flag = capsys.readouterr().out
        assert cli_main(argv) == EXIT_OK
        assert capsys.readouterr().out == from_flag

    @pytest.mark.parametrize(
        "command, line, flag, message",
        [
            ("compare", "jobs = x", "--jobs", "argument --jobs: invalid int value: 'x'"),
            ("stats", "format = xml", "--format", "argument --format: invalid choice: 'xml'"),
        ],
    )
    def test_config_value_a_flag_overrides_is_still_checked(
        self, corpus, tmp_path, capsys, command, line, flag, message
    ):
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        good = {"--jobs": "1", "--format": "csv"}[flag]
        argv = [command, "--dir", str(corpus), flag, good, "--config", str(cfg)]
        if command == "compare":
            argv += ["--rules", "greedcost"]
        assert cli_main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert f"pbrules {command}: error: {message}" in out.err
        assert "accepted" not in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("epsilon = 0", "argument --epsilon: --epsilon must be positive, got 0"),
            (
                "max-iterations = 0",
                "argument --max-iterations: --max-iterations must be at least 1, got 0",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [["stats", "--dir"], ["compare", "--dir"], ["extremes", "--dir"], ["run", "--file"]],
        ids=lambda argv: argv[0],
    )
    def test_star_value_is_checked_alike_by_every_command(
        self, tmp_path, capsys, line, message, argv
    ):
        # a missing input would exit 2 once read: the value is rejected first
        cfg = tmp_path / "pb.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        argv = argv + [str(tmp_path / "missing"), "--config", str(cfg)]
        if argv[0] == "run":
            argv += ["--rule", "mes"]
        assert cli_main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert f"pbrules {argv[0]}: error: {message}" in out.err
        assert out.out == ""

    def test_shared_option_has_one_type_and_choices(self):
        # the config check converts a value by one subcommand's action alone
        def signature(action):
            # a type built per subcommand, such as _at_least(0, flag),
            # compares by its code and the values it captured
            cells = getattr(action.type, "__closure__", None) or ()
            kind = getattr(action.type, "__code__", action.type)
            return action.nargs, kind, [c.cell_contents for c in cells], action.choices

        _, subcommands = _build_parser()
        by_dest = {}
        for sub in subcommands.values():
            for action in sub._actions:
                by_dest.setdefault(action.dest, []).append(signature(action))
        shared = {dest: found for dest, found in by_dest.items() if len(found) > 1}
        assert {"jobs", "format", "epsilon", "max_iterations", "min_voters"} <= set(shared)
        for dest, found in shared.items():
            assert all(each == found[0] for each in found), dest


class TestCorpusRun:
    """Every corpus command on a small random corpus, against the
    definitional metrics of oracle.py."""

    RULES = ("greedcost", "mes", "mes+", "mes*+")

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        pairs = helpers.random_dataset(
            63, 4, max_voters=30, max_projects=8, decimal_money=True, with_categories=True
        )
        pairs += helpers.random_dataset(64, 1, max_voters=30, max_projects=8, decimal_money=True)
        assert [bool(instance.category_labels) for instance, _ in pairs] == [True] * 4 + [False]
        root = tmp_path_factory.mktemp("corpus")
        for instance, profile in pairs:
            text = write_pabulib(instance, profile)
            (root / f"{instance.instance_id}.pb").write_text(text, encoding="utf-8")
        accepted = ingest_directory(root, IngestFilter(min_voters=1, min_projects=1)).accepted
        # the round trip keeps everything but the META keys the writer adds
        assert [(i.instance_id, i.projects, i.budget_limit, p) for i, p in accepted] == [
            (i.instance_id, i.projects, i.budget_limit, p) for i, p in pairs
        ]
        return root, accepted

    def run(self, capsys, argv):
        assert cli_main(argv) == EXIT_OK
        return capsys.readouterr().out

    def test_stats_match_definition(self, dataset, capsys):
        root, accepted = dataset
        rows = list(csv.reader(io.StringIO(self.run(capsys, ["stats", "--dir", str(root)]))))
        expected = []
        for instance, profile in accepted:
            values = oracle.instance_stats(instance, profile)
            expected.append(
                [str(values.pop(column)) for column in ("instance_id", "voters", "projects")]
                + [format_money(values.pop("budget"))]
                + [_render(value) for value in values.values()]
            )
        assert rows == [list(STAT_COLUMNS)] + expected

    def test_compare_matches_definition_at_any_job_count(self, dataset, tmp_path, capsys):
        root, accepted = dataset
        outputs = []
        for jobs in ("1", "2"):
            raw = tmp_path / f"raw{jobs}.csv"
            argv = ["compare", "--dir", str(root), "--rules", ",".join(self.RULES)]
            out = self.run(capsys, argv + ["--jobs", jobs, "--raw-out", str(raw)])
            outputs.append((out, raw.read_bytes()))
        assert outputs[0] == outputs[1]

        expected = [list(METRIC_COLUMNS)]
        for instance, profile in accepted:
            baseline = greed_cost(instance, profile).selected
            for name in self.RULES:
                chosen = run_rule(RuleSpec.from_name(name), instance, profile).allocation
                assert chosen.total_cost <= instance.budget_limit
                assert name in ("greedcost", "mes") or is_complete(chosen, instance)
                expected.append(
                    oracle_raw_row(instance, profile, name, chosen.selected, baseline)
                )
        raw_rows = list(csv.reader(io.StringIO(outputs[0][1].decode("utf-8"))))
        assert raw_rows == expected

    def test_extremes_match_definition_at_any_job_count(self, dataset, capsys):
        root, accepted = dataset
        serial = self.run(capsys, ["extremes", "--dir", str(root)])
        assert self.run(capsys, ["extremes", "--dir", str(root), "--jobs", "2"]) == serial
        report = json.loads(serial)
        effects = {}
        for instance, profile in accepted:
            expected = oracle.effect_report(
                instance,
                profile,
                greed_cost(instance, profile).selected,
                run_rule(RuleSpec.from_name("mes*+"), instance, profile).allocation.selected,
            )
            if expected is not None:
                effects[instance.instance_id] = expected["effect"]
        assert report["uncategorized"] == [accepted[-1][0].instance_id]
        assert sorted(effects.items(), key=lambda item: (item[1], item[0])) == [
            tuple(entry) for entry in report["ranking"]
        ]

    def test_commands_build_no_ballot_objects(self, dataset, tmp_path, capsys, monkeypatch):
        """Parsed profiles reach every command as index rows: building an
        ApprovalBallot per voter would undo the compact ingest."""
        root, accepted = dataset

        def refuse(ballot):
            raise AssertionError(f"ApprovalBallot built for voter {ballot.voter_id!r}")

        monkeypatch.setattr(ApprovalBallot, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            ApprovalBallot("v", frozenset())
        one_file = str(root / f"{accepted[0][0].instance_id}.pb")
        for rule in ("mes", "mes*+"):
            argv = ["run", "--file", one_file, "--rule", rule, "--trace"]
            self.run(capsys, argv + ["--ledger-out", str(tmp_path / "ledger.json")])
        self.run(capsys, ["stats", "--dir", str(root)])
        self.run(capsys, ["compare", "--dir", str(root), "--rules", ",".join(self.RULES), "--jobs", "1"])
        self.run(capsys, ["extremes", "--dir", str(root), "--jobs", "1"])


def degenerate_election(case: str):
    """One small election per degenerate input of the star completion."""
    roads, parks = frozenset({"roads"}), frozenset({"parks"})
    if case == "rivals":
        # round 0 buys nothing; the first purchase is 100 rounds on, and
        # it overshoots
        costs, limit = {"x": (6, roads), "y": (6, parks)}, 10
        ballots = {"v1": {"x"}, "v2": {"y"}}
    elif case == "single-voter":
        # nobody approves c either
        costs, limit = {"a": (4, roads), "b": (3, parks), "c": (2, roads)}, 6
        ballots = {"v1": {"a", "b"}}
    elif case == "unapproved":
        # nobody approves z, so no round completes the selection
        costs, limit = {"a": (2, roads), "b": (3, parks), "z": (1, parks)}, 6
        ballots = {"v1": {"a"}, "v2": {"a", "b"}, "v3": {"b"}}
    else:  # "below-every-cost": the empty selection is complete
        costs, limit = {"a": (5, roads), "b": (7, parks)}, 3
        ballots = {"v1": {"a"}, "v2": {"a", "b"}}
    instance = Instance(
        projects=tuple(
            Project(id=pid, cost=Fraction(cost), categories=labels)
            for pid, (cost, labels) in costs.items()
        ),
        budget_limit=Fraction(limit),
        meta={"instance_id": "7"},
    )
    profile = Profile(tuple(ApprovalBallot(vid, frozenset(ids)) for vid, ids in ballots.items()))
    return instance, profile


class TestDegenerateStar:
    """Degenerate inputs to ``mes*+`` end in a reported state, with the
    star fields of the round-by-round reference."""

    CASES = ("rivals", "single-voter", "unapproved", "below-every-cost")

    @pytest.fixture(params=CASES)
    def case(self, request, tmp_path):
        instance, profile = degenerate_election(request.param)
        root = tmp_path / request.param
        root.mkdir()
        (root / "7.pb").write_text(write_pabulib(instance, profile), encoding="utf-8")
        return request.param, root, instance, profile

    @staticmethod
    def reference(instance, profile, max_iterations):
        return helpers.star_reference(
            instance, profile, default_epsilon(profile), max_iterations
        )

    @pytest.mark.parametrize("max_iterations", [1, 2, 40])
    def test_run(self, case, max_iterations, capsys):
        name, root, instance, profile = case
        argv = ["run", "--file", str(root / "7.pb"), "--rule", "mes*+"]
        assert cli_main(argv + ["--max-iterations", str(max_iterations)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        star = payload["star"]
        expected = self.reference(instance, profile, max_iterations)
        assert star["rounds_run"] <= star["rounds_examined"]
        assert star == {
            "status": expected["status"],
            "chosen_round": expected["chosen_round"],
            "rounds_examined": expected["rounds_examined"],
            "rounds_run": star["rounds_run"],
            "epsilon": format_money(default_epsilon(profile)),
            "budget_used": format_money(expected["budget_used"]),
        }
        completed = complete_with_secondary(expected["allocation"], instance, profile)
        assert payload["selected"] == sorted(completed.selected)
        assert payload["complete"] is True
        if name == "below-every-cost":
            assert star["status"] == "complete"
            assert payload["selected"] == []
        else:
            # no round within the cap changes the selection, and round 0
            # proves it: the search jumps past the cap
            assert star["status"] == "exhausted"
            assert star["chosen_round"] == max_iterations - 1
            assert star["rounds_run"] == 1

    def test_rivals_overshoot_after_a_hundred_rounds(self, capsys):
        instance, profile = degenerate_election("rivals")
        expected = self.reference(instance, profile, 10_000)
        result = run_rule(RuleSpec.from_name("mes*+"), instance, profile)
        assert result.star.status == expected["status"] == "next_infeasible"
        assert result.star.chosen_round == expected["chosen_round"] == 99
        assert result.star.rounds_examined == expected["rounds_examined"] == 101
        assert result.star.rounds_run == 2

    @pytest.mark.parametrize("max_iterations", [1, 2, 40])
    def test_compare(self, case, max_iterations, tmp_path, capsys):
        _, root, instance, profile = case
        raw = tmp_path / "raw.csv"
        argv = ["compare", "--dir", str(root), "--rules", "greedcost,mes*+", "--raw-out", str(raw)]
        assert cli_main(argv + ["--max-iterations", str(max_iterations)]) == EXIT_OK
        baseline = greed_cost(instance, profile).selected
        star = self.reference(instance, profile, max_iterations)
        completed = complete_with_secondary(star["allocation"], instance, profile)
        rows = list(csv.reader(io.StringIO(raw.read_text(encoding="utf-8"))))
        assert rows == [
            list(METRIC_COLUMNS),
            oracle_raw_row(instance, profile, "greedcost", baseline, baseline),
            oracle_raw_row(instance, profile, "mes*+", completed.selected, baseline),
        ]

    @pytest.mark.parametrize("max_iterations", [1, 2, 40])
    def test_extremes(self, case, max_iterations, capsys):
        _, root, instance, profile = case
        argv = ["extremes", "--dir", str(root), "--max-iterations", str(max_iterations)]
        code = cli_main(argv)
        star = self.reference(instance, profile, max_iterations)
        completed = complete_with_secondary(star["allocation"], instance, profile)
        expected = oracle.effect_report(
            instance, profile, greed_cost(instance, profile).selected, completed.selected
        )
        out, err = capsys.readouterr()
        if expected is None:
            assert code == EXIT_DATA
            assert "no categorized instances" in err
        else:
            assert code == EXIT_OK
            assert json.loads(out)["ranking"] == [["7", expected["effect"]]]
