"""Command line behaviour: exit codes, outputs, config precedence."""

import argparse
import csv
import io
import json
import random
import re
from fractions import Fraction

import pytest

from pbrules.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _build_parser, cli_main
from pbrules.metrics import METRIC_COLUMNS
from pbrules.model import ApprovalBallot, Instance, Profile, Project
from pbrules.pabulib import write_pabulib

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
        assert (
            cli_main(["run", "--file", str(tmp_path / "ghost.pb"), "--rule", "mes"])
            == EXIT_DATA
        )

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
            ("--max-iterations", "0", "max_iterations must be at least 1"),
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
        (subcommands,) = [
            action.choices
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
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
