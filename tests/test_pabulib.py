"""File format layer: parsing, located errors, writing, directory ingest."""

import dataclasses
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from pbrules.model import Allocation, ApprovalBallot, Instance, Profile, Project
from pbrules.pabulib import (
    IngestFilter,
    PabulibParseError,
    ingest_directory,
    parse_pabulib,
    write_pabulib,
)

DATA = Path(__file__).parent / "data"


def read_fixture(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


class TestParsing:
    def test_basic_fixture(self):
        instance, profile = parse_pabulib(read_fixture("basic.pb"), source="basic.pb")
        assert instance.instance_id == "101"
        assert instance.budget_limit == Fraction(50000)
        assert instance.meta["unit"] == "Amsterdam"
        assert [p.id for p in instance.projects] == ["1", "2", "3"]
        p1, p2, p3 = instance.projects
        assert p1.name == "Playground"
        assert p1.categories == {"parks", "youth"}
        assert p1.extra == {"latitude": "52.37"}
        assert p2.cost == Fraction("15000.50".replace(".", "")) / 100
        assert p3.extra == {"latitude": ""}
        assert profile.voter_count == 4
        assert profile.ballots[0].approved == {"1", "2"}
        assert profile.ballots[3].approved == frozenset()

    def test_minimal_fixture_derives_id_from_source(self):
        instance, profile = parse_pabulib(read_fixture("minimal.pb"), source="minimal.pb")
        assert instance.instance_id == "minimal"
        assert instance.projects[0].name is None
        assert instance.projects[0].categories == frozenset()
        assert profile.ballots[1].approved == {"b"}

    def test_numeric_tail_of_source_wins(self):
        # a blank META instance_id falls back to the source; a padded one
        # is stripped, so it still sorts as a number
        cases = [(None, "644"), ("instance_id;  ", "644"), ("instance_id; 7 ", "7")]
        for meta_line, expected in cases:
            text = read_fixture("minimal.pb")
            if meta_line:
                text = text.replace("key;value\n", f"key;value\n{meta_line}\n")
            instance, _ = parse_pabulib(text, source="netherlands_amsterdam_644.pb")
            assert instance.instance_id == expected, meta_line

    def test_bom_and_crlf_tolerated(self):
        text = "﻿" + read_fixture("minimal.pb").replace("\n", "\r\n")
        instance, _ = parse_pabulib(text)
        assert instance.budget_limit == 100

    def test_blank_lines_ignored(self):
        text = read_fixture("minimal.pb").replace("VOTES", "\nVOTES\n")
        parse_pabulib(text)


def _expect_error(text: str, code: str, line: int | None, **kwargs):
    with pytest.raises(PabulibParseError) as info:
        parse_pabulib(text, **kwargs)
    assert info.value.code == code
    assert info.value.line == line
    if line is not None:
        assert str(info.value).startswith(f"line {line}:")
    return info.value


MINIMAL = """META
key;value
budget;100
num_projects;2
num_votes;2
vote_type;approval
PROJECTS
project_id;cost
a;60
b;50
VOTES
voter_id;vote
1;a,b
2;b
"""


class TestErrors:
    def test_data_before_section(self):
        _expect_error("x;y\n" + MINIMAL, "no-section", 1)

    def test_sections_out_of_order(self):
        _expect_error("PROJECTS\n" + MINIMAL, "unexpected-section", 1)

    def test_missing_votes_section(self):
        head = MINIMAL.split("VOTES")[0]
        _expect_error(head, "missing-section", None)

    def test_meta_header_required(self):
        _expect_error(MINIMAL.replace("key;value\n", ""), "missing-header", 2)

    def test_duplicate_meta_key(self):
        _expect_error(MINIMAL.replace("budget;100", "budget;100\nbudget;2"), "duplicate-key", 4)

    def test_projects_header_needs_cost(self):
        bad = MINIMAL.replace("project_id;cost", "project_id;price")
        _expect_error(bad, "missing-cost", 8)

    def test_votes_header_needs_vote(self):
        bad = MINIMAL.replace("voter_id;vote", "voter_id;choices")
        _expect_error(bad, "missing-column", 12)

    def test_row_wider_than_header(self):
        bad = MINIMAL.replace("a;60", "a;60;extra")
        _expect_error(bad, "row-width", 9)

    def test_missing_meta_key(self):
        bad = MINIMAL.replace("vote_type;approval\n", "")
        _expect_error(bad, "missing-meta", None)

    def test_unsupported_vote_type(self):
        bad = MINIMAL.replace("vote_type;approval", "vote_type;ordinal")
        _expect_error(bad, "unsupported-vote-type", None)

    def test_bad_budget(self):
        bad = MINIMAL.replace("budget;100", "budget;lots")
        _expect_error(bad, "bad-money", None)

    def test_count_mismatch(self):
        bad = MINIMAL.replace("num_votes;2", "num_votes;3")
        _expect_error(bad, "count-mismatch", None)

    def test_bad_count(self):
        bad = MINIMAL.replace("num_votes;2", "num_votes;two")
        _expect_error(bad, "bad-count", None)

    def test_unicode_digit_count(self):
        # "²".isdigit() is True but int("²") raises
        bad = MINIMAL.replace("num_votes;2", "num_votes;²")
        _expect_error(bad, "bad-count", None)

    def test_duplicate_project(self):
        bad = MINIMAL.replace("b;50", "a;50")
        _expect_error(bad, "duplicate-project", 10)

    def test_zero_cost_rejected(self):
        bad = MINIMAL.replace("b;50", "b;0")
        _expect_error(bad, "bad-money", 10)

    def test_missing_cost_cell(self):
        bad = MINIMAL.replace("b;50", "b;")
        _expect_error(bad, "missing-cost", 10)

    def test_empty_column_name(self):
        bad = MINIMAL.replace("project_id;cost", "project_id;;cost")
        _expect_error(bad, "missing-header", 8)

    def test_duplicate_column(self):
        bad = MINIMAL.replace("project_id;cost", "project_id;cost;cost")
        _expect_error(bad, "missing-header", 8)

    def test_empty_meta_key(self):
        _expect_error(MINIMAL.replace("budget;100", "budget;100\n;x"), "meta", 4)

    def test_empty_project_id(self):
        _expect_error(MINIMAL.replace("b;50", ";50"), "bad-project", 10)

    def test_bad_project_cost(self):
        error = _expect_error(MINIMAL.replace("b;50", "b;6,0"), "bad-money", 10)
        assert "'6,0'" in str(error)

    def test_zero_budget(self):
        # parse_money reads 0; the instance rejects it once the file is read
        _expect_error(MINIMAL.replace("budget;100", "budget;0"), "bad-money", None)

    def test_unknown_project_in_ballot(self):
        bad = MINIMAL.replace("2;b", "2;zzz")
        _expect_error(bad, "unknown-project", 14)

    def test_duplicate_voter(self):
        bad = MINIMAL.replace("2;b", "1;b")
        _expect_error(bad, "duplicate-voter", 14)

    def test_empty_voter_id(self):
        bad = MINIMAL.replace("2;b", ";b")
        _expect_error(bad, "bad-voter", 14)

    def test_no_votes(self):
        bad = MINIMAL.replace("num_votes;2", "num_votes;0").split("voter_id;vote")[0]
        bad += "voter_id;vote\n"
        _expect_error(bad, "missing-votes", None)

    @pytest.mark.parametrize(
        "changes, code, line",
        [
            # a project row is checked before a later vote row
            ([("b;50", "b;"), ("2;b", "2;b;x")], "missing-cost", 10),
            # the META values are checked when PROJECTS is reached
            ([("budget;100", "budget;lots"), ("a;60", "a;60;x")], "bad-money", None),
            # num_projects is checked when VOTES is reached
            ([("num_projects;2", "num_projects;3"), ("2;b", "2;zzz")], "count-mismatch", None),
            # num_votes is checked at the end, after every vote row
            ([("num_votes;2", "num_votes;3"), ("2;b", "2;zzz")], "unknown-project", 14),
        ],
    )
    def test_first_error_in_file_order(self, changes, code, line):
        bad = MINIMAL
        for old, new in changes:
            bad = bad.replace(old, new)
        _expect_error(bad, code, line)


class TestDropCostless:
    def test_drops_project_and_references(self):
        text = MINIMAL.replace("b;50", "b;")
        instance, profile = parse_pabulib(text, drop_costless=True)
        assert instance.project_ids == {"a"}
        assert profile.ballots[0].approved == {"a"}
        assert profile.ballots[1].approved == frozenset()

    def test_all_costless_is_an_error(self):
        text = MINIMAL.replace("a;60", "a;").replace("b;50", "b;")
        _expect_error(text, "no-projects", None, drop_costless=True)


class TestWriting:
    def test_round_trip_basic(self):
        instance, profile = parse_pabulib(read_fixture("basic.pb"), source="basic.pb")
        text = write_pabulib(instance, profile)
        again_instance, again_profile = parse_pabulib(text, source="basic.pb")
        assert again_instance == instance
        assert again_profile == profile
        # A second write is byte-stable.
        assert write_pabulib(again_instance, again_profile) == text

    def test_selected_column(self):
        instance, profile = parse_pabulib(read_fixture("minimal.pb"))
        allocation = Allocation.of({"a"}, instance)
        text = write_pabulib(instance, profile, allocation)
        lines = text.splitlines()
        header = lines[lines.index("PROJECTS") + 1]
        assert header.endswith(";selected")
        rows = {r.split(";")[0]: r.split(";")[-1] for r in lines[lines.index("PROJECTS") + 2 : lines.index("VOTES")]}
        assert rows == {"a": "1", "b": "0"}
        # a selected column the projects already carry gives way to the allocation's
        marked = Instance(
            projects=tuple(
                dataclasses.replace(p, extra={"note": p.id, "selected": "1"})
                for p in instance.projects
            ),
            budget_limit=instance.budget_limit,
            meta=instance.meta,
        )
        text = write_pabulib(marked, profile, Allocation.of({"a"}, marked))
        lines = text.splitlines()
        assert lines[lines.index("PROJECTS") + 1].split(";") == [
            "project_id", "cost", "note", "selected"
        ]
        again, _ = parse_pabulib(text)
        assert {p.id: p.extra for p in again.projects} == {
            "a": {"note": "a", "selected": "1"},
            "b": {"note": "b", "selected": "0"},
        }

    def test_votes_sorted_numerically(self):
        instance = Instance(
            projects=tuple(Project(id=str(i), cost=Fraction(1)) for i in (2, 10, 1)),
            budget_limit=Fraction(5),
        )
        profile = Profile((ApprovalBallot("v", frozenset({"10", "2", "1"})),))
        text = write_pabulib(instance, profile)
        assert "v;1,2,10" in text.splitlines()

    def test_rejects_non_decimal_money(self):
        instance = Instance(
            projects=(Project(id="p", cost=Fraction(1, 3)),),
            budget_limit=Fraction(5),
        )
        profile = Profile((ApprovalBallot("v", frozenset({"p"})),))
        with pytest.raises(ValueError):
            write_pabulib(instance, profile)
        instance = Instance(projects=(Project(id="p", cost=1),), budget_limit=Fraction(1, 3))
        with pytest.raises(ValueError, match="budget limit has no finite decimal form"):
            write_pabulib(instance, profile)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"name": "Park; north"}, "project 'a' name 'Park; north' contains ';'"),
            ({"name": "Park\nnorth"}, "project 'a' name 'Park\\nnorth' contains ';' or a line"),
            ({"label": "parks\r"}, "project 'a' category 'parks\\r' contains ';' or a line break"),
            ({"voter": "v;1"}, "voter id 'v;1' contains ';'"),
            ({"project": "a,1"}, "project id 'a,1' contains ','"),
            ({"label": "parks,roads"}, "project 'a' category 'parks,roads' contains ','"),
            ({"name": " Park "}, "project 'a' name ' Park ' has leading or trailing whitespace"),
            ({"project": "a "}, "project id 'a ' has leading or trailing whitespace"),
            ({"label": " parks"}, "project 'a' category ' parks' has leading"),
            ({"voter": " 1"}, "voter id ' 1' has leading"),
            ({"meta": {"unit ": "Amsterdam"}}, "META key 'unit ' has leading"),
            ({"meta": {"unit": "A;B"}}, "META 'unit' value 'A;B' contains ';'"),
            ({"meta": {"instance_id": " 7 "}}, "META 'instance_id' value ' 7 ' has leading"),
            ({"name": ""}, "project 'a' name is empty"),
            ({"label": ""}, "project 'a' category is empty"),
        ],
    )
    def test_rejects_values_it_cannot_read_back(self, change, message):
        pid = change.get("project", "a")
        label = change.get("label", "parks")
        instance = Instance(
            projects=(
                Project(pid, Fraction(60), change.get("name", "Park"), {label}),
                Project("b", Fraction(50), "Square", {"roads"}),
            ),
            budget_limit=Fraction(100),
            meta=change.get("meta", {"instance_id": "7"}),
        )
        profile = Profile(
            (
                ApprovalBallot(change.get("voter", "1"), frozenset({pid, "b"})),
                ApprovalBallot("2", frozenset({"b"})),
            )
        )
        with pytest.raises(ValueError) as info:
            write_pabulib(instance, profile)
        assert str(info.value).startswith(message)

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, seed):
        import random

        rng = random.Random(seed)
        instance, profile = helpers.random_instance(
            rng, decimal_money=True, with_categories=bool(seed % 2), tag=str(seed)
        )
        text = write_pabulib(instance, profile)
        again_instance, again_profile = parse_pabulib(text)
        assert again_instance.projects == instance.projects
        assert again_instance.budget_limit == instance.budget_limit
        assert again_instance.instance_id == instance.instance_id
        assert again_profile == profile


def with_costless_projects(text: str, ids: tuple[str, ...]) -> str:
    """``text`` with projects ``ids`` listed without a cost and added to
    every second ballot."""
    lines = text.split("\n")
    count = next(k for k, line in enumerate(lines) if line.startswith("num_projects;"))
    lines[count] = f"num_projects;{int(lines[count].split(';')[1]) + len(ids)}"
    first_project = lines.index("PROJECTS") + 2
    lines[first_project:first_project] = [f"{pid};" for pid in ids]
    for k in range(lines.index("VOTES") + 2, len(lines), 2):
        if lines[k]:
            lines[k] += "," + ",".join(ids)
    return "\n".join(lines)


class TestIndexedProfile:
    """parse_pabulib hands over each voter's id and project indices; the
    profile must behave as the one built from its ballots."""

    @pytest.mark.parametrize("variant", ["plain", "costless", "crlf-bom"])
    @pytest.mark.parametrize("seed", range(12))
    def test_parsed_profile_is_the_written_one(self, seed, variant):
        rng = random.Random(seed)
        instance, profile = helpers.random_instance(
            rng, decimal_money=True, with_categories=bool(seed % 2), tag=str(seed)
        )
        text = write_pabulib(instance, profile)
        if variant == "costless":
            text = with_costless_projects(text, ("x1", "x2"))
        elif variant == "crlf-bom":
            text = "\ufeff" + text.replace("\n", "\r\n")
        parsed_instance, parsed = parse_pabulib(text, drop_costless=variant == "costless")
        assert parsed_instance.projects == instance.projects
        voter_ids = tuple(b.voter_id for b in profile.ballots)
        assert parsed.voter_ids == voter_ids
        assert parsed.voter_count == profile.voter_count
        # pickled before and after the ballots are built
        assert pickle.loads(pickle.dumps(parsed)) == profile
        assert parsed == profile and profile == parsed
        assert hash(parsed) == hash(profile)
        assert repr(parsed) == repr(Profile(parsed.ballots))
        assert pickle.loads(pickle.dumps(parsed)) == profile
        assert parsed.voter_ids == voter_ids and len(parsed.ballots) == parsed.voter_count
        with pytest.raises(AttributeError):
            parsed.ballots = profile.ballots
        with pytest.raises(AttributeError):
            parsed.voter_ids = voter_ids

    def test_validates_against_another_instance(self):
        instance, profile = parse_pabulib(MINIMAL)
        profile.validate_against(instance)
        smaller = Instance(projects=instance.projects[:1], budget_limit=instance.budget_limit)
        with pytest.raises(KeyError, match="ballot '1' approves unknown project 'b'"):
            profile.validate_against(smaller)


def _write_corpus_file(path: Path, instance_id: str, n_voters: int, n_projects: int):
    projects = tuple(
        Project(id=str(j + 1), cost=Fraction(10 * (j + 1))) for j in range(n_projects)
    )
    instance = Instance(
        projects=projects,
        budget_limit=Fraction(100 * n_projects),
        meta={"instance_id": instance_id},
    )
    ballots = tuple(
        ApprovalBallot(f"v{i + 1}", frozenset({str(i % n_projects + 1)}))
        for i in range(n_voters)
    )
    path.write_text(write_pabulib(instance, Profile(ballots)), encoding="utf-8")


class TestIngest:
    def test_defaults(self):
        f = IngestFilter()
        assert (f.min_voters, f.min_projects) == (100, 10)
        assert f.require_costs

    def test_directory_filtering_and_report(self, tmp_path):
        _write_corpus_file(tmp_path / "city_10.pb", "10", 5, 3)
        _write_corpus_file(tmp_path / "city_2.pb", "2", 4, 3)
        _write_corpus_file(tmp_path / "city_x.pb", "x", 4, 3)
        _write_corpus_file(tmp_path / "small_votes.pb", "900", 2, 3)
        _write_corpus_file(tmp_path / "small_projects.pb", "901", 5, 1)
        (tmp_path / "costless.pb").write_text(
            MINIMAL.replace("b;50", "b;"), encoding="utf-8"
        )
        (tmp_path / "novotes.pb").write_text(
            MINIMAL.replace("num_votes;2", "num_votes;0").split("voter_id;vote")[0]
            + "voter_id;vote\n",
            encoding="utf-8",
        )
        (tmp_path / "garbage.pb").write_text("what;ever\n", encoding="utf-8")
        (tmp_path / "binary.pb").write_bytes(b"\xff\xfe\x00junk")
        (tmp_path / "ignored.txt").write_text("not a pb file", encoding="utf-8")

        result = ingest_directory(tmp_path, IngestFilter(min_voters=3, min_projects=2))
        ids = [inst.instance_id for inst, _ in result.accepted]
        assert ids == ["2", "10", "x"]

        reasons = {s.file: s.reason for s in result.skipped}
        assert reasons["costless.pb"] == "missing cost"
        assert reasons["novotes.pb"] == "missing votes"
        assert reasons["garbage.pb"].startswith("parse error: line 1:")
        assert reasons["binary.pb"].startswith("unreadable:")
        assert reasons["small_votes.pb"] == "too few voters (2 < 3)"
        assert reasons["small_projects.pb"] == "too few projects (1 < 2)"

        lines = result.skip_report_lines()
        assert len(lines) == 6
        parsed = [json.loads(line) for line in lines]
        assert all(set(entry) == {"file", "reason"} for entry in parsed)

    def test_require_costs_false_drops_instead(self, tmp_path):
        (tmp_path / "costless.pb").write_text(
            MINIMAL.replace("b;50", "b;"), encoding="utf-8"
        )
        result = ingest_directory(
            tmp_path, IngestFilter(min_voters=1, min_projects=1, require_costs=False)
        )
        assert len(result.accepted) == 1
        assert result.accepted[0][0].project_ids == {"a"}

    def test_unicode_digit_file_name(self, tmp_path):
        # "²".isdigit() is True but int("²") raises; the id is the stem
        (tmp_path / "city².pb").write_text(MINIMAL, encoding="utf-8")
        (tmp_path / "city_3.pb").write_text(MINIMAL, encoding="utf-8")
        result = ingest_directory(tmp_path, IngestFilter(min_voters=1, min_projects=1))
        assert [inst.instance_id for inst, _ in result.accepted] == ["3", "city²"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_directory(tmp_path / "nope")

    def test_count_mismatch_reason_has_no_line(self, tmp_path):
        (tmp_path / "short.pb").write_text(
            MINIMAL.replace("num_votes;2", "num_votes;3"), encoding="utf-8"
        )
        result = ingest_directory(tmp_path, IngestFilter(min_voters=1, min_projects=1))
        assert result.accepted == ()
        assert [(s.file, s.reason) for s in result.skipped] == [
            ("short.pb", "parse error: META declares num_votes=3 but the file has 2 rows")
        ]
