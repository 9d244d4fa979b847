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
from pbrules.model import ApprovalBallot, Instance, Profile, Project, compile_election
from pbrules.pabulib import (
    IngestFilter,
    PabulibParseError,
    ingest_directory,
    parse_pabulib,
    read_pabulib,
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

    @pytest.mark.parametrize("name, instance_id", [("basic.pb", "101"), ("minimal.pb", "minimal")])
    def test_read_file_is_the_parse_of_its_text(self, name, instance_id):
        instance, profile = read_pabulib(DATA / name)
        assert (instance, profile) == parse_pabulib(read_fixture(name), source=name)
        assert instance.instance_id == instance_id
        assert read_pabulib(str(DATA / name)) == (instance, profile)

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_file(self, tmp_path, kind):
        path = tmp_path / "city_1.pb"
        if kind == "directory":
            path.mkdir()
        elif kind == "binary":
            path.write_bytes(b"\xff\xfe\x00junk")
        with pytest.raises(PabulibParseError) as info:
            read_pabulib(path)
        assert info.value.code == "unreadable"
        assert info.value.line is None

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


# a PROJECTS section with a header and no rows
NO_PROJECTS = MINIMAL.replace("num_projects;2", "num_projects;0").replace("a;60\nb;50\n", "")


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


class TestCostless:
    def test_all_costless_is_an_error(self):
        text = MINIMAL.replace("a;60", "a;").replace("b;50", "b;")
        _expect_error(text, "missing-cost", 9)

    def test_no_project_rows_is_an_error(self):
        error = _expect_error(NO_PROJECTS, "no-projects", None)
        assert str(error) == "no projects"


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
        # a selected column is an extra column like any other: written from
        # Project.extra in sorted column order and read back unchanged
        instance, profile = parse_pabulib(read_fixture("minimal.pb"))
        winners = {"a"}
        marked = Instance(
            projects=tuple(
                dataclasses.replace(
                    p, extra={"selected": "1" if p.id in winners else "0", "note": p.id}
                )
                for p in instance.projects
            ),
            budget_limit=instance.budget_limit,
            meta=instance.meta,
        )
        text = write_pabulib(marked, profile)
        lines = text.splitlines()
        assert lines[lines.index("PROJECTS") + 1].split(";") == [
            "project_id", "cost", "note", "selected"
        ]
        again, again_profile = parse_pabulib(text)
        assert again == marked
        assert {p.id: p.extra for p in again.projects} == {
            "a": {"note": "a", "selected": "1"},
            "b": {"note": "b", "selected": "0"},
        }
        assert write_pabulib(again, again_profile) == text

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
            ({"approved": "z"}, "voter '1' approves unknown project 'z'"),
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
                ApprovalBallot(
                    change.get("voter", "1"), frozenset({pid, "b", change.get("approved", pid)})
                ),
                ApprovalBallot("2", frozenset({"b"})),
            )
        )
        with pytest.raises(ValueError) as info:
            write_pabulib(instance, profile)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("column", ["project_id", "cost", "name", "category"])
    def test_rejects_an_extra_column_with_a_reserved_name(self, column):
        # written as an extra column, each would come back as a duplicate
        # column, a wider row or a Project field, not as the extra value
        instance, profile = parse_pabulib(read_fixture("minimal.pb"))
        projects = (dataclasses.replace(instance.projects[0], extra={column: "x"}),)
        instance = dataclasses.replace(instance, projects=projects + instance.projects[1:])
        with pytest.raises(ValueError, match=f"extra project column '{column}' is a reserved"):
            write_pabulib(instance, profile)

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


def with_projects(text: str, ids: tuple[str, ...], cost: str) -> str:
    """``text`` with projects ``ids`` of cost ``cost`` listed first and
    added to every second ballot."""
    lines = text.split("\n")
    count = next(k for k, line in enumerate(lines) if line.startswith("num_projects;"))
    lines[count] = f"num_projects;{int(lines[count].split(';')[1]) + len(ids)}"
    first_project = lines.index("PROJECTS") + 2
    lines[first_project:first_project] = [f"{pid};{cost}" for pid in ids]
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
            # a project with no cost fails its file at its row; priced,
            # the same projects come first and shift every index
            costless = with_projects(text, ("x1", "x2"), "")
            _expect_error(costless, "missing-cost", costless.split("\n").index("x1;") + 1)
            text = with_projects(text, ("x1", "x2"), "1")
            extra = (Project("x1", Fraction(1)), Project("x2", Fraction(1)))
            instance = dataclasses.replace(instance, projects=extra + instance.projects)
            profile = Profile(
                ApprovalBallot(b.voter_id, b.approved | {"x1", "x2"}) if i % 2 == 0 else b
                for i, b in enumerate(profile.ballots)
            )
        elif variant == "crlf-bom":
            text = "\ufeff" + text.replace("\n", "\r\n")
        parsed_instance, parsed = parse_pabulib(text)
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
        compile_election(instance, profile)
        smaller = Instance(projects=instance.projects[:1], budget_limit=instance.budget_limit)
        with pytest.raises(KeyError, match="ballot '1' approves unknown project 'b'"):
            compile_election(smaller, profile)


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
        binary = b"\xff\xfe\x00junk"
        (tmp_path / "binary.pb").write_bytes(binary)
        (tmp_path / "ignored.txt").write_text("not a pb file", encoding="utf-8")

        result = ingest_directory(tmp_path, IngestFilter(min_voters=3, min_projects=2))
        ids = [inst.instance_id for inst, _ in result.accepted]
        assert ids == ["2", "10", "x"]

        with pytest.raises(UnicodeDecodeError) as decoding:
            binary.decode("utf-8")
        reasons = {
            "binary.pb": f"unreadable: {decoding.value}",
            "costless.pb": "missing cost",
            "garbage.pb": "parse error: line 1: data before any section header",
            "novotes.pb": "missing votes",
            "small_projects.pb": "too few projects (1 < 2)",
            "small_votes.pb": "too few voters (2 < 3)",
        }
        assert result.skip_report_lines() == [
            json.dumps({"file": file, "reason": reason}, sort_keys=True)
            for file, reason in reasons.items()
        ]

    def test_empty_projects_section_is_a_parse_error(self, tmp_path):
        (tmp_path / "empty.pb").write_text(NO_PROJECTS, encoding="utf-8")
        result = ingest_directory(tmp_path, IngestFilter(min_voters=1, min_projects=1))
        assert result.accepted == ()
        assert result.skip_report_lines() == [
            json.dumps({"file": "empty.pb", "reason": "parse error: no projects"})
        ]

    def test_unicode_digit_file_name(self, tmp_path):
        # "²".isdigit() is True but int("²") raises; the id is the stem
        (tmp_path / "city².pb").write_text(MINIMAL, encoding="utf-8")
        (tmp_path / "city_3.pb").write_text(MINIMAL, encoding="utf-8")
        result = ingest_directory(tmp_path, IngestFilter(min_voters=1, min_projects=1))
        assert [inst.instance_id for inst, _ in result.accepted] == ["3", "city²"]

    def test_repeated_instance_id_keeps_the_first_accepted_file(self, tmp_path):
        # all three names derive the id 5; a_5.pb fails the filter, so
        # north_5.pb is the first accepted and south_5.pb is skipped
        _write_corpus_file(tmp_path / "a_5.pb", "5", 1, 2)
        (tmp_path / "north_5.pb").write_text(MINIMAL, encoding="utf-8")
        (tmp_path / "south_5.pb").write_text(MINIMAL.replace("a;60", "a;70"), encoding="utf-8")
        result = ingest_directory(tmp_path, IngestFilter(min_voters=2, min_projects=1))
        assert [inst.projects[0].cost for inst, _ in result.accepted] == [60]
        assert [(s.file, s.reason) for s in result.skipped] == [
            ("a_5.pb", "too few voters (1 < 2)"),
            ("south_5.pb", "instance id '5' already read from north_5.pb"),
        ]

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
