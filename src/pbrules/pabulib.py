"""Reading and writing the PaBuLib participatory budgeting file format.

The format is line oriented UTF-8 with ';' delimiters and three sections
in fixed order: META (key;value pairs), PROJECTS and VOTES, where the
first row after each section header names the columns.  Approval ballots
live in the ``vote`` column as comma-separated project ids; category
labels in the ``category`` column, comma-separated.

Parsing is strict and every structural error carries the offending line
number.  Unknown columns are preserved, not rejected: extra project
columns round-trip through :attr:`Project.extra`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .model import (
    Allocation,
    ApprovalBallot,
    Instance,
    Profile,
    Project,
    decimal_string,
    id_sort_key,
    parse_money,
)

_SECTIONS = ("META", "PROJECTS", "VOTES")

_REQUIRED_META = ("budget", "num_projects", "num_votes", "vote_type")


class PabulibParseError(ValueError):
    """A located parse failure; ``line`` is 1-based, ``code`` is a short
    machine-readable label used for ingest skip reports."""

    def __init__(self, message: str, line: int | None = None, code: str = "parse"):
        super().__init__(message)
        self.message = message
        self.line = line
        self.code = code

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        return f"line {self.line}: {self.message}"


@dataclass
class PabulibDocument:
    """The raw sectioned content of one file, before model validation.
    Rows are ``(line_number, fields)`` pairs, the fields in column order
    and padded with empty strings to the header's width."""

    meta: dict[str, str]
    project_columns: list[str]
    project_rows: list[tuple[int, list[str]]]
    vote_columns: list[str]
    vote_rows: list[tuple[int, list[str]]]


def _split_header(fields: Sequence[str], lineno: int) -> list[str]:
    columns = [f.strip() for f in fields]
    seen: set[str] = set()
    for name in columns:
        if not name:
            raise PabulibParseError("empty column name", lineno, "missing-header")
        if name in seen:
            raise PabulibParseError(f"duplicate column {name!r}", lineno, "missing-header")
        seen.add(name)
    return columns


def parse_document(text: str) -> PabulibDocument:
    """Tokenize ``text`` into sections, headers and rows.

    Checks structure only (section order, header shape, row widths,
    duplicate META keys); value-level validation happens in
    :func:`document_to_model`.
    """
    meta: dict[str, str] = {}
    doc = PabulibDocument(meta, [], [], [], [])
    section: str | None = None
    seen: list[str] = []
    awaiting_header = False
    columns: list[str] = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if lineno == 1:
            line = line.lstrip("﻿")
        if not line.strip():
            continue
        stripped = line.strip()

        if stripped in _SECTIONS:
            expected = _SECTIONS[len(seen)] if len(seen) < len(_SECTIONS) else None
            if stripped != expected:
                raise PabulibParseError(
                    f"unexpected section {stripped!r}"
                    + (f" (expected {expected!r})" if expected else ""),
                    lineno,
                    "unexpected-section",
                )
            seen.append(stripped)
            section = stripped
            awaiting_header = True
            continue

        if section is None:
            raise PabulibParseError("data before any section header", lineno, "no-section")

        fields = line.split(";")

        if awaiting_header:
            awaiting_header = False
            if section == "META":
                if len(fields) < 2 or fields[0].strip() != "key" or fields[1].strip() != "value":
                    raise PabulibParseError(
                        "META header must be 'key;value'", lineno, "missing-header"
                    )
            else:
                columns = _split_header(fields, lineno)
                if section == "PROJECTS":
                    doc.project_columns = columns
                    if "project_id" not in columns:
                        raise PabulibParseError(
                            "PROJECTS header lacks the project_id column",
                            lineno,
                            "missing-column",
                        )
                    if "cost" not in columns:
                        raise PabulibParseError(
                            "PROJECTS header lacks the cost column", lineno, "missing-cost"
                        )
                else:
                    doc.vote_columns = columns
                    for required in ("voter_id", "vote"):
                        if required not in columns:
                            raise PabulibParseError(
                                f"VOTES header lacks the {required} column",
                                lineno,
                                "missing-column",
                            )
            continue

        if section == "META":
            key = fields[0].strip()
            value = ";".join(fields[1:])
            if not key:
                raise PabulibParseError("empty META key", lineno, "meta")
            if key in meta:
                raise PabulibParseError(f"duplicate META key {key!r}", lineno, "duplicate-key")
            meta[key] = value
            continue

        if len(fields) > len(columns):
            raise PabulibParseError(
                f"row has {len(fields)} fields but the header has {len(columns)}",
                lineno,
                "row-width",
            )
        fields += [""] * (len(columns) - len(fields))
        if section == "PROJECTS":
            doc.project_rows.append((lineno, fields))
        else:
            doc.vote_rows.append((lineno, fields))

    if len(seen) != len(_SECTIONS):
        missing = _SECTIONS[len(seen)]
        raise PabulibParseError(f"missing section {missing}", None, "missing-section")
    return doc


def _derive_instance_id(meta: dict[str, str], source: str | None) -> str:
    explicit = meta.get("instance_id", "").strip()
    if explicit:
        return explicit
    if source:
        stem = Path(source).stem
        tail = ""
        for ch in reversed(stem):
            if ch.isdigit():
                tail = ch + tail
            elif tail:
                break
        return tail or stem
    return ""


def document_to_model(
    doc: PabulibDocument,
    source: str | None = None,
    drop_costless: bool = False,
) -> tuple[Instance, Profile]:
    """Validate a raw document into model objects.

    ``drop_costless`` silently removes projects with an empty cost cell
    (and their ballot references) instead of failing; the declared
    num_projects count is still checked against the raw row count.
    """
    meta = dict(doc.meta)
    for key in _REQUIRED_META:
        if key not in meta:
            raise PabulibParseError(f"missing META key {key!r}", None, "missing-meta")
    vote_type = meta["vote_type"].strip()
    if vote_type != "approval":
        raise PabulibParseError(
            f"unsupported vote_type {vote_type!r} (only approval ballots)",
            None,
            "unsupported-vote-type",
        )
    try:
        budget = parse_money(meta["budget"])
    except ValueError as exc:
        raise PabulibParseError(f"bad budget: {exc}", None, "bad-money") from None

    for key, rows in (("num_projects", doc.project_rows), ("num_votes", doc.vote_rows)):
        declared = meta[key].strip()
        if not declared.isdigit():
            raise PabulibParseError(f"META {key} is not a count: {declared!r}", None, "bad-count")
        if int(declared) != len(rows):
            raise PabulibParseError(
                f"META declares {key}={declared} but the file has {len(rows)} rows",
                None,
                "count-mismatch",
            )

    projects: list[Project] = []
    known: set[str] = set()
    dropped: set[str] = set()
    for lineno, fields in doc.project_rows:
        row = dict(zip(doc.project_columns, fields))
        pid = row["project_id"].strip()
        if not pid:
            raise PabulibParseError("empty project_id", lineno, "bad-project")
        if pid in known or pid in dropped:
            raise PabulibParseError(f"duplicate project id {pid!r}", lineno, "duplicate-project")
        cost_text = row["cost"].strip()
        if not cost_text:
            if drop_costless:
                dropped.add(pid)
                continue
            raise PabulibParseError(f"project {pid!r} has no cost", lineno, "missing-cost")
        try:
            cost = parse_money(cost_text)
        except ValueError as exc:
            raise PabulibParseError(f"project {pid!r}: {exc}", lineno, "bad-money") from None
        name = row.get("name", "").strip() or None
        categories = frozenset(
            part.strip() for part in row.get("category", "").split(",") if part.strip()
        )
        extra = {
            col: row[col]
            for col in doc.project_columns
            if col not in ("project_id", "cost", "name", "category")
        }
        try:
            projects.append(
                Project(id=pid, cost=cost, name=name, categories=categories, extra=extra)
            )
        except ValueError as exc:
            raise PabulibParseError(str(exc), lineno, "bad-money") from None
        known.add(pid)

    if not projects:
        raise PabulibParseError("no projects with costs", None, "no-projects")
    if not doc.vote_rows:
        raise PabulibParseError("file has no votes", None, "missing-votes")

    ballots: list[ApprovalBallot] = []
    voters: set[str] = set()
    voter_column = doc.vote_columns.index("voter_id")
    vote_column = doc.vote_columns.index("vote")
    for lineno, fields in doc.vote_rows:
        vid = fields[voter_column].strip()
        if not vid:
            raise PabulibParseError("empty voter_id", lineno, "bad-voter")
        if vid in voters:
            raise PabulibParseError(f"duplicate voter id {vid!r}", lineno, "duplicate-voter")
        voters.add(vid)
        approved: set[str] = set()
        for token in fields[vote_column].split(","):
            pid = token.strip()
            if not pid:
                continue
            if pid in dropped:
                continue
            if pid not in known:
                raise PabulibParseError(
                    f"ballot {vid!r} references unknown project {pid!r}",
                    lineno,
                    "unknown-project",
                )
            approved.add(pid)
        ballots.append(ApprovalBallot(vid, frozenset(approved)))

    instance_id = _derive_instance_id(meta, source)
    if instance_id:
        meta["instance_id"] = instance_id
    else:
        meta.pop("instance_id", None)
    try:
        instance = Instance(projects=tuple(projects), budget_limit=budget, meta=meta)
    except ValueError as exc:
        raise PabulibParseError(str(exc), None, "bad-money") from None
    return instance, Profile(tuple(ballots))


def parse_pabulib(
    text: str, source: str | None = None, drop_costless: bool = False
) -> tuple[Instance, Profile]:
    """Parse one PaBuLib file into an (Instance, Profile) pair.

    ``source`` is the file name, used only to derive an instance id when
    the META section does not carry one.
    """
    return document_to_model(parse_document(text), source=source, drop_costless=drop_costless)


def _field(text: str, what: str, comma: bool = True, padded: bool = False) -> str:
    """``text`` unchanged, or ValueError naming ``what`` when the parser
    would not read it back as written."""
    if ";" in text or "\n" in text or "\r" in text:
        raise ValueError(f"{what} {text!r} contains ';' or a line break")
    if not comma and "," in text:
        raise ValueError(f"{what} {text!r} contains ','")
    if not padded and text != text.strip():
        raise ValueError(f"{what} {text!r} has leading or trailing whitespace")
    return text


def write_pabulib(
    instance: Instance,
    profile: Profile,
    allocation: Allocation | None = None,
) -> str:
    """Serialize back to PaBuLib text.

    The META counts and budget are regenerated from the objects; when
    ``allocation`` is given a trailing ``selected`` column marks winners
    with 1 and losers with 0.  Output parses back to equal objects, so
    this is the round-trip inverse of :func:`parse_pabulib`.

    Values the parser would not read back raise ValueError naming the
    project, voter or META key:

    - a cost or budget with no finite decimal form;
    - any value containing ';' or a line break;
    - a project id or category label containing ',';
    - a project, voter or instance id, project name, category label,
      META key or column name with leading or trailing whitespace.
    """
    budget_text = decimal_string(instance.budget_limit)
    if budget_text is None:
        raise ValueError("budget limit has no finite decimal form")
    meta = dict(instance.meta)
    meta["budget"] = budget_text
    meta["num_projects"] = str(len(instance.projects))
    meta["num_votes"] = str(profile.voter_count)
    meta["vote_type"] = "approval"

    lines = ["META", "key;value"]
    for key, value in meta.items():
        value = _field(value, f"META {key!r} value", padded=key != "instance_id")
        lines.append(f"{_field(key, 'META key')};{value}")

    extra_columns: list[str] = []
    for project in instance.projects:
        for col in project.extra:
            if col not in extra_columns:
                extra_columns.append(col)
    extra_columns.sort()
    if allocation is not None and "selected" in extra_columns:
        extra_columns.remove("selected")

    columns = ["project_id", "cost"]
    if any(p.name for p in instance.projects):
        columns.append("name")
    if any(p.categories for p in instance.projects):
        columns.append("category")
    columns.extend(_field(col, "project column") for col in extra_columns)
    if allocation is not None:
        columns.append("selected")

    lines.append("PROJECTS")
    lines.append(";".join(columns))
    for project in instance.projects:
        cost_text = decimal_string(project.cost)
        if cost_text is None:
            raise ValueError(f"project {project.id!r}: cost has no finite decimal form")
        what = f"project {project.id!r}"
        row = [_field(project.id, "project id", comma=False), cost_text]
        if "name" in columns:
            row.append(_field(project.name or "", f"{what} name"))
        if "category" in columns:
            labels = sorted(project.categories)
            row.append(",".join(_field(label, f"{what} category", comma=False) for label in labels))
        for col in extra_columns:
            row.append(_field(project.extra.get(col, ""), f"{what} {col!r} value", padded=True))
        if allocation is not None:
            row.append("1" if project.id in allocation.selected else "0")
        lines.append(";".join(row))

    lines.append("VOTES")
    lines.append("voter_id;vote")
    for ballot in profile.ballots:
        vote = ",".join(sorted(ballot.approved, key=id_sort_key))
        lines.append(f"{_field(ballot.voter_id, 'voter id')};{vote}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IngestFilter:
    """Corpus admission rules; the defaults reproduce the study filter
    (at least 100 voters and 10 priced projects, complete data)."""

    min_voters: int = 100
    min_projects: int = 10
    require_costs: bool = True


@dataclass(frozen=True)
class SkippedFile:
    file: str
    reason: str


@dataclass(frozen=True)
class IngestResult:
    accepted: tuple[tuple[Instance, Profile], ...]
    skipped: tuple[SkippedFile, ...]

    def skip_report_lines(self) -> list[str]:
        """One JSON object per skipped file: {"file": ..., "reason": ...}."""
        return [
            json.dumps({"file": s.file, "reason": s.reason}, sort_keys=True)
            for s in self.skipped
        ]


def _skip_reason(exc: PabulibParseError) -> str:
    if exc.code in ("missing-cost", "no-projects"):
        return "missing cost"
    if exc.code == "missing-votes":
        return "missing votes"
    return f"parse error: {exc}"


def ingest_directory(path: str | Path, ingest_filter: IngestFilter = IngestFilter()) -> IngestResult:
    """Load every ``*.pb`` file under ``path`` (non-recursive).

    Files that fail to parse or fail the filter are recorded with a
    reason instead of aborting the run; a file with no vote rows can never
    produce a Profile, so it is always skipped.  Accepted instances are
    sorted by instance id (numeric ids first, numerically) so downstream
    reports are deterministic.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    accepted: list[tuple[Instance, Profile]] = []
    skipped: list[SkippedFile] = []
    for file in sorted(root.glob("*.pb")):
        try:
            text = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            skipped.append(SkippedFile(file.name, f"unreadable: {exc}"))
            continue
        try:
            instance, profile = parse_pabulib(
                text, source=file.name, drop_costless=not ingest_filter.require_costs
            )
        except PabulibParseError as exc:
            skipped.append(SkippedFile(file.name, _skip_reason(exc)))
            continue
        n, m = profile.voter_count, len(instance.projects)
        if n < ingest_filter.min_voters:
            skipped.append(SkippedFile(file.name, f"too few voters ({n} < {ingest_filter.min_voters})"))
            continue
        if m < ingest_filter.min_projects:
            skipped.append(SkippedFile(file.name, f"too few projects ({m} < {ingest_filter.min_projects})"))
            continue
        accepted.append((instance, profile))
    accepted.sort(key=lambda pair: id_sort_key(pair[0].instance_id))
    return IngestResult(tuple(accepted), tuple(skipped))
