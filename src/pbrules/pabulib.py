"""Reading and writing the PaBuLib participatory budgeting file format.

The format is line oriented UTF-8 with ';' delimiters and three sections
in fixed order: META (key;value pairs), PROJECTS and VOTES, where the
first row after each section header names the columns.  Approval ballots
live in the ``vote`` column as comma-separated project ids; category
labels in the ``category`` column, comma-separated.

Parsing is strict and reads the file in one pass: each line is checked
as it is read, the first error in file order is raised, and an error
found in a line carries its number.  Unknown columns are preserved, not
rejected: extra project columns round-trip through :attr:`Project.extra`;
extra vote columns are ignored.

Vote rows, most of a file, have a loop of their own: a row of the
header's width goes straight to its voter id and tokens, and its tokens
are stripped only when they do not already all name projects.  Any other
line (blank, a section name, too wide or too short) is checked as a line
of the earlier sections is.

Each vote row is kept as its voter id and its project indices in the
instance's project order, the form :func:`pbrules.model.compile_election`
adopts; the profile builds ``ApprovalBallot`` objects only when asked
for them.  Files are read by :func:`read_pabulib`.
"""

from __future__ import annotations

__all__ = [
    "IngestFilter", "IngestResult", "PabulibParseError", "SkippedFile",
    "ingest_directory", "parse_pabulib", "read_pabulib", "write_pabulib",
]

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .model import (
    Instance,
    Profile,
    Project,
    decimal_string,
    id_sort_key,
    parse_money,
)

_SECTIONS = ("META", "PROJECTS", "VOTES")

_REQUIRED_META = ("budget", "num_projects", "num_votes", "vote_type")

# the columns a section header must name, each with the code of its absence
_REQUIRED_COLUMNS = {
    "PROJECTS": (("project_id", "missing-column"), ("cost", "missing-cost")),
    "VOTES": (("voter_id", "missing-column"), ("vote", "missing-column")),
}

# project columns read into Project fields; the rest go to Project.extra
_PROJECT_COLUMNS = ("project_id", "cost", "name", "category")


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


def _header(fields: list[str], section: str, lineno: int) -> list[str]:
    """The column names of a PROJECTS or VOTES header line."""
    columns = [f.strip() for f in fields]
    for k, name in enumerate(columns):
        if not name:
            raise PabulibParseError("empty column name", lineno, "missing-header")
        if name in columns[:k]:
            raise PabulibParseError(f"duplicate column {name!r}", lineno, "missing-header")
    for name, code in _REQUIRED_COLUMNS[section]:
        if name not in columns:
            raise PabulibParseError(f"{section} header lacks the {name} column", lineno, code)
    return columns


def _pad(fields: list[str], width: int, lineno: int) -> None:
    """Pad the cells of a data row with empty ones up to the header's
    ``width``; a row wider than the header is an error."""
    if len(fields) > width:
        raise PabulibParseError(
            f"row has {len(fields)} fields but the header has {width}", lineno, "row-width"
        )
    fields += [""] * (width - len(fields))


def _check_meta(meta: dict[str, str]) -> Fraction:
    """The budget, once the META keys and values are known to be usable."""
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
    for key in ("num_projects", "num_votes"):
        declared = meta[key].strip()
        if not declared.isdecimal():
            raise PabulibParseError(f"META {key} is not a count: {declared!r}", None, "bad-count")
    return budget


def _check_count(meta: dict[str, str], key: str, rows: int) -> None:
    declared = meta[key].strip()
    if int(declared) != rows:
        raise PabulibParseError(
            f"META declares {key}={declared} but the file has {rows} rows",
            None,
            "count-mismatch",
        )


def _derive_instance_id(meta: dict[str, str], source: str | None) -> str:
    explicit = meta.get("instance_id", "").strip()
    if explicit:
        return explicit
    if source:
        stem = Path(source).stem
        tail = ""
        for ch in reversed(stem):
            if ch.isdecimal():
                tail = ch + tail
            elif tail:
                break
        return tail or stem
    return ""


def parse_pabulib(text: str, source: str | None = None) -> tuple[Instance, Profile]:
    """Parse one PaBuLib file into an (Instance, Profile) pair.

    ``source`` is the file name, used only to derive an instance id when
    the META section does not carry one.  A project with an empty cost
    cell fails the file with code ``missing-cost``.

    The file is read in one pass and the first error in file order is
    raised.  Each line is checked as it is read; the META values are
    checked when the PROJECTS line is reached, num_projects and the
    presence of a project when the VOTES line is reached,
    and num_votes, the sections and the presence of a vote at the end.

    One loop reads META and PROJECTS up to the VOTES header line and a
    second reads the vote rows from the same line iterator.  A vote row
    with as many ';' fields as the header is split once and its voter id
    and vote cell are read directly; the set of its raw tokens is kept
    when every token is a project id, since project ids are stripped and
    non-empty, and otherwise the tokens are stripped and blank ones
    dropped.  Other lines keep the checks, codes and order of the first
    loop: blank lines are skipped, a section name is an unexpected
    section, a wider row is a row-width error and a shorter one is
    padded with empty cells.
    """
    meta: dict[str, str] = {}
    upcoming = list(_SECTIONS)
    section: str | None = None
    awaiting_header = False
    projects: list[Project] = []
    known: set[str] = set()
    voter_ids: list[str] = []
    rows: list[list[int]] = []
    voters: set[str] = set()
    lines = enumerate(text.lstrip("\ufeff").split("\n"), start=1)

    # META and PROJECTS, up to and including the VOTES header line
    for lineno, raw in lines:
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped:
            continue

        if stripped in _SECTIONS:
            expected = upcoming[0] if upcoming else None
            if stripped != expected:
                raise PabulibParseError(
                    f"unexpected section {stripped!r}"
                    + (f" (expected {expected!r})" if expected else ""),
                    lineno,
                    "unexpected-section",
                )
            if stripped == "PROJECTS":
                budget = _check_meta(meta)
            elif stripped == "VOTES":
                _check_count(meta, "num_projects", len(projects))
                if not projects:
                    raise PabulibParseError("no projects", None, "no-projects")
                ids = tuple(project.id for project in projects)
                index_of = {pid: j for j, pid in enumerate(ids)}.__getitem__
            section = upcoming.pop(0)
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
            elif section == "PROJECTS":
                columns = _header(fields, section, lineno)
                extra_columns = [col for col in columns if col not in _PROJECT_COLUMNS]
            else:
                columns = _header(fields, section, lineno)
                voter_column, vote_column = columns.index("voter_id"), columns.index("vote")
                width = len(columns)
                break
            continue

        if section == "META":
            key = fields[0].strip()
            if not key:
                raise PabulibParseError("empty META key", lineno, "meta")
            if key in meta:
                raise PabulibParseError(f"duplicate META key {key!r}", lineno, "duplicate-key")
            meta[key] = line.partition(";")[2]
            continue

        _pad(fields, len(columns), lineno)
        row = dict(zip(columns, fields))
        pid = row["project_id"].strip()
        if not pid:
            raise PabulibParseError("empty project_id", lineno, "bad-project")
        if pid in known:
            raise PabulibParseError(f"duplicate project id {pid!r}", lineno, "duplicate-project")
        cost_text = row["cost"].strip()
        if not cost_text:
            raise PabulibParseError(f"project {pid!r} has no cost", lineno, "missing-cost")
        try:
            cost = parse_money(cost_text)
        except ValueError as exc:
            raise PabulibParseError(f"project {pid!r}: {exc}", lineno, "bad-money") from None
        name = row.get("name", "").strip() or None
        categories = frozenset(map(str.strip, row.get("category", "").split(","))) - {""}
        extra = {col: row[col] for col in extra_columns}
        try:
            projects.append(
                Project(id=pid, cost=cost, name=name, categories=categories, extra=extra)
            )
        except ValueError as exc:
            raise PabulibParseError(str(exc), lineno, "bad-money") from None
        known.add(pid)

    # the vote rows: one of the header's width is read as it stands, its
    # "\r" included, since only the stripped voter id and tokens are kept;
    # any other line is checked as above: blank, section name, too wide
    for lineno, raw in lines:
        fields = raw.split(";")
        if len(fields) != width:
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped in _SECTIONS:
                raise PabulibParseError(
                    f"unexpected section {stripped!r}", lineno, "unexpected-section"
                )
            _pad(fields, width, lineno)

        vid = fields[voter_column].strip()
        if not vid:
            raise PabulibParseError("empty voter_id", lineno, "bad-voter")
        if vid in voters:
            raise PabulibParseError(f"duplicate voter id {vid!r}", lineno, "duplicate-voter")
        voters.add(vid)
        tokens = fields[vote_column].split(",")
        # every id in known is stripped and non-empty, so a set of the raw
        # tokens inside known is the set of the stripped tokens less ""
        approved = set(tokens)
        if not approved <= known:
            approved = set(map(str.strip, tokens))
            approved.discard("")  # blank tokens name no project
            if not approved <= known:
                unknown = approved - known
                pid = next(token for token in map(str.strip, tokens) if token in unknown)
                raise PabulibParseError(
                    f"ballot {vid!r} references unknown project {pid!r}", lineno, "unknown-project"
                )
        voter_ids.append(vid)
        rows.append(list(map(index_of, approved)))

    if upcoming:
        raise PabulibParseError(f"missing section {upcoming[0]}", None, "missing-section")
    _check_count(meta, "num_votes", len(rows))
    if not rows:
        raise PabulibParseError("file has no votes", None, "missing-votes")

    instance_id = _derive_instance_id(meta, source)
    if instance_id:
        meta["instance_id"] = instance_id
    else:
        meta.pop("instance_id", None)
    try:
        instance = Instance(projects=tuple(projects), budget_limit=budget, meta=meta)
    except ValueError as exc:
        raise PabulibParseError(str(exc), None, "bad-money") from None
    return instance, Profile._indexed(tuple(voter_ids), ids, tuple(rows))


def read_pabulib(path: str | Path) -> tuple[Instance, Profile]:
    """Parse the UTF-8 file at ``path``; failing to read or decode it is ``unreadable``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PabulibParseError(str(exc), None, "unreadable") from None
    return parse_pabulib(text, source=path.name)


def _field(text: str, what: str, comma: bool = True, padded: bool = False) -> str:
    """``text`` unchanged, or ValueError naming ``what`` when the parser
    would not read it back as written."""
    if ";" in text or "\n" in text or "\r" in text:
        raise ValueError(f"{what} {text!r} contains ';' or a line break")
    if not comma and "," in text:
        raise ValueError(f"{what} {text!r} contains ','")
    if not padded and not text:
        raise ValueError(f"{what} is empty")
    if not padded and text != text.strip():
        raise ValueError(f"{what} {text!r} has leading or trailing whitespace")
    return text


def write_pabulib(instance: Instance, profile: Profile) -> str:
    """Serialize back to PaBuLib text.

    The META counts and budget are regenerated from the objects.  Output
    parses back to equal objects, so this is the round-trip inverse of
    :func:`parse_pabulib`.  A ``selected`` column, like any other extra
    column, is written from :attr:`Project.extra`; to mark winners, set
    it on each project first, e.g. with ``dataclasses.replace``.

    Values the parser would not read back raise ValueError naming the
    project, voter or META key:

    - a cost or budget with no finite decimal form;
    - any value containing ';' or a line break;
    - a project id or category label containing ',';
    - a vote for a project the instance lacks;
    - an extra project column named project_id, cost, name or category;
    - an empty or padded project, voter or instance id, project name,
      category label, META key or column name (one with leading or
      trailing whitespace).
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

    extra_columns = sorted({col for project in instance.projects for col in project.extra})
    for col in extra_columns:
        if col in _PROJECT_COLUMNS:
            raise ValueError(f"extra project column {col!r} is a reserved column")

    columns = ["project_id", "cost"]
    if any(p.name is not None for p in instance.projects):
        columns.append("name")
    if any(p.categories for p in instance.projects):
        columns.append("category")
    columns.extend(_field(col, "project column") for col in extra_columns)

    lines.append("PROJECTS")
    lines.append(";".join(columns))
    for project in instance.projects:
        cost_text = decimal_string(project.cost)
        if cost_text is None:
            raise ValueError(f"project {project.id!r}: cost has no finite decimal form")
        what = f"project {project.id!r}"
        row = [_field(project.id, "project id", comma=False), cost_text]
        if "name" in columns:
            row.append("" if project.name is None else _field(project.name, f"{what} name"))
        if "category" in columns:
            labels = sorted(project.categories)
            row.append(",".join(_field(label, f"{what} category", comma=False) for label in labels))
        for col in extra_columns:
            row.append(_field(project.extra.get(col, ""), f"{what} {col!r} value", padded=True))
        lines.append(";".join(row))

    lines.append("VOTES")
    lines.append("voter_id;vote")
    ids = instance.project_ids
    for ballot in profile.ballots:
        if not ballot.approved <= ids:
            unknown = min(ballot.approved - ids, key=id_sort_key)
            raise ValueError(f"voter {ballot.voter_id!r} approves unknown project {unknown!r}")
        vote = ",".join(sorted(ballot.approved, key=id_sort_key))
        lines.append(f"{_field(ballot.voter_id, 'voter id')};{vote}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IngestFilter:
    """Corpus admission rules; the defaults reproduce the study filter
    (at least 100 voters and 10 projects).  Every project has a cost:
    a file with a costless project is skipped whatever the filter."""

    min_voters: int = 100
    min_projects: int = 10


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
    if exc.code == "unreadable":
        return f"unreadable: {exc}"
    if exc.code == "missing-cost":
        return "missing cost"
    if exc.code == "missing-votes":
        return "missing votes"
    return f"parse error: {exc}"


def ingest_directory(path: str | Path, ingest_filter: IngestFilter = IngestFilter()) -> IngestResult:
    """Load every ``*.pb`` file under ``path`` (non-recursive).

    Files that fail to parse or the filter, or repeat the instance id of
    a file accepted before them in name order, are skipped with a
    reason; the run goes on.  Accepted instances are sorted by instance
    id (numeric ids first, numerically) so reports are deterministic.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    accepted: list[tuple[Instance, Profile]] = []
    skipped: list[SkippedFile] = []
    first: dict[str, str] = {}  # instance id -> the file it was accepted from
    for file in sorted(root.glob("*.pb")):
        try:
            instance, profile = read_pabulib(file)
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
        iid = instance.instance_id
        if iid in first:
            skipped.append(SkippedFile(file.name, f"instance id {iid!r} already read from {first[iid]}"))
            continue
        first[iid] = file.name
        accepted.append((instance, profile))
    accepted.sort(key=lambda pair: id_sort_key(pair[0].instance_id))
    return IngestResult(tuple(accepted), tuple(skipped))
