"""Core data model for participatory budgeting instances.

Money is represented throughout as exact non-negative rationals
(:class:`fractions.Fraction`); nothing in this package converts money to
floats implicitly.  Use :func:`money` or :func:`parse_money` at boundaries
so validation happens in one place.

All model objects are immutable after construction and safe to share
across threads or processes; a :class:`Profile` read from a file builds
its ballot objects only when they are asked for.  Every layer reads
:func:`compile_election`, which adopts such a profile's index rows and
keeps the election it builds on the profile, so that the rules and
metrics of one instance share one compile.
"""

from __future__ import annotations

__all__ = [
    "Allocation", "ApprovalBallot", "CompiledElection", "Instance", "Money", "Profile", "Project",
    "build_district_example", "compile_election", "format_money", "is_complete", "money",
    "parse_money", "total_cost",
]

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

Money = Fraction

_DECIMAL_RE = re.compile(r"(\d+)(?:\.(\d+))?")


def money(value: int | str | Fraction) -> Money:
    """Coerce ``value`` to a non-negative exact rational.

    Accepts ints, Fractions and decimal strings ("250000", "12.50").
    Raises ValueError for negatives, floats and anything unparseable;
    floats are rejected deliberately so inexact values cannot leak in.
    """
    if isinstance(value, bool):
        raise ValueError("money amount must be an int, str or Fraction, not bool")
    if isinstance(value, Fraction):
        result = value
    elif isinstance(value, int):
        result = Fraction(value)
    elif isinstance(value, str):
        return parse_money(value)
    else:
        raise ValueError(
            f"money amount must be an int, str or Fraction, not {type(value).__name__}"
        )
    if result < 0:
        raise ValueError(f"money amount must be non-negative, got {result}")
    return result


def parse_money(text: str) -> Money:
    """Parse a plain decimal money string.

    Only unsigned decimals are accepted: digits with at most one decimal
    point.  Thousands separators, signs, exponents and currency symbols are
    rejected, as are empty strings.
    """
    match = _DECIMAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a decimal money amount: {text!r}")
    whole, frac = match.group(1), match.group(2) or ""
    return Fraction(int(whole + frac), 10 ** len(frac))


def decimal_places(den: int) -> int | None:
    """The number of decimal places of a value with reduced denominator
    ``den``, or None when it has no finite decimal form."""
    twos = (den & -den).bit_length() - 1
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def decimal_string(value: Money) -> str | None:
    """Render ``value`` as an exact finite decimal, or None if impossible."""
    digits = decimal_places(value.denominator)
    if digits is None:
        return None
    if digits == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**digits // value.denominator
    # the last digit is never 0: the numerator is coprime to the 2s or 5s left
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def format_money(value: Money) -> str:
    """Exact human-readable rendering: finite decimal when one exists,
    otherwise the plain fraction ``num/den``."""
    return decimal_string(value) or f"{value.numerator}/{value.denominator}"


def id_sort_key(identifier: str) -> tuple[int, int, str]:
    """Sort key for project, voter and instance ids: ids of decimal digits first,
    numerically, then as text (``01`` before ``1``); then the rest lexicographically."""
    return (0, int(identifier), identifier) if identifier.isdecimal() else (1, 0, identifier)


@dataclass(frozen=True)
class Project:
    """A candidate project: unique id, strictly positive cost, optional
    display name, category labels and passthrough metadata."""

    id: str
    cost: Money
    name: str | None = None
    categories: frozenset[str] = frozenset()
    extra: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("project id must be non-empty")
        cost = money(self.cost)
        if cost <= 0:
            raise ValueError(f"project {self.id!r}: cost must be positive, got {cost}")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "categories", frozenset(self.categories))
        object.__setattr__(self, "extra", dict(self.extra))


@dataclass(frozen=True)
class Instance:
    """A budgeting instance: the project list and the budget limit.

    Projects keep their given order (parsers preserve file order) but ids
    must be unique; ``meta`` carries source metadata such as the instance
    id and unit name.
    """

    projects: tuple[Project, ...]
    budget_limit: Money
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "projects", tuple(self.projects))
        if not self.projects:
            raise ValueError("an instance needs at least one project")
        limit = money(self.budget_limit)
        if limit <= 0:
            raise ValueError(f"budget limit must be positive, got {limit}")
        object.__setattr__(self, "budget_limit", limit)
        object.__setattr__(self, "meta", dict(self.meta))
        by_id = {}
        for project in self.projects:
            if project.id in by_id:
                raise ValueError(f"duplicate project id {project.id!r}")
            by_id[project.id] = project
        object.__setattr__(self, "_by_id", by_id)

    @property
    def instance_id(self) -> str:
        return self.meta.get("instance_id", "")

    @property
    def project_ids(self) -> frozenset[str]:
        return frozenset(self._by_id)

    def project(self, project_id: str) -> Project:
        try:
            return self._by_id[project_id]
        except KeyError:
            raise KeyError(f"unknown project id {project_id!r}") from None

    def cost_of(self, project_id: str) -> Money:
        return self.project(project_id).cost

    @property
    def category_labels(self) -> tuple[str, ...]:
        """All category labels used by any project, sorted."""
        labels: set[str] = set()
        for project in self.projects:
            labels.update(project.categories)
        return tuple(sorted(labels))


@dataclass(frozen=True)
class ApprovalBallot:
    """One voter's approval set, as project ids."""

    voter_id: str
    approved: frozenset[str]

    def __post_init__(self) -> None:
        if not self.voter_id:
            raise ValueError("voter id must be non-empty")
        object.__setattr__(self, "approved", frozenset(self.approved))


class Profile:
    """The full ballot profile.  Voter ids must be unique and there must
    be at least one ballot; individual approval sets may be empty.

    A profile holds its voter ids and either its ballots or, as the
    PaBuLib reader builds it, each voter's approved project indices into
    a project-id order, the form :func:`compile_election` adopts.  It
    derives the other form once, on first use, and keeps the election
    :func:`compile_election` last built for it.  Equality, hashing and
    repr go by the ballots; a pickle carries the indexed form when there
    is one, and never the election.
    """

    __slots__ = ("_ballots", "_voter_ids", "_ids", "_rows", "_compiled")

    def __init__(self, ballots: Iterable[ApprovalBallot]) -> None:
        ballots = tuple(ballots)
        if not ballots:
            raise ValueError("a profile needs at least one ballot")
        voter_ids = tuple(ballot.voter_id for ballot in ballots)
        if len(set(voter_ids)) < len(voter_ids):
            seen: set[str] = set()
            for voter_id in voter_ids:
                if voter_id in seen:
                    raise ValueError(f"duplicate voter id {voter_id!r}")
                seen.add(voter_id)
        self._hold(ballots, voter_ids, None, None)

    @classmethod
    def _indexed(
        cls, voter_ids: tuple[str, ...], ids: tuple[str, ...], rows: tuple[list[int], ...]
    ) -> Profile:
        """The profile whose voter ``voter_ids[i]`` approves the projects
        ``ids[j]`` for ``j`` in ``rows[i]``.  The caller has checked that
        there is at least one voter and that the voter ids are unique and
        non-empty."""
        profile = cls.__new__(cls)
        profile._hold(None, voter_ids, ids, rows)
        return profile

    def _hold(self, ballots, voter_ids, ids, rows) -> None:
        for name, value in zip(self.__slots__, (ballots, voter_ids, ids, rows, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        if self._rows is None:
            return Profile, (self._ballots,)
        return Profile._indexed, (self._voter_ids, self._ids, self._rows)

    @property
    def ballots(self) -> tuple[ApprovalBallot, ...]:
        """Each voter's ballot, in ballot order."""
        if self._ballots is None:
            project = self._ids.__getitem__
            ballots = tuple(
                ApprovalBallot(vid, frozenset(map(project, row)))
                for vid, row in zip(self._voter_ids, self._rows)
            )
            object.__setattr__(self, "_ballots", ballots)
        return self._ballots

    @property
    def voter_ids(self) -> tuple[str, ...]:
        """Each ballot's voter id, in ballot order."""
        return self._voter_ids

    @property
    def voter_count(self) -> int:
        return len(self._voter_ids)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ballots == other.ballots

    def __hash__(self) -> int:
        return hash(self.ballots)

    def __repr__(self) -> str:
        return f"Profile(ballots={self.ballots!r})"


@dataclass(frozen=True)
class Allocation:
    """A feasible set of funded projects with its precomputed total cost."""

    selected: frozenset[str]
    total_cost: Money

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", frozenset(self.selected))
        object.__setattr__(self, "total_cost", money(self.total_cost))

    @classmethod
    def of(cls, selected: Iterable[str], instance: Instance) -> "Allocation":
        """Build from project ids, checking feasibility against the limit."""
        chosen = frozenset(selected)
        cost = total_cost(chosen, instance)
        if cost > instance.budget_limit:
            raise ValueError(
                f"allocation cost {format_money(cost)} exceeds budget limit "
                f"{format_money(instance.budget_limit)}"
            )
        return cls(chosen, cost)

    def __contains__(self, project_id: str) -> bool:
        return project_id in self.selected

    def __len__(self) -> int:
        return len(self.selected)


def total_cost(project_ids: Iterable[str], instance: Instance) -> Money:
    """Sum of the costs of ``project_ids``; KeyError on unknown ids."""
    return sum((instance.cost_of(pid) for pid in project_ids), Fraction(0))


def is_complete(allocation: Allocation, instance: Instance) -> bool:
    """True iff no unfunded project still fits in the leftover budget."""
    leftover = instance.budget_limit - allocation.total_cost
    return all(
        project.cost > leftover
        for project in instance.projects
        if project.id not in allocation.selected
    )


@dataclass(frozen=True, eq=False)
class CompiledElection:
    """An instance and its profile in integers, shared by every layer.

    Project ``j`` is ``ids[j]`` (instance order) and costs
    ``costs[j] / cost_den``, ``cost_den`` being the lcm of the cost
    denominators.  ``ballots[i]`` lists voter ``i``'s approved project
    indices, ``approvers[j]`` lists project ``j``'s approvers in
    ascending voter order, and ``members[label]`` lists the projects of
    each category label of the instance, in ``labels`` order.
    ``tie_rank[j]`` is project ``j``'s place in the one tie order every
    rule uses: the cheaper project first, then the smaller id compared as
    a plain string (``"10"`` before ``"9"``); 0 wins a tie.  It holds
    no budget limit, so instances that differ only in their limit share
    it, and nothing reading it may mutate it.  Build it with
    :func:`compile_election`, which builds it once per profile and
    project tuple.
    """

    ids: tuple[str, ...]
    cost_den: int
    costs: tuple[int, ...]
    ballots: tuple[list[int], ...]
    approvers: tuple[list[int], ...]
    tie_rank: tuple[int, ...]
    labels: tuple[str, ...]
    members: dict[str, tuple[int, ...]]

    def funded(self, allocation: Allocation) -> list[int]:
        """Per project, its int cost when ``allocation`` funds it, else 0."""
        chosen = allocation.selected
        return [cost if pid in chosen else 0 for pid, cost in zip(self.ids, self.costs)]

    def per_voter(self, weights: Sequence[int]) -> list[int]:
        """Per voter, the sum of the project ``weights`` over their
        ballot; ballot order."""
        weight = weights.__getitem__
        return [sum(map(weight, ballot)) for ballot in self.ballots]

    def effort_weights(self, funded: Sequence[int]) -> tuple[list[int], int]:
        """Each funded project's cost split equally over its approvers, as
        ints over ``cost_den * scale``, and that ``scale``: the lcm of the
        funded projects' approver counts.  Projects nobody approves, and
        unfunded ones, weigh 0."""
        scale = math.lcm(*(len(a) for cost, a in zip(funded, self.approvers) if cost and a))
        weights = [
            cost * (scale // len(a)) if cost and a else 0
            for cost, a in zip(funded, self.approvers)
        ]
        return weights, scale

    @cached_property
    def demand(self) -> tuple[dict[str, Fraction], int]:
        """Every label's demand share
        (:func:`pbrules.metrics.voter_category_share`) and the number of
        ballots with zero total cost, computed on first use.

        Each ballot's cost is summed once in ints; the per-label sums are
        grouped by ballot cost, and each share becomes a Fraction only at
        the end.
        """
        costs = self.costs
        in_labels: list[list[int]] = [[] for _ in costs]
        for i, label in enumerate(self.labels):
            for j in self.members[label]:
                in_labels[j].append(i)
        # ballot cost -> per-label summed cost inside the label
        by_cost: dict[int, list[int]] = {}
        excluded = 0
        for ballot in self.ballots:
            ballot_cost = sum(map(costs.__getitem__, ballot))
            if ballot_cost == 0:
                excluded += 1
                continue
            sums = by_cost.setdefault(ballot_cost, [0] * len(self.labels))
            for j in ballot:
                for i in in_labels[j]:
                    sums[i] += costs[j]
        counted = len(self.ballots) - excluded
        if not counted:
            return {label: Fraction(0) for label in self.labels}, excluded
        common, numerators = _sum_fractions(list(by_cost.items()))
        shares = {
            label: Fraction(numerator, common * counted)
            for label, numerator in zip(self.labels, numerators)
        }
        return shares, excluded


def _sum_fractions(terms: list[tuple[int, list[int]]]) -> tuple[int, list[int]]:
    """Sum of the vectors ``nums / den`` over ``terms`` of ``(den, nums)``,
    as one common denominator and a vector of numerators.

    Pairs are merged in a balanced tree over the lcm of their
    denominators, so the big integers only grow near the root.
    """
    while len(terms) > 1:
        merged = []
        for (d1, n1), (d2, n2) in zip(terms[::2], terms[1::2]):
            g = math.gcd(d1, d2)
            w1, w2 = d2 // g, d1 // g
            merged.append((d1 * w1, [a * w1 + b * w2 for a, b in zip(n1, n2)]))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


def compile_election(instance: Instance, profile: Profile) -> CompiledElection:
    """The :class:`CompiledElection` of ``instance`` and ``profile``;
    KeyError naming the first ballot, in ballot order, that approves a
    project the instance lacks, and the smallest such project id.  A
    profile whose index rows index the instance's project ids, in order,
    hands over its rows as the ``ballots``; any other is mapped ballot
    by ballot.

    The election is built once per pair: the profile keeps it with the
    ``instance.projects`` tuple it was built from, and a later call whose
    instance holds that very tuple returns the same object.  The profile
    holds the tuple, so its identity cannot pass to another one.
    ``dataclasses.replace(instance, budget_limit=...)`` keeps the tuple
    (``Instance`` stores a given tuple as is) and so the election, which
    holds no budget.  A call with another project tuple, even an equal
    one, compiles again and replaces the kept election.  A pickled
    profile carries no election: a worker process compiles its own.
    """
    cached = profile._compiled
    if cached is not None and cached[0] is instance.projects:
        return cached[1]
    ids = tuple(p.id for p in instance.projects)
    cost_den = math.lcm(*(p.cost.denominator for p in instance.projects))
    if profile._ids == ids:
        ballots = profile._rows
    else:
        index = {pid: j for j, pid in enumerate(ids)}
        try:
            # exact-size lists: freed small tuples are kept for reuse, lists from maps over-allocate
            ballots = tuple(list(tuple(map(index.__getitem__, b.approved))) for b in profile.ballots)
        except KeyError:
            known = instance.project_ids
            bad = next(b for b in profile.ballots if not b.approved <= known)
            raise KeyError(
                f"ballot {bad.voter_id!r} approves unknown project {min(bad.approved - known)!r}"
            ) from None
    approvers: tuple[list[int], ...] = tuple([] for _ in ids)
    for voter, ballot in enumerate(ballots):
        for j in ballot:
            approvers[j].append(voter)
    costs = tuple(p.cost.numerator * (cost_den // p.cost.denominator) for p in instance.projects)
    order = sorted(range(len(ids)), key=lambda j: (costs[j], ids[j]))
    labels = instance.category_labels
    election = CompiledElection(
        ids=ids,
        cost_den=cost_den,
        costs=costs,
        ballots=ballots,
        approvers=approvers,
        tie_rank=tuple(sorted(range(len(ids)), key=order.__getitem__)),  # inverse of ``order``
        labels=labels,
        members={
            label: tuple(j for j, p in enumerate(instance.projects) if label in p.categories)
            for label in labels
        },
    )
    object.__setattr__(profile, "_compiled", (instance.projects, election))
    return election


DISTRICT_NAMES = ("North", "East", "South", "West")

CostModel = Callable[[random.Random, int, int], Money]


def build_district_example(
    populations: Sequence[int],
    budget: int | str | Fraction,
    projects_per_district: int = 4,
    cost_model: CostModel | None = None,
    seed: int = 0,
) -> tuple[Instance, Profile]:
    """Synthesize the four-district example: every voter approves exactly
    the projects of their own district.

    ``populations`` gives the four district sizes (North, East, South,
    West).  ``cost_model(rng, district_index, project_index)`` prices each
    project; the default prices everything at a third of the budget, which
    lets the plurality district absorb the whole budget under a greedy
    rule.  Deterministic for a fixed seed.
    """
    if len(populations) != len(DISTRICT_NAMES):
        raise ValueError(f"need {len(DISTRICT_NAMES)} district populations")
    if any(p <= 0 for p in populations):
        raise ValueError("district populations must be positive")
    if projects_per_district <= 0:
        raise ValueError("projects_per_district must be positive")
    limit = money(budget)
    if limit <= 0:
        raise ValueError("budget must be positive")
    if cost_model is None:
        cost_model = lambda rng, d, j: limit / 3

    rng = random.Random(seed)
    projects: list[Project] = []
    for d_index, district in enumerate(DISTRICT_NAMES):
        for j in range(projects_per_district):
            cost = money(cost_model(rng, d_index, j))
            projects.append(
                Project(
                    id=f"{district.lower()}-{j + 1}",
                    cost=cost,
                    name=f"{district} project {j + 1}",
                    categories=frozenset({district}),
                )
            )

    ballots: list[ApprovalBallot] = []
    for d_index, district in enumerate(DISTRICT_NAMES):
        approved = frozenset(
            f"{district.lower()}-{j + 1}" for j in range(projects_per_district)
        )
        for v in range(populations[d_index]):
            ballots.append(ApprovalBallot(f"{district.lower()}-v{v + 1}", approved))

    instance = Instance(
        projects=tuple(projects),
        budget_limit=limit,
        meta={"instance_id": "district-example", "description": "four-district example"},
    )
    return instance, Profile(tuple(ballots))
