"""Seeded synthetic corpus in the shape of PaBuLib approval elections.

Each election takes two ``random.Random`` streams from the caller: a
design stream for the projects and a voter stream for the ballots.  The
same streams always give byte-identical ``.pb`` files.  The shape follows
the Amsterdam district elections: 1 to 6 approvals per ballot, project
popularity with a Pareto tail, log-uniform project costs (whole euros or
cents), 4 to 8 theme labels with one or two per project.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from pbrules import ApprovalBallot, Instance, Profile, Project, write_pabulib

THEMES = (
    "greenery",
    "public-space",
    "culture",
    "sport",
    "welfare",
    "education",
    "mobility",
    "environment",
)

# approvals per ballot, 1..6, most voters approving a few projects
APPROVAL_WEIGHTS = (18, 24, 22, 16, 12, 8)
# the dearest project may cost this many times the cheapest
COST_SPREAD = 30.0


@dataclass(frozen=True)
class ElectionShape:
    """Size and pricing of one generated election.

    ``share`` is the budget per voter in money units; project costs are
    scaled so that the budget buys ``budget_fraction`` of the total cost.
    ``cents`` prices projects in cents instead of whole units.
    """

    voters: int
    projects: int
    share: float
    budget_fraction: float
    cents: bool
    categorised: bool = True
    popularity_tail: float = 1.3


def _weighted_distinct(rng: random.Random, cumulative: list[float], k: int) -> list[int]:
    total = cumulative[-1]
    chosen: set[int] = set()
    while len(chosen) < k:
        chosen.add(bisect(cumulative, rng.random() * total))
    return sorted(chosen)


def election(
    design: random.Random, voters: random.Random, instance_id: str, shape: ElectionShape
) -> tuple[Instance, Profile]:
    """One election as model objects, ready for ``write_pabulib``.

    ``design`` draws the projects (costs, labels, popularity) and
    ``voters`` draws the ballots.
    """
    rng = design
    m, n = shape.projects, shape.voters
    budget = max(1, round(shape.share * n))
    raw = [math.exp(rng.uniform(0.0, math.log(COST_SPREAD))) for _ in range(m)]
    scale = budget / shape.budget_fraction / sum(raw)
    unit = 100 if shape.cents else 1
    costs = []
    for value in raw:
        units = max(unit + 1, round(value * scale * unit))
        if shape.cents and units % 100 == 0:
            units += 37
        costs.append(Fraction(units, unit))

    labels: tuple[str, ...] = ()
    if shape.categorised:
        labels = tuple(sorted(rng.sample(THEMES, rng.randint(4, 8))))
    projects = []
    for j, cost in enumerate(costs):
        categories = frozenset(rng.sample(labels, rng.choice((1, 1, 2)))) if labels else frozenset()
        projects.append(Project(id=str(j + 1), cost=cost, name=f"Project {j + 1}", categories=categories))

    popularity = [rng.paretovariate(shape.popularity_tail) for _ in range(m)]
    cumulative = list(accumulate(popularity))
    max_k = min(len(APPROVAL_WEIGHTS), m)
    rng = voters
    sizes = rng.choices(range(1, max_k + 1), weights=APPROVAL_WEIGHTS[:max_k], k=n)
    ballots = []
    for v, k in enumerate(sizes):
        picks = _weighted_distinct(rng, cumulative, k)
        ballots.append(ApprovalBallot(str(v + 1), frozenset(str(j + 1) for j in picks)))

    meta = {
        "description": f"Synthetic district election {instance_id}",
        "country": "Netherlands",
        "unit": "Amsterdam",
        "instance_id": instance_id,
        "district": f"District {instance_id}",
        "rule": "greedy",
        "min_length": "1",
        "max_length": str(max_k),
    }
    instance = Instance(projects=tuple(projects), budget_limit=Fraction(budget), meta=meta)
    return instance, Profile(tuple(ballots))


def malformed_text(rng: random.Random) -> str:
    """A small file whose META vote count disagrees with its VOTES rows,
    so ingest skips it with a located reason."""
    instance, profile = election(
        rng, rng, "999", ElectionShape(voters=20, projects=5, share=2.0, budget_fraction=0.5, cents=False)
    )
    return write_pabulib(instance, profile).replace("num_votes;20", "num_votes;21", 1)


def write_corpus(directory: Path, files: dict[str, str]) -> None:
    """Write ``name -> text`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
