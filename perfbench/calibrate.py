"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts where the same work on the same core
runs a quarter slower or faster from one second to the next, so raw
wall times of two runs do not compare.  A :class:`Speedometer` runs a
background thread that, every :data:`INTERVAL_S`, runs one unit of a
fixed calibration workload and records how long it took.  Python's
global interpreter lock interleaves these units with the timed
commands, so they sample the speed of the core the commands run on,
while they run.  :meth:`Speedometer.scaled` turns a timed interval into
seconds at a fixed reference speed.

The calibration unit is a small equal-shares selection in exact
fractions on a fixed instance, written here and independent of pbrules.
It exercises the same interpreter paths as the program (big-integer
``Fraction`` arithmetic, sorting, list traffic), and no change to the
program can alter it.
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from time import perf_counter

# scale of reported times: seconds on a machine where one unit takes
# this long, about an idle 2.1 GHz x86-64 core running CPython 3.11
REFERENCE_UNIT_S = 0.0015
# pause between units; one unit costs about 3% of the timed work
INTERVAL_S = 0.05


def _instance() -> tuple[list[Fraction], list[list[int]]]:
    rng = random.Random(7)
    costs = [Fraction(rng.randint(1000, 30000), 100) for _ in range(10)]
    ballots = [sorted(rng.sample(range(10), rng.randint(1, 4))) for _ in range(40)]
    return costs, ballots


COSTS, BALLOTS = _instance()
BUDGET = sum(COSTS) / 3


def equal_shares(costs: list[Fraction], ballots: list[list[int]], budget: Fraction) -> dict[int, Fraction]:
    """Projects bought by equal shares without completion, with the
    per-supporter price each was bought at."""
    wallet = [budget / len(ballots)] * len(ballots)
    supporters: list[list[int]] = [[] for _ in costs]
    for voter, approved in enumerate(ballots):
        for j in approved:
            supporters[j].append(voter)
    bought: dict[int, Fraction] = {}
    while True:
        best, best_rho = None, None
        for j, cost in enumerate(costs):
            if j in bought or not supporters[j]:
                continue
            money = sorted(wallet[v] for v in supporters[j])
            if sum(money) < cost:
                continue
            paid, left = Fraction(0), len(money)
            for held in money:
                rho = (cost - paid) / left
                if held >= rho:
                    break
                paid += held
                left -= 1
            if best_rho is None or rho < best_rho:
                best, best_rho = j, rho
        if best is None:
            return bought
        bought[best] = best_rho
        for v in supporters[best]:
            wallet[v] -= min(wallet[v], best_rho)


EXPECTED = equal_shares(COSTS, BALLOTS, BUDGET)


class Speedometer:
    """Samples the machine's speed from a background thread between
    :meth:`start` and :meth:`stop`.

    ``samples`` holds ``(start, seconds)`` of every calibration unit run.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.wrong_results = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="calibration", daemon=True)

    def start(self) -> None:
        self._unit()  # so that even the first interval has a sample near it
        self._thread.start()

    def stop(self) -> None:
        """End the sampling thread and wait for it."""
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._unit()

    def _unit(self) -> None:
        start = perf_counter()
        result = equal_shares(COSTS, BALLOTS, BUDGET)
        self.samples.append((start, perf_counter() - start))
        if result != EXPECTED:
            self.wrong_results += 1

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval ``[start, end]`` would have taken at the
        reference speed, less the calibration units run inside it.

        Each unit inside the interval stands for the speed around it; with
        none inside (an interval shorter than the sampling interval), the
        unit nearest to it does.
        """
        inside = [seconds for at, seconds in self.samples if start <= at and at + seconds <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
            busy = end - start
        else:
            busy = end - start - sum(inside)
        return busy * sum(REFERENCE_UNIT_S / seconds for seconds in inside) / len(inside)
