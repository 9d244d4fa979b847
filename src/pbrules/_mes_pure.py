"""Pure Python engine for equal-shares selection.

Backend twin of ``_mes_kernel`` (the GMP extension): same constructor,
same methods, bit-identical results.  Everything here is exact
``fractions.Fraction`` arithmetic; floats never appear.

The engine works on integer-indexed arrays prepared by the driver in
``rules``: project costs, per-project approver lists, per-voter approval
lists (for dirty tracking) and a tie rank giving the total order used to
break equal affordability.

Laziness invariants the selection loop relies on:

- voter budgets only decrease within one run, so a previously computed
  affordability factor is a valid lower bound until one of the project's
  approvers pays again (tracked with a per-project ``exact`` flag);
- right after a reset all budgets equal the share, so a project with k
  approvers is affordable iff k * share covers its cost, and then its
  factor is exactly 1/k;
- a project found unaffordable stays unaffordable for the rest of the
  run and is dropped.

Candidates are scanned in (bound, tie rank) order and recomputed until
the next bound strictly exceeds the best exact factor, so ties are always
resolved on exact values.  The observable behaviour is identical to
recomputing every factor at every step, which ``tests/oracle.py`` checks
against the definitional fixed point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

STATUS_COMPLETE = "complete"
STATUS_NEXT_INFEASIBLE = "next_infeasible"
STATUS_EXHAUSTED = "exhausted"

backend_name = "pure"


def payment_cap(wallets, order: Sequence, cost: Fraction) -> Fraction | None:
    """Smallest cap at which the voters in ``order`` (sorted by wallet,
    ascending) buy a project of positive ``cost`` paying min(wallet,
    cap) each, or None when their wallets cannot cover it.

    Voters whose whole wallet is below the equal share of what is still
    owed are peeled off and pay everything; the first who can cover that
    share pins the cap.  The order among equal wallets does not matter.
    """
    if sum((wallets[i] for i in order), Fraction(0)) < cost:
        return None
    remaining = cost
    for peeled, voter in enumerate(order):
        per_agent = remaining / (len(order) - peeled)
        if wallets[voter] >= per_agent:
            return per_agent
        remaining -= wallets[voter]
    raise AssertionError("wallets cover the cost, so the last voter pins the cap")


class MesEngine:
    def __init__(
        self,
        n_voters: int,
        costs: Sequence[Fraction],
        approver_lists: Sequence[Sequence[int]],
        tie_rank: Sequence[int],
        ballot_lists: Sequence[Sequence[int]],
    ):
        self.n = n_voters
        self.costs = [Fraction(c) for c in costs]
        self.m = len(self.costs)
        self.approvers = [list(a) for a in approver_lists]
        self.tie_rank = list(tie_rank)
        self.ballots = [list(b) for b in ballot_lists]
        # per-project approver order, kept nearly sorted by budget between
        # water-filling passes so re-sorts are cheap
        self._order = [list(a) for a in self.approvers]
        self._budgets: list[Fraction] = []
        self._lb: list[Fraction] = [Fraction(0)] * self.m
        self._alive = [False] * self.m
        self._exact = [False] * self.m

    def _reset(self, share: Fraction) -> None:
        self._budgets = [share] * self.n
        for p in range(self.m):
            k = len(self.approvers[p])
            if k and k * share >= self.costs[p]:
                self._alive[p] = True
                self._exact[p] = True
                self._lb[p] = Fraction(1, k)
            else:
                self._alive[p] = False
                self._exact[p] = False

    def _waterfill(self, p: int) -> Fraction | None:
        """Exact affordability of project p at current budgets.

        Sorts p's approvers by budget ascending and takes the payment cap
        from :func:`payment_cap`.  Returns the factor (cap / cost) or None
        when the approvers cannot cover the cost, in which case p is
        dropped for the rest of the run.
        """
        budgets = self._budgets
        order = self._order[p]
        order.sort(key=budgets.__getitem__)
        cost = self.costs[p]
        cap = payment_cap(budgets, order, cost)
        if cap is None:
            self._alive[p] = False
            return None
        factor = cap / cost
        self._lb[p] = factor
        self._exact[p] = True
        return factor

    def _select(self, record: bool) -> tuple[list[int], list, list]:
        """One full selection pass at the current budgets.

        Returns (selected, factors, payments); factors and payments are
        filled only when ``record`` is set (payments omit zero amounts).
        """
        budgets = self._budgets
        costs = self.costs
        tie_rank = self.tie_rank
        alive = self._alive
        exact = self._exact
        lb = self._lb
        selected: list[int] = []
        factors: list[Fraction] = []
        payments: list[list[tuple[int, Fraction]]] = []
        while True:
            candidates = [p for p in range(self.m) if alive[p]]
            if not candidates:
                break
            candidates.sort(key=lambda p: (lb[p], tie_rank[p]))
            best = -1
            best_factor = Fraction(0)
            for p in candidates:
                if not alive[p]:
                    continue
                if best >= 0 and lb[p] > best_factor:
                    break
                if exact[p]:
                    factor = lb[p]
                else:
                    maybe = self._waterfill(p)
                    if maybe is None:
                        continue
                    factor = maybe
                if (
                    best < 0
                    or factor < best_factor
                    or (factor == best_factor and tie_rank[p] < tie_rank[best])
                ):
                    best = p
                    best_factor = factor
            if best < 0:
                break
            alive[best] = False
            cap = best_factor * costs[best]
            pays: list[tuple[int, Fraction]] = []
            for voter in self.approvers[best]:
                wallet = budgets[voter]
                if not wallet:
                    continue
                pay = wallet if wallet < cap else cap
                budgets[voter] = wallet - pay
                for q in self.ballots[voter]:
                    exact[q] = False
                if record:
                    pays.append((voter, pay))
            selected.append(best)
            if record:
                factors.append(best_factor)
                payments.append(pays)
        return selected, factors, payments

    def run(self, share: Fraction, want_ledger: bool = False):
        """Select at per-voter budget ``share``.

        Returns (selected, factors, payments, final_budgets); the last
        three are None unless ``want_ledger``.
        """
        self._reset(share)
        selected, factors, payments = self._select(record=want_ledger)
        if not want_ledger:
            return selected, None, None, None
        return selected, factors, payments, list(self._budgets)

    def run_star(self, budget: Fraction, epsilon: Fraction, max_rounds: int):
        """Rerun selection at growing per-voter shares until the result is
        complete for the original ``budget``.

        Round r uses share (budget + r * epsilon) / n.  A round whose
        selection overshoots the original budget ends the search with the
        previous round's selection; round 0 can never overshoot because
        payments are bounded by the shares, which sum to the budget.

        Returns (selected, chosen_round, rounds_examined, status) with
        status one of "complete", "next_infeasible", "exhausted".
        """
        share0 = Fraction(budget, self.n)
        eps_share = Fraction(epsilon, self.n)
        previous: list[int] = []
        for r in range(max_rounds):
            self._reset(share0 + r * eps_share)
            selected, _, _ = self._select(record=False)
            total = sum((self.costs[p] for p in selected), Fraction(0))
            if total > budget:
                return previous, max(r - 1, 0), r + 1, STATUS_NEXT_INFEASIBLE
            leftover = budget - total
            chosen = set(selected)
            if all(
                self.costs[p] > leftover for p in range(self.m) if p not in chosen
            ):
                return selected, r, r + 1, STATUS_COMPLETE
            previous = selected
        return previous, max_rounds - 1, max_rounds, STATUS_EXHAUSTED
