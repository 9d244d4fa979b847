"""Pure Python engine for equal-shares selection.

Backend twin of ``_mes_kernel`` (the GMP extension): same constructor,
same methods, bit-identical results.  The arithmetic is exact; inside a
run, money is a Python ``int`` counting units of ``1/L``, where ``L`` is
the lcm of the cost denominators and the share's denominator.  A purchase
whose payment cap is not a whole number of units multiplies ``L``, every
wallet and every cost by the cap's reduced denominator, so every payment
stays an integer.  ``fractions.Fraction`` appears only at the edges: the
arguments, and the factors, payments and wallets of a ledger run.

Affordability factors are dimensionless ``(num, den)`` integer pairs, so
a rescale leaves them valid, and every decision compares them by
cross-multiplication.  Candidates are scanned in order of ``num / den``;
Python's int division is correctly rounded, hence weakly monotone, so a
strictly larger float key proves a strictly larger factor.

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

Candidates are scanned in (bound key, tie rank) order.  A candidate whose
bound exceeds the best exact factor so far is skipped without
recomputation, and the scan stops at the first bound key above the best
factor's key, so ties are always resolved on exact values.  The
observable behaviour is identical to recomputing every factor at every
step, which ``tests/oracle.py`` checks against the definitional fixed
point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

STATUS_COMPLETE = "complete"
STATUS_NEXT_INFEASIBLE = "next_infeasible"
STATUS_EXHAUSTED = "exhausted"

backend_name = "pure"


def payment_cap(wallets, order: Sequence, cost):
    """Payment cap at which the voters in ``order`` (sorted by wallet,
    ascending) buy a project of positive ``cost`` paying min(wallet,
    cap) each, as ``(remaining, left)`` with cap = remaining / left; None
    when their wallets cannot cover the cost.

    Voters whose whole wallet is below the equal share of what is still
    owed are peeled off and pay everything; the first who can cover that
    share pins the cap.  Comparisons cross-multiply, so the same peel
    serves integer wallets and ``Fraction`` wallets.  The order among
    equal wallets does not matter.  Because the order is ascending, a
    voter who pins the cap proves the rest can cover it, and running out
    of voters proves the wallets fall short.
    """
    remaining = cost
    left = len(order)
    for voter in order:
        wallet = wallets[voter]
        if wallet * left >= remaining:
            return remaining, left
        remaining -= wallet
        left -= 1
    return None


def _fractions(values: Sequence[int], units: int) -> list[Fraction]:
    """``values`` counted in ``1/units`` as Fractions; equal values share
    one object."""
    seen: dict[int, Fraction] = {}
    out = []
    for value in values:
        fraction = seen.get(value)
        if fraction is None:
            fraction = seen[value] = Fraction(value, units)
        out.append(fraction)
    return out


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
        fractions = [Fraction(c) for c in costs]
        self.m = len(fractions)
        # every cost as an integer count of 1/cost_den
        self._cost_den = lcm(*(c.denominator for c in fractions))
        self._cost_units = [
            c.numerator * (self._cost_den // c.denominator) for c in fractions
        ]
        self.approvers = [list(a) for a in approver_lists]
        self.tie_rank = list(tie_rank)
        self.ballots = [list(b) for b in ballot_lists]
        # per-project approver order, kept nearly sorted by budget between
        # water-filling passes so re-sorts are cheap
        self._order = [list(a) for a in self.approvers]
        # per-run money in units of 1/_units
        self._units = 1
        self._budgets: list[int] = []
        self._costs: list[int] = []
        # lazy bound per project: factor lb_num / lb_den, scan key as float
        self._lb_num = [0] * self.m
        self._lb_den = [1] * self.m
        self._lb_key = [0.0] * self.m
        self._alive = [False] * self.m
        self._exact = [False] * self.m

    def _reset(self, share: Fraction) -> None:
        share = Fraction(share)
        units = lcm(self._cost_den, share.denominator)
        wallet = share.numerator * (units // share.denominator)
        scale = units // self._cost_den
        self._units = units
        self._budgets = [wallet] * self.n
        self._costs = costs = [c * scale for c in self._cost_units]
        for p in range(self.m):
            k = len(self.approvers[p])
            if k and k * wallet >= costs[p]:
                self._alive[p] = True
                self._exact[p] = True
                self._lb_num[p] = 1
                self._lb_den[p] = k
                self._lb_key[p] = 1 / k
            else:
                self._alive[p] = False
                self._exact[p] = False

    def _rescale(self, factor: int) -> None:
        """Count money in units ``factor`` times smaller, in place."""
        self._units *= factor
        budgets = self._budgets
        for i, b in enumerate(budgets):
            budgets[i] = b * factor
        costs = self._costs
        costs[:] = [c * factor for c in costs]

    def _waterfill(self, p: int) -> bool:
        """Exact affordability of project p at current budgets.

        Sorts p's approvers by budget ascending and takes the payment cap
        from :func:`payment_cap`; stores the factor (cap / cost) as p's
        exact bound and returns True, or returns False when the approvers
        cannot cover the cost, in which case p is dropped for the rest of
        the run.
        """
        budgets = self._budgets
        order = self._order[p]
        order.sort(key=budgets.__getitem__)
        cost = self._costs[p]
        cap = payment_cap(budgets, order, cost)
        if cap is None:
            self._alive[p] = False
            return False
        remaining, left = cap
        den = left * cost
        self._lb_num[p] = remaining
        self._lb_den[p] = den
        self._lb_key[p] = remaining / den
        self._exact[p] = True
        return True

    def _select(self, record: bool) -> tuple[list[int], list, list]:
        """One full selection pass at the current budgets.

        Returns (selected, factors, payments); factors and payments are
        filled only when ``record`` is set (payments omit zero amounts).
        """
        budgets = self._budgets
        costs = self._costs
        tie_rank = self.tie_rank
        alive = self._alive
        exact = self._exact
        lb_num = self._lb_num
        lb_den = self._lb_den
        lb_key = self._lb_key
        selected: list[int] = []
        factors: list[Fraction] = []
        payments: list[list[tuple[int, Fraction]]] = []
        while True:
            candidates = [p for p in range(self.m) if alive[p]]
            if not candidates:
                break
            candidates.sort(key=lambda p: (lb_key[p], tie_rank[p]))
            best = -1
            best_num = 0
            best_den = 1
            best_key = 0.0
            for p in candidates:
                if best >= 0:
                    if lb_key[p] > best_key:
                        break
                    if lb_num[p] * best_den > best_num * lb_den[p]:
                        continue
                if not exact[p] and not self._waterfill(p):
                    continue
                num = lb_num[p]
                den = lb_den[p]
                if best >= 0:
                    lhs = num * best_den
                    rhs = best_num * den
                    if lhs > rhs or (lhs == rhs and tie_rank[p] > tie_rank[best]):
                        continue
                best = p
                best_num = num
                best_den = den
                best_key = lb_key[p]
            if best < 0:
                break
            alive[best] = False
            # cap = factor * cost, reduced; a fractional cap refines the unit
            cap = best_num * costs[best]
            g = gcd(cap, best_den)
            cap //= g
            refine = best_den // g
            if refine != 1:
                self._rescale(refine)
            pays: list[tuple[int, Fraction]] = []
            if record:
                units = self._units
                cap_fraction = Fraction(cap, units)
            for voter in self.approvers[best]:
                wallet = budgets[voter]
                if not wallet:
                    continue
                pay = wallet if wallet < cap else cap
                budgets[voter] = wallet - pay
                for q in self.ballots[voter]:
                    exact[q] = False
                if record:
                    pays.append(
                        (voter, cap_fraction if pay == cap else Fraction(pay, units))
                    )
            selected.append(best)
            if record:
                factors.append(Fraction(best_num, best_den))
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
        return selected, factors, payments, _fractions(self._budgets, self._units)

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
        budget = Fraction(budget)
        epsilon = Fraction(epsilon)
        # costs and budget as integers in units of 1/(cost_den * budget den)
        costs = [c * budget.denominator for c in self._cost_units]
        limit = budget.numerator * self._cost_den
        previous: list[int] = []
        for r in range(max_rounds):
            self._reset(Fraction(budget + r * epsilon, self.n))
            selected, _, _ = self._select(record=False)
            leftover = limit - sum(costs[p] for p in selected)
            if leftover < 0:
                return previous, max(r - 1, 0), r + 1, STATUS_NEXT_INFEASIBLE
            chosen = set(selected)
            if all(costs[p] > leftover for p in range(self.m) if p not in chosen):
                return selected, r, r + 1, STATUS_COMPLETE
            previous = selected
        return previous, max_rounds - 1, max_rounds, STATUS_EXHAUSTED
