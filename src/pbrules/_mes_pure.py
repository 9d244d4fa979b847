"""Pure Python engine for equal-shares selection.

The one selection engine behind every equal-shares rule in ``rules``.
The arithmetic is exact; inside a run, money is a Python ``int``
counting units of ``1/L``, where ``L`` is the lcm of the cost
denominators and the share's denominator.  ``fractions.Fraction``
appears only at the edges: the arguments, read through their
``numerator`` and ``denominator`` (an ``int`` has both), and the
affordability factors of a ledger run.

A selection run keeps wallets per class, not per voter.  A payment
depends only on the payer's wallet and the cap, and ties are broken over
projects, never over voters, so voters with equal wallets stay
interchangeable until a purchase splits them.  Every voter starts in one
class holding the share.  Buying a project moves each of its paying
approvers from their class to that class's child for the purchase,
whose wallet is the class wallet less ``min(wallet, cap)``; every voter
who pays out a whole wallet joins the one shared empty class.  A
purchase whose payment cap is not a whole number of units multiplies
``L``, the class wallets and the costs by the cap's reduced
denominator, so every payment stays an integer.  A ledger run hands back
these classes as they are: per purchase the payers, each payer's class
before it and one integer amount per class, and at the end each voter's
class and one integer wallet per class.  It runs no per-voter Python
code and builds no ``Fraction`` for a payment or a wallet;
``rules.MesLedger`` is built from these groups.

Affordability factors are dimensionless ``(num, den)`` integer pairs, so
a rescale leaves them valid, and every decision compares them by
cross-multiplication.  Candidates are scanned in order of ``num / den``;
Python's int division is correctly rounded, hence weakly monotone, so a
strictly larger float key proves a strictly larger factor.

The engine works on the integer-indexed arrays of a ``CompiledElection``
(see ``pbrules.model``): project costs, per-project approver lists and
a tie rank giving the total order used to break equal affordability.
An affordability factor comes from one walk over the distinct wallet
classes of the project's approvers, each with its approver count, or
over the approvers' wallets when they are few.

Laziness invariants the selection loop relies on:

- wallets only decrease within one run, so a previously computed
  affordability factor is a valid lower bound for the rest of the run.
  Every bound is exact only until the first purchase; after it, a scan
  recomputes every factor it needs, including one whose approvers did
  not pay, which costs a waterfill but never changes a decision;
- right after a reset every wallet equals the share, so a project with k
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

The budget-increase search (``run_star``) skips rounds exactly.  Once a
run at share s0 is done, fix its decisions: the purchase order and, at
each purchase, which approvers pay a whole wallet below the cap.  Under
those decisions every wallet and every cap is affine in the share, so a
replay of the run bounds how far the share can grow before a deciding
comparison can reach equality.  The certificate invariant: every share
in [s0, s*) selects what s0 selects, with s* = s0 only when a deciding
comparison is tied at s0.  The search then computes the first round
whose share is at least s*, never one it has already passed, and
checks the selection the certificate expects there: the same after a
peel event (an approver who paid a whole wallet below a cap reaches
it), or one project more when its approvers reach its cost first.  The
checked replay stands in for running the round; only a failed check
runs it.  Certificates and checks are exact, inline integer walks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Sequence

STATUS_COMPLETE = "complete"
STATUS_NEXT_INFEASIBLE = "next_infeasible"
STATUS_EXHAUSTED = "exhausted"


def payment_cap(wallets, order: Sequence, cost, counts):
    """Payment cap at which the voters counted in ``order`` (sorted by
    wallet, ascending) buy a project of positive ``cost`` paying
    min(wallet, cap) each, as ``(remaining, left)`` with cap = remaining
    / left; None when their wallets cannot cover the cost.  The entries
    of ``order`` are distinct keys of ``wallets``, and ``counts[key]``
    voters hold the wallet ``wallets[key]``.  Only the counted waterfill
    calls it; other walks copy it inline.

    Voters whose whole wallet is below the equal share of what is still
    owed are peeled off and pay everything; the first who can cover that
    share pins the cap.  Voters with equal wallets peel together: if
    ``wallet * left < remaining``, then ``wallet * (left - 1) <
    remaining - wallet``, so counted entries give the cap that a walk
    over single voters finds.  Comparisons cross-multiply, so the same
    peel serves integer wallets and ``Fraction`` wallets.  Because the
    order is ascending, a voter who pins the cap proves the rest can
    cover it, and running out of voters proves the wallets fall short.
    """
    remaining = cost
    left = sum(counts.values())
    for key in order:
        wallet = wallets[key]
        if wallet * left >= remaining:
            return remaining, left
        count = counts[key]
        remaining -= wallet * count
        left -= count
    return None


def _share_units(num: int, den: int, cost_den: int) -> tuple[int, int]:
    """The per-voter share ``num / den`` as ``(wallet, units)``: ``wallet``
    counts units of ``1/units``, the lcm of ``cost_den`` and the share's
    reduced denominator."""
    g = gcd(num, den)
    num //= g
    den //= g
    units = lcm(cost_den, den)
    return num * (units // den), units


class MesEngine:
    """Equal-shares selection on the compiled arrays of one election.

    ``n_voters``, the project ``costs``, the per-project
    ``approver_lists`` and the ``tie_rank`` of each project are read and
    never mutated.  ``tie_rank`` must put cheaper projects first, as the
    compiled one does: :meth:`run_star` takes the first unbought project
    in tie order as the cheapest.  ``ballot_lists`` (per-voter project
    indices) is not read: it stays only so that the benchmark's
    five-argument call keeps working.
    """

    # approver count from which _waterfill counts classes.  Timed on
    # the waterfills of the benchmark's seeded corpora, counting took
    # 1.07 to 2.4 times as long as the walk over approvers below 64
    # approvers, 0.98 to 1.08 times from 64 to 79, and 0.62 to 0.95
    # times from 80 up
    _count_from = 80

    def __init__(
        self,
        n_voters: int,
        costs: Sequence[Fraction],
        approver_lists: Sequence[Sequence[int]],
        tie_rank: Sequence[int],
        ballot_lists: Sequence[Sequence[int]],
    ):
        self.n = n_voters
        self.m = len(costs)
        # every cost as an integer count of 1/cost_den
        self._cost_den = lcm(*(c.denominator for c in costs))
        self._cost_units = [c.numerator * (self._cost_den // c.denominator) for c in costs]
        # the caller's lists, read and never mutated
        self.approvers = approver_lists
        self.tie_rank = tie_rank
        # the projects in tie order: sorting them by bound key alone, a
        # stable sort, orders them by (bound key, tie rank)
        self._by_rank = sorted(range(self.m), key=tie_rank.__getitem__)
        # the projects by approver count, descending, for the certificate
        self._by_count = sorted(range(self.m), key=lambda p: -len(approver_lists[p]))
        # per-run money in units of 1/_units.  Voter i holds the wallet
        # _wallets[_class[i]]; slot 0 is the empty class, shared by every
        # voter who has paid out a whole wallet, and a purchase appends
        # the child classes it creates.  A slot whose voters have all
        # moved on stays behind, unused, until the next reset.
        self._units = 1
        self._class: list[int] = []
        self._wallets: list[int] = []
        self._costs: list[int] = []
        # lazy bound per project: factor lb_num / lb_den, scan key as float
        self._lb_num = [0] * self.m
        self._lb_den = [1] * self.m
        self._lb_key = [0.0] * self.m
        self._alive = [False] * self.m

    def _reset(self, wallet: int, units: int) -> None:
        """Start a run with every voter in one class holding ``wallet /
        units``, next to the empty class."""
        scale = units // self._cost_den
        self._units = units
        self._class = [1] * self.n
        self._wallets = [0, wallet]
        self._costs = costs = [c * scale for c in self._cost_units]
        for p in range(self.m):
            k = len(self.approvers[p])
            if k and k * wallet >= costs[p]:
                self._alive[p] = True
                self._lb_num[p] = 1
                self._lb_den[p] = k
                self._lb_key[p] = 1 / k
            else:
                self._alive[p] = False

    def _rescale(self, factor: int) -> None:
        """Count money in units ``factor`` times smaller: the class
        wallets and the costs, in place."""
        self._units *= factor
        wallets = self._wallets
        wallets[:] = [w * factor for w in wallets]
        costs = self._costs
        costs[:] = [c * factor for c in costs]

    def _waterfill(self, p: int) -> bool:
        """Exact affordability of project p at the current wallets.

        Counts p's approvers per wallet class, sorts the distinct
        classes by class wallet ascending and takes the payment cap from
        :func:`payment_cap`, so the walk is over classes, not approvers;
        stores the factor (cap / cost) as p's exact bound and returns
        True, or returns False when the approvers cannot cover the cost,
        in which case p is dropped for the rest of the run.  A project
        with fewer than ``_count_from`` approvers walks their sorted
        wallets.
        """
        wallets = self._wallets
        voter_class = self._class
        approvers = self.approvers[p]
        cost = self._costs[p]
        if len(approvers) < self._count_from:
            # the approvers' wallets, ascending, walked as payment_cap
            # walks them
            remaining = cost
            left = len(approvers)
            for wallet in sorted(map(wallets.__getitem__, map(voter_class.__getitem__, approvers))):
                if wallet * left >= remaining:
                    break
                remaining -= wallet
                left -= 1
            else:
                self._alive[p] = False
                return False
        else:
            counts = Counter(map(voter_class.__getitem__, approvers))
            order = sorted(counts, key=wallets.__getitem__)
            cap = payment_cap(wallets, order, cost, counts)
            if cap is None:
                self._alive[p] = False
                return False
            remaining, left = cap
        den = left * cost
        self._lb_num[p] = remaining
        self._lb_den[p] = den
        self._lb_key[p] = remaining / den
        return True

    def _select(self, record: bool) -> tuple[list[int], list, list]:
        """One full selection pass at the current wallets.

        Returns (selected, factors, payments); factors and payments are
        filled only when ``record`` is set, payments with one group per
        purchase as :meth:`run` describes.
        """
        voter_class = self._class
        wallets = self._wallets
        costs = self._costs
        tie_rank = self.tie_rank
        alive = self._alive
        lb_num = self._lb_num
        lb_den = self._lb_den
        lb_key = self._lb_key
        by_rank = self._by_rank
        # every bound is exact until the first purchase; see the module
        # docstring
        fresh = True
        selected: list[int] = []
        factors: list[Fraction] = []
        payments: list[tuple[list[int], list[int], dict[int, int], int]] = []
        while True:
            candidates = [p for p in by_rank if alive[p]]
            if not candidates:
                break
            candidates.sort(key=lb_key.__getitem__)
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
                if not fresh and not self._waterfill(p):
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
            buyers = self.approvers[best]
            if record:
                # the approvers' classes before the purchase (class 0 pays
                # nothing) and what each class pays: the cap, or the whole
                # wallet of a class below it
                paying = list(map(voter_class.__getitem__, buyers))
                paid = {}
            # child[c]: the class that c's payers move to, once made; the
            # slots this purchase appends are never looked up in it
            child = [-1] * len(wallets)
            for voter in buyers:
                c = voter_class[voter]
                if not c:
                    continue
                d = child[c]
                if d < 0:
                    wallet = wallets[c]
                    if wallet > cap:
                        d = len(wallets)
                        wallets.append(wallet - cap)
                        if record:
                            paid[c] = cap
                    else:
                        d = 0
                        if record:
                            paid[c] = wallet
                    child[c] = d
                voter_class[voter] = d
            fresh = False
            selected.append(best)
            if record:
                factors.append(Fraction(best_num, best_den))
                payers = list(compress(buyers, paying))
                payments.append((payers, list(filter(None, paying)), paid, self._units))
        return selected, factors, payments

    def _certificate(
        self,
        selected: list[int],
        wallet: int,
        units: int,
        limit_num: int,
        limit_den: int,
        hint: int = 1,
    ) -> tuple[int, int, list[int] | None, int] | None:
        """Check what equal shares buys at a share s0 and bound how far
        the share can grow before that can change.

        Replays buying ``selected`` in order from wallets of ``wallet /
        units`` (the share s0); None unless equal shares does that at
        s0.  Each wallet is an affine form of the share s: its value at
        s0 and its slope, in units of ``1/units`` refined so every cap
        and cap slope is whole.  With the purchases and who pays below
        the cap fixed, each cap is affine too, and the run buys the same
        until one of these reaches equality:

        - a peel event: a voter who paid a whole wallet below a cap
          reaches it (the others only get further above it: wallets
          never fall, caps never rise as s grows);
        - an unbought q at a purchase of b: with g_q(s) = sum over q's
          approvers of min(wallet, f_b(s) * c_q) - c_q, q loses to b
          while g_q < 0, or g_q = 0 and q is later in the tie order.
          g_q is concave, so the root of its right tangent at s0 is an
          early, hence safe, event;
        - after the last purchase, an unbought project's approvers
          reach its cost.

        A project whose approvers hold less than its cost at s0, and at
        most its cost at the bound so far, is settled: dropped from the
        replay.  Up to the bound each purchase takes min(wallet, cap) >=
        0 from each payer (slopes never go negative, and a cap stays
        above the wallets peeled below it until their peel event, which
        the bound counts), so what they hold only falls while the bound
        only shrinks: it can neither fail a later check nor set an
        earlier event.

        Returns ``(num, den, guess, payers)``, all exact: shares in
        [s0, s0 + num / den) buy what s0 buys, and the first event is
        there, or past ``limit_num / limit_den``.  ``guess``, what the
        next round should buy, is ``selected`` after a peel event,
        ``selected + [q]`` when q's approvers reach its cost, else None;
        ``payers`` multiplies the payer counts.  The replay starts in
        units ``hint`` times smaller: the ``payers`` of a replay with
        the same payer counts spare every O(n) refinement.  A purchase
        walks its approvers by value for the cap.
        """
        approvers = self.approvers
        tie_rank = self.tie_rank
        units *= hint
        val = [wallet * hint] * self.n
        # a wallet grows by ``units`` units per unit of share
        slope = [units] * self.n
        value = val.__getitem__
        rate_of = slope.__getitem__
        costs = [c * (units // self._cost_den) for c in self._cost_units]
        best_num, best_den, guess = limit_num, limit_den, None
        payers = 1
        # the unbought projects not settled yet, by approver count
        live = list(self._by_count)
        for b in selected:
            order = sorted(approvers[b], key=value)
            # the payment cap: the first ``cut`` voters are below it and
            # pay their whole wallet, the others pay the cap
            remaining = costs[b]
            left = len(order)
            for v in map(value, order):
                if v * left >= remaining:
                    break
                remaining -= v
                left -= 1
            else:
                return None
            cut = len(order) - left
            drop = sum(map(rate_of, order[:cut])) if cut else 0
            refine = left // gcd(remaining, drop, left)
            if refine != 1:
                units *= refine
                val = [v * refine for v in val]
                slope = [v * refine for v in slope]
                value = val.__getitem__
                rate_of = slope.__getitem__
                costs = [c * refine for c in costs]
                remaining *= refine
                drop *= refine
            cap = remaining // left
            cap_slope = -drop // left
            payers *= left
            for i in order[:cut]:
                rate = slope[i] - cap_slope
                if rate > 0:
                    num = cap - val[i]
                    if num * best_den < best_num * rate:
                        best_num, best_den, guess = num, rate, selected
            live.remove(b)
            cost_b = costs[b]
            settled = None
            for q in live:
                voters = approvers[q]
                if len(voters) * cap < cost_b:
                    # here and for every q after it, even all of q's
                    # approvers paying at b's factor fall short of its cost
                    break
                cost_q = costs[q]
                total = sum(map(value, voters))
                if total < cost_q:
                    # q cannot tie b before its approvers reach its cost
                    rate = sum(map(rate_of, voters))
                    if not rate or (cost_q - total) * best_den >= best_num * rate:
                        if settled is None:
                            settled = {q}
                        else:
                            settled.add(q)
                        continue
                # x = cap * cost_q / cost_b is what an approver pays at b's
                # factor; total and rate below are scaled by cost_b
                x = cap * cost_q
                x_slope = cap_slope * cost_q
                threshold, inexact = divmod(x, cost_b)
                if inexact:
                    below = [i for i in voters if val[i] <= threshold]
                    tied = ()
                else:
                    below = [i for i in voters if val[i] < threshold]
                    tied = [i for i in voters if val[i] == threshold]
                richer = len(voters) - len(below)
                total = cost_b * (sum(map(value, below)) - cost_q) + richer * x
                if total > 0 or not total and (not richer or tie_rank[q] < tie_rank[b]):
                    # q's factor is below b's, or equal and q is first in
                    # the tie order
                    return None
                rate = cost_b * sum(map(rate_of, below))
                rate += (richer - len(tied)) * x_slope
                for i in tied:
                    rate += min(slope[i] * cost_b, x_slope)
                if rate > 0 and -total * best_den < best_num * rate:
                    best_num, best_den, guess = -total, rate, None
            if settled is not None:
                live = [q for q in live if q not in settled]
            for i in order[:cut]:
                val[i] = 0
                slope[i] = 0
            for i in order[cut:]:
                val[i] -= cap
                slope[i] -= cap_slope
        # after the last purchase every unbought project is unaffordable
        # until its approvers reach its cost; a wallet with slope 0 is 0
        for q in live:
            rate = sum(map(rate_of, approvers[q]))
            if rate > 0:
                num = costs[q] - sum(map(value, approvers[q]))
                if num <= 0:
                    return None
                if num * best_den < best_num * rate:
                    best_num, best_den, guess = num, rate, selected + [q]
        return best_num, best_den, guess, payers

    def run(self, share: Fraction, want_ledger: bool = False):
        """Select at per-voter budget ``share``.

        Returns (selected, factors, payments, final); the last three are
        None unless ``want_ledger``.  ``factors`` holds the affordability
        factor of each purchase as a ``Fraction``.  Payments and wallets
        come per wallet class, as integers in units of ``1/units``:

        - ``payments`` holds one ``(payers, classes, amounts, units)`` per
          purchase: the approvers who pay, in approver order; the class
          of each payer before the purchase; and ``amounts[c]``, what
          each payer of class ``c`` pays.  An approver with an empty
          wallet pays nothing and is left out.
        - ``final`` is ``(classes, wallets, units)``: the class of every
          voter after the run, and ``wallets[c]`` the wallet of class
          ``c``.  ``wallets`` also holds slots no voter is in.

        ``units`` may differ between purchases, which refine it.
        ``rules.MesLedger`` is built from these lists; the next run
        starts new ones.
        """
        self._reset(*_share_units(share.numerator, share.denominator, self._cost_den))
        selected, factors, payments = self._select(record=want_ledger)
        if not want_ledger:
            return selected, None, None, None
        return selected, factors, payments, (self._class, self._wallets, self._units)

    def run_star(self, budget: Fraction, epsilon: Fraction, max_rounds: int):
        """Rerun selection at growing per-voter shares until the result is
        complete for the original ``budget``.

        Round r uses share (budget + r * epsilon) / n.  A round whose
        selection overshoots the original budget ends the search with the
        previous round's selection; round 0 can never overshoot because
        payments are bounded by the shares, which sum to the budget.

        Rounds are skipped exactly: each round r that is run, at share
        s, also yields a certificate s* >= s (see :meth:`_certificate`)
        such that every share in [s, s*) selects the same projects, and
        the search goes on at the first round after r whose share is at
        least s*.  A skipped round selects what round r selected, so it
        is neither complete nor overshooting: ``chosen_round``,
        ``rounds_examined``, ``status`` and the selection are those of
        running every round.  A round whose selection the certificate
        guesses checks it by replay and runs the engine only if that
        fails; either way it counts as run and meets the same tests.

        Returns (selected, chosen_round, rounds_examined, status,
        rounds_run) with status one of "complete", "next_infeasible",
        "exhausted"; ``rounds_run`` counts the rounds actually run.
        """
        # costs and budget as integers in units of 1/(cost_den * budget den)
        costs = [c * budget.denominator for c in self._cost_units]
        budget_units = budget.numerator * self._cost_den
        # round r shares (base + r * step) / den among the voters
        den = budget.denominator * epsilon.denominator * self.n
        base = budget.numerator * epsilon.denominator
        step = epsilon.numerator * budget.denominator
        previous: list[int] = []
        guess = None
        hint = 1
        r = rounds_run = 0
        while r < max_rounds:
            rounds_run += 1
            wallet, units = _share_units(base + r * step, den, self._cost_den)
            # one past the last round is as far as a certificate needs to look
            limit = (max_rounds - r) * step
            found = None
            if guess is not None:
                # the certificate expects this round to buy ``guess``: a
                # replay checks that before the engine runs
                found = self._certificate(guess, wallet, units, limit, den, hint)
            if found is None:
                self._reset(wallet, units)
                selected, _, _ = self._select(record=False)
                spent = sum(map(costs.__getitem__, selected))
                bought = set(selected)
            elif guess is not previous:
                # the guess appends one project to the last selection
                selected = guess
                spent += costs[selected[-1]]
                bought.add(selected[-1])
            # the last selection again is neither complete nor over the
            # limit, as it was in its own round
            if selected is not previous:
                leftover = budget_units - spent
                if leftover < 0:
                    return previous, max(r - 1, 0), r + 1, STATUS_NEXT_INFEASIBLE, rounds_run
                cheapest = next((p for p in self._by_rank if p not in bought), None)
                if cheapest is None or costs[cheapest] > leftover:
                    return selected, r, r + 1, STATUS_COMPLETE, rounds_run
                previous = selected
            if found is None:
                found = self._certificate(selected, wallet, units, limit, den, hint)
            # go on at the first round at or past the certificate
            num, cert_den, guess, hint = found
            r += max(1, -(-num * den // (cert_den * step)))
        return previous, max_rounds - 1, max_rounds, STATUS_EXHAUSTED, rounds_run
