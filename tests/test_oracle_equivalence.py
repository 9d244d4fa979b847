"""Engine and metric results against the definitional oracles in oracle.py.

The engines are lazy (stale bounds, equal-budget reset, permanent
drops) and the metrics integer-valued; the oracles recompute everything
from the definitions at every step, in ``Fraction``s.  Observable
behaviour must match exactly, Fraction for Fraction.
"""

import contextlib
import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import helpers
import oracle
from oracle import (
    affordability_fixed_point,
    ledger_json_dict,
    mes_bruteforce,
    star_bruteforce,
    tie_key,
    topup_bruteforce,
    trace_text,
)
from pbrules import _mes_pure
from pbrules.analysis import _effect_worker, instance_stats
from pbrules.metrics import (
    _per_voter_sums,
    category_proportionality,
    effect_score,
    gini,
    instance_rows,
    metric_row,
    voter_category_share,
)
from pbrules.model import (
    Allocation,
    ApprovalBallot,
    Instance,
    Profile,
    Project,
    build_district_example,
    compile_election,
    is_complete,
    total_cost,
)
from pbrules.rules import (
    MesLedger,
    RuleSpec,
    Variant,
    complete_star,
    complete_with_secondary,
    emit_trace,
    greed_cost,
    mes,
    mes_selection,
    run_rule,
)


def random_budgets(rng, k):
    return {
        f"v{i}": Fraction(rng.randint(0, 30), rng.choice((1, 2, 3, 4)))
        for i in range(k)
    }


def approver_ids(project_id, profile):
    return {b.voter_id for b in profile.ballots if project_id in b.approved}


class TestAffordabilityOracle:
    def test_matches_fixed_point(self):
        rng = random.Random(21)
        for _ in range(400):
            k = rng.randint(1, 9)
            budgets = random_budgets(rng, k)
            ids = list(budgets)
            cost = Fraction(rng.randint(1, 60), rng.choice((1, 2, 3)))
            ours = helpers.affordability(budgets, ids, cost)
            oracle = affordability_fixed_point(budgets, ids, cost)
            assert ours == oracle

    def test_factor_is_max_payment_over_cost(self):
        rng = random.Random(22)
        for _ in range(200):
            k = rng.randint(1, 8)
            budgets = random_budgets(rng, k)
            cost = Fraction(rng.randint(1, 50))
            result = helpers.affordability(budgets, list(budgets), cost)
            if result is None:
                assert sum(budgets.values()) < cost
                continue
            factor, pays = result
            assert sum(pays.values()) == cost
            assert max(pays.values()) == factor * cost
            for vid, amount in pays.items():
                assert 0 < amount <= budgets[vid]


class TestPaymentCap:
    def test_scaled_integer_wallets_give_the_scaled_cap(self):
        rng = random.Random(26)
        for _ in range(400):
            k = rng.randint(1, 9)
            wallets = list(random_budgets(rng, k).values())
            cost = Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 7)))
            units = math.lcm(cost.denominator, *(w.denominator for w in wallets))
            units *= rng.choice((1, 2, 5))
            scaled = [int(w * units) for w in wallets]
            order = sorted(range(k), key=wallets.__getitem__)
            counts = dict.fromkeys(order, 1)
            exact = _mes_pure.payment_cap(wallets, order, cost, counts)
            integral = _mes_pure.payment_cap(scaled, order, int(cost * units), counts)
            if exact is None:
                assert integral is None
                assert sum(wallets) < cost
                continue
            assert all(isinstance(x, int) for x in integral)
            assert Fraction(*integral) == exact[0] / exact[1] * units

    @staticmethod
    def voter_walk(wallets, cost):
        """The payment cap of voters with ``wallets``, ascending, walked
        one voter at a time: the definition the counted walk groups."""
        remaining, left = cost, len(wallets)
        for wallet in wallets:
            if wallet * left >= remaining:
                return remaining, left
            remaining -= wallet
            left -= 1
        return None

    def test_grouped_walk_matches_the_walk_over_voters(self):
        # classes of 1 to 6 voters, several of them on one wallet and some
        # below the cap: walking the classes with their counts gives the
        # cap, or None, that walking their voters one by one gives
        rng = random.Random(29)
        whole_class_peels = short = 0
        for _ in range(600):
            wallets = [rng.randint(0, 6) * rng.choice((1, 1, 2)) for _ in range(rng.randint(1, 6))]
            counts = {c: rng.randint(1, 6) for c in range(len(wallets))}
            order = sorted(counts, key=wallets.__getitem__)
            voters = [c for c in order for _ in range(counts[c])]
            total = sum(map(wallets.__getitem__, voters))
            cost = rng.randint(1, total + total // 4 + 1)
            grouped = _mes_pure.payment_cap(wallets, order, cost, counts)
            single = self.voter_walk([wallets[c] for c in voters], cost)
            assert grouped == single
            if grouped is None:
                short += 1
                continue
            remaining, left = grouped
            whole_class_peels += any(
                counts[c] >= 2 and wallets[c] * left < remaining for c in order
            )
        assert whole_class_peels >= 200
        assert short >= 100


PRIME_VOTER_COUNTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def odd_money_instance(rng, n, thirds):
    """Costs in cents or thirds and a prime voter count, so the share's
    denominator differs from the costs' and most payment caps are not
    whole units."""

    def amount(top):
        if thirds:
            return Fraction(rng.randint(1, 3 * top), 3)
        return Fraction(rng.randint(1, 100 * top), 100)

    m = rng.randint(1, 10)
    projects = tuple(Project(id=f"p{j + 1}", cost=amount(40)) for j in range(m))
    ballots = []
    for i in range(n):
        approved = {p.id for p in projects if rng.random() < 0.5}
        ballots.append(ApprovalBallot(voter_id=f"v{i + 1}", approved=frozenset(approved)))
    for project in projects:
        if not any(project.id in b.approved for b in ballots):
            i = rng.randrange(n)
            ballots[i] = ApprovalBallot(
                voter_id=ballots[i].voter_id, approved=ballots[i].approved | {project.id}
            )
    instance = Instance(projects=projects, budget_limit=amount(80), meta={"instance_id": "odd"})
    return instance, Profile(ballots=tuple(ballots))


def cent_election(rng, n):
    """An election of ``n`` voters with costs in cents.  Each project
    costs 30% to 90% of what its approvers hold, and 15% to 80% of the
    voters approve it, so most projects have ``MesEngine._count_from``
    approvers or more, payment caps refine the unit, and voters who
    bought before pay less than the cap."""
    share = Fraction(rng.randint(50, 150), 100)
    projects, ballots = [], [set() for _ in range(n)]
    for j in range(rng.randint(6, 12)):
        pid = f"p{j + 1}"
        rate = rng.choice((0.15, 0.3, 0.5, 0.8))
        voters = [i for i in range(n) if rng.random() < rate] or [rng.randrange(n)]
        for i in voters:
            ballots[i].add(pid)
        cost = len(voters) * share * Fraction(rng.randint(30, 90), 100)
        projects.append(Project(id=pid, cost=Fraction(math.ceil(cost * 100), 100)))
    instance = Instance(projects=tuple(projects), budget_limit=share * n, meta={"instance_id": "cents"})
    profile = Profile(tuple(ApprovalBallot(f"v{i + 1}", frozenset(b)) for i, b in enumerate(ballots)))
    return instance, profile


def pure_engine(instance, profile):
    """The pure engine on the compiled arrays of ``instance`` and
    ``profile``, with the default tie order."""
    election = compile_election(instance, profile)
    return _mes_pure.MesEngine(
        profile.voter_count,
        [p.cost for p in instance.projects],
        election.approvers,
        election.tie_rank,
        election.ballots,
    )


def pure_engine_ledger(instance, profile, counted=False):
    """The pure engine's ledger run, keyed by ids like the oracle's.
    With ``counted``, every waterfill counts the approvers' classes,
    however few the approvers (otherwise a project needs
    ``MesEngine._count_from`` of them, more than a brute-force case
    has)."""
    engine = pure_engine(instance, profile)
    if counted:
        engine._count_from = 0
    share = Fraction(instance.budget_limit, profile.voter_count)
    selected, factors, payments, (classes, wallets, units) = engine.run(share, want_ledger=True)
    pids = [p.id for p in instance.projects]
    vids = [b.voter_id for b in profile.ballots]
    return engine, (
        [pids[p] for p in selected],
        {pids[p]: f for p, f in zip(selected, factors)},
        {
            pids[p]: {vids[v]: Fraction(amounts[c], scale) for v, c in zip(payers, paid)}
            for p, (payers, paid, amounts, scale) in zip(selected, payments)
        },
        {vids[i]: Fraction(wallets[c], units) for i, c in enumerate(classes)},
    )


def repeated(profile, copies):
    """``profile`` with every ballot cast ``copies`` times, each copy of
    voter ``v`` named ``v-j``; the copies of one ballot are adjacent."""
    return Profile(
        tuple(
            ApprovalBallot(f"{b.voter_id}-{j}", b.approved)
            for b in profile.ballots
            for j in range(copies)
        )
    )


def shared_wallet_instance(rng, n, copies, thirds):
    """An odd-money instance with every ballot cast ``copies`` times and
    a limit of 50% to 90% of the total cost, so that voters who share a
    wallet spend most of it and some pay out all of it."""
    instance, profile = odd_money_instance(rng, n, thirds)
    total = sum(p.cost for p in instance.projects)
    instance = dataclasses.replace(instance, budget_limit=total * rng.randint(5, 9) / 10)
    return instance, repeated(profile, copies)


class TestPureEngineOracle:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(PRIME_VOTER_COUNTS),
        thirds=st.booleans(),
        counted=st.booleans(),
    )
    def test_ledger_matches_bruteforce(self, seed, n, thirds, counted):
        instance, profile = odd_money_instance(random.Random(seed), n, thirds)
        _, ledger = pure_engine_ledger(instance, profile, counted)
        assert ledger == mes_bruteforce(instance, profile)
        _, factors, payments, wallets = ledger
        values = [*factors.values(), *wallets.values()]
        values += [a for pays in payments.values() for a in pays.values()]
        assert all(type(value) is Fraction for value in values)

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from((2, 3, 5, 7)),
        copies=st.integers(2, 4),
        thirds=st.booleans(),
        counted=st.booleans(),
    )
    def test_shared_wallets_match_bruteforce(self, seed, n, copies, thirds, counted):
        # every ballot cast 2 to 4 times: most voters share a wallet, and
        # purchases split the wallet classes and drain some of them
        instance, profile = shared_wallet_instance(random.Random(seed), n, copies, thirds)
        engine, ledger = pure_engine_ledger(instance, profile, counted)
        assert ledger == mes_bruteforce(instance, profile)
        _, _, payments, _ = ledger
        assert all(amount for pays in payments.values() for amount in pays.values())
        # the copies of a ballot pay alike, so they end in one class
        classes = engine._class
        assert all(classes[i] == classes[i - i % copies] for i in range(len(classes)))

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(PRIME_VOTER_COUNTS),
        kind=st.sampled_from(("odd", "shared", "cents")),
        empty=st.integers(0, 3),
        counted=st.booleans(),
    )
    def test_run_without_ledger_selects_as_the_ledger_run(self, seed, n, kind, empty, counted):
        rng = random.Random(seed)
        if kind == "odd":
            instance, profile = odd_money_instance(rng, n, rng.random() < 0.5)
        elif kind == "shared":
            instance, profile = shared_wallet_instance(rng, n, rng.randint(2, 3), False)
        else:
            instance, profile = cent_election(rng, n)
        blank = tuple(ApprovalBallot(f"e{i}", frozenset()) for i in range(empty))
        profile = Profile(blank[: empty // 2] + profile.ballots + blank[empty // 2 :])
        engine = pure_engine(instance, profile)
        if counted:
            engine._count_from = 0
        share = Fraction(instance.budget_limit, profile.voter_count)
        plain = engine.run(share)
        assert plain[1:] == (None, None, None)
        # a run resets the engine: the order of the two runs does not matter
        assert engine.run(share, want_ledger=True)[0] == plain[0]
        assert engine.run(share) == plain
        assert mes_selection(instance, profile) == mes(instance, profile)[0]

    def test_shared_wallets_drain_and_split(self, monkeypatch):
        # the cases of the test above do reach the empty class, leave
        # voters with one ballot in several classes, and have waterfills
        # that peel a class of two or more voters at once, on the
        # engine's counted path, where the ledger still matches the oracle
        peeled_classes = []
        payment_cap = _mes_pure.payment_cap

        def recording_cap(wallets, order, cost, counts):
            found = payment_cap(wallets, order, cost, counts)
            if found is not None:
                # the classes walked past before the cap was pinned
                unpinned = sum(counts.values()) - found[1]
                for c in order:
                    if not unpinned:
                        break
                    peeled_classes.append(counts[c])
                    unpinned -= counts[c]
            return found

        monkeypatch.setattr(_mes_pure, "payment_cap", recording_cap)
        rng = random.Random(28)
        drained = split = peeled = 0
        for _ in range(100):
            n = rng.choice((2, 3, 5, 7))
            instance, profile = shared_wallet_instance(rng, n, 3, rng.random() < 0.5)
            peeled_classes.clear()
            engine, ledger = pure_engine_ledger(instance, profile, counted=True)
            assert ledger == mes_bruteforce(instance, profile)
            drained += 0 in ledger[3].values()
            split += len(set(engine._class)) > 1
            peeled += any(count >= 2 for count in peeled_classes)
        assert drained >= 10
        assert split >= 60
        assert peeled >= 10

    def test_recomputed_bound_ties_go_to_the_tie_order(self):
        # x drains v1, so a's bound 1/3 goes stale; recomputed it is 1/2,
        # equal to b's exact factor, and b is first in the tie order
        projects = (
            Project(id="x", cost=Fraction(4)),
            Project(id="a", cost=Fraction(2)),
            Project(id="b", cost=Fraction(1)),
        )
        approved = {1: "xa", 2: "a", 3: "a", 4: "b", 5: "b", 6: "x", 7: "x", 8: "x"}
        profile = Profile(
            ballots=tuple(
                ApprovalBallot(voter_id=f"v{i}", approved=frozenset(ids))
                for i, ids in approved.items()
            )
        )
        instance = Instance(projects=projects, budget_limit=Fraction(8), meta={})
        _, ledger = pure_engine_ledger(instance, profile)
        assert ledger == mes_bruteforce(instance, profile)
        assert ledger[0] == ["x", "b", "a"]
        assert ledger[1] == {"x": Fraction(1, 4), "b": Fraction(1, 2), "a": Fraction(1, 2)}

    def test_float_ties_are_settled_exactly(self):
        # after p, b's exact factor (S-1)/S is below a's 1 but rounds to
        # the same float: the float key lets b through, and the exact
        # compare then skips a's bound, which is above b's factor
        S = 10**18
        projects = (
            Project(id="p", cost=3 * (S - 1)),
            Project(id="b", cost=S),
            Project(id="a", cost=S),
        )
        approved = {"v1": "pb", "u1": "p", "u2": "p", "v2": "b", "v3": "a"}
        profile = Profile(
            ballots=tuple(ApprovalBallot(vid, frozenset(ids)) for vid, ids in approved.items())
        )
        instance = Instance(projects=projects, budget_limit=5 * S, meta={})
        _, ledger = pure_engine_ledger(instance, profile)
        assert ledger == mes_bruteforce(instance, profile)
        assert ledger[0] == ["p", "b", "a"]
        assert ledger[1]["b"] == Fraction(S - 1, S) and ledger[1]["a"] == 1
        assert float(ledger[1]["b"]) == float(ledger[1]["a"])

    def test_payment_caps_refine_the_unit(self):
        rng = random.Random(27)
        refined = 0
        for _ in range(60):
            n = rng.choice(PRIME_VOTER_COUNTS)
            instance, profile = odd_money_instance(rng, n, rng.random() < 0.5)
            engine, _ = pure_engine_ledger(instance, profile)
            start = math.lcm(
                Fraction(instance.budget_limit, n).denominator,
                *(p.cost.denominator for p in instance.projects),
            )
            refined += engine._units != start
        assert refined >= 30


class TestVoterInvariance:
    """Equal shares reads a voter's wallet and ballot, never the voter:
    cloning every voter or reordering the ballots changes no decision."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), copies=st.sampled_from((2, 3)))
    def test_cloned_voters_pay_a_share_of_the_original(self, seed, copies):
        # k clones of every voter, same limit: each wallet, cap and
        # factor is 1/k of the original's
        instance, profile = helpers.random_instance(random.Random(seed), max_voters=20)
        _, ledger = mes(instance, profile)
        _, cloned = mes(instance, repeated(profile, copies))

        def clone_of(amounts):
            return {f"{v}-{j}": a / copies for v, a in amounts.items() for j in range(copies)}

        assert cloned.selection_order == ledger.selection_order
        assert cloned.affordabilities == {p: f / copies for p, f in ledger.affordabilities.items()}
        assert cloned.payments == {p: clone_of(pays) for p, pays in ledger.payments.items()}
        assert cloned.budgets == clone_of(ledger.budgets)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shuffled_ballots_pay_the_same(self, seed):
        rng = random.Random(seed)
        instance, profile = helpers.random_instance(rng, max_voters=20)
        ballots = list(profile.ballots)
        rng.shuffle(ballots)
        _, ledger = mes(instance, profile)
        _, shuffled = mes(instance, Profile(tuple(ballots)))
        assert shuffled == ledger


class TestSelectionOracle:
    def test_matches_bruteforce(self):
        rng = random.Random(23)
        for _ in range(250):
            instance, profile = helpers.random_instance(rng)
            allocation, ledger = mes(instance, profile)
            order, factors, payments, budgets = mes_bruteforce(instance, profile)
            assert list(ledger.selection_order) == order
            assert ledger.affordabilities == factors
            assert ledger.payments == payments
            assert ledger.budgets == budgets
            assert allocation.selected == set(order)

    def test_ledger_replay_is_stepwise_minimal(self):
        rng = random.Random(24)
        for _ in range(120):
            instance, profile = helpers.random_instance(rng)
            _, ledger = mes(instance, profile)
            budgets = {
                b.voter_id: ledger.initial_share for b in profile.ballots
            }
            remaining = set(instance.project_ids)
            for pid in ledger.selection_order:
                candidates = {}
                for q in remaining:
                    result = affordability_fixed_point(
                        budgets, approver_ids(q, profile), instance.cost_of(q)
                    )
                    if result is not None:
                        candidates[q] = result[0]
                assert pid in candidates
                winner = min(
                    candidates, key=lambda q: (candidates[q], tie_key(instance.project(q)))
                )
                assert winner == pid
                assert candidates[pid] == ledger.affordabilities[pid]
                for vid, amount in ledger.payments[pid].items():
                    budgets[vid] -= amount
                remaining.discard(pid)
            for q in remaining:
                assert (
                    affordability_fixed_point(
                        budgets, approver_ids(q, profile), instance.cost_of(q)
                    )
                    is None
                )


class TestStarOracle:
    def test_matches_bruteforce(self):
        rng = random.Random(25)
        for _ in range(120):
            instance, profile = helpers.random_instance(rng)
            eps = Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
            result = complete_star(instance, profile, epsilon=eps, max_iterations=40)
            selected, chosen, examined, status = star_bruteforce(
                instance, profile, eps, 40
            )
            assert result.allocation.selected == set(selected)
            assert result.chosen_round == chosen
            assert result.rounds_examined == examined
            assert result.status == status
            assert result.budget_used == instance.budget_limit + chosen * eps
            assert result.allocation.total_cost == total_cost(selected, instance)


def certify(instance, profile, selected=None, hint=1):
    """The star search's certificate for buying ``selected`` (project
    indices; by default what the engine buys) at the instance's own
    limit, looking at most a share of 10**6 ahead, with the replay
    starting in units ``hint`` times smaller."""
    engine = pure_engine(instance, profile)
    share = Fraction(instance.budget_limit, profile.voter_count)
    wallet, units = _mes_pure._share_units(share.numerator, share.denominator, engine._cost_den)
    if selected is None:
        engine._reset(wallet, units)
        selected, _, _ = engine._select(record=False)
    return engine._certificate(selected, wallet, units, 10**6, 1, hint)


def round_zero_certificate(instance, profile):
    """s* - s0 of the certificate of round 0 of the equal-shares star
    search, or None when no event lands within a share of 10**6."""
    num, den, _, _ = certify(instance, profile)
    return None if num == 10**6 * den else Fraction(num, den)


def star_instance(rng, max_voters, max_projects=5):
    """A random instance whose limit buys 20% to 80% of the total cost,
    so the star search often goes past round 0."""
    instance, profile = helpers.random_instance(
        rng, max_voters=max_voters, max_projects=max_projects, approval_rate=0.25
    )
    total = sum(p.cost for p in instance.projects)
    limit = total * rng.randint(2, 8) / 10
    return dataclasses.replace(instance, budget_limit=limit), profile


def grown_star_instance(rng, max_voters, max_projects=5):
    """A star_instance whose limit is then raised by 0% to 200%."""
    instance, profile = star_instance(rng, max_voters, max_projects)
    grown = instance.budget_limit * rng.randint(100, 300) / 100
    return dataclasses.replace(instance, budget_limit=grown), profile


def assert_skipping_star_matches(instance, profile, epsilon, oracle_rounds, reference_rounds):
    """The skipping search against star_bruteforce (with the chosen
    round's ledger against mes_bruteforce), unless ``oracle_rounds`` is
    None, and against star_bruteforce over the engine's ``mes``."""
    if oracle_rounds is not None:
        assert_star_matches_bruteforce(instance, profile, epsilon, oracle_rounds)
    fast = complete_star(instance, profile, epsilon=epsilon, max_iterations=reference_rounds)
    slow = helpers.star_reference(instance, profile, epsilon, reference_rounds)
    assert helpers.star_fields(fast) == slow
    assert fast.rounds_run <= fast.rounds_examined


@contextlib.contextmanager
def counting_guesses():
    """Count, by wrapping ``MesEngine._certificate`` and ``_select``, the
    star rounds checked on a guess that appends a project to the last
    selection: ``proven`` when the replay holds, ``refuted`` when it
    fails, and a refuted guess must run the engine before the next
    replay."""
    certificate = _mes_pure.MesEngine._certificate
    select = _mes_pure.MesEngine._select
    counts = SimpleNamespace(proven=0, refuted=0, last=None, pending=False)

    def checked_certificate(engine, selected, *args):
        assert not counts.pending, "a refuted guess was not followed by the engine"
        found = certificate(engine, selected, *args)
        last = counts.last
        if last and last[1] and selected is last[1][2] and len(selected) > len(last[0]):
            counts.proven += found is not None
            counts.refuted += found is None
            counts.pending = found is None
        counts.last = (selected, found)
        return found

    def counted_select(engine, record):
        counts.pending = False
        return select(engine, record)

    with mock.patch.object(_mes_pure.MesEngine, "_certificate", checked_certificate):
        with mock.patch.object(_mes_pure.MesEngine, "_select", counted_select):
            yield counts
    assert not counts.pending


def assert_star_matches_bruteforce(instance, profile, epsilon, oracle_rounds):
    fast = complete_star(instance, profile, epsilon=epsilon, max_iterations=oracle_rounds)
    selected, chosen, examined, status = star_bruteforce(
        instance, profile, epsilon, oracle_rounds
    )
    assert fast.allocation.selected == set(selected)
    assert (fast.chosen_round, fast.rounds_examined, fast.status) == (chosen, examined, status)
    assert fast.budget_used == instance.budget_limit + chosen * epsilon
    assert fast.rounds_run <= fast.rounds_examined
    trial = dataclasses.replace(instance, budget_limit=fast.budget_used)
    ledger = fast.ledger
    assert ledger.run_budget == fast.budget_used
    assert (
        list(ledger.selection_order),
        ledger.affordabilities,
        ledger.payments,
        ledger.budgets,
    ) == tuple(mes_bruteforce(trial, profile))


class TestSkippingStarOracle:
    """The equal-shares star search skips the rounds its certificates
    cover; its outcome must be that of running every round."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), cents=st.integers(1, 100))
    # a voter paying a whole wallet below a cap reaches the cap before
    # any comparison changes sign
    @example(seed=191, cents=10)
    @example(seed=498, cents=3)
    def test_small_epsilons(self, seed, cents):
        # 1/100 to 1 per voter per round: most rounds are skipped
        instance, profile = star_instance(random.Random(seed), 10)
        epsilon = Fraction(profile.voter_count * cents, 100)
        assert_skipping_star_matches(instance, profile, epsilon, 30, 400)

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cost=st.fractions(Fraction(1, 2), 12, max_denominator=4),
        copies=st.integers(2, 3),
        cents=st.integers(1, 400),
    )
    def test_tie_heavy(self, seed, cost, copies, cents):
        # equal costs and duplicated ballots: affordability ties between
        # projects and equal wallets throughout
        rng = random.Random(seed)
        instance, profile = star_instance(rng, 5)
        instance = dataclasses.replace(
            instance,
            projects=tuple(dataclasses.replace(p, cost=cost) for p in instance.projects),
            budget_limit=cost * rng.randint(1, 2 * len(instance.projects)) / 2,
        )
        profile = repeated(profile, copies)
        epsilon = Fraction(profile.voter_count * cents, 100)
        assert_skipping_star_matches(instance, profile, epsilon, 30, 400)

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 3))
    # a project later in the tie order ties the winner on a grid round
    # and beats it just after
    @example(seed=1380, rounds=2)
    # the winner's factor is exactly 1 / (approvers of a project earlier
    # in the tie order), which ties it once all of them are rich enough
    @example(seed=4043, rounds=1)
    def test_event_on_a_grid_round(self, seed, rounds):
        # epsilon puts round 0's first event exactly on round ``rounds``,
        # which must be run, not skipped
        instance, profile = star_instance(random.Random(seed), 10)
        gap = round_zero_certificate(instance, profile)
        if not gap:
            gap = Fraction(1, 3)  # no event, or one tied at round 0
        epsilon = profile.voter_count * gap / rounds
        assert_skipping_star_matches(instance, profile, epsilon, 30, 60)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), cents=st.integers(1, 100))
    # after a peel event the last selection is checked at the next round
    # before it is run; here that check must find a new purchase order
    @example(seed=11, cents=20)
    def test_larger_elections(self, seed, cents):
        # too large for mes_bruteforce: the star reference over the engine only
        instance, profile = star_instance(random.Random(seed), 40, 12)
        epsilon = Fraction(profile.voter_count * cents, 100)
        assert_skipping_star_matches(instance, profile, epsilon, None, 400)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), cents=st.integers(1, 100), copies=st.integers(1, 2))
    def test_appended_guesses_match_the_reference(self, seed, cents, copies):
        # a round expected to buy one project more than the last is first
        # checked by replay; a refuted check runs the engine
        instance, profile = star_instance(random.Random(seed), 40, 12)
        profile = repeated(profile, copies)
        epsilon = Fraction(profile.voter_count * cents, 100)
        with counting_guesses():
            fast = complete_star(instance, profile, epsilon=epsilon, max_iterations=400)
        assert helpers.star_fields(fast) == helpers.star_reference(instance, profile, epsilon, 400)
        assert fast.rounds_run <= fast.rounds_examined

    def test_appended_guesses_are_proven_and_refuted(self):
        # the cases of the test above do prove rounds by an appended
        # guess, and do refute some such guesses
        rng = random.Random(33)
        proven = refuted = 0
        for _ in range(200):
            instance, profile = star_instance(rng, 40, 12)
            profile = repeated(profile, rng.randint(1, 2))
            epsilon = Fraction(profile.voter_count * rng.randint(1, 100), 100)
            with counting_guesses() as checks:
                fast = complete_star(instance, profile, epsilon=epsilon, max_iterations=400)
            slow = helpers.star_reference(instance, profile, epsilon, 400)
            assert helpers.star_fields(fast) == slow
            proven += checks.proven
            refuted += checks.refuted
        assert proven >= 40
        assert refuted >= 20

    def test_projects_reaching_their_cost_together_refute_the_guess(self):
        # v1 approves a (cost 1), v2 and v3 approve b (cost 2), v4 nothing:
        # at round 0's share of 3/4 neither is affordable, and both become
        # affordable at a share of 1, first reached by round 4.  The
        # certificate guesses one project more, b; the check finds a
        # affordable too, so the engine runs and buys both, which
        # completes the limit of 3.
        instance = Instance(
            projects=(Project(id="a", cost=Fraction(1)), Project(id="b", cost=Fraction(2))),
            budget_limit=Fraction(3),
            meta={},
        )
        approved = ({"a"}, {"b"}, {"b"}, set())
        profile = Profile(
            tuple(ApprovalBallot(f"v{i + 1}", frozenset(a)) for i, a in enumerate(approved))
        )
        epsilon = Fraction(3, 10)
        with counting_guesses() as checks:
            fast = complete_star(instance, profile, epsilon=epsilon, max_iterations=100)
        assert (checks.proven, checks.refuted) == (0, 1)
        assert helpers.star_fields(fast) == helpers.star_reference(instance, profile, epsilon, 100)
        assert (fast.status, fast.chosen_round, fast.rounds_run) == ("complete", 4, 2)
        assert fast.allocation.selected == {"a", "b"}

    def test_pinned_search_beyond_the_oracle(self):
        # 300 voters and 19 projects, one cent more per round: too large
        # for the references, so the outcome and the rounds run are
        # pinned; the search examines 2533 rounds and runs 154
        rng = random.Random(10)
        instance, profile = helpers.random_instance(
            rng, max_voters=300, max_projects=24, approval_rate=0.2, min_voters=300
        )
        total = sum(p.cost for p in instance.projects)
        instance = dataclasses.replace(instance, budget_limit=total * rng.randint(2, 5) / 10)
        fast = complete_star(instance, profile, epsilon=Fraction(1, 100))
        assert (fast.status, fast.chosen_round, fast.rounds_examined, fast.rounds_run) == (
            "complete",
            2532,
            2533,
            154,
        )
        assert sorted(fast.allocation.selected, key=lambda pid: int(pid[1:])) == [
            f"p{j}" for j in (1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18)
        ]

    # run_star's tuple (selected, chosen_round, rounds_examined, status,
    # rounds_run) on small_share_election(Random(seed), 25 + 5 * (seed % 6),
    # 10 + seed % 5, cents=seed % 2 == 1) at one cent per voter per round
    PINNED_STAR_COUNTS = {
        0: ([7, 8, 9, 2, 3, 4, 5], 51, 52, "complete", 9),
        1: ([6, 7, 0, 3, 5, 8], 27, 28, "complete", 13),
        2: ([3, 4, 2, 10, 11, 7], 26, 27, "complete", 9),
        3: ([4, 9, 0, 6, 2, 3, 5, 11, 1, 8], 38, 39, "complete", 25),
        4: ([10, 1, 12, 9, 13, 2, 0, 4, 3, 11], 165, 167, "next_infeasible", 21),
        5: ([0, 9, 6, 4, 7], 56, 58, "next_infeasible", 11),
        6: ([4, 9, 10, 3, 8, 2], 35, 36, "complete", 10),
        7: ([5, 8, 1, 10, 6, 0, 11], 55, 57, "next_infeasible", 14),
        8: ([10, 0, 12, 4, 7, 9, 5], 41, 43, "next_infeasible", 11),
        9: ([0, 5, 7, 9, 13, 2, 1, 10, 4], 69, 71, "next_infeasible", 24),
        10: ([2, 1, 8, 3, 7, 9], 33, 34, "complete", 8),
        11: ([5, 6, 3, 8, 10, 7], 47, 48, "complete", 10),
    }

    @staticmethod
    def small_share_case(seed):
        rng = random.Random(seed)
        instance, profile = helpers.small_share_election(
            rng, 25 + 5 * (seed % 6), 10 + seed % 5, cents=seed % 2 == 1
        )
        return instance, profile, Fraction(profile.voter_count, 100)

    @pytest.mark.parametrize("seed", sorted(PINNED_STAR_COUNTS))
    def test_star_counts_are_pinned(self, seed):
        # `run` prints rounds_run, so a faster search must run exactly the
        # rounds it ran before, not only reach the same outcome
        instance, profile, epsilon = self.small_share_case(seed)
        found = pure_engine(instance, profile).run_star(instance.budget_limit, epsilon, 10_000)
        assert found == self.PINNED_STAR_COUNTS[seed]

    def test_star_search_leaves_no_state_behind(self):
        # complete_star replays the chosen round on the search's engine:
        # a second search, and a run after a search, must equal a fresh
        # engine's
        for seed in range(6):
            instance, profile, epsilon = self.small_share_case(seed)
            budget = instance.budget_limit
            engine = pure_engine(instance, profile)
            first = engine.run_star(budget, epsilon, 10_000)
            assert engine.run_star(budget, epsilon, 10_000) == first
            assert first == pure_engine(instance, profile).run_star(budget, epsilon, 10_000)
            share = (budget + first[1] * epsilon) / profile.voter_count
            fresh = pure_engine(instance, profile).run(share, want_ledger=True)
            replay = engine.run(share, want_ledger=True)
            assert replay[:3] == fresh[:3]
            assert replay[0] == first[0]
            classes, wallets, units = replay[3]
            fresh_classes, fresh_wallets, fresh_units = fresh[3]
            assert units == fresh_units
            assert [wallets[c] for c in classes] == [fresh_wallets[c] for c in fresh_classes]

    @pytest.mark.parametrize("limit", [2, 3])
    def test_certificate_checks_what_equal_shares_buys(self, limit):
        # b costs 1 and only v1 approves it (factor 1); q costs 2 and v1
        # and v2 approve it (factor 1/2), so equal shares buys q alone.  At
        # a limit of 2 q's approvers pay all they have at b's factor: as
        # far as wallets go q ties b, yet its factor is lower.
        b, q = 0, 1
        instance = Instance(
            projects=(Project(id="b", cost=Fraction(1)), Project(id="q", cost=Fraction(2))),
            budget_limit=Fraction(limit),
            meta={},
        )
        profile = Profile(
            (ApprovalBallot("v1", frozenset({"b", "q"})), ApprovalBallot("v2", frozenset({"q"})))
        )
        assert certify(instance, profile) == certify(instance, profile, [q])
        assert certify(instance, profile, [q]) is not None
        assert certify(instance, profile, [b]) is None  # q is cheaper
        assert certify(instance, profile, [q, b]) is None  # b is unaffordable after q
        assert certify(instance, profile, []) is None  # q is affordable

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1))
    # a cap slope that is not a whole number of units: flooring it, as a
    # refine that looks at the cap alone would, moves the first event
    @example(seed=0)
    @example(seed=75)
    @example(seed=93)
    @example(seed=98)
    def test_certificate_does_not_depend_on_the_hint(self, seed):
        # the hint only picks the starting unit, so the first event, its
        # kind and the payer product are the same for any hint
        rng = random.Random(seed)
        instance, profile = grown_star_instance(rng, 60, 12)
        num, den, peel, payers = certify(instance, profile)
        for hint in (payers, rng.randint(2, 10**6)):
            other = certify(instance, profile, hint=hint)
            assert (Fraction(other[0], other[1]), *other[2:]) == (Fraction(num, den), peel, payers)

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shares_before_the_event_buy_the_same(self, seed):
        # the certificate invariant against the definition: shares short
        # of the first event buy what s0 buys, in the same order
        instance, profile = grown_star_instance(random.Random(seed), 10)
        gap = round_zero_certificate(instance, profile)
        assume(gap)
        order = mes_bruteforce(instance, profile)[0]
        for part in (Fraction(1, 2), Fraction(999, 1000)):
            trial = dataclasses.replace(
                instance, budget_limit=instance.budget_limit + profile.voter_count * gap * part
            )
            assert mes_bruteforce(trial, profile)[0] == order

    def test_events_land_on_grid_rounds(self):
        # the events test_event_on_a_grid_round aims at are mostly real
        rng = random.Random(26)
        gaps = [round_zero_certificate(*star_instance(rng, 10)) for _ in range(60)]
        assert sum(1 for gap in gaps if gap) >= 30


def district_instance(rng, crossers):
    """The four-district example with 1 to 6 voters per district, 1 to 4
    projects each at random costs and a random limit; then ``crossers``
    voters also approve one project of another district."""
    instance, profile = build_district_example(
        [rng.randint(1, 6) for _ in range(4)],
        Fraction(rng.randint(10, 120), rng.choice((1, 2))),
        projects_per_district=rng.randint(1, 4),
        cost_model=lambda r, d, j: Fraction(r.randint(1, 30), r.choice((1, 2, 3))),
        seed=rng.randrange(2**32),
    )
    ballots = list(profile.ballots)
    for i in rng.sample(range(len(ballots)), min(crossers, len(ballots))):
        ballot = ballots[i]
        other = [p.id for p in instance.projects if p.id not in ballot.approved]
        ballots[i] = ApprovalBallot(ballot.voter_id, ballot.approved | {rng.choice(other)})
    return instance, Profile(tuple(ballots))


class TestSparseElections:
    """Voters who approve only their own district's projects, and a few
    who cross into another: a purchase leaves the factors of every other
    district where they were.  The engine recomputes every factor after
    each purchase all the same; the outcome must not change."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), crossers=st.integers(0, 3), counted=st.booleans())
    def test_ledger_matches_bruteforce(self, seed, crossers, counted):
        instance, profile = district_instance(random.Random(seed), crossers)
        _, ledger = pure_engine_ledger(instance, profile, counted)
        assert ledger == mes_bruteforce(instance, profile)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        crossers=st.integers(0, 3),
        cents=st.integers(1, 100),
    )
    def test_skipping_star_matches_generic(self, seed, crossers, cents):
        instance, profile = district_instance(random.Random(seed), crossers)
        epsilon = Fraction(profile.voter_count * cents, 100)
        assert_skipping_star_matches(instance, profile, epsilon, 30, 200)


def random_feasible_base(rng, instance):
    """A random subset of the projects that fits in the budget limit."""
    chosen = []
    left = instance.budget_limit
    for project in rng.sample(instance.projects, len(instance.projects)):
        if rng.random() < 0.5 and project.cost <= left:
            chosen.append(project.id)
            left -= project.cost
    return Allocation.of(chosen, instance)


class TestTopUpOracle:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mes_base=st.booleans(),
        tie_heavy=st.booleans(),
    )
    def test_matches_bruteforce(self, seed, mes_base, tie_heavy):
        rng = random.Random(seed)
        instance, profile = helpers.random_instance(rng)
        if tie_heavy:
            # few distinct costs and a tight limit, so score and cost ties
            # reach the id
            instance = Instance(
                projects=tuple(
                    dataclasses.replace(p, cost=Fraction(rng.randint(1, 3)))
                    for p in instance.projects
                ),
                budget_limit=Fraction(rng.randint(1, 8)),
                meta=instance.meta,
            )
        if mes_base:
            base, _ = mes(instance, profile)
        else:
            base = random_feasible_base(rng, instance)
        completed = complete_with_secondary(base, instance, profile)
        assert completed.selected == topup_bruteforce(base.selected, instance, profile)
        assert completed.total_cost == total_cost(completed.selected, instance)
        assert is_complete(completed, instance)


def cross_digit_instance(rng):
    """Six projects of one cost with ids ``p8`` ... ``p13`` in numeric
    order, so the plain string order of the ids (``"p10"`` before
    ``"p8"``) differs from both the numeric and the instance order; with
    at most six voters, approval counts tie too."""
    cost = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
    projects = tuple(Project(id=f"p{j}", cost=cost) for j in range(8, 14))
    n = rng.randint(2, 6)
    approved = [set() for _ in range(n)]
    for project in projects:
        for i in rng.sample(range(n), rng.randint(1, n)):
            approved[i].add(project.id)
    profile = Profile(
        tuple(ApprovalBallot(f"v{i + 1}", frozenset(a)) for i, a in enumerate(approved))
    )
    return Instance(projects=projects, budget_limit=cost * rng.randint(1, 11) / 2), profile


class TestCrossDigitTieOrder:
    """Every rule against the oracle when cost ties reach ids whose
    string and numeric orders differ."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 2), cents=st.integers(1, 300))
    def test_rules_match_the_oracle(self, seed, copies, cents):
        instance, profile = cross_digit_instance(random.Random(seed))
        profile = repeated(profile, copies)
        allocation, ledger = mes(instance, profile)
        assert (
            list(ledger.selection_order),
            ledger.affordabilities,
            ledger.payments,
            ledger.budgets,
        ) == tuple(mes_bruteforce(instance, profile))
        assert greed_cost(instance, profile).selected == topup_bruteforce((), instance, profile)
        completed = complete_with_secondary(allocation, instance, profile)
        assert completed.selected == topup_bruteforce(allocation.selected, instance, profile)
        epsilon = Fraction(profile.voter_count * cents, 100)
        assert_star_matches_bruteforce(instance, profile, epsilon, 30)


DECIMAL_DENOMS = (1, 2, 4, 5, 8, 20, 100, 2**30 * 5**2)
# Denominators of 239 to 264 digits, none of them a finite decimal.
HUGE_DENOMS = (3**500, 7**300 * 2**9, 11**250 * 5**4 * 3)


def random_rendering_case(rng, n, huge, group_sizes, split_middle, escaped=False):
    """A ledger built from hand-made wallet-class groups, and a matching
    instance, for the renderers.

    ``group_sizes`` gives one purchase per entry with 1, "few" (2 to 8)
    or "many" (more than 8) payers; with none, nothing is bought and the
    instance holds one project.  Each purchase takes its unit from a
    small pool, so purchases share units or differ in them, and its
    amounts from one pool of ints that every unit draws from, so one
    amount appears under two units.  Units and amounts are often
    multiples of 2 and 3, so ``_texts`` must reduce them, and two
    classes, of a purchase or of the final wallets, often hold the same
    amount.  ``huge`` adds denominators of hundreds of digits, none of
    them a finite decimal.  With ``split_middle`` the lower half of the
    voters sit in classes with strictly smaller wallets than the upper
    half, so for an even ``n`` the two middle wallets differ.  With
    ``escaped`` every voter and project id holds characters from
    ``helpers.ESCAPED``.
    """

    def ident(prefix, i):
        if not escaped:
            return f"{prefix}{i}"
        return f"{prefix}{''.join(rng.choices(helpers.ESCAPED, k=rng.randint(1, 3)))}{i}"

    def amount(unit):
        return rng.randint(0, 40 * unit) * rng.choice((1, 6))

    dens = DECIMAL_DENOMS + (HUGE_DENOMS if huge else ())
    pool = [Fraction(rng.randint(0, 40 * d), d) for d in rng.choices(dens, k=rng.randint(1, 6))]
    units = [d * rng.choice((1, 2, 3, 12)) for d in rng.choices(dens, k=rng.randint(1, 3))]
    amounts = [amount(u) + 1 for u in rng.choices(units, k=rng.randint(1, 6))]
    voters = [ident("v", i + 1) for i in range(n)]
    rng.shuffle(voters)

    projects, purchases, factors = [], {}, {}
    for j, size in enumerate(group_sizes):
        pid = ident("p", j + 1)
        if size == "many" and n > 8:
            k = rng.randint(9, n)
        elif size == 1:
            k = 1
        else:
            k = rng.randint(min(2, n), min(8, n))
        classes = rng.choices(rng.sample(range(50), rng.randint(1, 4)), k=k)
        paid = [rng.choice(amounts)] if rng.random() < 0.3 else amounts
        paid = {c: rng.choice(paid) for c in dict.fromkeys(classes)}
        purchases[pid] = (sorted(rng.sample(range(n), k)), classes, paid, rng.choice(units))
        factors[pid] = rng.choice(pool)
        name = f"Project {j + 1}" if rng.random() < 0.5 else None
        projects.append(Project(id=pid, cost=rng.choice(pool) + 1, name=name))
    if not projects:
        projects.append(Project(id=ident("p", 1), cost=rng.choice(pool) + 1))
    instance = Instance(projects=tuple(projects), budget_limit=rng.choice(pool) + 1)

    unit = rng.choice(units)
    wallets = rng.choices([amount(unit) for _ in range(rng.randint(1, 4))], k=rng.randint(1, 6))
    if split_middle:
        values = sorted(set(wallets))
        if len(values) == 1:
            wallets.append(values[0] + 1)
            values.append(values[0] + 1)
        cut = values[rng.randint(1, len(values) - 1)]
        low = [c for c, wallet in enumerate(wallets) if wallet < cut]
        high = [c for c, wallet in enumerate(wallets) if wallet >= cut]
        classes = rng.choices(low, k=n // 2) + rng.choices(high, k=n - n // 2)
        rng.shuffle(classes)
    else:
        classes = rng.choices(range(len(wallets)), k=n)
    ledger = MesLedger(
        run_budget=rng.choice(pool),
        initial_share=rng.choice(pool),
        selection_order=tuple(rng.sample(list(purchases), len(purchases))),
        affordabilities=factors,
        voters=tuple(voters),
        purchases=purchases,
        final=(classes, wallets, unit),
    )
    return ledger, instance


def assert_renderings_match(ledger, instance):
    oracle_dict = ledger_json_dict(ledger)
    assert ledger.to_json() == json.dumps(oracle_dict, indent=2)
    assert emit_trace(ledger, instance) == trace_text(ledger, instance)


class TestRenderingOracle:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(1, 12), st.integers(13, 40)),
        huge=st.booleans(),
        group_sizes=st.lists(st.sampled_from((1, "few", "many")), max_size=5),
        split_middle=st.booleans(),
        escaped=st.booleans(),
    )
    @example(seed=0, n=3, huge=False, group_sizes=[], split_middle=False, escaped=True)
    def test_matches_per_value_rendering(self, seed, n, huge, group_sizes, split_middle, escaped):
        ledger, instance = random_rendering_case(
            random.Random(seed), n, huge, group_sizes, split_middle, escaped
        )
        if split_middle and n % 2 == 0:
            wallets = sorted(ledger.budgets.values())
            assert wallets[n // 2 - 1] < wallets[n // 2]
        assert_renderings_match(ledger, instance)

    def test_cases_cover_the_group_shapes(self):
        # each shape of group the renderers meet, in many of the cases:
        # two classes paying the same amount, an amount to reduce,
        # purchases in different units and one amount under two units
        rng = random.Random(34)
        equal = reduced = units_differ = one_amount_two_units = 0
        for k in range(200):
            sizes = rng.choices((1, "few", "many"), k=rng.randint(1, 5))
            ledger, instance = random_rendering_case(
                rng, rng.randint(1, 40), k % 4 == 0, sizes, rng.random() < 0.5, k % 3 == 0
            )
            assert_renderings_match(ledger, instance)
            groups = list(ledger.purchases.values())
            units_of = {}
            for _, _, amounts, units in groups:
                equal += len(set(amounts.values())) < len(amounts)
                reduced += any(math.gcd(amount, units) > 1 for amount in amounts.values())
                for amount in amounts.values():
                    units_of.setdefault(amount, set()).add(units)
            units_differ += len({units for *_, units in groups}) > 1
            one_amount_two_units += any(len(units) > 1 for units in units_of.values())
        assert min(equal, reduced, units_differ, one_amount_two_units) >= 40

    def test_ledger_without_purchases(self):
        # no project is affordable: the engine's ledger buys nothing
        instance = Instance(
            projects=(Project(id='p"1', cost=Fraction(100)),), budget_limit=Fraction(3, 7)
        )
        profile = Profile(tuple(ApprovalBallot(f"v\\{i}", frozenset({'p"1'})) for i in range(3)))
        _, ledger = mes(instance, profile)
        assert not ledger.selection_order and not ledger.payments
        assert_renderings_match(ledger, instance)

    def test_engine_ledgers_match(self):
        rng = random.Random(31)
        specs = (RuleSpec(Variant.MES), RuleSpec(Variant.MES_STAR_PLUS, max_iterations=60))
        cases = 0
        for k in range(80):
            if k % 2:
                instance, profile = odd_money_instance(rng, rng.choice(PRIME_VOTER_COUNTS), k % 4 == 1)
            else:
                instance, profile = helpers.random_instance(rng, max_voters=30, max_projects=8)
            for spec in specs:
                assert_renderings_match(run_rule(spec, instance, profile).ledger, instance)
                cases += profile.voter_count > 12
        assert cases >= 40

    def test_large_engine_ledgers_match(self):
        # the groups of 100 to 400 voters: counted waterfills, refined
        # units, purchases of many payers paying mixed amounts and the
        # wallet summary; half the ledgers render the trace first
        rng = random.Random(32)
        specs = (RuleSpec(Variant.MES), RuleSpec(Variant.MES_STAR_PLUS, max_iterations=20))
        counted = refined = mixed = 0
        for k in range(24):
            instance, profile = cent_election(rng, rng.randint(100, 400))
            approvers = compile_election(instance, profile).approvers
            index = {p.id: j for j, p in enumerate(instance.projects)}
            for spec in specs:
                ledger = run_rule(spec, instance, profile).ledger
                if k % 2:
                    trace = emit_trace(ledger, instance)
                    text = ledger.to_json()
                else:
                    text = ledger.to_json()
                    trace = emit_trace(ledger, instance)
                assert text == json.dumps(ledger_json_dict(ledger), indent=2)
                assert trace == trace_text(ledger, instance)
                groups = [ledger.purchases[pid] for pid in ledger.selection_order]
                counted += any(
                    len(approvers[index[pid]]) >= _mes_pure.MesEngine._count_from
                    for pid in ledger.selection_order[1:]
                )
                refined += len({units for *_, units in groups}) > 1
                mixed += any(
                    len(payers) > 8 and len(set(amounts.values())) > 1
                    for payers, _, amounts, _ in groups
                )
        assert counted >= 25
        assert refined >= 30
        assert mixed >= 25

    def test_reads_are_cached_and_renderings_repeat(self):
        # the dicts are built once; the trace or the JSON first, or
        # either twice, gives the same bytes; ledgers compare by their
        # public fields, have no hash and cannot be assigned to
        rng = random.Random(33)
        for k in range(40):
            if k % 2:
                instance, profile = cent_election(rng, rng.randint(100, 200))
            else:
                instance, profile = helpers.random_instance(rng, max_voters=30, max_projects=8)
            _, first = mes(instance, profile)
            text, trace = first.to_json(), emit_trace(first, instance)
            assert first.to_json() == text and emit_trace(first, instance) == trace
            _, ledger = mes(instance, profile)
            assert emit_trace(ledger, instance) == trace and ledger.to_json() == text
            assert emit_trace(ledger, instance) == trace and ledger.to_json() == text
            assert ledger.payments is ledger.payments and ledger.budgets is ledger.budgets
            assert ledger == first and first == ledger
            classes, wallets, units = ledger.final
            poorer = dataclasses.replace(ledger, final=(classes, [w + 1 for w in wallets], units))
            assert ledger != poorer and poorer != ledger
            assert ledger != dataclasses.replace(ledger, run_budget=ledger.run_budget + 1)
        # a non-ledger is compared by the other side, and is never equal
        assert ledger.__eq__(object()) is NotImplemented
        assert not ledger == object() and ledger != object()
        with pytest.raises(TypeError):
            hash(ledger)
        with pytest.raises(AttributeError):
            ledger.budgets = {}
        with pytest.raises(AttributeError):
            ledger.voters = ()


ORPHAN = "p0"


def metric_case(rng, single_voter, approval_rate, with_categories, orphan):
    """A random instance with costs of mixed denominators.  At approval
    rate 0 every ballot is empty but for the one forced approver of each
    project; ``orphan`` adds a project nobody approves."""
    instance, profile = helpers.random_instance(
        rng,
        max_voters=1 if single_voter else 14,
        max_projects=7,
        with_categories=with_categories,
        approval_rate=approval_rate,
    )
    if orphan:
        extra = Project(
            id=ORPHAN,
            cost=Fraction(rng.randint(1, 40), rng.choice(helpers.ANY_DENOMS)),
            categories=frozenset(rng.sample(helpers.CATEGORY_POOL, rng.randint(0, 1))),
        )
        instance = dataclasses.replace(instance, projects=instance.projects + (extra,))
    return instance, profile


def metric_allocation(rng, kind, instance, profile) -> frozenset[str]:
    ids = [p.id for p in instance.projects]
    if kind == "empty":
        return frozenset()
    if kind == "all":
        return frozenset(ids)
    if kind == "orphan":  # funds nobody's project when there is one
        return frozenset({ORPHAN} & set(ids))
    if kind == "subset":
        return frozenset(rng.sample(ids, rng.randint(1, len(ids))))
    spec = RuleSpec(Variant(kind))
    return run_rule(spec, instance, profile).allocation.selected


METRIC_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    single_voter=st.booleans(),
    approval_rate=st.sampled_from((0.0, 0.15, 0.4, 0.8)),
    with_categories=st.booleans(),
    orphan=st.booleans(),
)
ALLOCATION_KINDS = ("empty", "all", "orphan", "subset", "greedcost", "mes", "mes+")


class TestMetricsOracle:
    @settings(max_examples=300)
    @given(
        **METRIC_CASES,
        kind=st.sampled_from(ALLOCATION_KINDS),
        baseline_kind=st.sampled_from(ALLOCATION_KINDS),
    )
    def test_metric_rows_match_definition(
        self, seed, single_voter, approval_rate, with_categories, orphan, kind, baseline_kind
    ):
        rng = random.Random(seed)
        instance, profile = metric_case(rng, single_voter, approval_rate, with_categories, orphan)
        chosen = metric_allocation(rng, kind, instance, profile)
        baseline = metric_allocation(rng, baseline_kind, instance, profile)
        expected = oracle.metric_row(instance, profile, kind, chosen, baseline)
        allocation = helpers.allocation_of(chosen, instance)
        row = metric_row(
            instance, profile, kind, allocation, helpers.allocation_of(baseline, instance)
        )
        assert row == expected
        for column in ("similarity", "avg_satisfaction", "gini_cost", "gini_effort", "happiness"):
            assert type(row[column]) is Fraction

        # the per-voter ints behind the rows, scaled back to fractions
        election = compile_election(instance, profile)
        funded = election.funded(allocation)
        limit = instance.budget_limit * election.cost_den
        satisfaction = [x / limit for x in election.per_voter(funded)]
        assert satisfaction == oracle.cost_satisfaction(profile, chosen, instance)
        weights, scale = election.effort_weights(funded)
        efforts = [Fraction(x, election.cost_den * scale) for x in election.per_voter(weights)]
        assert efforts == oracle.effort(profile, chosen, instance)
        assert gini(satisfaction) == oracle.gini(satisfaction)
        assert gini(efforts) == oracle.gini(efforts)

        report = category_proportionality(profile, instance, allocation)
        expected_report = oracle.category_report(profile, instance, chosen)
        if expected_report is None:
            assert report is None
        else:
            entries, excluded, rms, proportionality = expected_report
            assert [(e.label, e.voter_share, e.rule_share) for e in report.entries] == entries
            assert (report.excluded_voters, report.disproportionality) == (excluded, rms)
            assert report.proportionality == proportionality
        for label in instance.category_labels + ("unused",):
            assert voter_category_share(profile, instance, label) == (
                oracle.voter_category_share(profile, instance, label)
            )
        assert dataclasses.asdict(instance_stats(instance, profile)) == (
            oracle.instance_stats(instance, profile)
        )

    @settings(max_examples=200)
    @given(
        **METRIC_CASES,
        kinds=st.lists(st.sampled_from(ALLOCATION_KINDS), min_size=2, max_size=4),
        baseline_kind=st.sampled_from(ALLOCATION_KINDS),
    )
    def test_rows_of_several_rules_match_definition(
        self, seed, single_voter, approval_rate, with_categories, orphan, kinds, baseline_kind
    ):
        rng = random.Random(seed)
        instance, profile = metric_case(rng, single_voter, approval_rate, with_categories, orphan)
        chosen = [metric_allocation(rng, kind, instance, profile) for kind in kinds]
        baseline = metric_allocation(rng, baseline_kind, instance, profile)
        rows = instance_rows(
            instance,
            profile,
            [(kind, helpers.allocation_of(ids, instance)) for kind, ids in zip(kinds, chosen)],
            helpers.allocation_of(baseline, instance),
        )
        assert rows == [
            oracle.metric_row(instance, profile, kind, ids, baseline)
            for kind, ids in zip(kinds, chosen)
        ]

    def test_packed_slots_are_just_wide_enough(self):
        # v1 approves every project, so each voter sum of v1 is its
        # column's total: every slot reaches its bound
        instance = Instance(
            projects=tuple(
                Project(pid, cost) for pid, cost in
                (("a", Fraction(7, 2)), ("b", Fraction(5)), ("c", Fraction(9, 4)))
            ),
            budget_limit=Fraction(20),
        )
        profile = Profile(
            tuple(
                ApprovalBallot(vid, frozenset(ids))
                for vid, ids in (("v1", "abc"), ("v2", "ab"), ("v3", "c"), ("v4", ""))
            )
        )
        election = compile_election(instance, profile)
        columns = []
        for ids in ("abc", "ab", "bc"):
            funded = election.funded(helpers.allocation_of(ids, instance))
            columns += funded, election.effort_weights(funded)[0]
        widths = [sum(column).bit_length() for column in columns]
        expected = [election.per_voter(column) for column in columns]
        assert [sums[0] for sums in expected] == [sum(column) for column in columns]
        assert list(map(list, _per_voter_sums(election, columns, widths))) == expected
        for k in range(len(columns)):
            narrower = widths[:k] + [widths[k] - 1] + widths[k + 1 :]
            assert list(_per_voter_sums(election, columns, narrower)[k]) != expected[k]
        outcomes = [(ids, helpers.allocation_of(ids, instance)) for ids in ("abc", "ab", "bc")]
        rows = instance_rows(instance, profile, outcomes, outcomes[1][1])
        assert rows == [
            oracle.metric_row(instance, profile, ids, frozenset(ids), frozenset("ab"))
            for ids in ("abc", "ab", "bc")
        ]
        assert instance_rows(instance, profile, [], outcomes[0][1]) == []

    @settings(max_examples=200)
    @given(**METRIC_CASES, star=st.booleans(), precompiled=st.booleans())
    def test_effect_reports_match_definition(
        self, seed, single_voter, approval_rate, with_categories, orphan, star, precompiled
    ):
        rng = random.Random(seed)
        instance, profile = metric_case(rng, single_voter, approval_rate, with_categories, orphan)
        spec = RuleSpec(Variant.MES_STAR_PLUS if star else Variant.MES_PLUS, max_iterations=40)
        if precompiled:
            compile_election(instance, profile)
        result = run_rule(spec, instance, profile)
        # an unpickled profile carries no election and compiles its own
        assert result == run_rule(spec, instance, pickle.loads(pickle.dumps(profile)))
        report = _effect_worker(instance, profile, spec)
        expected = oracle.effect_report(
            instance,
            profile,
            greed_cost(instance, profile).selected,
            result.allocation.selected,
        )
        if expected is None:
            assert report is None
        else:
            assert report.effect == expected["effect"]
            bars = [
                (bar.label, bar.voter_share, bar.greed_share, bar.mes_share)
                for bar in report.category_bars
            ]
            assert bars == expected["bars"]
            assert report.greed_curve == expected["greed_curve"]
            assert report.mes_curve == expected["mes_curve"]

        first = metric_allocation(rng, "subset", instance, profile)
        second = metric_allocation(rng, rng.choice(ALLOCATION_KINDS), instance, profile)
        expected = oracle.effect_report(instance, profile, first, second)
        score = effect_score(
            instance,
            profile,
            helpers.allocation_of(first, instance),
            helpers.allocation_of(second, instance),
        )
        assert score == (None if expected is None else expected["effect"])
