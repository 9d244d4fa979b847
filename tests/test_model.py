"""Model layer: money parsing, validation, allocations, the district builder."""

import dataclasses
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from pbrules.model import (
    Allocation,
    ApprovalBallot,
    Instance,
    Profile,
    Project,
    build_district_example,
    compile_election,
    decimal_string,
    format_money,
    id_sort_key,
    is_complete,
    money,
    parse_money,
    total_cost,
)
from pbrules.pabulib import parse_pabulib, write_pabulib


# Odd, not a multiple of 5, and 159 digits long.
LARGE_ODD = 3**301 * 7 * 11


def decimal_by_definition(value, max_places=200):
    """The shortest exact decimal of ``value``, found by trying 0, 1, 2,
    ... places; None when no count up to ``max_places`` is exact."""
    for places in range(max_places + 1):
        scaled = value * 10**places
        if scaled.denominator == 1:
            digits = str(scaled.numerator).rjust(places + 1, "0")
            return f"{digits[:-places]}.{digits[-places:]}" if places else digits
    return None


def make_instance(costs, budget, ids=None):
    ids = ids or [f"p{i + 1}" for i in range(len(costs))]
    return Instance(
        projects=tuple(Project(id=i, cost=Fraction(c)) for i, c in zip(ids, costs)),
        budget_limit=Fraction(budget),
    )


class TestMoney:
    def test_accepts_int_str_fraction(self):
        assert money(3) == Fraction(3)
        assert money("12.50") == Fraction(25, 2)
        assert money(Fraction(7, 3)) == Fraction(7, 3)

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            money(1.5)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            money(True)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            money(-1)
        with pytest.raises(ValueError):
            money(Fraction(-1, 2))

    @pytest.mark.parametrize(
        "text", ["", "-5", "1,000", "1e3", "€5", "5.", ".5", "1.2.3", "  "]
    )
    def test_parse_rejects_junk(self, text):
        with pytest.raises(ValueError):
            parse_money(text)

    def test_parse_whitespace_tolerant(self):
        assert parse_money(" 250000 ") == Fraction(250000)

    def test_parse_is_the_decimal_value(self):
        # leading zeros, 0-6 places, some of them trailing zeros
        rng = random.Random(7)
        for _ in range(2000):
            text = "0" * rng.randint(0, 3) + str(rng.randint(0, 10 ** rng.randint(0, 9)))
            places = rng.randint(0, 6)
            if places:
                zeros = rng.randint(0, places)
                digits = "".join(rng.choice("0123456789") for _ in range(places - zeros))
                text += "." + digits + "0" * zeros
            assert parse_money(text) == Fraction(Decimal(text)), text

    def test_decimal_string_exact(self):
        assert decimal_string(Fraction(25, 2)) == "12.5"
        assert decimal_string(Fraction(1, 8)) == "0.125"
        assert decimal_string(Fraction(3)) == "3"
        assert decimal_string(Fraction(1, 3)) is None

    # stop at the first failing example: a wrong twos count can turn the
    # fives loop into an endless one on the examples that follow
    @settings(max_examples=300, report_multiple_bugs=False)
    @given(
        st.integers(0, 10**40),
        st.integers(0, 80),
        st.integers(0, 80),
        st.sampled_from((1, LARGE_ODD)),
        st.booleans(),
    )
    @example(3, 80, 80, LARGE_ODD, True)
    @example(0, 7, 3, LARGE_ODD, False)
    @example(250000, 0, 0, 1, False)
    @example(0, 0, 0, 1, False)
    def test_decimal_string_matches_definition(self, units, twos, fives, odd, cancel):
        """Denominators 2^a * 5^b * r; with ``cancel`` the numerator is a
        multiple of r, so r cancels and the value is a finite decimal."""
        value = Fraction(units * (odd if cancel else 1), 2**twos * 5**fives * odd)
        assert decimal_string(value) == decimal_by_definition(value)

    def test_format_money_falls_back_to_fraction(self):
        assert format_money(Fraction(1, 3)) == "1/3"
        assert format_money(Fraction(25, 2)) == "12.5"

    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_parse_round_trips_decimal_string(self, units, places):
        value = Fraction(units, 10**places)
        text = decimal_string(value)
        assert text is not None
        assert parse_money(text) == value


class TestIdSortKey:
    def test_other_unicode_digits_sort_as_text(self):
        # "²".isdigit() is True but int("²") raises
        assert id_sort_key("²") == (1, 0, "²")


class TestValidation:
    def test_project_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            Project(id="p", cost=Fraction(0))
        with pytest.raises(ValueError):
            Project(id="", cost=Fraction(1))

    def test_instance_rejects_duplicates_and_empty(self):
        p = Project(id="p", cost=Fraction(1))
        with pytest.raises(ValueError):
            Instance(projects=(p, p), budget_limit=Fraction(1))
        with pytest.raises(ValueError):
            Instance(projects=(), budget_limit=Fraction(1))
        with pytest.raises(ValueError):
            Instance(projects=(p,), budget_limit=Fraction(0))

    def test_profile_rejects_duplicate_voters(self):
        b = ApprovalBallot("v", frozenset())
        with pytest.raises(ValueError, match="duplicate voter id 'v'"):
            Profile(ballots=(b, b))
        # the first ballot whose id came before, not the first id that repeats
        ballots = [ApprovalBallot(vid, frozenset()) for vid in ("a", "b", "b", "a")]
        with pytest.raises(ValueError, match="duplicate voter id 'b'"):
            Profile(ballots=ballots)
        with pytest.raises(ValueError):
            Profile(ballots=())

    def test_ballot_needs_a_voter_id(self):
        with pytest.raises(ValueError, match="voter id must be non-empty"):
            ApprovalBallot("", frozenset({"a"}))

    def test_profile_is_frozen_and_picklable(self):
        profile = Profile(
            ballots=(ApprovalBallot("v2", frozenset({"a"})), ApprovalBallot("v1", frozenset()))
        )
        assert profile.voter_ids == ("v2", "v1") and profile.voter_count == 2
        assert pickle.loads(pickle.dumps(profile)) == profile
        assert profile != Profile(reversed(profile.ballots))
        assert (profile == 3) is False
        assert repr(profile) == f"Profile(ballots={profile.ballots!r})"
        with pytest.raises(AttributeError):
            profile.ballots = ()
        with pytest.raises(AttributeError):
            del profile.ballots

    def test_validate_against_unknown_project(self):
        inst = make_instance([1], 1)
        profile = Profile((ApprovalBallot("v", frozenset({"ghost"})),))
        with pytest.raises(KeyError, match="ballot 'v' approves unknown project 'ghost'"):
            compile_election(inst, profile)

    def test_lookup_helpers(self):
        inst = make_instance([2, 3], 10, ids=["a", "b"])
        assert inst.cost_of("b") == 3
        with pytest.raises(KeyError):
            inst.project("zzz")
        assert inst.project_ids == {"a", "b"}


class TestCompileParsedProfile:
    """compile_election adopts a parsed profile's index rows when they
    index the instance's own project order, and maps its ballots
    otherwise; both must give the election built from the ballots."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_and_ballots_compile_alike(self, seed):
        rng = random.Random(seed)
        written = helpers.random_instance(
            rng, decimal_money=True, with_categories=True, tag=str(seed)
        )
        instance, parsed = parse_pabulib(write_pabulib(*written))
        # reversed, with an unapproved project in front: other indices
        reordered = dataclasses.replace(
            instance,
            projects=(Project("unused", Fraction(1)),) + instance.projects[::-1],
        )
        for target in (instance, reordered):
            got = compile_election(target, parsed)
            want = compile_election(target, Profile(parsed.ballots))
            assert got.approvers == want.approvers
            assert [set(b) for b in got.ballots] == [set(b) for b in want.ballots]
            for field in ("ids", "cost_den", "costs", "labels", "members"):
                assert getattr(got, field) == getattr(want, field)
            assert [{got.ids[j] for j in b} for b in got.ballots] == [
                b.approved for b in written[1].ballots
            ]


class TestCompileOnce:
    """compile_election keeps the election it builds on the profile, for
    the project tuple it was built from."""

    def test_same_projects_return_the_same_election(self):
        instance, profile = build_district_example([4, 3, 2, 1], 900)
        election = compile_election(instance, profile)
        assert compile_election(instance, profile) is election
        # a new limit keeps the project tuple, and the election holds no limit
        raised = dataclasses.replace(instance, budget_limit=instance.budget_limit * 3)
        assert raised.projects is instance.projects
        assert compile_election(raised, profile) is election

    def test_other_projects_compile_again(self):
        instance, profile = build_district_example([4, 3, 2, 1], 900)
        election = compile_election(instance, profile)
        reordered = dataclasses.replace(instance, projects=instance.projects[::-1])
        other = compile_election(reordered, profile)
        assert other is not election
        assert other.ids == election.ids[::-1]
        # an equal tuple that is another object compiles again too
        copied = dataclasses.replace(instance, projects=tuple(list(instance.projects)))
        again = compile_election(copied, profile)
        assert again is not election and again is not other
        assert (again.ids, again.costs, again.approvers) == (
            election.ids,
            election.costs,
            election.approvers,
        )

    @pytest.mark.parametrize("parsed", [False, True])
    def test_pickle_carries_no_election(self, parsed):
        instance, profile = build_district_example([4, 3, 2, 1], 900)
        if parsed:
            instance, profile = parse_pabulib(write_pabulib(instance, profile))
        before = pickle.dumps(profile)
        election = compile_election(instance, profile)
        assert pickle.dumps(profile) == before
        restored = pickle.loads(before)
        assert restored == profile
        fresh = compile_election(instance, restored)
        assert fresh is not election
        assert fresh.approvers == election.approvers


class TestAllocation:
    def test_of_checks_feasibility(self):
        inst = make_instance([6, 5], 10)
        alloc = Allocation.of({"p1"}, inst)
        assert alloc.total_cost == 6
        assert "p1" in alloc and len(alloc) == 1
        with pytest.raises(ValueError):
            Allocation.of({"p1", "p2"}, inst)

    def test_is_complete(self):
        inst = make_instance([6, 5], 10)
        assert is_complete(Allocation.of({"p1"}, inst), inst)
        assert not is_complete(Allocation.of(set(), inst), inst)
        # A project whose cost equals the leftover exactly still fits.
        inst2 = make_instance([6, 5], 11)
        assert not is_complete(Allocation.of({"p2"}, inst2), inst2)

    def test_approvers(self):
        inst = make_instance([1, 1], 5, ids=["a", "b"])
        profile = Profile(
            (
                ApprovalBallot("v1", frozenset({"a"})),
                ApprovalBallot("v2", frozenset({"a", "b"})),
            )
        )
        # the compiled election lists each project's approvers in ballot order
        assert compile_election(inst, profile).approvers == ([0, 1], [1])

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=8),
        st.integers(0, 255),
    )
    def test_total_cost_additivity(self, costs, mask):
        inst = make_instance(costs, sum(costs))
        ids = [p.id for p in inst.projects]
        chosen = [pid for i, pid in enumerate(ids) if mask >> i & 1]
        split = len(chosen) // 2
        left, right = chosen[:split], chosen[split:]
        assert total_cost(chosen, inst) == total_cost(left, inst) + total_cost(
            right, inst
        )


class TestDistrictExample:
    def test_shape_and_ballots(self):
        inst, profile = build_district_example((4, 3, 2, 1), budget=120)
        assert len(inst.projects) == 16
        assert profile.voter_count == 10
        assert inst.category_labels == ("East", "North", "South", "West")
        for ballot in profile.ballots:
            district = ballot.voter_id.split("-")[0]
            assert ballot.approved == {
                p.id for p in inst.projects if p.id.startswith(district)
            }
            assert len(ballot.approved) == 4
        compile_election(inst, profile)  # KeyError on a ballot naming an unknown project

    def test_default_cost_model_is_a_third(self):
        inst, _ = build_district_example((4, 3, 2, 1), budget=120)
        assert all(p.cost == Fraction(40) for p in inst.projects)

    def test_custom_cost_model_and_determinism(self):
        model = lambda rng, d, j: Fraction(10 + d + j)
        a = build_district_example((2, 2, 2, 2), budget=60, cost_model=model, seed=7)
        b = build_district_example((2, 2, 2, 2), budget=60, cost_model=model, seed=7)
        assert a == b
        inst, _ = a
        assert inst.cost_of("north-1") == 10
        assert inst.cost_of("west-4") == 16

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_district_example((1, 2, 3), budget=10)
        with pytest.raises(ValueError):
            build_district_example((1, 2, 3, 0), budget=10)
        with pytest.raises(ValueError):
            build_district_example((1, 1, 1, 1), budget=10, projects_per_district=0)
        with pytest.raises(ValueError, match="budget must be positive"):
            build_district_example((1, 1, 1, 1), budget=0)
