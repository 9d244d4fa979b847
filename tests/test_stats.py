"""Statistics layer, cross-checked against closed forms and direct
numerical integration of the t density."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbrules.stats import (
    paired_t_test,
    regularized_incomplete_beta,
    sample_std,
    standard_error,
    student_t_two_sided_p,
)


def t_p_by_integration(t: float, df: int) -> float:
    """Two-sided tail mass of Student's t via adaptive quadrature."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    t = abs(t)
    dfm = mpmath.mpf(df)
    coeff = mpmath.gamma((dfm + 1) / 2) / (
        mpmath.sqrt(dfm * mpmath.pi) * mpmath.gamma(dfm / 2)
    )
    pdf = lambda u: coeff * (1 + u * u / dfm) ** (-(dfm + 1) / 2)
    return float(2 * mpmath.quad(pdf, [t, mpmath.inf]))


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    @given(st.floats(0.001, 0.999), st.floats(0.5, 20.0))
    def test_closed_form_a_equals_one(self, x, b):
        # I_x(1, b) = 1 - (1 - x)^b
        expected = 1.0 - (1.0 - x) ** b
        assert regularized_incomplete_beta(1.0, b, x) == pytest.approx(
            expected, abs=1e-12
        )

    @given(st.floats(0.001, 0.999), st.floats(0.5, 20.0), st.floats(0.5, 20.0))
    def test_symmetry(self, x, a, b):
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, abs=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity.
        for x in (0.1, 0.25, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-14
            )


class TestStudentT:
    def test_t_zero_gives_one(self):
        for df in (1, 2, 5, 30):
            assert student_t_two_sided_p(0.0, df) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_in_t(self):
        assert student_t_two_sided_p(2.5, 7) == student_t_two_sided_p(-2.5, 7)

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: p = 1 - (2/pi) arctan|t|
        for t in (0.5, 1.0, 3.0, 10.0):
            expected = 1.0 - 2.0 / math.pi * math.atan(t)
            assert student_t_two_sided_p(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_df2_closed_form(self):
        # df=2: p = 1 - t / sqrt(t^2 + 2)
        for t in (0.25, 1.0, 2.0, 8.0):
            expected = 1.0 - t / math.sqrt(t * t + 2.0)
            assert student_t_two_sided_p(t, 2) == pytest.approx(expected, abs=1e-12)

    def test_infinite_t(self):
        assert student_t_two_sided_p(math.inf, 4) == 0.0
        assert student_t_two_sided_p(-math.inf, 4) == 0.0

    def test_df_validation(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 34, 100])
    @pytest.mark.parametrize("t", [0.1, 0.7, 1.5, 2.1, 3.0, 5.5])
    def test_against_numerical_integration(self, t, df):
        assert student_t_two_sided_p(t, df) == pytest.approx(
            t_p_by_integration(t, df), abs=1e-9
        )


class TestExactFloats:
    """Exact bits, not tolerances: a reordered float operation in the
    continued fraction or the moments changes the last bit and fails
    here, where the checks above and the 4-digit golden files pass it."""

    @pytest.mark.parametrize(
        "a, b, x, bits",
        [
            # x below the mode: the continued fraction at (a, b, x)
            (2.0, 3.0, 0.1, "0x1.ac710cb295e9cp-5"),
            (17.0, 0.5, 0.6, "0x1.258716e4b7fd8p-15"),
            # x at or above it: one minus the fraction at (b, a, 1 - x)
            (5.0, 2.5, 0.9, "0x1.e3ab49256d641p-1"),
            (1.5, 12.0, 0.7, "0x1.ffffc2e7c9892p-1"),
        ],
    )
    def test_incomplete_beta(self, a, b, x, bits):
        assert regularized_incomplete_beta(a, b, x).hex() == bits

    @pytest.mark.parametrize(
        "t, df, bits",
        [
            (0.3, 1, "0x1.a0fff67fb6813p-1"),
            (2.1, 3, "0x1.03349dee199f7p-3"),
            (2.6, 34, "0x1.c0c75c0d90e22p-7"),
            (4.2, 40, "0x1.2fd90db833fdbp-13"),
        ],
    )
    def test_student_t(self, t, df, bits):
        assert student_t_two_sided_p(t, df).hex() == bits

    def test_paired_t(self):
        x = [0.61, 0.72, 0.55, 0.9, 0.48, 0.77, 0.66]
        y = [0.5, 0.7, 0.58, 0.81, 0.41, 0.69, 0.6]
        result = paired_t_test(x, y)
        assert result.statistic.hex() == "0x1.975348cb42393p+1"
        assert result.p_value.hex() == "0x1.37a8da59729f7p-6"
        assert sample_std(x).hex() == "0x1.2125d74bccd3bp-3"


class TestMoments:
    def test_mean_and_std(self):
        assert sample_std([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert standard_error([1.0, 2.0, 3.0]) == pytest.approx(1.0 / math.sqrt(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_std([1.0])


class TestPairedT:
    def test_hand_example(self):
        # d = (1, 2, 3): mean 2, std 1, t = 2*sqrt(3), df + p match the
        # textbook value.
        result = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert result.statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert result.p_value == pytest.approx(0.0741799, abs=1e-6)
        assert not result.degenerate

    def test_sign_flip(self):
        a = [2.0, 4.0, 6.0]
        b = [1.0, 2.0, 3.0]
        assert paired_t_test(a, b).statistic == -paired_t_test(b, a).statistic
        assert paired_t_test(a, b).p_value == paired_t_test(b, a).p_value

    def test_identical_samples(self):
        result = paired_t_test([1.0, 2.0], [1.0, 2.0])
        assert result == (0.0, 1.0, False)

    def test_constant_nonzero_difference(self):
        result = paired_t_test([2.0, 3.0], [1.0, 2.0])
        assert result.statistic == math.inf
        assert result.p_value == 0.0
        assert result.degenerate
        down = paired_t_test([1.0, 2.0], [2.0, 3.0])
        assert down.statistic == -math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_against_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        x = [0.83, 0.81, 0.92, 0.77, 0.85, 0.90, 0.79]
        y = [0.80, 0.84, 0.88, 0.75, 0.86, 0.85, 0.78]
        ours = paired_t_test(x, y)
        theirs = scipy_stats.ttest_rel(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-10)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-10)
