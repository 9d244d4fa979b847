"""Minimal statistics for paired comparisons: no scipy at runtime.

The two-sided paired t p-value comes from the regularized incomplete
beta function, evaluated with the standard continued fraction (modified
Lentz); the expansion is applied on whichever tail converges fast, so the
result is accurate to well below 1e-12 over the ranges exercised here.
The test suite checks it against direct numerical integration of the t
density.
"""

from __future__ import annotations

__all__ = [
    "TTestResult", "paired_t_test", "regularized_incomplete_beta", "standard_error",
    "student_t_two_sided_p",
]

import math
import statistics
from typing import NamedTuple, Sequence

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd term of step m, each one Lentz update
        for numerator in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + numerator * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + numerator / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x < 0 or x > 1:
        raise ValueError("x must lie in [0, 1]")
    if x == 0:
        return 0.0
    if x == 1:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # the continued fraction converges fast below the distribution mode
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T_df| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (n - 1 denominator)."""
    if len(values) < 2:
        raise ValueError("sample standard deviation needs at least two values")
    center = statistics.fmean(values)
    return math.sqrt(math.fsum((v - center) ** 2 for v in values) / (len(values) - 1))


def standard_error(values: Sequence[float]) -> float:
    return sample_std(values) / math.sqrt(len(values))


class TTestResult(NamedTuple):
    statistic: float
    p_value: float
    degenerate: bool = False


def paired_t_test(x: Sequence[float], y: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on matched samples.

    Degenerate zero-variance differences are handled explicitly instead
    of dividing by zero: identical samples give (0, 1) and a constant
    nonzero difference gives (signed inf, 0) with ``degenerate`` set.
    """
    if len(x) != len(y):
        raise ValueError("paired samples must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    differences = [float(a) - float(b) for a, b in zip(x, y)]
    d_mean = statistics.fmean(differences)
    d_std = sample_std(differences)
    if d_std == 0.0:
        if d_mean == 0.0:
            return TTestResult(0.0, 1.0, False)
        return TTestResult(math.copysign(math.inf, d_mean), 0.0, True)
    statistic = d_mean / (d_std / math.sqrt(n))
    return TTestResult(statistic, student_t_two_sided_p(statistic, n - 1), False)
