"""Statistical primitives used by PairwiseHist — no scipy in the container.

Implements the regularized incomplete gamma function (series + Lentz
continued fraction), the chi-squared survival function and quantile
(inverted by bisection) and the standard normal cdf/ppf. Quantiles are
cached — PairwiseHist evaluates ``chi2_critical(alpha, s)`` for a handful
of distinct sub-bin counts.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_EPS = 3.0e-14
_MAX_ITER = 500


def _gammainc_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series (x < a + 1)."""
    if x <= 0.0:
        return 0.0
    ap = a
    summ = 1.0 / a
    delta = summ
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        summ += delta
        if abs(delta) < abs(summ) * _EPS:
            break
    return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammainc_cf(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by Lentz's continued
    fraction (x >= a + 1)."""
    tiny = 1.0e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) in [0, 1]."""
    if x < 0 or a <= 0:
        raise ValueError(f"invalid gammainc args a={a}, x={x}")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return _gammainc_series(a, x)
    return 1.0 - _gammainc_cf(a, x)


def chi2_cdf(x: float, df: float) -> float:
    """P(X <= x) for X ~ chi-squared with ``df`` degrees of freedom."""
    if x <= 0:
        return 0.0
    return gammainc_lower(df / 2.0, x / 2.0)


@lru_cache(maxsize=4096)
def chi2_ppf(q: float, df: int) -> float:
    """Chi-squared quantile: x such that P(X <= x) = q. Bisection on the
    cdf — monotone, so robust; cached since PairwiseHist needs few distinct
    (alpha, sub-bin-count) pairs."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0,1), got {q}")
    lo, hi = 0.0, max(1.0, float(df))
    while chi2_cdf(hi, df) < q:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for sane q
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@lru_cache(maxsize=4096)
def chi2_critical(alpha: float, s: int) -> float:
    """Critical value for the IsUniform test with ``s`` sub-bins:
    Pr(chi2 > crit) = alpha at s - 1 degrees of freedom (Sec. 4.1)."""
    df = max(1, s - 1)
    return chi2_ppf(1.0 - alpha, df)


# ---------------------------------------------------------------------------
# Standard normal


def norm_cdf(x):
    """Standard normal CDF, vectorized (math.erf is scalar-exact; we use
    the numpy-friendly identity via erf on arrays through a polyfill)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def _erf(x):
    """Vectorized erf — Abramowitz & Stegun 7.1.26 (|err| < 1.5e-7)."""
    x = np.asarray(x, dtype=np.float64)
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-ax * ax))


def norm_ppf(p: float) -> float:
    """Standard normal quantile (Acklam's rational approximation,
    |rel err| < 1.15e-9)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )


#: z for the two-sided 98th-percentile interval used in Eq. 29.
Z_98 = norm_ppf(0.99)
#: z for DeepDB-style 99 % confidence bounds (Table 6 setting).
Z_99 = norm_ppf(0.995)

