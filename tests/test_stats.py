"""Tests for the from-scratch statistics kernel (no scipy available)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats

# Reference quantiles from standard chi-squared tables.
CHI2_TABLE = [
    (0.95, 1, 3.841),
    (0.95, 2, 5.991),
    (0.95, 5, 11.070),
    (0.95, 10, 18.307),
    (0.99, 1, 6.635),
    (0.99, 4, 13.277),
    (0.999, 1, 10.828),
    (0.999, 2, 13.816),
    (0.999, 4, 18.467),
    (0.999, 9, 27.877),
    (0.999, 19, 43.820),
    (0.90, 3, 6.251),
    (0.50, 2, 1.386),
    (0.50, 10, 9.342),
]


@pytest.mark.parametrize("q,df,expected", CHI2_TABLE)
def test_chi2_ppf_matches_tables(q, df, expected):
    assert stats.chi2_ppf(q, df) == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("q,df,expected", CHI2_TABLE)
def test_chi2_cdf_inverts_ppf(q, df, expected):
    assert stats.chi2_cdf(expected, df) == pytest.approx(q, abs=1e-4)


def closed_form_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-squared with integer ``df``: ``erfc`` or
    ``exp`` for df = 1 or 2, then ``Q(n + 2) = Q(n) + (x/2)^(n/2)
    e^(-x/2) / Γ(n/2 + 1)``."""
    n = 2 - df % 2
    q = math.erfc(math.sqrt(x / 2.0)) if n == 1 else math.exp(-x / 2.0)
    while n < df:
        q += math.exp((n / 2.0) * math.log(x / 2.0) - x / 2.0 - math.lgamma(n / 2.0 + 1.0))
        n += 2
    return q


@pytest.mark.parametrize("df", [1, 2, 3, 5, 8, 20, 50])
def test_chi2_sf_complements_cdf(df):
    """The upper tail ``1 - chi2_cdf``, which the uniformity test reads
    through ``chi2_ppf``, equals the closed form."""
    for x in (0.5, 1.0, float(df), 3.0 * df):
        assert 1.0 - stats.chi2_cdf(x, df) == pytest.approx(closed_form_sf(x, df), rel=1e-6, abs=1e-12)


def test_chi2_cdf_zero_and_negative():
    assert stats.chi2_cdf(0.0, 3) == 0.0
    assert stats.chi2_cdf(-1.0, 3) == 0.0


def test_chi2_ppf_rejects_bad_q():
    with pytest.raises(ValueError):
        stats.chi2_ppf(0.0, 3)
    with pytest.raises(ValueError):
        stats.chi2_ppf(1.0, 3)


@given(st.floats(0.01, 0.99), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_chi2_ppf_monotone_in_q(q, df):
    assert stats.chi2_ppf(min(q + 0.005, 0.995), df) >= stats.chi2_ppf(q, df)


def test_chi2_critical_uses_s_minus_1_dof():
    # critical(alpha, s) must equal the (1-alpha) quantile at s-1 dof
    assert stats.chi2_critical(0.001, 3) == pytest.approx(stats.chi2_ppf(0.999, 2))
    assert stats.chi2_critical(0.05, 2) == pytest.approx(stats.chi2_ppf(0.95, 1))


@pytest.mark.parametrize(
    "p,expected",
    [(0.5, 0.0), (0.975, 1.959964), (0.99, 2.326348), (0.995, 2.575829), (0.841345, 1.0)],
)
def test_norm_ppf(p, expected):
    assert stats.norm_ppf(p) == pytest.approx(expected, abs=1e-4)


def test_norm_ppf_symmetry():
    for p in (0.6, 0.9, 0.99):
        assert stats.norm_ppf(p) == pytest.approx(-stats.norm_ppf(1 - p), abs=1e-9)


@pytest.mark.parametrize("x,expected", [(0.0, 0.5), (1.0, 0.841345), (-1.96, 0.024998), (3.0, 0.998650)])
def test_norm_cdf(x, expected):
    assert float(stats.norm_cdf(x)) == pytest.approx(expected, abs=2e-5)


def test_norm_cdf_vectorized():
    xs = np.array([-2.0, 0.0, 2.0])
    out = stats.norm_cdf(xs)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


def test_z_constants():
    assert stats.Z_98 == pytest.approx(2.3263, abs=1e-3)
    assert stats.Z_99 == pytest.approx(2.5758, abs=1e-3)


def test_gammainc_boundaries():
    assert stats.gammainc_lower(2.0, 0.0) == 0.0
    assert stats.gammainc_lower(2.0, 1e9) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stats.gammainc_lower(-1.0, 1.0)


@given(st.floats(0.2, 30.0), st.floats(0.0, 60.0))
@settings(max_examples=80, deadline=None)
def test_gammainc_in_unit_interval(a, x):
    v = stats.gammainc_lower(a, x)
    assert -1e-12 <= v <= 1.0 + 1e-12

