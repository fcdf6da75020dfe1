"""IsUniform — the chi-squared uniformity test at the heart of PairwiseHist
(Sec. 4.1, Eqs. 2–3).

A bin ``[e_lo, e_hi)`` holding values ``x`` is divided into
``s = ceil((2u)^(1/3))`` equal-width sub-bins (Terrell–Scott rule, Eq. 2,
with ``u`` the unique-value count). The observed sub-bin counts are tested
against the uniform null with the statistic of Eq. 3; the null is rejected
(bin must be split) when ``chi2 > chi2_critical(alpha, s)``.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.stats import chi2_critical


def tested(n, M: int):
    """Whether a bin of ``n`` sample points (a number or an array) is
    tested for uniformity: it holds at least ``M`` points (Sec. 4.1).
    Refinement tests only such bins, and only they get the bounds of a
    passed test (Theorems 1 and 2) at query time."""
    return n >= M


def sub_bin_count(u: int) -> int:
    """Terrell–Scott sub-bin count ``s = ceil((2u)^(1/3))`` (Eq. 2)."""
    if u <= 0:
        return 1
    return max(1, math.ceil((2.0 * u) ** (1.0 / 3.0)))


class UniformityResult(NamedTuple):
    """Outcome of one IsUniform test.

    ``ratio`` is ``chi2 / critical`` — RefineBin2D splits the dimension
    with the larger ratio ("least uniform", Sec. 4.1).
    """

    uniform: bool
    chi2: float
    critical: float
    s: int

    @property
    def ratio(self) -> float:
        return self.chi2 / self.critical if self.critical > 0 else 0.0


def is_uniform(
    x: np.ndarray, e_lo: float, e_hi: float, u: int, alpha: float
) -> UniformityResult:
    """Chi-squared test of the null "x is uniform on [e_lo, e_hi)".

    Returns ``uniform=True`` when the null is *not* rejected (the bin needs
    no further splitting). Degenerate bins (one sub-bin, zero width, empty)
    trivially pass.
    """
    h = len(x)
    s = sub_bin_count(u)
    if h == 0 or u <= 1 or s < 2 or e_hi <= e_lo:
        # A single-valued (or empty/degenerate) bin cannot be split
        # usefully — treat as trivially uniform.
        return UniformityResult(True, 0.0, float("inf"), s)
    counts, _ = np.histogram(x, bins=s, range=(e_lo, e_hi))
    expected = h / s
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    crit = chi2_critical(alpha, s)
    return UniformityResult(chi2 <= crit, chi2, crit, s)
