"""Tests for coverage (Eqs. 14-23) and the region algebra behind delayed
transformation."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import coverage as cov
from repro.core.model import Hist1D
from repro.gd.preprocess import ColumnInfo
from repro.ground_truth import ExactEngine
from repro.queries import OPS, Cond, Query
from tests.reference import decimals_needed

INF = float("inf")


def _view(edges, counts, vmin, vmax, uniq):
    return Hist1D(
        np.asarray(edges, float),
        np.asarray(counts, np.int64),
        np.asarray(vmin, float),
        np.asarray(vmax, float),
        np.asarray(uniq, np.int64),
    )


class TestCondRegion:
    @pytest.mark.parametrize(
        "op,v,expected",
        [
            ("<", 5.0, ((-INF, 4),)),
            ("<", 4.5, ((-INF, 4),)),
            ("<=", 5.0, ((-INF, 5),)),
            ("<=", 4.5, ((-INF, 4),)),
            (">", 5.0, ((6, INF),)),
            (">", 4.5, ((5, INF),)),
            (">=", 5.0, ((5, INF),)),
            (">=", 4.5, ((5, INF),)),
            ("=", 5.0, ((5.0, 5.0),)),
            ("=", 4.5, ()),
            ("!=", 4.5, cov.FULL),
        ],
    )
    def test_ops(self, op, v, expected):
        assert cov.cond_region(op, v) == expected

    def test_neq_integral(self):
        r = cov.cond_region("!=", 5.0)
        assert r == ((-INF, 4.0), (6.0, INF))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            cov.cond_region("~", 1.0)


class TestRegionAlgebra:
    def test_union_merges_adjacent(self):
        assert cov.region_union(((0, 4),), ((5, 9),)) == ((0, 9),)

    def test_union_keeps_gaps(self):
        assert cov.region_union(((0, 3),), ((5, 9),)) == ((0, 3), (5, 9))

    def test_union_overlap(self):
        assert cov.region_union(((0, 6),), ((4, 9),)) == ((0, 9),)

    def test_intersect(self):
        assert cov.region_intersect(((0, 10),), ((5, 20),)) == ((5, 10),)

    def test_intersect_empty(self):
        assert cov.region_intersect(((0, 3),), ((5, 9),)) == ()

    def test_intersect_multi(self):
        r = cov.region_intersect(((0, 3), (6, 10)), ((2, 8),))
        assert r == ((2, 3), (6, 8))

    def test_and_or_equivalence_to_interval_logic(self):
        # (x > 2 AND x <= 7) OR x = 9  =>  [3,7] U [9,9]
        r = cov.region_union(
            cov.region_intersect(cov.cond_region(">", 2), cov.cond_region("<=", 7)),
            cov.cond_region("=", 9),
        )
        assert r == ((3, 7), (9.0, 9.0))


class TestRegionCoverage:
    def setup_method(self):
        # one bin [0, 100): values span [10, 90], 81 uniques, 1000 points
        self.view = _view([0, 100], [1000], [10], [90], [81])
        self.M, self.alpha = 100, 0.001

    def test_full_coverage(self):
        c = cov.region_coverage(((-INF, INF),), self.view, self.M, self.alpha)
        assert c.est[0] == 1.0 and c.lo[0] == 1.0 and c.hi[0] == 1.0

    def test_zero_coverage(self):
        c = cov.region_coverage(((200, 300),), self.view, self.M, self.alpha)
        assert c.est[0] == 0.0 and c.hi[0] == 0.0

    def test_half_coverage_fraction(self):
        # region [10, 49] covers (49-10+1)/(90-10+1) = 40/81 of data range
        c = cov.region_coverage(((10, 49),), self.view, self.M, self.alpha)
        assert c.est[0] == pytest.approx(40 / 81)
        assert c.lo[0] <= c.est[0] <= c.hi[0]
        assert c.lo[0] > 0 and c.hi[0] < 1

    def test_equality_one_over_u(self):
        c = cov.region_coverage(((50, 50),), self.view, self.M, self.alpha)
        assert c.est[0] == pytest.approx(1 / 81)

    def test_equality_outside_data_range(self):
        c = cov.region_coverage(((95, 95),), self.view, self.M, self.alpha)
        assert c.est[0] == 0.0

    def test_multi_interval_sums(self):
        c1 = cov.region_coverage(((10, 29),), self.view, self.M, self.alpha)
        c2 = cov.region_coverage(((60, 90),), self.view, self.M, self.alpha)
        c12 = cov.region_coverage(((10, 29), (60, 90)), self.view, self.M, self.alpha)
        assert c12.est[0] == pytest.approx(c1.est[0] + c2.est[0])

    def test_u2_bin_half_coverage(self):
        # Eq. 16 row 3: u = 2 and one extremum covered => 0.5
        view = _view([0, 100], [500], [20], [80], [2])
        c = cov.region_coverage(((-INF, 20),), view, self.M, self.alpha)
        assert c.est[0] == 0.5
        # an interval strictly between the extrema covers nothing
        c0 = cov.region_coverage(((30, 70),), view, self.M, self.alpha)
        assert c0.est[0] == 0.0

    def test_u1_bin_all_or_nothing(self):
        view = _view([0, 10], [50], [4], [4], [1])
        assert cov.region_coverage(((0, 4),), view, 100, 0.001).est[0] == 1.0
        assert cov.region_coverage(((5, 9),), view, 100, 0.001).est[0] == 0.0

    def test_empty_bin_zero(self):
        view = _view([0, 10], [0], [0], [10], [0])
        assert cov.region_coverage(((0, 10),), view, 100, 0.001).est[0] == 0.0

    def test_multiple_bins_vectorized(self):
        view = _view(
            [0, 10, 20, 30],
            [100, 0, 200],
            [0, 10, 21],
            [9, 20, 29],
            [10, 0, 9],
        )
        c = cov.region_coverage(((5, 24),), view, 50, 0.001)
        assert c.est.shape == (3,)
        assert 0 < c.est[0] < 1
        assert c.est[1] == 0.0  # empty bin
        assert 0 < c.est[2] < 1


class TestCoverageBounds:
    def test_exact_for_binary_coverage(self):
        beta = np.array([0.0, 1.0])
        lo, hi = cov.coverage_bounds(beta, np.array([100.0, 100.0]), np.array([5, 5]), 10, 0.001)
        np.testing.assert_array_equal(lo, beta)
        np.testing.assert_array_equal(hi, beta)

    def test_small_bin_adversarial(self):
        # h < M: bounds are 1/h and 1 - 1/h (Eqs. 22-23 row 2)
        beta = np.array([0.4])
        lo, hi = cov.coverage_bounds(beta, np.array([5.0]), np.array([3]), 100, 0.001)
        assert lo[0] == pytest.approx(0.2)
        assert hi[0] == pytest.approx(0.8)

    def test_theorem2_bounds_tighter_with_more_points(self):
        beta = np.array([0.4])
        u = np.array([100])
        lo1, hi1 = cov.coverage_bounds(beta, np.array([200.0]), u, 100, 0.001)
        lo2, hi2 = cov.coverage_bounds(beta, np.array([20_000.0]), u, 100, 0.001)
        assert hi2[0] - lo2[0] < hi1[0] - lo1[0]

    def test_bounds_bracket_estimate(self):
        rng = np.random.default_rng(0)
        beta = rng.random(50)
        h = rng.integers(1, 10_000, 50).astype(float)
        u = rng.integers(1, 500, 50)
        lo, hi = cov.coverage_bounds(beta, h, u, 100, 0.001)
        assert np.all(lo <= beta + 1e-12)
        assert np.all(hi >= beta - 1e-12)
        assert np.all(lo >= 0) and np.all(hi <= 1)

    def test_full_sub_bin_coverage_hits_one(self):
        # b == s => upper bound 1 (no slack term)
        beta = np.array([0.999])
        lo, hi = cov.coverage_bounds(beta, np.array([5000.0]), np.array([500]), 100, 0.001)
        assert hi[0] == 1.0


@st.composite
def grid_column(draw):
    """A float column of values with ``d`` decimals, and a literal: one of
    its own values, or a value between two grid points. Values stay below
    2·10^7 grid steps, where the profile finds ``d`` exactly."""
    d = draw(st.integers(0, 3))
    ints = draw(st.lists(st.integers(-2 * 10**7, 2 * 10**7), min_size=1, max_size=30))
    spread = draw(st.integers(0, 10**4))
    base = draw(st.sampled_from(ints))
    values = [(base + (m % (spread + 1))) / 10**d for m in ints]
    if draw(st.booleans()):
        lit = draw(st.sampled_from(values))
    else:
        m = draw(st.integers(base - 2, base + spread + 2))
        lit = (m + draw(st.floats(0.05, 0.95))) / 10**d
    return values, lit


class TestLiteralsOnTheGrid:
    """``encode_cond``, which every engine compiles its conditions with,
    selects exactly the rows DuckDB selects on the original values."""

    @settings(max_examples=300, deadline=None)
    @given(grid_column())
    @example(([0.0, 2.01, 2.02, 5.0], 2.01))  # 200.99999999999997 at scale 100
    @example(([9999.98, 9999.99, 10000.0], 9999.99))  # a large minval
    @example(([-1674353.7, -1674353.6], -1674353.6))  # 0.9999999986 at scale 10
    def test_encoded_region_counts_the_rows_duckdb_counts(self, case):
        values, lit = case
        pdf = pd.DataFrame({"x": values})
        x = pdf["x"].to_numpy()
        info = ColumnInfo(
            "x", 0, "float", scale=10.0 ** decimals_needed(x),
            minval=float(x.min()), maxval=float(x.max()),
        )
        enc = info.encode_series(pdf["x"]).to_numpy()
        ex = ExactEngine(pdf)
        try:
            for op in OPS:
                region = cov.encode_cond(Cond("x", op, lit), {"x": info})
                got = sum(int(((enc >= a) & (enc <= b)).sum()) for a, b in region)
                assert got == ex.scalar(Query("COUNT", "x", Cond("x", op, lit))), (op, region)
        finally:
            ex.close()
