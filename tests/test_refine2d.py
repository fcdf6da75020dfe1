"""Tests for 2-d refinement (RefineBin2D, Fig. 5)."""
import numpy as np
import pytest

from repro.core.refine import bin_stats, refine_2d


def _mk(seed=0, n=20_000):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1000, n).astype(float)
    y = np.round(x * 0.5 + rng.normal(0, 30, n)).clip(0, 1000)
    return x, y


def _check(h2, x, y):
    ki, kj = h2.dim_i.k, h2.dim_j.k
    assert h2.counts.shape == (ki, kj)
    ok = ~(np.isnan(x) | np.isnan(y))
    assert h2.counts.sum() == ok.sum()
    assert np.all(np.diff(h2.dim_i.edges) > 0)
    assert np.all(np.diff(h2.dim_j.edges) > 0)
    assert len(h2.dim_i.vmin) == ki and len(h2.dim_j.vmin) == kj
    # marginal counts match 1-d histograms of each dimension
    np.testing.assert_array_equal(
        h2.counts.sum(axis=1), np.histogram(x[ok], bins=h2.dim_i.edges)[0]
    )
    np.testing.assert_array_equal(
        h2.counts.sum(axis=0), np.histogram(y[ok], bins=h2.dim_j.edges)[0]
    )
    np.testing.assert_array_equal(h2.dim_i.counts, h2.counts.sum(axis=1))
    np.testing.assert_array_equal(h2.dim_j.counts, h2.counts.sum(axis=0))


def test_basic_invariants():
    x, y = _mk()
    ex = np.array([0.0, 1000.0])
    ey = np.array([0.0, 1000.0])
    h2 = refine_2d(x, y, ex, ey, 0, 1, M=200, alpha=0.001)
    _check(h2, x, y)


def test_edges_superset_of_initial():
    x, y = _mk(1)
    ex = np.array([0.0, 500.0, 1000.0])
    ey = np.array([0.0, 250.0, 1000.0])
    h2 = refine_2d(x, y, ex, ey, 0, 1, M=200, alpha=0.001)
    for e in ex:
        assert np.any(np.isclose(h2.dim_i.edges, e))
    for e in ey:
        assert np.any(np.isclose(h2.dim_j.edges, e))


def test_correlated_data_gets_refined():
    """Strong correlation makes within-cell marginals non-uniform, so
    refinement must add edges beyond the 1-d (uniform => 1-bin) edges."""
    x, y = _mk(2)
    h2 = refine_2d(x, y, np.array([0.0, 1000.0]), np.array([0.0, 1000.0]), 0, 1, 200, 0.001)
    assert h2.dim_i.k + h2.dim_j.k > 2


def test_independent_uniform_stays_coarse():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 1000, 20_000).astype(float)
    y = rng.integers(0, 1000, 20_000).astype(float)
    h2 = refine_2d(x, y, np.array([0.0, 1000.0]), np.array([0.0, 1000.0]), 0, 1, 200, 0.001)
    assert h2.dim_i.k <= 4 and h2.dim_j.k <= 4


def test_single_valued_dimension_terminates():
    """Regression test: a dimension with one unique value must not be
    split forever (the pre-fix behaviour)."""
    rng = np.random.default_rng(4)
    x = np.full(10_000, 3.0)
    y = rng.integers(0, 100, 10_000).astype(float)
    h2 = refine_2d(x, y, np.array([0.0, 10.0]), np.array([0.0, 100.0]), 0, 1, 50, 0.001)
    assert h2.dim_i.k <= 2
    _check(h2, x, y)


def test_few_unique_values_bounded_bins():
    rng = np.random.default_rng(5)
    x = rng.choice(5, 30_000, p=[0.4, 0.3, 0.15, 0.1, 0.05]).astype(float)
    y = rng.integers(0, 1000, 30_000).astype(float)
    h2 = refine_2d(x, y, np.array([0.0, 4.0]), np.array([0.0, 1000.0]), 0, 1, 300, 0.001)
    # at most one bin per unique value (+1 slack)
    assert h2.dim_i.k <= 6
    _check(h2, x, y)


def test_nulls_dropped_pairwise():
    x, y = _mk(6, n=5000)
    x[::7] = np.nan
    y[::11] = np.nan
    h2 = refine_2d(x, y, np.array([0.0, 1000.0]), np.array([0.0, 1000.0]), 0, 1, 100, 0.001)
    _check(h2, x, y)


def test_empty_input():
    h2 = refine_2d(
        np.array([]), np.array([]), np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0, 1, 8, 0.001
    )
    assert h2.counts.sum() == 0


def test_bins_per_dim_cap():
    rng = np.random.default_rng(7)
    x = np.round(rng.exponential(100, 40_000))
    y = np.round(x * 2 + rng.exponential(50, 40_000))
    h2 = refine_2d(
        x, y,
        np.array([0.0, float(x.max())]), np.array([0.0, float(y.max())]),
        0, 1, M=50, alpha=0.001, max_bins_per_dim=32,
    )
    assert h2.dim_i.k <= 33
    assert h2.dim_j.k <= 33


@pytest.mark.parametrize("M", [50, 200, 1000])
def test_larger_m_coarser_grid(M):
    x, y = _mk(8)
    h2 = refine_2d(x, y, np.array([0.0, 1000.0]), np.array([0.0, 1000.0]), 0, 1, M, 0.001)
    assert h2.counts.sum() == len(x)
    if M == 1000:
        h2_small = refine_2d(
            x, y, np.array([0.0, 1000.0]), np.array([0.0, 1000.0]), 0, 1, 50, 0.001
        )
        assert h2.counts.size <= h2_small.counts.size


class TestMarginalMeta:
    def test_values(self):
        vals = np.array([1.0, 2.0, 2.0, 7.0, 9.0])
        edges = np.array([0.0, 5.0, 10.0])
        (m,) = bin_stats(vals, [edges])
        assert list(m.counts) == [3, 2]
        assert m.vmin[0] == 1.0 and m.vmax[0] == 2.0 and m.uniq[0] == 2
        assert m.vmin[1] == 7.0 and m.vmax[1] == 9.0 and m.uniq[1] == 2

    def test_empty_bins_defaults(self):
        (m,) = bin_stats(np.array([9.0]), [np.array([0.0, 5.0, 10.0])])
        assert m.counts[0] == 0 and m.uniq[0] == 0
        assert m.vmin[0] == 0.0 and m.vmax[0] == 5.0  # edge defaults

    def test_no_values(self):
        (m,) = bin_stats(np.array([]), [np.array([0.0, 1.0])])
        assert m.counts[0] == 0 and m.uniq[0] == 0
