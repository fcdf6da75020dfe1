"""Tests for the synopsis data model and Theorem-1 centre bounds."""
import numpy as np
import pytest

from repro.core.model import (
    Hist1D,
    MU,
    PairwiseHist,
    centre_bounds,
    map_fine_to_coarse,
)
from repro.core.build import build_local


def _hist(counts, vmin, vmax, uniq, edges=None):
    counts = np.asarray(counts, dtype=np.int64)
    k = len(counts)
    edges = np.asarray(edges, float) if edges is not None else np.arange(k + 1, dtype=float)
    return Hist1D(edges, counts, np.asarray(vmin, float), np.asarray(vmax, float),
                  np.asarray(uniq, dtype=np.int64))


class TestCentreBounds:
    def test_bracket_midpoint(self):
        h = _hist([500, 5, 0], [0, 0, 0], [100, 10, 1], [90, 3, 0])
        lo, hi = centre_bounds(h.counts, h.vmin, h.vmax, h.uniq, M=100, alpha=0.001)
        mid = h.midpoints
        assert np.all(lo <= mid + 1e-9)
        assert np.all(hi >= mid - 1e-9)
        assert np.all(lo >= h.vmin - 1e-9)
        assert np.all(hi <= h.vmax + 1e-9)

    def test_passing_bin_tighter_than_extrema(self):
        # Theorem 1: a bin that passed the test has bounds strictly inside
        # [vmin, vmax] (for realistic h, u).
        h = _hist([10_000], [0.0], [1000.0], [800])
        lo, hi = centre_bounds(h.counts, h.vmin, h.vmax, h.uniq, M=100, alpha=0.001)
        assert lo[0] > 0.0 and hi[0] < 1000.0

    def test_small_bin_adversarial_shift(self):
        # h < M: c- = vmin + (u-1)u*mu/(2h) per Eq. 10
        h = _hist([10], [0.0], [100.0], [5])
        lo, hi = centre_bounds(h.counts, h.vmin, h.vmax, h.uniq, M=100, alpha=0.001)
        shift = (5 - 1) * 5 * MU / (2 * 10)
        assert lo[0] == pytest.approx(0.0 + shift)
        assert hi[0] == pytest.approx(100.0 - shift)

    def test_empty_bin_midpoint(self):
        h = _hist([0], [0.0], [10.0], [0])
        lo, hi = centre_bounds(h.counts, h.vmin, h.vmax, h.uniq, M=10, alpha=0.001)
        assert lo[0] == hi[0] == 5.0

    def test_more_points_tighter(self):
        a = _hist([200], [0.0], [100.0], [50])
        b = _hist([20_000], [0.0], [100.0], [50])
        lo_a, hi_a = centre_bounds(a.counts, a.vmin, a.vmax, a.uniq, M=100, alpha=0.001)
        lo_b, hi_b = centre_bounds(b.counts, b.vmin, b.vmax, b.uniq, M=100, alpha=0.001)
        assert hi_b[0] - lo_b[0] < hi_a[0] - lo_a[0]


class TestHist1D:
    def test_midpoints(self):
        h = _hist([5], [2.0], [8.0], [4])
        assert h.midpoints[0] == 5.0

    def test_view_roundtrip(self):
        """The query path reads a column through its ``Hist1D`` itself and
        leaves its arrays writable, for ``append_rows`` to update in place."""
        h = _hist([5, 6], [0, 1], [1, 2], [2, 2])
        st = PairwiseHist(11, 11, 8, 0.001, [h]).column_state(0)
        assert st.hist is h
        np.testing.assert_array_equal(st.h, h.counts)
        assert h.counts.flags.writeable and h.edges.flags.writeable


class TestMapFineToCoarse:
    def test_identity(self):
        e = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(map_fine_to_coarse(e, e), [0, 1])

    def test_refined(self):
        coarse = np.array([0.0, 10.0, 20.0])
        fine = np.array([0.0, 5.0, 10.0, 12.0, 20.0])
        np.testing.assert_array_equal(map_fine_to_coarse(fine, coarse), [0, 0, 1, 1])


class TestPairwiseHist:
    def test_structure(self, toy_ph):
        assert toy_ph.d == 3
        assert set(toy_ph.hists2d) == {(0, 1), (0, 2), (1, 2)}
        assert toy_ph.rho == 1.0

    def test_pair_lookup_symmetric(self, toy_ph):
        assert toy_ph.pair(0, 2) is toy_ph.pair(2, 0)
        with pytest.raises(KeyError):
            toy_ph.pair(1, 1)

    def test_oriented_transpose(self, toy_ph):
        h2 = toy_ph.pair(0, 1)
        H_i, d_i, d_j = h2.oriented(0)
        H_j, d_jj, d_ii = h2.oriented(1)
        np.testing.assert_array_equal(H_i, H_j.T)
        assert d_i is d_ii is h2.dim_i and d_j is d_jj is h2.dim_j
        with pytest.raises(KeyError):
            h2.oriented(2)

    def test_2d_edges_superset_of_1d(self, toy_ph):
        for (i, j), h2 in toy_ph.hists2d.items():
            for e in toy_ph.hists1d[i].edges:
                assert np.any(np.isclose(h2.dim_i.edges, e))
            for e in toy_ph.hists1d[j].edges:
                assert np.any(np.isclose(h2.dim_j.edges, e))

    def test_counts_consistent_between_1d_and_2d(self, toy_pdf, toy_ph):
        # no nulls in toy data => 2-d marginals equal 1-d counts aggregated
        h2 = toy_ph.pair(0, 1)
        marg = h2.counts.sum(axis=1)
        fmap = map_fine_to_coarse(h2.dim_i.edges, toy_ph.hists1d[0].edges)
        agg = np.bincount(fmap, weights=marg, minlength=toy_ph.hists1d[0].k)
        np.testing.assert_allclose(agg, toy_ph.hists1d[0].counts)

    def test_rho_with_sampling(self):
        rng = np.random.default_rng(0)
        import pandas as pd

        pdf = pd.DataFrame({"x": rng.integers(0, 50, 2000).astype(float),
                            "y": rng.integers(0, 50, 2000).astype(float)})
        ph = build_local(pdf, n_rows=100_000)
        assert ph.rho == pytest.approx(0.02)
