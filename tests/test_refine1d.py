"""Tests for RefineBin1D (Algorithm 2) invariants and behaviour."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.refine import prepare_initial_edges, refine_1d


def _check_invariants(hist, values):
    values = values[~np.isnan(values)]
    k = hist.k
    assert len(hist.edges) == k + 1
    assert np.all(np.diff(hist.edges) > 0), "edges strictly increasing"
    assert hist.counts.sum() == len(values), "counts account for every point"
    assert len(hist.vmin) == len(hist.vmax) == len(hist.uniq) == k
    occ = hist.counts > 0
    assert np.all(hist.vmin[occ] <= hist.vmax[occ])
    # per-bin extrema actually bound the data in the bin
    for t in np.flatnonzero(occ):
        lo, hi = hist.edges[t], hist.edges[t + 1]
        inbin = values[(values >= lo) & ((values <= hi) if t == k - 1 else (values < hi))]
        assert len(inbin) == hist.counts[t]
        assert inbin.min() == hist.vmin[t]
        assert inbin.max() == hist.vmax[t]
        assert len(np.unique(inbin)) == hist.uniq[t]


def test_uniform_stays_one_bin():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 10_000, 20_000).astype(float)
    h = refine_1d(x, np.array([0.0, 10_000.0]), M=200, alpha=0.001)
    assert h.k <= 3  # uniform data needs (almost) no refinement
    _check_invariants(h, x)


def test_bimodal_gets_split():
    rng = np.random.default_rng(1)
    x = np.round(np.concatenate([rng.normal(100, 5, 5000), rng.normal(900, 5, 5000)]))
    h = refine_1d(x, np.array([0.0, 1000.0]), M=100, alpha=0.001)
    assert h.k >= 4
    _check_invariants(h, x)
    # bins lying fully between the modes must be empty (no data there)
    gap = (h.edges[:-1] > 150) & (h.edges[1:] < 850)
    assert h.counts[gap].sum() == 0


def test_zipf_isolates_heavy_values():
    rng = np.random.default_rng(2)
    x = rng.choice(20, 30_000, p=np.r_[0.5, np.full(19, 0.5 / 19)]).astype(float)
    h = refine_1d(x, np.array([0.0, 19.0]), M=300, alpha=0.001)
    _check_invariants(h, x)
    # the heavy value 0 must sit alone in its bin
    t0 = np.searchsorted(h.edges, 0.0, side="right") - 1
    t0 = max(t0, 0)
    assert h.uniq[t0] == 1 and h.vmin[t0] == 0.0


def test_min_points_m_blocks_splits():
    rng = np.random.default_rng(3)
    x = np.round(rng.beta(8, 1, 500) * 100)  # skewed but tiny
    h_bigM = refine_1d(x, np.array([0.0, 100.0]), M=10_000, alpha=0.001)
    h_smallM = refine_1d(x, np.array([0.0, 100.0]), M=20, alpha=0.001)
    assert h_bigM.k == 1
    assert h_smallM.k > h_bigM.k


def test_empty_input():
    h = refine_1d(np.array([]), np.array([0.0, 1.0]), M=8, alpha=0.001)
    assert h.k == 1 and h.counts[0] == 0 and h.uniq[0] == 0


def test_single_value_input():
    h = refine_1d(np.full(100, 5.0), np.array([0.0, 10.0]), M=8, alpha=0.001)
    assert h.counts.sum() == 100
    t = int(np.flatnonzero(h.counts)[0])
    assert h.uniq[t] == 1 and h.vmin[t] == 5.0 and h.vmax[t] == 5.0


def test_nan_values_dropped():
    x = np.array([1.0, np.nan, 2.0, np.nan, 3.0])
    h = refine_1d(x, np.array([0.0, 4.0]), M=8, alpha=0.001)
    assert h.counts.sum() == 3


def test_respects_initial_edges():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 100, 5000).astype(float)
    e0 = np.array([0.0, 25.0, 50.0, 100.0])
    h = refine_1d(x, e0, M=100, alpha=0.001)
    for e in e0:
        assert np.any(np.isclose(h.edges, e)), "initial edges are preserved"


def test_max_bins_cap():
    rng = np.random.default_rng(5)
    # adversarial: mixture of many point masses
    x = np.round(rng.pareto(0.3, 50_000)).clip(0, 1e7)
    h = refine_1d(x, np.array([0.0, 1e7]), M=20, alpha=0.001, max_bins=64)
    assert h.k <= 64
    _check_invariants(h, x)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(50, 400),
    st.sampled_from([8, 20, 50]),
)
@settings(max_examples=25, deadline=None)
def test_property_invariants(seed, n, m):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        x = rng.integers(0, 50, n).astype(float)
    elif kind == 1:
        x = np.round(rng.normal(100, 20, n))
    else:
        x = np.round(rng.exponential(30, n))
    lo, hi = float(x.min()), float(max(x.max(), x.min() + 1))
    h = refine_1d(x, np.array([lo, hi]), M=m, alpha=0.001)
    _check_invariants(h, x)


@given(
    # Values crowded towards the top edge 12 as often as spread out.
    st.integers(0, 11).flatmap(
        lambda lo: st.lists(st.integers(lo, 12).map(float), min_size=1, max_size=200)
    ),
    st.lists(st.integers(1, 11).map(float), max_size=3),
    st.sampled_from([2, 4, 8, 40]),
)
@example([11.0] * 20 + [12.0] * 20, [], 8)
@settings(max_examples=200, deadline=None)
def test_property_edges_strictly_increasing(xs, inner, m):
    """Also when every value of a bin lies above its midpoint and the
    largest sits on the top edge."""
    e0 = np.unique([0.0, *inner, 12.0])
    h = refine_1d(np.array(xs), e0, M=m, alpha=0.05)
    assert np.all(np.diff(h.edges) > 0)
    _check_invariants(h, np.array(xs))


def test_top_edge_split_keeps_rows_of_predicates_on_other_columns():
    """A last bin holding only 9s and 10s is split between them, not at
    the top edge 10. A split there would make a zero-width bin [10, 10]
    that no fine bin of the pair histograms maps to, and a predicate on
    the other column would drop that bin's rows: 5,242 of 6,000 counted."""
    import pandas as pd

    from repro.core.build import build_local
    from repro.core.coverage import Leaf
    from repro.core.weighting import weights

    rng = np.random.default_rng(0)
    n = 6000
    x = rng.choice([0, 1, 2, 3, 4, 5, 9, 10], n).astype(float)
    y = np.where(x < 3, rng.integers(0, 50, n), rng.integers(50, 100, n)).astype(float)
    ph = build_local(pd.DataFrame({"x": x, "y": y}), M=40, seeds={"x": np.array([6.0])})
    assert np.all(np.diff(ph.hists1d[0].edges) > 0)
    w = weights(ph, 0, Leaf(1, ((0.0, np.inf),)))
    assert w.est.sum() == w.lo.sum() == w.hi.sum() == n


class TestPrepareInitialEdges:
    def test_no_seed_values(self):
        e = prepare_initial_edges(0.0, 10.0, None, 50)
        assert list(e) == [0.0, 10.0]

    def test_seeds_clipped_and_bounded(self):
        seeds = np.array([-5.0, 2.0, 5.0, 9.0, 20.0])
        e = prepare_initial_edges(0.0, 10.0, seeds, 50)
        assert e[0] == 0.0 and e[-1] == 10.0
        assert set(e[1:-1]) == {2.0, 5.0, 9.0}

    def test_downsampled_to_max_edges(self):
        seeds = np.arange(1.0, 1000.0)
        e = prepare_initial_edges(0.0, 1000.0, seeds, 20)
        assert len(e) <= 20
        assert np.all(np.diff(e) > 0)

    def test_degenerate_range(self):
        e = prepare_initial_edges(5.0, 5.0, None, 10)
        assert len(e) == 2 and e[1] > e[0]
