"""Differential test of ``region_coverage``: it resolves each interval on
its two end bins only, and must give exactly the answers of the direct
all-bins evaluation of Eqs. 15–16 and 22–23 kept below as the reference.
``coverage_bounds`` loops over Python floats, and must give exactly the
answers of the numpy-mask version kept below as its reference."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coverage as cov
from repro.core.hypothesis import sub_bin_count
from repro.core.model import Hist1D
from repro.queries import OPS
from repro.stats import chi2_critical


def reference_coverage(region, view: Hist1D, M: int, alpha: float) -> cov.Bounded:
    """Every bin against every interval, with boolean masks."""
    vmin, vmax = view.vmin, view.vmax
    u = view.uniq.astype(np.float64)
    h = view.counts.astype(np.float64)
    beta = np.zeros(len(h))
    occupied = view.uniq > 0
    for a, b in region:
        cl = np.maximum(a, vmin)
        ch = np.minimum(b, vmax)
        valid = (cl <= ch) & occupied
        full = valid & (a <= vmin) & (b >= vmax)
        beta[full] += 1.0
        part = valid & ~full
        if not part.any():
            continue
        u2 = part & (view.uniq == 2)
        if u2.any():
            covers = (cl[u2] <= vmin[u2]).astype(float) + (ch[u2] >= vmax[u2]).astype(float)
            beta[u2] += 0.5 * covers
        rest = part & (view.uniq > 2)
        if rest.any():
            point = rest & (cl == ch)
            beta[point] += 1.0 / u[point]
            frac = rest & (cl < ch)
            beta[frac] += (ch[frac] - cl[frac] + 1.0) / (vmax[frac] - vmin[frac] + 1.0)
    beta = np.clip(beta, 0.0, 1.0)
    lo, hi = cov.coverage_bounds(beta, h, view.uniq, M, alpha)
    return cov.Bounded(beta, lo, hi)


M = 12


@st.composite
def views(draw) -> Hist1D:
    """A sorted view as the build and ``append_rows`` leave it: occupied
    bins hold integers inside their edges, with a unique count that may
    disagree with the span (appends widen extrema without exact uniques),
    empty bins carry their edges as extrema."""
    k = draw(st.integers(1, 10))
    widths = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    edges = draw(st.integers(-20, 20)) + np.concatenate(([0], np.cumsum(widths))).astype(float)
    if draw(st.booleans()):
        edges[1:-1] += 0.5  # split points between two integers
    counts, vmin, vmax, uniq = [], [], [], []
    for t in range(k):
        # Integers in [e_t, e_{t+1}), or [e_t, e_k] for the last bin.
        stop = edges[t + 1] + 1.0 if t == k - 1 else edges[t + 1]
        ints = np.arange(np.ceil(edges[t]), stop)
        u = draw(st.sampled_from([0, 1, 2, 3, 5, 40]))
        if u == 0:
            counts.append(0)
            vmin.append(edges[t])
            vmax.append(edges[t + 1])
        else:
            lo = draw(st.integers(0, len(ints) - 1))
            hi = draw(st.integers(lo, len(ints) - 1))
            counts.append(draw(st.one_of(st.integers(1, M - 1), st.integers(M, 4 * M))))
            vmin.append(ints[lo])
            vmax.append(ints[hi])
        uniq.append(u)
    return Hist1D(
        edges,
        np.array(counts, np.int64),
        np.array(vmin, float),
        np.array(vmax, float),
        np.array(uniq, np.int64),
    )


def regions(edges: list[float], extrema: list[float]):
    """Regions from the region algebra over ``cond_region`` leaves. Most
    literals sit on or next to the view's edges and extrema, where an
    off-by-one in finding an interval's end bins would show."""

    def near(points):
        return st.sampled_from(points).flatmap(lambda p: st.sampled_from([p - 1.0, p, p + 1.0]))

    anywhere = st.integers(-60, 300).map(lambda x: x / 2)
    literals = st.one_of(near(edges), near(extrema), anywhere)
    conditions = st.builds(cov.cond_region, st.sampled_from(OPS), literals)
    return st.recursive(
        conditions,
        lambda sub: st.one_of(
            st.builds(cov.region_union, sub, sub), st.builds(cov.region_intersect, sub, sub)
        ),
        max_leaves=4,
    )


@st.composite
def cases(draw):
    view = draw(views())
    extrema = sorted({float(x) for x in (*view.vmin, *view.vmax)})
    return view, draw(regions(view.edges.tolist(), extrema))


@settings(max_examples=600, deadline=None)
@given(case=cases(), alpha=st.sampled_from([0.001, 0.05]))
def test_end_bin_coverage_equals_all_bins_reference(case, alpha):
    view, region = case
    got = cov.region_coverage(region, view, M, alpha)
    want = reference_coverage(region, view, M, alpha)
    assert np.array_equal(got.est, want.est)
    assert np.array_equal(got.lo, want.lo)
    assert np.array_equal(got.hi, want.hi)


def test_two_interval_neq_full_and_empty():
    view = Hist1D(
        np.array([0.0, 10.0, 20.0, 30.0]),
        np.array([50, 5, 50]),
        np.array([0.0, 12.0, 20.0]),
        np.array([9.0, 18.0, 30.0]),
        np.array([10, 4, 11]),
    )
    for region in (cov.cond_region("!=", 15.0), cov.cond_region("!=", 0.0), cov.FULL, cov.EMPTY):
        got = cov.region_coverage(region, view, M, 0.001)
        want = reference_coverage(region, view, M, 0.001)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def reference_bounds(beta, h, uniq, M: int, alpha: float):
    """Eqs. 22–23 with boolean masks over all bins."""
    lo = beta.copy()
    hi = beta.copy()
    fractional = (beta > 0.0) & (beta < 1.0) & (h > 0)
    small = fractional & (h < M)
    lo[small] = np.minimum(beta[small], 1.0 / h[small])
    hi[small] = np.maximum(beta[small], 1.0 - 1.0 / h[small])
    for t in np.flatnonzero(fractional & (h >= M)):
        s = sub_bin_count(int(uniq[t]))
        if s < 2:
            continue
        crit = chi2_critical(alpha, s)
        a = math.floor(beta[t] * s)
        b = math.ceil(beta[t] * s)
        lo_t = 0.0
        if a > 0:
            lo_t = (a / s) * (1.0 - math.sqrt(crit * (s - a) / (h[t] * a)))
        hi_t = 1.0
        if b < s:
            hi_t = (b / s) * (1.0 + math.sqrt(crit * (s - b) / (h[t] * b)))
        lo[t] = min(beta[t], max(0.0, lo_t))
        hi[t] = max(beta[t], min(1.0, hi_t))
    return lo, hi


@st.composite
def bound_inputs(draw):
    k = draw(st.integers(1, 6))
    beta = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1 / 3]), st.floats(0.0, 1.0)),
            min_size=k,
            max_size=k,
        )
    )
    h = draw(st.lists(st.one_of(st.just(0), st.integers(1, 5000)), min_size=k, max_size=k))
    uniq = draw(st.lists(st.integers(0, 600), min_size=k, max_size=k))
    return np.array(beta), np.array(h, np.float64), np.array(uniq, np.int64)


@settings(max_examples=600, deadline=None)
@given(case=bound_inputs(), M=st.integers(1, 300), alpha=st.sampled_from([0.001, 0.05]))
def test_coverage_bounds_equal_mask_reference(case, M, alpha):
    beta, h, uniq = case
    got = cov.coverage_bounds(beta, h, uniq, M, alpha)
    want = reference_bounds(beta, h, uniq, M, alpha)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
