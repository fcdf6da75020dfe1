"""Bin refinement — Algorithm 2 (RefineBin1D) and its 2-d analogue
(RefineBin2D, Fig. 5) as one pass loop, :func:`_refine`, over a grid of
one or two dimensions.

Pure numpy: the build kernel (``build.build_local``) calls
:func:`refine_1d` once per column and :func:`refine_2d` once per column
pair over the collected sample. Refinement only chooses edges;
:func:`bin_stats` is the one kernel that turns sorted values and edges
into ``Hist1D``s (counts, min, max, unique count), for a column, for each
dimension of a pair and, several at once, for ``update.append_rows``.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.hypothesis import is_uniform, tested
from repro.core.model import Hist1D, Hist2D

#: hard caps so adversarial data cannot blow up a synopsis.
MAX_BINS_1D = 2048
MAX_BINS_PER_DIM_2D = 512
MAX_PASSES = 60


def prepare_initial_edges(
    lo: float, hi: float, seed_values: np.ndarray | None, max_edges: int
) -> np.ndarray:
    """Initial bin edges for one column (Algorithm 1 line 4): the GreedyGD
    base values downsampled to at most ``max_edges`` values, else just
    ``[min, max]``. Edges always cover ``[lo, hi]`` exactly."""
    if hi <= lo:
        return np.array([lo, lo + 1.0])
    if seed_values is None or len(seed_values) == 0:
        return np.array([lo, hi], dtype=np.float64)
    vals = np.unique(np.asarray(seed_values, dtype=np.float64))
    vals = vals[(vals > lo) & (vals < hi)]
    if len(vals) > max(0, max_edges - 2):
        take = np.linspace(0, len(vals) - 1, max(0, max_edges - 2)).round().astype(int)
        vals = vals[np.unique(take)]
    return np.concatenate(([lo], vals, [hi]))


def _refine(
    values: list[np.ndarray],
    edges: list[np.ndarray],
    M: int,
    alpha: float,
    max_bins: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each dimension's edges after refining the grid ``edges`` over the
    points ``values`` (one array per dimension, one or two dimensions),
    and the points' counts on the refined grid: Algorithm 2, and
    RefineBin2D (Fig. 5) the same way.

    Each pass groups the points by cell and tests every cell with at
    least ``M`` points for uniformity in each dimension. A cell that fails
    splits its least uniform dimension (largest chi2/critical, ties to the
    first) at :func:`_split_point`, across the whole grid, while that
    dimension has fewer than ``max_bins`` bins. Passes stop when one adds
    no edge, or after ``MAX_PASSES``. A cell's bounds fix its points and
    so its outcome: a cell that added no edge is not tested again, and in
    one dimension, where a bin's test sees only its own points, the passes
    give the recursion's edges."""
    edges = [np.array(e, dtype=np.float64) for e in edges]  # a pair's own copy of the 1-d edges
    settled: set[tuple[float, ...]] = set()
    for n_pass in range(MAX_PASSES + 1):
        ks = tuple(len(e) - 1 for e in edges)
        keys = np.ravel_multi_index([_bin_index(v, e) for v, e in zip(values, edges)], ks)
        if n_pass == MAX_PASSES:
            break
        order, starts, gkeys = _group_slices(keys)
        cells = np.unravel_index(gkeys, ks)
        ends = np.append(starts[1:], len(keys))
        new: list[set[float]] = [set() for _ in ks]
        for g in np.flatnonzero(tested(ends - starts, M)):
            lo = [e[c[g]] for e, c in zip(edges, cells)]
            hi = [e[c[g] + 1] for e, c in zip(edges, cells)]
            bounds = (*lo, *hi)
            if bounds in settled:
                continue
            rows = order[starts[g] : ends[g]]
            pts = [v[rows] for v in values]
            tests = [is_uniform(p, a, b, len(np.unique(p)), alpha) for p, a, b in zip(pts, lo, hi)]
            failed = [d for d, r in enumerate(tests) if not r.uniform]
            z = None
            if failed:
                d = max(failed, key=lambda d: tests[d].ratio)
                if ks[d] + len(new[d]) < max_bins:
                    z = _split_point(pts[d], lo[d], hi[d])
            if z is None:
                settled.add(bounds)
            else:
                new[d].add(z)
        if not any(new):
            break
        edges = [np.unique(np.concatenate((e, list(n)))) for e, n in zip(edges, new)]
    return edges, np.bincount(keys, minlength=math.prod(ks)).reshape(ks)


def refine_1d(
    values: np.ndarray,
    initial_edges: np.ndarray,
    M: int,
    alpha: float,
    max_bins: int = MAX_BINS_1D,
) -> Hist1D:
    """Build a refined 1-d histogram of at most ``max_bins`` bins (or the
    initial ones) over ``values`` (encoded; NaNs and values outside the
    initial edges are dropped): :func:`_refine` chooses the edges and
    :func:`bin_stats` takes the counts and metadata; the final edge is
    inclusive (numpy histogram convention).
    """
    x = np.asarray(values, dtype=np.float64)
    edges0 = np.asarray(initial_edges, dtype=np.float64)
    # Sorted values keep every pass's grouping a scan of presorted keys.
    sv = np.sort(x[(x >= edges0[0]) & (x <= edges0[-1])])
    (edges,), _ = _refine([sv], [edges0], M, alpha, max_bins)
    return bin_stats(sv, [edges])[0]


def _split_point(vals: np.ndarray, lo: float, hi: float) -> float | None:
    """A split coordinate in (lo, hi) that actually separates ``vals``:
    the bin midpoint (equal-width) when it does, else the median unique
    gap; None when no separating split exists."""
    z = 0.5 * (lo + hi)
    vmin, vmax = vals.min(), vals.max()
    if vmin < z <= vmax and lo < z < hi:
        return z
    uv = np.unique(vals)
    if len(uv) < 2:
        return None
    z = 0.5 * (uv[len(uv) // 2 - 1] + uv[len(uv) // 2])
    if vmin < z <= vmax and lo < z < hi:
        return z
    return None


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per value with the final edge inclusive."""
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def _group_slices(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``keys`` and return (order, group_start_offsets, group_keys)."""
    if len(keys) == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64), keys
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sk)) + 1))
    return order, starts, sk[starts]


def bin_stats(sv: np.ndarray, edges: list[np.ndarray]) -> list[Hist1D]:
    """The histogram of the sorted, NaN-free values ``sv`` over each edge
    array of ``edges``: per-bin counts, min, max and unique count
    (Algorithm 1 lines 23 & 26). A value below the first edge counts in
    the first bin and one at or past the last edge in the last (as
    :func:`_bin_index` clips). An empty bin keeps its edges as its
    extrema and a unique count of 0.

    One ``searchsorted`` of every edge into ``sv`` gives each bin's run
    ``[start, end)`` of sorted values: its count is the run's length, its
    min and max the values at the run's ends, and its unique count the
    difference of one cumulative sum of "value changed" flags (a run's
    first value always differs from the one before it)."""
    n = len(sv)
    ks = np.array([len(e) - 1 for e in edges])
    cut = np.cumsum(ks)  # where each histogram's bins end
    e = np.concatenate(edges)
    lo = np.arange(cut[-1]) + np.repeat(np.arange(len(ks)), ks)  # each bin's lower edge in e
    pos = np.searchsorted(sv, e, "left")
    starts, ends = pos[lo], pos[lo + 1]
    starts[cut - ks] = 0
    ends[cut - 1] = n
    counts = ends - starts
    changed = np.empty(n, dtype=bool)
    changed[:1] = True
    np.not_equal(sv[1:], sv[:-1], out=changed[1:])
    distinct = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(changed, out=distinct[1:])
    uniq = distinct[ends] - distinct[starts]
    vmin, vmax = e[lo], e[lo + 1]
    full = counts > 0
    vmin[full] = sv[starts[full]]
    vmax[full] = sv[ends[full] - 1]
    return [
        Hist1D(ed, counts[a:b], vmin[a:b], vmax[a:b], uniq[a:b])
        for ed, a, b in zip(edges, cut - ks, cut)
    ]


def refine_2d(
    x: np.ndarray,
    y: np.ndarray,
    edges_x: np.ndarray,
    edges_y: np.ndarray,
    i: int,
    j: int,
    M: int,
    alpha: float,
    max_bins_per_dim: int = MAX_BINS_PER_DIM_2D,
) -> Hist2D:
    """2-d refinement (RefineBin2D, Fig. 5): :func:`_refine` starts from the
    1-d edges and splits the *less uniform* dimension of each cell that
    fails the test. A split spans the full row/column of the grid, exactly
    as in the paper.

    ``x``/``y`` are the pairwise-complete (both non-null) encoded values of
    columns ``i`` and ``j``.
    """
    ok = ~(np.isnan(x) | np.isnan(y))
    x = np.asarray(x, dtype=np.float64)[ok]
    y = np.asarray(y, dtype=np.float64)[ok]
    (ex, ey), counts = _refine([x, y], [edges_x, edges_y], M, alpha, max_bins_per_dim)
    return Hist2D(i, j, counts, *bin_stats(np.sort(x), [ex]), *bin_stats(np.sort(y), [ey]))
