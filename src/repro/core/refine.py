"""Recursive bin refinement — Algorithm 2 (RefineBin1D) and its 2-d
analogue (RefineBin2D, Fig. 5).

Pure numpy: the build kernel (``build.build_local``) calls them once per
column and once per column pair over the collected sample. Refinement
only chooses edges; :func:`bin_stats` is the one kernel that turns sorted
values and edges into ``Hist1D``s (counts, min, max, unique count), for a
column, for each dimension of a pair and, several at once, for
``update.append_rows``.
"""
from __future__ import annotations

import numpy as np

from repro.core.hypothesis import is_uniform
from repro.core.model import Hist1D, Hist2D

#: hard caps so adversarial data cannot blow up a synopsis.
MAX_BINS_1D = 2048
MAX_BINS_PER_DIM_2D = 512
MAX_PASSES_2D = 60


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


def _refine_1d_rec(
    x: np.ndarray,
    e_lo: float,
    e_hi: float,
    M: int,
    alpha: float,
    uppers: list[float],
    max_bins: int,
) -> None:
    """Append the upper edges of ``[e_lo, e_hi)``'s refined bins to
    ``uppers``, left to right (Algorithm 2): split while the bin holds at
    least ``M`` points of two or more values that fail the uniformity test
    and ``max_bins`` bins have not been emitted. Splits follow
    :func:`_split_point`, as in 2-d: the bin midpoint (equal-width — the
    variant the paper found slightly better than equal-depth), else a gap
    between two values, so a split never makes an empty-width bin."""
    if len(x) >= M and len(uppers) < max_bins:
        nu = len(np.unique(x))
        if nu > 1 and not is_uniform(x, e_lo, e_hi, nu, alpha).uniform:
            z = _split_point(x, e_lo, e_hi)
            if z is not None:
                left = x < z
                _refine_1d_rec(x[left], e_lo, z, M, alpha, uppers, max_bins)
                _refine_1d_rec(x[~left], z, e_hi, M, alpha, uppers, max_bins)
                return
    uppers.append(e_hi)


def refine_1d(
    values: np.ndarray,
    initial_edges: np.ndarray,
    M: int,
    alpha: float,
    max_bins: int = MAX_BINS_1D,
) -> Hist1D:
    """Build a refined 1-d histogram over ``values`` (encoded; NaNs and
    values outside the initial edges are dropped).

    Iterates Algorithm 2 over each initial bin for the edges, then takes
    the counts and metadata from :func:`bin_stats`; the final edge is
    inclusive (numpy histogram convention).
    """
    x = np.asarray(values, dtype=np.float64)
    edges0 = np.asarray(initial_edges, dtype=np.float64)
    x = x[(x >= edges0[0]) & (x <= edges0[-1])]
    uppers: list[float] = []
    last = len(edges0) - 2
    for t in range(len(edges0) - 1):
        lo, hi = edges0[t], edges0[t + 1]
        mask = (x >= lo) & ((x <= hi) if t == last else (x < hi))
        _refine_1d_rec(x[mask], lo, hi, M, alpha, uppers, max_bins)
    return bin_stats(np.sort(x), [np.concatenate(([edges0[0]], uppers))])[0]


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
    max_passes: int = MAX_PASSES_2D,
) -> Hist2D:
    """2-d refinement (RefineBin2D, Fig. 5): starting from the 1-d edges,
    repeatedly test every bin with at least ``M`` points for uniformity in
    each dimension separately and split the *less uniform* dimension at the
    bin midpoint. A split spans the full row/column of the grid, exactly as
    in the paper, so it is applied globally and counts are recomputed each
    pass until no bin rejects the null.

    ``x``/``y`` are the pairwise-complete (both non-null) encoded values of
    columns ``i`` and ``j``.
    """
    ex = np.asarray(edges_x, dtype=np.float64).copy()
    ey = np.asarray(edges_y, dtype=np.float64).copy()
    ok = ~(np.isnan(x) | np.isnan(y))
    x = np.asarray(x, dtype=np.float64)[ok]
    y = np.asarray(y, dtype=np.float64)[ok]

    for _ in range(max_passes):
        kx, ky = len(ex) - 1, len(ey) - 1
        xi = _bin_index(x, ex)
        yi = _bin_index(y, ey)
        flat = xi * ky + yi
        order, starts, gkeys = _group_slices(flat)
        bounds = np.concatenate((starts, [len(flat)]))
        new_x: set[float] = set()
        new_y: set[float] = set()
        for g, key in enumerate(gkeys):
            lo, hi = bounds[g], bounds[g + 1]
            if hi - lo < M:
                continue
            ti, tj = int(key) // ky, int(key) % ky
            xs = x[order[lo:hi]]
            ys = y[order[lo:hi]]
            rx = is_uniform(xs, ex[ti], ex[ti + 1], len(np.unique(xs)), alpha)
            ry = is_uniform(ys, ey[tj], ey[tj + 1], len(np.unique(ys)), alpha)
            if rx.uniform and ry.uniform:
                continue
            # Split the least uniform dimension (largest chi2/critical).
            if (not rx.uniform) and (rx.ratio >= ry.ratio or ry.uniform):
                if kx + len(new_x) < max_bins_per_dim:
                    z = _split_point(xs, ex[ti], ex[ti + 1])
                    if z is not None:
                        new_x.add(z)
            else:
                if ky + len(new_y) < max_bins_per_dim:
                    z = _split_point(ys, ey[tj], ey[tj + 1])
                    if z is not None:
                        new_y.add(z)
        if not new_x and not new_y:
            break
        if new_x:
            ex = np.unique(np.concatenate((ex, np.array(sorted(new_x)))))
        if new_y:
            ey = np.unique(np.concatenate((ey, np.array(sorted(new_y)))))
    else:  # the last pass added edges: bin by the final ones
        xi = _bin_index(x, ex)
        yi = _bin_index(y, ey)

    kx, ky = len(ex) - 1, len(ey) - 1
    counts = np.bincount(xi * ky + yi, minlength=kx * ky).reshape(kx, ky)
    return Hist2D(i, j, counts, *bin_stats(np.sort(x), [ex]), *bin_stats(np.sort(y), [ey]))
