"""Recursive bin refinement — Algorithm 2 (RefineBin1D) and its 2-d
analogue (RefineBin2D, Fig. 5).

Pure numpy: the build kernel (``build.build_local``) calls them once per
column and once per column pair over the collected sample.
"""
from __future__ import annotations

import numpy as np

from repro.core.hypothesis import is_uniform
from repro.core.model import Hist1D, Hist2D, MarginalMeta

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
    out: dict,
) -> None:
    """Emit refined bins for ``[e_lo, e_hi)`` left-to-right (Algorithm 2).

    ``out`` accumulates parallel lists: upper edge, vmin, vmax, uniq.
    """
    if len(x) == 0:
        out["edges"].append(e_hi)
        out["vmin"].append(e_lo)
        out["vmax"].append(e_hi)
        out["uniq"].append(0)
        return
    uvals = np.unique(x)
    nu = len(uvals)
    if nu == 1:
        out["edges"].append(e_hi)
        out["vmin"].append(uvals[0])
        out["vmax"].append(uvals[0])
        out["uniq"].append(1)
        return
    at_cap = len(out["edges"]) >= out["max_bins"]
    if len(x) < M or at_cap or is_uniform(x, e_lo, e_hi, nu, alpha).uniform:
        out["edges"].append(e_hi)
        out["vmin"].append(uvals[0])
        out["vmax"].append(uvals[-1])
        out["uniq"].append(nu)
        return
    # Split at the bin midpoint (equal-width — the variant the paper found
    # slightly better than equal-depth).
    z = 0.5 * (e_lo + e_hi)
    left = x < z
    if not left.any() or left.all():
        # Degenerate split (all mass on one side of the midpoint): fall
        # back to the median of unique values so recursion still converges.
        z = float(uvals[nu // 2])
        left = x < z
        if not left.any() or left.all():
            out["edges"].append(e_hi)
            out["vmin"].append(uvals[0])
            out["vmax"].append(uvals[-1])
            out["uniq"].append(nu)
            return
    _refine_1d_rec(x[left], e_lo, z, M, alpha, out)
    _refine_1d_rec(x[~left], z, e_hi, M, alpha, out)


def refine_1d(
    values: np.ndarray,
    initial_edges: np.ndarray,
    M: int,
    alpha: float,
    max_bins: int = MAX_BINS_1D,
) -> Hist1D:
    """Build a refined 1-d histogram over ``values`` (non-null, encoded).

    Iterates Algorithm 2 over each initial bin; the final edge is
    inclusive (numpy histogram convention).
    """
    x = np.asarray(values, dtype=np.float64)
    x = x[~np.isnan(x)]
    edges0 = np.asarray(initial_edges, dtype=np.float64)
    out = {"edges": [], "vmin": [], "vmax": [], "uniq": [], "max_bins": max_bins}
    last = len(edges0) - 2
    for t in range(len(edges0) - 1):
        lo, hi = edges0[t], edges0[t + 1]
        mask = (x >= lo) & ((x <= hi) if t == last else (x < hi))
        _refine_1d_rec(x[mask], lo, hi, M, alpha, out)
    edges = np.concatenate(([edges0[0]], np.asarray(out["edges"])))
    counts, _ = np.histogram(x, bins=edges)
    return Hist1D(
        edges=edges,
        counts=counts.astype(np.int64),
        vmin=np.asarray(out["vmin"], dtype=np.float64),
        vmax=np.asarray(out["vmax"], dtype=np.float64),
        uniq=np.asarray(out["uniq"], dtype=np.int64),
    )


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


def marginal_meta(
    values: np.ndarray, edges: np.ndarray, idx: np.ndarray | None = None
) -> MarginalMeta:
    """Per-bin min / max / unique-count of ``values`` along one dimension
    (Algorithm 1 lines 23 & 26, as length-k vectors). ``idx`` is
    ``_bin_index(values, edges)`` when the caller already has it.

    One sort by (bin, value): a bin's min and max are the ends of its run,
    and its unique count is the number of places where the bin or the
    value changes."""
    k = len(edges) - 1
    vmin = edges[:-1].copy()
    vmax = edges[1:].copy()
    uniq = np.zeros(k, dtype=np.int64)
    if len(values) == 0:
        return MarginalMeta(vmin, vmax, uniq)
    if idx is None:
        idx = _bin_index(values, edges)
    order = np.lexsort((values, idx))
    si = idx[order]
    sv = values[order]
    new_bin = np.empty(len(si), dtype=bool)
    new_bin[0] = True
    np.not_equal(si[1:], si[:-1], out=new_bin[1:])
    starts = np.flatnonzero(new_bin)
    t = si[starts]
    vmin[t] = sv[starts]
    vmax[t] = sv[np.append(starts[1:], len(sv)) - 1]
    new_value = new_bin.copy()
    new_value[1:] |= sv[1:] != sv[:-1]
    uniq[t] = np.add.reduceat(new_value.astype(np.int64), starts)
    return MarginalMeta(vmin, vmax, uniq)


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

    counts, _, _ = np.histogram2d(x, y, bins=[ex, ey])
    return Hist2D(
        i=i,
        j=j,
        edges_i=ex,
        edges_j=ey,
        counts=counts.astype(np.int64),
        meta_i=marginal_meta(x, ex),
        meta_j=marginal_meta(y, ey),
    )
