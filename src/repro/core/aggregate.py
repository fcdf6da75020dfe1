"""Aggregation estimators and bounds — Table 3 of the paper.

All formulas operate in the encoded integer domain on the aggregation
column's 1-d histogram plus the weightings vector; seven functions are
supported: COUNT, SUM, AVG, MIN, MAX, MEDIAN, VAR. ``single_column`` marks
queries whose aggregation and every predicate touch one column only — the
MIN/MAX special cases in Table 3 apply there. Below ``rho = 1`` a bin's
sampled min and max need not be the table's, so the outer MIN/MAX bound
is the bin's edge instead. Answers stay in the encoded domain;
``ColumnInfo.decode`` maps them back.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.coverage import Bounded
from repro.core.hypothesis import sub_bin_count, tested
from repro.core.model import ColumnState
from repro.queries import NO_ANSWER, AQPResult

_EPS = 1e-9


def aggregate(
    func: str,
    w: Bounded,
    col: ColumnState,
    *,
    rho: float,
    M: int,
    single_column: bool = False,
) -> AQPResult:
    """``func`` over the aggregation column ``col`` weighted by ``w``, in
    the encoded domain."""
    return _DISPATCH[func](w, col, rho, M, single_column)


def _count(w, col, rho, M, single_column) -> AQPResult:
    return AQPResult(w.est.sum() / rho, w.lo.sum() / rho, w.hi.sum() / rho)


def _sum(w, col, rho, M, single_column) -> AQPResult:
    c, c_lo, c_hi = col.centres
    return AQPResult(
        float(w.est @ c) / rho, float(w.lo @ c_lo) / rho, float(w.hi @ c_hi) / rho
    )


def _avg(w, col, rho, M, single_column) -> AQPResult:
    tot = w.est.sum()
    if tot <= _EPS:
        return NO_ANSWER
    c, c_lo, c_hi = col.centres
    est = float(w.est @ c) / tot
    los, his = [], []
    for wv in (w.lo, w.hi):
        s = wv.sum()
        if s > _EPS:
            los.append(float(wv @ c_lo) / s)
            his.append(float(wv @ c_hi) / s)
    lo = min(los) if los else est
    hi = max(his) if his else est
    return AQPResult(est, min(lo, est), max(hi, est))


def _bin(vec: np.ndarray, first: bool, thresh: float = _EPS) -> int | None:
    """The first (or last) bin where ``vec`` exceeds ``thresh``."""
    idx = np.flatnonzero(vec > thresh)
    if not len(idx):
        return None
    return int(idx[0] if first else idx[-1])


def _extreme(w, col, rho, M, single_column, first: bool) -> AQPResult:
    """MIN (``first``) or MAX. MAX is MIN mirrored: the latest candidate
    bin for the earliest, ``vmax`` for ``vmin`` and ``+a·δ`` for ``−a·δ``.
    Below, "near" is the bound of a bin on the answer's side (``vmin`` for
    MIN) and "far" the other one."""
    hist = col.hist
    h, u = hist.counts, hist.uniq
    near, far = (hist.vmin, hist.vmax) if first else (hist.vmax, hist.vmin)
    t = _bin(w.est, first)
    if t is None:
        return NO_ANSWER
    if single_column and u[t] == 2 and w.est[t] < h[t] / 2.0:
        est = far[t]
    else:
        est = near[t]
    # Outer bound: the first bin that *could* hold a qualifying row. Below
    # rho = 1 its sampled extrema need not be the table's, but its edge is.
    to = _bin(w.hi, first)
    if to is None:
        to = t
    if rho < 1.0:
        outer = hist.edges[to] if first else hist.edges[to + 1]
    elif single_column and u[to] == 2 and w.hi[to] < h[to] / 5.0:
        outer = far[to]
    else:
        outer = near[to]
    # Inner bound: the first bin that surely holds a qualifying row.
    ti = _bin(w.lo, first, 0.5)
    if ti is None:
        ti = _bin(w.hi, not first)
        if ti is None:
            ti = t
    inner = far[ti]
    if single_column and u[ti] > 2 and tested(h[ti], M):
        s = sub_bin_count(int(u[ti]))
        delta = (far[ti] - near[ti]) / s
        a = int(np.floor(s * w.lo[ti] / h[ti])) if h[ti] > 0 else 0
        inner = far[ti] - a * delta
    lo, hi = (outer, inner) if first else (inner, outer)
    return AQPResult(float(est), float(min(lo, est)), float(max(hi, est)))


def _median_bin(wv: np.ndarray) -> int | None:
    tot = wv.sum()
    if tot <= _EPS:
        return None
    csum = np.cumsum(wv)
    idx = np.flatnonzero(csum >= 0.5 * tot)
    return int(idx[0]) if len(idx) else None


def _median(w, col, rho, M, single_column) -> AQPResult:
    t = _median_bin(w.est)
    if t is None:
        return NO_ANSWER
    vlo, vhi, u = col.hist.vmin, col.hist.vmax, col.hist.uniq
    tot = w.est.sum()
    below = w.est[:t].sum()
    f = (0.5 * tot - below) / w.est[t] if w.est[t] > _EPS else 0.5
    f = float(np.clip(f, 0.0, 1.0))
    if u[t] == 2:
        est = vlo[t] if f < 0.5 else vhi[t]
    else:
        est = vlo[t] + (vhi[t] - vlo[t]) * f
    cand = [tt for tt in (_median_bin(w.lo), _median_bin(w.hi)) if tt is not None]
    t_lo = min(cand + [t])
    t_hi = max(cand + [t])
    return AQPResult(float(est), float(min(vlo[t_lo], est)), float(max(vhi[t_hi], est)))


def _var(w, col, rho, M, single_column) -> AQPResult:
    tot = w.est.sum()
    if tot <= _EPS:
        return NO_ANSWER
    c = col.centres[0]
    mean = float(w.est @ c) / tot
    est = float(w.est @ (c**2)) / tot - mean**2
    vlo, vhi = col.hist.vmin, col.hist.vmax
    # Eq. 38: points as close to the mean as each bin allows.
    xi_lo = np.where(vhi < mean, vhi, np.where(vlo > mean, vlo, mean))
    # Eq. 39: points at whichever extremum is farther from the mean.
    xi_hi = np.where(np.abs(mean - vlo) > np.abs(vhi - mean), vlo, vhi)
    los, his = [], []
    for wv in (w.lo, w.hi):
        s = wv.sum()
        if s <= _EPS:
            continue
        m1 = float(wv @ xi_lo) / s
        los.append(float(wv @ (xi_lo**2)) / s - m1**2)
        m2 = float(wv @ xi_hi) / s
        his.append(float(wv @ (xi_hi**2)) / s - m2**2)
    lo = max(0.0, min(los)) if los else 0.0
    hi = max(his) if his else est
    return AQPResult(max(est, 0.0), min(lo, est), max(hi, est))


_DISPATCH = {
    "COUNT": _count,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": partial(_extreme, first=True),
    "MAX": partial(_extreme, first=False),
    "MEDIAN": _median,
    "VAR": _var,
}
