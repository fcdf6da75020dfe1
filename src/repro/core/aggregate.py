"""Aggregation estimators and bounds — Table 3 of the paper.

All formulas operate in the encoded integer domain on the aggregation
column's 1-d histogram plus the weightings vector; seven functions are
supported: COUNT, SUM, AVG, MIN, MAX, MEDIAN, VAR. ``single_column`` marks
queries whose aggregation and every predicate touch one column only — the
MIN/MAX special cases in Table 3 apply there.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.hypothesis import sub_bin_count
from repro.core.model import Hist1D
from repro.core.weighting import Weighting

_EPS = 1e-9


class Estimate(NamedTuple):
    est: float | None
    lo: float | None
    hi: float | None


def _none() -> Estimate:
    return Estimate(None, None, None)


def aggregate(
    func: str,
    w: Weighting,
    hist: Hist1D,
    *,
    rho: float,
    M: int,
    alpha: float,
    single_column: bool = False,
    centres: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Estimate:
    """``centres`` is the column's ``(midpoints, c^-, c^+)`` (Eq. 10), as
    cached in ``PairwiseHist.column_state``; it is computed from ``hist``
    when not given."""
    fn = _DISPATCH[func]
    if centres is None:
        centres = (hist.midpoints, *hist.centre_bounds(M, alpha))
    return fn(w, hist, rho, M, alpha, single_column, centres)


def _count(w, hist, rho, M, alpha, single_column, centres) -> Estimate:
    return Estimate(w.est.sum() / rho, w.lo.sum() / rho, w.hi.sum() / rho)


def _sum(w, hist, rho, M, alpha, single_column, centres) -> Estimate:
    c, c_lo, c_hi = centres
    return Estimate(
        float(w.est @ c) / rho, float(w.lo @ c_lo) / rho, float(w.hi @ c_hi) / rho
    )


def _avg(w, hist, rho, M, alpha, single_column, centres) -> Estimate:
    tot = w.est.sum()
    if tot <= _EPS:
        return _none()
    c, c_lo, c_hi = centres
    est = float(w.est @ c) / tot
    los, his = [], []
    for wv in (w.lo, w.hi):
        s = wv.sum()
        if s > _EPS:
            los.append(float(wv @ c_lo) / s)
            his.append(float(wv @ c_hi) / s)
    lo = min(los) if los else est
    hi = max(his) if his else est
    return Estimate(est, min(lo, est), max(hi, est))


def _first(vec: np.ndarray, thresh: float = _EPS) -> int | None:
    idx = np.flatnonzero(vec > thresh)
    return int(idx[0]) if len(idx) else None


def _last(vec: np.ndarray, thresh: float = _EPS) -> int | None:
    idx = np.flatnonzero(vec > thresh)
    return int(idx[-1]) if len(idx) else None


def _min(w, hist, rho, M, alpha, single_column, centres) -> Estimate:
    t = _first(w.est)
    if t is None:
        return _none()
    h, u = hist.counts, hist.uniq
    vlo, vhi = hist.vmin, hist.vmax
    if single_column and u[t] == 2 and w.est[t] < h[t] / 2.0:
        est = vhi[t]
    else:
        est = vlo[t]
    # Lower bound: earliest bin that *could* contain qualifying rows.
    tl = _first(w.hi)
    if tl is None:
        tl = t
    if single_column and u[tl] == 2 and w.hi[tl] < h[tl] / 5.0:
        lo = vhi[tl]
    else:
        lo = vlo[tl]
    # Upper bound: earliest bin that surely contains a qualifying row.
    th = _first(w.lo, 0.5)
    if th is None:
        th = _last(w.hi) or t
    hi = vhi[th]
    if single_column and u[th] > 2 and h[th] > M:
        s = sub_bin_count(int(u[th]))
        delta = (vhi[th] - vlo[th]) / s
        a = int(np.floor(s * w.lo[th] / h[th])) if h[th] > 0 else 0
        hi = vhi[th] - a * delta
    lo = min(lo, est)
    hi = max(hi, est)
    return Estimate(float(est), float(lo), float(hi))


def _max(w, hist, rho, M, alpha, single_column, centres) -> Estimate:
    t = _last(w.est)
    if t is None:
        return _none()
    h, u = hist.counts, hist.uniq
    vlo, vhi = hist.vmin, hist.vmax
    if single_column and u[t] == 2 and w.est[t] < h[t] / 2.0:
        est = vlo[t]
    else:
        est = vhi[t]
    th = _last(w.hi)
    if th is None:
        th = t
    if single_column and u[th] == 2 and w.hi[th] < h[th] / 5.0:
        hi = vlo[th]
    else:
        hi = vhi[th]
    tl = _last(w.lo, 0.5)
    if tl is None:
        tl = _first(w.hi) or t
    lo = vlo[tl]
    if single_column and u[tl] > 2 and h[tl] > M:
        s = sub_bin_count(int(u[tl]))
        delta = (vhi[tl] - vlo[tl]) / s
        a = int(np.floor(s * w.lo[tl] / h[tl])) if h[tl] > 0 else 0
        lo = vlo[tl] + a * delta
    lo = min(lo, est)
    hi = max(hi, est)
    return Estimate(float(est), float(lo), float(hi))


def _median_bin(wv: np.ndarray) -> int | None:
    tot = wv.sum()
    if tot <= _EPS:
        return None
    csum = np.cumsum(wv)
    idx = np.flatnonzero(csum >= 0.5 * tot)
    return int(idx[0]) if len(idx) else None


def _median(w, hist, rho, M, alpha, single_column, centres) -> Estimate:
    t = _median_bin(w.est)
    if t is None:
        return _none()
    vlo, vhi, u = hist.vmin, hist.vmax, hist.uniq
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
    return Estimate(float(est), float(min(vlo[t_lo], est)), float(max(vhi[t_hi], est)))


def _var(w, hist, rho, M, alpha, single_column, centres) -> Estimate:
    tot = w.est.sum()
    if tot <= _EPS:
        return _none()
    c = centres[0]
    mean = float(w.est @ c) / tot
    est = float(w.est @ (c**2)) / tot - mean**2
    vlo, vhi = hist.vmin, hist.vmax
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
    return Estimate(max(est, 0.0), min(lo, est), max(hi, est))


_DISPATCH = {
    "COUNT": _count,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": _min,
    "MAX": _max,
    "MEDIAN": _median,
    "VAR": _var,
}
