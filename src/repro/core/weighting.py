"""Bin weightings — Sec. 5.3, Eqs. 24–29.

A predicate plan (``coverage.compile``, which has already consolidated
each single-column subtree into one integer region — the "delayed
transformation") is evaluated bottom-up into per-bin satisfaction
probability vectors at the aggregation column's 1-d resolution:

* a region on the aggregation column is resolved exactly,
* a region on another column ``j`` goes through the pair histogram:
  ``q = H^(ij) beta^(j)`` at the fine resolution, summed onto the coarse
  1-d bins and divided by the 1-d counts ``h^(i)`` (Eq. 27 — dividing by
  the 1-d counts also makes rows with NULL in ``j`` fail the predicate),
* AND combines children with an element-wise product, OR with the
  complement product (Eq. 28, conditional independence).

Weightings are ``w = h ⊙ p`` with bounds from the coverage bounds, widened
for sampling per Eq. 29 (implemented as the binomial-count standard error
``sqrt(h β(1-β)(1-ρ))`` — see DESIGN.md on the dimensional fix).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core import coverage as cov
from repro.core.model import HistView, PairwiseHist, map_fine_to_coarse, read_only
from repro.stats import Z_98


class Weighting(NamedTuple):
    est: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class _Probs(NamedTuple):
    est: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class _PairState(NamedTuple):
    """Query-time state of a pair histogram oriented ``(agg, pred)``."""

    Hf: np.ndarray  # H as float64, aggregation column on the rows
    fmap: np.ndarray  # coarse 1-d bin of each fine aggregation bin
    pred_view: HistView


def _pair_state(ph: PairwiseHist, agg: int, pred: int) -> _PairState:
    key = (agg, pred)
    st = ph.derived.get(key)
    if st is None:
        pair = ph.pair(agg, pred)
        H, e_agg, _, _, _ = pair.oriented(agg)
        view = pair.pred_view(pred)
        Hf, fmap, _ = read_only(
            H.astype(np.float64), map_fine_to_coarse(e_agg, ph.hists1d[agg].edges), view.counts
        )
        st = ph.derived[key] = _PairState(Hf, fmap, view)
    return st


def _prob_from_region(
    ph: PairwiseHist, agg: int, j: int, region: cov.Region
) -> _Probs:
    """Pr(region on column j | bin t of agg column) per coarse agg bin."""
    M, alpha = ph.M, ph.alpha
    col = ph.column_state(agg)
    if j == agg:
        c = cov.region_coverage(region, col.view, M, alpha)
        return _Probs(c.est, c.lo, c.hi)
    st = _pair_state(ph, agg, j)
    c = cov.region_coverage(region, st.pred_view, M, alpha)
    k = len(col.h)

    def to_probs(beta: np.ndarray) -> np.ndarray:
        q = np.bincount(st.fmap, weights=st.Hf @ beta, minlength=k)
        return np.clip(q / col.safe_h, 0.0, 1.0)

    return _Probs(to_probs(c.est), to_probs(c.lo), to_probs(c.hi))


def _eval_plan(ph: PairwiseHist, agg: int, plan: cov.Plan) -> _Probs:
    if isinstance(plan, cov.Leaf):
        return _prob_from_region(ph, agg, plan.col, plan.region)
    return _combine([_eval_plan(ph, agg, p) for p in plan.parts], plan.kind)


def _combine(parts: list[_Probs], kind: str) -> _Probs:
    if kind == "and":
        est = parts[0].est.copy()
        lo = parts[0].lo.copy()
        hi = parts[0].hi.copy()
        for p in parts[1:]:
            est *= p.est
            lo *= p.lo
            hi *= p.hi
        return _Probs(est, lo, hi)
    # OR: 1 - prod(1 - p); bounds are monotone in each child's bounds.
    est = 1.0 - parts[0].est
    lo = 1.0 - parts[0].lo
    hi = 1.0 - parts[0].hi
    for p in parts[1:]:
        est *= 1.0 - p.est
        lo *= 1.0 - p.lo
        hi *= 1.0 - p.hi
    return _Probs(1.0 - est, 1.0 - lo, 1.0 - hi)


def weights(ph: PairwiseHist, agg: int, plan: cov.Plan | None) -> Weighting:
    """Final weightings vector + bounds for aggregation column ``agg``."""
    if plan is None:
        h = ph.column_state(agg).h
        return Weighting(h.copy(), h.copy(), h.copy())
    return _weighting(ph, agg, _eval_plan(ph, agg, plan))


def grouped_weights(
    ph: PairwiseHist, agg: int, plan: cov.Plan | None, g: int, regions: list[cov.Region]
) -> list[Weighting]:
    """``weights(ph, agg, plan AND (column g in r))`` for each ``r`` in
    ``regions``, with ``plan`` evaluated once for all of them.

    The answers are exactly those of the conjunction: over a ``plan`` on
    other columns, Eq. 28 makes it the product of ``plan``'s probabilities
    and the region's, and a product of two floats is commutative. A
    ``plan`` on column ``g`` alone would be merged with the region by the
    delayed transformation, so it is intersected with each region here.
    """
    if isinstance(plan, cov.Leaf) and plan.col == g:
        regions = [cov.region_intersect(plan.region, r) for r in regions]
        plan = None
    shared = None if plan is None else _eval_plan(ph, agg, plan)
    out = []
    for r in regions:
        p = _prob_from_region(ph, agg, g, r)
        out.append(_weighting(ph, agg, p if shared is None else _combine([shared, p], "and")))
    return out


def _weighting(ph: PairwiseHist, agg: int, p: _Probs) -> Weighting:
    """Per-bin probabilities to weightings ``h ⊙ p``, widened for sampling
    (Eq. 29) and clipped to ``[0, h]``."""
    h = ph.column_state(agg).h
    w = h * p.est
    w_lo = h * p.lo
    w_hi = h * p.hi
    rho = ph.rho
    if rho < 1.0:
        # Eq. 29: widen for sampling uncertainty (binomial, fpc).
        se_lo = np.sqrt(h * p.lo * (1.0 - p.lo) * (1.0 - rho))
        se_hi = np.sqrt(h * p.hi * (1.0 - p.hi) * (1.0 - rho))
        w_lo = w_lo - Z_98 * se_lo
        w_hi = w_hi + Z_98 * se_hi
    w_lo = np.clip(w_lo, 0.0, h)
    w_hi = np.clip(w_hi, 0.0, h)
    return Weighting(w, np.minimum(w_lo, w), np.maximum(w_hi, w))
