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

from functools import reduce
from typing import NamedTuple

import numpy as np

from repro.core import coverage as cov
from repro.core.coverage import Bounded
from repro.core.model import Hist1D, PairwiseHist, map_fine_to_coarse, read_only
from repro.stats import Z_98


class _PairState(NamedTuple):
    """Query-time state of a pair histogram oriented ``(agg, pred)``."""

    Hf: np.ndarray  # H as float64, aggregation column on the rows
    fmap: np.ndarray  # coarse 1-d bin of each fine aggregation bin
    pred: Hist1D  # the pair's predicate dimension


def _pair_state(ph: PairwiseHist, agg: int, pred: int) -> _PairState:
    key = (agg, pred)
    st = ph.derived.get(key)
    if st is None:
        H, dim_agg, dim_pred = ph.pair(agg, pred).oriented(agg)
        Hf, fmap = read_only(
            H.astype(np.float64), map_fine_to_coarse(dim_agg.edges, ph.hists1d[agg].edges)
        )
        st = ph.derived[key] = _PairState(Hf, fmap, dim_pred)
    return st


def _prob_from_region(
    ph: PairwiseHist, agg: int, j: int, region: cov.Region
) -> Bounded:
    """Pr(region on column j | bin t of agg column) per coarse agg bin."""
    M, alpha = ph.M, ph.alpha
    col = ph.column_state(agg)
    if j == agg:
        return cov.region_coverage(region, col.hist, M, alpha)
    st = _pair_state(ph, agg, j)
    c = cov.region_coverage(region, st.pred, M, alpha)
    k = len(col.h)

    def to_probs(beta: np.ndarray) -> np.ndarray:
        q = np.bincount(st.fmap, weights=st.Hf @ beta, minlength=k)
        return np.clip(q / col.safe_h, 0.0, 1.0)

    return c.map(to_probs)


def _eval_plan(ph: PairwiseHist, agg: int, plan: cov.Plan) -> Bounded:
    if isinstance(plan, cov.Leaf):
        return _prob_from_region(ph, agg, plan.col, plan.region)
    return _combine([_eval_plan(ph, agg, p) for p in plan.parts], plan.kind)


def _combine(parts: list[Bounded], kind: str) -> Bounded:
    """Eq. 28: AND is the product of the parts' probabilities, OR is
    ``1 - prod(1 - p)``. Both are monotone in each part, so the bounds
    fold the same way as the estimate."""
    if kind == "and":
        return _product(parts)
    return _product([p.map(_complement) for p in parts]).map(_complement)


def _product(parts: list[Bounded]) -> Bounded:
    return reduce(lambda a, b: Bounded(a.est * b.est, a.lo * b.lo, a.hi * b.hi), parts)


def _complement(p: np.ndarray) -> np.ndarray:
    return 1.0 - p


def weights(ph: PairwiseHist, agg: int, plan: cov.Plan | None) -> Bounded:
    """Final weightings vector + bounds for aggregation column ``agg``."""
    if plan is None:
        # Every bin satisfies an empty WHERE: p = 1, where Eq. 29 adds 0.
        ones = np.ones(len(ph.column_state(agg).h))
        return _weighting(ph, agg, Bounded(ones, ones, ones))
    return _weighting(ph, agg, _eval_plan(ph, agg, plan))


def grouped_weights(
    ph: PairwiseHist, agg: int, plan: cov.Plan | None, g: int, regions: list[cov.Region]
) -> list[Bounded]:
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


def _weighting(ph: PairwiseHist, agg: int, p: Bounded) -> Bounded:
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
    return Bounded(w, np.minimum(w_lo, w), np.maximum(w_hi, w))
