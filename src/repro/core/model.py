"""PairwiseHist data structures (Sec. 3–4).

``Hist1D`` holds a refined one-dimensional histogram with the per-bin
metadata the paper stores (min, max, unique count) and derives the rest
(midpoints, weighted-centre bounds — Theorem 1 / Eq. 10). ``Hist2D`` holds
a refined pair histogram: the bin-count matrix ``H^(ij)`` plus *marginal*
per-dimension metadata vectors (the paper's ``v^(i|j)±``, ``u^(i|j)``,
Fig. 4 / Algorithm 1 lines 23–26). ``PairwiseHist`` is the full synopsis.

All values are in the GreedyGD-encoded integer domain (Sec. 5.1), so the
minimum spacing ``mu`` between distinct values is 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.stats import chi2_critical
from repro.core.hypothesis import sub_bin_count

#: minimum spacing between distinct values in the encoded integer domain.
MU = 1.0


class HistView(NamedTuple):
    """The per-dimension view coverage computation needs (Sec. 5.2): bin
    edges, counts and metadata. Built from a ``Hist1D`` or from one
    dimension of a ``Hist2D``."""

    edges: np.ndarray
    counts: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    uniq: np.ndarray


def centre_bounds(
    counts: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
    uniq: np.ndarray,
    M: int,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-centre bounds ``c^-, c^+`` per bin (Eq. 10).

    Bins that passed the uniformity test (``h >= M``) get the tight
    Theorem-1 bounds; others get the adversarial bounds with minimum
    spacing ``MU``. Bounds are clipped to ``[vmin, vmax]`` and to bracket
    the midpoint, which the theory guarantees up to floating error.
    """
    h = counts.astype(np.float64)
    u = uniq.astype(np.float64)
    mid = (vmin + vmax) / 2.0
    c_lo = mid.copy()
    c_hi = mid.copy()

    # Non-passing bins (h < M): h-u+1 points at one extremum, the rest
    # packed at minimum spacing next to it.
    small = (counts < M) & (counts > 0)
    if np.any(small):
        shift = (u[small] - 1.0) * u[small] * MU / (2.0 * h[small])
        c_lo[small] = vmin[small] + shift
        c_hi[small] = vmax[small] - shift

    # Passing bins: Theorem 1.
    big = counts >= M
    if np.any(big):
        s = np.array([sub_bin_count(int(x)) for x in uniq[big]], dtype=np.float64)
        crit = np.array(
            [chi2_critical(alpha, int(si)) if si >= 2 else 0.0 for si in s]
        )
        delta = (vmax[big] - vmin[big]) / s
        spread = (delta / 6.0) * np.sqrt(3.0 * crit * (s**2 - 1.0) / h[big])
        c_lo[big] = vmin[big] + (s - 1.0) * delta / 2.0 - spread
        c_hi[big] = vmin[big] + (s + 1.0) * delta / 2.0 + spread

    c_lo = np.clip(c_lo, vmin, mid)
    c_hi = np.clip(c_hi, mid, vmax)
    return c_lo, c_hi


@dataclass
class Hist1D:
    """Refined 1-d histogram for one column: bins are ``[e_t, e_{t+1})``
    with the final edge inclusive (numpy convention)."""

    edges: np.ndarray
    counts: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    uniq: np.ndarray

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def midpoints(self) -> np.ndarray:
        """Bin midpoints ``c_t`` — equidistant between actual min/max."""
        return (self.vmin + self.vmax) / 2.0

    def centre_bounds(self, M: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        return centre_bounds(self.counts, self.vmin, self.vmax, self.uniq, M, alpha)

    def view(self) -> HistView:
        return HistView(self.edges, self.counts, self.vmin, self.vmax, self.uniq)


@dataclass
class MarginalMeta:
    """Per-fine-bin metadata for one dimension of a 2-d histogram."""

    vmin: np.ndarray
    vmax: np.ndarray
    uniq: np.ndarray


@dataclass
class Hist2D:
    """Refined 2-d histogram for the column pair ``(i, j)`` with ``i < j``.

    ``edges_i``/``edges_j`` are supersets of the corresponding 1-d edges
    (2-d refinement only *adds* edges — Algorithm 1 lines 15–21).
    """

    i: int
    j: int
    edges_i: np.ndarray
    edges_j: np.ndarray
    counts: np.ndarray  # shape (k_i, k_j)
    meta_i: MarginalMeta
    meta_j: MarginalMeta

    def oriented(self, agg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, MarginalMeta, MarginalMeta]:
        """Return ``(H, edges_agg, edges_pred, meta_agg, meta_pred)`` with
        the aggregation column ``agg`` on the rows."""
        if agg == self.i:
            return self.counts, self.edges_i, self.edges_j, self.meta_i, self.meta_j
        if agg == self.j:
            return self.counts.T, self.edges_j, self.edges_i, self.meta_j, self.meta_i
        raise KeyError(f"column {agg} not in pair ({self.i},{self.j})")

    def pred_view(self, pred: int) -> HistView:
        """HistView of the predicate dimension (marginal counts + metadata)."""
        H, _, e_pred, _, meta = self.oriented(self.i if pred == self.j else self.j)
        return HistView(e_pred, H.sum(axis=0), meta.vmin, meta.vmax, meta.uniq)


class ColumnState(NamedTuple):
    """Query-time state of one column, derived from its ``Hist1D``."""

    view: HistView
    h: np.ndarray  # bin counts as float64
    safe_h: np.ndarray  # ``h`` with empty bins set to 1, a safe divisor
    centres: tuple[np.ndarray, np.ndarray, np.ndarray]  # midpoints, c^-, c^+ (Eq. 10)


def map_fine_to_coarse(fine_edges: np.ndarray, coarse_edges: np.ndarray) -> np.ndarray:
    """Index of the coarse bin containing each fine bin. Valid because the
    fine edges are a superset of the coarse edges."""
    centres = (fine_edges[:-1] + fine_edges[1:]) / 2.0
    idx = np.searchsorted(coarse_edges, centres, side="right") - 1
    return np.clip(idx, 0, len(coarse_edges) - 2)


@dataclass
class PairwiseHist:
    """The complete synopsis: one ``Hist1D`` per column, one ``Hist2D`` per
    column pair, plus the construction parameters needed at query time."""

    n_rows: int
    n_sample: int
    M: int
    alpha: float
    hists1d: list[Hist1D]
    hists2d: dict[tuple[int, int], Hist2D] = field(default_factory=dict)
    #: Query-time state derived from the histograms: a ``ColumnState`` per
    #: column index and the weighting layer's state per ``(agg, pred)``
    #: orientation of a pair. Built on first use, never serialized, and
    #: dropped by ``update.append_rows``, the one function that mutates a
    #: synopsis.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.hists1d)

    @property
    def rho(self) -> float:
        """Sampling ratio ``N_s / N`` (Table 2)."""
        return self.n_sample / self.n_rows if self.n_rows else 1.0

    def pair(self, i: int, j: int) -> Hist2D:
        if i == j:
            raise KeyError("use hists1d for the diagonal")
        return self.hists2d[(min(i, j), max(i, j))]

    def column_state(self, i: int) -> ColumnState:
        """Query-time state of column ``i``, built on first use."""
        st = self.derived.get(i)
        if st is None:
            hist = self.hists1d[i]
            h = hist.counts.astype(np.float64)
            safe_h = np.where(h > 0, h, 1.0)
            centres = (hist.midpoints, *hist.centre_bounds(self.M, self.alpha))
            st = self.derived[i] = ColumnState(
                hist.view(), *read_only(h, safe_h), read_only(*centres)
            )
        return st


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached arrays read-only: every query shares them, so a caller
    that wrote into one would change the answers of later queries."""
    for a in arrays:
        a.flags.writeable = False
    return arrays
