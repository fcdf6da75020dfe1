"""Incremental data updates (Fig. 2 red path).

New rows are appended into the *existing* bin structure: counts are
re-binned, per-bin extrema widen, and unique counts become upper-bound
estimates (exact uniques would need the original values). Edges are not
re-refined — the paper leaves online refinement to future work; this
mirrors the framework's "data updates" arrow where the synopsis absorbs
appended batches between rebuilds.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.model import PairwiseHist
from repro.core.refine import _bin_index, marginal_meta


def _update_1d(hist, v: np.ndarray) -> None:
    """Fold the non-null values ``v`` of one column into ``hist``."""
    if len(v) == 0:
        return
    v = np.clip(v, hist.edges[0], hist.edges[-1])
    idx = _bin_index(v, hist.edges)
    add = np.bincount(idx, minlength=len(hist.edges) - 1)
    touched = add > 0
    meta = marginal_meta(v, hist.edges, idx)
    hist.vmin[touched] = np.minimum(hist.vmin[touched], meta.vmin[touched])
    hist.vmax[touched] = np.maximum(hist.vmax[touched], meta.vmax[touched])
    # Unique counts: widen by the new batch's uniques (upper bound).
    hist.uniq[touched] = np.minimum(
        hist.uniq[touched] + meta.uniq[touched],
        (hist.vmax[touched] - hist.vmin[touched] + 1).astype(np.int64).clip(min=1),
    )
    hist.counts += add


def append_rows(ph: PairwiseHist, batch: pd.DataFrame) -> None:
    """Fold an encoded batch (columns in synopsis order, NaN nulls) into
    ``ph`` in place. The batch is sampled at the synopsis's own ``rho``,
    as construction sampled the table, and both N and N_s grow, so rho
    stays consistent."""
    rho = ph.rho
    n_new = len(batch)
    take = batch
    if rho < 1.0 and n_new > 0:
        take = batch.sample(frac=min(1.0, rho), random_state=0)
    assert len(batch.columns) == ph.d, "batch schema must match synopsis"
    values = [take[c].to_numpy(dtype="float64") for c in batch.columns]
    null = [np.isnan(v) for v in values]
    for i, v in enumerate(values):
        _update_1d(ph.hists1d[i], v[~null[i]])
    for (i, j), h2 in ph.hists2d.items():
        ok = ~(null[i] | null[j])
        if not ok.any():
            continue
        x = np.clip(values[i][ok], h2.edges_i[0], h2.edges_i[-1])
        y = np.clip(values[j][ok], h2.edges_j[0], h2.edges_j[-1])
        xi = _bin_index(x, h2.edges_i)
        yi = _bin_index(y, h2.edges_j)
        ki, kj = h2.counts.shape
        h2.counts += np.bincount(xi * kj + yi, minlength=ki * kj).reshape(ki, kj)
        for meta, vals, edges, idx in (
            (h2.meta_i, x, h2.edges_i, xi),
            (h2.meta_j, y, h2.edges_j, yi),
        ):
            m = marginal_meta(vals, edges, idx)
            touched = m.uniq > 0  # the bins this batch reaches
            meta.vmin[touched] = np.minimum(meta.vmin[touched], m.vmin[touched])
            meta.vmax[touched] = np.maximum(meta.vmax[touched], m.vmax[touched])
            meta.uniq[touched] = np.maximum(meta.uniq[touched], m.uniq[touched])
    ph.n_rows += n_new
    ph.n_sample += len(take)
    ph.derived.clear()  # the query-time state was derived from the old counts
