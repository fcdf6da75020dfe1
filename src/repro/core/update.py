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


def _update_1d(hist, values: np.ndarray) -> None:
    v = values[~np.isnan(values)]
    if len(v) == 0:
        return
    v = np.clip(v, hist.edges[0], hist.edges[-1])
    add, _ = np.histogram(v, bins=hist.edges)
    touched = add > 0
    meta = marginal_meta(v, hist.edges)
    hist.vmin[touched] = np.minimum(hist.vmin[touched], meta.vmin[touched])
    hist.vmax[touched] = np.maximum(hist.vmax[touched], meta.vmax[touched])
    # Unique counts: widen by the new batch's uniques (upper bound).
    hist.uniq[touched] = np.minimum(
        hist.uniq[touched] + meta.uniq[touched],
        (hist.vmax[touched] - hist.vmin[touched] + 1).astype(np.int64).clip(min=1),
    )
    hist.counts += add


def append_rows(ph: PairwiseHist, batch: pd.DataFrame, sample_ratio: float | None = None) -> None:
    """Fold an encoded batch (columns in synopsis order, NaN nulls) into
    ``ph`` in place. ``sample_ratio`` mirrors construction sampling: the
    fraction of the batch that lands in the synopsis (rho is kept
    consistent by updating both N and N_s)."""
    rho = sample_ratio if sample_ratio is not None else ph.rho
    n_new = len(batch)
    take = batch
    if rho < 1.0 and n_new > 0:
        take = batch.sample(frac=min(1.0, rho), random_state=0)
    cols = list(batch.columns)
    assert len(cols) == ph.d, "batch schema must match synopsis"
    for i, c in enumerate(cols):
        _update_1d(ph.hists1d[i], take[c].to_numpy(dtype="float64"))
    for (i, j), h2 in ph.hists2d.items():
        x = take[cols[i]].to_numpy(dtype="float64")
        y = take[cols[j]].to_numpy(dtype="float64")
        ok = ~(np.isnan(x) | np.isnan(y))
        if not ok.any():
            continue
        x = np.clip(x[ok], h2.edges_i[0], h2.edges_i[-1])
        y = np.clip(y[ok], h2.edges_j[0], h2.edges_j[-1])
        add, _, _ = np.histogram2d(x, y, bins=[h2.edges_i, h2.edges_j])
        h2.counts += add.astype(np.int64)
        for meta, vals, edges in ((h2.meta_i, x, h2.edges_i), (h2.meta_j, y, h2.edges_j)):
            m = marginal_meta(vals, edges)
            idx = np.unique(_bin_index(vals, edges))
            meta.vmin[idx] = np.minimum(meta.vmin[idx], m.vmin[idx])
            meta.vmax[idx] = np.maximum(meta.vmax[idx], m.vmax[idx])
            meta.uniq[idx] = np.maximum(meta.uniq[idx], m.uniq[idx])
    ph.n_rows += n_new
    ph.n_sample += len(take)
    ph.derived.clear()  # the query-time state was derived from the old counts
