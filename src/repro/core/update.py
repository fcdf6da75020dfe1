"""Incremental data updates (Fig. 2 red path).

New rows are appended into the *existing* bin structure: values are
clipped into the build-time edges and folded into every ``Hist1D`` they
reach (a column's histogram and each dimension of its pairs) by one
helper, which adds the counts and widens the per-bin extrema. Unique
counts become upper-bound estimates (exact uniques would need the
original values): a column adds the batch's uniques, capped by the
bin's value range; a pair dimension keeps the larger of the two. Edges
are not re-refined — the paper leaves online refinement to future work;
this mirrors the framework's "data updates" arrow where the synopsis
absorbs appended batches between rebuilds.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.model import Hist1D, PairwiseHist
from repro.core.refine import _bin_index, bin_stats


def _fold(hist: Hist1D, v: np.ndarray) -> tuple[np.ndarray, Hist1D]:
    """Fold the values ``v`` into ``hist``: clip them into its edges, add
    their counts and widen the extrema of the bins they reach. Returns
    their bin indices and their own :func:`bin_stats`, for the caller's
    pair counts and unique-count rule."""
    v = np.clip(v, hist.edges[0], hist.edges[-1])
    idx = _bin_index(v, hist.edges)
    new = bin_stats(v, hist.edges, idx)
    t = new.counts > 0
    hist.counts += new.counts
    hist.vmin[t] = np.minimum(hist.vmin[t], new.vmin[t])
    hist.vmax[t] = np.maximum(hist.vmax[t], new.vmax[t])
    return idx, new


def append_rows(ph: PairwiseHist, batch: pd.DataFrame) -> None:
    """Fold an encoded batch (columns in synopsis order, NaN nulls) into
    ``ph`` in place. The batch is sampled at the synopsis's own ``rho``,
    as construction sampled the table, and both N and N_s grow, so rho
    stays consistent. Raises ``ValueError`` when the batch does not have
    one column per synopsis column."""
    if len(batch.columns) != ph.d:
        raise ValueError(f"batch has {len(batch.columns)} columns, the synopsis {ph.d}")
    rho = ph.rho
    n_new = len(batch)
    take = batch
    if rho < 1.0 and n_new > 0:
        take = batch.sample(frac=min(1.0, rho), random_state=0)
    values = [take[c].to_numpy(dtype="float64") for c in batch.columns]
    null = [np.isnan(v) for v in values]
    for hist, v, nl in zip(ph.hists1d, values, null):
        _, new = _fold(hist, v[~nl])
        # Widen by the batch's uniques, capped by the bin's value range.
        t = new.counts > 0
        hist.uniq[t] = np.minimum(
            hist.uniq[t] + new.uniq[t],
            (hist.vmax[t] - hist.vmin[t] + 1).astype(np.int64).clip(min=1),
        )
    for (i, j), h2 in ph.hists2d.items():
        ok = ~(null[i] | null[j])
        if not ok.any():
            continue
        xi, new_i = _fold(h2.dim_i, values[i][ok])
        yi, new_j = _fold(h2.dim_j, values[j][ok])
        ki, kj = h2.counts.shape
        h2.counts += np.bincount(xi * kj + yi, minlength=ki * kj).reshape(ki, kj)
        np.maximum(h2.dim_i.uniq, new_i.uniq, out=h2.dim_i.uniq)
        np.maximum(h2.dim_j.uniq, new_j.uniq, out=h2.dim_j.uniq)
    ph.n_rows += n_new
    ph.n_sample += len(take)
    ph.derived.clear()  # the query-time state was derived from the old counts
