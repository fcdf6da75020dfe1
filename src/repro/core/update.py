"""Incremental data updates (Fig. 2 red path).

New rows are appended into the *existing* bin structure: each column's
values are clipped once into its outer edges (every pair dimension of
the column shares them) and sorted once, and one :func:`bin_stats` call
reads the batch's bins off the sorted values for the column's histogram
and for every pair dimension whose partner column has no null in the
batch. A dimension whose partner has nulls is counted over the
pairwise-complete rows in a call of its own. Each ``Hist1D`` then adds
the counts and widens the per-bin extrema. Unique counts become
upper-bound estimates (exact uniques would need the original values): a
column adds the batch's uniques, capped by the bin's value range; a pair
dimension keeps the larger of the two. Edges are not re-refined — the
paper leaves online refinement to future work; this mirrors the
framework's "data updates" arrow where the synopsis absorbs appended
batches between rebuilds.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.model import PairwiseHist
from repro.core.refine import bin_stats


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
    values = [
        np.clip(take[c].to_numpy(dtype="float64"), h.edges[0], h.edges[-1])
        for c, h in zip(batch.columns, ph.hists1d)
    ]
    null = [np.isnan(v) for v in values]
    has_null = [nl.any() for nl in null]
    dims = [[] for _ in range(ph.d)]  # per column: (partner column, pair, dimension)
    for (i, j), h2 in ph.hists2d.items():
        dims[i].append((j, (i, j), h2.dim_i))
        dims[j].append((i, (i, j), h2.dim_j))
    rows = {}  # (pair, column) -> bin of each pairwise-complete row
    for c, hist in enumerate(ph.hists1d):
        # One call over the column's non-null rows for its histogram and each
        # dimension whose partner has no null here; one call per other
        # dimension over its pair's complete rows.
        ok = ~null[c]
        shared = [(pair, dim) for q, pair, dim in dims[c] if not has_null[q]]
        calls = [(ok, [(None, hist), *shared])]
        calls += [(ok & ~null[q], [(pair, dim)]) for q, pair, dim in dims[c] if has_null[q]]
        for sel, hists in calls:
            v = values[c][sel]
            order = np.argsort(v)
            for (pair, h), new in zip(hists, bin_stats(v[order], [h.edges for _, h in hists])):
                t = new.counts > 0
                h.counts += new.counts
                np.minimum(h.vmin, np.where(t, new.vmin, np.inf), out=h.vmin)
                np.maximum(h.vmax, np.where(t, new.vmax, -np.inf), out=h.vmax)
                if pair is None:  # widen by the batch's uniques, capped by the bin's value range
                    h.uniq[t] = np.minimum(
                        h.uniq[t] + new.uniq[t],
                        (h.vmax[t] - h.vmin[t] + 1).astype(np.int64).clip(min=1),
                    )
                else:
                    np.maximum(h.uniq, new.uniq, out=h.uniq)
                    rows[pair, c] = np.empty(len(v), dtype=np.int64)
                    rows[pair, c][order] = np.repeat(np.arange(h.k), new.counts)
    for (i, j), h2 in ph.hists2d.items():
        ki, kj = h2.counts.shape
        flat = rows[(i, j), i] * kj + rows[(i, j), j]
        h2.counts += np.bincount(flat, minlength=ki * kj).reshape(ki, kj)
    ph.n_rows += n_new
    ph.n_sample += len(take)
    ph.derived.clear()  # the query-time state was derived from the old counts
