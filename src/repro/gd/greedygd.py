"""GreedyGD-lite — the base/deviation split of Generalized Deduplication
(Fig. 3) with greedy per-column bit selection (GreedyGD [8]).

Each encoded row is split into a *base* (the most significant bits of each
attribute) and a *deviation* (the remaining low bits). Bases are
deduplicated; deviations are stored verbatim with an ID linking them to
their base. Compression wins when few bases cover many rows.

The plan search counts distinct bases exactly. A row's bases are packed
into one int64 key, column by column; when the next column would not fit
in 63 bits, the key so far is replaced by its dense rank, and a column too
wide for what is left is ranked too. Both steps are injective, so the
distinct keys are the distinct rows for any column count and widths. Each
column's distinct count under every shift comes from one sort, because a
right shift keeps a sorted column sorted.

Simplifications vs. the paper's GreedyGD (documented in DESIGN.md):
the greedy bit search is evaluated on the construction sample on the
driver (full GreedyGD re-evaluates on all rows); the final base count and
sizes are computed over the full data with Spark.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.gd.preprocess import ColumnInfo


def _bits_needed(maxv: int) -> int:
    return max(1, int(maxv).bit_length())


def _dense_rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Replace ``x`` by the rank of each value among its distinct values;
    also return the bits the ranks need."""
    uniq, inv = np.unique(x, return_inverse=True)
    return inv.astype(np.int64, copy=False), (len(uniq) - 1).bit_length()


def _n_distinct_rows(bases: np.ndarray, widths: list[int]) -> int:
    """Distinct row count of a non-negative int64 matrix whose column k
    fits in ``widths[k]`` bits, counted on packed one-word keys. Exact while
    two dense ranks fit in 63 bits, that is for fewer than 2**31 rows."""
    key = np.zeros(len(bases), dtype=np.int64)
    used = 0
    for k, w in enumerate(widths):
        if w == 0:
            continue
        col = bases[:, k]
        if used + w > 63:
            key, used = _dense_rank(key)
            if used + w > 63:
                col, w = _dense_rank(col)
        key = (key << w) | col
        used += w
    return len(np.unique(key))


def _cardinalities(v: np.ndarray, bits: int) -> np.ndarray:
    """``out[b]`` = distinct values of ``v >> b`` for b = 0..bits (``v``
    non-empty and non-negative)."""
    s = np.sort(v)
    return np.array([1 + np.count_nonzero(np.diff(s >> b)) for b in range(bits + 1)])


@dataclass
class GDPlan:
    """Chosen deviation bit-widths plus total bit-widths per column."""

    columns: list[str]
    dev_bits: dict[str, int]
    total_bits: dict[str, int]

    def base_bits(self, c: str) -> int:
        return self.total_bits[c] - self.dev_bits[c]


@dataclass
class GDStats:
    """Compression outcome over the full dataset.

    ``raw_bytes`` is the bit-packed binary size of the encoded columns;
    ``text_bytes`` estimates the original on-disk (CSV) size — the
    baseline the paper's Table 4 dataset sizes and Fig. 11b total-storage
    comparison use.
    """

    n_rows: int
    n_bases: int
    plan: GDPlan
    compressed_bytes: int
    raw_bytes: int
    text_bytes: int = 0

    @property
    def ratio(self) -> float:
        """Compression vs. bit-packed binary."""
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 1.0

    @property
    def text_ratio(self) -> float:
        """Compression vs. the original text format (Fig. 11b baseline)."""
        return self.text_bytes / self.compressed_bytes if self.compressed_bytes else 1.0


def _size_bits(n_rows: int, n_bases: int, base_row_bits: int, dev_row_bits: int) -> int:
    id_bits = max(1, math.ceil(math.log2(max(2, n_bases))))
    return n_bases * base_row_bits + n_rows * (dev_row_bits + id_bits)


def choose_plan(
    sample: pd.DataFrame, infos: list[ColumnInfo], max_iters: int | None = None
) -> GDPlan:
    """Greedy deviation-bit selection on an encoded sample.

    Starting from "everything in the base", repeatedly move the least
    significant remaining bit of whichever column shrinks the estimated
    compressed size the most; stop when no move helps.
    """
    cols = [i.name for i in infos]
    vals = np.nan_to_num(sample[cols].to_numpy(dtype="float64"), nan=0.0).astype(np.int64)
    vals = np.abs(vals)
    total_bits = {
        i.name: _bits_needed(max(int(i.encoded_max), int(vals[:, k].max(initial=0))))
        for k, i in enumerate(infos)
    }
    dev = {c: 0 for c in cols}
    n = len(vals)
    if n == 0:
        return GDPlan(cols, dev, total_bits)

    def size_for(dev_map: dict[str, int]) -> int:
        shifts = np.array([dev_map[c] for c in cols], dtype=np.int64)
        widths = [total_bits[c] - dev_map[c] for c in cols]
        nb = _n_distinct_rows(vals >> shifts, widths)
        return _size_bits(n, nb, sum(widths), sum(dev_map.values()))

    # Phase 1 — seed: cap each column's base cardinality at K (keep only
    # the most significant bits) and pick the best K globally. This is
    # what lets the search discover that a row-unique column (timestamp,
    # id) must be fully deviated: the incremental landscape is flat until
    # such a column leaves the base entirely.
    cards = [_cardinalities(vals[:, k], total_bits[c]) for k, c in enumerate(cols)]

    def dev_for_cap(col_idx: int, cap: int) -> int:
        # cards[k] falls to 1 at b = total_bits, so some b always fits.
        return int(np.argmax(cards[col_idx] <= cap))

    best = size_for(dev)
    for cap in (1, 2, 4, 8, 16, 32, 64, 128):
        trial = {c: dev_for_cap(k, cap) for k, c in enumerate(cols)}
        sz = size_for(trial)
        if sz < best:
            best, dev = sz, trial

    # Phase 2 — greedy fine-tune from the seeded plan.
    iters = max_iters if max_iters is not None else 16 * len(cols)
    # Candidate moves jump 1/2/4/8 bits at once: from the all-base start
    # the size landscape is flat until enough low bits leave the base for
    # rows to collide, so single-bit steps alone get stuck immediately.
    jumps = (1, 2, 4, 8)
    for _ in range(iters):
        candidate_best = None
        for c in cols:
            for k in jumps:
                nd = dev[c] + k
                if nd > total_bits[c]:
                    continue
                trial = dict(dev)
                trial[c] = nd
                sz = size_for(trial)
                if sz < best and (candidate_best is None or sz < candidate_best[0]):
                    candidate_best = (sz, c, nd)
        if candidate_best is None:
            break
        best, move, bits = candidate_best
        dev[move] = bits
    return GDPlan(cols, dev, total_bits)


def base_columns(df: DataFrame, plan: GDPlan) -> DataFrame:
    """Project ``df`` (encoded LONG columns) onto its base bits."""
    exprs = [
        F.shiftright(F.coalesce(F.col(c), F.lit(0)), plan.dev_bits[c]).alias(c)
        for c in plan.columns
    ]
    return df.select(*exprs)


def compress_stats(df: DataFrame, plan: GDPlan) -> GDStats:
    """Count deduplicated bases over the full data and report sizes.

    ``raw_bytes`` is the bit-packed uncompressed size of the encoded
    integer columns (the fair baseline the GD papers compare against).
    """
    n_rows = df.count()
    n_bases = base_columns(df, plan).distinct().count()
    base_row_bits = sum(plan.base_bits(c) for c in plan.columns)
    dev_row_bits = sum(plan.dev_bits[c] for c in plan.columns)
    raw_row_bits = sum(plan.total_bits[c] for c in plan.columns)
    # Original text size estimated from a small sample's CSV rendering.
    head = df.limit(2000).toPandas()
    text_bytes = 0
    if len(head):
        per_row = len(head.to_csv(index=False, header=False)) / len(head)
        text_bytes = int(per_row * n_rows)
    return GDStats(
        n_rows=n_rows,
        n_bases=n_bases,
        plan=plan,
        compressed_bytes=math.ceil(_size_bits(n_rows, n_bases, base_row_bits, dev_row_bits) / 8),
        raw_bytes=math.ceil(n_rows * raw_row_bits / 8),
        text_bytes=text_bytes,
    )


def base_edges(sample: pd.DataFrame, plan: GDPlan) -> dict[str, np.ndarray]:
    """Per-column sorted unique base values mapped back to the encoded
    domain (``base << dev_bits``) — the initial histogram bin edges of
    Algorithm 1 line 4."""
    out: dict[str, np.ndarray] = {}
    for c in plan.columns:
        v = sample[c].to_numpy(dtype="float64")
        v = v[~np.isnan(v)].astype(np.int64)
        b = plan.dev_bits[c]
        out[c] = np.unique((v >> b) << b).astype(np.float64)
    return out


def split_rows(values: np.ndarray, dev_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Split one column into (base, deviation) — used by losslessness tests."""
    v = values.astype(np.int64)
    return v >> dev_bits, v & ((1 << dev_bits) - 1)


def reconstruct(base: np.ndarray, deviation: np.ndarray, dev_bits: int) -> np.ndarray:
    """Inverse of :func:`split_rows`; GD is lossless."""
    return (base << dev_bits) | deviation
