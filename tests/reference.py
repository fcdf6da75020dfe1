"""Code that only the tests use: the DuckDB oracle for Spark results,
exact execution on Spark, the decimal scale of a value array, the
bit-at-a-time unary code of the reference Golomb coder, the
per-dimension append path, the x/y pass loop of 2-d refinement, Eq. 28
written out per vector and DeepDB-lite's separate probability and moment
recursions."""
import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.deepdb_lite import Leaf, ProductNode
from repro.core.coverage import Bounded, Region
from repro.core.hypothesis import is_uniform
from repro.core.model import Hist1D, Hist2D, PairwiseHist
from repro.core.refine import (
    MAX_BINS_PER_DIM_2D,
    MAX_PASSES,
    _bin_index,
    _group_slices,
    _split_point,
    bin_stats,
)
from repro.core.storage import BitReader, BitWriter
from repro.gd.preprocess import _decimals_from, _rounding_errors
from repro.queries import Query, query_sql


# ---------------------------------------------------------------------------
# DuckDB oracle


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    """Run ``sql`` in DuckDB over ``tables`` (Spark or pandas frames) and
    assert that its sorted rows match ``spark_df``. Alias every output
    column identically on both sides (Spark names ``count(*)`` as
    ``count(1)``, DuckDB as ``count_star()``) and project to scalar
    columns: array, map and struct columns cannot be ordered."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)


def exact_spark(spark: SparkSession, df: DataFrame, q: Query) -> DataFrame:
    """Exact execution of ``q`` on Spark SQL."""
    name = "exact_gt_view"
    df.createOrReplaceTempView(name)
    return spark.sql(query_sql(q, name))


# ---------------------------------------------------------------------------
# Codec


def decimals_needed(sample: np.ndarray) -> int:
    """The decimal places of the non-NaN values of ``sample``, as the
    profile scan finds them for a whole column."""
    sample = sample[~np.isnan(sample)]
    absmax = float(np.max(np.abs(sample))) if len(sample) else 0.0
    return _decimals_from(_rounding_errors(sample), absmax)


def write_unary(writer: BitWriter, q: int) -> None:
    """q ones followed by a zero (a Golomb quotient)."""
    arr = np.ones(q + 1, dtype=np.uint8)
    arr[-1] = 0
    writer._bits.append(arr)


def read_unary(reader: BitReader) -> int:
    q = 0
    while reader.bits[reader.pos] == 1:
        q += 1
        reader.pos += 1
    reader.pos += 1
    return q


def n_bits(writer: BitWriter) -> int:
    """Bits written so far."""
    return sum(len(b) for b in writer._bits)


# ---------------------------------------------------------------------------
# Append path


def _two_sort_bin_stats(values: np.ndarray, edges: np.ndarray, idx: np.ndarray) -> Hist1D:
    """Per-bin counts and metadata of ``values`` whose bins are ``idx``:
    the bin indices and the values, each sorted on its own, are both
    sorted by (bin, value)."""
    k = len(edges) - 1
    vmin = edges[:-1].copy()
    vmax = edges[1:].copy()
    uniq = np.zeros(k, dtype=np.int64)
    if len(values) == 0:
        return Hist1D(edges, np.zeros(k, dtype=np.int64), vmin, vmax, uniq)
    counts = np.bincount(idx, minlength=k).astype(np.int64, copy=False)
    si = np.sort(idx)
    sv = np.sort(values)
    new_bin = np.empty(len(si), dtype=bool)
    new_bin[0] = True
    np.not_equal(si[1:], si[:-1], out=new_bin[1:])
    starts = np.flatnonzero(new_bin)
    t = si[starts]
    vmin[t] = sv[starts]
    vmax[t] = sv[np.append(starts[1:], len(sv)) - 1]
    new_value = new_bin.copy()
    new_value[1:] |= sv[1:] != sv[:-1]
    uniq[t] = np.add.reduceat(new_value.astype(np.int64), starts)
    return Hist1D(edges, counts, vmin, vmax, uniq)


def _fold(hist: Hist1D, v: np.ndarray) -> tuple[np.ndarray, Hist1D]:
    """Clip ``v`` into ``hist``'s edges, add its counts and widen the
    extrema of the bins it reaches; return its bins and its histogram."""
    v = np.clip(v, hist.edges[0], hist.edges[-1])
    idx = _bin_index(v, hist.edges)
    new = _two_sort_bin_stats(v, hist.edges, idx)
    t = new.counts > 0
    hist.counts += new.counts
    hist.vmin[t] = np.minimum(hist.vmin[t], new.vmin[t])
    hist.vmax[t] = np.maximum(hist.vmax[t], new.vmax[t])
    return idx, new


def reference_append_rows(ph: PairwiseHist, batch: pd.DataFrame) -> None:
    """``update.append_rows`` one ``Hist1D`` at a time: every column
    histogram and every pair dimension clips, bins and sorts its own
    values."""
    take = batch
    if ph.rho < 1.0 and len(batch) > 0:
        take = batch.sample(frac=min(1.0, ph.rho), random_state=0)
    values = [take[c].to_numpy(dtype="float64") for c in batch.columns]
    null = [np.isnan(v) for v in values]
    for hist, v, nl in zip(ph.hists1d, values, null):
        _, new = _fold(hist, v[~nl])
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
    ph.n_rows += len(batch)
    ph.n_sample += len(take)
    ph.derived.clear()


# ---------------------------------------------------------------------------
# 2-d refinement


def reference_refine_2d(
    x: np.ndarray,
    y: np.ndarray,
    edges_x: np.ndarray,
    edges_y: np.ndarray,
    i: int,
    j: int,
    M: int,
    alpha: float,
    max_bins_per_dim: int = MAX_BINS_PER_DIM_2D,
) -> Hist2D:
    """RefineBin2D with the x and y dimensions written out: every pass
    tests every cell with at least ``M`` points, settled or not, and
    splits the less uniform dimension across the grid."""
    ex = np.asarray(edges_x, dtype=np.float64).copy()
    ey = np.asarray(edges_y, dtype=np.float64).copy()
    ok = ~(np.isnan(x) | np.isnan(y))
    x = np.asarray(x, dtype=np.float64)[ok]
    y = np.asarray(y, dtype=np.float64)[ok]

    for _ in range(MAX_PASSES):
        kx, ky = len(ex) - 1, len(ey) - 1
        xi = _bin_index(x, ex)
        yi = _bin_index(y, ey)
        flat = xi * ky + yi
        order, starts, gkeys = _group_slices(flat)
        bounds = np.concatenate((starts, [len(flat)]))
        new_x: set[float] = set()
        new_y: set[float] = set()
        for g, key in enumerate(gkeys):
            lo, hi = bounds[g], bounds[g + 1]
            if hi - lo < M:
                continue
            ti, tj = int(key) // ky, int(key) % ky
            xs = x[order[lo:hi]]
            ys = y[order[lo:hi]]
            rx = is_uniform(xs, ex[ti], ex[ti + 1], len(np.unique(xs)), alpha)
            ry = is_uniform(ys, ey[tj], ey[tj + 1], len(np.unique(ys)), alpha)
            if rx.uniform and ry.uniform:
                continue
            if (not rx.uniform) and (rx.ratio >= ry.ratio or ry.uniform):
                if kx + len(new_x) < max_bins_per_dim:
                    z = _split_point(xs, ex[ti], ex[ti + 1])
                    if z is not None:
                        new_x.add(z)
            else:
                if ky + len(new_y) < max_bins_per_dim:
                    z = _split_point(ys, ey[tj], ey[tj + 1])
                    if z is not None:
                        new_y.add(z)
        if not new_x and not new_y:
            break
        if new_x:
            ex = np.unique(np.concatenate((ex, np.array(sorted(new_x)))))
        if new_y:
            ey = np.unique(np.concatenate((ey, np.array(sorted(new_y)))))
    else:  # the last pass added edges: bin by the final ones
        xi = _bin_index(x, ex)
        yi = _bin_index(y, ey)

    kx, ky = len(ex) - 1, len(ey) - 1
    counts = np.bincount(xi * ky + yi, minlength=kx * ky).reshape(kx, ky)
    return Hist2D(i, j, counts, *bin_stats(np.sort(x), [ex]), *bin_stats(np.sort(y), [ey]))


# ---------------------------------------------------------------------------
# Eq. 28


def reference_combine(parts: list[Bounded], kind: str) -> Bounded:
    """AND/OR of per-bin probabilities, estimate and bounds written out
    one by one, multiplied in place."""
    if kind == "and":
        est = parts[0].est.copy()
        lo = parts[0].lo.copy()
        hi = parts[0].hi.copy()
        for p in parts[1:]:
            est *= p.est
            lo *= p.lo
            hi *= p.hi
        return Bounded(est, lo, hi)
    est = 1.0 - parts[0].est
    lo = 1.0 - parts[0].lo
    hi = 1.0 - parts[0].hi
    for p in parts[1:]:
        est *= 1.0 - p.est
        lo *= 1.0 - p.lo
        hi *= 1.0 - p.hi
    return Bounded(1.0 - est, 1.0 - lo, 1.0 - hi)


# ---------------------------------------------------------------------------
# DeepDB-lite


def reference_spn_prob(node, regions: dict[int, Region]) -> float:
    """P(regions) by SPN recursion."""
    if isinstance(node, Leaf):
        return node.prob_region(regions.get(node.col))
    if isinstance(node, ProductNode):
        p = 1.0
        for c in node.children:
            p *= reference_spn_prob(c, regions)
        return p
    return float(
        sum(w * reference_spn_prob(c, regions) for w, c in zip(node.weights, node.children))
    )


def reference_spn_moments(node, agg: int, regions: dict[int, Region]) -> tuple[float, float]:
    """(E[X_agg 1(regions)], E[X_agg^2 1(regions)]) by SPN recursion."""
    if isinstance(node, Leaf):
        if node.col == agg:
            return node.moments_region(regions.get(agg))
        p = node.prob_region(regions.get(node.col))
        return p, p  # multiplicative factor applied by the Product parent
    if isinstance(node, ProductNode):
        m1 = m2 = 1.0
        for c in node.children:
            c1, c2 = reference_spn_moments(c, agg, regions)
            m1 *= c1
            m2 *= c2
        return m1, m2
    m1 = m2 = 0.0
    for w, c in zip(node.weights, node.children):
        c1, c2 = reference_spn_moments(c, agg, regions)
        m1 += w * c1
        m2 += w * c2
    return m1, m2
