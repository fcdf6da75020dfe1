"""GreedyGD pre-processing (Sec. 3, "Data Compression").

Each column is independently mapped to a non-negative integer domain:

* numeric      — minimum-value subtraction and float→int conversion
                 (e.g. 10.22 → 1022 with scale 100),
* timestamp    — epoch seconds, then min subtraction,
* categorical  — frequency-ranked codes (most common value → 0, …),
* missing      — kept as SQL NULL through encoding; PairwiseHist handles
                 nulls by building histograms over non-null values
                 (see DESIGN.md).

Profiling is one Spark pass (:func:`scan`): each partition's Arrow batches
go through numpy in a ``mapInPandas`` worker, which yields one partial
profile (row count, nulls, min/max, float rounding errors, category
counts), and the driver merges the partials. Everything after it goes
through one codec, ``ColumnInfo``: :func:`encode_pandas` encodes the build
sample on the driver, the rows ``greedygd.compress_stats`` counts (inside
Spark's Python workers), appended batches and the baselines' data, and the
same objects encode query literals (Sec. 5.1) and decode results back to
the original domain. Bulk encoding rounds half to even. Timestamps are
read as pandas sees them, naive times as UTC; the profile reads them the
same way, so the encoded range does not depend on the session time zone.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.queries import AQPResult

#: maximum decimal places checked during float→int conversion.
_MAX_DECIMALS = 6
#: maximum distinct values for a string column to be dictionary-encoded.
_MAX_CATEGORIES = 200_000


@dataclass
class ColumnInfo:
    """Per-column encoding metadata (driver-side codec)."""

    name: str
    index: int
    kind: str  # 'float' | 'int' | 'cat' | 'datetime' | 'bool'
    scale: float = 1.0
    minval: float = 0.0
    maxval: float = 0.0  # original-domain max (encoded max = (max-min)*scale)
    categories: list | None = None
    null_count: int = 0
    cat_codes: dict = field(default_factory=dict, repr=False)

    @property
    def encoded_max(self) -> int:
        """Largest encoded value — sets GD bit widths and storage bytes."""
        if self.kind == "cat":
            return max(0, len(self.categories or []) - 1)
        return max(0, int(round((self.maxval - self.minval) * self.scale)))

    @property
    def numeric(self) -> bool:
        """True when aggregation (SUM/AVG/…) over the column is meaningful."""
        return self.kind in ("float", "int")

    # -- literal / value codecs -------------------------------------------
    def encode_literal(self, v):
        """Map a query literal to the encoded domain (Sec. 5.1). Returns
        None for a category never seen (the predicate matches nothing).
        Numeric literals keep their fractional part so strict/non-strict
        comparisons on off-grid values stay meaningful; a float literal
        within rounding error of the grid snaps to it, as the column's own
        values did when they were encoded (2.01 at scale 100 is 201, not
        200.99999999999997)."""
        if v is None:
            return None
        if self.kind == "cat":
            return self.cat_codes.get(v)
        if self.kind == "bool":
            return float(bool(v))
        if self.kind == "datetime":
            v = pd.Timestamp(v).value / 1e9
        x = (float(v) - self.minval) * self.scale
        if self.kind == "float" and math.isfinite(x):
            r = float(round(x))
            # Within 1e-9·max(1, |x|), or within the half ulp of decimal
            # rounding that v and minval each carry, times the scale: a
            # large |v| with a small x (-1674353.6 at minval -1674353.7,
            # scale 10, gives 0.9999999986) needs the second.
            ulps = (abs(float(v)) + abs(self.minval)) * self.scale * np.finfo(float).eps
            if abs(x - r) <= 1e-9 * max(1.0, abs(x)) + ulps:
                return r
        return x

    def decode(self, func: str, r: AQPResult, count: AQPResult | None = None) -> AQPResult:
        """Map the answer ``r`` of ``func`` over this column back from the
        encoded domain (Sec. 5.1): COUNT as it is, VAR divided by
        ``scale²``, SUM as ``SUM/scale + minval·COUNT`` with the query's
        ``count`` (whose bounds swap when ``minval < 0``), and the other
        functions value by value. Missing bounds stay missing."""
        if r.est is None or func == "COUNT":
            return r
        s, m = self.scale, self.minval
        if func == "VAR":
            return AQPResult(*(None if v is None else v / s**2 for v in r))
        if func != "SUM":
            return AQPResult(*(None if v is None else v / s + m for v in r))
        est = r.est / s + m * count.est
        if r.lo is None:
            return AQPResult(est, None, None)
        c_lo, c_hi = (count.lo, count.hi) if m >= 0 else (count.hi, count.lo)
        lo = r.lo / s + m * c_lo
        hi = r.hi / s + m * c_hi
        return AQPResult(est, min(lo, est), max(hi, est))

    def encode_series(self, s: pd.Series) -> pd.Series:
        """Encode a pandas column to float64 with NaN for nulls. Scaled
        values are rounded half to even; naive timestamps are read as UTC."""
        if self.kind == "cat":
            return s.map(self.cat_codes).astype("float64")
        if self.kind == "bool":
            return s.astype("float64")
        if self.kind == "datetime":
            return ((_epoch_seconds(s) - self.minval) * self.scale).round()
        return ((s.astype("float64") - self.minval) * self.scale).round()


def _epoch_seconds(s: pd.Series) -> pd.Series:
    """Epoch seconds of a timestamp or date column, NaN for nulls; naive
    times are read as UTC."""
    vals = pd.to_datetime(s).astype("datetime64[ns]").astype("int64") / 1e9
    return vals.where(s.notna())


def _detect_kind(dtype: T.DataType) -> str:
    if isinstance(dtype, (T.TimestampType, T.DateType)):
        return "datetime"
    if isinstance(dtype, T.BooleanType):
        return "bool"
    if isinstance(dtype, (T.DoubleType, T.FloatType, T.DecimalType)):
        return "float"
    if isinstance(dtype, (T.LongType, T.IntegerType, T.ShortType, T.ByteType)):
        return "int"
    if isinstance(dtype, T.StringType):
        return "cat"
    raise TypeError(f"unsupported column type {dtype}")


def _rounding_errors(x: np.ndarray) -> np.ndarray:
    """``max|x·10^k − round(x·10^k)|`` for k = 0…_MAX_DECIMALS over the
    non-NaN values ``x`` (zeros when there are none). The maximum of two
    parts' errors is the error of their union."""
    errors = np.zeros(_MAX_DECIMALS + 1)
    if len(x):
        for k in range(_MAX_DECIMALS + 1):
            scaled = x * (10.0**k)
            errors[k] = np.max(np.abs(scaled - np.round(scaled)))
    return errors


def _decimals_from(errors: np.ndarray, absmax: float) -> int:
    """Smallest k <= _MAX_DECIMALS such that values whose rounding errors
    are ``errors`` and whose largest magnitude is ``absmax`` are integral
    at scale 10^k (within float tolerance) — the paper's 10.22 → 1022
    conversion. ``max|x·10^k|`` is ``absmax·10^k`` exactly, since scaling
    by a positive constant keeps the order of rounded products. The
    tolerance is 16 float64 machine epsilons of that largest product, and
    at least 1e-6, so it follows the products' own rounding error: one of
    1e-6 relative to the product reaches 0.5 past 5·10^5 and merges
    distinct values."""
    for k in range(_MAX_DECIMALS + 1):
        if errors[k] < max(1e-6, 16 * 2.0**-52 * absmax * 10.0**k):
            return k
    return _MAX_DECIMALS


def _partial_schema(kinds: list[str]) -> T.StructType:
    """The fixed schema of one partition's partial profile: its row count,
    and per column ``j`` its nulls, then the min and max of non-category
    columns (epoch seconds for timestamps), the rounding errors of float
    columns and the value counts of category columns."""
    fields = [T.StructField("rows", T.LongType())]
    for j, kind in enumerate(kinds):
        fields.append(T.StructField(f"nulls_{j}", T.LongType()))
        if kind == "cat":
            fields.append(T.StructField(f"values_{j}", T.ArrayType(T.StringType())))
            fields.append(T.StructField(f"counts_{j}", T.ArrayType(T.LongType())))
        elif kind != "bool":
            fields.append(T.StructField(f"min_{j}", T.DoubleType()))
            fields.append(T.StructField(f"max_{j}", T.DoubleType()))
            if kind == "float":
                fields.append(T.StructField(f"errors_{j}", T.ArrayType(T.DoubleType())))
    return T.StructType(fields)


def _profile_partition(
    batches: Iterator[pd.DataFrame], kinds: list[str]
) -> Iterator[pd.DataFrame]:
    """Stream one partition's batches through numpy and yield its partial
    profile, one row of :func:`_partial_schema`. Runs in Spark's Python
    workers; values are read as the codec reads them."""
    rows = 0
    nulls = [0] * len(kinds)
    lo = [np.inf] * len(kinds)
    hi = [-np.inf] * len(kinds)
    errors = {j: np.zeros(_MAX_DECIMALS + 1) for j, k in enumerate(kinds) if k == "float"}
    counts: dict[int, list[pd.Series]] = {j: [] for j, k in enumerate(kinds) if k == "cat"}
    for pdf in batches:
        rows += len(pdf)
        for j, kind in enumerate(kinds):
            s = pdf.iloc[:, j]
            nulls[j] += int(s.isna().sum())
            if kind == "cat":
                counts[j].append(s.value_counts())
            elif kind != "bool":
                x = (_epoch_seconds(s) if kind == "datetime" else s.astype("float64")).to_numpy()
                x = x[~np.isnan(x)]
                if len(x):
                    lo[j] = min(lo[j], float(x.min()))
                    hi[j] = max(hi[j], float(x.max()))
                if kind == "float":
                    errors[j] = np.maximum(errors[j], _rounding_errors(x))
    out: dict[str, list] = {"rows": [rows]}
    for j, kind in enumerate(kinds):
        out[f"nulls_{j}"] = [nulls[j]]
        if kind == "cat":
            vc = pd.concat(counts[j] or [pd.Series(dtype="int64")]).groupby(level=0).sum()
            out[f"values_{j}"] = [vc.index.tolist()]
            out[f"counts_{j}"] = [vc.to_numpy(dtype="int64").tolist()]
        elif kind != "bool":
            # An empty partition's +-inf bounds go out as nulls.
            out[f"min_{j}"] = [lo[j] if lo[j] <= hi[j] else None]
            out[f"max_{j}"] = [hi[j] if lo[j] <= hi[j] else None]
            if kind == "float":
                out[f"errors_{j}"] = [errors[j].tolist()]
    yield pd.DataFrame(out)


def scan(df: DataFrame) -> tuple[list[ColumnInfo], int]:
    """Profile every column of ``df`` and count its rows in one Spark
    pass: one ``mapInPandas`` job yields a partial profile per partition
    (:func:`_profile_partition`) and the driver merges them. Categories
    are ranked by descending count, then ascending value."""
    names = [f.name for f in df.schema.fields]
    kinds = [_detect_kind(f.dataType) for f in df.schema.fields]
    partials = df.mapInPandas(
        lambda batches: _profile_partition(batches, kinds), _partial_schema(kinds)
    ).collect()
    n_rows = sum(p["rows"] for p in partials)

    infos: list[ColumnInfo] = []
    for j, (c, kind) in enumerate(zip(names, kinds)):
        nulls = sum(p[f"nulls_{j}"] for p in partials)
        if kind == "cat":
            freq = Counter()
            for p in partials:
                freq.update(dict(zip(p[f"values_{j}"], p[f"counts_{j}"])))
            cats = sorted(freq, key=lambda v: (-freq[v], v))[:_MAX_CATEGORIES]
            infos.append(
                ColumnInfo(
                    name=c,
                    index=j,
                    kind=kind,
                    categories=cats,
                    cat_codes={v: i for i, v in enumerate(cats)},
                    null_count=nulls,
                )
            )
            continue
        minval, maxval, scale = 0.0, 0.0, 1.0
        if kind == "bool":
            maxval = 1.0
        else:
            mins = [p[f"min_{j}"] for p in partials if p[f"min_{j}"] is not None]
            maxs = [p[f"max_{j}"] for p in partials if p[f"max_{j}"] is not None]
            minval, maxval = min(mins, default=0.0), max(maxs, default=0.0)
        if kind == "float":
            err = np.zeros(_MAX_DECIMALS + 1)
            for p in partials:
                # Arrow hands a NaN error (from an infinite value) back as None.
                err = np.maximum(err, np.array(p[f"errors_{j}"], dtype="float64"))
            scale = 10.0 ** _decimals_from(err, max(abs(minval), abs(maxval)))
        infos.append(
            ColumnInfo(
                name=c,
                index=j,
                kind=kind,
                scale=scale,
                minval=minval,
                maxval=maxval,
                null_count=nulls,
            )
        )
    return infos, n_rows


def encode_pandas(pdf: pd.DataFrame, infos: list[ColumnInfo]) -> pd.DataFrame:
    """Encode the columns of ``infos`` to float64 with NaN for nulls, in
    ``infos`` order: the one bulk encoder (build sample, GD statistics,
    appended batches, baselines)."""
    return pd.DataFrame({info.name: info.encode_series(pdf[info.name]) for info in infos})
