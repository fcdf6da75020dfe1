"""GreedyGD pre-processing (Sec. 3, "Data Compression").

Each column is independently mapped to a non-negative integer domain:

* numeric      — minimum-value subtraction and float→int conversion
                 (e.g. 10.22 → 1022 with scale 100),
* timestamp    — epoch seconds, then min subtraction,
* categorical  — frequency-ranked codes (most common value → 0, …),
* missing      — kept as SQL NULL through encoding; PairwiseHist handles
                 nulls by building histograms over non-null values
                 (see DESIGN.md).

Profiling runs as Spark DataFrame aggregations. Everything after it goes
through one codec, ``ColumnInfo``: :func:`encode_pandas` encodes the build
sample on the driver, the rows ``greedygd.compress_stats`` counts (inside
Spark's Python workers), appended batches and the baselines' data, and the
same objects encode query literals (Sec. 5.1) and decode results back to
the original domain. Bulk encoding rounds half to even, and naive
timestamps are read as UTC, so a Spark session that hands rows to it must
run in UTC.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

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
        comparisons on off-grid values stay meaningful."""
        if v is None:
            return None
        if self.kind == "cat":
            return self.cat_codes.get(v)
        if self.kind == "bool":
            return float(bool(v))
        if self.kind == "datetime":
            v = pd.Timestamp(v).value / 1e9
        return (float(v) - self.minval) * self.scale

    def decode_value(self, e: float):
        """Inverse of :meth:`encode_literal` for numeric-like results."""
        if e is None or (isinstance(e, float) and np.isnan(e)):
            return None
        if self.kind == "cat":
            idx = int(round(e))
            return self.categories[idx] if 0 <= idx < len(self.categories) else None
        v = e / self.scale + self.minval
        if self.kind == "datetime":
            return pd.Timestamp(v, unit="s")
        if self.kind in ("int", "bool"):
            return float(round(v))
        return v

    def encode_series(self, s: pd.Series) -> pd.Series:
        """Encode a pandas column to float64 with NaN for nulls. Scaled
        values are rounded half to even; naive timestamps are read as UTC."""
        if self.kind == "cat":
            return s.map(self.cat_codes).astype("float64")
        if self.kind == "bool":
            return s.astype("float64")
        if self.kind == "datetime":
            vals = pd.to_datetime(s).astype("datetime64[ns]").astype("int64") / 1e9
            vals = vals.where(s.notna())
            return ((vals - self.minval) * self.scale).round()
        return ((s.astype("float64") - self.minval) * self.scale).round()


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


def _decimals_needed(sample: np.ndarray) -> int:
    """Smallest k <= _MAX_DECIMALS such that sample*10^k is integral
    (within float tolerance) — the paper's 10.22 → 1022 conversion."""
    sample = sample[~np.isnan(sample)]
    if len(sample) == 0:
        return 0
    for k in range(_MAX_DECIMALS + 1):
        scaled = sample * (10.0**k)
        if np.max(np.abs(scaled - np.round(scaled))) < 1e-6 * np.maximum(
            1.0, np.max(np.abs(scaled))
        ):
            return k
    return _MAX_DECIMALS


def profile(df: DataFrame, sample_rows: int = 20_000) -> list[ColumnInfo]:
    """Profile every column of ``df`` with one global aggregation, one
    ``limit`` head collected for decimal detection, and one ``groupBy``
    per categorical column for its frequency ranks."""
    kinds = {f.name: _detect_kind(f.dataType) for f in df.schema.fields}
    aggs = []
    for c, kind in kinds.items():
        col = F.col(c)
        if kind == "datetime":
            col = col.cast("double")
        elif kind in ("float", "int", "bool"):
            col = col.cast("double")
        if kind != "cat":
            aggs.append(F.min(col).alias(f"min__{c}"))
            aggs.append(F.max(col).alias(f"max__{c}"))
        aggs.append(F.sum(F.col(c).isNull().cast("long")).alias(f"nulls__{c}"))
    stats = df.agg(*aggs).collect()[0].asDict()

    float_cols = [c for c, k in kinds.items() if k == "float"]
    sample_pdf = (
        df.select(*[F.col(c).cast("double").alias(c) for c in float_cols])
        .limit(sample_rows)
        .toPandas()
        if float_cols
        else pd.DataFrame()
    )

    infos: list[ColumnInfo] = []
    for idx, (c, kind) in enumerate(kinds.items()):
        nulls = int(stats[f"nulls__{c}"] or 0)
        if kind == "cat":
            freq = (
                df.groupBy(c)
                .count()
                .where(F.col(c).isNotNull())
                .orderBy(F.desc("count"), F.asc(c))
                .limit(_MAX_CATEGORIES)
                .collect()
            )
            cats = [r[0] for r in freq]
            infos.append(
                ColumnInfo(
                    name=c,
                    index=idx,
                    kind=kind,
                    categories=cats,
                    cat_codes={v: i for i, v in enumerate(cats)},
                    null_count=nulls,
                )
            )
            continue
        minval = stats[f"min__{c}"]
        minval = float(minval) if minval is not None else 0.0
        maxval = stats[f"max__{c}"]
        maxval = float(maxval) if maxval is not None else 0.0
        scale = 1.0
        if kind == "float" and c in sample_pdf.columns:
            scale = 10.0 ** _decimals_needed(sample_pdf[c].to_numpy(dtype="float64"))
        if kind == "bool":
            minval = 0.0
            maxval = 1.0
        infos.append(
            ColumnInfo(
                name=c,
                index=idx,
                kind=kind,
                scale=scale,
                minval=minval,
                maxval=maxval,
                null_count=nulls,
            )
        )
    return infos


def encode_pandas(pdf: pd.DataFrame, infos: list[ColumnInfo]) -> pd.DataFrame:
    """Encode the columns of ``infos`` to float64 with NaN for nulls, in
    ``infos`` order: the one bulk encoder (build sample, GD statistics,
    appended batches, baselines)."""
    return pd.DataFrame({info.name: info.encode_series(pdf[info.name]) for info in infos})
