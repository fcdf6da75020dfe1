"""Code that only the tests use: the DuckDB oracle for Spark results,
exact execution on Spark, the decimal scale of a value array and the
bit-at-a-time unary code of the reference Golomb coder."""
import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

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
