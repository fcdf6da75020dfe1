"""Tests for GreedyGD pre-processing: Spark profiling and the one codec,
``ColumnInfo``, in bulk (``encode_pandas``) and for literals. The Spark
expression encoder the build used before is kept below as the reference
for differential tests."""
from functools import reduce

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.build import _max_edges, build_local, build_synopsis, default_min_points
from repro.core.storage import serialize
from repro.gd import greedygd
from repro.gd.preprocess import ColumnInfo, encode_pandas, profile


def reference_spark_encode(df: DataFrame, infos: list[ColumnInfo]) -> DataFrame:
    """Encode ``df`` with Spark expressions and one broadcast join of a
    code table per categorical column (nulls pass through); LONG columns
    in ``infos`` order. Spark's ``round`` is HALF_UP."""
    spark = df.sparkSession
    exprs = []
    for info in infos:
        if info.kind == "cat":
            if not info.categories:  # all-null column
                exprs.append(F.lit(None).cast("long").alias(info.name))
                continue
            mapping = spark.createDataFrame(
                pd.DataFrame(
                    {info.name: info.categories, f"__code_{info.name}": range(len(info.categories))}
                )
            )
            df = df.join(F.broadcast(mapping), on=info.name, how="left")
            exprs.append(F.col(f"__code_{info.name}").cast("long").alias(info.name))
            continue
        col = F.col(info.name).cast("double")
        exprs.append(
            F.round((col - F.lit(info.minval)) * F.lit(info.scale)).cast("long").alias(info.name)
        )
    return df.select(*exprs)


def as_float64(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalise a collected frame (Arrow may hand back Int64/object)."""
    return pdf.apply(lambda s: pd.to_numeric(s, errors="coerce").astype("float64"))


def four_partitions(spark, pdf: pd.DataFrame, schema: str) -> DataFrame:
    """``pdf`` in four partitions, in order, independent of the session's
    default parallelism."""
    q = -(-len(pdf) // 4)
    chunks = [pdf.iloc[k * q : (k + 1) * q] for k in range(4)]
    return reduce(DataFrame.union, [spark.createDataFrame(c, schema).coalesce(1) for c in chunks])


#: 7-decimal values at scale 10^6 round on a .5 only here (2.5e-6 * 1e6 is
#: exactly 2.5): Spark's HALF_UP gives 3, the codec's half-to-even gives 2.
TIE_VALUE = 2.5e-6

EVERY_KIND_SCHEMA = (
    "f double, f7 double, i long, flag boolean, cat string, t timestamp, "
    "none_f double, none_cat string"
)


def every_kind_frame() -> pd.DataFrame:
    """One column of each kind the codec handles, nulls where a kind can
    have them (schema ``EVERY_KIND_SCHEMA``)."""
    rng = np.random.default_rng(5)
    n = 4000
    nulls = rng.random(n) < 0.15
    m7 = rng.integers(0, 10**7, n)
    m7[m7 % 10 == 5] += 1  # no other .5 tie at scale 10^6
    f7 = m7 / 1e7
    f7[:2] = (0.0, TIE_VALUE)
    i = pd.array(rng.integers(-300, 300, n), dtype="Int64")
    i[nulls] = pd.NA
    cat = rng.choice(["red", "green", "blue", "grey"], n, p=[0.4, 0.3, 0.2, 0.1]).astype(object)
    cat[rng.random(n) < 0.1] = None
    t = pd.Series(pd.to_datetime(1_577_836_800 + rng.integers(0, 86_400 * 60, n), unit="s"))
    t[rng.random(n) < 0.05] = pd.NaT
    return pd.DataFrame(
        {
            "f": np.round(rng.normal(10.0, 2.0, n), 2),
            "f7": f7,
            "i": i,
            "flag": rng.random(n) < 0.5,
            "cat": cat,
            "t": t,
            "none_f": np.full(n, np.nan),
            "none_cat": np.full(n, None, dtype=object),
        }
    )


def without_tie(pdf: pd.DataFrame) -> tuple[pd.DataFrame, str]:
    """``pdf`` without ``f7``, the one column on which the Spark reference
    and the codec differ, and its schema."""
    return pdf.drop(columns="f7"), EVERY_KIND_SCHEMA.replace("f7 double, ", "")


@pytest.fixture(scope="module")
def every_kind_pdf():
    return every_kind_frame()


@pytest.fixture(scope="module")
def mixed_pdf():
    rng = np.random.default_rng(0)
    n = 3000
    return pd.DataFrame(
        {
            "f": np.round(rng.normal(10.0, 2.0, n), 2),  # 2 decimals
            "i": rng.integers(-50, 50, n),
            "cat": rng.choice(["red", "green", "blue"], n, p=[0.6, 0.3, 0.1]),
            "nullable": np.where(rng.random(n) < 0.2, np.nan, np.round(rng.random(n), 3)),
            "flag": rng.random(n) < 0.5,
        }
    )


@pytest.fixture(scope="module")
def infos(spark, mixed_pdf):
    return profile(spark.createDataFrame(mixed_pdf))


class TestProfile:
    def test_kinds(self, infos):
        kinds = {i.name: i.kind for i in infos}
        assert kinds["f"] == "float"
        assert kinds["i"] == "int"
        assert kinds["cat"] == "cat"
        assert kinds["flag"] == "bool"

    def test_float_scale_detected(self, infos):
        by = {i.name: i for i in infos}
        assert by["f"].scale == 100.0  # 2 decimals -> x100
        assert by["nullable"].scale == 1000.0

    def test_min_subtraction(self, infos, mixed_pdf):
        by = {i.name: i for i in infos}
        assert by["i"].minval == mixed_pdf["i"].min()
        assert by["f"].minval == pytest.approx(mixed_pdf["f"].min())

    def test_frequency_ranked_categories(self, infos, mixed_pdf):
        by = {i.name: i for i in infos}
        # most frequent category gets code 0 (paper Sec. 3)
        assert by["cat"].categories[0] == "red"
        assert by["cat"].cat_codes["red"] == 0

    def test_null_counts(self, infos, mixed_pdf):
        by = {i.name: i for i in infos}
        assert by["nullable"].null_count == mixed_pdf["nullable"].isna().sum()
        assert by["f"].null_count == 0

    def test_encoded_max(self, infos, mixed_pdf):
        by = {i.name: i for i in infos}
        expected = int(round((mixed_pdf["i"].max() - mixed_pdf["i"].min())))
        assert by["i"].encoded_max == expected
        assert by["cat"].encoded_max == 2


class TestEncode:
    """The build's path: raw rows collected from Spark, encoded on the
    driver."""

    def test_spark_encoding_nonnegative_integers(self, spark, mixed_pdf, infos):
        enc = encode_pandas(spark.createDataFrame(mixed_pdf).toPandas(), infos)
        for i in infos:
            col = enc[i.name].dropna()
            assert (col >= 0).all(), i.name
            assert (col == np.round(col)).all(), i.name  # integral values

    def test_nulls_preserved(self, spark, mixed_pdf, infos):
        enc = encode_pandas(spark.createDataFrame(mixed_pdf).toPandas(), infos)
        assert enc["nullable"].isna().sum() == mixed_pdf["nullable"].isna().sum()

    def test_driver_encoder_matches_spark_reference(self, spark, every_kind_pdf):
        """``encode_pandas`` equals the Spark expression encoder value for
        value, with the same nulls, on every kind. The one difference is an
        exact .5 tie, which Spark rounds up and the codec to even."""
        sdf = spark.createDataFrame(every_kind_pdf, EVERY_KIND_SCHEMA)
        infos = profile(sdf)
        assert [i.kind for i in infos] == [
            "float", "float", "int", "bool", "cat", "datetime", "float", "cat"
        ]
        assert infos[1].scale == 1e6 and infos[1].minval == 0.0
        ref = as_float64(reference_spark_encode(sdf, infos).toPandas())
        enc = encode_pandas(sdf.toPandas(), infos)
        assert list(enc.columns) == list(ref.columns)
        assert (enc.dtypes == "float64").all()
        for c in ref.columns:
            a, b = ref[c].to_numpy(), enc[c].to_numpy()
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b), err_msg=c)
            differ = np.flatnonzero(~np.isnan(a) & (a != b))
            if c == "f7":
                assert differ.tolist() == [1]
                assert (a[1], b[1]) == (3.0, 2.0)
            else:
                assert differ.tolist() == [], c
        assert enc["none_f"].isna().all() and enc["none_cat"].isna().all()
        assert enc["t"].notna().sum() == every_kind_pdf["t"].notna().sum() > 0

    def test_sampled_build_matches_reference_path(self, spark, every_kind_pdf):
        """A rho < 1 build over four partitions samples the raw rows and
        encodes them on the driver. It gives the synopsis of the reference
        path, which encoded in Spark and then sampled, byte for byte."""
        pdf, schema = without_tie(every_kind_pdf)
        sdf = four_partitions(spark, pdf, schema)
        n_sample, seed = 1500, 4
        res = build_synopsis(sdf, n_sample=n_sample, seed=seed)
        ph, infos = res.ph, res.infos
        assert ph.n_rows == len(pdf) and ph.n_sample < ph.n_rows

        frac = min(1.0, 1.1 * n_sample / len(pdf))
        enc = reference_spark_encode(sdf, infos)
        sample = as_float64(enc.sample(fraction=frac, seed=seed).limit(n_sample).toPandas())
        ns = len(sample)
        assert ns == ph.n_sample
        plan = greedygd.choose_plan(sample, infos)
        assert plan == res.gd_plan
        cap = 10 * _max_edges(ns, default_min_points(ns))
        seeds = {c: v[:cap] for c, v in greedygd.base_edges(sample, plan).items()}
        ranges = {i.name: (0.0, float(i.encoded_max)) for i in infos}
        local = build_local(sample, n_rows=len(pdf), seeds=seeds, ranges=ranges)
        assert serialize(local) == serialize(ph)

    def test_oracle_on_decoded_roundtrip(self, spark, mixed_pdf, infos):
        """Encode rows collected from Spark, decode numerically in Spark,
        compare an aggregate against DuckDB on the original data via the
        repo oracle."""
        from repro.oracle import assert_equivalent

        by = {i.name: i for i in infos}
        enc = encode_pandas(spark.createDataFrame(mixed_pdf).toPandas(), infos)
        dec = spark.createDataFrame(enc[["f", "i"]]).select(
            (F.col("f") / by["f"].scale + by["f"].minval).alias("f"),
            (F.col("i") / by["i"].scale + by["i"].minval).alias("i"),
        )
        result = dec.agg(
            F.round(F.sum("f"), 2).alias("sf"), F.round(F.avg("i"), 6).alias("ai")
        )
        assert_equivalent(
            result,
            "SELECT round(sum(f), 2) AS sf, round(avg(i), 6) AS ai FROM src",
            src=mixed_pdf[["f", "i"]],
        )


class TestLiteralCodec:
    def test_numeric_roundtrip(self, infos):
        by = {i.name: i for i in infos}
        e = by["f"].encode_literal(12.34)
        assert by["f"].decode_value(e) == pytest.approx(12.34)

    def test_cat_roundtrip(self, infos):
        by = {i.name: i for i in infos}
        e = by["cat"].encode_literal("green")
        assert by["cat"].decode_value(e) == "green"

    def test_unknown_category_none(self, infos):
        by = {i.name: i for i in infos}
        assert by["cat"].encode_literal("magenta") is None

    def test_none_literal(self, infos):
        assert infos[0].encode_literal(None) is None

    def test_datetime_codec(self):
        info = ColumnInfo("t", 0, "datetime", scale=1.0, minval=1_500_000_000.0)
        ts = pd.Timestamp("2017-07-14 02:40:00")
        e = info.encode_literal(ts)
        assert e == pytest.approx(ts.value / 1e9 - 1_500_000_000.0)
        back = info.decode_value(e)
        assert back == ts

    @pytest.mark.parametrize("unit", ["s", "ms", "us", "ns"])
    def test_datetime_series_in_any_unit(self, unit):
        """Epoch seconds whatever the resolution of the column."""
        info = ColumnInfo("t", 0, "datetime", scale=1.0, minval=1_577_836_800.0)
        raw = ["2020-01-01T00:00:10", "NaT", "2020-01-01T00:01:00"]
        s = pd.Series(np.array(raw, dtype=f"datetime64[{unit}]"))
        enc = info.encode_series(s)
        assert enc[0] == 10.0 == info.encode_literal(s[0])
        assert np.isnan(enc[1]) and enc[2] == 60.0

    def test_encode_series_matches_literals(self, mixed_pdf, infos):
        by = {i.name: i for i in infos}
        s = by["i"].encode_series(mixed_pdf["i"].head(10))
        for raw, enc in zip(mixed_pdf["i"].head(10), s):
            assert enc == pytest.approx(by["i"].encode_literal(raw))
