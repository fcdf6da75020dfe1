"""Tests for GreedyGD pre-processing: the one-pass Spark profile and the
one codec, ``ColumnInfo``, in bulk (``encode_pandas``) and for literals.
The Spark profiler (one aggregate, a decimal head and a ``groupBy`` per
category) and the Spark expression encoder the build used before are kept
below as references for differential tests."""
import datetime as dt
from functools import reduce

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro import idebench
from repro.core.build import _max_edges, build_local, build_synopsis, default_min_points
from repro.core.storage import serialize
from repro.datasets import DATASETS
from repro.gd import greedygd
from repro.gd.preprocess import (
    _MAX_CATEGORIES,
    ColumnInfo,
    _detect_kind,
    encode_pandas,
    scan,
)
from repro.queries import AQPResult
from tests.reference import assert_equivalent, decimals_needed


def reference_spark_profile(df: DataFrame, sample_rows: int = 20_000) -> list[ColumnInfo]:
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
            scale = 10.0 ** decimals_needed(sample_pdf[c].to_numpy(dtype="float64"))
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
    return scan(spark.createDataFrame(mixed_pdf))[0]


def test_large_values_keep_their_decimals():
    """The tolerance follows float64 rounding, not the value's size: one
    decimal would encode all three values to the same integer."""
    assert decimals_needed(np.array([123456.78, 123456.79, 123456.8])) == 2


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
        infos = scan(sdf)[0]
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
        DuckDB oracle."""
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


def decode(info: ColumnInfo, e: float) -> float:
    """One encoded value back in the original domain."""
    return info.decode("MIN", AQPResult(e, e, e)).est


class TestLiteralCodec:
    def test_numeric_roundtrip(self, infos):
        by = {i.name: i for i in infos}
        e = by["f"].encode_literal(12.34)
        assert e == round(e)  # on the grid
        assert decode(by["f"], e) == pytest.approx(12.34)

    def test_cat_roundtrip(self, infos):
        by = {i.name: i for i in infos}
        e = by["cat"].encode_literal("green")
        assert by["cat"].categories[int(e)] == "green"

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
        assert pd.Timestamp(decode(info, e), unit="s") == ts

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


#: ``hypothesis_frame`` column order; float ``f`` has 0–7 decimals per row,
#: or is infinite.
HYPOTHESIS_SCHEMA = (
    "f double, i long, flag boolean, cat string, t timestamp, none_f double, none_cat string"
)
#: Few, close values: tied counts, and an order that tells case, the empty
#: string and a non-ASCII code point apart.
CATEGORY_VALUES = ["a", "b", "B", "", "é", "zz"]


@st.composite
def hypothesis_frame(draw) -> tuple[list[tuple], int]:
    """Rows of ``HYPOTHESIS_SCHEMA`` and a partition count; with fewer
    rows than partitions some partitions are empty."""
    n_parts = draw(st.integers(1, 8))
    row = st.tuples(
        st.one_of(
            st.none(),
            st.builds(
                lambda m, d: m / 10**d, st.integers(-(10**9), 10**9), st.integers(0, 7)
            ),
            st.sampled_from([np.inf, -np.inf]),
        ),
        st.one_of(st.none(), st.integers(-(2**40), 2**40)),
        st.one_of(st.none(), st.booleans()),
        st.one_of(st.none(), st.sampled_from(CATEGORY_VALUES)),
        st.one_of(
            st.none(),
            st.integers(0, 10**9).map(
                lambda s: dt.datetime(2000, 1, 1) + dt.timedelta(seconds=s)
            ),
        ),
        st.none(),
        st.none(),
    )
    return draw(st.lists(row, max_size=40)), n_parts


class TestScanMatchesReference:
    """The one-pass scan gives the reference profiler's ``ColumnInfo``s
    whenever the reference's decimal head holds the whole table."""

    def test_every_kind_frame(self, spark, every_kind_pdf):
        sdf = four_partitions(spark, every_kind_pdf, EVERY_KIND_SCHEMA)
        assert scan(sdf)[0] == reference_spark_profile(sdf)

    def test_mixed_frame(self, spark, mixed_pdf):
        sdf = spark.createDataFrame(mixed_pdf)
        infos, n_rows = scan(sdf)
        assert infos == reference_spark_profile(sdf)
        assert n_rows == len(mixed_pdf)

    def test_power_at_benchmark_size(self, spark):
        """Power as the benchmark builds it: 150k rows, four partitions.
        Its decimals all show in the reference's 20k-row head."""
        pdf = idebench.generate_pandas(
            idebench.fit(DATASETS["power"].generate()), 150_000, seed=0
        )
        schema = ", ".join(
            f"{c} {'long' if c == 'ts' else 'string' if c == 'tariff' else 'double'}"
            for c in pdf.columns
        )
        sdf = four_partitions(spark, pdf, schema)
        infos, n_rows = scan(sdf)
        assert infos == reference_spark_profile(sdf)
        assert n_rows == len(pdf)

    @settings(max_examples=15, deadline=None)
    @given(hypothesis_frame())
    @example(([], 1))
    @example(([], 3))
    @example(([(1.25, 3, True, "b", dt.datetime(2001, 1, 1), None, None)], 8))
    def test_random_frames(self, spark, frame):
        rows, n_parts = frame
        # Cached, so that the profilers' jobs do not each re-read the rows
        # through a Python worker.
        sdf = spark.createDataFrame(
            spark.sparkContext.parallelize(rows, n_parts), HYPOTHESIS_SCHEMA
        ).cache()
        try:
            infos, n_rows = scan(sdf)
            assert infos == reference_spark_profile(sdf)
        finally:
            sdf.unpersist()
        assert n_rows == len(rows)

    def test_decimals_after_the_head(self, spark):
        """The one documented difference. A float column whose third
        decimal first shows after row 20,000 gets scale 10^2 from the
        reference's head, which then rounds that value away when it is
        encoded; the scan reads the whole column and gives 10^3."""
        rng = np.random.default_rng(11)
        x = np.round(rng.normal(10.0, 2.0, 25_000), 2)
        x[22_000] = 10.237
        sdf = spark.createDataFrame(pd.DataFrame({"x": x})).coalesce(1)
        (ref,), (new,) = reference_spark_profile(sdf), scan(sdf)[0]
        assert (ref.scale, new.scale) == (100.0, 1000.0)
        assert (ref.minval, ref.maxval, ref.null_count) == (new.minval, new.maxval, 0)

        value = pd.Series([10.237])
        rounded = decode(ref, ref.encode_series(value)[0])
        assert rounded == pytest.approx(10.24) and rounded != pytest.approx(10.237)
        assert decode(new, new.encode_series(value)[0]) == pytest.approx(10.237, abs=1e-9)


class TestDatesAndTimeZones:
    def test_date_column(self, spark):
        """A date column is a ``datetime`` column in epoch seconds of its
        midnights; it profiles and builds."""
        days = [dt.date(2021, 3, 1) + dt.timedelta(days=int(k)) for k in range(0, 300, 3)]
        rows = [(d if k % 7 else None, k / 4) for k, d in enumerate(days)]
        sdf = spark.createDataFrame(rows, "d date, x double")
        d, x = scan(sdf)[0]
        midnight = dt.datetime(2021, 3, 1, tzinfo=dt.timezone.utc).timestamp()
        assert d == ColumnInfo(
            "d", 0, "datetime", minval=midnight + 86_400 * 3,
            maxval=midnight + 86_400 * 297, null_count=15,
        )
        assert x.scale == 100.0

        res = build_synopsis(sdf, n_sample=len(rows))
        assert res.ph.n_rows == len(rows)
        assert res.ph.hists1d[0].counts.sum() == len(rows) - 15
        assert res.infos[0] == d

    def test_timestamps_in_a_session_time_zone(self, spark, every_kind_pdf):
        """Outside UTC the sample and the profile read timestamps in the
        same wall-clock view, so every encoded sample value lies in
        ``[0, encoded_max]``."""
        sdf = four_partitions(spark, every_kind_pdf, EVERY_KIND_SCHEMA)
        n_sample, seed = 1500, 2
        spark.conf.set("spark.sql.session.timeZone", "America/New_York")
        try:
            res = build_synopsis(sdf, n_sample=n_sample, seed=seed)
            frac = min(1.0, 1.1 * n_sample / len(every_kind_pdf))
            raw = sdf.sample(fraction=frac, seed=seed).limit(n_sample).toPandas()
        finally:
            spark.conf.set("spark.sql.session.timeZone", "UTC")
        sample = encode_pandas(raw, res.infos)
        assert len(sample) == res.ph.n_sample
        for info, h in zip(res.infos, res.ph.hists1d):
            col = sample[info.name].dropna()
            assert ((col >= 0) & (col <= info.encoded_max)).all(), info.name
            assert h.edges[0] == 0.0, info.name
        assert res.infos[5].kind == "datetime" and sample["t"].notna().any()
