"""Tests for the exact engines — including oracle cross-checks between
exact Spark SQL and DuckDB (``tests.reference``) so the ground truth itself is
verified, on an order-line-shaped table cut from Power."""
import pandas as pd
import pytest

from repro.datasets import gen_power
from repro.ground_truth import ExactEngine
from repro.queries import Cond, Group, Query, query_sql
from tests.reference import assert_equivalent, exact_spark

#: Power's columns in the roles of an order-line table: a quantity, a
#: price, a discount and a categorical flag.
ROLES = {
    "global_intensity": "l_quantity",
    "voltage": "l_extendedprice",
    "global_active_power": "l_discount",
    "tariff": "l_returnflag",
}


@pytest.fixture(scope="module")
def li_pdf():
    return gen_power(12_000)[list(ROLES)].rename(columns=ROLES)


@pytest.fixture(scope="module")
def li(spark, li_pdf):
    return spark.createDataFrame(li_pdf)


QUERIES = [
    Query("COUNT", "l_quantity", Cond("l_extendedprice", "<", 240.0)),
    Query("SUM", "l_extendedprice", Cond("l_quantity", ">=", 5.0)),
    Query("AVG", "l_quantity", Cond("l_returnflag", "=", "peak")),
    Query("MIN", "l_extendedprice", Cond("l_quantity", ">", 15.0)),
    Query("MAX", "l_quantity", Cond("l_discount", "<=", 0.5)),
    Query(
        "SUM",
        "l_quantity",
        Group("or", (Cond("l_returnflag", "=", "offpeak"), Cond("l_discount", ">", 2.0))),
    ),
]


@pytest.mark.parametrize("q", QUERIES, ids=[f"{q.func}-{q.col}" for q in QUERIES])
def test_spark_exact_matches_duckdb_oracle(spark, li, li_pdf, q):
    """The exact Spark SQL path must agree with DuckDB row-for-row — this
    is the oracle check that validates our ground-truth engine."""
    from pyspark.sql import functions as F

    result = exact_spark(spark, li, q).select(F.round("val", 4).alias("val"))
    assert_equivalent(
        result,
        f"SELECT round(val, 4) AS val FROM ({query_sql(q, 'li')})",
        li=li_pdf,
    )


def test_exact_engine_scalar(li_pdf):
    ex = ExactEngine(li_pdf)
    q = QUERIES[0]
    v = ex.scalar(q)
    truth = (li_pdf["l_extendedprice"] < 240.0).sum()
    assert v == truth
    ex.close()


def test_exact_engine_none_on_empty(li_pdf):
    ex = ExactEngine(li_pdf)
    v = ex.scalar(Query("AVG", "l_quantity", Cond("l_quantity", ">", 1e9)))
    assert v is None
    ex.close()


def test_exact_engine_groups(li_pdf):
    ex = ExactEngine(li_pdf)
    q = Query("COUNT", "l_quantity", Cond("l_quantity", ">", 6.0), group_by="l_returnflag")
    groups = ex.groups(q)
    assert set(groups) == set(li_pdf["l_returnflag"].unique())
    assert sum(groups.values()) == (li_pdf["l_quantity"] > 6).sum()
    ex.close()


def test_groupby_spark_oracle(spark, li, li_pdf):
    """Grouped exact query cross-checked through the oracle."""
    from pyspark.sql import functions as F

    q = Query("AVG", "l_quantity", Cond("l_extendedprice", ">", 238.0), group_by="l_returnflag")
    result = exact_spark(spark, li, q).select("grp", F.round("val", 4).alias("val"))
    assert_equivalent(
        result,
        f"SELECT grp, round(val, 4) AS val FROM ({query_sql(q, 'li')})",
        li=li_pdf,
    )


def test_join_shaped_oracle(spark, li, li_pdf):
    """Exercise the shuffle path: aggregate over a join with a small
    per-flag table, validated by the oracle (broadcast joins are disabled
    in conftest)."""
    fl_pdf = pd.DataFrame(
        {"f_flag": ["peak", "shoulder", "offpeak"], "f_band": ["high", "high", "low"]}
    )
    fl = spark.createDataFrame(fl_pdf)
    joined = (
        li.join(fl, li.l_returnflag == fl.f_flag)
        .groupBy("f_band")
        .count()
        .withColumnRenamed("count", "n")
    )
    assert_equivalent(
        joined,
        "SELECT f_band, count(*) AS n FROM li JOIN fl ON l_returnflag = f_flag GROUP BY f_band",
        li=li_pdf,
        fl=fl_pdf,
    )
