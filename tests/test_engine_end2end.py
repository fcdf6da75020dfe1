"""End-to-end engine tests: original-domain queries through the full
pipeline (Spark build -> encoded execution -> decoded results) checked
against DuckDB exact answers."""
import numpy as np
import pandas as pd
import pytest

from repro.core.build import build_synopsis
from repro.core.engine import PHEngine
from repro.datasets import DATASETS
from repro.experiments.scenarios import make_workload
from repro.ground_truth import ExactEngine
from repro.queries import Cond, Group, Query, QueryError


@pytest.fixture(scope="module")
def power(spark):
    pdf = DATASETS["power"].generate(30_000)
    res = build_synopsis(spark.createDataFrame(pdf), n_sample=15_000, seed=2)
    return pdf, PHEngine(res.ph, res.infos)


class TestScalarQueries:
    @pytest.mark.parametrize(
        "q",
        [
            Query("COUNT", "voltage", Cond("global_active_power", "<", 1.5)),
            Query("SUM", "sub_metering_3", Cond("voltage", ">", 240.0)),
            Query("AVG", "voltage", Cond("global_intensity", ">=", 4.0)),
            Query("MEDIAN", "voltage", Cond("global_active_power", ">", 0.5)),
            Query("VAR", "voltage", Cond("tariff", "=", "peak")),
            Query(
                "COUNT",
                "voltage",
                Group("and", (Cond("voltage", ">", 235.0), Cond("voltage", "<", 245.0))),
            ),
            Query(
                "SUM",
                "global_active_power",
                Group("or", (Cond("tariff", "=", "offpeak"), Cond("voltage", "<", 238.0))),
            ),
        ],
    )
    def test_close_to_exact(self, power, q):
        pdf, engine = power
        ex = ExactEngine(pdf)
        truth = ex.scalar(q)
        ex.close()
        r = engine.execute(q)
        assert r.est is not None and truth is not None
        rel = abs(r.est - truth) / max(abs(truth), 1e-9)
        assert rel < 0.25, f"{q}: est={r.est} truth={truth}"

    def test_min_max_close_to_truth(self, power):
        """MIN/MAX bounds are statistical, not guaranteed (the paper's own
        correct-rate is 70-80 %, Table 6) — assert ordering plus closeness
        at the histogram's value resolution."""
        pdf, engine = power
        for func in ("MIN", "MAX"):
            q = Query(func, "voltage", Cond("global_active_power", ">", 1.0))
            ex = ExactEngine(pdf)
            truth = ex.scalar(q)
            ex.close()
            r = engine.execute(q)
            assert r.lo <= r.est <= r.hi
            assert abs(r.est - truth) / abs(truth) < 0.05

    def test_unseen_category_eq_empty(self, power):
        _, engine = power
        q = Query("COUNT", "voltage", Cond("tariff", "=", "nonexistent"))
        r = engine.execute(q)
        assert r.est == 0.0

    def test_unseen_category_neq_full(self, power):
        pdf, engine = power
        q = Query("COUNT", "voltage", Cond("tariff", "!=", "nonexistent"))
        r = engine.execute(q)
        assert r.est == pytest.approx(len(pdf), rel=0.05)


class TestRandomWorkload:
    def test_error_distribution(self, power):
        """Across a random mixed workload the bulk of queries must land
        near the truth (the paper's Fig. 10 shape at small scale)."""
        pdf, engine = power
        queries = make_workload(pdf, n_queries=40, min_selectivity=5e-3, seed=21)
        ex = ExactEngine(pdf)
        errs, contained = [], []
        for q in queries:
            truth = ex.scalar(q)
            r = engine.execute(q)
            if truth in (None, 0) or r.est is None:
                continue
            errs.append(abs(r.est - truth) / abs(truth))
            if r.lo is not None:
                contained.append(r.lo - 1e-9 <= truth <= r.hi + 1e-9)
        ex.close()
        assert len(errs) >= 25
        assert float(np.median(errs)) < 0.12
        assert float(np.mean(contained)) > 0.5

    def test_latency_sub_10ms(self, power):
        import time

        pdf, engine = power
        q = Query("SUM", "voltage", Cond("global_active_power", "<", 1.0))
        engine.execute(q)  # warm
        t0 = time.perf_counter()
        for _ in range(50):
            engine.execute(q)
        per = (time.perf_counter() - t0) / 50
        assert per < 0.01, f"query latency {per*1000:.2f} ms"


class TestGroupBy:
    def test_grouped_counts(self, power):
        pdf, engine = power
        q = Query("COUNT", "voltage", Cond("voltage", ">", 230.0), group_by="tariff")
        got = engine.execute_grouped(q)
        ex = ExactEngine(pdf)
        truth = ex.groups(q)
        ex.close()
        assert set(got) >= set(k for k, v in truth.items() if v and v > 100)
        for k, v in truth.items():
            if v and v > 500 and k in got:
                assert got[k].est == pytest.approx(v, rel=0.3)

    def test_group_by_requires_cat(self, power):
        _, engine = power
        with pytest.raises(QueryError):
            engine.execute_grouped(Query("COUNT", "voltage", None, group_by="voltage"))


class TestDecoding:
    def test_sum_decode_with_negative_min(self, spark):
        rng = np.random.default_rng(5)
        pdf = pd.DataFrame(
            {
                "x": np.round(rng.normal(-100.0, 20.0, 8000), 1),  # negative values
                "y": rng.integers(0, 50, 8000).astype(float),
            }
        )
        res = build_synopsis(spark.createDataFrame(pdf), n_sample=8000)
        engine = PHEngine(res.ph, res.infos)
        q = Query("SUM", "x", Cond("y", "<", 25.0))
        truth = pdf.loc[pdf["y"] < 25, "x"].sum()
        r = engine.execute(q)
        assert r.est == pytest.approx(truth, rel=0.1)
        assert r.lo <= truth <= r.hi

    def test_avg_decode_scale(self, spark):
        rng = np.random.default_rng(6)
        pdf = pd.DataFrame(
            {
                "x": np.round(rng.uniform(0.5, 0.9, 6000), 3),  # 3-decimal floats
                "y": rng.integers(0, 10, 6000).astype(float),
            }
        )
        res = build_synopsis(spark.createDataFrame(pdf), n_sample=6000)
        engine = PHEngine(res.ph, res.infos)
        q = Query("AVG", "x", Cond("y", ">=", 5.0))
        truth = pdf.loc[pdf["y"] >= 5, "x"].mean()
        r = engine.execute(q)
        assert r.est == pytest.approx(truth, rel=0.02)
