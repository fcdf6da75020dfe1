"""Table 1 / Fig. 11c benchmark — per-query latency of the three engines
plus the exact engine, on identical queries (the paper's headline:
PairwiseHist sub-ms, 3.5x faster than DeepDB, 15x faster than DBEst++,
>>1000x faster than exact)."""
import pytest

from repro.ground_truth import ExactEngine
from repro.queries import Cond, Group, Query

Q_SIMPLE = Query("COUNT", "voltage", Cond("global_active_power", "<", 1.2))
Q_MULTI = Query(
    "AVG",
    "voltage",
    Group(
        "and",
        (
            Cond("global_active_power", ">", 0.4),
            Cond("global_intensity", "<", 12.0),
            Cond("sub_metering_3", ">=", 1.0),
        ),
    ),
)
Q_GROUP = Query(
    "AVG",
    "voltage",
    Group("and", (Cond("global_active_power", ">", 0.4), Cond("global_intensity", "<", 12.0))),
    group_by="tariff",
)


@pytest.mark.parametrize("q", [Q_SIMPLE, Q_MULTI], ids=["single-pred", "multi-pred"])
def test_pairwisehist_latency(benchmark, ph_engine, q):
    r = benchmark(ph_engine.execute, q)
    assert r.est is not None
    assert benchmark.stats.stats.median < 0.01  # well under 10 ms


def test_pairwisehist_groupby_latency(benchmark, ph_engine):
    groups = benchmark(ph_engine.execute_grouped, Q_GROUP)
    assert groups
    assert benchmark.stats.stats.median < 0.01


@pytest.mark.parametrize("q", [Q_SIMPLE, Q_MULTI], ids=["single-pred", "multi-pred"])
def test_deepdb_latency(benchmark, deepdb_model, q):
    r = benchmark(deepdb_model.execute, q)
    assert r.est is not None


def test_dbest_latency(benchmark, dbest_model):
    q = Query("AVG", "voltage", Cond("global_active_power", "<", 1.2))
    dbest_model.train_template(q.col, "global_active_power")
    r = benchmark(dbest_model.execute, q)
    assert r.est is not None


def test_exact_latency(benchmark, power_scaled):
    ex = ExactEngine(power_scaled)
    v = benchmark(ex.scalar, Q_SIMPLE)
    ex.close()
    assert v is not None
