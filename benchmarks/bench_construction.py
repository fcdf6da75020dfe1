"""Fig. 11d / Table 1 'build' benchmark — synopsis construction time:
distributed PairwiseHist build vs DeepDB-lite SPN learning vs DBEst++-lite
template training (paper shape: PH fastest, DBEst++ 2 orders slower)."""
import pytest

from repro.baselines.dbest_lite import DBEstLite
from repro.baselines.deepdb_lite import DeepDBLite
from repro.core.build import GD_SAMPLE_ROWS, build_synopsis
from repro.datasets import gen_flights
from repro.gd.preprocess import encode_pandas, profile

NS = 10_000


def test_pairwisehist_build(benchmark, spark, power_scaled, ph_built):
    sdf = spark.createDataFrame(power_scaled)
    res = benchmark.pedantic(
        lambda: build_synopsis(sdf, n_sample=NS, infos=ph_built.infos, seed=5),
        rounds=3,
        iterations=1,
    )
    assert res.ph.d == power_scaled.shape[1]


def test_deepdb_build(benchmark, power_scaled, ph_built):
    enc = encode_pandas(power_scaled, ph_built.infos).sample(n=NS, random_state=1)
    model = benchmark.pedantic(
        lambda: DeepDBLite(enc, ph_built.infos, n_rows=len(power_scaled)),
        rounds=3,
        iterations=1,
    )
    assert model.size_bytes > 0


def test_dbest_template_build(benchmark, power_scaled, ph_built):
    enc = encode_pandas(power_scaled, ph_built.infos).sample(n=NS, random_state=1)

    def train_one():
        m = DBEstLite(enc, ph_built.infos, n_rows=len(power_scaled), mdn_epochs=20)
        m.train_template("voltage", "global_active_power")
        return m

    model = benchmark.pedantic(train_one, rounds=2, iterations=1)
    assert model.train_seconds > 0


def test_gd_plan_selection(benchmark, power_scaled, ph_built):
    """GreedyGD bit-selection cost on the construction sample."""
    from repro.gd import greedygd

    enc = encode_pandas(power_scaled, ph_built.infos).sample(n=NS, random_state=2)
    plan = benchmark.pedantic(
        lambda: greedygd.choose_plan(enc, ph_built.infos), rounds=3, iterations=1
    )
    assert set(plan.columns) == {i.name for i in ph_built.infos}


def test_gd_plan_selection_wide(benchmark, spark):
    """GreedyGD bit selection on a d = 32 table (Flights), on as many rows
    as the build gives it."""
    from repro.gd import greedygd

    pdf = gen_flights(GD_SAMPLE_ROWS)
    infos = profile(spark.createDataFrame(pdf))
    enc = encode_pandas(pdf, infos)
    plan = benchmark.pedantic(lambda: greedygd.choose_plan(enc, infos), rounds=3, iterations=1)
    assert len(plan.columns) == 32
