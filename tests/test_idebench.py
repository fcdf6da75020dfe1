"""Tests for the IDEBench-lite scaler (normalisation + Gaussian models)."""
import numpy as np
import pandas as pd
import pytest

from repro import idebench
from repro.datasets import DATASETS


@pytest.fixture(scope="module")
def power_small():
    return DATASETS["power"].generate(8000)


@pytest.fixture(scope="module")
def model(power_small):
    return idebench.fit(power_small)


def test_fit_covers_all_columns(power_small, model):
    assert [c.name for c in model.columns] == list(power_small.columns)


def test_generate_rows_and_schema(model, power_small):
    out = idebench.generate_pandas(model, 5000, seed=1)
    assert out.shape == (5000, power_small.shape[1])
    assert list(out.columns) == list(power_small.columns)


def test_marginals_preserved(model, power_small):
    out = idebench.generate_pandas(model, 20_000, seed=2)
    for c in ("voltage", "global_active_power"):
        m0, m1 = power_small[c].mean(), out[c].mean()
        s0, s1 = power_small[c].std(), out[c].std()
        assert m1 == pytest.approx(m0, rel=0.05)
        assert s1 == pytest.approx(s0, rel=0.15)


def test_correlations_preserved(model, power_small):
    out = idebench.generate_pandas(model, 20_000, seed=3)
    r0 = power_small["global_active_power"].corr(power_small["global_intensity"])
    r1 = out["global_active_power"].corr(out["global_intensity"])
    assert r0 > 0.5  # the original really is correlated
    assert r1 == pytest.approx(r0, abs=0.2)


def test_categorical_frequencies_preserved(model, power_small):
    out = idebench.generate_pandas(model, 20_000, seed=4)
    f0 = power_small["tariff"].value_counts(normalize=True)
    f1 = out["tariff"].value_counts(normalize=True)
    for k in f0.index:
        assert f1.get(k, 0.0) == pytest.approx(f0[k], abs=0.03)


def test_null_fractions_preserved():
    base = DATASETS["aqua"].generate(6000)
    model = idebench.fit(base)
    out = idebench.generate_pandas(model, 12_000, seed=5)
    col = "pond0_ph"
    assert out[col].isna().mean() == pytest.approx(base[col].isna().mean(), abs=0.05)


def test_decimals_preserved(model):
    out = idebench.generate_pandas(model, 2000, seed=6)
    v = out["global_active_power"].dropna() * 1000
    assert np.allclose(v, np.round(v), atol=1e-6)


def test_decimals_read_from_the_whole_column():
    """A column whose first 5,000 values have 1 decimal and whose later
    values have 3 keeps 3, as the profile scan would find them."""
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.integers(0, 1000, 5000) / 10, rng.integers(0, 100_000, 3000) / 1000])
    model = idebench.fit(pd.DataFrame({"x": x}))
    assert model.columns[0].decimals == 3


def test_generate_spark_distributed(spark, model):
    sdf = idebench.generate_spark(spark, model, 30_000, seed=7, partitions=8)
    pdf = sdf.toPandas()
    assert len(pdf) == 30_000
    assert pdf["voltage"].std() > 0


def test_generate_spark_deterministic(spark, model):
    a = idebench.generate_spark(spark, model, 5000, seed=8, partitions=4).toPandas()
    b = idebench.generate_spark(spark, model, 5000, seed=8, partitions=4).toPandas()
    pd.testing.assert_frame_equal(
        a.sort_values(list(a.columns)).reset_index(drop=True),
        b.sort_values(list(b.columns)).reset_index(drop=True),
    )
