"""Tests for the DBEst++-lite mixture-density baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.dbest_lite import DBEstLite, GMM1D, MDN, Unsupported
from repro.gd.preprocess import ColumnInfo
from repro.queries import Cond, Group, Query, QueryError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    n = 8000
    x = np.round(rng.normal(100, 25, n)).clip(0, 250)
    y = np.round(2 * x + rng.normal(0, 10, n)).clip(0)
    return pd.DataFrame({"x": x, "y": y})


@pytest.fixture(scope="module")
def infos():
    return [ColumnInfo("x", 0, "int", maxval=250), ColumnInfo("y", 1, "int", maxval=600)]


@pytest.fixture(scope="module")
def model(data, infos):
    return DBEstLite(data, infos, n_rows=len(data), mdn_epochs=25, seed=0)


class TestGMM:
    def test_fits_mixture(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(10, 1, 3000), rng.normal(50, 2, 3000)])
        g = GMM1D.fit(x, k=4, seed=0)
        assert g.prob_region(((-1000, 1000),)) == pytest.approx(1.0, abs=1e-3)
        # roughly half the mass below 30
        assert g.prob_region(((-1000, 30),)) == pytest.approx(0.5, abs=0.05)

    def test_weights_sum_to_one(self):
        g = GMM1D.fit(np.random.default_rng(2).normal(0, 1, 1000))
        assert g.weights.sum() == pytest.approx(1.0)
        assert (g.sigmas > 0).all()

    def test_empty_input(self):
        g = GMM1D.fit(np.array([]))
        assert g.prob_region(((-1, 1),)) >= 0


class TestMDN:
    def test_learns_linear_regression(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 100, 6000)
        y = 3 * x + 7 + rng.normal(0, 2, 6000)
        mdn = MDN(seed=0)
        mdn.fit(x, y, epochs=40, seed=0)
        xs = np.array([20.0, 50.0, 80.0])
        m1, m2 = mdn.predict_moments(xs)
        np.testing.assert_allclose(m1, 3 * xs + 7, rtol=0.08)
        assert np.all(m2 >= m1**2 - 1e-6)

    def test_no_nan_after_training(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(10, 4000)
        y = np.sqrt(x) * 10 + rng.normal(0, 1, 4000)
        mdn = MDN(seed=1)
        mdn.fit(x, y, epochs=30, seed=1)
        m1, _ = mdn.predict_moments(np.linspace(0, 50, 10))
        assert np.all(np.isfinite(m1))

    def test_param_count(self):
        mdn = MDN(hidden=48, k=5)
        assert mdn.n_params == 1 * 48 + 48 + 48 * 15 + 15


class TestQueries:
    def test_count(self, model, data):
        r = model.execute(Query("COUNT", "y", Cond("x", "<", 100.0)))
        truth = (data["x"] < 100).sum()
        assert r.est == pytest.approx(truth, rel=0.1)

    def test_sum_avg(self, model, data):
        mask = data["x"] >= 120
        r_sum = model.execute(Query("SUM", "y", Cond("x", ">=", 120.0)))
        r_avg = model.execute(Query("AVG", "y", Cond("x", ">=", 120.0)))
        assert r_avg.est == pytest.approx(data.loc[mask, "y"].mean(), rel=0.1)
        assert r_sum.est == pytest.approx(data.loc[mask, "y"].sum(), rel=0.2)

    def test_var_positive(self, model):
        r = model.execute(Query("VAR", "y", Cond("x", ">", 50.0)))
        assert r.est >= 0

    def test_same_column_template(self, model, data):
        r = model.execute(Query("AVG", "x", Cond("x", "<", 100.0)))
        truth = data.loc[data["x"] < 100, "x"].mean()
        assert r.est == pytest.approx(truth, rel=0.1)

    def test_no_bounds(self, model):
        r = model.execute(Query("COUNT", "y", Cond("x", "<", 100.0)))
        assert r.lo is None and r.hi is None


class TestTemplatesAndLimits:
    def test_one_model_per_template(self, model):
        model.execute(Query("SUM", "y", Cond("x", "<", 50.0)))
        model.execute(Query("AVG", "y", Cond("x", "<", 80.0)))  # same template
        assert ("y", "x") in model.templates
        n = len(model.templates)
        model.execute(Query("SUM", "x", Cond("y", "<", 100.0)))  # new template
        assert len(model.templates) == n + 1

    def test_size_grows_with_templates(self, data, infos):
        m = DBEstLite(data, infos, n_rows=len(data), mdn_epochs=5, seed=0)
        m.execute(Query("SUM", "y", Cond("x", "<", 50.0)))
        s1 = m.size_bytes
        m.execute(Query("SUM", "x", Cond("y", "<", 100.0)))
        assert m.size_bytes > s1

    def test_training_time_recorded(self, model):
        assert model.train_seconds > 0

    def test_two_pred_columns_unsupported(self, model):
        q = Query(
            "COUNT", "y", Group("and", (Cond("x", "<", 100.0), Cond("y", "<", 100.0)))
        )
        assert not model.supports(q)

    def test_or_unsupported(self, model):
        q = Query("COUNT", "y", Group("or", (Cond("x", "<", 10.0), Cond("x", ">", 90.0))))
        assert not model.supports(q)

    @pytest.mark.parametrize("func", ["MIN", "MAX", "MEDIAN"])
    def test_funcs_unsupported(self, model, func):
        assert not model.supports(Query(func, "y", Cond("x", "<", 100.0)))

    def test_no_predicate_unsupported(self, model):
        with pytest.raises(Unsupported):
            model._pred_region(Query("COUNT", "y", None))


class TestLiteralEncoding:
    """Conditions compile through the engine's shared ``encode_cond``."""

    @pytest.fixture(scope="class")
    def cat_model(self):
        rng = np.random.default_rng(4)
        n = 3000
        cats = ["a", "b", "c"]
        infos = [
            ColumnInfo("x", 0, "int", maxval=99),
            ColumnInfo("c", 1, "cat", categories=cats, cat_codes={v: i for i, v in enumerate(cats)}),
        ]
        enc = pd.DataFrame(
            {"x": rng.integers(0, 100, n).astype(float), "c": rng.integers(0, 3, n).astype(float)}
        )
        return DBEstLite(enc, infos, n_rows=n, mdn_epochs=2, seed=0)

    def test_unseen_category_not_equal_matches_every_row(self, cat_model):
        r = cat_model.execute(Query("COUNT", "x", Cond("c", "!=", "zzz")))
        assert r.est == pytest.approx(3000, rel=1e-9)

    def test_unseen_category_equal_matches_nothing(self, cat_model):
        r = cat_model.execute(Query("COUNT", "x", Cond("c", "=", "zzz")))
        assert r.est == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("lit", [float("nan"), float("inf"), "not a number"])
    def test_bad_literal_raises_query_error(self, cat_model, lit):
        with pytest.raises(QueryError):
            cat_model.execute(Query("COUNT", "x", Cond("x", "<", lit)))

    @pytest.mark.parametrize("func", ["MIN", "MAX", "MEDIAN", "FOO"])
    def test_unsupported_function_raises(self, cat_model, func):
        # MIN(x) once came back as a density-weighted mean, above max(x).
        with pytest.raises(Unsupported):
            cat_model.execute(Query(func, "x", Cond("c", "=", "a")))

    def test_group_by_raises(self, cat_model):
        with pytest.raises(Unsupported):
            cat_model.execute(Query("COUNT", "x", Cond("x", "<", 3), group_by="c"))

    def test_unknown_aggregation_column_raises_query_error(self, cat_model):
        with pytest.raises(QueryError):
            cat_model.execute(Query("AVG", "nope", Cond("x", "<", 3)))
