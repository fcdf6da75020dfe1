"""Tests for the DeepDB-lite SPN baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.deepdb_lite import DeepDBLite, Leaf, ProductNode, SumNode, Unsupported, _build_leaf
from repro.gd.preprocess import ColumnInfo
from repro.queries import Cond, Group, Query, QueryError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    n = 15_000
    x = rng.integers(0, 200, n).astype(float)
    y = np.round(x * 3 + rng.normal(0, 25, n)).clip(0)
    z = rng.integers(0, 50, n).astype(float)
    return pd.DataFrame({"x": x, "y": y, "z": z})


@pytest.fixture(scope="module")
def infos():
    return [
        ColumnInfo("x", 0, "int", maxval=199),
        ColumnInfo("y", 1, "int", maxval=700),
        ColumnInfo("z", 2, "int", maxval=49),
    ]


@pytest.fixture(scope="module")
def model(data, infos):
    return DeepDBLite(data, infos, n_rows=len(data), seed=0)


class TestLeaf:
    def test_point_leaf_probabilities(self):
        leaf = _build_leaf(0, np.array([1.0, 1.0, 2.0, 3.0]))
        assert leaf.prob.sum() == pytest.approx(1.0)
        assert leaf.prob_region(((1, 1),)) == pytest.approx(0.5)

    def test_range_leaf(self):
        rng = np.random.default_rng(1)
        leaf = _build_leaf(0, rng.uniform(0, 1000, 5000))
        assert len(leaf.lo) <= 64
        assert leaf.prob_region(((0, 500),)) == pytest.approx(0.5, abs=0.08)

    def test_null_fraction(self):
        vals = np.array([1.0, np.nan, 2.0, np.nan])
        leaf = _build_leaf(0, vals)
        assert leaf.p_null == pytest.approx(0.5)
        # a constrained region excludes nulls; unconstrained contributes 1
        from repro.core.coverage import FULL

        assert leaf.prob_region(FULL) == pytest.approx(0.5)
        assert leaf.prob_region(None) == 1.0

    def test_moments(self):
        leaf = _build_leaf(0, np.array([10.0] * 50 + [20.0] * 50))
        m1, m2 = leaf.moments_region(None)
        assert m1 == pytest.approx(15.0)
        assert m2 == pytest.approx((100 + 400) / 2)


class TestStructure:
    def test_root_is_sum(self, model):
        # RSPN-style: row clustering first
        assert isinstance(model.root, SumNode)

    def test_sum_weights_normalised(self, model):
        def walk(node):
            if isinstance(node, SumNode):
                assert float(np.sum(node.weights)) == pytest.approx(1.0)
                for c in node.children:
                    walk(c)
            elif isinstance(node, ProductNode):
                for c in node.children:
                    walk(c)

        walk(model.root)

    def test_leaves_cover_all_columns(self, model):
        cols = set()

        def walk(node):
            if isinstance(node, Leaf):
                cols.add(node.col)
            else:
                for c in node.children:
                    walk(c)

        walk(model.root)
        assert cols == {0, 1, 2}

    def test_size_counts_params(self, model):
        assert model.size_bytes == 4 * model.root.n_params
        assert model.size_bytes > 1000


class TestQueries:
    def test_count_no_predicate(self, model, data):
        r = model.execute(Query("COUNT", "x"))
        assert r.est == pytest.approx(len(data), rel=0.02)

    def test_count_range(self, model, data):
        r = model.execute(Query("COUNT", "x", Cond("x", "<", 100.0)))
        truth = (data["x"] < 100).sum()
        assert r.est == pytest.approx(truth, rel=0.1)
        assert r.lo <= r.est <= r.hi

    def test_correlated_and(self, model, data):
        # x and y are strongly correlated; the Sum over row clusters must
        # capture enough of it to beat naive independence
        q = Query("COUNT", "z", Group("and", (Cond("x", "<", 60.0), Cond("y", "<", 200.0))))
        truth = ((data["x"] < 60) & (data["y"] < 200)).sum()
        naive = (data["x"] < 60).mean() * (data["y"] < 200).mean() * len(data)
        r = model.execute(q)
        assert abs(r.est - truth) < abs(naive - truth)

    def test_sum_avg(self, model, data):
        mask = data["x"] >= 150
        r_sum = model.execute(Query("SUM", "y", Cond("x", ">=", 150.0)))
        r_avg = model.execute(Query("AVG", "y", Cond("x", ">=", 150.0)))
        assert r_sum.est == pytest.approx(data.loc[mask, "y"].sum(), rel=0.15)
        assert r_avg.est == pytest.approx(data.loc[mask, "y"].mean(), rel=0.1)

    def test_bounds_narrow(self, model):
        """DeepDB's CLT bounds are narrow (the paper finds them overly
        optimistic) — width should be a small fraction of the estimate."""
        r = model.execute(Query("COUNT", "x", Cond("x", "<", 100.0)))
        assert (r.hi - r.lo) / r.est < 0.2


class TestLimitations:
    def test_or_unsupported(self, model):
        q = Query("COUNT", "x", Group("or", (Cond("x", "<", 10.0), Cond("y", ">", 50.0))))
        assert not model.supports(q)

    @pytest.mark.parametrize("func", ["VAR", "MIN", "MAX", "MEDIAN"])
    def test_funcs_unsupported(self, model, func):
        assert not model.supports(Query(func, "x", Cond("y", "<", 100.0)))

    def test_group_by_unsupported(self, model):
        assert not model.supports(Query("COUNT", "x", None, group_by="z"))

    def test_and_supported(self, model):
        q = Query("SUM", "x", Group("and", (Cond("y", "<", 300.0), Cond("z", ">", 10.0))))
        assert model.supports(q)


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
        return DeepDBLite(enc, infos, n_rows=n, seed=0)

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

    @pytest.mark.parametrize("func", ["MIN", "VAR", "FOO"])
    def test_unsupported_function_raises(self, cat_model, func):
        with pytest.raises(Unsupported):
            cat_model.execute(Query(func, "x", Cond("c", "=", "a")))

    def test_group_by_raises(self, cat_model):
        with pytest.raises(Unsupported):
            cat_model.execute(Query("COUNT", "x", Cond("x", "<", 3), group_by="c"))

    def test_unknown_aggregation_column_raises_query_error(self, cat_model):
        with pytest.raises(QueryError):
            cat_model.execute(Query("AVG", "nope", Cond("x", "<", 3)))
