"""Tests for weightings (Eqs. 24-29): AND/OR combination, same-column
consolidation, pair-histogram transfer and sampling widening."""
import numpy as np
import pandas as pd
import pytest

from repro.core import coverage as cov
from repro.core import weighting as wt
from repro.core.build import build_local
from repro.gd.preprocess import ColumnInfo
from repro.queries import Cond, Group


def _cond(col, op, v):
    return Cond("abc"[col], op, v)


class TestWeights:
    def test_no_predicate_gives_counts(self, toy_ph):
        w = wt.weights(toy_ph, 0, None)
        np.testing.assert_array_equal(w.est, toy_ph.hists1d[0].counts)
        np.testing.assert_array_equal(w.lo, w.hi)

    def test_same_column_predicate(self, toy_ph, toy_pdf, toy_plan):
        w = wt.weights(toy_ph, 0, toy_plan(_cond(0, "<", 500.0)))
        truth = (toy_pdf["a"] < 500).sum()
        assert w.est.sum() == pytest.approx(truth, rel=0.1)
        assert w.lo.sum() <= w.est.sum() <= w.hi.sum()

    def test_cross_column_predicate(self, toy_ph, toy_pdf, toy_plan):
        w = wt.weights(toy_ph, 0, toy_plan(_cond(1, "<", 450.0)))
        truth = (toy_pdf["b"] < 450).sum()
        assert w.est.sum() == pytest.approx(truth, rel=0.15)

    def test_and_combination(self, toy_ph, toy_pdf, toy_plan):
        node = Group("and", (_cond(1, "<", 500.0), _cond(2, "=", 1.0)))
        w = wt.weights(toy_ph, 0, toy_plan(node))
        truth = ((toy_pdf["b"] < 500) & (toy_pdf["c"] == 1)).sum()
        assert w.est.sum() == pytest.approx(truth, rel=0.25)

    def test_or_combination(self, toy_ph, toy_pdf, toy_plan):
        node = Group("or", (_cond(1, "<", 400.0), _cond(1, ">", 600.0)))
        w = wt.weights(toy_ph, 0, toy_plan(node))
        truth = ((toy_pdf["b"] < 400) | (toy_pdf["b"] > 600)).sum()
        assert w.est.sum() == pytest.approx(truth, rel=0.2)

    def test_weights_bounded_by_counts(self, toy_ph, toy_plan):
        node = Group("or", (_cond(1, "<", 800.0), _cond(2, "!=", 0.0)))
        w = wt.weights(toy_ph, 0, toy_plan(node))
        h = toy_ph.hists1d[0].counts
        assert np.all(w.hi <= h + 1e-9)
        assert np.all(w.lo >= -1e-9)

    def test_empty_region_zero(self, toy_ph, toy_plan):
        empty = toy_plan(_cond(1, "=", 2.5))  # no integer equals 2.5
        assert empty == cov.Leaf(1, cov.EMPTY)
        w = wt.weights(toy_ph, 0, empty)
        assert w.est.sum() == 0.0

    def test_contradictory_same_column_and_is_zero(self, toy_ph, toy_plan):
        # delayed transformation: x < 100 AND x > 900 consolidates to the
        # empty region exactly (independence would give a nonzero product)
        node = Group("and", (_cond(1, "<", 100.0), _cond(1, ">", 900.0)))
        w = wt.weights(toy_ph, 0, toy_plan(node))
        assert w.est.sum() == 0.0

    def test_same_column_or_consolidated_exactly(self, toy_ph, toy_plan):
        # x < 200 OR x < 400 == x < 400 (union, not independence!)
        w_or = wt.weights(
            toy_ph, 0, toy_plan(Group("or", (_cond(1, "<", 200.0), _cond(1, "<", 400.0))))
        )
        w_single = wt.weights(toy_ph, 0, toy_plan(_cond(1, "<", 400.0)))
        np.testing.assert_allclose(w_or.est, w_single.est)

    def test_nested_tree(self, toy_ph, toy_pdf, toy_plan):
        # (b < 450 AND (c = 0 OR c = 1))
        node = Group(
            "and",
            (_cond(1, "<", 450.0), Group("or", (_cond(2, "=", 0.0), _cond(2, "=", 1.0)))),
        )
        w = wt.weights(toy_ph, 0, toy_plan(node))
        truth = ((toy_pdf["b"] < 450) & toy_pdf["c"].isin([0, 1])).sum()
        assert w.est.sum() == pytest.approx(truth, rel=0.25)

    def test_bounds_ordering_always(self, toy_ph, toy_plan):
        rng = np.random.default_rng(0)
        for _ in range(20):
            col = int(rng.integers(0, 3))
            op = str(rng.choice(["<", ">", "=", "<=", ">=", "!="]))
            v = float(rng.integers(0, 1000))
            agg = int(rng.integers(0, 3))
            w = wt.weights(toy_ph, agg, toy_plan(_cond(col, op, v)))
            assert np.all(w.lo <= w.est + 1e-9)
            assert np.all(w.hi >= w.est - 1e-9)


class TestSamplingWidening:
    def test_rho_one_no_widening(self, toy_ph, toy_plan):
        w = wt.weights(toy_ph, 0, toy_plan(_cond(1, "<", 500.0)))
        # full-population build: bounds come only from coverage bounds
        assert toy_ph.rho == 1.0

    def test_sampled_build_wider_bounds(self, toy_pdf, toy_plan):
        sample = toy_pdf.sample(n=3000, random_state=0)
        ph_full = build_local(toy_pdf)
        ph_samp = build_local(sample, n_rows=len(toy_pdf))
        w_full = wt.weights(ph_full, 0, toy_plan(_cond(1, "<", 500.0)))
        w_samp = wt.weights(ph_samp, 0, toy_plan(_cond(1, "<", 500.0)))
        rel_full = (w_full.hi.sum() - w_full.lo.sum()) / max(w_full.est.sum(), 1)
        rel_samp = (w_samp.hi.sum() - w_samp.lo.sum()) / max(w_samp.est.sum(), 1)
        assert rel_samp > rel_full


class TestNullSemantics:
    def test_nulls_fail_predicates(self, null_pdf):
        """Rows with NULL in the predicate column must not be counted:
        weights divide by the agg column's 1-d counts (which include rows
        where y is null) but the pair histogram only holds complete rows."""
        ph = build_local(null_pdf)
        infos = {"y": ColumnInfo("y", 1, "int", maxval=500)}
        w = wt.weights(ph, 0, cov.compile(Cond("y", ">=", 0.0), infos))  # y not null
        truth = null_pdf["y"].notna().sum()
        assert w.est.sum() == pytest.approx(truth, rel=0.05)
        # and strictly fewer than all rows
        assert w.est.sum() < len(null_pdf) * 0.9
