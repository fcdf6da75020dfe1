"""Tests for the experiment harness metrics and the table emitters."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments.harness import EngineReport, QueryOutcome, compute_truths
from repro.experiments import tables
from repro.queries import AQPResult, Cond, Query


def _q(func="COUNT"):
    return Query(func, "a", Cond("a", "<", 5.0))


def _out(truth, est, lo=None, hi=None, func="COUNT", lat=0.001):
    return QueryOutcome(_q(func), truth, AQPResult(est, lo, hi), lat)


def _report(*outcomes) -> EngineReport:
    rep = EngineReport("X")
    rep.outcomes = list(outcomes)
    return rep


class TestQueryOutcome:
    def test_rel_error(self):
        assert _out(100.0, 110.0).rel_error == pytest.approx(10.0)

    def test_rel_error_undefined(self):
        assert _out(0.0, 5.0).rel_error is None
        assert _out(None, 5.0).rel_error is None
        assert _out(100.0, None).rel_error is None

    def test_bound_correct(self):
        """An answer counts when its bounds hold the truth; one without
        bounds is left out."""
        assert _report(_out(10.0, 11.0, 9.0, 12.0)).bounds_correct_rate() == 100.0
        assert _report(_out(20.0, 11.0, 9.0, 12.0)).bounds_correct_rate() == 0.0
        assert _report(_out(10.0, 11.0)).bounds_correct_rate() is None

    def test_bound_width_pct(self):
        """Width in % of the truth."""
        rep = _report(_out(10.0, 11.0, 9.0, 12.0), _out(0.0, 1.0, 0.0, 2.0))
        assert rep.median_bound_width() == pytest.approx(30.0)


class TestEngineReport:
    def _rep(self):
        r = EngineReport("X")
        r.outcomes = [
            _out(100, 101, 95, 120, "COUNT", 0.001),
            _out(100, 150, 110, 140, "COUNT", 0.002),  # bounds miss truth
            _out(50, 51, 40, 60, "SUM", 0.003),
        ]
        return r

    def test_median_error_overall(self):
        assert self._rep().median_error() == pytest.approx(2.0)

    def test_median_error_per_func(self):
        r = self._rep()
        assert r.median_error("SUM") == pytest.approx(2.0)
        assert r.median_error("COUNT") == pytest.approx(25.5)
        assert r.median_error("VAR") is None

    def test_bounds_rate(self):
        assert self._rep().bounds_correct_rate() == pytest.approx(100 * 2 / 3)

    def test_latency(self):
        assert self._rep().median_latency_ms() == pytest.approx(2.0)

    def test_cdf_point(self):
        assert self._rep().error_cdf_point(10.0) == pytest.approx(100 * 2 / 3)

    def test_empty_report(self):
        r = EngineReport("empty")
        assert r.median_error() is None
        assert r.bounds_correct_rate() is None
        assert r.median_latency_ms() is None


class TestComputeTruths:
    def test_matches_pandas(self):
        pdf = pd.DataFrame({"a": np.arange(10, dtype=float)})
        truths = compute_truths(pdf, [_q("COUNT"), _q("SUM")])
        assert truths[0] == 5
        assert truths[1] == 0 + 1 + 2 + 3 + 4


class TestTables:
    def test_table5_renders(self):
        rep = EngineReport("PH")
        rep.outcomes = [_out(100, 101, func="COUNT")]
        txt = tables.table5_rows("power", {"PH": rep, "DeepDB": rep, "DBEst++": rep})
        assert "COUNT" in txt and "0.19" in txt  # paper value present

    def test_table6_renders(self):
        rep = EngineReport("PH")
        rep.outcomes = [_out(100, 101, 95, 110)]
        txt = tables.table6_rows("power-original", rep, rep)
        assert "70.0" in txt  # paper rate present

    def test_table1_renders(self):
        rep = EngineReport("PH", size_bytes=1024, build_seconds=1.0)
        rep.outcomes = [_out(100, 101, 95, 110)]
        rep.n_total = rep.n_supported = 1
        txt = tables.table1_row({"PH": rep})
        assert "PH" in txt and "1.0" in txt

    def test_paper_constants_cover_all_funcs(self):
        for ds in ("power", "flights"):
            assert set(tables.PAPER_TABLE5[ds]) == set(tables.FUNC_ORDER)
