"""Tests for the Table 3 aggregation estimators and their bounds."""
import duckdb
import numpy as np
import pytest

from repro.core import weighting as wt
from repro.core.aggregate import aggregate
from repro.queries import FUNCS, Cond, Group

_SQL = {
    "COUNT": "count({c})",
    "SUM": "sum({c})",
    "AVG": "avg({c})",
    "MIN": "min({c})",
    "MAX": "max({c})",
    "MEDIAN": "median({c})",
    "VAR": "var_pop({c})",
}


@pytest.fixture(scope="module")
def con(toy_pdf):
    c = duckdb.connect()
    c.register("t", toy_pdf)
    yield c
    c.close()


def _run(toy_ph, func, agg_idx, plan, single=False):
    w = wt.weights(toy_ph, agg_idx, plan)
    return aggregate(
        func,
        w,
        toy_ph.hists1d[agg_idx],
        rho=toy_ph.rho,
        M=toy_ph.M,
        alpha=toy_ph.alpha,
        single_column=single,
    )


def _truth(con, func, col, where):
    sql = f"select {_SQL[func].format(c=col)} from t where {where}"
    return con.execute(sql).fetchone()[0]


# relative-error ceilings per function for the full-sample toy build —
# loose enough to be robust, tight enough to catch broken math.
TOL = {"COUNT": 0.10, "SUM": 0.12, "AVG": 0.08, "MEDIAN": 0.10, "VAR": 0.35}


@pytest.mark.parametrize("func", ["COUNT", "SUM", "AVG", "MEDIAN", "VAR"])
@pytest.mark.parametrize(
    "node,where",
    [
        (Cond("b", "<", 450.0), "b < 450"),
        (Cond("b", ">=", 600.0), "b >= 600"),
        (Group("and", (Cond("b", ">", 300.0), Cond("c", "=", 0.0))), "b > 300 and c = 0"),
        (Group("or", (Cond("b", "<", 350.0), Cond("b", ">", 650.0))), "b < 350 or b > 650"),
    ],
)
def test_estimates_close_to_truth(toy_ph, con, func, node, where, toy_plan):
    est = _run(toy_ph, func, 0, toy_plan(node))
    truth = _truth(con, func, "a", where)
    assert est.est is not None
    assert abs(est.est - truth) / max(abs(truth), 1e-9) < TOL[func], (
        f"{func} {where}: est={est.est} truth={truth}"
    )


@pytest.mark.parametrize("func", list(FUNCS))
def test_bounds_bracket_estimate(toy_ph, func, toy_plan):
    node = Cond("b", "<", 500.0)
    est = _run(toy_ph, func, 0, toy_plan(node))
    assert est.lo is not None and est.hi is not None
    assert est.lo <= est.est + 1e-9
    assert est.hi >= est.est - 1e-9


@pytest.mark.parametrize("func", ["COUNT", "SUM", "AVG", "MEDIAN", "VAR", "MIN", "MAX"])
def test_bounds_contain_truth_mostly(toy_ph, con, func, toy_plan):
    """With a full-population build the bounds should contain the exact
    answer for these well-behaved range queries."""
    hits = 0
    cases = [
        (Cond("b", "<", 450.0), "b < 450"),
        (Cond("b", ">", 550.0), "b > 550"),
        (Cond("a", "<", 300.0), "a < 300"),
    ]
    for node, where in cases:
        est = _run(toy_ph, func, 1 if "a" in where.split()[0] else 0, toy_plan(node))
        col = "b" if where.startswith("a") else "a"
        truth = _truth(con, func, col, where)
        if est.lo - 1e-6 <= truth <= est.hi + 1e-6:
            hits += 1
    assert hits >= 2, f"{func}: bounds missed truth in {3 - hits}/3 cases"


class TestMinMax:
    def test_min_max_on_range(self, toy_ph, con, toy_plan):
        node = Cond("a", ">", 800.0)
        mn = _run(toy_ph, "MIN", 1, toy_plan(node))
        mx = _run(toy_ph, "MAX", 1, toy_plan(node))
        tmn = _truth(con, "MIN", "b", "a > 800")
        tmx = _truth(con, "MAX", "b", "a > 800")
        # MIN/MAX land within the first/last candidate bin
        assert mn.lo <= tmn
        assert mx.hi >= tmx

    def test_single_column_min_exact_region(self, toy_ph, con, toy_plan):
        # single-column query: predicate and aggregation on column b
        node = Cond("b", ">=", 700.0)
        mn = _run(toy_ph, "MIN", 1, toy_plan(node), single=True)
        tmn = _truth(con, "MIN", "b", "b >= 700")
        assert abs(mn.est - tmn) <= 30  # within bin resolution

    def test_empty_selection_returns_none(self, toy_ph, toy_plan):
        est = _run(toy_ph, "MIN", 0, toy_plan(Cond("b", "=", 2.5)))  # the empty region
        assert est.est is None and est.lo is None


class TestDegenerate:
    def test_avg_empty_none(self, toy_ph, toy_plan):
        est = _run(toy_ph, "AVG", 0, toy_plan(Cond("c", "=", 99.0)))
        assert est.est is None

    def test_var_nonnegative(self, toy_ph, toy_plan):
        for v in (300.0, 500.0, 900.0):
            est = _run(toy_ph, "VAR", 0, toy_plan(Cond("b", "<", v)))
            if est.est is not None:
                assert est.est >= 0.0
                assert est.lo >= 0.0

    def test_count_scaled_by_rho(self, toy_pdf):
        from repro.core.build import build_local

        sample = toy_pdf.sample(n=2000, random_state=1)
        ph = build_local(sample, n_rows=120_000)  # rho = 1/60
        w = wt.weights(ph, 0, None)
        est = aggregate("COUNT", w, ph.hists1d[0], rho=ph.rho, M=ph.M, alpha=ph.alpha)
        assert est.est == pytest.approx(120_000, rel=1e-6)

    def test_median_two_value_bin_rule(self):
        """u == 2 bins return an extremum, never an interpolated value."""
        from repro.core.model import Hist1D, PairwiseHist

        h = Hist1D(
            edges=np.array([0.0, 10.0]),
            counts=np.array([100]),
            vmin=np.array([2.0]),
            vmax=np.array([8.0]),
            uniq=np.array([2]),
        )
        ph = PairwiseHist(100, 100, 8, 0.001, [h], {})
        w = wt.weights(ph, 0, None)
        est = aggregate("MEDIAN", w, h, rho=1.0, M=8, alpha=0.001)
        assert est.est in (2.0, 8.0)
