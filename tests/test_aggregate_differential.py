"""MIN and MAX (Table 3) are one kernel run in two directions. The two
hand-written copies it replaced are kept below as the reference: at
rho = 1 MIN must give exactly the reference's answer, and MAX too except
where the reference's fall-back read bin 0 as "no bin". Below rho = 1 the
outer bound is the bin's edge, so the bounds hold the table's extrema
that the sample missed; at rho = 1 they hold the DuckDB truth always."""
import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregate import aggregate
from repro.core.build import build_local
from repro.core.coverage import Bounded
from repro.core.engine import PHEngine
from repro.core.hypothesis import sub_bin_count
from repro.core.model import Hist1D, PairwiseHist
from repro.gd.preprocess import ColumnInfo
from repro.queries import OPS, Cond, Group, Query, query_sql

_EPS = 1e-9


def _first(vec, thresh=_EPS):
    idx = np.flatnonzero(vec > thresh)
    return int(idx[0]) if len(idx) else None


def _last(vec, thresh=_EPS):
    idx = np.flatnonzero(vec > thresh)
    return int(idx[-1]) if len(idx) else None


def reference_min(w, hist, M, single_column):
    t = _first(w.est)
    if t is None:
        return (None, None, None)
    h, u = hist.counts, hist.uniq
    vlo, vhi = hist.vmin, hist.vmax
    if single_column and u[t] == 2 and w.est[t] < h[t] / 2.0:
        est = vhi[t]
    else:
        est = vlo[t]
    tl = _first(w.hi)
    if tl is None:
        tl = t
    if single_column and u[tl] == 2 and w.hi[tl] < h[tl] / 5.0:
        lo = vhi[tl]
    else:
        lo = vlo[tl]
    th = _first(w.lo, 0.5)
    if th is None:
        th = _last(w.hi) or t
    hi = vhi[th]
    if single_column and u[th] > 2 and h[th] > M:
        s = sub_bin_count(int(u[th]))
        delta = (vhi[th] - vlo[th]) / s
        a = int(np.floor(s * w.lo[th] / h[th])) if h[th] > 0 else 0
        hi = vhi[th] - a * delta
    lo = min(lo, est)
    hi = max(hi, est)
    return (float(est), float(lo), float(hi))


def reference_max(w, hist, M, single_column):
    t = _last(w.est)
    if t is None:
        return (None, None, None)
    h, u = hist.counts, hist.uniq
    vlo, vhi = hist.vmin, hist.vmax
    if single_column and u[t] == 2 and w.est[t] < h[t] / 2.0:
        est = vlo[t]
    else:
        est = vhi[t]
    th = _last(w.hi)
    if th is None:
        th = t
    if single_column and u[th] == 2 and w.hi[th] < h[th] / 5.0:
        hi = vlo[th]
    else:
        hi = vhi[th]
    tl = _last(w.lo, 0.5)
    if tl is None:
        tl = _first(w.hi) or t
    lo = vlo[tl]
    if single_column and u[tl] > 2 and h[tl] > M:
        s = sub_bin_count(int(u[tl]))
        delta = (vhi[tl] - vlo[tl]) / s
        a = int(np.floor(s * w.lo[tl] / h[tl])) if h[tl] > 0 else 0
        lo = vlo[tl] + a * delta
    lo = min(lo, est)
    hi = max(hi, est)
    return (float(est), float(lo), float(hi))


#: Weights on both sides of the thresholds the kernel reads: 1e-9 (a
#: candidate bin) and 0.5 (a bin that surely holds a row).
WEIGHTS = [0.0, 1e-10, 2e-9, 0.3, 0.5, 0.7, 1.0, 3.0, 40.0, 700.0]


@st.composite
def min_max_inputs(draw):
    """A histogram with ordered bins, and weight vectors with
    ``lo <= est <= hi`` bin by bin."""
    k = draw(st.integers(1, 7))
    widths = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    edges = np.concatenate(([0.0], np.cumsum(widths))).astype(float) + draw(st.integers(0, 9))
    counts = np.array(draw(st.lists(st.integers(0, 900), min_size=k, max_size=k)))
    vmin, vmax, uniq = edges[:-1].copy(), edges[1:].copy(), np.zeros(k, dtype=np.int64)
    for t in range(k):
        if counts[t]:
            a, b = sorted(draw(st.lists(st.integers(0, widths[t]), min_size=2, max_size=2)))
            vmin[t], vmax[t] = edges[t] + a, edges[t] + b
            uniq[t] = draw(st.integers(1, min(int(counts[t]), b - a + 1)))
    hist = Hist1D(edges, counts, vmin, vmax, uniq)
    triples = [sorted(draw(st.lists(st.sampled_from(WEIGHTS), min_size=3, max_size=3))) for _ in range(k)]
    lo, est, hi = (np.array(v) for v in zip(*triples))
    return hist, Bounded(est, lo, hi), draw(st.booleans()), draw(st.sampled_from([1, 20, 200]))


def _merged(func, hist, w, M, single):
    ph = PairwiseHist(int(hist.counts.sum()), int(hist.counts.sum()), M, 0.001, [hist], {})
    return tuple(aggregate(func, w, ph.column_state(0), rho=1.0, M=M, single_column=single))


@settings(max_examples=400, deadline=None)
@given(min_max_inputs())
def test_min_is_the_reference(case):
    hist, w, single, M = case
    assert _merged("MIN", hist, w, M, single) == reference_min(w, hist, M, single)


@settings(max_examples=400, deadline=None)
@given(min_max_inputs())
@example(  # the reference's fall-back: bin 0 is the earliest candidate
    (
        Hist1D(
            np.array([0.0, 10.0, 20.0]), np.array([5, 5]), np.array([1.0, 12.0]),
            np.array([8.0, 19.0]), np.array([3, 3]),
        ),
        Bounded(np.array([0.3, 0.3]), np.array([0.0, 0.0]), np.array([0.3, 0.3])),
        False,
        20,
    )
)
def test_max_is_the_reference_but_for_bin_zero(case):
    """The one difference: the reference's ``_first(w.hi) or t`` takes
    bin 0 for "no candidate" and falls back to ``t``, the last bin of the
    estimate, where the kernel takes bin 0 (``vmin[0]``)."""
    hist, w, single, M = case
    got, want = _merged("MAX", hist, w, M, single), reference_max(w, hist, M, single)
    t = _last(w.est)
    if t is not None and _first(w.hi) == 0 and _last(w.lo, 0.5) is None and t != 0:
        assert (got[0], got[2]) == (want[0], want[2])
        assert got[1] <= want[1]
    else:
        assert got == want


def test_sampled_bounds_hold_the_table_extrema():
    """Below rho = 1, MIN's lower bound is its bin's lower edge and MAX's
    upper bound its bin's upper edge: a sample without the table's min
    and max rows still gives bounds that hold them."""
    rng = np.random.default_rng(4)
    n = 20_000
    table = pd.DataFrame(
        {"a": rng.integers(0, 1000, n).astype(float), "b": rng.integers(0, 50, n).astype(float)}
    )
    inner = table[(table.a > table.a.min()) & (table.a < table.a.max())]
    sample = inner.sample(n=4000, random_state=0)
    # As build_synopsis passes them: each column's full encoded range.
    ranges = {c: (0.0, float(table[c].max())) for c in table.columns}
    ph = build_local(sample, n_rows=n, ranges=ranges)
    assert ph.rho < 1.0
    infos = [ColumnInfo("a", 0, "int", maxval=999), ColumnInfo("b", 1, "int", maxval=49)]
    eng = PHEngine(ph, infos)
    every_row = Cond("b", ">=", 0.0)
    mn, mx = eng.execute(Query("MIN", "a", every_row)), eng.execute(Query("MAX", "a", every_row))
    assert sample.a.min() > table.a.min() and sample.a.max() < table.a.max()
    assert mn.lo <= table.a.min()
    assert mx.hi >= table.a.max()


@pytest.fixture(scope="module")
def full_sample():
    """A rho = 1 synopsis of three correlated columns, the frame and a
    DuckDB connection over it."""
    rng = np.random.default_rng(8)
    n = 4000
    x = rng.integers(0, 500, n).astype(float)
    pdf = pd.DataFrame(
        {
            "x": x,
            "y": np.round(x / 3 + rng.normal(0, 20, n)).clip(0, 200),
            "z": rng.choice(8, n, p=[0.4, 0.2, 0.1, 0.1, 0.08, 0.06, 0.04, 0.02]).astype(float),
        }
    )
    infos = [
        ColumnInfo("x", 0, "int", maxval=499),
        ColumnInfo("y", 1, "int", maxval=200),
        ColumnInfo("z", 2, "int", maxval=7),
    ]
    con = duckdb.connect()
    con.register("t", pdf)
    yield PHEngine(build_local(pdf), infos), con
    con.close()


def other_column_conds():
    def cond(col, top):
        values = st.one_of(st.integers(-1, top + 1).map(float), st.floats(-1.0, top + 1.0))
        return st.builds(Cond, st.just(col), st.sampled_from(OPS), values)

    one = st.one_of(cond("y", 200), cond("z", 7))
    return st.one_of(
        one, st.builds(lambda k, a, b: Group(k, (a, b)), st.sampled_from(["and", "or"]), one, one)
    )


@settings(max_examples=150, deadline=None)
@given(where=other_column_conds())
def test_full_sample_bounds_hold_the_truth(full_sample, where):
    """At rho = 1 a bin holding a qualifying row has ``w.hi >= 1/h``, so
    it is a candidate: MIN's lower and MAX's upper bound hold the truth."""
    eng, con = full_sample
    for func, holds in (("MIN", lambda r, t: r.lo <= t), ("MAX", lambda r, t: r.hi >= t)):
        q = Query(func, "x", where)
        truth = con.execute(query_sql(q)).fetchone()[0]
        r = eng.execute(q)
        if truth is not None and r.est is not None:
            assert holds(r, truth), (q, r, truth)
