"""Differential test of GROUP BY: ``execute_grouped`` evaluates the WHERE
tree once and shares it across the categories. It must give exactly the
answers of one ``execute`` per category with ``group = v`` ANDed to the
WHERE clause, the per-category loop kept below as the reference."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import build_local
from repro.core.engine import PHEngine
from repro.gd.preprocess import ColumnInfo, encode_pandas
from repro.queries import FUNCS, OPS, Cond, Group, Query

CATS = ["p", "q", "r", "s", "never"]  # "never" has no row
KINDS = ["u", "v", "w"]
INFOS = [
    ColumnInfo("x", 0, "int", maxval=299),
    ColumnInfo("y", 1, "int", maxval=300),
    ColumnInfo("z", 2, "int", maxval=20),
    ColumnInfo("g", 3, "cat", categories=CATS, cat_codes={c: i for i, c in enumerate(CATS)}),
    ColumnInfo("k", 4, "cat", categories=KINDS, cat_codes={c: i for i, c in enumerate(KINDS)}),
]
NUMERIC = {"x": 299, "y": 300, "z": 20}
CATEGORICAL = {"g": CATS, "k": KINDS}


def _frame(n: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 300, n).astype(float)
    y = np.round(x / 2 + rng.normal(0, 30, n)).clip(0, 300)
    y[rng.random(n) < 0.1] = np.nan
    return pd.DataFrame(
        {
            "x": x,
            "y": y,
            "z": rng.integers(0, 21, n).astype(float),
            "g": rng.choice(CATS[:4], n, p=[0.4, 0.3, 0.2, 0.1]),
            "k": rng.choice(KINDS, n),
        }
    )


@pytest.fixture(scope="module")
def engines():
    """Two small synopses with rho < 1: one with seed edges standing in
    for GD bases, one without."""
    out = []
    for seed, seeded in ((0, True), (1, False)):
        enc = encode_pandas(_frame(3000, seed), INFOS)
        seeds = (
            {c: np.unique(np.nanquantile(enc[c], np.linspace(0, 1, 24)).round()) for c in NUMERIC}
            if seeded
            else None
        )
        out.append(PHEngine(build_local(enc, n_rows=12_000, seeds=seeds), INFOS))
    return out


def reference_grouped(eng: PHEngine, q: Query) -> dict:
    """One ``execute`` per category, with ``group = v`` ANDed in."""
    out = {}
    for v in eng.by_name[q.group_by].categories:
        cond = Cond(q.group_by, "=", v)
        where = cond if q.where is None else Group("and", (q.where, cond))
        r = eng.execute(Query(q.func, q.col, where))
        if r.est is not None:
            out[v] = r
    return out


def conds(col: str) -> st.SearchStrategy:
    if col in CATEGORICAL:
        # Includes a literal no row and no category has.
        values = st.sampled_from(CATEGORICAL[col] + ["zzz"])
        return st.builds(Cond, st.just(col), st.sampled_from(["=", "!="]), values)
    top = NUMERIC[col]
    values = st.one_of(st.integers(-2, top + 2).map(float), st.floats(-2.0, top + 2.0))
    return st.builds(Cond, st.just(col), st.sampled_from(OPS), values)


def trees(cols: list[str]) -> st.SearchStrategy:
    leaves = st.sampled_from(cols).flatmap(conds)
    return st.recursive(
        leaves,
        lambda sub: st.builds(
            Group, st.sampled_from(["and", "or"]), st.lists(sub, min_size=1, max_size=3).map(tuple)
        ),
        max_leaves=6,
    )


@st.composite
def grouped_queries(draw) -> Query:
    g = draw(st.sampled_from(sorted(CATEGORICAL)))
    other = draw(st.sampled_from([c for c in [*NUMERIC, *CATEGORICAL] if c != g]))
    where = draw(
        st.one_of(
            st.none(),
            conds(g),  # the group column alone: merged with each category
            st.lists(conds(g), min_size=2, max_size=3).map(lambda cs: Group("or", tuple(cs))),
            trees([g]),
            trees([other]),  # one other column
            trees([*NUMERIC, *CATEGORICAL]),  # multi-column, nested
        )
    )
    col = draw(st.sampled_from([g, *NUMERIC]))  # may aggregate the group column
    return Query(draw(st.sampled_from(FUNCS)), col, where, group_by=g)


@settings(max_examples=400, deadline=None)
@given(which=st.integers(0, 1), q=grouped_queries())
def test_grouped_equals_per_category_loop(engines, which, q):
    eng = engines[which]
    got = eng.execute_grouped(q)
    want = reference_grouped(eng, q)
    assert list(got) == list(want)
    for v, r in want.items():
        assert (got[v].est, got[v].lo, got[v].hi) == (r.est, r.lo, r.hi), v


def test_where_on_the_group_column_is_merged(engines):
    """``g = 'p'`` grouped by ``g`` leaves only the ``p`` group, which an
    independence product of the two conditions would not."""
    eng = engines[0]
    got = eng.execute_grouped(Query("COUNT", "x", Cond("g", "=", "p"), group_by="g"))
    assert {v for v, r in got.items() if r.est > 0} == {"p"}
