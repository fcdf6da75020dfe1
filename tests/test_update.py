"""Tests for incremental appends (Fig. 2 data-update path)."""
import copy

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import build_local
from repro.core.storage import deserialize, serialize
from repro.core.update import append_rows
from tests.reference import reference_append_rows


def _mk(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "x": rng.integers(0, 500, n).astype(float) + shift,
            "y": np.round(rng.normal(250, 60, n)).clip(0, 500),
        }
    )


def test_counts_grow_by_batch():
    base = _mk(5000, 0)
    ph = build_local(base)
    before = [h.counts.sum() for h in ph.hists1d]
    batch = _mk(1000, 1)
    append_rows(ph, batch)
    after = [h.counts.sum() for h in ph.hists1d]
    assert all(a == b + 1000 for a, b in zip(after, before))
    assert ph.n_rows == 6000
    assert ph.n_sample == 6000


def test_2d_counts_grow():
    base = _mk(5000, 0)
    ph = build_local(base)
    total = ph.hists2d[(0, 1)].counts.sum()
    append_rows(ph, _mk(800, 2))
    assert ph.hists2d[(0, 1)].counts.sum() == total + 800


def test_extrema_widen():
    """Appends widen per-bin extrema up to the fixed edge range (values
    beyond the synopsis edges are clipped — edges are not re-refined)."""
    base = _mk(5000, 0)
    ph = build_local(base)
    top_edge = ph.hists1d[1].edges[-1]
    before = ph.hists1d[1].vmax.max()
    batch = pd.DataFrame({"x": [0.0], "y": [500.0]})  # beyond observed max
    append_rows(ph, batch)
    assert ph.hists1d[0].vmin.min() == 0.0
    assert ph.hists1d[1].vmax.max() == top_edge >= before


def test_sampled_update_keeps_rho():
    base = _mk(8000, 0)
    ph = build_local(base.sample(n=2000, random_state=0), n_rows=8000)
    rho0 = ph.rho
    append_rows(ph, _mk(4000, 3))
    assert ph.n_rows == 12_000
    assert ph.rho == pytest.approx(rho0, rel=0.25)


def test_queries_track_appended_data():
    base = _mk(6000, 0)
    ph = build_local(base)
    from repro.core import coverage as cov
    from repro.core import weighting as wt
    from repro.gd.preprocess import ColumnInfo
    from repro.queries import Cond

    plan = cov.compile(Cond("y", "<", 250.0), {"y": ColumnInfo("y", 1, "int", maxval=500)})
    before = wt.weights(ph, 0, plan).est.sum()
    batch = _mk(6000, 4)
    append_rows(ph, batch)
    after = wt.weights(ph, 0, plan).est.sum()
    truth = ((pd.concat([base, batch])["y"]) < 250).sum()
    assert after > before
    assert after == pytest.approx(truth, rel=0.1)


def test_nan_rows_ignored_in_pairs():
    base = _mk(3000, 5)
    ph = build_local(base)
    batch = _mk(100, 6)
    batch.loc[::2, "y"] = np.nan
    append_rows(ph, batch)
    assert ph.hists1d[0].counts.sum() == 3100
    assert ph.hists1d[1].counts.sum() == 3050


def test_schema_mismatch_rejected():
    ph = build_local(_mk(1000, 7))
    blob = serialize(ph)
    with pytest.raises(ValueError, match="columns"):
        append_rows(ph, pd.DataFrame({"x": [1.0]}))
    assert serialize(ph) == blob  # rejected before anything is folded in


def assert_pair_invariants(ph):
    """Each pair dimension counts ``H``'s marginal and refines its
    column's 1-d edges."""
    for (i, j), h2 in ph.hists2d.items():
        np.testing.assert_array_equal(h2.dim_i.counts, h2.counts.sum(axis=1))
        np.testing.assert_array_equal(h2.dim_j.counts, h2.counts.sum(axis=0))
        for dim, col in ((h2.dim_i, i), (h2.dim_j, j)):
            assert np.isin(ph.hists1d[col].edges, dim.edges).all(), (i, j, col)


def test_pair_invariants_hold_through_roundtrip_and_appends():
    base = _mk(4000, 8)
    base.loc[::5, "x"] = np.nan
    base["z"] = np.round(base["y"] / 7)
    ph = build_local(base, n_rows=8000)
    assert_pair_invariants(ph)
    ph = deserialize(serialize(ph))
    assert_pair_invariants(ph)
    for t in range(4):
        batch = _mk(700, 20 + t, shift=300.0 * (t % 2))  # odd batches pass the top edge
        batch.loc[::3, "y"] = np.nan
        batch["z"] = np.round(batch["y"] / 7) - 40 * t
        append_rows(ph, batch)
        assert_pair_invariants(ph)


@pytest.fixture(scope="module")
def four_columns():
    """Synopses over four columns with nulls, at rho = 1 and rho = 0.25."""
    rng = np.random.default_rng(11)
    n = 400
    a = rng.integers(0, 60, n).astype(float)
    pdf = pd.DataFrame(
        {
            "a": a,
            "b": np.round(a / 3 + rng.normal(0, 2, n)),
            "c": rng.integers(0, 5, n).astype(float),
            "d": np.round(rng.exponential(20, n)),
        }
    )
    pdf.loc[::7, "b"] = np.nan
    pdf.loc[::11, "d"] = np.nan
    return {1.0: build_local(pdf), 0.25: build_local(pdf, n_rows=4 * n)}


def column_edges(ph, c):
    """Every edge of column ``c``: its histogram's and its pair dimensions'."""
    dims = [h2.dim_i if i == c else h2.dim_j for (i, j), h2 in ph.hists2d.items() if c in (i, j)]
    return np.unique(np.concatenate([ph.hists1d[c].edges] + [d.edges for d in dims]))


def assert_same_synopsis(got, want):
    """Every array of every histogram, and the bytes, are equal."""
    hists = [(f"hist1d {c}", g, w) for c, (g, w) in enumerate(zip(got.hists1d, want.hists1d))]
    for key, g2 in got.hists2d.items():
        w2 = want.hists2d[key]
        np.testing.assert_array_equal(g2.counts, w2.counts, err_msg=f"H {key}")
        hists += [(f"{key} dim_i", g2.dim_i, w2.dim_i), (f"{key} dim_j", g2.dim_j, w2.dim_j)]
    for name, g, w in hists:
        for field in ("edges", "counts", "vmin", "vmax", "uniq"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype, (name, field)
            np.testing.assert_array_equal(a, b, err_msg=f"{name} {field}")
    assert (got.n_rows, got.n_sample) == (want.n_rows, want.n_sample)
    assert serialize(got) == serialize(want)


def check_against_reference(ph, batches):
    got, want = copy.deepcopy(ph), copy.deepcopy(ph)
    for batch in batches:
        append_rows(got, batch)
        reference_append_rows(want, batch)
        assert_same_synopsis(got, want)


@pytest.mark.parametrize("rho", [1.0, 0.25])
def test_matches_the_per_dimension_reference_on_every_case(four_columns, rho):
    """One batch per case: NaNs in one column of a pair only, an all-null
    column, a pair with no pairwise-complete row, values past both outer
    edges and on every edge, duplicates, and 0- and 1-row batches."""
    ph = four_columns[rho]
    n = 60
    rng = np.random.default_rng(3)
    edges = [column_edges(ph, c) for c in range(ph.d)]

    def batch(nulls=()):
        cols = {}
        for c, e in enumerate(edges):
            v = rng.choice(np.concatenate((e, [e[0] - 5, e[-1] + 5], np.arange(e[0], e[-1]))), n)
            cols["abcd"[c]] = v
        pdf = pd.DataFrame(cols)
        for c, rows in nulls:
            pdf.iloc[rows, c] = np.nan
        return pdf

    half = np.arange(n) % 2 == 0
    batches = [
        batch([(0, half)]),  # nulls in the aggregation column only
        batch([(1, half)]),  # nulls in the partner column only
        batch([(2, slice(None))]),  # an all-null column
        batch([(0, half), (3, ~half)]),  # pair (0, 3) has no complete row
        batch([(1, half), (3, half)]),  # nulls in both columns of a pair
        batch().iloc[:0],
        batch().iloc[:1],
        pd.DataFrame({c: np.full(n, 7.0) for c in "abcd"}),  # one value, many times
    ]
    check_against_reference(ph, batches)


@st.composite
def batch_sequences(draw, ph):
    """One to three batches of 0–40 rows per column: integers past both
    outer edges, values on the edges, duplicates, and per column no
    nulls, all nulls, some nulls, or nulls exactly where the previous
    column has none."""
    edges = [column_edges(ph, c) for c in range(ph.d)]
    out = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 40))
        cols, mask = {}, np.zeros(n, dtype=bool)
        for c, e in enumerate(edges):
            pool = st.integers(int(e[0]) - 3, int(e[-1]) + 3).map(float) | st.sampled_from(list(e))
            v = np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=np.float64)
            kind = draw(st.sampled_from(["none", "all", "some", "complement"]))
            if kind == "some":
                mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
            else:
                mask = {"none": np.zeros(n, bool), "all": np.ones(n, bool), "complement": ~mask}[kind]
            v[mask] = np.nan
            cols[f"c{c}"] = v
        out.append(pd.DataFrame(cols))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rho=st.sampled_from([1.0, 0.25]))
def test_matches_the_per_dimension_reference(four_columns, data, rho):
    ph = four_columns[rho]
    check_against_reference(ph, data.draw(batch_sequences(ph)))
