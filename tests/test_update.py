"""Tests for incremental appends (Fig. 2 data-update path)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.build import build_local
from repro.core.storage import deserialize, serialize
from repro.core.update import append_rows


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
