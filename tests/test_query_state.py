"""The query-time state a synopsis derives and caches (``PairwiseHist.derived``)
must never change an answer: it is rebuilt after ``append_rows`` and is
invisible to ``serialize()`` and to synopsis equality."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.core.build import build_local
from repro.core.engine import PHEngine
from repro.core.storage import deserialize, serialize
from repro.core.update import append_rows
from repro.experiments.scenarios import make_workload
from repro.gd.preprocess import ColumnInfo, encode_pandas

CATS = ["p", "q", "r", "s"]
INFOS = [
    ColumnInfo("x", 0, "int", maxval=499),
    ColumnInfo("y", 1, "int", maxval=500),
    ColumnInfo("z", 2, "int", maxval=40),
    ColumnInfo("g", 3, "cat", categories=CATS, cat_codes={c: i for i, c in enumerate(CATS)}),
]


def _frame(n: int, seed: int, x_max: int = 500) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, x_max, n).astype(float)
    return pd.DataFrame(
        {
            "x": x,
            "y": np.round(x / 2 + rng.normal(0, 40, n)).clip(0, 500),
            "z": rng.integers(0, 41, n).astype(float),
            "g": rng.choice(CATS, n, p=[0.4, 0.3, 0.2, 0.1]),
        }
    )


@pytest.fixture(scope="module")
def workload():
    pdf = _frame(6000, 0)
    enc = encode_pandas(pdf, INFOS)
    # Quantile seed edges stand in for GD bases, so that the uniform x is
    # not one bin.
    seeds = {c: np.unique(np.quantile(enc[c], np.linspace(0, 1, 32)).round()) for c in "xyz"}
    ph = build_local(enc, n_rows=24_000, seeds=seeds)  # rho < 1
    queries = make_workload(pdf, n_queries=40, min_selectivity=1e-3, group_by=True, seed=3)
    return ph, queries


def _answers(eng: PHEngine, queries) -> list:
    out = []
    for q in queries:
        if q.group_by is None:
            r = eng.execute(q)
            out.append((r.est, r.lo, r.hi))
        else:
            out.append({k: (r.est, r.lo, r.hi) for k, r in eng.execute_grouped(q).items()})
    return out


def test_state_is_not_serialized_or_compared(workload):
    ph, queries = workload
    blob = serialize(ph)
    _answers(PHEngine(ph, INFOS), queries)
    assert ph.derived  # the queries built query-time state
    assert serialize(ph) == blob
    copy = dataclasses.replace(ph)
    assert not copy.derived
    assert ph == copy
    assert "derived" not in repr(ph)


def test_append_rows_drops_state(workload):
    ph, queries = workload
    eng = PHEngine(ph, INFOS)
    before = _answers(eng, queries)
    assert ph.derived
    # The batch reaches x values beyond the build-time edges.
    append_rows(ph, encode_pandas(_frame(3000, 1, x_max=800), INFOS))
    assert not ph.derived
    after = _answers(eng, queries)
    fresh = _answers(PHEngine(deserialize(serialize(ph)), INFOS), queries)
    assert after == fresh
    assert after != before
