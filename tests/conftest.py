"""Shared fixtures: small deterministic datasets and pre-built synopses
(session-scoped — construction is the expensive part)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import coverage as cov
from repro.core.build import build_local, build_synopsis
from repro.core.engine import PHEngine
from repro.gd.preprocess import ColumnInfo


@pytest.fixture(scope="session")
def toy_pdf() -> pd.DataFrame:
    """3 numeric encoded columns: uniform, gaussian-ish, zipf-ish."""
    rng = np.random.default_rng(42)
    n = 12_000
    return pd.DataFrame(
        {
            "a": rng.integers(0, 1000, n).astype(float),
            "b": np.round(rng.normal(500, 100, n)).clip(0, 1500),
            "c": rng.choice(6, n, p=[0.35, 0.25, 0.18, 0.12, 0.07, 0.03]).astype(float),
        }
    )


@pytest.fixture(scope="session")
def toy_infos() -> list[ColumnInfo]:
    return [
        ColumnInfo("a", 0, "int", maxval=999),
        ColumnInfo("b", 1, "int", maxval=1500),
        ColumnInfo("c", 2, "int", maxval=5),
    ]


@pytest.fixture(scope="session")
def toy_plan(toy_infos):
    """Compile a WHERE tree over the toy columns, whose encoding is the
    identity, so each condition's region is ``cond_region(op, v)``."""
    by_name = {info.name: info for info in toy_infos}
    return lambda node: cov.compile(node, by_name)


@pytest.fixture(scope="session")
def toy_ph(toy_pdf):
    """Built with seed edges standing in for GD bases (Algorithm 1 line 4)
    — without them a perfectly uniform column collapses to one bin and
    midpoint-based estimators (VAR in particular) degenerate, which is not
    how the paper's pipeline runs."""
    seeds = {
        c: np.unique(np.round(np.quantile(toy_pdf[c].dropna(), np.linspace(0, 1, 64))))
        for c in toy_pdf.columns
    }
    return build_local(toy_pdf, seeds=seeds)


@pytest.fixture(scope="session")
def toy_engine(toy_ph, toy_infos) -> PHEngine:
    return PHEngine(toy_ph, toy_infos)


@pytest.fixture(scope="session")
def null_pdf() -> pd.DataFrame:
    """Encoded frame with NaN nulls for null-handling tests."""
    rng = np.random.default_rng(7)
    n = 8000
    x = rng.integers(0, 200, n).astype(float)
    y = np.round(x * 2 + rng.normal(0, 10, n)).clip(0)
    y[rng.random(n) < 0.3] = np.nan
    return pd.DataFrame({"x": x, "y": y})


@pytest.fixture(scope="session")
def lineitem_built(spark):
    """PairwiseHist built through the full Spark path on TPC-H-lite
    lineitem (SF=0.002, numeric projection)."""
    from repro.synth_data import lineitem

    li = lineitem(spark, sf=0.002).select(
        "l_quantity", "l_extendedprice", "l_discount", "l_tax"
    )
    return build_synopsis(li, n_sample=6000, seed=1), li
