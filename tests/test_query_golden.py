"""Golden answers of the query path.

A Power synopsis is built through the Spark path with a fixed sample
seed and a sampling ratio below 1 (so Eq. 29 widens the bounds), and a
fixed workload of about 80 queries is answered on it: all seven
functions, AND/OR/mixed trees, ``!=`` and GROUP BY. Every estimate and
bound must equal the recorded one exactly (``==`` on the float written
with ``repr``), so a refactor of the query path that changes any answer
in its last bit fails here.

The ``sha256`` of ``serialize()`` is pinned too: if it fails, the build
drifted and the answer test says nothing about the query path.

To record new answers after an intended change of behaviour::

    UPDATE_GOLDEN=1 python -m pytest tests/test_query_golden.py
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.build import build_synopsis
from repro.core.engine import PHEngine
from repro.core.storage import serialize
from repro.datasets import DATASETS
from repro.experiments.scenarios import make_workload
from repro.queries import Cond, Group, Query

GOLDEN = Path(__file__).parent / "data" / "query_golden.json"
ROWS = 20_000
N_SAMPLE = 5_000


def _extra_queries() -> list[Query]:
    """Hand-written queries that pin the shapes a random draw may miss."""
    gap = Cond("global_active_power", "!=", 1.2)
    volt = Cond("voltage", ">", 240.0)
    return [
        Query("COUNT", "sub_metering_1", Cond("sub_metering_1", "!=", 0.0)),
        Query("SUM", "voltage", Group("and", (gap, volt))),
        Query("AVG", "global_intensity", Group("or", (gap, Cond("tariff", "=", "peak")))),
        Query("MIN", "voltage", Group("and", (volt, Cond("voltage", "<=", 244.5)))),
        Query("MAX", "other_load", Group("or", (Cond("other_load", "<", 5.0), volt))),
        Query(
            "MEDIAN",
            "global_active_power",
            Group("and", (Cond("tariff", "!=", "offpeak"), Group("or", (gap, volt)))),
        ),
        Query("VAR", "sub_metering_3", Cond("sub_metering_3", ">=", 10.0), group_by="tariff"),
        Query("COUNT", "voltage", Cond("tariff", "!=", "no-such-tariff")),
    ]


@pytest.fixture(scope="module")
def golden_run(spark):
    pdf = DATASETS["power"].generate(ROWS)
    # One partition makes the seeded sample independent of the number of
    # cores Spark splits the frame over.
    res = build_synopsis(spark.createDataFrame(pdf).coalesce(1), n_sample=N_SAMPLE, seed=3)
    queries = make_workload(
        pdf, n_queries=72, min_selectivity=1e-3, group_by=True, seed=11
    ) + _extra_queries()
    eng = PHEngine(res.ph, res.infos)
    answers = []
    for q in queries:
        if q.group_by is None:
            answers.append(_triple(eng.execute(q)))
        else:
            answers.append({str(k): _triple(v) for k, v in eng.execute_grouped(q).items()})
    return {
        "serialize_sha256": hashlib.sha256(serialize(res.ph)).hexdigest(),
        "rho": res.ph.rho,
        "queries": [repr(q) for q in queries],
        "answers": answers,
    }


def _triple(r) -> list:
    return [None if x is None else repr(float(x)) for x in (r.est, r.lo, r.hi)]


def _golden(run: dict) -> dict:
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(run, indent=1) + "\n")
    return json.loads(GOLDEN.read_text())


def test_build_is_unchanged(golden_run):
    gold = _golden(golden_run)
    assert golden_run["serialize_sha256"] == gold["serialize_sha256"]
    assert golden_run["rho"] < 1.0


def test_workload_is_unchanged(golden_run):
    assert golden_run["queries"] == _golden(golden_run)["queries"]


def test_workload_covers_the_query_shapes(golden_run):
    text = "\n".join(golden_run["queries"])
    for func in ("COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR"):
        assert f"func='{func}'" in text
    for shape in ("kind='and'", "kind='or'", "op='!='", "group_by='tariff'"):
        assert shape in text


def _floats(answer):
    if isinstance(answer, dict):
        return {k: _floats(v) for k, v in answer.items()}
    return [None if x is None else float(x) for x in answer]


def test_answers_are_bit_identical(golden_run):
    gold = _golden(golden_run)
    assert len(golden_run["answers"]) == len(gold["answers"])
    for q, got, want in zip(golden_run["queries"], golden_run["answers"], gold["answers"]):
        assert _floats(got) == _floats(want), q
