"""Table 5 benchmark — PairwiseHist accuracy workload on the scaled Power
dataset: measures full-workload execution time and asserts the error
profile that Table 5 reports (sub-percent median for PH at this scale)."""
import numpy as np
import pytest

from repro.experiments.harness import compute_truths
from repro.experiments.scenarios import make_workload
from repro.queries import node_columns


def _run_workload(engine, queries):
    return [engine.execute(q) for q in queries]


def test_ph_workload_accuracy(benchmark, ph_engine, power_workload, power_truths):
    results = benchmark(_run_workload, ph_engine, power_workload)
    errs = []
    for i, r in enumerate(results):
        t = power_truths[i]
        if t not in (None, 0) and r.est is not None:
            errs.append(abs(r.est - t) / abs(t))
    assert len(errs) >= 30
    med = float(np.median(errs))
    assert med < 0.10, f"median error {med:.2%} out of the Table-5 regime"


def test_deepdb_workload_accuracy(benchmark, deepdb_model, power_workload, power_truths):
    supported = [(i, q) for i, q in enumerate(power_workload) if deepdb_model.supports(q)]
    assert supported

    def run():
        return [(i, deepdb_model.execute(q)) for i, q in supported]

    results = benchmark(run)
    errs = [
        abs(r.est - power_truths[i]) / abs(power_truths[i])
        for i, r in results
        if power_truths[i] not in (None, 0) and r.est is not None
    ]
    assert float(np.median(errs)) < 0.5


@pytest.fixture(scope="module")
def dbest_workload(power_scaled):
    """DBEst++ answers one predicate column per query (one model per
    (aggregation, predicate) template), so it gets its own workload of
    single-condition queries over the functions it supports."""
    from repro.baselines.dbest_lite import DBEstLite

    return make_workload(
        power_scaled, n_queries=30, funcs=DBEstLite.SUPPORTED, max_preds=1,
        min_selectivity=1e-3, seed=13,
    )


def test_dbest_workload_accuracy(benchmark, dbest_model, dbest_workload, power_scaled):
    assert all(dbest_model.supports(q) for q in dbest_workload)
    truths = compute_truths(power_scaled, dbest_workload)
    for q in dbest_workload:  # train templates outside the timed region
        dbest_model.train_template(q.col, next(iter(node_columns(q.where))))

    results = benchmark(_run_workload, dbest_model, dbest_workload)
    errs = [
        abs(r.est - truths[i]) / abs(truths[i])
        for i, r in enumerate(results)
        if truths[i] not in (None, 0) and r.est is not None
    ]
    assert len(errs) >= 20
    assert float(np.median(errs)) < 0.2
