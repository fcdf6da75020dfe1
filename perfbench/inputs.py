"""The inputs every workload is built from.

Everything here is derived from the run's ``--seed`` (or fixed) and is
the benchmark's own cost: it runs before any timed region. The program under
test only ever sees the generated DataFrame, query objects and encoded
append batches.

The table the synopsis is built over is one fixed IDEBench-lite draw,
and the build samples it with the fixed ``BUILD_SEED``, so every run
builds the same synopsis. ``seed`` picks the query workload and a second
draw that feeds the append batches.

The queries and their truths take most of the time. A child process
computes them (``python3 perfbench/inputs.py --seed N --cache DIR``), so
the memory of DuckDB's grown table never counts in the benchmark's own
peak RSS, and caches them per seed, keyed by the sources and library
versions that produce them.
"""
from __future__ import annotations

import argparse
import hashlib
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro import datasets, ground_truth, idebench, queries
from repro.datasets import DATASETS
from repro.experiments import scenarios
from repro.experiments.scenarios import make_workload
from repro.ground_truth import ExactEngine
from repro.queries import Query


# The synopsis is built over ROWS rows of Power (d=10) with an N_SAMPLE-row
# sample drawn with BUILD_SEED, and N_QUERIES queries are generated with
# GROUP BY allowed and a minimum selectivity of 1e-3. APPEND_BATCHES batches
# of BATCH_ROWS rows are appended, each followed by QUERIES_PER_ROUND queries
# taken in turn from the workload (GROUP BY ones included).
DATASET = "power"
ROWS = 150_000
N_SAMPLE = 20_000
BUILD_SEED = 0
N_QUERIES = 500
APPEND_BATCHES = 30
BATCH_ROWS = 5_000
QUERIES_PER_ROUND = 20


@dataclass
class Inputs:
    pdf: pd.DataFrame  # original-domain rows the synopsis is built over
    queries: list[Query]
    truths: list  # float | None per non-grouped query, dict per grouped one
    batches: list[pd.DataFrame]  # original-domain append batches
    round_queries: list[list[int]]  # indices into ``queries`` per append round
    round_truths: list  # per round, truth of each query on the grown table


def make_inputs(seed: int, cache: Path) -> Inputs:
    pdf, batches = _tables(seed)
    path = _cache_path(seed, cache)
    if not path.is_file():
        subprocess.run(
            [sys.executable, __file__, "--seed", str(seed), "--cache", str(cache)], check=True
        )
    with open(path, "rb") as f:
        qs, truths, round_queries, round_truths = pickle.load(f)
    return Inputs(pdf, qs, truths, batches, round_queries, round_truths)


def _tables(seed: int) -> tuple[pd.DataFrame, list[pd.DataFrame]]:
    model = idebench.fit(DATASETS[DATASET].generate())
    pdf = idebench.generate_pandas(model, ROWS, seed=0)
    extra = idebench.generate_pandas(model, APPEND_BATCHES * BATCH_ROWS, seed=seed + 1)
    batches = [
        extra.iloc[k * BATCH_ROWS : (k + 1) * BATCH_ROWS].reset_index(drop=True)
        for k in range(APPEND_BATCHES)
    ]
    return pdf, batches


def _cache_path(seed: int, cache: Path) -> Path:
    return cache / f"{DATASET}-{seed}-{_cache_key(seed)}.pkl"


def _cache_key(seed: int) -> str:
    import duckdb
    import numpy
    import pandas

    h = hashlib.sha256(repr((seed, sys.version)).encode())
    for mod in (numpy, pandas, duckdb):
        h.update(mod.__version__.encode())
    for mod in (idebench, datasets, queries, scenarios, ground_truth):
        h.update(Path(mod.__file__).read_bytes())
    h.update(Path(__file__).read_bytes())
    return h.hexdigest()[:16]


def _queries_and_truths(seed: int, pdf: pd.DataFrame, batches: list):
    # The program's generator checks each candidate's selectivity with a
    # DuckDB scan; drawing literals and checking selectivity on 30,000 of
    # the rows keeps a 500-query workload affordable.
    qs = make_workload(
        pdf.sample(n=30_000, random_state=seed),
        n_queries=N_QUERIES,
        min_selectivity=1e-3,
        group_by=True,
        seed=seed,
    )
    round_queries = [
        [(r * QUERIES_PER_ROUND + k) % len(qs) for k in range(QUERIES_PER_ROUND)]
        for r in range(APPEND_BATCHES)
    ]
    ex = ExactEngine(pdf)
    try:
        # A native copy of the table scans faster than the registered frame
        # and grows with each append batch.
        ex.con.execute(f"CREATE TABLE grown AS SELECT * FROM {ex.table}")
        ex.table = "grown"
        def truth(q):
            return ex.groups(q) if q.group_by else ex.scalar(q)

        truths = [truth(q) for q in qs]
        round_truths = []
        for batch, idx in zip(batches, round_queries):
            ex.con.register("batch", batch)
            ex.con.execute("INSERT INTO grown SELECT * FROM batch")
            ex.con.unregister("batch")
            round_truths.append([truth(qs[i]) for i in idx])
    finally:
        ex.close()
    return qs, truths, round_queries, round_truths


def values_outside_edges(hists1d, batch_enc: pd.DataFrame) -> int:
    """Appended non-null values that lie beyond the build-time 1-d edges
    (the values the update path clips)."""
    out = 0
    for h, c in zip(hists1d, batch_enc.columns):
        v = batch_enc[c].to_numpy(dtype="float64")
        v = v[~np.isnan(v)]
        out += int(np.count_nonzero((v < h.edges[0]) | (v > h.edges[-1])))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description="Compute and cache one seed's queries and truths.")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", type=Path, required=True)
    args = ap.parse_args()
    pdf, batches = _tables(args.seed)
    result = _queries_and_truths(args.seed, pdf, batches)
    path = _cache_path(args.seed, args.cache)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as f:
        pickle.dump(result, f)
    tmp.replace(path)


if __name__ == "__main__":
    main()
