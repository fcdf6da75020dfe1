"""Experiment harness — runs engines over workloads and collects the
metrics the paper's evaluation reports: relative error, bound
correctness/width, per-query latency, synopsis size and construction
time (Sec. 6, Figs. 8–11, Tables 5–6).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.dbest_lite import DBEstLite
from repro.baselines.deepdb_lite import DeepDBLite
from repro.core import storage
from repro.core.build import build_synopsis
from repro.core.engine import PHEngine
from repro.gd.preprocess import encode_pandas
from repro.ground_truth import ExactEngine
from repro.queries import AQPResult, Query


@dataclass
class QueryOutcome:
    query: Query
    truth: float | None
    result: AQPResult
    latency_s: float

    @property
    def rel_error(self) -> float | None:
        """Relative error in %, None when undefined (truth 0/None or no
        estimate — unanswerable queries are excluded from medians, as the
        paper's minimum-selectivity filter effectively does)."""
        est = self.result.est
        if self.truth is None or est is None or self.truth == 0:
            return None
        return abs(est - self.truth) / abs(self.truth) * 100.0


@dataclass
class EngineReport:
    name: str
    outcomes: list[QueryOutcome] = field(default_factory=list)
    build_seconds: float = 0.0
    size_bytes: int = 0
    n_supported: int = 0
    n_total: int = 0

    def median_error(self, func: str | None = None) -> float | None:
        errs = [
            o.rel_error
            for o in self.outcomes
            if o.rel_error is not None and (func is None or o.query.func == func)
        ]
        return float(np.median(errs)) if errs else None

    def median_latency_ms(self) -> float | None:
        lats = [o.latency_s for o in self.outcomes]
        return float(np.median(lats)) * 1000.0 if lats else None

    def bounds_correct_rate(self) -> float | None:
        """% of the answers with bounds and a truth whose bounds hold it."""
        flags = [
            o.result.contains(o.truth)
            for o in self.outcomes
            if o.truth is not None and o.result.width is not None
        ]
        return 100.0 * float(np.mean(flags)) if flags else None

    def median_bound_width(self) -> float | None:
        """Median bound width in % of a non-zero truth."""
        ws = [
            o.result.width / abs(o.truth) * 100.0
            for o in self.outcomes
            if o.truth and o.result.width is not None
        ]
        return float(np.median(ws)) if ws else None

    def error_cdf_point(self, pct: float = 10.0) -> float | None:
        errs = [o.rel_error for o in self.outcomes if o.rel_error is not None]
        if not errs:
            return None
        return 100.0 * float(np.mean(np.asarray(errs) <= pct))


def run_pairwisehist(
    spark: SparkSession,
    pdf: pd.DataFrame,
    queries: list[Query],
    truths: dict[int, float | None],
    *,
    n_sample: int,
    seed: int = 0,
) -> tuple[EngineReport, "object"]:
    """Build PairwiseHist via Spark and answer the workload. Returns the
    report and the BuildResult (for storage/GD follow-ups)."""
    sdf = spark.createDataFrame(pdf)
    t0 = time.perf_counter()
    built = build_synopsis(sdf, n_sample=n_sample, seed=seed)
    build_s = time.perf_counter() - t0
    engine = PHEngine(built.ph, built.infos)
    rep = EngineReport(
        "PairwiseHist",
        build_seconds=build_s,
        size_bytes=storage.synopsis_bytes(built.ph),
        n_total=len(queries),
        n_supported=len(queries),
    )
    for qi, q in enumerate(queries):
        t0 = time.perf_counter()
        r = engine.execute(q)
        dt = time.perf_counter() - t0
        rep.outcomes.append(QueryOutcome(q, truths[qi], r, dt))
    return rep, built


def run_deepdb(
    pdf: pd.DataFrame,
    infos,
    queries: list[Query],
    truths: dict[int, float | None],
    *,
    n_sample: int,
    seed: int = 0,
) -> EngineReport:
    enc = encode_pandas(pdf, infos)
    sample = enc.sample(n=min(n_sample, len(enc)), random_state=seed)
    t0 = time.perf_counter()
    model = DeepDBLite(sample, infos, n_rows=len(pdf), seed=seed)
    build_s = time.perf_counter() - t0
    rep = EngineReport(
        "DeepDB-lite", build_seconds=build_s, size_bytes=model.size_bytes, n_total=len(queries)
    )
    for qi, q in enumerate(queries):
        if not model.supports(q):
            continue
        rep.n_supported += 1
        t0 = time.perf_counter()
        r = model.execute(q)
        dt = time.perf_counter() - t0
        rep.outcomes.append(QueryOutcome(q, truths[qi], r, dt))
    return rep


def run_dbest(
    pdf: pd.DataFrame,
    infos,
    queries: list[Query],
    truths: dict[int, float | None],
    *,
    n_sample: int,
    mdn_epochs: int = 40,
    max_templates: int = 40,
    seed: int = 0,
) -> EngineReport:
    enc = encode_pandas(pdf, infos)
    sample = enc.sample(n=min(n_sample, len(enc)), random_state=seed)
    model = DBEstLite(sample, infos, n_rows=len(pdf), mdn_epochs=mdn_epochs, seed=seed)
    rep = EngineReport("DBEst++-lite", n_total=len(queries))
    for qi, q in enumerate(queries):
        if not model.supports(q):
            continue
        pred_col, _ = model.pred_region(q)
        if (
            (q.col, pred_col) not in model.templates
            and len(model.templates) >= max_templates
        ):
            continue
        model.train_template(q.col, pred_col)  # training time billed to build
        rep.n_supported += 1
        t0 = time.perf_counter()
        r = model.execute(q)
        dt = time.perf_counter() - t0
        rep.outcomes.append(QueryOutcome(q, truths[qi], r, dt))
    rep.build_seconds = model.train_seconds
    rep.size_bytes = model.size_bytes
    return rep


def compute_truths(pdf: pd.DataFrame, queries: list[Query]) -> dict[int, float | None]:
    ex = ExactEngine(pdf)
    try:
        return {qi: ex.scalar(q) for qi, q in enumerate(queries)}
    finally:
        ex.close()
