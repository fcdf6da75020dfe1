#!/usr/bin/env python3
"""PairwiseHist benchmark: the build, query, storage and update paths,
end to end (``--trace 0``) and per layer (``--trace 1``).

Run from the root of the repository:

    python3 perfbench/run.py --workload power-query --seed 1 --seconds 10 --trace 0

One run is one process with one closed-loop client: each call is made
only after the previous one returned. A run

1. generates its inputs from ``--seed`` (queries, append batches, DuckDB
   truths; untimed, see ``inputs.py``),
2. starts Spark as ``local[4]``, warms it with a job that touches no
   PairwiseHist code, then times ``build_synopsis`` + ``PHEngine``
   (``setup_s``) once and stops Spark,
3. runs the workload's measured window for ``--seconds``:

   - ``power-query``: closed-loop queries on the built synopsis, taken in
     turn from the query list after one untimed check pass. The window
     runs nothing else. Before it, a fixed write-path sample (two
     ``append_rows`` passes over the batches, and
     ``serialize``/``deserialize`` round trips of the built synopsis)
     gives the write metrics that every run must report;
   - ``power-append``: rounds of ``append_rows(batch)``, then a slice of
     the queries on the grown synopsis, then ``serialize`` and
     ``deserialize`` of it. Rounds go through the batches in passes, each
     pass on a fresh copy of the built synopsis,

   in whole passes (over the queries, or over the batches) until
   ``--seconds`` have passed,

4. checks the answers and prints a table of every metric with its unit
   and sample count, then one JSON line with the result.

Correctness: every answer of a stored-and-reloaded synopsis must match
the in-memory one to 1e-12 (relative), and repeated passes must give
identical answers and bytes. A mismatch makes ``correct`` false and the
exit code 1. Queries that raise, return no estimate where the truth is
defined, or return ``lo <= est <= hi`` false are counted in ``failed``.
``attempted`` and ``failed`` count the calls of the first pass, each
checked once; later passes repeat it exactly and count only in ``calls``,
so that for one seed both numbers are the same on every run.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

perf = time.perf_counter

WORKLOADS = ("power-query", "power-append")

#: ``power-query`` runs its window in blocks of this many queries; in a
#: traced run every other block is traced.
QUERY_BLOCK = 200
#: ``power-query``'s write-path sample: round trips of the built synopsis,
#: and passes of ``append_rows`` over the batches, each on a fresh copy.
ROUND_TRIPS = 20
APPEND_PASSES = 2


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def configure(tmp: Path) -> None:
    """Point Python, Spark and its workers at this checkout's sources and
    keep every file they write under ``tmp``."""
    sys.path.insert(0, str(SRC))
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Every JVM (spark-submit's launcher too): no perf-data file in /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    q = shlex.quote
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf {q('spark.local.dir=' + str(tmp))} "
        f"--conf {q('spark.sql.warehouse.dir=' + str(tmp / 'warehouse'))} "
        "pyspark-shell"
    )


# ---------------------------------------------------------------------------
# Spark


def start_spark():
    """A ``local[4]`` session with the repository's test settings, warmed up."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    try:
        warm_spark(spark)
    except BaseException:
        stop_spark(spark)
        raise
    return spark


def warm_spark(spark) -> None:
    """Start the Python workers and JIT Spark's SQL, Arrow and pandas-UDF
    paths with jobs that run no PairwiseHist code."""
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(0)
    df = spark.createDataFrame(
        pd.DataFrame(
            {
                "k": rng.integers(0, 1000, 20_000),
                "x": rng.random(20_000),
                "s": rng.choice(["a", "b", "c"], 20_000),
            }
        )
    )
    df.selectExpr(
        "min(x)", "max(x)", "count(distinct k)", "count(s)", "sum(cast(x * 100 as long))"
    ).collect()
    df.sample(fraction=0.5, seed=1).limit(5000).toPandas()
    df.groupBy((df.k % 16).alias("g")).applyInPandas(
        lambda pdf: pdf.head(1)[["x"]], schema="x double"
    ).collect()


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM (and the Python workers it forked)
    to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Answers


def key(res):
    """Comparable form of an answer (AQPResult or GROUP BY dict)."""
    if isinstance(res, dict):
        return tuple(sorted((str(g), (r.est, r.lo, r.hi)) for g, r in res.items()))
    return (res.est, res.lo, res.hi)


def close(a, b) -> bool:
    """Answers equal to within 1e-12 (relative)."""
    if isinstance(a, tuple) and a and isinstance(a[0], tuple):
        return len(a) == len(b) and all(x[0] == y[0] and close(x[1], y[1]) for x, y in zip(a, b))
    for x, y in zip(a, b):
        if x is None or y is None:
            if x is not y:
                return False
        elif not abs(x - y) <= 1e-12 * max(1.0, abs(x)):
            return False
    return True


def bad(est, lo, hi, truth) -> bool:
    """The failure rule: no finite estimate where the truth is defined, or
    bounds that do not contain the estimate."""
    if est is None:
        return truth is not None
    if lo is None or hi is None or not all(math.isfinite(v) for v in (est, lo, hi)):
        return True
    tol = 1e-9 * max(1.0, abs(est))
    return not (lo - tol <= est <= hi + tol)


def outcomes(res, truth) -> list[tuple]:
    """(est, lo, hi, truth) per answered number; a GROUP BY query gives one
    per group that has a defined truth."""
    if not isinstance(res, dict):
        return [(res.est, res.lo, res.hi, truth)]
    out = []
    for g, t in truth.items():
        if g is None or t is None:
            continue
        r = res.get(g)
        out.append((None, None, None, t) if r is None else (r.est, r.lo, r.hi, t))
    return out


def accuracy(rows: list[tuple]) -> dict[str, float]:
    err, hit, width = [], [], []
    for est, lo, hi, t in rows:
        if t is None:
            continue
        if est is not None and t != 0:
            err.append(abs(est - t) / abs(t) * 100.0)
        if lo is not None and hi is not None:
            hit.append(lo - 1e-9 <= t <= hi + 1e-9)
            if t != 0:
                width.append((hi - lo) / abs(t) * 100.0)
    return {
        "rel_err_p50_pct": statistics.median(err) if err else float("nan"),
        "within_1pct_pct": 100.0 * sum(e <= 1.0 for e in err) / len(err) if err else float("nan"),
        "bound_correct_pct": 100.0 * sum(hit) / len(hit) if hit else float("nan"),
        "bound_width_p50_pct": statistics.median(width) if width else float("nan"),
    }


# ---------------------------------------------------------------------------
# Host speed

#: Median time of ``reference_kernel`` on the machine the first numbers
#: were recorded on (4 shared vCPUs); times are reported at this speed.
REFERENCE_MS = 4.5


def reference_kernel() -> float:
    """A fixed mix of small numpy operations and interpreter work, like
    the program's, that runs no PairwiseHist code."""
    import numpy as np

    a = np.arange(512, dtype=np.float64)
    s, d = 0.0, {}
    for i in range(300):
        v = a * (i + 1)
        s += float(np.clip(v, 10.0, 400.0).sum()) + float(v @ a)
        d[i % 37] = d.get(i % 37, 0) + i
    return s


def host_slowdown() -> float:
    """How much slower than the reference speed the host runs right now."""
    t0 = perf()
    reference_kernel()
    return (perf() - t0) * 1e3 / REFERENCE_MS


# ---------------------------------------------------------------------------
# Memory


def _proc_status_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> float:
    """Start a new peak-RSS window (Linux: writing 5 to clear_refs resets
    VmHWM to the current RSS) and return the current RSS in MB."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _proc_status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Peak RSS in MB since the last ``reset_peak_rss``."""
    return _proc_status_mb("VmHWM")


# ---------------------------------------------------------------------------
# Metrics

class Report:
    def __init__(self, strict: bool = True):
        self.rows: dict[str, tuple[float, str, str]] = {}  # name -> (value, unit, note)
        self.strict = strict  # raise when a percentile lacks samples

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.rows[name] = (float(value), unit, note)

    def timing(self, name: str, samples: list[tuple[float, float]], q: float = 50.0) -> None:
        """A latency percentile in ms at the reference speed, from
        (seconds, host slowdown next to the call) samples."""
        import numpy as np

        n = len(samples)
        if n == 0 or (q > 50.0 and n * (1 - q / 100.0) < 10 - 1e-9):
            if self.strict:
                raise RuntimeError(f"{name}: {n} samples are too few for p{q:g}")
            self.add(name, float("nan"), "ms", f"n={n} is too few for p{q:g}")
            return
        raw, slow = np.array(samples).T * [[1e3], [1.0]]
        self.add(
            name,
            float(np.percentile(raw / slow, q)),
            "ms",
            f"p{q:g} of n={n}; raw {np.percentile(raw, q):.6g}, host slowdown x{np.median(slow):.3f}",
        )

    def tail(self, stem: str, samples: list[tuple[float, float]]) -> None:
        """The highest percentile (to 0.1) with at least ten samples beyond it."""
        n = len(samples)
        q = math.floor(1000 * (1 - 10 / n)) / 10 if n > 20 else 0.0
        if q > 50:
            self.timing(f"{stem}_p{q:g}_ms", samples, q)
        else:
            self.add(f"{stem}_tail_ms", float("nan"), "ms", f"n={n}: too few for a tail percentile")


class State:
    """What one run measured and checked."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.t: dict[str, list[tuple[float, float]]] = defaultdict(list)  # (seconds, slowdown)
        self.rows: list[tuple] = []  # (est, lo, hi, truth) of every checked answer
        self.sampled: list[int] = []  # rows each append folded into the sample
        # Every call counts in ``calls``; only the first pass's, each
        # checked once, count in ``attempted`` (and ``failed``).
        self.calls = self.attempted = self.failed = 0
        self.first_pass = True
        self.mismatches: list[str] = []
        self.notes: list[str] = []
        self.rss_base = 0.0  # RSS in MB when the peak-RSS window started

    def count(self, n: int) -> None:
        self.calls += n
        if self.first_pass:
            self.attempted += n

    def answer(self, engine, q):
        """The answer to ``q``, or None if the call raised."""
        try:
            return engine.execute_grouped(q) if q.group_by else engine.execute(q)
        except Exception as e:  # counted as a failure by the caller
            if len(self.notes) < 20:
                self.notes.append(f"{q} raised {type(e).__name__}: {e}")
            return None

    def timed_query(self, engine, q, slow: float, traced: bool):
        if traced:
            self.tracer.request("group" if q.group_by else "query")
        t0 = perf()
        res = self.answer(engine, q)
        dt = perf() - t0
        self.t["groupby" if q.group_by else "query_traced" if traced else "query"].append((dt, slow))
        self.count(1)
        return res

    def check(self, res, truth) -> bool:
        """Record the answer's accuracy; True if it fails."""
        got = [] if res is None else outcomes(res, truth)
        self.rows += got
        return res is None or any(bad(*o) for o in got)

    def round_trip(self, ph, infos):
        """Time ``serialize`` and ``deserialize`` + ``PHEngine``, each after
        its own host-speed probe; return the bytes and the reloaded engine."""
        from repro.core import storage
        from repro.core.engine import PHEngine

        tr = self.tracer
        if tr:
            spans.install(tr, spans.STORAGE_TARGETS)
            tr.request("storage")
        slow = host_slowdown()
        t0 = perf()
        b = tr.call("repro.core.storage.serialize", storage.serialize, ph) if tr else storage.serialize(ph)
        self.t["save"].append((perf() - t0, slow))
        slow = host_slowdown()
        t0 = perf()
        p2 = tr.call("repro.core.storage.deserialize", storage.deserialize, b) if tr else storage.deserialize(b)
        eng = PHEngine(p2, infos)
        self.t["load"].append((perf() - t0, slow))
        if tr:
            tr.uninstall()
        self.count(2)
        return b, eng

    def append(self, ph, batch, slow: float) -> None:
        from repro.core.update import append_rows

        tr = self.tracer
        if tr:
            tr.request("append")
        n0 = ph.n_sample
        t0 = perf()
        if tr:
            tr.call("repro.core.update.append_rows", append_rows, ph, batch)
        else:
            append_rows(ph, batch)
        self.t["append"].append((perf() - t0, slow))
        self.sampled.append(ph.n_sample - n0)
        self.count(1)


# ---------------------------------------------------------------------------
# Workloads


def power_query(st: State, engine, blob: bytes, inp, enc, seconds: float) -> float:
    """Check pass, write-path sample, then a window of closed-loop queries
    on the built synopsis. Returns the window's wall time."""
    from repro.core import storage
    from repro.core.engine import PHEngine

    queries, tr, infos = inp.queries, st.tracer, engine.infos
    # Check pass (untimed): failures, accuracy, the round trip.
    reloaded = PHEngine(storage.deserialize(blob), infos)
    first = []
    for q, t in zip(queries, inp.truths):
        st.count(1)
        res = st.answer(engine, q)
        st.failed += st.check(res, t)
        first.append(None if res is None else key(res))
        if res is None:
            continue
        again = st.answer(reloaded, q)
        if again is None or not close(key(res), key(again)):
            st.mismatches.append(f"reloaded synopsis answers {q} differently")

    # Write-path sample: the write metrics every run reports.
    for _ in range(ROUND_TRIPS):
        b, _ = st.round_trip(engine.ph, infos)
        if b != blob:
            st.mismatches.append("serialize() output changed between calls")
    for _ in range(APPEND_PASSES):
        copy = storage.deserialize(blob)
        for batch in enc:
            st.append(copy, batch, host_slowdown())

    # The window repeats the check pass; each answer must equal its first.
    st.first_pass = False
    gc.collect()
    st.rss_base = reset_peak_rss()
    qpos = block = 0
    t_start = perf()
    # Whole passes only, so that every query weighs the same in every run.
    while qpos == 0 or perf() - t_start < seconds or qpos % len(queries):
        traced = tr is not None and block % 2 == 1
        if traced:
            spans.install(tr, spans.QUERY_TARGETS)
        for k in range(QUERY_BLOCK):
            if k % 50 == 0:
                slow = host_slowdown()
            i = qpos % len(queries)
            qpos += 1
            res = st.timed_query(engine, queries[i], slow, traced)
            if (None if res is None else key(res)) != first[i]:
                st.mismatches.append(f"answers to query {i} differ between passes")
        if traced:
            tr.uninstall()
        block += 1
    return perf() - t_start


def power_append(st: State, engine, blob: bytes, inp, enc, seconds: float) -> float:
    """A window of append rounds, each followed by queries on the grown
    synopsis and its round trip. Returns the window's wall time."""
    from repro.core import storage
    from repro.core.engine import PHEngine

    queries, tr, infos = inp.queries, st.tracer, engine.infos
    ref = []  # (answers, bytes digest) per round of the first pass
    gc.collect()
    st.rss_base = reset_peak_rss()
    step = 0
    t_start = perf()
    # Whole passes only, so that every round weighs the same in every run.
    while step == 0 or perf() - t_start < seconds or step % len(enc):
        r, first_pass = step % len(enc), step < len(enc)
        st.first_pass = first_pass
        traced = tr is not None and step % 2 == 1
        step += 1
        if r == 0:
            copy = storage.deserialize(blob)
            eng = PHEngine(copy, infos)
        st.append(copy, enc[r], host_slowdown())
        slow = host_slowdown()
        if traced:
            spans.install(tr, spans.QUERY_TARGETS)
        got = [st.timed_query(eng, queries[i], slow, traced) for i in inp.round_queries[r]]
        if traced:
            tr.uninstall()
        b, reloaded = st.round_trip(copy, infos)

        answers = [None if a is None else key(a) for a in got]
        digest = hashlib.sha256(b).digest()
        if first_pass:
            # Untimed: accuracy on the grown table, and the grown
            # synopsis's round trip.
            for i, a, t in zip(inp.round_queries[r], got, inp.round_truths[r]):
                st.failed += st.check(a, t)
                if a is None:
                    continue
                again = st.answer(reloaded, queries[i])
                if again is None or not close(key(a), key(again)):
                    st.mismatches.append(f"reloaded grown synopsis answers {queries[i]} differently")
            ref.append((answers, digest))
        elif (answers, digest) != ref[r]:
            st.mismatches.append(f"append round {r} differs between passes")
    return perf() - t_start


# ---------------------------------------------------------------------------
# The run


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[Report, Report, Report, State]:
    from inputs import BUILD_SEED, N_SAMPLE, make_inputs, values_outside_edges
    from repro.core import storage
    from repro.core.build import build_synopsis
    from repro.core.engine import PHEngine
    from repro.gd.preprocess import encode_pandas

    tracer = spans.Tracer() if trace else None
    if tracer:  # fail now, naming it, if a traced function has moved
        spans.install(tracer, {**spans.BUILD_TARGETS, **spans.QUERY_TARGETS, **spans.STORAGE_TARGETS})
        tracer.uninstall()
    st = State(tracer)

    # Spark starts and warms up while the inputs are generated; neither is
    # timed.
    t0 = perf()
    with ThreadPoolExecutor(1) as pool:
        starting = pool.submit(start_spark)
        try:
            inp = make_inputs(seed, WORK / "cache")
        except BaseException:
            stop_spark(starting.result())
            raise
        log(f"inputs {perf() - t0:.1f}s: {len(inp.pdf)} rows, {len(inp.queries)} queries")
        spark = starting.result()
        log(f"spark warm {perf() - t0:.1f}s")

    # -- set-up: the Spark build ----------------------------------------
    try:
        sdf = spark.createDataFrame(inp.pdf)
        log(f"spark ready {perf() - t0:.1f}s")
        if tracer:
            spans.install(tracer, spans.BUILD_TARGETS)
            tracer.request("build")
        gc.collect()
        with spans.SparkJobs(spark.sparkContext, "perfbench-build") as jobs:
            t0 = perf()
            built = build_synopsis(sdf, n_sample=N_SAMPLE, seed=BUILD_SEED)
            engine = PHEngine(built.ph, built.infos)
            setup_s = perf() - t0
        spark_counts = jobs.counts() if tracer else None
        log(f"build {setup_s:.2f}s {({s: round(v, 2) for s, v in built.timings.items()})}")
    finally:
        if tracer:
            tracer.uninstall()
        stop_spark(spark)
    del sdf
    inp.pdf = None  # the build's input is not needed from here on
    ph, infos = built.ph, built.infos
    blob = storage.serialize(ph)
    enc = [encode_pandas(b, infos) for b in inp.batches]

    # -- the measured window -----------------------------------------------
    window = power_query if name == "power-query" else power_append
    window_s = window(st, engine, blob, inp, enc, seconds)
    peak = peak_rss_mb()

    # -- end-to-end metrics --------------------------------------------------
    # In a traced run half the window is traced, and the untraced half may
    # be too short for the end-to-end percentiles.
    rep, info = Report(strict=not trace), Report()
    rep.add("setup_s", setup_s, "s", "build_synopsis + PHEngine")
    queries = st.t["query"] + st.t["query_traced"]
    rep.timing("query_p50_ms", st.t["query"])
    rep.timing("query_p95_ms", st.t["query"], 95.0)
    rep.add(
        "queries_per_s",
        len(queries) / sum(dt / slow for dt, slow in queries),
        "1/s",
        f"n={len(queries)} over the time spent in them at the reference speed",
    )
    rep.timing("groupby_p50_ms", st.t["groupby"])
    rep.timing("append_p50_ms", st.t["append"])
    rep.timing("save_ms", st.t["save"])
    rep.timing("load_ms", st.t["load"])
    for stem in ("query", "groupby", "append", "save", "load"):
        info.tail(stem, st.t[stem])
    rep.add("synopsis_bytes", len(blob), "bytes", "len(serialize(ph)) of the built synopsis")
    acc = accuracy(st.rows)
    for k in ("within_1pct_pct", "bound_correct_pct", "bound_width_p50_pct"):
        rep.add(k, acc[k], "%", f"over n={len(st.rows)} checked answers")
    info.add("rel_err_p50_pct", acc["rel_err_p50_pct"], "%", "not gated: see README")
    rep.add("peak_rss_mb", peak, "MB", f"peak in the {window_s:.1f}s window; {st.rss_base:.1f} MB at its start")

    # -- per-layer metrics -------------------------------------------------
    layers = Report()
    if tracer:
        outside = [values_outside_edges(ph.hists1d, e) for e in enc]
        per_layer(layers, tracer, built, setup_s, spark_counts, st, outside)
        WORK.mkdir(exist_ok=True)
        path = WORK / f"spans-{name}-{seed}.jsonl"
        tracer.write(str(path))
        log(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return rep, info, layers, st


def per_layer(layers, tracer, built, setup_s, spark_counts, st, outside) -> None:
    import numpy as np

    med = statistics.median
    # Build: stage times (BuildResult.timings plus the GreedyGD wrappers).
    stage = {
        "gd.preprocess.profile_s": "profile",
        "core.build.sample_s": "sample",
        "core.build.gd_s": "gd",
        "core.refine.hist1d_s": "hist1d",
        "core.refine.hist2d_s": "hist2d",
    }
    for metric, k in stage.items():
        layers.add(metric, built.timings[k], "s")
    build = tracer.layer_times("build")
    for metric, span in (
        ("gd.greedygd.choose_plan_s", "repro.gd.greedygd.choose_plan"),
        ("gd.greedygd.base_edges_s", "repro.gd.greedygd.base_edges"),
    ):
        calls, _, walls = build.get(span, (0, 0.0, []))
        if calls != 1:
            raise spans.TraceError(f"{span}: {calls} calls in one build")
        layers.add(metric, walls[0], "s", "inside core.build.gd_s")
    other = setup_s - sum(built.timings[k] for k in stage.values())
    layers.add("core.build.driver_other_s", other, "s", "setup_s minus the five stages")
    for k, v in spark_counts.items():
        layers.add(f"spark.{k}", v, "count", "in the build")

    # Synopsis shape.
    layers.add("core.model.bins_1d", sum(h.k for h in built.ph.hists1d), "count")
    layers.add("core.model.cells_2d", sum(h.counts.size for h in built.ph.hists2d.values()), "count")
    plan = built.gd_plan
    layers.add(
        "gd.greedygd.base_bits",
        sum(plan.total_bits[c] - plan.dev_bits[c] for c in plan.columns),
        "bits",
        "base bits per row",
    )

    # Query path, per non-grouped query.
    n = tracer.n_requests("query")
    q = tracer.layer_times("query")
    us = {
        "core.engine.execute_self_us": "repro.core.engine.PHEngine.execute",
        "gd.preprocess.encode_literal_us": "repro.gd.preprocess.ColumnInfo.encode_literal",
        "core.coverage.cond_region_us": "repro.core.coverage.cond_region",
        "core.weighting.weights_us": "repro.core.weighting.weights",
        "core.coverage.region_coverage_us": "repro.core.coverage.region_coverage",
        "core.coverage.coverage_bounds_us": "repro.core.coverage.coverage_bounds",
        "core.weighting.map_fine_to_coarse_us": "repro.core.weighting.map_fine_to_coarse",
        "core.aggregate.aggregate_us": "repro.core.aggregate.aggregate",
    }
    for metric, span in us.items():
        layers.add(metric, q.get(span, (0, 0.0, []))[1] / n * 1e6, "us/query", f"self time over n={n}")
    for metric, span in (
        ("core.coverage.region_coverage_calls", "repro.core.coverage.region_coverage"),
        ("core.model.pair_calls", "repro.core.model.PairwiseHist.pair"),
        ("core.aggregate.calls", "repro.core.aggregate.aggregate"),
    ):
        layers.add(metric, q.get(span, (0, 0.0, []))[0] / n, "calls/query")
    for metric in ("fractional_bins", "theorem2_bins"):
        layers.add(f"core.coverage.{metric}", tracer.counts[("query", metric)] / n, "bins/query")
    traced, untraced = st.t["query_traced"], st.t["query"]
    layers.add(
        "trace_overhead_pct",
        (np.median([t / s for t, s in traced]) / np.median([t / s for t, s in untraced]) - 1.0) * 100.0,
        "%",
        f"query p50 traced (n={len(traced)}) vs untraced (n={len(untraced)})",
    )

    # GROUP BY.
    n_group = tracer.n_requests("group")
    per_group = tracer.children_of(
        "repro.core.engine.PHEngine.execute_grouped", "repro.core.engine.PHEngine.execute"
    )
    layers.add("core.engine.groups_per_groupby", per_group / n_group, "calls/query", f"n={n_group}")

    # Storage.
    sto = tracer.layer_times("storage")
    n_st = tracer.n_requests("storage")
    layers.add("core.storage.serialize_ms", med(sto["repro.core.storage.serialize"][2]) * 1e3, "ms", f"n={n_st}")
    layers.add("core.storage.deserialize_ms", med(sto["repro.core.storage.deserialize"][2]) * 1e3, "ms", f"n={n_st}")
    for metric, span in (
        ("core.storage.golomb_encode_calls", "repro.core.storage.golomb_encode"),
        ("core.storage.golomb_decode_calls", "repro.core.storage.golomb_decode"),
    ):
        layers.add(metric, sto.get(span, (0, 0.0, []))[0] / n_st, "calls/op", "per serialize or deserialize")

    # Update.
    walls = tracer.layer_times("append")["repro.core.update.append_rows"][2]
    layers.add("core.update.append_rows_ms", med(walls) * 1e3, "ms", f"n={len(walls)}")
    layers.add("core.update.rows_sampled", float(np.mean(st.sampled)), "rows/batch")
    layers.add("core.update.values_outside_edges", float(np.mean(outside)), "values/batch", "beyond build-time edges")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "repro" / "core" / "engine.py").is_file():
        log(f"no PairwiseHist sources under {SRC}; run from the root of a checkout")
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir()
    configure(tmp)
    t_start = perf()
    try:
        rep, info, layers, st = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for report in (rep, info, layers):
        for name, (value, unit, note) in report.rows.items():
            print(f"{name:40s} {value:14.6g} {unit:12s} {note}")
    for note in st.notes:
        print(f"note: {note}")
    for m in st.mismatches[:20]:
        print(f"MISMATCH: {m}")
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"calls={st.calls} attempted={st.attempted} failed={st.failed} "
        f"failed_pct={100.0 * st.failed / st.attempted:.4f} "
        f"wall_s={perf() - t_start:.1f}"
    )
    correct = not st.mismatches
    shown = layers if args.trace else rep
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": st.attempted,
                "failed": st.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in shown.rows.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
