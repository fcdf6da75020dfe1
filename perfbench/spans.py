"""Spans and counters for the traced run (``--trace 1``).

The benchmark wraps the public functions of each layer under the name
its caller looks it up by (a module or class attribute), so the program
itself is unchanged. Each call records a span: name, start, end, parent
span and request id. Spans stay in memory until the run ends. A layer's
self time is its span minus the time covered by its child spans.

A wrapped attribute that no longer exists stops the run with an error
that names it, so a renamed layer can never read as zero.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        # (span id, parent id, request id, name, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.kinds: dict[int, str] = {}  # request id -> kind
        self.kind = ""
        self._stack: list[int] = []
        self._request = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def request(self, kind: str) -> None:
        """Start a new request; spans and counts from now on belong to it."""
        self._request += 1
        self.kind = kind
        self.kinds[self._request] = kind

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.kind, name)] += n

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, self._request, name, 0.0, 0.0))
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._request, name, t0, t1)

    # -- wrappers ----------------------------------------------------------
    def wrap(self, target: str, name: str, on_call=None) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` in place.

        ``on_call(args, kwargs)`` runs before the call, for counters
        computed from the arguments.
        """
        mod_name, _, rest = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
        except ImportError as e:
            raise TraceError(f"cannot trace {name}: module {mod_name} not found") from e
        *path, attr = rest.split(".")
        for part in path:
            if not hasattr(owner, part):
                raise TraceError(f"cannot trace {name}: {mod_name}.{part} not found")
            owner = getattr(owner, part)
        if not callable(getattr(owner, attr, None)):
            raise TraceError(f"cannot trace {name}: {mod_name}.{rest} not found")
        if isinstance(owner, type) and attr not in owner.__dict__:
            raise TraceError(f"cannot trace {name}: {mod_name}.{rest} is inherited")
        orig = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            return self.call(name, orig, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- results -----------------------------------------------------------
    def n_requests(self, kind: str) -> int:
        return sum(1 for k in self.kinds.values() if k == kind)

    def layer_times(self, kind: str) -> dict[str, tuple[int, float, list[float]]]:
        """Per span name, over the requests of one kind: (calls, total self
        time in seconds, wall time of each call in seconds)."""
        child = np.zeros(len(self.spans))
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, []])
        for sid, _, req, name, t0, t1 in self.spans:
            if self.kinds.get(req) != kind:
                continue
            row = out[name]
            row[0] += 1
            row[1] += (t1 - t0) - child[sid]
            row[2].append(t1 - t0)
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Calls of ``child_name`` made directly from ``parent_name``."""
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        return sum(
            1
            for _, parent, _, name, _, _ in self.spans
            if name == child_name and names.get(parent) == parent_name
        )

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for sid, parent, req, name, t0, t1 in self.spans:
                f.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "request": req, "name": name,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )


# Layers of the query path, keyed by span name. The target is where the
# caller looks the function up, so the wrapper sits on that lookup.
QUERY_TARGETS = {
    "repro.core.engine.PHEngine.execute": "repro.core.engine:PHEngine.execute",
    "repro.core.engine.PHEngine.execute_grouped": "repro.core.engine:PHEngine.execute_grouped",
    "repro.gd.preprocess.ColumnInfo.encode_literal": "repro.gd.preprocess:ColumnInfo.encode_literal",
    "repro.core.coverage.cond_region": "repro.core.coverage:cond_region",
    "repro.core.weighting.weights": "repro.core.weighting:weights",
    "repro.core.coverage.region_coverage": "repro.core.coverage:region_coverage",
    "repro.core.coverage.coverage_bounds": "repro.core.coverage:coverage_bounds",
    "repro.core.weighting.map_fine_to_coarse": "repro.core.weighting:map_fine_to_coarse",
    "repro.core.model.PairwiseHist.pair": "repro.core.model:PairwiseHist.pair",
    "repro.core.aggregate.aggregate": "repro.core.aggregate:aggregate",
}
BUILD_TARGETS = {
    "repro.gd.greedygd.choose_plan": "repro.gd.greedygd:choose_plan",
    "repro.gd.greedygd.base_edges": "repro.gd.greedygd:base_edges",
}
STORAGE_TARGETS = {
    "repro.core.storage.golomb_encode": "repro.core.storage:golomb_encode",
    "repro.core.storage.golomb_decode": "repro.core.storage:golomb_decode",
}


def install(tracer: Tracer, targets: dict[str, str]) -> None:
    def count_bins(args, kwargs):
        # coverage_bounds(beta, h, uniq, M, alpha): the bins it treats as
        # fractional, and those of them that take the Theorem 2 loop.
        beta, h, _, M = args[:4]
        frac = (beta > 0.0) & (beta < 1.0) & (h > 0)
        tracer.count("fractional_bins", int(np.count_nonzero(frac)))
        tracer.count("theorem2_bins", int(np.count_nonzero(frac & (h >= M))))

    for name, target in targets.items():
        hook = count_bins if name == "repro.core.coverage.coverage_bounds" else None
        tracer.wrap(target, name, hook)


class SparkJobs:
    """Jobs, stages and tasks that Spark ran under one job group."""

    def __init__(self, sc, group: str):
        self.sc = sc
        self.group = group

    def __enter__(self):
        self.sc.setJobGroup(self.group, "perfbench build")
        return self

    def __exit__(self, *exc):
        self.sc.setLocalProperty("spark.jobGroup.id", None)

    def counts(self) -> dict[str, int]:
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(self.group)
        stages = tasks = failed = 0
        for jid in jobs:
            info = tracker.getJobInfo(jid)
            if info is None:
                raise TraceError(f"Spark job {jid} of {self.group} was not retained")
            for sid in info.stageIds:
                st = tracker.getStageInfo(sid)
                if st is None:  # skipped stage: its output was reused
                    continue
                stages += 1
                tasks += st.numTasks
                failed += st.numFailedTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "failed_tasks": failed}
