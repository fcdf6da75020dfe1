"""PairwiseHist query engine — Sec. 5 end-to-end.

Takes queries in the *original* domain, applies GreedyGD pre-processing to
predicate literals (Sec. 5.1), resolves coverage → weightings →
aggregation on the synopsis (pure numpy; a handful of small matrix
products per query, which is where the paper's sub-ms latency comes from)
and maps estimates and bounds back to the original domain.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core import aggregate as agg
from repro.core import coverage as cov
from repro.core import weighting as wt
from repro.core.model import PairwiseHist
from repro.gd.preprocess import ColumnInfo
from repro.queries import FUNCS, Cond, Query, QueryError


@dataclass
class AQPResult:
    est: float | None
    lo: float | None
    hi: float | None

    def contains(self, truth: float) -> bool:
        return (
            self.lo is not None
            and self.hi is not None
            and self.lo - 1e-9 <= truth <= self.hi + 1e-9
        )

    @property
    def width(self) -> float | None:
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo


class PHEngine:
    """Driver-side AQP engine over a built synopsis."""

    def __init__(self, ph: PairwiseHist, infos: list[ColumnInfo]):
        # Plans name columns by ColumnInfo.index, the engine by position.
        if [info.index for info in infos] != list(range(ph.d)):
            raise ValueError(f"column infos are not the {ph.d} synopsis columns in order")
        self.ph = ph
        self.infos = infos
        self.by_name = {info.name: info for info in infos}
        self.col_idx = {info.name: i for i, info in enumerate(infos)}

    # -- columns ----------------------------------------------------------
    def _column(self, name: str) -> int:
        try:
            return self.col_idx[name]
        except KeyError:
            raise QueryError(f"unknown column {name!r}") from None

    # -- decoding ---------------------------------------------------------
    def _decode(self, q: Query, e: agg.Estimate, count: agg.Estimate | None) -> AQPResult:
        if e.est is None:
            return AQPResult(None, None, None)
        info = self.by_name[q.col]
        s, m = info.scale, info.minval
        if q.func == "COUNT":
            return AQPResult(e.est, e.lo, e.hi)
        if q.func == "SUM":
            # SUM_orig = SUM_enc / scale + minval * COUNT (sign-aware bounds)
            est = e.est / s + m * count.est
            if m >= 0:
                lo = e.lo / s + m * count.lo
                hi = e.hi / s + m * count.hi
            else:
                lo = e.lo / s + m * count.hi
                hi = e.hi / s + m * count.lo
            return AQPResult(est, min(lo, est), max(hi, est))
        if q.func == "VAR":
            return AQPResult(e.est / s**2, e.lo / s**2, e.hi / s**2)
        # AVG / MIN / MAX / MEDIAN: monotone per-value decode.
        return AQPResult(e.est / s + m, e.lo / s + m, e.hi / s + m)

    # -- execution --------------------------------------------------------
    def execute(self, q: Query) -> AQPResult:
        """Answer a non-grouped query with estimate + bounds."""
        return self._answers(q)[0]

    def execute_grouped(self, q: Query) -> dict:
        """GROUP BY on a categorical column: the answer to ``q`` with the
        equality ``group_by = v`` added, for each category ``v`` (Sec. 3
        query form), omitting categories with no estimate."""
        if q.group_by is None:
            raise QueryError("execute_grouped needs a GROUP BY column")
        g = self._column(q.group_by)
        info = self.infos[g]
        if info.kind != "cat":
            raise QueryError(f"GROUP BY column {q.group_by!r} is not categorical")
        cats = info.categories or []
        regions = [cov.encode_cond(Cond(q.group_by, "=", v), self.by_name) for v in cats]
        results = self._answers(q, (g, regions))
        return {v: r for v, r in zip(cats, results) if r.est is not None}

    def _answers(self, q: Query, group: tuple[int, list] | None = None) -> list[AQPResult]:
        """The answer to ``q``, or with ``group = (g, regions)`` one answer
        per region, each to ``q`` with ``column g in region`` ANDed to its
        WHERE clause. The WHERE tree is compiled and evaluated once."""
        ph = self.ph
        if q.func not in FUNCS:
            raise QueryError(f"unknown function {q.func!r}")
        agg_idx = self._column(q.col)
        plan = cov.compile(q.where, self.by_name) if q.where is not None else None
        # A WHERE clause on the aggregation column alone compiles to one Leaf.
        single = plan is None or (isinstance(plan, cov.Leaf) and plan.col == agg_idx)
        if group is None:
            ws = [wt.weights(ph, agg_idx, plan)]
        else:
            ws = wt.grouped_weights(ph, agg_idx, plan, *group)
            single = single and group[0] == agg_idx
        hist = ph.hists1d[agg_idx]
        centres = ph.column_state(agg_idx).centres
        kw = dict(rho=ph.rho, M=ph.M, alpha=ph.alpha, single_column=single, centres=centres)
        out = []
        for w in ws:
            est = agg.aggregate(q.func, w, hist, **kw)
            # Only SUM's decoding reads COUNT (the minval offset).
            count = agg.aggregate("COUNT", w, hist, **kw) if q.func == "SUM" else None
            out.append(self._decode(q, est, count))
        return out
