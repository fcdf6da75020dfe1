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
from repro.queries import FUNCS, Cond, Group, Node, Query, QueryError, node_columns


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
        assert len(infos) == ph.d, "synopsis/column metadata mismatch"
        self.ph = ph
        self.infos = infos
        self.by_name = {info.name: info for info in infos}
        self.col_idx = {info.name: i for i, info in enumerate(infos)}

    # -- encoding ---------------------------------------------------------
    def _column(self, name: str) -> int:
        try:
            return self.col_idx[name]
        except KeyError:
            raise QueryError(f"unknown column {name!r}") from None

    def _encode_node(self, node: Node) -> wt.ENode:
        if isinstance(node, Cond):
            region = cov.encode_cond(node, self.by_name)
            return wt.ECond(self.col_idx[node.col], region)
        assert isinstance(node, Group)
        return wt.EGroup(node.kind, tuple(self._encode_node(ch) for ch in node.children))

    # -- decoding ---------------------------------------------------------
    def _decode(self, q: Query, e: agg.Estimate, count: agg.Estimate) -> AQPResult:
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
        ph = self.ph
        if q.func not in FUNCS:
            raise QueryError(f"unknown function {q.func!r}")
        agg_idx = self._column(q.col)
        enode = self._encode_node(q.where) if q.where is not None else None
        w = wt.weights(ph, agg_idx, enode)
        single = node_columns(q.where) <= {q.col}
        centres = ph.column_state(agg_idx).centres
        kw = dict(rho=ph.rho, M=ph.M, alpha=ph.alpha, single_column=single, centres=centres)
        est = agg.aggregate(q.func, w, ph.hists1d[agg_idx], **kw)
        count = (
            est
            if q.func == "COUNT"
            else agg.aggregate("COUNT", w, ph.hists1d[agg_idx], **kw)
        )
        return self._decode(q, est, count)

    def execute_grouped(self, q: Query) -> dict:
        """GROUP BY on a categorical column: one equality-augmented
        execution per category (Sec. 3 query form)."""
        assert q.group_by is not None
        info = self.infos[self._column(q.group_by)]
        assert info.kind == "cat", "GROUP BY supported on categorical columns"
        out: dict = {}
        for val in info.categories or []:
            cond = Cond(q.group_by, "=", val)
            where = (
                cond
                if q.where is None
                else Group("and", (q.where, cond))
            )
            res = self.execute(Query(q.func, q.col, where))
            if res.est is not None:
                out[val] = res
        return out
