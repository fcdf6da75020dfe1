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
        WHERE clause. The WHERE tree is encoded and evaluated once."""
        ph = self.ph
        if q.func not in FUNCS:
            raise QueryError(f"unknown function {q.func!r}")
        agg_idx = self._column(q.col)
        enode = self._encode_node(q.where) if q.where is not None else None
        cols = node_columns(q.where)
        if group is None:
            ws = [wt.weights(ph, agg_idx, enode)]
        else:
            ws = wt.grouped_weights(ph, agg_idx, enode, *group)
            cols.add(q.group_by)
        hist = ph.hists1d[agg_idx]
        centres = ph.column_state(agg_idx).centres
        kw = dict(
            rho=ph.rho, M=ph.M, alpha=ph.alpha, single_column=cols <= {q.col}, centres=centres
        )
        out = []
        for w in ws:
            est = agg.aggregate(q.func, w, hist, **kw)
            count = est if q.func == "COUNT" else agg.aggregate("COUNT", w, hist, **kw)
            out.append(self._decode(q, est, count))
        return out
