"""PairwiseHist query engine — Sec. 5 end-to-end.

Takes queries in the *original* domain, applies GreedyGD pre-processing to
predicate literals (Sec. 5.1), resolves coverage → weightings →
aggregation on the synopsis (pure numpy; a handful of small matrix
products per query, which is where the paper's sub-ms latency comes from)
and maps estimates and bounds back to the original domain.
"""
from __future__ import annotations

from repro.core import aggregate as agg
from repro.core import coverage as cov
from repro.core import weighting as wt
from repro.core.model import PairwiseHist
from repro.gd.preprocess import ColumnInfo
from repro.queries import FUNCS, AQPResult, Cond, Query, QueryError


class PHEngine:
    """Driver-side AQP engine over a built synopsis."""

    def __init__(self, ph: PairwiseHist, infos: list[ColumnInfo]):
        # Plans name columns by ColumnInfo.index, the engine by position.
        if [info.index for info in infos] != list(range(ph.d)):
            raise ValueError(f"column infos are not the {ph.d} synopsis columns in order")
        self.ph = ph
        self.infos = infos
        self.by_name = {info.name: info for info in infos}

    # -- columns ----------------------------------------------------------
    def _column(self, name: str) -> int:
        try:
            return self.by_name[name].index
        except KeyError:
            raise QueryError(f"unknown column {name!r}") from None

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
        col, info = ph.column_state(agg_idx), self.infos[agg_idx]
        kw = dict(rho=ph.rho, M=ph.M, single_column=single)
        out = []
        for w in ws:
            r = agg.aggregate(q.func, w, col, **kw)
            # Only SUM's decoding reads COUNT (the minval offset).
            count = agg.aggregate("COUNT", w, col, **kw) if q.func == "SUM" else None
            out.append(info.decode(q.func, r, count))
        return out
