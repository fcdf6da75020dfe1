"""Query model, SQL rendering and random workload generation (Sec. 3
problem definition; Sec. 6 workloads).

Queries have the paper's shape::

    SELECT F(X_i) FROM D WHERE P1 AND/OR P2 ... [GROUP BY X_g]

with ``F`` one of COUNT/SUM/AVG/MIN/MAX/MEDIAN/VAR, predicates
``X_j OP literal`` (OP in <, >, <=, >=, =, !=) combined by arbitrary
AND/OR trees, and GROUP BY on a categorical column.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import duckdb
import numpy as np
import pandas as pd

FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR")
OPS = ("<", ">", "<=", ">=", "=", "!=")


class QueryError(ValueError):
    """A query that cannot be answered as asked: an unknown column,
    function or operator, or a literal that is not a finite value."""


@dataclass(frozen=True)
class Cond:
    """One predicate condition ``col OP value`` in the original domain."""

    col: str
    op: str
    value: object


@dataclass(frozen=True)
class Group:
    """AND/OR over child nodes (nested trees supported)."""

    kind: str  # 'and' | 'or'
    children: tuple

    def __post_init__(self):
        assert self.kind in ("and", "or") and len(self.children) >= 1


Node = Union[Cond, Group]


@dataclass(frozen=True)
class Query:
    func: str
    col: str
    where: Node | None = None
    group_by: str | None = None


def node_columns(node: Node | None) -> set[str]:
    if node is None:
        return set()
    if isinstance(node, Cond):
        return {node.col}
    out: set[str] = set()
    for ch in node.children:
        out |= node_columns(ch)
    return out


def node_conds(node: Node | None) -> list[Cond]:
    if node is None:
        return []
    if isinstance(node, Cond):
        return [node]
    out: list[Cond] = []
    for ch in node.children:
        out.extend(node_conds(ch))
    return out


def _sql_literal(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, pd.Timestamp):
        return f"TIMESTAMP '{v}'"
    if isinstance(v, (bool, np.bool_)):
        return "TRUE" if v else "FALSE"
    return repr(float(v) if isinstance(v, (np.floating,)) else v)


def sql_predicate(node: Node) -> str:
    if isinstance(node, Cond):
        op = "<>" if node.op == "!=" else node.op
        return f"{node.col} {op} {_sql_literal(node.value)}"
    joiner = " AND " if node.kind == "and" else " OR "
    return "(" + joiner.join(sql_predicate(ch) for ch in node.children) + ")"


_SQL_FUNC = {
    "COUNT": "count({c})",
    "SUM": "sum({c})",
    "AVG": "avg({c})",
    "MIN": "min({c})",
    "MAX": "max({c})",
    "MEDIAN": "median({c})",
    "VAR": "var_pop({c})",
}


def query_sql(q: Query, table: str = "t") -> str:
    """Render to SQL runnable on both DuckDB and Spark SQL (COUNT(col)
    semantics — nulls in the aggregation column are excluded, which is how
    the synopsis treats them too)."""
    expr = _SQL_FUNC[q.func].format(c=q.col)
    sql = f"SELECT {expr} AS val FROM {table}"
    if q.group_by:
        sql = f"SELECT {q.group_by} AS grp, {expr} AS val FROM {table}"
    if q.where is not None:
        sql += f" WHERE {sql_predicate(q.where)}"
    if q.group_by:
        sql += f" GROUP BY {q.group_by}"
    return sql


# ---------------------------------------------------------------------------
# Workload generation


@dataclass
class WorkloadSpec:
    n_queries: int = 100
    funcs: tuple = FUNCS
    max_preds: int = 5
    min_selectivity: float = 1e-4
    p_or: float = 0.15
    p_mixed: float = 0.10
    group_by: bool = False
    seed: int = 0


def generate_workload(
    pdf: pd.DataFrame,
    numeric_cols: list[str],
    pred_cols: list[str],
    cat_cols: list[str],
    spec: WorkloadSpec,
) -> list[Query]:
    """Random workload over ``pdf`` with a minimum-selectivity filter, as
    in Sec. 6 (the paper rejects queries below 1e-5 / 1e-6 selectivity;
    the threshold here is scaled to our dataset sizes via ``spec``)."""
    rng = np.random.default_rng(spec.seed)
    con = duckdb.connect()
    con.register("t", pdf)
    n_rows = len(pdf)
    queries: list[Query] = []
    attempts = 0
    max_attempts = spec.n_queries * 60
    while len(queries) < spec.n_queries and attempts < max_attempts:
        attempts += 1
        func = str(rng.choice(list(spec.funcs)))
        col = str(rng.choice(numeric_cols))
        n_preds = int(rng.integers(1, spec.max_preds + 1))
        conds = []
        used: set[str] = set()
        for _ in range(n_preds):
            pc = str(rng.choice(pred_cols))
            if pc in used and rng.random() < 0.5:
                continue
            used.add(pc)
            series = pdf[pc].dropna()
            if series.empty:
                continue
            v = series.iloc[int(rng.integers(0, len(series)))]
            if isinstance(v, (np.generic,)):
                v = v.item()
            is_cat = pc in cat_cols
            op = str(rng.choice(["=", "!="] if is_cat else list(OPS)))
            conds.append(Cond(pc, op, v))
        if not conds:
            continue
        if len(conds) == 1:
            where: Node = conds[0]
        else:
            r = rng.random()
            if r < spec.p_or:
                where = Group("or", tuple(conds))
            elif r < spec.p_or + spec.p_mixed and len(conds) >= 3:
                where = Group(
                    "and", (conds[0], Group("or", tuple(conds[1:])))
                )
            else:
                where = Group("and", tuple(conds))
        gb = None
        if spec.group_by and cat_cols and rng.random() < 0.2:
            gb = str(rng.choice([c for c in cat_cols if c != col] or cat_cols))
            if pdf[gb].nunique() > 25:
                gb = None
        q = Query(func=func, col=col, where=where, group_by=gb)
        try:
            sel = con.execute(
                f"SELECT count({q.col}) FROM t WHERE {sql_predicate(where)}"
            ).fetchone()[0]
        except Exception:
            continue
        if sel is None or sel < max(1, spec.min_selectivity * n_rows):
            continue
        queries.append(q)
    con.close()
    return queries
