"""Exact query answers — the evaluation's ground truth.

The paper used SQLite for exact results (306.8 s median per query at 10^9
rows); here DuckDB plays that role over the generated data.
"""
from __future__ import annotations

import duckdb
import pandas as pd
from repro.queries import Query, query_sql


class ExactEngine:
    """DuckDB-backed exact engine over a pandas frame (original domain)."""

    def __init__(self, pdf: pd.DataFrame, table: str = "t"):
        self.table = table
        self.con = duckdb.connect()
        self.con.register(table, pdf)

    def close(self) -> None:
        self.con.close()

    def scalar(self, q: Query) -> float | None:
        """Exact answer for a non-grouped query (None when undefined,
        e.g. AVG over an empty selection)."""
        val = self.con.execute(query_sql(q, self.table)).fetchone()[0]
        if val is None:
            return None
        if isinstance(val, pd.Timestamp):
            return val.value / 1e9
        return float(val)

    def groups(self, q: Query) -> dict:
        """Exact per-group answers for a GROUP BY query."""
        rows = self.con.execute(query_sql(q, self.table)).fetchall()
        return {g: (None if v is None else float(v)) for g, v in rows}
