"""Baseline AQP engines (DeepDB-lite, DBEst++-lite) and what they share."""
from __future__ import annotations

from repro.core import coverage as cov
from repro.queries import Cond, Group, Node, QueryError


class Unsupported(Exception):
    """Raised for query shapes a baseline cannot answer."""


def conjunction(node: Node, infos_by_name: dict) -> dict[str, cov.Region]:
    """An AND-only WHERE tree as one region per column name, each the
    intersection of that column's conditions, in order of first
    appearance. The baselines model a conjunction of per-column ranges;
    they raise :class:`Unsupported` for any OR, even one on a single
    column, which PairwiseHist's plan (``coverage.compile``) would merge."""
    regions: dict[str, cov.Region] = {}

    def visit(nd: Node) -> None:
        if isinstance(nd, Cond):
            r = cov.encode_cond(nd, infos_by_name)
            regions[nd.col] = cov.region_intersect(regions[nd.col], r) if nd.col in regions else r
        elif not isinstance(nd, Group):
            raise QueryError(f"a WHERE clause is a Cond/Group tree, not {type(nd).__name__}")
        elif nd.kind != "and":
            raise Unsupported(f"{nd.kind.upper()} predicates are not supported")
        else:
            for ch in nd.children:
                visit(ch)

    visit(node)
    return regions
