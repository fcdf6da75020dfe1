"""Differential test of the predicate compiler: ``coverage.compile`` runs
the delayed transformation once into a Leaf/Combine plan, and evaluating
that plan must give exactly the probability and weighting vectors of the
tree walk it replaced. That walk (encode the tree, then merge same-column
regions while evaluating) is kept below as the reference."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import coverage as cov
from repro.core import weighting as wt
from repro.core.build import build_local
from repro.gd.preprocess import encode_pandas
from repro.queries import OPS, Cond, Group

from tests.test_grouped_differential import CATEGORICAL, INFOS, NUMERIC, _frame

BY_NAME = {info.name: info for info in INFOS}


# -- the reference: encoded tree + evaluation-time merging ----------------
@dataclass(frozen=True)
class ECond:
    col: int
    region: cov.Region


@dataclass(frozen=True)
class EGroup:
    kind: str
    children: tuple


def _encode_node(node):
    if isinstance(node, Cond):
        return ECond(BY_NAME[node.col].index, cov.encode_cond(node, BY_NAME))
    return EGroup(node.kind, tuple(_encode_node(ch) for ch in node.children))


def _node_cols(node) -> set[int]:
    if isinstance(node, ECond):
        return {node.col}
    out: set[int] = set()
    for ch in node.children:
        out |= _node_cols(ch)
    return out


def _node_region(node) -> cov.Region:
    if isinstance(node, ECond):
        return node.region
    regions = [_node_region(ch) for ch in node.children]
    out = regions[0]
    for r in regions[1:]:
        out = cov.region_intersect(out, r) if node.kind == "and" else cov.region_union(out, r)
    return out


def _eval_node(ph, agg, node):
    cols = _node_cols(node)
    if len(cols) == 1:
        return wt._prob_from_region(ph, agg, next(iter(cols)), _node_region(node))
    by_col: dict[int, list] = {}
    others = []
    for ch in node.children:
        ccols = _node_cols(ch)
        if len(ccols) == 1:
            by_col.setdefault(next(iter(ccols)), []).append(ch)
        else:
            others.append(ch)
    parts = []
    for j, chs in by_col.items():
        sub = chs[0] if len(chs) == 1 else EGroup(node.kind, tuple(chs))
        parts.append(wt._prob_from_region(ph, agg, j, _node_region(sub)))
    for ch in others:
        parts.append(_eval_node(ph, agg, ch))
    return wt._combine(parts, node.kind)


# -- trees ------------------------------------------------------------------
def conds(col: str) -> st.SearchStrategy:
    if col in CATEGORICAL:
        # "zzz" is no category: EMPTY under "=", FULL under "!=".
        values = st.sampled_from(CATEGORICAL[col] + ["zzz"])
        return st.builds(Cond, st.just(col), st.sampled_from(["=", "!="]), values)
    top = NUMERIC[col]
    # A fractional literal makes "=" EMPTY and "!=" FULL.
    values = st.one_of(
        st.integers(-2, top + 2).map(float), st.floats(-2.0, top + 2.0), st.just(top / 2 + 0.5)
    )
    return st.builds(Cond, st.just(col), st.sampled_from(OPS), values)


def groups(children: st.SearchStrategy) -> st.SearchStrategy:
    kinds = st.sampled_from(["and", "or"])
    return st.builds(Group, kinds, st.lists(children, min_size=1, max_size=4).map(tuple))


def same_column_runs() -> st.SearchStrategy:
    """A group (possibly nested, possibly one child) over one column."""
    return st.sampled_from([*NUMERIC, *CATEGORICAL]).flatmap(
        lambda c: st.recursive(conds(c), groups, max_leaves=4)
    )


def trees() -> st.SearchStrategy:
    leaves = st.one_of(st.sampled_from([*NUMERIC, *CATEGORICAL]).flatmap(conds), same_column_runs())
    return st.recursive(leaves, groups, max_leaves=8)


@pytest.fixture(scope="module")
def ph():
    """A small synopsis with rho < 1 and seed edges standing in for GD bases."""
    enc = encode_pandas(_frame(3000, 2), INFOS)
    seeds = {c: np.unique(np.nanquantile(enc[c], np.linspace(0, 1, 24)).round()) for c in NUMERIC}
    out = build_local(enc, n_rows=12_000, seeds=seeds)
    assert out.rho < 1.0
    return out


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


x_and_y = Group("and", (Cond("x", "<", 150.0), Cond("y", ">", 80.0)))


@settings(max_examples=300, deadline=None)
@given(tree=trees())
# One-part groups over several columns: the OR's 1 - (1 - p) is not p.
@example(tree=Group("or", (x_and_y,)))
@example(tree=Group("and", (Group("or", (x_and_y,)), Cond("x", ">", 20.0))))
# A same-column run split by another column, merged in first-appearance order.
@example(
    tree=Group(
        "or",
        (Cond("x", "<", 40.0), Cond("g", "=", "q"), Group("and", (Cond("x", ">", 10.0),)), Cond("g", "!=", "zzz")),
    )
)
def test_plan_equals_tree_walk(ph, tree):
    plan = cov.compile(tree, BY_NAME)
    ref = _encode_node(tree)
    for agg in range(ph.d):
        want = _eval_node(ph, agg, ref)
        assert _same(wt._eval_plan(ph, agg, plan), want), agg
        assert _same(wt.weights(ph, agg, plan), wt._weighting(ph, agg, want)), agg


def test_same_column_subtree_is_one_leaf():
    tree = Group("and", (Cond("x", ">", 10.0), Group("or", (Cond("x", "<", 20.0), Cond("x", ">", 90.0)))))
    assert cov.compile(tree, BY_NAME) == cov.Leaf(0, ((11, 19), (91, cov.INF)))


def test_leaves_by_first_appearance_then_multi_column_children():
    tree = Group("and", (Cond("y", "<", 5.0), x_and_y, Cond("x", ">", 1.0), Cond("y", ">", 2.0)))
    assert cov.compile(tree, BY_NAME) == cov.Combine(
        "and",
        (
            cov.Leaf(1, ((3, 4),)),
            cov.Leaf(0, ((2, cov.INF),)),
            cov.Combine("and", (cov.Leaf(0, ((-cov.INF, 149),)), cov.Leaf(1, ((81, cov.INF),)))),
        ),
    )
