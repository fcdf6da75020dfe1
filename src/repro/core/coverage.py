"""Coverage — per-predicate bin satisfaction probabilities with bounds
(Sec. 5.2, Eqs. 14–23, Theorem 2).

Conditions are first mapped to *regions*: unions of disjoint closed
integer intervals in the encoded domain (the data is integral after
GreedyGD pre-processing, minimum spacing 1). Region algebra implements the
paper's "delayed transformation": conditions on the same column that are
directly connected by AND/OR are consolidated exactly (interval
intersection/union) before any independence assumption is applied.

Coverage of a region over a histogram view follows Eq. 15 (equality:
``1/u``), Eq. 16 (range: 0 / 1 / 0.5-for-u=2 / width fraction) and the
bounds follow Eqs. 22–23 with Theorem 2 for bins that passed the
uniformity test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Union

import numpy as np

from repro.core.hypothesis import sub_bin_count, tested
from repro.core.model import Hist1D
from repro.queries import OPS, Cond, Group, Node, QueryError
from repro.stats import chi2_critical

INF = float("inf")

#: region = tuple of disjoint closed integer intervals (a, b), a <= b.
Region = tuple

FULL: Region = ((-INF, INF),)
EMPTY: Region = ()


def cond_region(op: str, v: float) -> Region:
    """Region of encoded values satisfying ``x OP v`` over the integers."""
    if op == "<":
        ub = math.ceil(v) - 1
        return ((-INF, ub),)
    if op == "<=":
        return ((-INF, math.floor(v)),)
    if op == ">":
        return ((math.floor(v) + 1, INF),)
    if op == ">=":
        return ((math.ceil(v), INF),)
    if op == "=":
        if float(v).is_integer():
            return ((v, v),)
        return EMPTY
    if op == "!=":
        if float(v).is_integer():
            return ((-INF, v - 1), (v + 1, INF))
        return FULL
    raise ValueError(f"unknown op {op!r}")


def encode_cond(cond: Cond, infos_by_name: dict) -> Region:
    """Region of encoded values satisfying ``cond``, whose literal is in
    the column's original domain (Sec. 5.1). Every engine compiles its
    conditions through here. A category never seen matches nothing under
    ``=`` and every non-null value under ``!=``.

    Raises :class:`QueryError` for an unknown column or operator, and for
    a literal that is not finite, has the wrong type or overflows the
    encoding."""
    info = infos_by_name.get(cond.col)
    if info is None:
        raise QueryError(f"unknown column {cond.col!r}")
    if cond.op not in OPS:
        raise QueryError(f"unknown operator {cond.op!r}")
    lit = cond.value
    if isinstance(lit, (float, np.floating)) and not math.isfinite(lit):
        raise QueryError(f"literal {lit!r} for {cond.col} is not finite")
    try:
        v = info.encode_literal(lit)
    except (TypeError, ValueError) as e:
        raise QueryError(f"bad literal {lit!r} for {cond.col}: {e}") from None
    if v is None:
        return FULL if cond.op == "!=" else EMPTY
    if not math.isfinite(v):
        raise QueryError(f"literal {lit!r} for {cond.col} is out of range")
    return cond_region(cond.op, v)


@dataclass(frozen=True)
class Leaf:
    """Plan node: column ``col`` (its index) lies in ``region``."""

    col: int
    region: Region


@dataclass(frozen=True)
class Combine:
    """Plan node: AND (``kind == "and"``) or OR over ``parts``."""

    kind: str
    parts: tuple


Plan = Union[Leaf, Combine]


def compile(node: Node, infos_by_name: dict) -> Plan:
    """Compile a WHERE tree into a plan, running the delayed
    transformation (Sec. 5.2) once, bottom-up: a subtree on one column
    becomes one :class:`Leaf` with its exact region. In a group over
    several columns, each column's single-column children merge, with the
    group's kind, into one ``Leaf`` (in order of first appearance); the
    multi-column children follow in their order. A one-part ``Combine``
    is kept: for OR, ``1 - (1 - p)`` is not ``p`` in floats.

    Raises :class:`QueryError` for a node that is not a ``Cond`` or a
    ``Group``, a group kind other than ``and``/``or`` and an empty group,
    besides the literal errors of :func:`encode_cond`."""
    if isinstance(node, Cond):
        region = encode_cond(node, infos_by_name)  # first: it names an unknown column
        return Leaf(infos_by_name[node.col].index, region)
    if not isinstance(node, Group):
        raise QueryError(f"a WHERE clause is a Cond/Group tree, not {type(node).__name__}")
    if node.kind not in ("and", "or"):
        raise QueryError(f"unknown group kind {node.kind!r}")
    if not node.children:
        raise QueryError("empty condition group")
    merge = region_intersect if node.kind == "and" else region_union
    by_col: dict[int, list[Region]] = {}
    others = []
    for ch in node.children:
        p = compile(ch, infos_by_name)
        if isinstance(p, Leaf):
            by_col.setdefault(p.col, []).append(p.region)
        else:
            others.append(p)
    leaves = [Leaf(j, reduce(merge, rs)) for j, rs in by_col.items()]
    if len(leaves) == 1 and not others:
        return leaves[0]
    return Combine(node.kind, (*leaves, *others))


def region_union(r1: Region, r2: Region) -> Region:
    """Union of two regions, merging integer-adjacent intervals."""
    ivs = sorted(list(r1) + list(r2))
    out: list[tuple] = []
    for a, b in ivs:
        if out and a <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return tuple(out)


def region_intersect(r1: Region, r2: Region) -> Region:
    out = []
    for a1, b1 in r1:
        for a2, b2 in r2:
            a, b = max(a1, a2), min(b1, b2)
            if a <= b:
                out.append((a, b))
    return tuple(sorted(out))


class Bounded(NamedTuple):
    """A per-bin vector with its lower and upper bounds: a coverage (Eqs.
    14, 22–23), a satisfaction probability or a weighting (Eqs. 24–29)."""

    est: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def map(self, f) -> "Bounded":
        """``f`` applied to the vector and to each of its bounds."""
        return Bounded(f(self.est), f(self.lo), f(self.hi))


def region_coverage(region: Region, hist: Hist1D, M: int, alpha: float) -> Bounded:
    """Coverage of ``region`` for every bin of ``hist``: a column's 1-d
    histogram or one dimension of a pair (``Hist2D.dim_i``/``dim_j``).

    The bins are sorted and disjoint: an occupied bin ``t`` holds
    values in ``[e_t, e_{t+1})`` (the last bin also takes its upper edge).
    So an interval covers every occupied bin strictly between the two bins
    its ends fall in, and only those two end bins can be covered in part.
    """
    edges, uniq = hist.edges, hist.uniq
    k = len(uniq)
    beta = np.zeros(k)
    touched: set[int] = set()
    for a, b in region:
        t_a = min(max(int(edges.searchsorted(a, "right")) - 1, 0), k - 1)
        t_b = min(max(int(edges.searchsorted(b, "right")) - 1, 0), k - 1)
        if t_b > t_a + 1:
            beta[t_a + 1 : t_b] += uniq[t_a + 1 : t_b] > 0
        for t in {t_a, t_b}:
            beta[t] += _end_bin_coverage(
                float(a), float(b), float(hist.vmin[t]), float(hist.vmax[t]), int(uniq[t])
            )
        touched.update((t_a, t_b))
    np.minimum(beta, 1.0, out=beta)  # the clip to [0, 1]: no term is negative
    lo = beta.copy()
    hi = beta.copy()
    # Bins strictly inside an interval have beta in {0, 1}, where the
    # bounds equal beta; only fractional end bins need Eqs. 22–23.
    idx = sorted(touched)
    if any(0.0 < beta[t] < 1.0 for t in idx):
        idx = np.array(idx)
        lo[idx], hi[idx] = coverage_bounds(
            beta[idx], hist.counts[idx].astype(np.float64), uniq[idx], M, alpha
        )
    return Bounded(beta, lo, hi)


def _end_bin_coverage(a: float, b: float, vmin: float, vmax: float, u: int) -> float:
    """Coverage of ``[a, b]`` for one bin with extrema ``vmin``/``vmax`` and
    ``u`` unique values (Eqs. 15–16)."""
    cl = max(a, vmin)
    ch = min(b, vmax)
    if u <= 0 or cl > ch:
        return 0.0
    if a <= vmin and b >= vmax:
        return 1.0
    if u == 2:
        # Only the extrema exist; a partial interval covers one extremum
        # (0.5 each, Eq. 16 row 3) or neither (0).
        return 0.5 * ((cl <= vmin) + (ch >= vmax))
    if u > 2:
        if cl == ch:
            # Single covered point in a multi-valued bin: equality (Eq. 15).
            return 1.0 / u
        return (ch - cl + 1.0) / (vmax - vmin + 1.0)
    return 0.0


def coverage_bounds(
    beta: np.ndarray, h: np.ndarray, uniq: np.ndarray, M: int, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eqs. 22–23: exact for beta in {0,1}; adversarial single-point bounds
    for bins below the uniformity threshold; Theorem-2 partial-count bounds
    for bins that passed the test.

    It runs on the few end bins of a region's intervals, so it loops over
    Python floats: cheaper than numpy masks at that size."""
    lo = beta.copy()
    hi = beta.copy()
    for t, (b, n, u) in enumerate(zip(beta.tolist(), h.tolist(), uniq.tolist())):
        if not (0.0 < b < 1.0 and n > 0):
            continue
        if not tested(n, M):
            lo[t] = min(b, 1.0 / n)
            hi[t] = max(b, 1.0 - 1.0 / n)
            continue
        s = sub_bin_count(int(u))
        if s < 2:
            continue
        crit = chi2_critical(alpha, s)
        a = math.floor(b * s)
        c = math.ceil(b * s)
        lo_t = 0.0
        if a > 0:
            lo_t = (a / s) * (1.0 - math.sqrt(crit * (s - a) / (n * a)))
        hi_t = 1.0
        if c < s:
            hi_t = (c / s) * (1.0 + math.sqrt(crit * (s - c) / (n * c)))
        lo[t] = min(b, max(0.0, lo_t))
        hi[t] = max(b, min(1.0, hi_t))
    return lo, hi
