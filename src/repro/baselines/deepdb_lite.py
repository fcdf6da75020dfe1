"""DeepDB-lite — a Sum-Product-Network AQP baseline in the spirit of
DeepDB's RSPNs [20].

Structure learning follows the SPN recipe: rows are split by k-means
clustering (Sum nodes, weighted by cluster size), columns are split into
independence groups via rank-correlation thresholding (Product nodes),
histograms at the leaves. Queries are answered inferentially:
``COUNT = N * P(pred)``, ``SUM = N * E[X * 1(pred)]``, ``AVG`` as their
ratio, with CLT-based confidence bounds (z at 99 %, the paper's Table 6
setting for DeepDB).

Deliberately shares DeepDB's *reported* limitations (Sec. 2 / 6): AND-only
predicates (no OR), COUNT/SUM/AVG only — no VAR/MIN/MAX/MEDIAN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.baselines import Unsupported, conjunction
from repro.core import coverage as cov
from repro.gd.preprocess import ColumnInfo
from repro.queries import Node, Query, QueryError
from repro.stats import Z_99


# ---------------------------------------------------------------------------
# Leaves


@dataclass
class Leaf:
    col: int
    lo: np.ndarray  # per-bin lower value
    hi: np.ndarray  # per-bin upper value (== lo for point bins)
    prob: np.ndarray  # bin probability (over non-null values)
    p_null: float

    @property
    def n_params(self) -> int:
        return 3 * len(self.lo) + 1

    def _overlap(self, region: cov.Region) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fraction covered, covered-lo, covered-hi) per bin."""
        frac = np.zeros_like(self.prob)
        clo = np.full_like(self.lo, np.inf)
        chi = np.full_like(self.hi, -np.inf)
        for a, b in region:
            cl = np.maximum(a, self.lo)
            ch = np.minimum(b, self.hi)
            hit = cl <= ch
            width = self.hi - self.lo
            f = np.where(width > 0, (ch - cl + 1.0) / (width + 1.0), 1.0)
            frac = np.where(hit, np.minimum(1.0, frac + f), frac)
            clo = np.where(hit, np.minimum(clo, cl), clo)
            chi = np.where(hit, np.maximum(chi, ch), chi)
        miss = frac == 0.0
        clo = np.where(miss, self.lo, clo)
        chi = np.where(miss, self.hi, chi)
        return frac, clo, chi

    def prob_region(self, region: cov.Region | None) -> float:
        # An unconstrained column contributes no factor (else every
        # nullable column would shrink every query's probability).
        if region is None:
            return 1.0
        frac, _, _ = self._overlap(region)
        return float((self.prob * frac).sum()) * (1.0 - self.p_null)

    def moments_region(self, region: cov.Region | None) -> tuple[float, float]:
        """(E[X * 1(region)], E[X^2 * 1(region)]) over the leaf, treating
        partially-covered bins as uniform on the covered sub-range."""
        if region is None:
            frac = np.ones_like(self.prob)
            cl, ch = self.lo, self.hi
        else:
            frac, cl, ch = self._overlap(region)
        mid = (cl + ch) / 2.0
        m1 = float((self.prob * frac * mid).sum()) * (1.0 - self.p_null)
        # E[X^2] of a uniform segment = (cl^2 + cl*ch + ch^2) / 3
        seg2 = (cl**2 + cl * ch + ch**2) / 3.0
        m2 = float((self.prob * frac * seg2).sum()) * (1.0 - self.p_null)
        return m1, m2


def _build_leaf(col: int, values: np.ndarray, max_bins: int = 64) -> Leaf:
    ok = values[~np.isnan(values)]
    p_null = 1.0 - len(ok) / len(values) if len(values) else 0.0
    if len(ok) == 0:
        return Leaf(col, np.zeros(1), np.zeros(1), np.ones(1), 1.0)
    uv, counts = np.unique(ok, return_counts=True)
    if len(uv) <= max_bins:
        prob = counts / counts.sum()
        return Leaf(col, uv.astype(float), uv.astype(float), prob, p_null)
    qs = np.quantile(ok, np.linspace(0, 1, max_bins + 1))
    qs = np.unique(qs)
    hist, edges = np.histogram(ok, bins=qs)
    prob = hist / hist.sum()
    return Leaf(col, edges[:-1], edges[1:], prob, p_null)


# ---------------------------------------------------------------------------
# Internal nodes


@dataclass
class ProductNode:
    children: list

    @property
    def n_params(self) -> int:
        return sum(c.n_params for c in self.children)


@dataclass
class SumNode:
    weights: np.ndarray
    children: list

    @property
    def n_params(self) -> int:
        return len(self.weights) + sum(c.n_params for c in self.children)


def _prob(node, regions: dict[int, cov.Region]) -> float:
    if isinstance(node, Leaf):
        return node.prob_region(regions.get(node.col))
    if isinstance(node, ProductNode):
        p = 1.0
        for c in node.children:
            p *= _prob(c, regions)
        return p
    return float(sum(w * _prob(c, regions) for w, c in zip(node.weights, node.children)))


def _moments(node, agg: int, regions: dict[int, cov.Region]) -> tuple[float, float]:
    """(E[X_agg 1(regions)], E[X_agg^2 1(regions)]) by SPN recursion."""
    if isinstance(node, Leaf):
        if node.col == agg:
            r = regions.get(agg)
            return node.moments_region(r)
        p = node.prob_region(regions.get(node.col))
        return p, p  # multiplicative factor applied by the Product parent
    if isinstance(node, ProductNode):
        m1 = m2 = 1.0
        for c in node.children:
            c1, c2 = _moments(c, agg, regions)
            m1 *= c1
            m2 *= c2
        return m1, m2
    m1 = m2 = 0.0
    for w, c in zip(node.weights, node.children):
        c1, c2 = _moments(c, agg, regions)
        m1 += w * c1
        m2 += w * c2
    return m1, m2


# ---------------------------------------------------------------------------
# Structure learning


def _kmeans2(X: np.ndarray, rng, iters: int = 8) -> np.ndarray:
    mu = X[rng.choice(len(X), 2, replace=False)]
    lab = np.zeros(len(X), dtype=int)
    for _ in range(iters):
        d0 = ((X - mu[0]) ** 2).sum(axis=1)
        d1 = ((X - mu[1]) ** 2).sum(axis=1)
        lab = (d1 < d0).astype(int)
        if lab.all() or not lab.any():
            break
        mu = np.stack([X[lab == 0].mean(axis=0), X[lab == 1].mean(axis=0)])
    return lab


def _column_groups(X: np.ndarray, thresh: float) -> list[list[int]]:
    d = X.shape[1]
    R = pd.DataFrame(X).rank().to_numpy()
    C = np.corrcoef(R, rowvar=False)
    C = np.nan_to_num(np.atleast_2d(C), nan=0.0)
    adj = np.abs(C) > thresh
    seen = np.zeros(d, dtype=bool)
    groups = []
    for s in range(d):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in np.flatnonzero(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        groups.append(sorted(comp))
    return groups


def _learn(
    X: np.ndarray, cols: list[int], rng, min_instances: int, thresh: float, depth: int
):
    n, d = X.shape
    if d == 1:
        return _build_leaf(cols[0], X[:, 0])
    if n < min_instances or depth > 12:
        return ProductNode([_build_leaf(cols[k], X[:, k]) for k in range(d)])
    filled = np.where(np.isnan(X), np.nanmean(np.where(np.isnan(X), np.nan, X), axis=0), X)
    filled = np.nan_to_num(filled, nan=0.0)
    # RSPN-style: the first levels cluster rows before any column split,
    # so per-cluster marginals are captured (this is also what makes real
    # DeepDB models MB-sized).
    force_rows = depth < 2 and n >= 2 * min_instances
    if not force_rows:
        groups = _column_groups(filled, thresh)
        if len(groups) > 1:
            return ProductNode(
                [_learn(X[:, g], [cols[k] for k in g], rng, min_instances, thresh, depth + 1) for g in groups]
            )
    std = filled.std(axis=0)
    std[std == 0] = 1.0
    lab = _kmeans2((filled - filled.mean(axis=0)) / std, rng)
    if lab.all() or not lab.any():
        return ProductNode([_build_leaf(cols[k], X[:, k]) for k in range(d)])
    parts = [X[lab == 0], X[lab == 1]]
    w = np.array([len(p) for p in parts], dtype=float)
    return SumNode(
        w / w.sum(),
        [_learn(p, cols, rng, min_instances, thresh, depth + 1) for p in parts],
    )


# ---------------------------------------------------------------------------
# Public engine


class DeepDBLite:
    """SPN-based AQP over an encoded sample of ``N`` total rows."""

    SUPPORTED = ("COUNT", "SUM", "AVG")

    def __init__(
        self,
        sample: pd.DataFrame,
        infos: list[ColumnInfo],
        n_rows: int,
        min_instances: int = 400,
        corr_thresh: float = 0.3,
        seed: int = 0,
    ):
        self.infos = infos
        self.by_name = {i.name: i for i in infos}
        self.col_idx = {i.name: k for k, i in enumerate(infos)}
        self.n_rows = n_rows
        self.n_train = len(sample)
        X = sample[[i.name for i in infos]].to_numpy(dtype="float64")
        self.root = _learn(
            X, list(range(len(infos))), np.random.default_rng(seed), min_instances, corr_thresh, 0
        )

    @property
    def size_bytes(self) -> int:
        return 4 * self.root.n_params

    # -- query support ----------------------------------------------------
    def _regions(self, node: Node | None) -> dict[int, cov.Region]:
        """AND-only predicate tree -> per-column region intersection."""
        if node is None:
            return {}
        return {self.col_idx[c]: r for c, r in conjunction(node, self.by_name).items()}

    def supports(self, q: Query) -> bool:
        if q.func not in self.SUPPORTED or q.group_by is not None:
            return False
        try:
            self._regions(q.where)
            return True
        except Unsupported:
            return False

    def execute(self, q: Query):
        from repro.core.engine import AQPResult

        if q.func not in self.SUPPORTED:
            raise Unsupported(q.func)
        if q.group_by is not None:
            raise Unsupported("DeepDB-lite does not answer GROUP BY")
        if q.col not in self.col_idx:
            raise QueryError(f"unknown column {q.col!r}")
        regions = self._regions(q.where)
        agg = self.col_idx[q.col]
        # The aggregation column must be non-null (COUNT(col) semantics).
        regions.setdefault(agg, cov.FULL)
        p = _prob(self.root, regions)
        info = self.by_name[q.col]
        se_p = np.sqrt(max(p * (1 - p), 0.0) / self.n_train)
        if q.func == "COUNT":
            est = self.n_rows * p
            return AQPResult(
                est,
                max(0.0, self.n_rows * (p - Z_99 * se_p)),
                self.n_rows * (p + Z_99 * se_p),
            )
        m1, m2 = _moments(self.root, agg, regions)
        se_m = np.sqrt(max(m2 - m1 * m1, 0.0) / self.n_train)
        if q.func == "SUM":
            est = self.n_rows * m1
            lo = self.n_rows * (m1 - Z_99 * se_m)
            hi = self.n_rows * (m1 + Z_99 * se_m)
            dec = lambda v, c: v / info.scale + info.minval * c  # noqa: E731
            cnt = self.n_rows * p
            cnt_lo = max(0.0, self.n_rows * (p - Z_99 * se_p))
            cnt_hi = self.n_rows * (p + Z_99 * se_p)
            if info.minval >= 0:
                return AQPResult(dec(est, cnt), dec(lo, cnt_lo), dec(hi, cnt_hi))
            return AQPResult(dec(est, cnt), dec(lo, cnt_hi), dec(hi, cnt_lo))
        # AVG
        if p <= 0:
            return AQPResult(None, None, None)
        est = m1 / p
        lo = (m1 - Z_99 * se_m) / max(p + Z_99 * se_p, 1e-12)
        hi = (m1 + Z_99 * se_m) / max(p - Z_99 * se_p, 1e-12)
        dec1 = lambda v: v / info.scale + info.minval  # noqa: E731
        return AQPResult(dec1(est), dec1(min(lo, est)), dec1(max(hi, est)))
