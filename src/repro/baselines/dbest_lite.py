"""DBEst++-lite — per-query-template mixture-density models [21].

DBEst++ answers aggregates with two learned models per *query template*
(aggregation column, predicate column): a density model of the predicate
column and a regression model E[agg | pred], both mixture density
networks. Here the density is a 1-d Gaussian mixture fit by EM and the
regression is a genuine (small) mixture density network implemented in
numpy — one tanh hidden layer, mixture head, Adam training with manual
backprop. Queries integrate ``p(x) * E[y|x]`` over the predicate region
on a grid.

Shares DBEst++'s documented limitations (Sec. 2 / 6): one model per
template (synopsis size and training time grow with the workload), at
most two columns per query, no OR between different columns, no
MIN/MAX/MEDIAN, no bounds.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines import Unsupported, conjunction
from repro.core import coverage as cov
from repro.gd.preprocess import ColumnInfo
from repro.queries import NO_ANSWER, AQPResult, Query, QueryError, node_columns
from repro.stats import norm_cdf

#: Gaussian components of a density (at most; fewer for few unique values).
_GMM_K = 6
#: EM iterations of a density fit.
_GMM_ITERS = 60
#: hidden units and mixture components of a regression network.
_MDN_HIDDEN = 48
_MDN_K = 5
#: Adam minibatch size and learning rate of a regression fit.
_MDN_BATCH = 256
_MDN_LR = 2e-3


# ---------------------------------------------------------------------------
# Density: 1-d Gaussian mixture via EM


@dataclass
class GMM1D:
    weights: np.ndarray
    mus: np.ndarray
    sigmas: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, seed: int = 0) -> "GMM1D":
        rng = np.random.default_rng(seed)
        x = x[~np.isnan(x)]
        if len(x) == 0:
            return cls(np.ones(1), np.zeros(1), np.ones(1))
        k = min(_GMM_K, max(1, len(np.unique(x))))
        mus = np.quantile(x, np.linspace(0.05, 0.95, k))
        sig = max(x.std() / k, 1e-3)
        sigmas = np.full(k, sig)
        w = np.full(k, 1.0 / k)
        for _ in range(_GMM_ITERS):
            # E-step (log-domain for stability)
            z = (x[:, None] - mus[None, :]) / sigmas[None, :]
            logp = -0.5 * z**2 - np.log(sigmas[None, :]) + np.log(w[None, :] + 1e-300)
            logp -= logp.max(axis=1, keepdims=True)
            r = np.exp(logp)
            r /= r.sum(axis=1, keepdims=True)
            nk = r.sum(axis=0) + 1e-12
            w = nk / nk.sum()
            mus = (r * x[:, None]).sum(axis=0) / nk
            sigmas = np.sqrt((r * (x[:, None] - mus[None, :]) ** 2).sum(axis=0) / nk)
            sigmas = np.maximum(sigmas, 1e-3)
        return cls(w, mus, sigmas)

    def cdf(self, v: float) -> float:
        return float((self.weights * norm_cdf((v - self.mus) / self.sigmas)).sum())

    def prob_region(self, region: cov.Region) -> float:
        p = 0.0
        for a, b in region:
            p += self.cdf(b + 0.5) - self.cdf(a - 0.5)
        return float(np.clip(p, 0.0, 1.0))

    def pdf(self, xs: np.ndarray) -> np.ndarray:
        z = (xs[:, None] - self.mus[None, :]) / self.sigmas[None, :]
        comp = np.exp(-0.5 * z**2) / (self.sigmas[None, :] * np.sqrt(2 * np.pi))
        return comp @ self.weights

    @property
    def n_params(self) -> int:
        return 3 * len(self.weights)


# ---------------------------------------------------------------------------
# Regression: numpy mixture density network


class MDN:
    """1-input mixture density network: tanh hidden layer -> K Gaussians."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.W1 = rng.normal(0, 0.5, (1, _MDN_HIDDEN))
        self.b1 = np.zeros(_MDN_HIDDEN)
        self.W2 = rng.normal(0, 0.1, (_MDN_HIDDEN, 3 * _MDN_K))
        self.b2 = np.zeros(3 * _MDN_K)
        self.x_mu = self.y_mu = 0.0
        self.x_sd = self.y_sd = 1.0

    @property
    def n_params(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def _forward(self, xs: np.ndarray):
        h = np.tanh(xs[:, None] @ self.W1 + self.b1)
        out = h @ self.W2 + self.b2
        K = _MDN_K
        logits, mu, logsig = out[:, :K], out[:, K : 2 * K], np.clip(out[:, 2 * K :], -4, 4)
        logits = logits - logits.max(axis=1, keepdims=True)
        pi = np.exp(logits)
        pi /= pi.sum(axis=1, keepdims=True)
        return h, pi, mu, np.exp(logsig), logsig

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int = 60, seed: int = 0) -> None:
        ok = ~(np.isnan(x) | np.isnan(y))
        x, y = x[ok], y[ok]
        if len(x) == 0:
            return
        self.x_mu, self.x_sd = float(x.mean()), float(x.std() or 1.0)
        self.y_mu, self.y_sd = float(y.mean()), float(y.std() or 1.0)
        xs = (x - self.x_mu) / self.x_sd
        ys = (y - self.y_mu) / self.y_sd
        rng = np.random.default_rng(seed)
        params = [self.W1, self.b1, self.W2, self.b2]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        t = 0
        for _ in range(epochs):
            order = rng.permutation(len(xs))
            for s in range(0, len(xs), _MDN_BATCH):
                idx = order[s : s + _MDN_BATCH]
                xb, yb = xs[idx], ys[idx]
                grads = self._grads(xb, yb)
                t += 1
                for p, g, mi, vi in zip(params, grads, m, v):
                    mi *= 0.9
                    mi += 0.1 * g
                    vi *= 0.999
                    vi += 0.001 * g * g
                    mhat = mi / (1 - 0.9**t)
                    vhat = vi / (1 - 0.999**t)
                    p -= _MDN_LR * mhat / (np.sqrt(vhat) + 1e-8)

    def _grads(self, xb: np.ndarray, yb: np.ndarray):
        n = len(xb)
        h, pi, mu, sig, _ = self._forward(xb)
        z = (yb[:, None] - mu) / sig
        log_comp = -0.5 * z**2 - np.log(sig) + np.log(pi + 1e-300)
        mx = log_comp.max(axis=1, keepdims=True)
        r = np.exp(log_comp - mx)
        r /= r.sum(axis=1, keepdims=True)  # responsibilities
        # d NLL / d outputs (standard MDN gradients)
        d_logits = (pi - r) / n
        d_mu = (r * (-z / sig)) / n
        d_logsig = (r * (1.0 - z**2)) / n
        d_out = np.concatenate([d_logits, d_mu, d_logsig], axis=1)
        gW2 = h.T @ d_out
        gb2 = d_out.sum(axis=0)
        dh = d_out @ self.W2.T * (1 - h**2)
        gW1 = xb[:, None].T @ dh
        gb1 = dh.sum(axis=0)
        return [gW1, gb1, gW2, gb2]

    def predict_moments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(E[y|x], E[y^2|x]) in the original y scale."""
        xs = (np.asarray(x, dtype="float64") - self.x_mu) / self.x_sd
        _, pi, mu, sig, _ = self._forward(xs)
        m1s = (pi * mu).sum(axis=1)
        m2s = (pi * (mu**2 + sig**2)).sum(axis=1)
        m1 = self.y_mu + self.y_sd * m1s
        m2 = self.y_mu**2 + 2 * self.y_mu * self.y_sd * m1s + self.y_sd**2 * m2s
        return m1, m2


# ---------------------------------------------------------------------------
# Templates + engine


@dataclass
class Template:
    agg_col: str
    pred_col: str
    density: GMM1D
    reg: MDN | None  # None when agg == pred (identity regression)
    train_seconds: float = 0.0

    @property
    def size_bytes(self) -> int:
        return 8 * self.density.n_params + (4 * self.reg.n_params if self.reg else 0)


class DBEstLite:
    """Per-template AQP engine over an encoded sample of N total rows."""

    SUPPORTED = ("COUNT", "SUM", "AVG", "VAR")

    def __init__(self, sample: pd.DataFrame, infos: list[ColumnInfo], n_rows: int,
                 mdn_epochs: int = 60, seed: int = 0):
        self.sample = sample
        self.infos = infos
        self.by_name = {i.name: i for i in infos}
        self.n_rows = n_rows
        self.mdn_epochs = mdn_epochs
        self.seed = seed
        self.templates: dict[tuple[str, str], Template] = {}

    # -- training ---------------------------------------------------------
    def train_template(self, agg_col: str, pred_col: str) -> Template:
        key = (agg_col, pred_col)
        if key in self.templates:
            return self.templates[key]
        t0 = time.perf_counter()
        x = self.sample[pred_col].to_numpy(dtype="float64")
        density = GMM1D.fit(x, seed=self.seed)
        reg = None
        if agg_col != pred_col:
            y = self.sample[agg_col].to_numpy(dtype="float64")
            reg = MDN(seed=self.seed)
            reg.fit(x, y, epochs=self.mdn_epochs, seed=self.seed)
        tpl = Template(agg_col, pred_col, density, reg, time.perf_counter() - t0)
        self.templates[key] = tpl
        return tpl

    @property
    def size_bytes(self) -> int:
        return sum(t.size_bytes for t in self.templates.values())

    @property
    def train_seconds(self) -> float:
        return sum(t.train_seconds for t in self.templates.values())

    # -- query support ----------------------------------------------------
    def pred_region(self, q: Query) -> tuple[str, cov.Region]:
        """The predicate column of ``q`` and its region. Only queries on one
        predicate column are supported (DBEst++ limitation)."""
        cols = node_columns(q.where)
        if q.where is None or len(cols) != 1:
            raise Unsupported("DBEst++-lite needs exactly one predicate column")
        return next(iter(conjunction(q.where, self.by_name).items()))

    def supports(self, q: Query) -> bool:
        if q.func not in self.SUPPORTED or q.group_by is not None:
            return False
        try:
            self.pred_region(q)
            return True
        except Unsupported:
            return False

    def execute(self, q: Query) -> AQPResult:
        if q.func not in self.SUPPORTED:
            raise Unsupported(f"DBEst++-lite does not answer {q.func!r}")
        if q.group_by is not None:
            raise Unsupported("DBEst++-lite does not answer GROUP BY")
        if q.col not in self.by_name:
            raise QueryError(f"unknown column {q.col!r}")
        pred_col, region = self.pred_region(q)
        tpl = self.train_template(q.col, pred_col)
        p = tpl.density.prob_region(region)
        if q.func == "COUNT":
            # COUNT(agg col) ignores agg-col nulls; approximate with the
            # non-null fraction of the training sample.
            nn = float(self.sample[q.col].notna().mean())
            return AQPResult(self.n_rows * p * nn, None, None)
        if p <= 0:
            return NO_ANSWER
        # grid integration of p(x) * E[y|x] over the region
        xs, weights = [], []
        for a, b in region:
            lo = a if np.isfinite(a) else float(np.nanmin(self.sample[pred_col]))
            hi = b if np.isfinite(b) else float(np.nanmax(self.sample[pred_col]))
            if hi < lo:
                continue
            g = np.linspace(lo, hi, 96)
            xs.append(g)
            weights.append(np.full(len(g), (hi - lo + 1e-9) / len(g)))
        if not xs:
            return NO_ANSWER
        xs = np.concatenate(xs)
        wts = np.concatenate(weights)
        px = tpl.density.pdf(xs) * wts
        mass = px.sum()
        if mass <= 0:
            return NO_ANSWER
        if tpl.reg is None:
            m1 = float((px * xs).sum() / mass)
            m2 = float((px * xs**2).sum() / mass)
        else:
            e1, e2 = tpl.reg.predict_moments(xs)
            m1 = float((px * e1).sum() / mass)
            m2 = float((px * e2).sum() / mass)
        est = {"AVG": m1, "SUM": self.n_rows * p * m1, "VAR": max(m2 - m1 * m1, 0.0)}[q.func]
        count = AQPResult(self.n_rows * p, None, None)
        return self.by_name[q.col].decode(q.func, AQPResult(est, None, None), count)
