"""IDEBench-lite — dataset scale-up (Sec. 6, scaled experiments).

The paper uses IDEBench [22] to scale Power and Flights to 10^9 rows.
IDEBench "generates synthetic data by applying normalisation and Gaussian
models" (Sec. 6.3) — this module implements exactly that family: numeric
columns are rank-normalised per column and jointly modelled with a
Gaussian copula (correlation matrix + per-column empirical quantiles);
categoricals are sampled from their empirical frequencies; null fractions
are preserved. Generation is distributed with ``mapInPandas`` over
``spark.range`` partitions.

Substitution note (DESIGN.md): we scale to 10^6-ish rows, not 10^9 — the
sampling-ratio code path (rho << 1) is exercised identically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.gd.preprocess import _decimals_from, _rounding_errors
from repro.stats import norm_cdf

_Q = 512  # quantile grid resolution per numeric column


@dataclass
class ColumnModel:
    name: str
    kind: str  # 'num' | 'cat'
    quantiles: np.ndarray | None = None  # inverse-cdf grid for 'num'
    decimals: int = 0
    categories: list | None = None
    probs: np.ndarray | None = None
    null_frac: float = 0.0
    integer: bool = False


@dataclass
class IdeBenchModel:
    columns: list[ColumnModel]
    chol: np.ndarray  # Cholesky factor of the numeric-column correlation

    @property
    def numeric_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == "num"]


def fit(pdf: pd.DataFrame) -> IdeBenchModel:
    """Fit the normalisation + Gaussian model to an original dataset."""
    cols: list[ColumnModel] = []
    z_cols = {}
    for name in pdf.columns:
        s = pdf[name]
        null_frac = float(s.isna().mean())
        if s.dtype == object:
            vc = s.dropna().value_counts()
            cols.append(
                ColumnModel(
                    name,
                    "cat",
                    categories=list(vc.index),
                    probs=(vc / vc.sum()).to_numpy(),
                    null_frac=null_frac,
                )
            )
            continue
        vals = s.dropna().to_numpy(dtype="float64")
        # The profile scan's detector, over the whole column.
        dec = _decimals_from(_rounding_errors(vals), float(np.abs(vals).max(initial=0.0)))
        grid = np.quantile(vals, np.linspace(0, 1, _Q)) if len(vals) else np.zeros(_Q)
        cols.append(
            ColumnModel(
                name,
                "num",
                quantiles=grid,
                decimals=dec,
                null_frac=null_frac,
                integer=bool(np.issubdtype(s.dtype, np.integer)),
            )
        )
        # rank-normalise for the copula (Spearman -> Gaussian correlation)
        ranks = s.rank(pct=True).to_numpy()
        z_cols[name] = np.clip(np.nan_to_num(ranks, nan=0.5), 1e-4, 1 - 1e-4)
    num_names = [c.name for c in cols if c.kind == "num"]
    if num_names:
        Z = np.column_stack([z_cols[c] for c in num_names])
        rho_s = np.atleast_2d(np.corrcoef(Z, rowvar=False))
        rho_s = np.nan_to_num(rho_s, nan=0.0)
        np.fill_diagonal(rho_s, 1.0)
        corr = 2.0 * np.sin(np.pi * rho_s / 6.0)  # Spearman -> Pearson
        # regularise for Cholesky
        corr = 0.98 * corr + 0.02 * np.eye(len(num_names))
        chol = np.linalg.cholesky(corr)
    else:
        chol = np.zeros((0, 0))
    return IdeBenchModel(cols, chol)


def generate_pandas(model: IdeBenchModel, n: int, seed: int = 0) -> pd.DataFrame:
    """``n`` rows drawn from ``model``, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    num_names = model.numeric_names
    out = {}
    if num_names:
        u = norm_cdf(rng.standard_normal((n, len(num_names))) @ model.chol.T)
    for c in model.columns:
        if c.kind == "cat":
            vals = pd.Series(rng.choice(c.categories, size=n, p=c.probs), dtype=object)
            if c.null_frac > 0:
                vals[rng.random(n) < c.null_frac] = None
            out[c.name] = vals
            continue
        k = num_names.index(c.name)
        v = np.interp(u[:, k], np.linspace(0, 1, _Q), c.quantiles)
        v = np.round(v, c.decimals)
        if c.integer:
            v = np.round(v)
        s = pd.Series(v)
        if c.null_frac > 0:
            s[rng.random(n) < c.null_frac] = np.nan
        elif c.integer:
            s = s.astype(np.int64)
        out[c.name] = s
    return pd.DataFrame(out)


def generate_spark(
    spark: SparkSession, model: IdeBenchModel, n: int, seed: int = 0, partitions: int = 32
) -> DataFrame:
    """Distributed generation: each partition of ``spark.range`` samples
    its share of rows independently (deterministic in seed + partition)."""
    per = int(np.ceil(n / partitions))
    schema = ", ".join(
        f"`{c.name}` {'string' if c.kind == 'cat' else ('double' if (c.null_frac > 0 or not c.integer) else 'long')}"
        for c in model.columns
    )

    def gen(iterator):
        for pdf in iterator:
            for pid in pdf["id"].tolist():
                take = min(per, n - pid * per)
                if take <= 0:
                    continue
                yield generate_pandas(model, take, seed * 100_003 + pid)

    return spark.range(partitions).repartition(partitions).mapInPandas(gen, schema=schema)
