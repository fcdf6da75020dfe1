"""BuildPairwiseHist (Algorithm 1).

Spark does the work over the full table: profile and GreedyGD-encode the
data, count it, draw the construction sample ``D`` of ``N_s`` rows and,
on request, the full-data GD storage statistics. The sample is then
collected once to the driver, and one pure-numpy kernel
(:func:`build_local`) refines every column histogram (Algorithm 2) and
then every column-pair histogram, seeded with the 1-d edges. The paper's
"each histogram and bin refinement can be computed independently" holds
for the kernel's loops; on the sizes here, running them serially over
the sample beats shipping the sample to Spark tasks once per histogram
(DESIGN.md §3).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.model import Hist2D, PairwiseHist
from repro.core.refine import prepare_initial_edges, refine_1d, refine_2d
from repro.gd import greedygd
from repro.gd.preprocess import ColumnInfo, encode, profile

DEFAULT_ALPHA = 0.001
#: GreedyGD plans and seeds from at most this many sample rows.
GD_SAMPLE_ROWS = 20_000


@dataclass
class BuildResult:
    """Synopsis plus everything the engine and the experiments need."""

    ph: PairwiseHist
    infos: list[ColumnInfo]
    gd_plan: greedygd.GDPlan | None = None
    gd_stats: greedygd.GDStats | None = None
    timings: dict = field(default_factory=dict)


def default_min_points(n_sample: int) -> int:
    """The paper sets M to 1 % of N_s (Sec. 6); floor of 8 keeps the
    chi-squared approximation sane on tiny test samples."""
    return max(8, int(round(0.01 * n_sample)))


def _max_edges(ns: int, M: int) -> int:
    return max(2, math.ceil(ns / M))


def build_synopsis(
    df: DataFrame,
    *,
    n_sample: int,
    M: int | None = None,
    alpha: float = DEFAULT_ALPHA,
    use_gd_bases: bool = True,
    compute_gd_stats: bool = False,
    seed: int = 0,
    infos: list[ColumnInfo] | None = None,
) -> BuildResult:
    """End-to-end Algorithm 1 over a Spark DataFrame.

    ``use_gd_bases=False`` builds PairwiseHist stand-alone (initial edges
    are just min/max, Sec. 3 last paragraph). ``compute_gd_stats`` runs the
    full-data base dedup count (extra Spark jobs) for storage reporting.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if infos is None:
        infos = profile(df)
    timings["profile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    enc = encode(df, infos)
    n_rows = enc.count()
    frac = min(1.0, 1.1 * n_sample / max(1, n_rows))
    sample = enc.sample(fraction=frac, seed=seed).limit(n_sample).toPandas()
    for c in sample.columns:  # Arrow may hand back Int64/object — normalise
        sample[c] = pd.to_numeric(sample[c], errors="coerce").astype("float64")
    ns = len(sample)
    timings["sample"] = time.perf_counter() - t0
    if M is None:
        M = default_min_points(ns)

    # GreedyGD: plan + initial bin edges from (sampled) bases.
    t0 = time.perf_counter()
    gd_plan = gd_stats = None
    seeds = None
    if use_gd_bases:
        head = sample.iloc[:GD_SAMPLE_ROWS]
        gd_plan = greedygd.choose_plan(head, infos)
        seeds = {
            c: v[: 10 * _max_edges(ns, M)]
            for c, v in greedygd.base_edges(head, gd_plan).items()
        }
        if compute_gd_stats:
            gd_stats = greedygd.compress_stats(enc, gd_plan)
    timings["gd"] = time.perf_counter() - t0

    # Widen with the full-data encoded range so sampled extrema don't truncate.
    ranges = {info.name: (0.0, float(info.encoded_max)) for info in infos}
    ph = _refine_all(sample, n_rows, M, alpha, seeds, ranges, timings)
    return BuildResult(ph=ph, infos=infos, gd_plan=gd_plan, gd_stats=gd_stats, timings=timings)


def build_local(
    pdf_encoded: pd.DataFrame,
    *,
    n_rows: int | None = None,
    M: int | None = None,
    alpha: float = DEFAULT_ALPHA,
    seeds: dict[str, np.ndarray] | None = None,
    ranges: dict[str, tuple[float, float]] | None = None,
) -> PairwiseHist:
    """Algorithm 1's refinement over an already-encoded sample frame (NaN
    for nulls): the kernel :func:`build_synopsis` runs on its collected
    sample. ``n_rows`` is the full-population size (defaults to the frame
    itself, i.e. ``rho = 1``). ``seeds`` are per-column GreedyGD base
    values for the initial edges; ``ranges`` are per-column ``(lo, hi)``
    the initial edges must cover beyond the sample's own extrema."""
    return _refine_all(pdf_encoded, n_rows, M, alpha, seeds, ranges, {})


def _refine_all(
    sample: pd.DataFrame,
    n_rows: int | None,
    M: int | None,
    alpha: float,
    seeds: dict[str, np.ndarray] | None,
    ranges: dict[str, tuple[float, float]] | None,
    timings: dict[str, float],
) -> PairwiseHist:
    cols = list(sample.columns)
    ns = len(sample)
    if M is None:
        M = default_min_points(ns)
    max_edges = _max_edges(ns, M)
    values = [sample[c].to_numpy(dtype="float64") for c in cols]

    t0 = time.perf_counter()
    hists1d = []
    for c, v in zip(cols, values):
        vv = v[~np.isnan(v)]
        lo = float(vv.min()) if len(vv) else 0.0
        hi = float(vv.max()) if len(vv) else 1.0
        r_lo, r_hi = (ranges or {}).get(c, (lo, hi))
        lo, hi = min(lo, r_lo), max(hi, r_hi)
        e0 = prepare_initial_edges(lo, hi, (seeds or {}).get(c), max_edges)
        hists1d.append(refine_1d(v, e0, M, alpha))
    timings["hist1d"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    hists2d: dict[tuple[int, int], Hist2D] = {}
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            hists2d[(i, j)] = refine_2d(
                values[i], values[j], hists1d[i].edges, hists1d[j].edges, i, j, M, alpha
            )
    timings["hist2d"] = time.perf_counter() - t0

    return PairwiseHist(
        n_rows=n_rows if n_rows is not None else ns,
        n_sample=ns,
        M=M,
        alpha=alpha,
        hists1d=hists1d,
        hists2d=hists2d,
    )
