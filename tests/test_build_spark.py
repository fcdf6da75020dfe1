"""Tests for the distributed Algorithm-1 build (Spark DataFrame path)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.build import build_local, build_synopsis, default_min_points
from repro.core.model import map_fine_to_coarse
from repro.core.storage import serialize
from repro.gd import greedygd
from repro.gd.preprocess import encode_pandas


class TestDefaultM:
    def test_one_percent_rule(self):
        assert default_min_points(100_000) == 1000
        assert default_min_points(10_000) == 100

    def test_floor(self):
        assert default_min_points(100) == 8


class TestLineitemBuild:
    def test_structure(self, lineitem_built):
        res, li = lineitem_built
        ph = res.ph
        assert ph.d == 4
        assert len(ph.hists2d) == 6  # all column pairs
        assert ph.n_rows == li.count()
        assert 0 < ph.n_sample <= 6000
        assert ph.M == default_min_points(ph.n_sample)

    def test_counts_sum_to_sample(self, lineitem_built):
        res, _ = lineitem_built
        ph = res.ph
        for h in ph.hists1d:
            assert h.counts.sum() == ph.n_sample  # no nulls in lineitem
        for h2 in ph.hists2d.values():
            assert h2.counts.sum() == ph.n_sample

    def test_marginals_consistent(self, lineitem_built):
        res, _ = lineitem_built
        ph = res.ph
        for (i, j), h2 in ph.hists2d.items():
            for axis, col in ((1, i), (0, j)):
                marg = h2.counts.sum(axis=axis)
                fine = h2.edges_i if axis == 1 else h2.edges_j
                fmap = map_fine_to_coarse(fine, ph.hists1d[col].edges)
                agg = np.bincount(fmap, weights=marg, minlength=ph.hists1d[col].k)
                np.testing.assert_allclose(agg, ph.hists1d[col].counts)

    def test_gd_plan_present(self, lineitem_built):
        res, _ = lineitem_built
        assert res.gd_plan is not None
        assert set(res.gd_plan.columns) == {i.name for i in res.infos}

    def test_timings_recorded(self, lineitem_built):
        res, _ = lineitem_built
        assert {"profile", "sample", "gd", "hist1d", "hist2d"} <= set(res.timings)


class TestBuildVariants:
    @pytest.fixture(scope="class")
    def small_df(self, spark):
        rng = np.random.default_rng(3)
        n = 5000
        pdf = pd.DataFrame(
            {
                "u": rng.integers(0, 100, n).astype(float),
                "v": np.round(rng.normal(50, 12, n)).clip(0, 100),
            }
        )
        return spark.createDataFrame(pdf), pdf

    def test_without_gd_bases(self, small_df):
        sdf, _ = small_df
        res = build_synopsis(sdf, n_sample=3000, use_gd_bases=False)
        assert res.gd_plan is None
        assert res.ph.d == 2

    def test_sampling_caps_ns(self, small_df):
        sdf, _ = small_df
        res = build_synopsis(sdf, n_sample=1000)
        assert res.ph.n_sample <= 1000
        assert res.ph.rho <= 1000 / 5000 * 1.01

    def test_explicit_m_and_alpha(self, small_df):
        sdf, _ = small_df
        res = build_synopsis(sdf, n_sample=2000, M=500, alpha=0.05)
        assert res.ph.M == 500
        assert res.ph.alpha == 0.05

    def test_null_column_handled(self, spark):
        pdf = pd.DataFrame(
            {
                "x": np.arange(2000, dtype=float),
                "y": np.where(np.arange(2000) % 3 == 0, np.nan, 5.0),
            }
        )
        res = build_synopsis(spark.createDataFrame(pdf), n_sample=2000)
        ph = res.ph
        # y's 1-d histogram only counts non-null values
        assert ph.hists1d[1].counts.sum() < ph.n_sample
        assert ph.hists1d[0].counts.sum() == ph.n_sample

    def test_compute_gd_stats(self, small_df):
        sdf, _ = small_df
        res = build_synopsis(sdf, n_sample=2000, compute_gd_stats=True)
        assert res.gd_stats is not None
        assert res.gd_stats.n_rows == 5000

    def test_bases_seed_initial_edges(self, small_df):
        """With GD bases the uniform column must get multi-bin structure
        (initial edges), not collapse to one bin."""
        sdf, _ = small_df
        res = build_synopsis(sdf, n_sample=4000)
        assert res.ph.hists1d[0].k > 4


class TestSparkMatchesKernel:
    """At rho = 1 on one partition the Spark build samples every row in
    order, so it must give the kernel's synopsis over the same frame byte
    for byte. The frame has the cases a build must not trip on: a partly
    null column, an all-null column, a categorical column and a pair of
    columns with no pairwise-complete row."""

    N = 3000

    @pytest.fixture(scope="class")
    def frame(self):
        rng = np.random.default_rng(11)
        n = self.N
        even = np.arange(n) % 2 == 0
        return pd.DataFrame(
            {
                "x": rng.integers(0, 500, n).astype(float),
                "partly_null": np.where(
                    rng.random(n) < 0.3, np.nan, np.round(rng.normal(100, 20, n))
                ),
                "all_null": np.full(n, np.nan),
                "cat": rng.choice(["red", "green", "blue", "grey"], n, p=[0.4, 0.3, 0.2, 0.1]),
                "even_rows": np.where(even, rng.integers(0, 50, n), np.nan),
                "odd_rows": np.where(~even, rng.integers(0, 80, n), np.nan),
            }
        )

    @pytest.mark.parametrize("use_gd_bases", [True, False])
    def test_serialized_bytes_equal(self, spark, frame, use_gd_bases):
        res = build_synopsis(
            spark.createDataFrame(frame).coalesce(1),
            n_sample=self.N,
            use_gd_bases=use_gd_bases,
        )
        ph = res.ph
        assert ph.n_sample == ph.n_rows == self.N
        assert ph.hists1d[2].counts.sum() == 0  # all_null
        assert ph.hists2d[(4, 5)].counts.sum() == 0  # even_rows x odd_rows

        enc = encode_pandas(frame, res.infos)
        seeds = None
        if use_gd_bases:
            assert greedygd.choose_plan(enc, res.infos) == res.gd_plan
            max_edges = max(2, math.ceil(self.N / ph.M))
            seeds = {
                c: v[: 10 * max_edges] for c, v in greedygd.base_edges(enc, res.gd_plan).items()
            }
        ranges = {i.name: (0.0, float(i.encoded_max)) for i in res.infos}
        local = build_local(enc, seeds=seeds, ranges=ranges)
        assert serialize(local) == serialize(ph)
