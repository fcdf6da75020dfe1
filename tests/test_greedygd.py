"""Tests for the GreedyGD base/deviation compressor, including a
differential check of the packed-key plan search against the void-view
row counter and plan search kept below as the reference."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import DATASETS
from repro.gd import greedygd
from repro.gd.preprocess import ColumnInfo, _decimals_needed, encode, encode_pandas, profile


def _infos(pdf):
    return [
        ColumnInfo(c, k, "int", maxval=float(np.nanmax(pdf[c])))
        for k, c in enumerate(pdf.columns)
    ]


@pytest.fixture(scope="module")
def redundant_pdf():
    """IoT-like: smooth values whose high bits repeat a lot."""
    rng = np.random.default_rng(0)
    n = 6000
    base = rng.integers(0, 16, n) * 256  # 16 distinct high-bit patterns
    return pd.DataFrame(
        {
            "s1": (base + rng.integers(0, 256, n)).astype(float),
            "s2": (base // 2 + rng.integers(0, 128, n)).astype(float),
        }
    )


class TestPlan:
    def test_plan_moves_noise_bits_to_deviation(self, redundant_pdf):
        plan = greedygd.choose_plan(redundant_pdf, _infos(redundant_pdf))
        assert plan.dev_bits["s1"] >= 6  # low 8 bits are noise
        assert all(0 <= plan.dev_bits[c] <= plan.total_bits[c] for c in plan.columns)

    def test_plan_on_incompressible_data(self):
        rng = np.random.default_rng(1)
        pdf = pd.DataFrame({"r": rng.integers(0, 2**20, 4000).astype(float)})
        plan = greedygd.choose_plan(pdf, _infos(pdf))
        # everything is noise: nearly all bits should be deviation
        assert plan.dev_bits["r"] >= plan.total_bits["r"] - 4

    def test_empty_sample(self):
        pdf = pd.DataFrame({"x": pd.Series([], dtype="float64")})
        plan = greedygd.choose_plan(pdf, [ColumnInfo("x", 0, "int", maxval=10)])
        assert plan.dev_bits["x"] == 0


class TestSplitReconstruct:
    @pytest.mark.parametrize("dev_bits", [0, 3, 8, 17])
    def test_lossless(self, dev_bits):
        rng = np.random.default_rng(2)
        vals = rng.integers(0, 2**24, 1000)
        base, dev = greedygd.split_rows(vals, dev_bits)
        np.testing.assert_array_equal(greedygd.reconstruct(base, dev, dev_bits), vals)
        assert (dev < 2**dev_bits).all() or dev_bits == 0


class TestCompressStats:
    def test_redundant_data_compresses(self, spark, redundant_pdf):
        infos = _infos(redundant_pdf)
        sdf = spark.createDataFrame(redundant_pdf)
        enc = encode(sdf, profile(sdf))
        plan = greedygd.choose_plan(redundant_pdf, infos)
        stats = greedygd.compress_stats(enc, plan)
        assert stats.n_rows == len(redundant_pdf)
        assert stats.n_bases < stats.n_rows / 3
        assert stats.ratio > 1.0

    def test_base_count_at_least_distinct_patterns(self, spark, redundant_pdf):
        infos = _infos(redundant_pdf)
        sdf = spark.createDataFrame(redundant_pdf)
        enc = encode(sdf, profile(sdf))
        plan = greedygd.choose_plan(redundant_pdf, infos)
        stats = greedygd.compress_stats(enc, plan)
        assert stats.n_bases >= 16  # at least the planted pattern count


class TestBaseEdges:
    def test_edges_are_shifted_bases(self, redundant_pdf):
        plan = greedygd.choose_plan(redundant_pdf, _infos(redundant_pdf))
        edges = greedygd.base_edges(redundant_pdf, plan)
        b = plan.dev_bits["s1"]
        vals = edges["s1"].astype(np.int64)
        assert ((vals >> b) << b == vals).all()
        assert np.all(np.diff(vals) > 0)

    def test_nan_tolerated(self):
        pdf = pd.DataFrame({"x": [1.0, np.nan, 255.0, 257.0]})
        plan = greedygd.GDPlan(["x"], {"x": 4}, {"x": 10})
        edges = greedygd.base_edges(pdf, plan)
        assert len(edges["x"]) >= 1


# -- differential: packed-key counting vs. the void-view reference -------------


def reference_n_unique_rows(arr: np.ndarray) -> int:
    """Distinct row count of an int64 matrix via a contiguous void view."""
    a = np.ascontiguousarray(arr)
    return len(np.unique(a.view([("", a.dtype)] * a.shape[1])))


def reference_choose_plan(sample, infos, max_iters=None) -> greedygd.GDPlan:
    """The plan search with one void-view ``np.unique`` per candidate and
    per phase-1 shift."""
    cols = [i.name for i in infos]
    vals = np.nan_to_num(sample[cols].to_numpy(dtype="float64"), nan=0.0).astype(np.int64)
    vals = np.abs(vals)
    total_bits = {
        i.name: greedygd._bits_needed(max(int(i.encoded_max), int(vals[:, k].max(initial=0))))
        for k, i in enumerate(infos)
    }
    dev = {c: 0 for c in cols}
    n = len(vals)
    if n == 0:
        return greedygd.GDPlan(cols, dev, total_bits)

    def size_for(dev_map):
        shifts = np.array([dev_map[c] for c in cols], dtype=np.int64)
        nb = reference_n_unique_rows(vals >> shifts)
        base_row = sum(total_bits[c] - dev_map[c] for c in cols)
        return greedygd._size_bits(n, nb, base_row, sum(dev_map.values()))

    def dev_for_cap(col_idx, cap):
        v = vals[:, col_idx]
        for b in range(total_bits[cols[col_idx]] + 1):
            if len(np.unique(v >> b)) <= cap:
                return b
        return total_bits[cols[col_idx]]

    best = size_for(dev)
    for cap in (1, 2, 4, 8, 16, 32, 64, 128):
        trial = {c: dev_for_cap(k, cap) for k, c in enumerate(cols)}
        sz = size_for(trial)
        if sz < best:
            best, dev = sz, trial
    iters = max_iters if max_iters is not None else 16 * len(cols)
    for _ in range(iters):
        candidate_best = None
        for c in cols:
            for k in (1, 2, 4, 8):
                nd = dev[c] + k
                if nd > total_bits[c]:
                    continue
                trial = dict(dev)
                trial[c] = nd
                sz = size_for(trial)
                if sz < best and (candidate_best is None or sz < candidate_best[0]):
                    candidate_best = (sz, c, nd)
        if candidate_best is None:
            break
        best, move, bits = candidate_best
        dev[move] = bits
    return greedygd.GDPlan(cols, dev, total_bits)


def _matrix(columns, n, seed):
    """``n`` rows; column k draws from ``card`` random values below
    ``2**width`` for ``(width, card) = columns[k]``, so rows repeat and
    distinct rows may differ in a single column."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, len(columns)), dtype=np.int64)
    for k, (w, card) in enumerate(columns):
        top = np.iinfo(np.int64).max if w == 63 else (1 << w) - 1
        pool = rng.integers(0, top, size=card, endpoint=True)
        out[:, k] = pool[rng.integers(0, card, size=n)]
    return out


_COLUMNS = st.lists(st.tuples(st.integers(0, 63), st.integers(1, 4)), min_size=1, max_size=40)


class TestDistinctRows:
    @settings(max_examples=300, deadline=None)
    @given(columns=_COLUMNS, n=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
    @example(columns=[(63, 4)], n=50, seed=0)
    @example(columns=[(0, 1)] * 40, n=30, seed=1)
    @example(columns=[(5, 3), (63, 2), (0, 1), (63, 4)], n=40, seed=2)
    @example(columns=[(20, 4)] * 40, n=1, seed=3)
    @example(columns=[(39, 4)] * 40, n=0, seed=4)
    @example(columns=[(17, 1), (33, 1), (40, 1)], n=60, seed=5)  # all rows equal
    def test_matches_void_view_counter(self, columns, n, seed):
        bases = _matrix(columns, n, seed)
        widths = [w for w, _ in columns]
        assert greedygd._n_distinct_rows(bases, widths) == reference_n_unique_rows(bases)

    def test_rows_differing_only_in_the_first_column_stay_apart(self):
        # 40 + 40 + 40 bits overflow one word: without re-ranking, the
        # first column is shifted out and both rows share a key.
        bases = np.array([[1 << 39, 7, 9], [0, 7, 9]], dtype=np.int64)
        assert greedygd._n_distinct_rows(bases, [40, 40, 40]) == 2

    @settings(max_examples=100, deadline=None)
    @given(width=st.integers(0, 63), card=st.integers(1, 80), n=st.integers(1, 80),
           seed=st.integers(0, 2**32 - 1))
    def test_cardinality_table_matches_unique(self, width, card, n, seed):
        v = _matrix([(width, card)], n, seed)[:, 0]
        table = greedygd._cardinalities(v, width)
        assert table.tolist() == [len(np.unique(v >> b)) for b in range(width + 1)]


def _driver_infos(pdf: pd.DataFrame) -> list[ColumnInfo]:
    """``profile``'s ColumnInfo computed on the driver: frequency-ranked
    categories, min subtraction and decimal scale."""
    infos = []
    for k, c in enumerate(pdf.columns):
        s = pdf[c]
        if s.dtype == object:
            counts = s.dropna().value_counts()
            cats = sorted(counts.index, key=lambda v: (-counts[v], v))
            codes = {v: i for i, v in enumerate(cats)}
            infos.append(ColumnInfo(c, k, "cat", categories=cats, cat_codes=codes))
            continue
        v = s.to_numpy(dtype="float64")
        kind = "float" if s.dtype.kind == "f" else "int"
        scale = 10.0 ** _decimals_needed(v) if kind == "float" else 1.0
        infos.append(
            ColumnInfo(c, k, kind, scale=scale, minval=float(np.nanmin(v)), maxval=float(np.nanmax(v)))
        )
    return infos


class TestPlanMatchesReference:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_same_plan_on_every_dataset(self, name):
        pdf = DATASETS[name].generate(2000)
        infos = _driver_infos(pdf)
        enc = encode_pandas(pdf, infos)
        plan = greedygd.choose_plan(enc, infos)
        assert plan == reference_choose_plan(enc, infos)
