"""Differential tests of the whole-array write-path kernels: the Golomb
encoder and decoder of Sec. 4.3, the per-bin counts and metadata of
Algorithm 1 (``refine.bin_stats``), the pass loop of 1-d and 2-d
refinement and the 2-d count grid must give exactly what the per-value
and per-bin loops kept below and in ``tests/reference.py`` give."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import storage
from repro.core.hypothesis import is_uniform
from repro.core.model import Hist1D
from repro.core.refine import (
    MAX_BINS_1D,
    _bin_index,
    _group_slices,
    _split_point,
    bin_stats,
    refine_1d,
    refine_2d,
)
from repro.core.storage import (
    BitReader,
    BitWriter,
    CorruptSynopsis,
    golomb_decode,
    golomb_encode,
)
from tests.reference import n_bits, read_unary, reference_refine_2d, write_unary


def reference_golomb_encode(writer: BitWriter, values: np.ndarray, m: int) -> None:
    """One unary run and one remainder write per value."""
    b = max(1, 1 << max(0, int(math.ceil(math.log2(m))))) if m > 1 else 1
    width = int(math.log2(b)) if b > 1 else 0
    for v in np.asarray(values, dtype=np.int64):
        q, r = divmod(int(v), b)
        write_unary(writer, q)
        if width:
            writer.write_bits(np.array([r]), width)


def reference_golomb_decode(reader: BitReader, n: int, m: int) -> np.ndarray:
    """Walks the unary runs one bit at a time."""
    b = max(1, 1 << max(0, int(math.ceil(math.log2(m))))) if m > 1 else 1
    width = int(math.log2(b)) if b > 1 else 0
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        q = read_unary(reader)
        r = int(reader.read_bits(1, width)[0]) if width else 0
        out[i] = q * b + r
    return out


def reference_marginal_meta(values: np.ndarray, edges: np.ndarray) -> Hist1D:
    """One ``len``/``min``/``max``/``np.unique`` per occupied bin."""
    k = len(edges) - 1
    counts = np.zeros(k, dtype=np.int64)
    vmin = edges[:-1].copy()
    vmax = edges[1:].copy()
    uniq = np.zeros(k, dtype=np.int64)
    if len(values) == 0:
        return Hist1D(edges, counts, vmin, vmax, uniq)
    idx = _bin_index(values, edges)
    order, starts, gkeys = _group_slices(idx)
    sv = values[order]
    bounds = np.concatenate((starts, [len(sv)]))
    for g, t in enumerate(gkeys):
        seg = sv[bounds[g] : bounds[g + 1]]
        counts[t] = len(seg)
        vmin[t] = seg.min()
        vmax[t] = seg.max()
        uniq[t] = len(np.unique(seg))
    return Hist1D(edges, counts, vmin, vmax, uniq)


def _reference_refine_1d_rec(x, e_lo, e_hi, M, alpha, out) -> None:
    """Algorithm 2, emitting each leaf bin's upper edge and metadata as
    it goes (no bin cap: the tests' columns stay far below
    ``MAX_BINS_1D``)."""

    def emit(vmin, vmax, uniq):
        out["edges"].append(e_hi)
        out["vmin"].append(vmin)
        out["vmax"].append(vmax)
        out["uniq"].append(uniq)

    if len(x) == 0:
        return emit(e_lo, e_hi, 0)
    uvals = np.unique(x)
    nu = len(uvals)
    if nu == 1:
        return emit(uvals[0], uvals[0], 1)
    if len(x) < M or is_uniform(x, e_lo, e_hi, nu, alpha).uniform:
        return emit(uvals[0], uvals[-1], nu)
    z = _split_point(x, e_lo, e_hi)
    if z is None:
        return emit(uvals[0], uvals[-1], nu)
    left = x < z
    _reference_refine_1d_rec(x[left], e_lo, z, M, alpha, out)
    _reference_refine_1d_rec(x[~left], z, e_hi, M, alpha, out)


def reference_refine_1d(values, initial_edges, M, alpha) -> Hist1D:
    """The bin-by-bin emitter: metadata per leaf, counts from
    ``np.histogram``."""
    x = np.asarray(values, dtype=np.float64)
    x = x[~np.isnan(x)]
    edges0 = np.asarray(initial_edges, dtype=np.float64)
    out = {"edges": [], "vmin": [], "vmax": [], "uniq": []}
    last = len(edges0) - 2
    for t in range(len(edges0) - 1):
        lo, hi = edges0[t], edges0[t + 1]
        mask = (x >= lo) & ((x <= hi) if t == last else (x < hi))
        _reference_refine_1d_rec(x[mask], lo, hi, M, alpha, out)
    edges = np.concatenate(([edges0[0]], np.asarray(out["edges"])))
    counts, _ = np.histogram(x, bins=edges)
    return Hist1D(
        edges,
        counts.astype(np.int64),
        np.asarray(out["vmin"], dtype=np.float64),
        np.asarray(out["vmax"], dtype=np.float64),
        np.asarray(out["uniq"], dtype=np.int64),
    )


def assert_hist_equal(got: Hist1D, want: Hist1D) -> None:
    for name in ("edges", "counts", "vmin", "vmax", "uniq"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g, w), name
        assert g.dtype == w.dtype, name


# m covers 1 (no remainder bits), powers of two and their neighbours, and
# the largest parameter the count header can hold.
params = st.one_of(
    st.integers(1, 70),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 4096, 65535]),
)
gap_lists = st.one_of(
    st.lists(st.integers(0, 300), max_size=60),
    st.lists(st.integers(0, 20_000), max_size=4),  # large quotients
)
# A few bits already in the writer, so codewords do not start on a byte.
prefixes = st.lists(st.integers(0, 1), max_size=11)


def _writer(prefix: list[int]) -> BitWriter:
    w = BitWriter()
    w.write_bits(np.array(prefix, dtype=np.int64), 1)
    return w


class TestGolomb:
    @given(gap_lists, params, prefixes)
    @example([], 1, [])
    @example([0, 0, 0], 1, [1])
    @example([20_000, 0, 19_999], 1, [])
    @settings(max_examples=150, deadline=None)
    def test_encoder_writes_the_reference_bits(self, gaps, m, prefix):
        got, want = _writer(prefix), _writer(prefix)
        golomb_encode(got, np.array(gaps, dtype=np.int64), m)
        reference_golomb_encode(want, np.array(gaps, dtype=np.int64), m)
        assert n_bits(got) == n_bits(want)
        assert got.getvalue() == want.getvalue()

    @given(gap_lists, params, prefixes, st.lists(st.integers(0, 1), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_decoder_inverts_the_encoder(self, gaps, m, prefix, suffix):
        arr = np.array(gaps, dtype=np.int64)
        w = _writer(prefix)
        golomb_encode(w, arr, m)
        end = n_bits(w)
        w.write_bits(np.array(suffix, dtype=np.int64), 1)  # data after the codes
        r, ref = BitReader(w.getvalue()), BitReader(w.getvalue())
        r.pos = ref.pos = len(prefix)
        np.testing.assert_array_equal(golomb_decode(r, len(arr), m), arr)
        np.testing.assert_array_equal(reference_golomb_decode(ref, len(arr), m), arr)
        assert r.pos == ref.pos == end

    @given(st.lists(st.integers(0, 300), min_size=1, max_size=30), params, st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_code_is_rejected(self, gaps, m, data):
        w = BitWriter()
        golomb_encode(w, np.array(gaps, dtype=np.int64), m)
        r = BitReader(w.getvalue())
        r.bits = r.bits[: data.draw(st.integers(0, n_bits(w) - 1))]
        with pytest.raises(CorruptSynopsis):
            golomb_decode(r, len(gaps), m)


@st.composite
def count_blocks(draw) -> np.ndarray:
    """Mostly-zero count vectors (so the sparse block wins), with the
    non-zeros anywhere, including only at the end."""
    n = draw(st.integers(1, 3000))
    nz = draw(st.lists(st.integers(0, n - 1), max_size=min(n, 40), unique=True))
    flat = np.zeros(n, dtype=np.int64)
    flat[nz] = draw(st.lists(st.integers(1, 2**20), min_size=len(nz), max_size=len(nz)))
    return flat


class TestCountBlocks:
    @given(count_blocks(), st.binary(max_size=40))
    @example(np.eye(1, 2000, 1999, dtype=np.int64)[0], b"")
    @example(np.eye(1, 2000, 1999, dtype=np.int64)[0] * (2**20), b"\xff" * 40)
    # Many short gaps then one long one: a small divisor, a long unary run.
    @example(np.isin(np.arange(2000), [*range(10), 1999]).astype(np.int64), b"")
    @settings(max_examples=200, deadline=None)
    def test_bounded_read_returns_the_offset_of_the_next_data(self, flat, tail):
        block = storage._encode_counts(flat)
        got, offset = storage._decode_counts(b"abc" + block + tail, 3, len(flat))
        np.testing.assert_array_equal(got, flat)
        assert offset == 3 + len(block)

    def test_the_sparse_block_is_exercised(self):
        flat = np.zeros(2000, dtype=np.int64)
        flat[-1] = 7
        assert storage._encode_counts(flat)[0] == 1


@st.composite
def binned_values(draw) -> tuple[np.ndarray, np.ndarray]:
    """Edges and values with duplicates, empty bins, values on every
    edge including the last one, and values outside the edges."""
    k = draw(st.integers(1, 12))
    widths = draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
    edges = draw(st.integers(-10, 10)) + np.concatenate(([0], np.cumsum(widths))).astype(float)
    if draw(st.booleans()):
        edges[1:-1] += 0.5
    lo, hi = int(edges[0]) - 2, int(edges[-1]) + 2
    pool = st.one_of(st.integers(lo, hi).map(float), st.sampled_from(list(edges)))
    values = np.array(draw(st.lists(pool, max_size=80)), dtype=np.float64)
    return values, edges


class TestMarginalMeta:
    @given(binned_values())
    @example((np.array([]), np.array([0.0, 1.0])))
    @example((np.array([3.0]), np.array([0.0, 2.0, 3.0])))
    @example((np.array([3.0, 3.0, 2.0, 3.0]), np.array([0.0, 2.0, 3.0])))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_bin_loop(self, case):
        values, edges = case
        want = reference_marginal_meta(values, edges)
        (got,) = bin_stats(np.sort(values), [edges])
        assert_hist_equal(got, want)
        # Several histograms in one call each get what they would get alone.
        many = [e for e in (edges, edges[::2], edges[1:], edges) if len(e) > 1]
        for got in bin_stats(np.sort(values), many):
            assert_hist_equal(got, reference_marginal_meta(values, got.edges))


@st.composite
def refine_cases(draw) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer-valued columns over a few initial bins, with runs of one
    value, values on the top edge, NaNs and values outside the edges."""
    lo = draw(st.integers(-5, 5))
    hi = lo + draw(st.integers(1, 40))
    inner = draw(st.lists(st.integers(lo + 1, hi - 1), max_size=3)) if hi - lo > 1 else []
    edges0 = np.unique(np.array([lo, *inner, hi], dtype=np.float64))
    pool = st.one_of(
        st.integers(lo, hi).map(float),
        st.sampled_from([float(hi), float(hi - 1)]),
        st.sampled_from([float("nan"), lo - 3.0, hi + 3.0]),
    )
    values = np.array(draw(st.lists(pool, max_size=300)), dtype=np.float64)
    M = draw(st.sampled_from([1, 2, 4, 8, 20]))
    return values, edges0, M


@st.composite
def pair_values(draw, xs: np.ndarray, ex: np.ndarray) -> np.ndarray:
    """A second column for ``xs`` on [0, 30], with NaNs: drawn on its own,
    or a jittered copy of ``xs`` so the pair is correlated."""
    n = len(xs)
    pool = st.one_of(st.integers(0, 30).map(float), st.just(float("nan")))
    ys = np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=np.float64)
    if draw(st.booleans()):
        jitter = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        ys = np.clip(np.round((xs - ex[0]) * 30 / (ex[-1] - ex[0])) + jitter, 0, 30)
    return ys


class TestRefine:
    @given(refine_cases(), st.sampled_from([0.001, 0.05, 0.5]))
    @example((np.array([9.0] * 30 + [10.0] * 30), np.array([0.0, 10.0]), 8), 0.001)
    @settings(max_examples=400, deadline=None)
    def test_1d_matches_the_bin_by_bin_emitter(self, case, alpha):
        """Below the bin cap the passes split exactly the bins the
        recursion splits."""
        values, edges0, M = case
        got = refine_1d(values, edges0, M, alpha)
        assert_hist_equal(got, reference_refine_1d(values, edges0, M, alpha))
        assert np.all(np.diff(got.edges) > 0)

    @given(
        refine_cases(),
        st.sampled_from([2, 5, MAX_BINS_1D]),
        st.sampled_from([0.001, 0.05, 0.5]),
    )
    @example((np.arange(40.0), np.array([0.0, 20.0, 39.0]), 1), 2, 0.5)
    @settings(max_examples=400, deadline=None)
    def test_1d_cap_keeps_initial_edges(self, case, max_bins, alpha):
        """At most ``max_bins`` bins, or the initial ones if they are
        more, and every initial edge kept."""
        values, edges0, M = case
        got = refine_1d(values, edges0, M, alpha, max_bins)
        assert got.k <= max(max_bins, len(edges0) - 1)
        assert np.all(np.isin(edges0, got.edges))
        assert np.all(np.diff(got.edges) > 0)

    @given(
        refine_cases(),
        st.sampled_from([2, 3, 5, 512]),
        st.sampled_from([0.001, 0.05, 0.5]),
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_2d_matches_the_x_y_pass_loop(self, case, max_bins, alpha, data):
        xs, ex, M = case
        xs = np.where(np.isnan(xs), xs, np.clip(xs, ex[0], ex[-1]))
        ys = data.draw(pair_values(xs, ex))
        ey = np.array([0.0, 30.0])
        got = refine_2d(xs, ys, ex, ey, 0, 1, M, alpha, max_bins)
        want = reference_refine_2d(xs, ys, ex, ey, 0, 1, M, alpha, max_bins)
        assert np.array_equal(got.counts, want.counts)
        assert_hist_equal(got.dim_i, want.dim_i)
        assert_hist_equal(got.dim_j, want.dim_j)

    @given(refine_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_2d_counts_match_histogram2d(self, case, data):
        xs, ex, M = case
        n = len(xs)
        ys = np.array(
            data.draw(st.lists(st.integers(0, 30).map(float), min_size=n, max_size=n)),
            dtype=np.float64,
        )
        # Pairs see the column values their 1-d edges cover.
        xs = np.where(np.isnan(xs), xs, np.clip(xs, ex[0], ex[-1]))
        h2 = refine_2d(xs, ys, ex, np.array([0.0, 30.0]), 0, 1, M, 0.05)
        ok = ~np.isnan(xs)
        want, _, _ = np.histogram2d(xs[ok], ys[ok], bins=[h2.dim_i.edges, h2.dim_j.edges])
        assert np.array_equal(h2.counts, want.astype(np.int64))
        assert_hist_equal(h2.dim_i, reference_marginal_meta(xs[ok], h2.dim_i.edges))
        assert_hist_equal(h2.dim_j, reference_marginal_meta(ys[ok], h2.dim_j.edges))
