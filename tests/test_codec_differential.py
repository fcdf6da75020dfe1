"""Differential tests of the whole-array write-path kernels: the Golomb
encoder and decoder of Sec. 4.3 and the per-bin metadata of Algorithm 1
must give exactly what the per-value and per-bin loops kept below as the
reference give."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import storage
from repro.core.model import MarginalMeta
from repro.core.refine import _bin_index, _group_slices, marginal_meta
from repro.core.storage import (
    BitReader,
    BitWriter,
    CorruptSynopsis,
    golomb_decode,
    golomb_encode,
)


def reference_golomb_encode(writer: BitWriter, values: np.ndarray, m: int) -> None:
    """One unary run and one remainder write per value."""
    b = max(1, 1 << max(0, int(math.ceil(math.log2(m))))) if m > 1 else 1
    width = int(math.log2(b)) if b > 1 else 0
    for v in np.asarray(values, dtype=np.int64):
        q, r = divmod(int(v), b)
        writer.write_unary(q)
        if width:
            writer.write_bits(np.array([r]), width)


def reference_golomb_decode(reader: BitReader, n: int, m: int) -> np.ndarray:
    """Walks the unary runs one bit at a time."""
    b = max(1, 1 << max(0, int(math.ceil(math.log2(m))))) if m > 1 else 1
    width = int(math.log2(b)) if b > 1 else 0
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        q = reader.read_unary()
        r = int(reader.read_bits(1, width)[0]) if width else 0
        out[i] = q * b + r
    return out


def reference_marginal_meta(values: np.ndarray, edges: np.ndarray) -> MarginalMeta:
    """One ``min``/``max``/``np.unique`` per occupied bin."""
    k = len(edges) - 1
    vmin = edges[:-1].copy()
    vmax = edges[1:].copy()
    uniq = np.zeros(k, dtype=np.int64)
    if len(values) == 0:
        return MarginalMeta(vmin, vmax, uniq)
    idx = _bin_index(values, edges)
    order, starts, gkeys = _group_slices(idx)
    sv = values[order]
    bounds = np.concatenate((starts, [len(sv)]))
    for g, t in enumerate(gkeys):
        seg = sv[bounds[g] : bounds[g + 1]]
        vmin[t] = seg.min()
        vmax[t] = seg.max()
        uniq[t] = len(np.unique(seg))
    return MarginalMeta(vmin, vmax, uniq)


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
        assert got.n_bits == want.n_bits
        assert got.getvalue() == want.getvalue()

    @given(gap_lists, params, prefixes, st.lists(st.integers(0, 1), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_decoder_inverts_the_encoder(self, gaps, m, prefix, suffix):
        arr = np.array(gaps, dtype=np.int64)
        w = _writer(prefix)
        golomb_encode(w, arr, m)
        end = w.n_bits
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
        r.bits = r.bits[: data.draw(st.integers(0, w.n_bits - 1))]
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
        for got in (
            marginal_meta(values, edges),
            marginal_meta(values, edges, _bin_index(values, edges)),
        ):
            assert np.array_equal(got.vmin, want.vmin)
            assert np.array_equal(got.vmax, want.vmax)
            assert np.array_equal(got.uniq, want.uniq)
            assert got.uniq.dtype == want.uniq.dtype
