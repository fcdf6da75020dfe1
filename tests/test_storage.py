"""Tests for the Sec. 4.3 storage encoding: bit packing, Golomb coding,
dense/sparse counts and full synopsis round-trips."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import storage
from repro.core.storage import (
    BitReader,
    BitWriter,
    CorruptSynopsis,
    bits_per_count,
    deserialize,
    eq12_bound,
    golomb_decode,
    golomb_encode,
    golomb_parameter,
    serialize,
    synopsis_bytes,
)


class TestBits:
    def test_roundtrip_fixed_width(self):
        vals = np.array([0, 1, 5, 7, 3])
        w = BitWriter()
        w.write_bits(vals, 3)
        r = BitReader(w.getvalue())
        np.testing.assert_array_equal(r.read_bits(5, 3), vals)

    def test_roundtrip_wide(self):
        vals = np.array([2**40, 123456789, 0])
        w = BitWriter()
        w.write_bits(vals, 41)
        r = BitReader(w.getvalue())
        np.testing.assert_array_equal(r.read_bits(3, 41), vals)

    def test_unary(self):
        w = BitWriter()
        for q in (0, 3, 7):
            w.write_unary(q)
        r = BitReader(w.getvalue())
        assert [r.read_unary() for _ in range(3)] == [0, 3, 7]

    @given(st.lists(st.integers(0, 2**20), min_size=0, max_size=50), st.integers(1, 21))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, vals, width):
        vals = [v & ((1 << width) - 1) for v in vals]
        w = BitWriter()
        w.write_bits(np.array(vals, dtype=np.int64), width)
        r = BitReader(w.getvalue())
        got = r.read_bits(len(vals), width)
        np.testing.assert_array_equal(got, vals)


class TestGolomb:
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, vals):
        arr = np.array(vals, dtype=np.int64)
        m = golomb_parameter(arr)
        w = BitWriter()
        golomb_encode(w, arr, m)
        r = BitReader(w.getvalue())
        np.testing.assert_array_equal(golomb_decode(r, len(arr), m), arr)

    def test_geometric_data_compresses(self):
        rng = np.random.default_rng(0)
        gaps = rng.geometric(0.2, 500) - 1
        m = golomb_parameter(gaps)
        w = BitWriter()
        golomb_encode(w, gaps, m)
        assert w.n_bits < 16 * len(gaps)  # far below fixed 16-bit coding

    def test_parameter_positive(self):
        assert golomb_parameter(np.array([])) == 1
        assert golomb_parameter(np.array([0, 0])) >= 1


class TestBitsPerCount:
    @pytest.mark.parametrize("mx,expected", [(0, 1), (1, 1), (2, 2), (7, 3), (255, 8), (256, 9)])
    def test_eq13(self, mx, expected):
        assert bits_per_count(np.array([0, mx])) == expected


class TestSynopsisRoundtrip:
    def test_roundtrip_equal(self, toy_ph):
        blob = serialize(toy_ph)
        ph2 = deserialize(blob)
        assert ph2.n_rows == toy_ph.n_rows
        assert ph2.n_sample == toy_ph.n_sample
        assert ph2.M == toy_ph.M
        assert ph2.alpha == toy_ph.alpha
        assert ph2.d == toy_ph.d
        for h1, h2 in zip(toy_ph.hists1d, ph2.hists1d):
            np.testing.assert_allclose(h1.edges, h2.edges)
            np.testing.assert_array_equal(h1.counts, h2.counts)
            np.testing.assert_allclose(h1.vmin, h2.vmin)
            np.testing.assert_allclose(h1.vmax, h2.vmax)
            np.testing.assert_array_equal(h1.uniq, h2.uniq)
        for key, p1 in toy_ph.hists2d.items():
            p2 = ph2.hists2d[key]
            np.testing.assert_array_equal(p1.counts, p2.counts)
            np.testing.assert_allclose(p1.edges_i, p2.edges_i)
            np.testing.assert_allclose(p1.edges_j, p2.edges_j)
            np.testing.assert_allclose(p1.meta_i.vmin, p2.meta_i.vmin)
            np.testing.assert_array_equal(p1.meta_j.uniq, p2.meta_j.uniq)

    def test_deserialized_answers_identically(self, toy_ph, toy_infos):
        from repro.core.engine import PHEngine
        from repro.queries import Cond, Query

        eng1 = PHEngine(toy_ph, toy_infos)
        eng2 = PHEngine(deserialize(serialize(toy_ph)), toy_infos)
        q = Query("SUM", "a", Cond("b", "<", 480.0))
        r1, r2 = eng1.execute(q), eng2.execute(q)
        assert r1.est == pytest.approx(r2.est)
        assert r1.lo == pytest.approx(r2.lo)
        assert r1.hi == pytest.approx(r2.hi)

    def test_bad_magic_rejected(self, toy_ph):
        blob = b"XXXX" + serialize(toy_ph)[4:]
        with pytest.raises(CorruptSynopsis):
            deserialize(blob)

    def test_size_sub_mb(self, toy_ph):
        # the headline property: sub-MB synopses (Table 1)
        assert synopsis_bytes(toy_ph) < 1_000_000

    def test_sparse_helps_sparse_counts(self):
        """A mostly-zero count matrix must pick the sparse encoding and
        beat dense packing."""
        flat = np.zeros(10_000, dtype=np.int64)
        flat[::500] = 1000
        enc = storage._encode_counts(flat)
        dense_cost = 10_000 * bits_per_count(flat) / 8
        assert len(enc) < dense_cost / 2
        dec, _ = storage._decode_counts(enc, 0, len(flat))
        np.testing.assert_array_equal(dec, flat)

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(1)
        flat = rng.integers(0, 300, 512)
        enc = storage._encode_counts(flat)
        dec, off = storage._decode_counts(enc, 0, len(flat))
        np.testing.assert_array_equal(dec, flat)
        assert off == len(enc)


class TestCorruptSynopsis:
    @pytest.fixture(scope="class")
    def small_blob(self):
        """A 2-column synopsis with a dense and a sparse count block."""
        from repro.core.build import build_local

        rng = np.random.default_rng(5)
        x = rng.integers(0, 300, 600).astype(float)
        pdf = pd.DataFrame({"x": x, "y": np.round(x + rng.normal(0, 3, 600))})
        seeds = {c: np.unique(np.quantile(pdf[c], np.linspace(0, 1, 24)).round()) for c in pdf}
        ph = build_local(pdf, seeds=seeds)
        blocks = [h.counts.reshape(-1) for h in [*ph.hists1d, *ph.hists2d.values()]]
        assert {storage._encode_counts(c)[0] for c in blocks} == {0, 1}
        return serialize(ph)

    def test_every_truncation_rejected(self, small_blob):
        for cut in range(len(small_blob)):
            with pytest.raises(CorruptSynopsis):
                deserialize(small_blob[:cut])

    def test_trailing_bytes_rejected(self, small_blob):
        assert serialize(deserialize(small_blob)) == small_blob
        for tail in (b"\x00", b"PWH1", bytes(100)):
            with pytest.raises(CorruptSynopsis, match="trailing"):
                deserialize(small_blob + tail)

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            deserialize(b"")


class TestEq12:
    def test_bound_positive_and_ordered(self, toy_ph):
        b = eq12_bound(toy_ph)
        assert b > 0
        # measured size should be within a small factor of the paper bound
        measured = synopsis_bytes(toy_ph)
        assert measured < 20 * b
