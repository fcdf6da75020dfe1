"""PairwiseHist storage encoding — Sec. 4.3, Fig. 6, Eqs. 11–13.

Bin midpoints and weighted-centre bounds are *not* stored (re-derivable).
Bin counts use ``l_h = ceil(log2(1 + max_count))`` bits each (Eq. 13),
stored either densely bit-packed or sparsely (Golomb-coded deltas of the
non-zero indices + packed values), whichever is smaller — the
dense/sparse indicator is one flag byte per histogram. Edges and the
per-bin metadata (min, max and unique count) are float arrays, each
stored as float32 when every value is exactly representable in it, else
as float64 (the paper's ``m`` bytes per value, chosen per array). A pair
stores its count matrix ``H`` and each dimension's edges and metadata;
the dimensions' counts are ``H``'s marginals, rebuilt on load.

``serialize``/``deserialize`` round-trip a full synopsis exactly;
``eq12_bound`` evaluates the paper's storage upper bound for comparison.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from repro.core.model import Hist1D, Hist2D, PairwiseHist

_MAGIC = b"PWH1"


class CorruptSynopsis(ValueError):
    """A synopsis blob that does not decode: bad magic, truncated, with
    bytes after the last histogram, metadata that does not match its bin
    count, or a pair histogram that repeats another or whose columns are
    not ``i < j < d``."""


def _unpack(fmt: str, buf: bytes, offset: int) -> tuple[tuple, int]:
    """``struct.unpack_from`` that raises :class:`CorruptSynopsis` past
    the end of ``buf``; returns the values and the offset after them."""
    end = offset + struct.calcsize(fmt)
    if end > len(buf):
        raise CorruptSynopsis(f"truncated at byte {len(buf)}")
    return struct.unpack_from(fmt, buf, offset), end


# ---------------------------------------------------------------------------
# Bit-level primitives


class BitWriter:
    def __init__(self) -> None:
        self._bits: list[np.ndarray] = []

    def write_bits(self, values: np.ndarray, width: int) -> None:
        """Append ``width`` low bits of every value (vectorized)."""
        if width == 0 or len(values) == 0:
            return
        # Big-endian bytes unpack MSB first; keep the low ``width`` bits.
        v = np.asarray(values).astype(">u8")
        bits = np.unpackbits(v.view(np.uint8).reshape(-1, 8), axis=1)[:, 64 - width :]
        self._bits.append(bits.reshape(-1))

    def getvalue(self) -> bytes:
        if not self._bits:
            return b""
        allbits = np.concatenate(self._bits)
        return np.packbits(allbits).tobytes()


class BitReader:
    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def read_bits(self, n_values: int, width: int) -> np.ndarray:
        if width == 0 or n_values == 0:
            return np.zeros(n_values, dtype=np.int64)
        need = n_values * width
        if self.pos + need > len(self.bits):
            raise CorruptSynopsis("bit-packed values run past the end of the data")
        chunk = self.bits[self.pos : self.pos + need].reshape(n_values, width)
        self.pos += need
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        return (chunk.astype(np.uint64) << shifts[None, :]).sum(axis=1).astype(np.int64)


def golomb_parameter(values: np.ndarray) -> int:
    """Near-optimal Golomb divisor for geometric data: M ~ 0.69 * mean."""
    if len(values) == 0:
        return 1
    return max(1, int(round(0.69 * (float(np.mean(values)) + 1.0))))


def _rice_divisor(m: int) -> tuple[int, int]:
    """The power-of-two divisor ``b >= m`` the codec uses for a Golomb
    parameter ``m``, and the remainder width ``log2(b)``."""
    width = (m - 1).bit_length() if m > 1 else 0
    return 1 << width, width


def golomb_encode(writer: BitWriter, values: np.ndarray, m: int) -> None:
    """Golomb–Rice-style coding: unary quotient + fixed-width remainder
    (a power-of-two divisor keeps the remainder decodable vectorially,
    at a fraction-of-a-bit cost vs. the exact truncated code).

    Each codeword is ``q`` ones, a zero, then the remainder MSB first; all
    codewords are laid out in one bit array."""
    b, width = _rice_divisor(m)
    v = np.asarray(values, dtype=np.int64)
    if len(v) == 0:
        return
    q, r = np.divmod(v, b)
    ends = np.cumsum(q + 1 + width)
    zeros = ends - width - 1  # the terminating zero of each unary run
    bits = np.ones(int(ends[-1]), dtype=np.uint8)
    bits[zeros] = 0
    if width:
        shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
        bits[zeros[:, None] + 1 + np.arange(width)] = (r[:, None] >> shifts) & 1
    writer._bits.append(bits)


def golomb_decode(reader: BitReader, n: int, m: int) -> np.ndarray:
    b, width = _rice_divisor(m)
    bits, start = reader.bits, reader.pos
    if width == 0:
        # No remainder bits, so every zero ends a code.
        z = np.flatnonzero(bits[start:] == 0)[:n] + start
        if len(z) < n:
            raise CorruptSynopsis("Golomb code runs past the end of the data")
        pos = int(z[-1]) + 1 if n else start
    else:
        # A zero among the remainder bits ends nothing: step code by code.
        find = bits.tobytes().find
        pos = start
        zeros = []
        for _ in range(n):
            pos = find(b"\x00", pos)
            if pos < 0:
                raise CorruptSynopsis("Golomb code runs past the end of the data")
            zeros.append(pos)
            pos += 1 + width
        if pos > len(bits):
            raise CorruptSynopsis("Golomb code runs past the end of the data")
        z = np.asarray(zeros, dtype=np.int64)
    reader.pos = pos
    # Each codeword starts right after the previous one's remainder.
    starts = np.empty_like(z)
    starts[:1] = start
    starts[1:] = z[:-1] + 1 + width
    out = (z - starts) * b
    if width and n:
        shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
        rem = bits[z[:, None] + 1 + np.arange(width)].astype(np.int64)
        out += (rem << shifts).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Count matrices (dense vs. sparse, Fig. 6)


def bits_per_count(counts: np.ndarray) -> int:
    """Eq. 13: ``l_h = ceil(log2(1 + max count))``."""
    mx = int(counts.max(initial=0))
    return max(1, math.ceil(math.log2(1 + mx)))


def _encode_counts(flat: np.ndarray) -> bytes:
    lh = bits_per_count(flat)
    nz = np.flatnonzero(flat)
    dense = BitWriter()
    dense.write_bits(flat, lh)
    dense_bytes = dense.getvalue()
    sparse = BitWriter()
    if len(nz):
        gaps = np.diff(np.concatenate(([-1], nz))) - 1
        gm = golomb_parameter(gaps)
        golomb_encode(sparse, gaps, gm)
        sparse.write_bits(flat[nz], lh)
    else:
        gm = 1
    sparse_bytes = sparse.getvalue()
    use_sparse = len(sparse_bytes) + 4 < len(dense_bytes)
    header = struct.pack(
        "<BBHI", 1 if use_sparse else 0, lh, gm if use_sparse else 0, len(nz)
    )
    return header + (sparse_bytes if use_sparse else dense_bytes)


def _decode_counts(buf: bytes, offset: int, n: int) -> tuple[np.ndarray, int]:
    (use_sparse, lh, gm, n_nz), offset = _unpack("<BBHI", buf, offset)
    if not use_sparse:
        n_bytes = math.ceil(n * lh / 8)
        reader = BitReader(buf[offset : offset + n_bytes])
        flat = reader.read_bits(n, lh)
        return flat, offset + n_bytes
    if n_nz > n:
        raise CorruptSynopsis(f"{n_nz} non-zero counts in {n} cells")
    # Sparse: the gaps sum to at most n - n_nz, so the quotients to at most
    # (n - n_nz) // b; this bounds the bits the block can span.
    b, width = _rice_divisor(gm)
    max_bits = n_nz * (1 + width + lh) + (n - n_nz) // b
    reader = BitReader(buf[offset : offset + math.ceil(max_bits / 8)])
    gaps = golomb_decode(reader, n_nz, gm)
    vals = reader.read_bits(n_nz, lh)
    used_bytes = math.ceil(reader.pos / 8)
    flat = np.zeros(n, dtype=np.int64)
    idx = np.cumsum(gaps + 1) - 1
    if n_nz and idx[-1] >= n:
        raise CorruptSynopsis(f"non-zero count at cell {idx[-1]} of {n}")
    flat[idx] = vals
    return flat, offset + used_bytes


# ---------------------------------------------------------------------------
# Arrays / metadata


def _pack_f64(arr: np.ndarray) -> bytes:
    """Pack floats choosing the narrowest exact width (the paper's
    per-dimension m bytes): float32 when every value is exactly
    representable (values below 2^24 at the dyadic grid), else float64."""
    a = np.asarray(arr, dtype="<f8")
    a32 = a.astype("<f4")
    if len(a) and (a32 == a).all():
        return struct.pack("<IB", len(a), 4) + a32.tobytes()
    return struct.pack("<IB", len(a), 8) + a.tobytes()


def _unpack_f64(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    (n, width), offset = _unpack("<IB", buf, offset)
    if width not in (4, 8):
        raise CorruptSynopsis(f"float width {width} at byte {offset - 1}")
    if offset + width * n > len(buf):
        raise CorruptSynopsis(f"truncated at byte {len(buf)}")
    dtype = "<f4" if width == 4 else "<f8"
    arr = np.frombuffer(buf, dtype=dtype, count=n, offset=offset).astype("<f8")
    return arr, offset + width * n


def _pack_meta(h: Hist1D) -> bytes:
    return _pack_f64(h.vmin) + _pack_f64(h.vmax) + _pack_f64(h.uniq.astype(np.float64))


def _unpack_meta(buf: bytes, offset: int, k: int):
    """The metadata of ``k`` bins."""
    vmin, offset = _unpack_f64(buf, offset)
    vmax, offset = _unpack_f64(buf, offset)
    uniq, offset = _unpack_f64(buf, offset)
    if not len(vmin) == len(vmax) == len(uniq) == k:
        raise CorruptSynopsis(
            f"metadata of {len(vmin)}/{len(vmax)}/{len(uniq)} bins for {k} bins"
        )
    return vmin, vmax, uniq.astype(np.int64), offset


def _pack_hist1d(h: Hist1D) -> bytes:
    return _pack_f64(h.edges) + _pack_meta(h) + _encode_counts(h.counts.astype(np.int64))


def _unpack_hist1d(buf: bytes, offset: int) -> tuple[Hist1D, int]:
    edges, offset = _unpack_f64(buf, offset)
    vmin, vmax, uniq, offset = _unpack_meta(buf, offset, len(edges) - 1)
    counts, offset = _decode_counts(buf, offset, len(edges) - 1)
    return Hist1D(edges, counts, vmin, vmax, uniq), offset


def _pack_hist2d(h: Hist2D) -> bytes:
    """The pair's header, both dimensions' edges, both dimensions'
    metadata and ``H``; the dimensions' counts are ``H``'s marginals and
    are not stored."""
    return (
        struct.pack("<II", h.i, h.j)
        + _pack_f64(h.dim_i.edges)
        + _pack_f64(h.dim_j.edges)
        + _pack_meta(h.dim_i)
        + _pack_meta(h.dim_j)
        + _encode_counts(h.counts.reshape(-1).astype(np.int64))
    )


def _unpack_hist2d(buf: bytes, offset: int) -> tuple[Hist2D, int]:
    (i, j), offset = _unpack("<II", buf, offset)
    ei, offset = _unpack_f64(buf, offset)
    ej, offset = _unpack_f64(buf, offset)
    ki, kj = len(ei) - 1, len(ej) - 1
    vmin_i, vmax_i, uniq_i, offset = _unpack_meta(buf, offset, ki)
    vmin_j, vmax_j, uniq_j, offset = _unpack_meta(buf, offset, kj)
    flat, offset = _decode_counts(buf, offset, ki * kj)
    H = flat.reshape(ki, kj)
    dim_i = Hist1D(ei, H.sum(axis=1), vmin_i, vmax_i, uniq_i)
    dim_j = Hist1D(ej, H.sum(axis=0), vmin_j, vmax_j, uniq_j)
    return Hist2D(i, j, H, dim_i, dim_j), offset


# ---------------------------------------------------------------------------
# Public API


def serialize(ph: PairwiseHist) -> bytes:
    out = [
        _MAGIC,
        struct.pack("<QQId", ph.n_rows, ph.n_sample, ph.M, ph.alpha),
        struct.pack("<II", ph.d, len(ph.hists2d)),
    ]
    for h in ph.hists1d:
        out.append(_pack_hist1d(h))
    for h in ph.hists2d.values():
        out.append(_pack_hist2d(h))
    return b"".join(out)


def deserialize(buf: bytes) -> PairwiseHist:
    """Decode a :func:`serialize` blob; raises :class:`CorruptSynopsis`
    on a bad magic, a truncated blob, trailing bytes, metadata of the
    wrong length, a pair ``(i, j)`` that is repeated or not
    ``0 <= i < j < d``, or a pair dimension whose edges are not its
    column's 1-d edges plus interior ones (refinement only adds interior
    edges, queries map the pair's bins onto the 1-d ones, and an append
    clips each column once into the outer edges)."""
    if buf[:4] != _MAGIC:
        raise CorruptSynopsis("bad magic")
    (n_rows, n_sample, M, alpha), offset = _unpack("<QQId", buf, 4)
    (d, n_pairs), offset = _unpack("<II", buf, offset)
    hists1d = []
    for _ in range(d):
        h, offset = _unpack_hist1d(buf, offset)
        hists1d.append(h)
    hists2d = {}
    for _ in range(n_pairs):
        h, offset = _unpack_hist2d(buf, offset)
        if not 0 <= h.i < h.j < d or (h.i, h.j) in hists2d:
            raise CorruptSynopsis(f"pair ({h.i}, {h.j}) in a {d}-column synopsis")
        for c, dim in ((h.i, h.dim_i), (h.j, h.dim_j)):
            fine, coarse = dim.edges, hists1d[c].edges
            pos = fine.searchsorted(coarse)
            at = fine.take(pos, mode="clip")
            if pos[0] != 0 or pos[-1] != len(fine) - 1 or not (at == coarse).all():
                msg = f"pair ({h.i}, {h.j}): column {c}'s 1-d or outer edges differ"
                raise CorruptSynopsis(msg)
        hists2d[(h.i, h.j)] = h
    if offset != len(buf):
        raise CorruptSynopsis(f"{len(buf) - offset} trailing bytes")
    return PairwiseHist(n_rows, n_sample, M, alpha, hists1d, hists2d)


def synopsis_bytes(ph: PairwiseHist) -> int:
    """Measured serialized size — the number we report as synopsis size."""
    return len(serialize(ph))


def eq12_bound(ph: PairwiseHist) -> int:
    """The paper's storage upper bound (Eq. 12) for comparison: params +
    1-d + 2-d edge/metadata terms + bit-packed counts, with ``m_i = 4``
    bytes per edge and metadata value (float32) in every column ``i``."""
    d = ph.d
    total = 29 + d + 4 * d * d
    k1 = {i: ph.hists1d[i].k for i in range(d)}
    m_i = 4
    # sum over i of (3 m_i + 4) * (sum_j k^(i|j) - (d-1) k^(i))
    for i in range(d):
        sum_k = k1[i]  # the 1-d histogram itself
        for (a, b), h2 in ph.hists2d.items():
            if a == i:
                sum_k += h2.dim_i.k
            elif b == i:
                sum_k += h2.dim_j.k
        total += (3 * m_i + 4) * max(0, sum_k - (d - 1) * k1[i])
    for h2 in ph.hists2d.values():
        ki, kj = h2.counts.shape
        total += math.ceil(ki * kj * bits_per_count(h2.counts) / 8)
    for i in range(d):
        total += math.ceil(k1[i] * bits_per_count(ph.hists1d[i].counts) / 8)
    return total
