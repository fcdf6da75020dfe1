"""Golden bytes of the write path: build, ``append_rows`` and the Sec. 4.3
codec.

A driver-built synopsis (sampling ratio below 1, NaN nulls, a skewed and
a correlated column, so both dense and sparse count blocks occur) absorbs
a fixed, seeded series of batches. Some batches carry NaNs and values
below or above the build-time edges. The ``sha256`` of ``serialize()`` is
pinned after the build and after every batch, and every blob must
re-serialize to itself after ``deserialize``. A change to the codec, the
per-bin metadata or the update path that moves any byte fails here.

To record new hashes after an intended change of the format or of the
update semantics::

    UPDATE_GOLDEN=1 python -m pytest tests/test_write_path_golden.py
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core import storage
from repro.core.build import build_local
from repro.core.storage import deserialize, serialize
from repro.core.update import append_rows

GOLDEN = Path(__file__).parent / "data" / "write_path_golden.json"
N_BUILD = 6_000
N_BATCH = 1_500
N_BATCHES = 8


def _frame(n: int, seed: int, x_hi: int = 1000, y_lo: float = 0.0) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, x_hi, n).astype(float)
    pdf = pd.DataFrame(
        {
            "x": x,
            "y": np.round(0.3 * x + rng.normal(0, 12, n)).clip(y_lo, None),
            "z": (rng.geometric(0.04, n) - 1).astype(float),
            "c": rng.choice(8, n, p=[0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02]).astype(float),
            "v": np.round(rng.normal(200, 4, n)),
        }
    )
    for col, frac in (("x", 0.02), ("z", 0.05), ("v", 0.01)):
        pdf.loc[rng.random(n) < frac, col] = np.nan
    return pdf


def _batch(t: int) -> pd.DataFrame:
    # Every third batch reaches beyond the build-time edges on both sides.
    if t % 3 == 2:
        return _frame(N_BATCH, 100 + t, x_hi=1400, y_lo=-60.0)
    return _frame(N_BATCH, 100 + t)


@pytest.fixture(scope="module")
def blobs() -> list[bytes]:
    base = _frame(N_BUILD, 0)
    seeds = {
        c: np.unique(np.nanquantile(base[c], np.linspace(0, 1, 48)).round())
        for c in base.columns
    }
    ph = build_local(base, n_rows=4 * N_BUILD, seeds=seeds)  # rho = 0.25
    out = [serialize(ph)]
    for t in range(N_BATCHES):
        append_rows(ph, _batch(t))
        out.append(serialize(ph))
    return out


def _hashes(blobs: list[bytes]) -> list[str]:
    return [hashlib.sha256(b).hexdigest() for b in blobs]


def test_serialized_bytes_are_unchanged(blobs):
    hashes = _hashes(blobs)
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps({"serialize_sha256": hashes}, indent=1) + "\n")
    gold = json.loads(GOLDEN.read_text())["serialize_sha256"]
    assert len(hashes) == len(gold)
    for t, (got, want) in enumerate(zip(hashes, gold)):
        assert got == want, f"bytes differ after {t} appended batches"


def test_blobs_reserialize_to_themselves(blobs):
    for blob in blobs:
        assert serialize(deserialize(blob)) == blob


def test_both_count_encodings_occur(blobs):
    """The pins cover the sparse (Golomb) block as well as the dense one."""
    ph = deserialize(blobs[-1])
    flags = {
        storage._encode_counts(h.counts.reshape(-1).astype(np.int64))[0]
        for h in [*ph.hists1d, *ph.hists2d.values()]
    }
    assert flags == {0, 1}
