"""The blocked row rule (grid._blocked_row_rule), pinned to the bit.

tests/golden/row_kernel_pins.json holds the sha256 of the output bytes of
abs_increment_row_integrals and row_singular_integrals, recorded before the
rule trimmed each 256-row block at its last column and began serving several
samples per call (numpy 2.4, x86-64).  The trimmed rule cannot be its own
oracle, so the pins stand in for the full-width one.  The sizes sit on
both sides of the block edges, for blocks of 256 rows and of 64 (the
blocks start at row 1), and on odd lengths of the SIMD sum; the pins of
63, 64, 65, 66 and 129 were recorded with 256-row blocks, before the
blocks shrank to 64 rows.  d = 3 takes the Euclidean increment, power
0.7 the in-place power.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from volterra_fbm import grid as grid_mod
from volterra_fbm.grid import (
    abs_increment_row_integrals,
    abs_increment_row_integrals_many,
    row_singular_integrals,
)

PINS = json.loads((Path(__file__).parent / "golden" / "row_kernel_pins.json").read_text())
SIZES = (2, 3, 7, 9, 63, 64, 65, 66, 129, 255, 256, 257, 258, 261, 1000, 2049)
THETA = 1.3


def _sample(n, d):
    rng = np.random.default_rng(7 * n + d)
    v = 2.0 + np.cumsum(rng.normal(size=(n + 1, d)), axis=0) / np.sqrt(n)
    return v[:, 0] if d == 1 else v


def _abs_table(v, power):
    """rows[i, j] = |v_i - v_j|**power, one row at a time."""
    v2 = v[:, None] if v.ndim == 1 else v
    table = np.stack([np.linalg.norm(v2[i] - v2, axis=1) for i in range(v2.shape[0])])
    return table if power == 1.0 else table ** power


def _digest(out):
    return hashlib.sha256(out.tobytes()).hexdigest()


def _kernel_digests(n):
    """Every pinned digest at size n, keyed as in the pin file."""
    h = 1.0 / n
    out = {}
    for d in (1, 3):
        v = _sample(n, d)
        for power in (1.0, 0.7):
            key = f"n={n},d={d},p={power}"
            out[f"abs,{key}"] = _digest(abs_increment_row_integrals(v, h, THETA, power=power))
            table = _abs_table(v, power)
            out[f"table,{key}"] = _digest(row_singular_integrals(table, h, THETA))
    # a general table: the diagonal weight is live, theta < 1
    general = np.random.default_rng(n).normal(size=(n + 1, n + 1))
    out[f"general,n={n}"] = _digest(row_singular_integrals(general, h, 0.7))
    return out


@pytest.mark.parametrize("n", SIZES)
def test_row_rule_pins(n):
    got = _kernel_digests(n)
    want = {k: PINS[k] for k in got}
    assert got == want


@pytest.mark.parametrize("n", [2, 9, 257, 300])
def test_many_samples_match_one_at_a_time(n):
    # mixed lengths, dims and powers in one call: each sample's result is
    # its own one-sample call, bit for bit, whatever its neighbours
    rng = np.random.default_rng(n)
    h = 1.0 / n
    samples = [
        (rng.normal(size=n + 1), 1.0),
        (rng.normal(size=(n // 2 + 1, 3)), 0.7),
        (rng.normal(size=(n + 1, 2)), 0.5),
        (rng.normal(size=2), 1.0),
        (rng.normal(size=n), 0.7),
    ]
    many = abs_increment_row_integrals_many(samples, h, THETA)
    assert len(many) == len(samples)
    for (v, power), got in zip(samples, many):
        assert np.array_equal(got, abs_increment_row_integrals(v, h, THETA, power=power))


@pytest.mark.parametrize("chunk", [64, 256])
@pytest.mark.parametrize("theta", [0.7, THETA])
def test_table_rule_never_reads_above_the_diagonal(monkeypatch, chunk, theta):
    # a row block spans columns past the diagonals of its first rows; a
    # non-finite entry there must not reach any row, whatever the block size
    monkeypatch.setattr(grid_mod, "_ROW_CHUNK", chunk)
    n = 300
    table = _abs_table(_sample(n, 1), 1.0)
    want = row_singular_integrals(table, 1.0 / n, theta)
    assert np.all(np.isfinite(want))
    for i, j, bad in ((70, 100, np.inf), (1, 100, np.inf), (0, n, np.nan), (299, 300, -np.inf)):
        poisoned = table.copy()
        poisoned[i, j] = bad
        assert row_singular_integrals(poisoned, 1.0 / n, theta).tobytes() == want.tobytes()
