"""Golden SolutionRecords: exact regression net for the solver.

tests/golden/solution_records.json holds, for three catalog entries at
n = 64 and n = 300 on a fixed driver seed, the iteration count, the
weighted-gap history, the weight, both radii (floats as hex, so equality
is to the bit) and the sha256 of the solution's bytes.  A change that
keeps the summation order keeps every field; one that does not has to
re-record them and say why.  Recorded with numpy 2.4 on x86-64.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.fbm import Seed, sample_davies_harte
from volterra_fbm.grid import build_grid
from volterra_fbm.norms import HolderParams
from volterra_fbm.solver import picard_solve

GOLDEN = json.loads((Path(__file__).parent / "golden" / "solution_records.json").read_text())
DRIVER_SEED = 11


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_solution_record_matches_golden(key):
    name, n = key.split(",n=")
    cs = builtin_coefficients(name)
    grid = build_grid(1.0, int(n))
    g = sample_davies_harte(grid, 0.75, cs.m, Seed(DRIVER_SEED), 0)
    rec = picard_solve(cs, np.full(cs.d, 1.0), g, HolderParams(H=0.75, alpha=0.3, T=1.0))
    want = GOLDEN[key]
    assert rec.converged is want["converged"]
    assert rec.iterations == want["iterations"]
    assert [float.hex(x) for x in rec.distances] == want["distances"]
    assert float.hex(rec.lambda_used) == want["lambda_used"]
    assert float.hex(rec.sup_radius) == want["sup_radius"]
    assert float.hex(rec.delta_radius) == want["delta_radius"]
    assert hashlib.sha256(rec.x.values.tobytes()).hexdigest() == want["x_sha256"]
