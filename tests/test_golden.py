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


# lambda_selected and theoretical_factor of the same six solves, recorded
# before the lambda-free contraction terms were hoisted out of the
# select_lambda ladder (numpy 2.4, x86-64)
_LAMBDA_AND_FACTOR = {
    "bounded-growth,n=300": ("0x1.0000000000000p+35", "0x1.10de8d195b2fcp+9"),
    "bounded-growth,n=64": ("0x1.0000000000000p+33", "0x1.9189854852b05p+8"),
    "linear-drift,n=300": ("0x1.0000000000000p+6", "0x1.78614524b7a84p-2"),
    "linear-drift,n=64": ("0x1.0000000000000p+6", "0x1.78614524b7a84p-2"),
    "smooth-volterra,n=300": ("0x1.0000000000000p+35", "0x1.4b9bedc441647p+9"),
    "smooth-volterra,n=64": ("0x1.0000000000000p+34", "0x1.0568d40825844p+9"),
}


@pytest.mark.parametrize("key", sorted(_LAMBDA_AND_FACTOR))
def test_selected_lambda_and_factor_match_golden(key):
    name, n = key.split(",n=")
    cs = builtin_coefficients(name)
    g = sample_davies_harte(build_grid(1.0, int(n)), 0.75, cs.m, Seed(DRIVER_SEED), 0)
    rec = picard_solve(cs, np.full(cs.d, 1.0), g, HolderParams(H=0.75, alpha=0.3, T=1.0))
    assert (float.hex(rec.lambda_selected), float.hex(rec.theoretical_factor)) == _LAMBDA_AND_FACTOR[key]
