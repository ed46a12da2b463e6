"""The row-block size of the direct kernels does not move a bit.

grid._ROW_CHUNK sets the rows per block (grid._row_blocks) of the
coefficient maps (integrals.coefficient_maps, the one pass behind
drift_term and diffusion_term) and of the table rules (lebesgue_volterra,
young_rs), all through integrals._trapezoid_block and _left_point_block;
of the norm rule (grid._blocked_row_rule), on one path and on a stack of
paths; and of the node-pair tables (grid._pair_blocks).  Every output
below is compared byte for byte across block sizes, one block of the
whole grid included.
"""

import numpy as np
import pytest

from volterra_fbm import grid as grid_mod
from volterra_fbm.coeffs import builtin_coefficients, catalog_names
from volterra_fbm.fbm import DriverPath
from volterra_fbm.fraccalc import lambda_alpha_many, weyl_bracket_matrix
from volterra_fbm.grid import (
    BivariateKernelValues,
    GridFunction,
    _row_blocks,
    abs_increment_row_integrals_many,
    build_grid,
)
from volterra_fbm.integrals import coefficient_maps, diffusion_term, drift_term, lebesgue_volterra, young_rs
from volterra_fbm.norms import holder_norm, norm_row_passes, w_1malpha_norm

SIZES = (2, 3, 63, 64, 65, 97, 255, 257, 300, 1000)
CHUNKS = (32, 64, 96, 256)
CASES = [(name, {}) for name in catalog_names()] + [("linear-drift", {"d": 2})]


def _table(fn, g, states):
    """fn on the whole (n+1)^2 square, the state broadcast over t."""
    t = g.nodes[:, None]
    x = np.broadcast_to(states[None], (g.n + 1,) + states.shape)
    return BivariateKernelValues(g, np.asarray(fn(t, np.minimum(g.nodes[None, :], t), x), dtype=float))


def _outputs(cs, g, states, drivers):
    """Bytes of every blocked kernel on one path (the first), on each path
    as a one-sample entry of the row kernel, and on the stack."""
    x, drv = GridFunction(g, states[0]), DriverPath(g, drivers[0])
    aggregates, deltas = norm_row_passes(states[:1], states[:1], g.h, 0.3, cs.delta)
    # the verify route: one (n+1, d) entry per sample
    singles = abs_increment_row_integrals_many(
        [(s, 1.0) for s in states] + [(s, cs.delta) for s in states], g.h, 1.3
    )
    # the solver's route: the stack as one entry of the pass
    stacked, stacked_deltas = norm_row_passes(states, states, g.h, 0.3, cs.delta)
    arrays = [
        drift_term(cs.b, x).values.values,
        coefficient_maps(cs.b, None, states, None, g)[0],
        diffusion_term(cs.sigma, x, drv).values.values,
        coefficient_maps(None, cs.sigma, states, drivers, g)[1],
        *coefficient_maps(cs.b, cs.sigma, states, drivers, g)[:2],
        lebesgue_volterra(_table(cs.b, g, states[0])).values.values,
        young_rs(_table(cs.sigma, g, states[0]), drv).values.values,
        *(inc for _, inc in aggregates),
        np.array(deltas),
        *singles,
        *(inc for _, inc in stacked),
        np.array(stacked_deltas),
    ]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name, params", CASES)
def test_row_block_size_is_bit_neutral(monkeypatch, name, params, n):
    cs = builtin_coefficients(name, **params)
    rng = np.random.default_rng(n)
    for T in (1.0, 0.7):
        g = build_grid(T, n)
        states = 1.0 + np.cumsum(rng.normal(size=(3, n + 1, cs.d)), axis=1) / np.sqrt(n)
        drivers = np.cumsum(rng.normal(size=(3, n + 1, cs.m)), axis=1) * np.sqrt(T / n)
        drivers[:, 0] = 0.0
        got = {}
        for chunk in CHUNKS + (n + 1,):
            monkeypatch.setattr(grid_mod, "_ROW_CHUNK", chunk)
            got[chunk] = _outputs(cs, g, states, drivers)
        for chunk, out in got.items():
            assert out == got[n + 1], (T, chunk)


@pytest.mark.parametrize("start, stop, want", [
    (0, 3, [(0, 3)]),
    (1, 65, [(1, 65)]),
    (0, 97, [(0, 97)]),
    (0, 128, [(0, 64), (64, 128)]),
    (1, 130, [(1, 65), (65, 130)]),
    (0, 2049, [(lo, lo + 64) for lo in range(0, 1984, 64)] + [(1984, 2049)]),
    (1, 1, []),
    (5, 3, []),
])
def test_row_blocks_cover_the_rows_without_a_short_block(start, stop, want):
    assert _row_blocks(start, stop) == want


def test_two_node_driver_norm_has_no_pair():
    # no interior node: the sup over 0 < s < t runs over no pair
    assert w_1malpha_norm(np.array([0.0, 1.0]), 1.0, 0.3) == 0.0


PAIR_SIZES = (2, 3, 63, 64, 65, 96, 127, 128, 129, 300, 1000)
PAIR_CHUNKS = (32, 50, 64, 96, 256)


def _pair_outputs(g, drivers, f):
    """Bytes of every function on the node-pair table."""
    values, args = lambda_alpha_many(drivers, g.h, 0.3)
    return [
        values.tobytes(),
        args.tobytes(),
        weyl_bracket_matrix(drivers[1], g.h, 0.3).tobytes(),
        holder_norm(f, 0.7).hex(),
        holder_norm(GridFunction(g, drivers[1]), 0.7).hex(),
        w_1malpha_norm(drivers[1], g.h, 0.3).hex(),
    ]


@pytest.mark.parametrize("n", PAIR_SIZES)
def test_pair_table_block_size_is_bit_neutral(monkeypatch, n):
    # every pair's terms are elementwise or a cumsum along its row, and a
    # block's argmax is its first maximal pair: 50-row blocks hold too.
    # The constant driver ties every pair, the jump puts the sup last
    rng = np.random.default_rng(n)
    g = build_grid(1.0, n)
    walk = 2.0 + np.cumsum(rng.normal(size=n + 1)) / np.sqrt(n)
    jump = 0.1 * walk
    jump[-1] += 5.0
    drivers = np.stack([np.full(n + 1, 1.5), walk, jump, g.nodes])
    f = GridFunction(g, np.cumsum(rng.normal(size=(n + 1, 3)), axis=0))
    got = {}
    for chunk in PAIR_CHUNKS + (n + 1,):
        monkeypatch.setattr(grid_mod, "_ROW_CHUNK", chunk)
        got[chunk] = _pair_outputs(g, drivers, f)
    for chunk, out in got.items():
        assert out == got[n + 1], chunk
