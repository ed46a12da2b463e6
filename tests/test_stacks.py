"""Stacked passes over a leading path axis move no bit.

The capacity functional (fraccalc.lambda_alpha_many), the norm rule
(grid.abs_increment_row_integrals_many with a stack entry, and
norms.norm_row_passes, which takes stacks only) and the fractional sup norms
(norms.w_alpha_infty_norms) each serve a stack of paths in one pass.
Every value below is compared by float.hex (or byte for byte) against
the one-path call; tests/test_pair_tables.py and tests/test_row_kernel.py
pin the one-path calls themselves.
"""

import numpy as np
import pytest

from volterra_fbm.fbm import DriverPath
from volterra_fbm.fraccalc import lambda_alpha, lambda_alpha_many
from volterra_fbm.grid import (
    GridFunction,
    abs_increment_row_integrals,
    abs_increment_row_integrals_many,
    build_grid,
)
from volterra_fbm.norms import (
    fractional_aggregate,
    fractional_norm,
    norm_row_passes,
    w_alpha_infty_norm,
    w_alpha_infty_norms,
)
from volterra_fbm.solver import total_lambda_alpha

SIZES = (2, 3, 63, 64, 65, 96, 129, 300)
STACKS = (1, 2, 7, 13)
ALPHA = 0.3


def _drivers(n, count, rng):
    """count scalar drivers on n cells: a constant one, the linear one of
    criterion 3 (g(t) = t, closed-form capacity), then rough paths of
    growing scale."""
    nodes = np.linspace(0.0, 1.0, n + 1)
    out = [np.full(n + 1, 7.0), nodes.copy()]
    for k in range(count - 2):
        steps = rng.normal(size=n) * 10.0 ** (k % 5 - 2) / np.sqrt(n)
        out.append(np.concatenate([[0.0], np.cumsum(steps)]))
    return np.array(out[:count])


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", SIZES)
def test_stacked_capacity_is_each_paths_own(n):
    rng = np.random.default_rng(n)
    h = 1.0 / n
    pool = _drivers(n, max(STACKS), rng)
    one = [lambda_alpha(v, h, ALPHA) for v in pool]
    for size in STACKS:
        for idx in (np.arange(size), np.arange(len(pool))[::-1][:size]):
            values, args = lambda_alpha_many(pool[idx], h, ALPHA)
            assert values.shape == (size,) and args.shape == (size, 2)
            assert _hex(values) == [one[k][0].hex() for k in idx]
            assert [tuple(int(i) for i in a) for a in args] == [one[k][1] for k in idx]


@pytest.mark.parametrize("n", SIZES)
def test_stacked_total_capacity_keeps_the_component_sum_order(n):
    # an m = 2 driver: the components add in order, 0 + c0 + c1, as a sum
    # of one-component lambda_alpha calls
    rng = np.random.default_rng(1000 + n)
    grid = build_grid(1.0, n)
    pool = _drivers(n, 2 * max(STACKS), rng)
    drivers = [DriverPath(grid, np.stack([pool[k], pool[-1 - k]], axis=1)) for k in range(max(STACKS))]
    want = [sum(lambda_alpha(g.component(c), grid.h, ALPHA)[0] for c in range(2)) for g in drivers]
    for size in STACKS:
        assert _hex(total_lambda_alpha(drivers[:size], ALPHA)) == _hex(want[:size])


# the einsum and the in-place power of the norm rule, stacked against one
# sample at a time, on every column count a block of rows can have up to
# 139 and a few wider ones
COLUMNS = tuple(range(1, 140)) + (193, 257, 1025, 2049)


def _row_sums(w, block):
    """The row rule's einsum, as grid._blocked_row_rule calls it."""
    out = np.zeros(block.shape[:-1])
    np.einsum("ij,...ij->...i", w, block, out=out)
    return out


def test_stacked_einsum_and_power_match_one_sample_calls():
    # the one-sample reference is the plain "ij,ij->i", the form the row
    # kernel's pins were recorded with
    rng = np.random.default_rng(5)
    bad = []
    for cols in COLUMNS:
        rows = min(cols, 64)
        w = rng.normal(size=(rows, cols))
        stack = np.abs(rng.normal(size=(3, rows, cols)))
        powered = stack.copy()
        powered **= 0.7
        summed = _row_sums(w, stack)
        for s in range(3):
            alone = stack[s].copy()
            alone **= 0.7
            if alone.tobytes() != powered[s].tobytes():
                bad.append(("power", cols, s))
            want = np.einsum("ij,ij->i", w, stack[s]).tobytes()
            if summed[s].tobytes() != want or _row_sums(w, stack[s]).tobytes() != want:
                bad.append(("einsum", cols, s))
    assert not bad


@pytest.mark.parametrize("n", SIZES + (1, 138, 1024))
@pytest.mark.parametrize("power", [1.0, 0.7])
@pytest.mark.parametrize("d", [1, 2])
def test_stacked_norm_rule_matches_one_sample_calls(n, power, d):
    rng = np.random.default_rng(10 * n + d)
    h = 1.0 / n
    theta = ALPHA + 1.0
    stack = np.cumsum(rng.normal(size=(5, n + 1, d)), axis=1)
    ragged = [rng.normal(size=(n // 2 + 1, d)), rng.normal(size=n + 1), rng.normal(size=(2, 3))]
    # stacks and ragged samples mixed in one pass, a shorter stack too
    short = stack[:2, : n // 2 + 1]
    entries = [(stack, power), (ragged[0], 0.7), (short, 1.0), (ragged[1], power), (ragged[2], 1.0)]
    got = abs_increment_row_integrals_many(entries, h, theta)
    assert got[0].shape == (5, n + 1) and got[2].shape == (2, n // 2 + 1)
    for s in range(5):
        assert got[0][s].tobytes() == abs_increment_row_integrals(stack[s], h, theta, power).tobytes()
    for s in range(2):
        assert got[2][s].tobytes() == abs_increment_row_integrals(short[s], h, theta, 1.0).tobytes()
    for (v, p), out in zip([entries[1], entries[3], entries[4]], [got[1], got[3], got[4]]):
        assert out.tobytes() == abs_increment_row_integrals(v, h, theta, p).tobytes()


@pytest.mark.parametrize("n", [2, 65, 129])
@pytest.mark.parametrize("delta", [1.0, 0.7])
def test_norm_row_passes_stacks_match_lists(n, delta):
    # the solver's route (two stacks of four) against a list of calls on
    # each row's own one-sample stacks, and those against the row
    # kernel's one-sample entries
    rng = np.random.default_rng(n)
    h, theta = 1.0 / n, ALPHA + 1.0
    gaps = rng.normal(size=(4, n + 1, 2))
    iterates = np.cumsum(rng.normal(size=(4, n + 1, 2)), axis=1)
    aggs, deltas = norm_row_passes(gaps, iterates, h, ALPHA, delta)
    assert len(aggs) == len(deltas) == 4
    for s in range(4):
        [(sup, inc)], [top] = norm_row_passes(gaps[s][None], iterates[s][None], h, ALPHA, delta)
        assert _hex(aggs[s][0]) == _hex(sup) == _hex(np.linalg.norm(gaps[s], axis=-1))
        assert _hex(aggs[s][1]) == _hex(inc) == _hex(abs_increment_row_integrals(gaps[s], h, theta))
        own = abs_increment_row_integrals(iterates[s], h, theta, delta).max()
        assert deltas[s].hex() == top.hex() == float(own).hex()
    # an absent side stays empty
    assert norm_row_passes(None, iterates, h, ALPHA, delta)[0] == []
    assert norm_row_passes(None, None, h, ALPHA, delta) == ([], [])


@pytest.mark.parametrize("n", [16, 96, 300])
@pytest.mark.parametrize("d", [1, 2])
def test_stacked_fractional_sup_norms_match_one_function_rule(n, d):
    # 13 functions cross the stack edges (6 per stack at n = 96); each
    # report is the one-function rule on the aggregate's own row pass
    rng = np.random.default_rng(n + d)
    grid = build_grid(1.0, n)
    fs = [GridFunction(grid, np.cumsum(rng.normal(size=(n + 1, d)), axis=0) / np.sqrt(n)) for _ in range(13)]
    got = w_alpha_infty_norms(fs, ALPHA)
    for f, rep in zip(fs, got):
        want = fractional_norm(grid.nodes, fractional_aggregate(f, ALPHA), 0.0)
        assert rep.value.hex() == want.value.hex()
        assert rep.sup_argmax == want.sup_argmax
        assert _hex(rep.components) == _hex(want.components)
        assert rep == w_alpha_infty_norm(f, ALPHA)


def test_stacked_fractional_sup_norms_need_one_grid():
    a, b = build_grid(1.0, 16), build_grid(2.0, 16)
    fs = [GridFunction(a, np.zeros(17)), GridFunction(b, np.zeros(17))]
    with pytest.raises(ValueError, match="one grid"):
        w_alpha_infty_norms(fs, ALPHA)
    assert w_alpha_infty_norms([], ALPHA) == []
