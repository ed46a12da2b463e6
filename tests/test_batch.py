"""A batch of Picard solves is the solves one by one.

picard_solve_batch stacks the paths still iterating; each path's record
must be bit for bit that of picard_solve on its driver alone, whatever
the batch it rides in, and a failing path must surface as its own
one-path solve would.  The acceptance tests keep picard_solve as their
oracle.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.errors import DivergenceError, EvaluationError
from volterra_fbm.fbm import Seed, deterministic_driver, sample_davies_harte
from volterra_fbm.grid import GridFunction, build_grid
from volterra_fbm.integrals import diffusion_term, drift_term
from volterra_fbm.norms import HolderParams
from volterra_fbm.solver import picard_solve, picard_solve_batch

PARAMS = HolderParams(H=0.75, alpha=0.3, T=1.0)


def fingerprint(rec):
    """Every field of a record, floats as hex, the path as its sha256."""
    return {
        "distances": [float.hex(x) for x in rec.distances],
        "iterations": rec.iterations,
        "converged": rec.converged,
        "lambda_used": float.hex(rec.lambda_used),
        "lambda_selected": float.hex(rec.lambda_selected),
        "lambda_alpha_g": float.hex(rec.lambda_alpha_g),
        "theoretical_factor": float.hex(rec.theoretical_factor),
        "sup_radius": float.hex(rec.sup_radius),
        "delta_radius": float.hex(rec.delta_radius),
        "holder_estimate": repr(rec.holder_estimate),
        "x_sha256": hashlib.sha256(rec.x.values.tobytes()).hexdigest(),
    }


def in_batches(cs, x0, drivers, size, **kw):
    recs = []
    for lo in range(0, len(drivers), size):
        recs += picard_solve_batch(cs, x0, drivers[lo : lo + size], PARAMS, **kw)
    return [fingerprint(r) for r in recs]


def causal_b(t, s, x):
    return np.sin(x) / (1.0 + t - s)[..., None]


def matrix_sigma(t, s, x):
    # d = 2, m = 3
    e = np.exp(-(np.asarray(t) - np.asarray(s)))
    a = np.array([[1.0, 0.3, -0.2], [0.5, -1.0, 0.7]])
    return 0.3 * np.cos(x)[..., :, None] * a * e[..., None, None]


CASES = {
    "smooth": ("smooth-volterra", {}),
    "growth-capped": ("bounded-growth", {"max_iter": 4}),
    "drift-override": ("linear-drift", {"lambda_override": 3.0}),
    "smooth-offset": ("smooth-volterra", {"initial_offset": 0.75, "tol": 1e-10}),
    "matrix": ("matrix", {}),
}


@pytest.mark.parametrize("n", [64, 97])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_is_the_one_path_solves(case, n):
    name, kw = CASES[case]
    if name == "matrix":
        cs = replace(builtin_coefficients("smooth-volterra"), name="matrix", d=2, m=3,
                     sigma=matrix_sigma, b=causal_b)
        x0 = np.array([1.0, -0.5])
    else:
        cs = builtin_coefficients(name)
        x0 = np.full(cs.d, 1.0)
    grid = build_grid(1.0, n)
    drivers = [sample_davies_harte(grid, 0.75, cs.m, Seed(n), p) for p in range(7)]
    want = [fingerprint(picard_solve(cs, x0, g, PARAMS, **kw)) for g in drivers]
    for size in (1, 2, 5, 7):
        assert in_batches(cs, x0, drivers, size, **kw) == want, size
    if case == "smooth":
        # paths leave the stack at different steps
        assert len({w["iterations"] for w in want}) > 1
    if case == "growth-capped":
        assert not any(w["converged"] for w in want)
        assert all(w["iterations"] == 4 for w in want)


def test_empty_batch():
    assert picard_solve_batch(builtin_coefficients("smooth-volterra"), 1.0, [], PARAMS) == []


def nan_above(level):
    """bounded-growth's sigma, non-finite wherever the state exceeds level."""
    sigma = builtin_coefficients("bounded-growth").sigma

    def bad(t, s, x):
        return np.where((x[..., 0] > level)[..., None, None], np.nan, sigma(t, s, x))

    return bad


def solve_error(cs, driver):
    with pytest.raises(EvaluationError) as exc:
        picard_solve(cs, 1.0, driver, PARAMS)
    return str(exc.value)


def test_lowest_failing_path_raises_its_own_error():
    # no drift; drivers of slope 0, 8, 0, 5, 0: the iterates of paths 1
    # and 3 climb past 1.5 at different nodes, so their one-path errors
    # differ, and the others stay at x0 = 1
    cs = replace(builtin_coefficients("bounded-growth"), sigma=nan_above(1.5))
    grid = build_grid(1.0, 64)
    drivers = [deterministic_driver(grid, lambda t, a=a: a * t) for a in (0.0, 8.0, 0.0, 5.0, 0.0)]
    msg1, msg3 = solve_error(cs, drivers[1]), solve_error(cs, drivers[3])
    assert msg1 != msg3
    for batch, want in ((drivers, msg1), (drivers[2:], msg3), (drivers[3:0:-2], msg3)):
        with pytest.raises(EvaluationError) as exc:
            picard_solve_batch(cs, 1.0, batch, PARAMS)
        assert str(exc.value) == want
    # the healthy paths alone still solve
    assert all(r.converged for r in picard_solve_batch(cs, 1.0, drivers[::2], PARAMS))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_path_raises_divergence():
    # a drift of 1e308 x overflows the iterate of the one path with x0 > 0
    cs = replace(builtin_coefficients("linear-drift"), b=lambda t, s, x: 1e308 * x)
    grid = build_grid(1.0, 16)
    g = deterministic_driver(grid, lambda t: 0.0)
    with pytest.raises(DivergenceError):
        picard_solve_batch(cs, 1.0, [g, g], PARAMS)


@pytest.mark.parametrize("n", [3, 96, 300])
def test_stacked_maps_are_the_one_path_maps(n):
    grid = build_grid(1.0, n)
    rng = np.random.default_rng(n)
    states = rng.normal(size=(5, n + 1, 2))
    drivers = np.stack([sample_davies_harte(grid, 0.7, 3, Seed(n), p).values for p in range(5)])
    drift = drift_term(causal_b, states, grid)
    diffusion = diffusion_term(matrix_sigma, states, drivers, grid)
    for p in range(5):
        x = GridFunction(grid, states[p])
        assert np.array_equal(drift[p], drift_term(causal_b, x).values.values)
        g = sample_davies_harte(grid, 0.7, 3, Seed(n), p)
        assert np.array_equal(diffusion[p], diffusion_term(matrix_sigma, x, g).values.values)


def test_stacked_maps_keep_each_paths_first_error():
    grid = build_grid(1.0, 512)
    states = np.stack([grid.nodes, 2.0 * grid.nodes, grid.nodes])[..., None]

    def nan_past_one(t, s, x):
        return np.where(x[..., 0] > 1.0, np.nan, 1.0 + 0.0 * s)[..., None]

    errors = [None] * 3
    drift_term(nan_past_one, states, grid, errors)
    assert errors[0] is None and errors[2] is None
    with pytest.raises(EvaluationError) as exc:
        drift_term(nan_past_one, GridFunction(grid, states[1]))
    assert str(errors[1]) == str(exc.value)


def time_only_b(t, s, x):
    # ignores the state: (r, k, 1), no path axis
    return np.exp(-(np.asarray(t) - np.asarray(s)))[..., None]


def time_only_sigma(t, s, x):
    # (r, k, 1, 1)
    return (0.4 * np.cos(np.asarray(t) - np.asarray(s)))[..., None, None]


@pytest.mark.parametrize("n", [8, 96])
def test_state_free_evaluators_keep_the_one_path_contract(n):
    # a result without the path axis serves every path; with P = n + 1
    # paths and one row block, a broadcast that aligned the result from
    # the left would read its time axis as the path axis unnoticed
    cs = replace(builtin_coefficients("smooth-volterra"), b=time_only_b, sigma=time_only_sigma)
    grid = build_grid(1.0, n)
    drivers = [sample_davies_harte(grid, 0.75, 1, Seed(n), p) for p in range(n + 1)]
    want = [fingerprint(picard_solve(cs, 1.0, g, PARAMS)) for g in drivers]
    assert in_batches(cs, 1.0, drivers, n + 1) == want
    states = np.zeros((n + 1, n + 1, 1))
    stacked = diffusion_term(time_only_sigma, states, np.stack([g.values for g in drivers]), grid)
    for p, g in enumerate(drivers):
        x = GridFunction(grid, states[p])
        assert np.array_equal(stacked[p], diffusion_term(time_only_sigma, x, g).values.values)
    assert np.array_equal(drift_term(time_only_b, states, grid)[3], drift_term(time_only_b, x).values.values)


def test_drivers_on_different_grids_are_refused():
    cs = builtin_coefficients("smooth-volterra")
    g = sample_davies_harte(build_grid(1.0, 64), 0.75, 1, Seed(1), 0)
    for other in (build_grid(2.0, 64), build_grid(1.0, 32)):
        h = sample_davies_harte(other, 0.75, 1, Seed(1), 1)
        with pytest.raises(ValueError, match="one grid"):
            picard_solve_batch(cs, 1.0, [g, h], PARAMS)
