"""A batch of Picard solves is the solves one by one.

picard_solve_batch stacks the paths still iterating; each path's record
must be bit for bit that of picard_solve on its driver alone, whatever
the batch it rides in, and a failing path must surface as its own
one-path solve would.  The acceptance tests keep picard_solve as their
oracle.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.errors import DivergenceError, EvaluationError, NoContractionError
from volterra_fbm import grid as grid_mod
from volterra_fbm.fbm import DriverPath, Seed, sample_davies_harte
from volterra_fbm.fraccalc import lambda_alpha, lambda_alpha_many
from volterra_fbm.grid import GridFunction, _part_paths, _row_blocks, _stack_size, build_grid
from volterra_fbm.integrals import coefficient_maps, diffusion_term, drift_term
from volterra_fbm.norms import HolderParams, norm_row_passes
from volterra_fbm import solver
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
    drivers = [DriverPath.from_callable(grid, lambda t, a=a: a * t) for a in (0.0, 8.0, 0.0, 5.0, 0.0)]
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
    g = DriverPath.from_callable(grid, lambda t: 0.0)
    with pytest.raises(DivergenceError):
        picard_solve_batch(cs, 1.0, [g, g], PARAMS)


@pytest.mark.parametrize("n", [3, 96, 300])
def test_stacked_maps_are_the_one_path_maps(n):
    grid = build_grid(1.0, n)
    rng = np.random.default_rng(n)
    states = rng.normal(size=(5, n + 1, 2))
    drivers = np.stack([sample_davies_harte(grid, 0.7, 3, Seed(n), p).values for p in range(5)])
    drift = coefficient_maps(causal_b, None, states, None, grid)[0]
    diffusion = coefficient_maps(None, matrix_sigma, states, drivers, grid)[1]
    for p in range(5):
        x = GridFunction(grid, states[p])
        assert np.array_equal(drift[p], drift_term(causal_b, x).values.values)
        g = sample_davies_harte(grid, 0.7, 3, Seed(n), p)
        assert np.array_equal(diffusion[p], diffusion_term(matrix_sigma, x, g).values.values)
    # the solver's one pass over the triangle is (x0 + drift) + diffusion
    # of the separate maps, bit for bit, with either map absent too
    cases = [builtin_coefficients(name) for name in ("smooth-volterra", "bounded-growth", "linear-drift")]
    cases.append(replace(cases[0], d=2, m=3, b=causal_b, sigma=matrix_sigma))
    for cs in cases:
        x = states[..., : cs.d]
        g = np.stack([sample_davies_harte(grid, 0.7, cs.m, Seed(n), p).values for p in range(5)])
        x0 = np.linspace(1.0, 2.0, cs.d)
        want = np.tile(x0, (5, n + 1, 1))
        if not cs.b_is_zero:
            want = want + coefficient_maps(cs.b, None, x, None, grid)[0]
        if not cs.sigma_is_zero:
            want = want + coefficient_maps(None, cs.sigma, x, g, grid)[1]
        got, errors = solver._apply_map(cs, x0, grid, x, g)
        assert errors == [None] * 5
        assert np.array_equal(got, want), cs.name


def test_stacked_maps_keep_each_paths_first_error():
    grid = build_grid(1.0, 512)
    states = np.stack([grid.nodes, 2.0 * grid.nodes, grid.nodes])[..., None]

    def nan_past_one(t, s, x):
        return np.where(x[..., 0] > 1.0, np.nan, 1.0 + 0.0 * s)[..., None]

    _, _, errors = coefficient_maps(nan_past_one, None, states, None, grid)
    assert errors[0] is None and errors[2] is None
    with pytest.raises(EvaluationError) as exc:
        drift_term(nan_past_one, GridFunction(grid, states[1]))
    assert str(errors[1]) == str(exc.value)

    # the solver's one pass, on a stack whose path 1 (x = t) has a b
    # non-finite in the last row block (x > 0.9) and a sigma non-finite in
    # the first (x > 0.01): the pass meets sigma's error first, and path 1
    # must still report b's
    def nan_past_nine_tenths(t, s, x):
        return np.where(x[..., 0] > 0.9, np.nan, 1.0 + 0.0 * s)[..., None]

    def inf_past_one_hundredth(t, s, x):
        return np.where(x[..., 0] > 0.01, np.inf, 1.0 + 0.0 * s)[..., None, None]

    cs = replace(builtin_coefficients("smooth-volterra"), b=nan_past_nine_tenths, sigma=inf_past_one_hundredth)
    paths = np.stack([np.zeros(grid.n + 1), grid.nodes])[..., None]
    _, errors = solver._apply_map(cs, np.zeros(1), grid, paths, paths)
    assert errors[0] is None
    with pytest.raises(EvaluationError) as exc:
        drift_term(nan_past_nine_tenths, GridFunction(grid, paths[1]))
    assert str(errors[1]) == str(exc.value) and str(exc.value).startswith("drift")
    # one rule for one path: the unstacked pass reports b's error too
    x = grid.nodes[:, None]
    _, _, errors = coefficient_maps(nan_past_nine_tenths, inf_past_one_hundredth, x, x, grid)
    assert len(errors) == 1 and str(errors[0]) == str(exc.value)


def time_only_b(t, s, x):
    # ignores the state: (r, k, 1), no path axis
    return np.exp(-(np.asarray(t) - np.asarray(s)))[..., None]


def time_only_sigma(t, s, x):
    # (r, k, 1, 1)
    return (0.4 * np.cos(np.asarray(t) - np.asarray(s)))[..., None, None]


@pytest.mark.parametrize("n", [8, 96])
def test_state_free_evaluators_keep_the_one_path_contract(n):
    # a result without the path axis serves every path; with P = n + 1
    # paths and one row block (n = 8; at n = 96 the maps take the stack in
    # 21-path parts, and the test on a stack as tall as its blocks below
    # sets the same trap), a broadcast that aligned the result from the
    # left would read its time axis as the path axis unnoticed
    cs = replace(builtin_coefficients("smooth-volterra"), b=time_only_b, sigma=time_only_sigma)
    grid = build_grid(1.0, n)
    drivers = [sample_davies_harte(grid, 0.75, 1, Seed(n), p) for p in range(n + 1)]
    want = [fingerprint(picard_solve(cs, 1.0, g, PARAMS)) for g in drivers]
    assert in_batches(cs, 1.0, drivers, n + 1) == want
    states = np.zeros((n + 1, n + 1, 1))
    stacked = coefficient_maps(None, time_only_sigma, states, np.stack([g.values for g in drivers]), grid)[1]
    for p, g in enumerate(drivers):
        x = GridFunction(grid, states[p])
        assert np.array_equal(stacked[p], diffusion_term(time_only_sigma, x, g).values.values)
    drift = coefficient_maps(time_only_b, None, states, None, grid)[0]
    assert np.array_equal(drift[3], drift_term(time_only_b, x).values.values)


def test_drivers_on_different_grids_are_refused():
    cs = builtin_coefficients("smooth-volterra")
    g = sample_davies_harte(build_grid(1.0, 64), 0.75, 1, Seed(1), 0)
    for other in (build_grid(2.0, 64), build_grid(1.0, 32)):
        h = sample_davies_harte(other, 0.75, 1, Seed(1), 1)
        with pytest.raises(ValueError, match="one grid"):
            picard_solve_batch(cs, 1.0, [g, h], PARAMS)


def test_params_horizon_must_match_the_grid():
    # params.T sets the contraction constants, so it must be the drivers' T
    cs = builtin_coefficients("smooth-volterra")
    g = sample_davies_harte(build_grid(2.0, 128), 0.75, 1, Seed(1), 0)
    for T in (1.0, 0.01):
        with pytest.raises(ValueError, match="horizon"):
            picard_solve_batch(cs, 1.0, [g], replace(PARAMS, T=T))
    assert picard_solve_batch(cs, 1.0, [g], replace(PARAMS, T=2.0))[0].converged


def test_pilot_rejects_a_weight_below_one():
    cs = builtin_coefficients("smooth-volterra")
    grid = build_grid(1.0, 32)
    drivers = [sample_davies_harte(grid, 0.75, 1, Seed(3), p) for p in range(2)]
    with pytest.raises(ValueError, match="weight lambda must be >= 1, got 0.5"):
        picard_solve_batch(cs, 1.0, drivers, PARAMS, lambda_override=0.5)


@pytest.mark.parametrize("setting, message", [
    ({"tol": np.nan}, "tolerance must be positive"),
    ({"max_iter": -1}, "max_iter must be non-negative"),
    ({"x0": np.nan}, "initial state must be finite"),
    ({"x0": np.inf}, "initial state must be finite"),
    ({"lambda_override": np.nan}, "weight lambda must be finite"),
], ids=["tol-nan", "max-iter-negative", "x0-nan", "x0-inf", "lambda-nan"])
def test_batch_refuses_nan_and_negative_settings(setting, message, monkeypatch):
    # NaN is neither <= 0 nor > 0, so a check that NaN does not fail lets
    # a NaN tol run to max_iter and a NaN weight "converge" on NaN
    # distances; a negative max_iter would run the pilot step alone.
    # Each is refused on entry, before any capacity is computed.
    def no_capacity(*args):
        raise AssertionError("a capacity was computed before the settings were checked")

    monkeypatch.setattr(solver, "total_lambda_alpha", no_capacity)
    cs = builtin_coefficients("smooth-volterra")
    drivers = [sample_davies_harte(build_grid(1.0, 16), 0.75, 1, Seed(3), 0)]
    kwargs = {"x0": 1.0, **setting}
    with pytest.raises(ValueError, match=message):
        picard_solve_batch(cs, kwargs.pop("x0"), drivers, PARAMS, **kwargs)


def test_pilot_without_contraction_fails_the_batch():
    # Lipschitz constants of 1e100 leave no weight on the ladder for a
    # rough driver; the zero driver has no capacity, so it contracts
    cs = replace(builtin_coefficients("smooth-volterra"), K=1e100, K_N=lambda N: 1e100)
    grid = build_grid(1.0, 32)
    zero = DriverPath.from_callable(grid, lambda t: 0.0)
    rough = sample_davies_harte(grid, 0.75, 1, Seed(3), 0)
    for batch in ([zero, rough], [rough, zero]):
        with pytest.raises(NoContractionError):
            picard_solve_batch(cs, 1.0, batch, PARAMS)
    assert picard_solve_batch(cs, 1.0, [zero], PARAMS)[0].converged
    # a weight override stands in for the failed selection
    recs = picard_solve_batch(cs, 1.0, [zero, rough], PARAMS, lambda_override=64.0)
    assert all(r.converged and r.lambda_used == 64.0 for r in recs)
    assert np.isfinite(recs[0].lambda_selected) and recs[1].lambda_selected == np.inf


# one CLI batch at n = 96
STACK = _stack_size(96)


@pytest.mark.parametrize("n", [96, 255, 300])
def test_stacked_passes_at_the_new_cuts_are_each_paths_own(n):
    # a CLI batch shrinks the row blocks of the maps, the norm pass and the
    # pair tables, and the maps take it in parts (grid._row_blocks,
    # grid._part_paths); each path must still be its own one-path call
    assert _row_blocks(0, n + 1, STACK)[0][1] < grid_mod._ROW_CHUNK < n + 1
    assert STACK > _part_paths(n + 1)
    assert _row_blocks(1, n, STACK, grid_mod._PAIR_ROWS)[0][1] <= grid_mod._ROW_CHUNK
    grid = build_grid(1.0, n)
    rng = np.random.default_rng(n)
    states = 1.0 + np.cumsum(rng.normal(size=(STACK, n + 1, 2)), axis=1) / np.sqrt(n)
    # the middle path climbs past 50 from node n // 2, where its sigma fails
    mid = STACK // 2
    states[mid, n // 2 :] += 100.0
    drivers = np.stack([sample_davies_harte(grid, 0.7, 3, Seed(n), p).values for p in range(STACK)])
    smooth_b = builtin_coefficients("smooth-volterra").b
    cases = [
        (smooth_b, nan_above(50.0), states[..., :1], drivers[..., :1], [mid]),
        (causal_b, matrix_sigma, states, drivers, []),
    ]
    for b, sigma, x, g, failing in cases:
        drift, diffusion, errors = coefficient_maps(b, sigma, x, g, grid)
        for p in range(STACK):
            one_drift, one_diffusion, [one_error] = coefficient_maps(b, sigma, x[p], g[p], grid)
            assert drift[p].tobytes() == one_drift.tobytes()
            assert diffusion[p].tobytes() == one_diffusion.tobytes()
            assert str(errors[p]) == str(one_error)
        assert [p for p, e in enumerate(errors) if e is not None] == failing
    # the norm pass: gaps and iterates, two stacks
    gaps = np.diff(states, axis=0, prepend=states[:1])
    aggs, deltas = norm_row_passes(gaps, states, grid.h, 0.3, 0.7)
    for p in range(STACK):
        [(sup, inc)], [top] = norm_row_passes(gaps[p][None], states[p][None], grid.h, 0.3, 0.7)
        assert aggs[p][0].tobytes() == sup.tobytes() and aggs[p][1].tobytes() == inc.tobytes()
        assert deltas[p].hex() == top.hex()
    # the capacity: one pass over the node-pair blocks of the stack
    values, args = lambda_alpha_many(drivers[..., 0], grid.h, 0.3)
    for p in range(STACK):
        value, arg = lambda_alpha(drivers[p, :, 0], grid.h, 0.3)
        assert values[p].hex() == value.hex() and tuple(int(a) for a in args[p]) == arg


def test_cli_sized_batch_is_the_one_path_solves():
    cs = builtin_coefficients("bounded-growth")
    grid = build_grid(1.0, 96)
    drivers = [sample_davies_harte(grid, 0.75, 1, Seed(96), p) for p in range(STACK)]
    want = [fingerprint(picard_solve(cs, 1.0, g, PARAMS)) for g in drivers]
    assert in_batches(cs, 1.0, drivers, STACK) == want
    # a steep driver in the middle of the batch: its iterate climbs past
    # the level where sigma fails, and the batch raises that path's error
    failing = replace(cs, sigma=nan_above(20.0))
    steep = DriverPath.from_callable(grid, lambda t: 40.0 * t)
    mid = STACK // 2
    with pytest.raises(EvaluationError) as exc:
        picard_solve_batch(failing, 1.0, drivers[:mid] + [steep] + drivers[mid + 1 :], PARAMS)
    assert str(exc.value) == solve_error(failing, steep)
    assert in_batches(failing, 1.0, drivers[:mid] + drivers[mid + 1 :], STACK) == want[:mid] + want[mid + 1 :]


def test_state_free_evaluators_on_a_stack_as_tall_as_its_blocks():
    # 32 paths at n = 63 take 32-row blocks in one part: a broadcast that
    # aligned a result without the path axis from the left would read its
    # time axis as the path axis
    n, paths = 63, 32
    assert _part_paths(n + 1) == paths and _row_blocks(0, n + 1, paths)[0] == (0, paths)
    grid = build_grid(1.0, n)
    rng = np.random.default_rng(n)
    states = rng.normal(size=(paths, n + 1, 1))
    drivers = np.cumsum(rng.normal(size=(paths, n + 1, 1)), axis=1)
    drift, diffusion, _ = coefficient_maps(time_only_b, time_only_sigma, states, drivers, grid)
    for p in range(paths):
        one_drift, one_diffusion, _ = coefficient_maps(time_only_b, time_only_sigma, states[p], drivers[p], grid)
        assert drift[p].tobytes() == one_drift.tobytes()
        assert diffusion[p].tobytes() == one_diffusion.tobytes()


# traced peak of one CLI batch solve, in blocks of grid._BLOCK_ENTRIES
# doubles: 3.6 measured on numpy 2.4 (two blocks of sigma's evaluations
# and the left-point buffer, or the pair tables of the capacity pass);
# 64-row blocks of the whole stack peak at 11.8
PEAK_BLOCKS = 5.0


def test_cli_batch_solve_working_set_stays_within_a_few_blocks():
    grid = build_grid(1.0, 96)
    cs = builtin_coefficients("bounded-growth")
    drivers = [sample_davies_harte(grid, 0.75, 1, Seed(7), p) for p in range(STACK)]
    picard_solve_batch(cs, 1.0, drivers, PARAMS)  # weight tables are cached on first use
    tracemalloc.start()
    try:
        picard_solve_batch(cs, 1.0, drivers, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BLOCKS * 8 * grid_mod._BLOCK_ENTRIES, peak / (8 * grid_mod._BLOCK_ENTRIES)
