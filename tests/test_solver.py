import math
import re

import numpy as np
import pytest
from scipy.special import gamma

from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.errors import AdmissibilityError
from volterra_fbm.fbm import DriverPath, Seed, sample_davies_harte
from volterra_fbm.grid import build_grid
from volterra_fbm.norms import HolderParams, w_alpha_infty_norm
from volterra_fbm import solver
from volterra_fbm.solver import (
    admissible_alpha,
    calibrate_growth_bound,
    euler_solve,
    growth_bound_check,
    phi_exponent,
    picard_solve,
    select_lambda,
)


def test_admissible_window_cases():
    w = admissible_alpha(H=0.8, beta=0.9, delta=1.0, mu=1.0)
    assert w.alpha0 == pytest.approx(0.5)
    assert w.lower == pytest.approx(0.2)
    assert w.feasible and w.contains(0.3)

    w2 = admissible_alpha(H=0.6, beta=0.3, delta=1.0, mu=1.0)
    assert not w2.feasible
    assert not w2.constraint_report["beta > 1-H"]

    w3 = admissible_alpha(H=0.75, beta=0.5, delta=0.5, mu=0.9)
    assert w3.alpha0 == pytest.approx(1.0 / 3.0)
    assert w3.lower == pytest.approx(0.25)
    assert w3.constraint_report["delta > 1/H - 1"]
    assert w3.feasible


def test_select_lambda_drift_only_ladder():
    cs = builtin_coefficients("linear-drift", kappa=1.0)
    params = HolderParams(H=0.8, alpha=0.25, T=1.0)
    d_n = 1.0 * (1.0 + 1.0 / 0.75 + gamma(0.75) / 0.25)
    expected = 2.0 ** math.ceil(math.log2((2.0 * d_n) ** (1.0 / 0.75)))
    assert select_lambda(cs, params, 0.0, 1.0, 1.0) == expected


def test_select_lambda_degenerate_and_monotone():
    params = HolderParams(H=0.8, alpha=0.25, T=1.0)
    cs0 = builtin_coefficients("constant-sigma")
    assert select_lambda(cs0, params, 0.0, 1.0, 1.0) == 1.0
    cs = builtin_coefficients("smooth-volterra")
    lam1 = select_lambda(cs, params, 1.0, 1.0, 1.0)
    lam2 = select_lambda(cs, params, 2.0, 1.0, 1.0)
    assert lam2 >= lam1


def test_picard_exponential_ode():
    cs = builtin_coefficients("linear-drift", kappa=1.0)
    params = HolderParams(H=0.8, alpha=0.25, T=1.0)
    errs = {}
    for n in (256, 512):
        g = build_grid(1.0, n)
        rec = picard_solve(cs, 1.0, DriverPath.from_callable(g, lambda t: 0.0), params, tol=1e-10, max_iter=80)
        assert rec.converged
        errs[n] = float(np.max(np.abs(rec.x.values[:, 0] - np.exp(g.nodes))))
    assert errs[512] < 1e-4
    assert errs[256] / errs[512] == pytest.approx(4.0, rel=0.1)


def test_picard_immediate_fixed_point():
    cs = builtin_coefficients("constant-sigma", sigma0=[[2.0]])
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 128)
    drv = sample_davies_harte(g, 0.75, 1, Seed(2))
    rec = picard_solve(cs, 0.5, drv, params, tol=1e-12)
    exact = 0.5 + 2.0 * drv.values[:, 0]
    np.testing.assert_allclose(rec.x.values[:, 0], exact, atol=1e-14)
    assert rec.iterations <= 2 and rec.converged
    assert rec.lambda_used == 1.0


def test_picard_distances_positive_until_convergence():
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 128)
    drv = sample_davies_harte(g, 0.75, 1, Seed(4))
    rec = picard_solve(cs, 1.0, drv, params, tol=1e-9)
    assert rec.converged
    assert all(d > 0 for d in rec.distances[:-1])
    assert rec.x.values[0, 0] == pytest.approx(1.0)


def test_picard_iteration_cap_keeps_the_history():
    # a capped solve stops unconverged with the first distances of the
    # full one, bit for bit, and its radii cover the last iterate
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    drv = sample_davies_harte(build_grid(1.0, 128), 0.75, 1, Seed(4))
    full = picard_solve(cs, 1.0, drv, params, tol=1e-9)
    capped = picard_solve(cs, 1.0, drv, params, tol=1e-9, max_iter=3)
    assert not capped.converged
    assert capped.iterations == 3
    assert capped.distances == full.distances[:3]
    assert capped.delta_radius <= full.delta_radius
    assert capped.sup_radius >= capped.x.sup_norm()


def test_picard_rejects_infeasible_and_out_of_window():
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 64)
    drv = sample_davies_harte(g, 0.75, 1, Seed(1))
    cs = builtin_coefficients("smooth-volterra")
    from dataclasses import replace

    bad = replace(cs, beta=0.2)  # beta > 1-H fails
    with pytest.raises(AdmissibilityError, match="beta > 1-H"):
        picard_solve(bad, 1.0, drv, params, tol=1e-6)
    narrow = replace(cs, delta=0.4)  # alpha0 = 0.4/1.4 < 0.3
    with pytest.raises(AdmissibilityError, match="window"):
        picard_solve(narrow, 1.0, drv, params, tol=1e-6)


def test_euler_telescoping_and_first_order():
    cs0 = builtin_coefficients("constant-sigma", sigma0=[[1.0]])
    g = build_grid(1.0, 128)
    drv = sample_davies_harte(g, 0.75, 1, Seed(6))
    e = euler_solve(cs0, 0.5, drv)
    np.testing.assert_allclose(e.values[:, 0], 0.5 + drv.values[:, 0], atol=1e-14)

    cs = builtin_coefficients("linear-drift", kappa=1.0)
    errs = {}
    for n in (256, 512):
        gn = build_grid(1.0, n)
        e = euler_solve(cs, 1.0, DriverPath.from_callable(gn, lambda t: 0.0))
        errs[n] = float(np.max(np.abs(e.values[:, 0] - np.exp(gn.nodes))))
    assert errs[256] / errs[512] == pytest.approx(2.0, rel=0.1)


def test_picard_euler_agreement_under_refinement():
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    gf = build_grid(1.0, 512)
    fine = sample_davies_harte(gf, 0.75, 1, Seed(2))
    gaps = {}
    for n in (128, 256, 512):
        step = 512 // n
        sub = DriverPath(build_grid(1.0, n), fine.values[::step].copy())
        rec = picard_solve(cs, 1.0, sub, params, tol=1e-9)
        eul = euler_solve(cs, 1.0, sub)
        gaps[n] = float(np.max(np.abs(rec.x.values - eul.values)))
    assert np.log2(gaps[128] / gaps[256]) >= 0.5
    assert np.log2(gaps[256] / gaps[512]) >= 0.5


def test_uniqueness_proxy_two_initial_iterates():
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 128)
    drv = sample_davies_harte(g, 0.75, 1, Seed(8))
    tol = 1e-9
    r1 = picard_solve(cs, 1.0, drv, params, tol=tol)
    r2 = picard_solve(cs, 1.0, drv, params, tol=tol, initial_offset=1.0)
    assert np.max(np.abs(r1.x.values - r2.x.values)) < 10 * tol


def test_contraction_ratio_within_reported_factor():
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 128)
    for p in range(3):
        drv = sample_davies_harte(g, 0.75, 1, Seed(13), path_index=p)
        rec = picard_solve(cs, 1.0, drv, params, tol=1e-8)
        d = [x for x in rec.distances if x > 1e-14]
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1)]
        assert max(ratios) <= rec.theoretical_factor * 1.1


def test_picard_vector_system_constant_sigma():
    # d = 2, m = 2: fixed point is x0 + sigma0 (g(t) - g(0)) componentwise
    sigma0 = [[1.0, 0.2], [0.0, 0.7]]
    cs = builtin_coefficients("constant-sigma", sigma0=sigma0)
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 64)
    drv = sample_davies_harte(g, 0.75, 2, Seed(14))
    x0 = np.array([0.3, -0.1])
    rec = picard_solve(cs, x0, drv, params, tol=1e-12)
    exact = x0 + drv.values @ np.array(sigma0).T
    np.testing.assert_allclose(rec.x.values, exact, atol=1e-13)
    eul = euler_solve(cs, x0, drv)
    np.testing.assert_allclose(eul.values, exact, atol=1e-13)


def test_picard_vector_linear_drift():
    cs = builtin_coefficients("linear-drift", kappa=0.8, d=2)
    params = HolderParams(H=0.8, alpha=0.25, T=1.0)
    g = build_grid(1.0, 256)
    drv = DriverPath.from_callable(g, lambda t: 0.0)
    x0 = np.array([1.0, -2.0])
    rec = picard_solve(cs, x0, drv, params, tol=1e-10, max_iter=80)
    exact = x0[None, :] * np.exp(0.8 * g.nodes)[:, None]
    assert np.max(np.abs(rec.x.values - exact)) < 1e-4


def test_picard_rejects_wrong_x0_dimension():
    cs = builtin_coefficients("linear-drift", d=2)
    params = HolderParams(H=0.8, alpha=0.25, T=1.0)
    g = build_grid(1.0, 64)
    with pytest.raises(ValueError, match="dimension"):
        picard_solve(cs, np.array([1.0]), DriverPath.from_callable(g, lambda t: 0.0), params)


def test_phi_exponent_branches():
    assert phi_exponent(0.3, 0.0) == pytest.approx(1.0 / 0.7)
    assert phi_exponent(0.3, 1.0) == pytest.approx(2.5)
    assert phi_exponent(0.3, 0.8) == pytest.approx(2.525)
    with pytest.raises(ValueError):
        phi_exponent(0.6, 0.5)
    with pytest.raises(ValueError):
        phi_exponent(0.3, 1.5)


def test_growth_bound_calibration_and_holdout():
    cs = builtin_coefficients("bounded-growth")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 96)
    pilots = [
        picard_solve(cs, np.array([1.0]), sample_davies_harte(g, 0.75, 1, Seed(123), path_index=p), params, tol=1e-8)
        for p in range(25)
    ]
    cal = calibrate_growth_bound(pilots, cs, params)
    assert cal.phi == pytest.approx(phi_exponent(0.3, cs.gamma))
    for p in range(500, 520):
        drv = sample_davies_harte(g, 0.75, 1, Seed(123), path_index=p)
        rec = picard_solve(cs, np.array([1.0]), drv, params, tol=1e-8)
        rep = growth_bound_check(rec, cs, params, cal)
        assert rep.satisfied
        assert rep.norm_alpha_infty == pytest.approx(w_alpha_infty_norm(rec.x, 0.3).value)


def test_growth_bound_deterministic_degenerate_fit():
    # sigma = 0: the norm is path-independent, the fitted slope collapses
    cs = builtin_coefficients("linear-drift")
    params = HolderParams(H=0.8, alpha=0.3, T=1.0)
    g = build_grid(1.0, 96)
    recs = [
        picard_solve(cs, 0.5, sample_davies_harte(g, 0.8, 1, Seed(9), path_index=p), params, tol=1e-9)
        for p in range(8)
    ]
    cal = calibrate_growth_bound(recs, cs, params)
    for r in recs:
        assert growth_bound_check(r, cs, params, cal).satisfied


def test_growth_bound_guards():
    cs = builtin_coefficients("bounded-growth")
    cs2 = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 96)
    rec = picard_solve(cs, np.array([1.0]), sample_davies_harte(g, 0.75, 1, Seed(5)), params, tol=1e-8)
    cal = calibrate_growth_bound([rec], cs, params)
    with pytest.raises(ValueError, match="different coefficient set"):
        growth_bound_check(rec, cs2, params, cal)


def test_solution_metadata_schema():
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 96)
    rec = picard_solve(cs, 1.0, sample_davies_harte(g, 0.75, 1, Seed(3)), params, tol=1e-8)
    meta = rec.metadata()
    assert set(meta) == {
        "lambda", "iterations", "distances", "lambda_alpha_g",
        "holder_estimate", "converged", "theoretical_factor",
    }
    assert meta["iterations"] == len(meta["distances"])


def test_replaced_drift_reaches_both_solvers():
    # constant-sigma's zero drift replaced by the constant 5: the solution
    # is x0 + 5 t + sigma0 g(t), from Picard and Euler alike
    from dataclasses import replace

    cs = replace(builtin_coefficients("constant-sigma"), b=lambda t, s, x: 5.0 + 0.0 * x)
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 64)
    drv = sample_davies_harte(g, 0.75, 1, Seed(3))
    exact = 0.5 + 5.0 * g.nodes + drv.values[:, 0]
    np.testing.assert_allclose(picard_solve(cs, 0.5, drv, params, tol=1e-12).x.values[:, 0],
                               exact, atol=1e-12)
    np.testing.assert_allclose(euler_solve(cs, 0.5, drv).values[:, 0], exact, atol=1e-12)


def test_replaced_diffusion_reaches_both_solvers_and_the_weight():
    # linear-drift's zero diffusion replaced by the constant 1, with no
    # drift: the solution is x0 + g(t), and the contraction terms carry
    # the diffusion
    from dataclasses import replace

    from volterra_fbm.solver import _contraction_terms

    cs = replace(builtin_coefficients("linear-drift", kappa=0.0),
                 sigma=lambda t, s, x: 1.0 + 0.0 * x[..., None])
    params = HolderParams(H=0.8, alpha=0.25, T=1.0)
    g = build_grid(1.0, 64)
    drv = sample_davies_harte(g, 0.8, 1, Seed(4))
    exact = 0.5 + drv.values[:, 0]
    np.testing.assert_allclose(picard_solve(cs, 0.5, drv, params, tol=1e-12).x.values[:, 0],
                               exact, atol=1e-12)
    np.testing.assert_allclose(euler_solve(cs, 0.5, drv).values[:, 0], exact, atol=1e-12)
    assert _contraction_terms(cs, 0.25, 1.0, 1.0, literal=True)[1] is not None


@pytest.mark.parametrize("x0, message", [
    (np.nan, "initial state must be finite"),
    (np.inf, "initial state must be finite"),
    (np.array([1.0, 2.0]), "initial state must have dimension 1"),
], ids=["nan", "inf", "wrong-dimension"])
def test_euler_refuses_bad_initial_state(x0, message):
    cs = builtin_coefficients("smooth-volterra")
    drv = DriverPath.from_callable(build_grid(1.0, 16), lambda t: 0.0)
    with pytest.raises(ValueError, match=message):
        euler_solve(cs, x0, drv)


@pytest.mark.parametrize("name, m", [
    ("smooth-volterra", 0),  # no component for the capacity to sum
    ("linear-drift", 2),  # sigma = 0: no map reads the driver
    ("smooth-volterra", 2),  # Euler's einsum would broadcast sigma's m = 1 axis
], ids=["no-component", "sigma-zero", "sigma-nonzero"])
def test_solvers_refuse_a_driver_of_the_wrong_dimension(monkeypatch, name, m):
    # the refusal comes on entry, before the O(n^2) capacity pass
    def no_capacity(*args):
        raise AssertionError("the capacity pass ran")

    monkeypatch.setattr(solver, "total_lambda_alpha", no_capacity)
    cs = builtin_coefficients(name)
    grid = build_grid(1.0, 64)
    drv = DriverPath(grid, np.cumsum(np.random.default_rng(m).normal(size=(grid.n + 1, m)), axis=0) / 8.0)
    msg = re.escape(f"coefficient set {name!r} has driver dimension m=1, but the driver has m={m}")
    with pytest.raises(ValueError, match=msg):
        picard_solve(cs, 1.0, drv, HolderParams(H=0.75, alpha=0.3, T=1.0))
    with pytest.raises(ValueError, match=msg):
        euler_solve(cs, 1.0, drv)
