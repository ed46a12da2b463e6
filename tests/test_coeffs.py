import numpy as np
import pytest

from volterra_fbm.coeffs import (
    builtin_coefficients,
    catalog_names,
    partials_fd_check,
    verify_hypotheses,
)
from volterra_fbm.errors import CatalogError


def test_unknown_name_raises():
    with pytest.raises(CatalogError):
        builtin_coefficients("no-such-model")


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("radius", [1.0, 10.0])
def test_catalog_passes_hypothesis_audit(name, radius):
    cs = builtin_coefficients(name)
    rep = verify_hypotheses(cs, 100000, radius, rng_seed=101)
    assert rep.passed, rep.constants_used


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_passes_fd_audit(name):
    cs = builtin_coefficients(name)
    rep = partials_fd_check(cs, 3000, rng_seed=7)
    assert rep.passed, rep.constants_used


def test_constant_sigma_constants():
    cs = builtin_coefficients("constant-sigma", sigma0=[[2.0, 0.0], [0.0, 1.0]])
    assert cs.K == 0.0 and cs.K_N(5.0) == 0.0
    assert cs.gamma == 0.0
    assert cs.K_0 == pytest.approx(np.sqrt(5.0))  # Frobenius of sigma0
    assert cs.d == 2 and cs.m == 2
    assert cs.b_is_zero


def test_linear_drift_sharpness():
    cs = builtin_coefficients("linear-drift", kappa=1.0)
    assert cs.L_N(3.0) == 1.0 and cs.L_0 == 1.0 and cs.L == 0.0
    assert cs.B_0_alpha(0.25) == 0.0
    rep = verify_hypotheses(cs, 50000, 10.0, rng_seed=3)
    # spatial Lipschitz inequality of b is attained
    assert rep.constants_used["ratio_H2_1"] == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_smooth_volterra_evaluators_shapes():
    cs = builtin_coefficients("smooth-volterra", a=1.0, c=1.0)
    t = np.array([0.5, 0.8])
    s = np.array([0.1, 0.2])
    x = np.array([[0.3], [0.4]])
    assert cs.sigma(t, s, x).shape == (2, 1, 1)
    assert cs.b(t, s, x).shape == (2, 1)
    assert cs.dsigma_dx(t, s, x).shape == (2, 1, 1, 1)
    assert cs.d2sigma_dxdt(t, s, x).shape == (2, 1, 1, 1)
    # closed forms at a point
    assert cs.sigma(0.5, 0.1, np.array([0.3]))[0, 0] == pytest.approx(np.cos(0.3) * np.exp(-0.4))
    assert cs.b(0.5, 0.1, np.array([0.3]))[0] == pytest.approx(np.sin(0.3) / 1.4)


def test_bounded_growth_wide_range_growth_ratio():
    cs = builtin_coefficients("bounded-growth")
    x = np.linspace(-1e6, 1e6, 200001)[:, None]
    lhs = np.abs(cs.sigma(1.0, 0.5, x)[..., 0, 0])
    rhs = cs.K_0 * (1.0 + np.abs(x[:, 0]) ** cs.gamma)
    assert np.max(lhs / rhs) <= 1.0


def test_bounded_growth_rejects_bad_gamma():
    with pytest.raises(ValueError):
        builtin_coefficients("bounded-growth", gamma=1.5)


def test_corrupted_partial_fails_fd_check():
    cs = builtin_coefficients("smooth-volterra")
    biased = cs.dsigma_dx

    def bad_partial(t, s, x):
        return biased(t, s, x) + 1.0

    from dataclasses import replace

    corrupted = replace(cs, dsigma_dx=bad_partial)
    rep = partials_fd_check(corrupted, 500, rng_seed=5)
    assert not rep.passed


def test_declared_constants_are_safe_not_just_sampled():
    # inflating N must not break the local constants for these catalogs
    cs = builtin_coefficients("bounded-growth")
    rep = verify_hypotheses(cs, 50000, 50.0, rng_seed=11)
    assert rep.passed


def test_zero_terms_read_off_the_evaluators():
    # the catalog's zero terms are recognised from their evaluators
    zero = {(name, term) for name in catalog_names() for term in ("b", "sigma")
            if getattr(builtin_coefficients(name), f"{term}_is_zero")}
    assert zero == {("constant-sigma", "b"), ("linear-drift", "sigma"), ("bounded-growth", "b")}
    # a replaced evaluator is no longer zero, whatever the entry declared
    from dataclasses import replace

    cs = replace(builtin_coefficients("bounded-growth"), b=lambda t, s, x: 5.0 * x)
    assert not cs.b_is_zero
    cs = replace(builtin_coefficients("linear-drift"), sigma=lambda t, s, x: x[..., None])
    assert not cs.sigma_is_zero
    with pytest.raises(TypeError):
        replace(cs, sigma_is_zero=True)


@pytest.mark.parametrize("check", [
    lambda cs: partials_fd_check(cs, -1, 0),
    lambda cs: verify_hypotheses(cs, -1, 1.0, 0),
])
def test_negative_sample_count_is_named(check):
    with pytest.raises(ValueError, match=r"sample_count must be nonnegative, got -1"):
        check(builtin_coefficients("smooth-volterra"))


def test_partials_fd_check_at_zero_cases_fails():
    rep = partials_fd_check(builtin_coefficients("smooth-volterra"), 0, rng_seed=7)
    assert rep.cases == 0 and not rep.passed
    assert rep.notes == "no cases were checked"
