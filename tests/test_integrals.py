import numpy as np
import pytest
from scipy.special import gamma

from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.errors import EvaluationError
from volterra_fbm.fbm import DriverPath, Seed, deterministic_driver, sample_davies_harte
from volterra_fbm.grid import BivariateKernelValues, GridFunction, build_grid
from volterra_fbm.integrals import (
    diffusion_term,
    drift_term,
    lebesgue_volterra,
    young_frac,
    young_rs,
)
from volterra_fbm.norms import alpha_1_norm, w_1malpha_norm


def kernel_of(grid, fn):
    return BivariateKernelValues.from_callable(grid, fn)


def subsampled(fine: DriverPath, n: int) -> DriverPath:
    step = fine.grid.n // n
    return DriverPath(build_grid(fine.grid.T, n), fine.values[::step].copy(), hurst=fine.hurst)


def test_lebesgue_constant_and_polynomial():
    g = build_grid(1.0, 128)
    r = lebesgue_volterra(kernel_of(g, lambda t, s: np.ones_like(t * s)))
    np.testing.assert_allclose(r.values.values[:, 0], g.nodes, atol=1e-14)
    assert r.values.values[0, 0] == 0.0
    r2 = lebesgue_volterra(kernel_of(g, lambda t, s: t - s))
    np.testing.assert_allclose(r2.values.values[:, 0], g.nodes ** 2 / 2, atol=1e-14)


def test_lebesgue_exponential_second_order():
    errs = {}
    for n in (128, 256):
        g = build_grid(1.0, n)
        r = lebesgue_volterra(kernel_of(g, lambda t, s: np.exp(-(t - s))))
        errs[n] = np.max(np.abs(r.values.values[:, 0] - (1 - np.exp(-g.nodes))))
    assert errs[128] / errs[256] == pytest.approx(4.0, rel=0.05)


def test_drift_term_cases():
    g = build_grid(1.0, 256)
    xc = GridFunction(g, np.full(g.n + 1, 2.0))
    r = drift_term(lambda t, s, x: x, xc)
    np.testing.assert_allclose(r.values.values[:, 0], 2.0 * g.nodes, atol=1e-13)
    xz = GridFunction(g, np.zeros(g.n + 1))
    r0 = drift_term(lambda t, s, x: np.zeros_like(x), xz)
    np.testing.assert_allclose(r0.values.values, 0.0)
    xs = GridFunction(g, g.nodes.copy())
    r3 = drift_term(lambda t, s, x: (t - s)[..., None] * x, xs)
    np.testing.assert_allclose(r3.values.values[:, 0], g.nodes ** 3 / 6, atol=1e-5)


def test_drift_term_nonfinite_evaluation():
    g = build_grid(1.0, 8)
    x = GridFunction(g, np.ones(g.n + 1))

    def bad(t, s, xv):
        out = np.broadcast_to(xv, np.broadcast_shapes(np.shape(t), np.shape(s), np.shape(xv)[:-1]) + (1,)).copy()
        out[..., 0] = np.nan
        return out

    with pytest.raises(EvaluationError):
        drift_term(bad, x)


def test_young_rs_constant_kernel_telescopes():
    g = build_grid(1.0, 128)
    drv = sample_davies_harte(g, 0.75, 1, Seed(3))
    r = young_rs(kernel_of(g, lambda t, s: np.full_like(t * s, 1.7)), drv)
    np.testing.assert_allclose(
        r.values.values[:, 0], 1.7 * (drv.values[:, 0] - drv.values[0, 0]), atol=1e-13
    )


def test_young_rs_deterministic_left_point_error():
    g = build_grid(1.0, 512)
    lin = deterministic_driver(g, lambda t: t)
    r = young_rs(kernel_of(g, lambda t, s: s + 0 * t), lin)
    err = np.max(np.abs(r.values.values[:, 0] - g.nodes ** 2 / 2))
    assert err == pytest.approx(g.h / 2, rel=1e-10)


def test_young_rs_pathwise_chain_rule():
    # f(t,s) = g(s): integral is (g(t)^2 - g(0)^2) / 2 pathwise
    n = 4096
    g = build_grid(1.0, n)
    drv = sample_davies_harte(g, 0.75, 1, Seed(5))
    k = BivariateKernelValues(g, np.broadcast_to(drv.values[None, :, 0], (n + 1, n + 1)).copy())
    r = young_rs(k, drv).values.values[:, 0]
    closed = (drv.values[:, 0] ** 2 - drv.values[0, 0] ** 2) / 2
    rel = np.max(np.abs(r - closed)) / np.max(np.abs(closed))
    assert rel < 0.02


def test_young_rs_bilinear():
    rng = np.random.default_rng(0)
    g = build_grid(1.0, 64)
    drv = sample_davies_harte(g, 0.8, 1, Seed(9))
    k1 = BivariateKernelValues(g, rng.normal(size=(65, 65)))
    k2 = BivariateKernelValues(g, rng.normal(size=(65, 65)))
    combo = BivariateKernelValues(g, 2.0 * k1.values - 0.5 * k2.values)
    lhs = young_rs(combo, drv).values.values
    rhs = 2.0 * young_rs(k1, drv).values.values - 0.5 * young_rs(k2, drv).values.values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_young_rs_dimension_mismatch():
    g = build_grid(1.0, 16)
    drv = sample_davies_harte(g, 0.75, 2, Seed(1))
    k = BivariateKernelValues(g, np.ones((17, 17)))  # scalar kernel, m=1
    with pytest.raises(ValueError):
        young_rs(k, drv)


def test_young_rs_matrix_contraction():
    # sigma of shape (d=2, m=2) contracts against the driver increments
    g = build_grid(1.0, 32)
    drv = sample_davies_harte(g, 0.75, 2, Seed(12))
    mat = np.array([[1.0, 0.0], [0.5, -1.0]])
    vals = np.broadcast_to(mat, (33, 33, 2, 2)).copy()
    r = young_rs(BivariateKernelValues(g, vals), drv).values.values
    expected = (drv.values - drv.values[0]) @ mat.T
    np.testing.assert_allclose(r, expected, atol=1e-13)


def test_young_frac_constant_kernel_exact():
    g = build_grid(1.0, 256)
    lin = deterministic_driver(g, lambda t: t)
    k = kernel_of(g, lambda t, s: np.full_like(t * s, 1.0))
    r = young_frac(k, lin, 0.25).values.values[:, 0]
    np.testing.assert_allclose(r[1:], g.nodes[1:], rtol=1e-12)


def test_young_frac_identity_kernel():
    g = build_grid(1.0, 512)
    lin = deterministic_driver(g, lambda t: t)
    k = kernel_of(g, lambda t, s: s + 0 * t)
    r = young_frac(k, lin, 0.25).values.values[:, 0]
    exact = g.nodes ** 2 / 2
    # path-scale relative error
    assert np.max(np.abs(r - exact)) / exact[-1] < 1e-3


def test_young_routes_agree_and_tighten():
    n_fine = 1024
    gf = build_grid(1.0, n_fine)
    fine = sample_davies_harte(gf, 0.75, 1, Seed(5))
    dis = {}
    for n in (256, 512):
        drv = subsampled(fine, n)
        k = BivariateKernelValues(
            drv.grid, np.broadcast_to(drv.values[None, :, 0], (n + 1, n + 1)).copy()
        )
        rs = young_rs(k, drv).values.values[:, 0]
        fr = young_frac(k, drv, 0.2).values.values[:, 0]
        dis[n] = np.max(np.abs(rs - fr)) / np.max(np.abs(rs))
    assert dis[512] < 0.02
    assert dis[512] / dis[256] <= 0.75


def test_young_frac_multicomponent_driver():
    # d=1, m=2 kernel: the fractional route contracts each component and
    # sums, matching the Riemann-Stieltjes route on smooth data
    g = build_grid(1.0, 128)
    t = g.nodes[:, None]
    s = g.nodes[None, :]
    vals = np.empty((129, 129, 1, 2))
    vals[..., 0, 0] = 1.0 + 0 * (t * s)
    vals[..., 0, 1] = s + 0 * t
    k = BivariateKernelValues(g, vals)
    drv = DriverPath(g, np.stack([g.nodes, np.sin(g.nodes)], axis=1), hurst=None)
    rs = young_rs(k, drv).values.values[:, 0]
    fr = young_frac(k, drv, 0.25).values.values[:, 0]
    assert np.max(np.abs(rs - fr)) / np.max(np.abs(rs)) < 0.01


def test_stieltjes_capacity_bound():
    # |int f dg| <= Lambda_upper * |f|_{alpha,1} on randomized pairs
    rng = np.random.default_rng(2)
    g = build_grid(1.0, 256)
    alpha = 0.3
    for p in range(4):
        drv = sample_davies_harte(g, 0.75, 1, Seed(23), path_index=p)
        lam_up = w_1malpha_norm(drv.values[:, 0], g.h, alpha) / (gamma(1 - alpha) * gamma(alpha))
        f_vals = np.cumsum(rng.normal(size=g.n + 1)) * 0.1
        k = BivariateKernelValues(g, np.broadcast_to(f_vals[None, :], (g.n + 1, g.n + 1)).copy())
        total = young_rs(k, drv).values.values[-1, 0]
        bound = lam_up * alpha_1_norm(GridFunction(g, f_vals), alpha)
        assert abs(total) <= bound * 1.05


def test_diffusion_term_cases():
    g = build_grid(1.0, 128)
    drv = sample_davies_harte(g, 0.75, 1, Seed(2))
    x = GridFunction(g, np.zeros(g.n + 1))

    def sigma_const(t, s, xv):
        shape = np.broadcast_shapes(np.shape(t), np.shape(s), np.shape(xv)[:-1])
        return np.full(shape + (1, 1), 2.0)

    r = diffusion_term(sigma_const, x, drv)
    np.testing.assert_allclose(r.values.values[:, 0], 2.0 * (drv.values[:, 0] - drv.values[0, 0]), atol=1e-13)

    def sigma_zero(t, s, xv):
        shape = np.broadcast_shapes(np.shape(t), np.shape(s), np.shape(xv)[:-1])
        return np.zeros(shape + (1, 1))

    np.testing.assert_allclose(diffusion_term(sigma_zero, x, drv).values.values, 0.0)

    # deterministic driver: sigma = cos(x) e^{-(t-s)}, x = 0 -> 1 - e^{-t}
    lin = deterministic_driver(g, lambda t: t)

    def sigma_exp(t, s, xv):
        e = np.exp(-(np.asarray(t) - np.asarray(s)))
        return (np.cos(xv[..., 0]) * e)[..., None, None]

    # left-point rule is O(h): error bounded by ~h/2
    r3 = diffusion_term(sigma_exp, x, lin).values.values[:, 0]
    np.testing.assert_allclose(r3, 1 - np.exp(-g.nodes), atol=g.h / 2 * 1.05)


# --- the row-blocked triangle maps against the table rules -------------

def square_kernel(fn, x: GridFunction) -> BivariateKernelValues:
    """fn on the whole (n+1)^2 square with the state broadcast over t:
    the table the blocked maps avoid building."""
    g = x.grid
    t = g.nodes[:, None]
    s = g.nodes[None, :]
    states = np.broadcast_to(x.values[None, :, :], (g.n + 1,) + x.values.shape)
    return BivariateKernelValues(g, np.asarray(fn(t, np.minimum(s, t), states), dtype=float))


def unbroadcast(fn):
    """fn, asserting the maps' call: the state un-broadcast, (1, k, d)."""

    def wrapped(t, s, x):
        assert x.ndim == 3 and x.shape[0] == 1 and x.shape[1] == np.shape(s)[1]
        return fn(t, s, x)

    return wrapped


def causal_b(t, s, x):
    assert np.all(s <= t)
    return np.sin(x) / (1.0 + t - s)[..., None]


def causal_sigma(t, s, x):
    return causal_b(t, s, x)[..., None] * np.exp(-(t - s))[..., None, None]


def matrix_sigma(t, s, x):
    # d = 2, m = 3
    assert np.all(s <= t)
    e = np.exp(-(np.asarray(t) - np.asarray(s)))
    a = np.array([[1.0, 0.3, -0.2], [0.5, -1.0, 0.7]])
    return np.cos(x)[..., :, None] * a * e[..., None, None]


def state_only_b(t, s, x):
    # smaller than the block: broadcast by the map
    return np.tanh(x)


ORACLE_NS = (2, 3, 255, 256, 257, 1000)


@pytest.mark.parametrize("n", ORACLE_NS)
@pytest.mark.parametrize("name", ["smooth-volterra", "linear-drift", "bounded-growth", "constant-sigma"])
def test_blocked_maps_match_table_rules_catalog(n, name):
    cs = builtin_coefficients(name)
    g = build_grid(1.0, n)
    rng = np.random.default_rng(n)
    x = GridFunction(g, 1.0 + 0.1 * np.cumsum(rng.normal(size=n + 1)))
    drv = sample_davies_harte(g, 0.75, 1, Seed(n))
    assert np.array_equal(
        drift_term(cs.b, x).values.values, lebesgue_volterra(square_kernel(cs.b, x)).values.values
    )
    assert np.array_equal(
        diffusion_term(cs.sigma, x, drv).values.values,
        young_rs(square_kernel(cs.sigma, x), drv).values.values,
    )


@pytest.mark.parametrize("n", ORACLE_NS)
def test_blocked_maps_match_table_rules_vector(n):
    g = build_grid(2.0, n)
    rng = np.random.default_rng(100 + n)
    x = GridFunction(g, rng.normal(size=(n + 1, 2)))
    drv1 = sample_davies_harte(g, 0.7, 1, Seed(n))
    drv3 = sample_davies_harte(g, 0.7, 3, Seed(n))
    for b in (causal_b, state_only_b):
        assert np.array_equal(
            drift_term(unbroadcast(b), x).values.values, lebesgue_volterra(square_kernel(b, x)).values.values
        )
    assert np.array_equal(
        diffusion_term(unbroadcast(causal_sigma), x, drv1).values.values,
        young_rs(square_kernel(causal_sigma, x), drv1).values.values,
    )
    r = diffusion_term(unbroadcast(matrix_sigma), x, drv3).values.values
    assert r.shape == (n + 1, 2)
    assert np.array_equal(r, young_rs(square_kernel(matrix_sigma, x), drv3).values.values)


def test_diffusion_term_dimension_mismatch():
    g = build_grid(1.0, 16)
    x = GridFunction(g, np.zeros(g.n + 1))
    drv2 = sample_davies_harte(g, 0.75, 2, Seed(1))
    with pytest.raises(ValueError, match="driver dimension 1, driver has m=2"):
        diffusion_term(builtin_coefficients("smooth-volterra").sigma, x, drv2)
    with pytest.raises(ValueError, match="driver dimension 3 != driver m=2"):
        diffusion_term(matrix_sigma, GridFunction(g, np.zeros((g.n + 1, 2))), drv2)


def test_nonfinite_check_covers_the_triangle_only():
    g = build_grid(1.0, 512)
    nodes = g.nodes
    x = GridFunction(g, nodes.copy())

    def nan_above_diagonal(t, s, xv):
        # x(t_j) = t_j, so x > t marks the unread entries j > i
        return np.where(xv[..., 0] > t, np.nan, 1.0)[..., None]

    np.testing.assert_allclose(drift_term(nan_above_diagonal, x).values.values[:, 0], nodes, atol=1e-13)

    def nan_at_one_node(t, s, xv):
        hit = (t == nodes[300]) & (s == nodes[7])
        return np.where(hit, np.nan, 1.0)[..., None] + 0.0 * xv

    msg = f"drift evaluator returned non-finite value at \\(t, s\\) = \\({nodes[300]:g}, {nodes[7]:g}\\)"
    with pytest.raises(EvaluationError, match=msg):
        drift_term(nan_at_one_node, x)
