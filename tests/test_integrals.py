import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc, gamma

from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.errors import EvaluationError
from volterra_fbm.fbm import DriverPath, Seed, sample_davies_harte
from volterra_fbm.fraccalc import _gamma, beta_fn, check_alpha, left_frac_derivative_all, weyl_bracket_matrix
from volterra_fbm.grid import BivariateKernelValues, GridFunction, build_grid
from volterra_fbm.integrals import (
    _as_matrix_kernel,
    _check_driver_dimension,
    _doubly_singular_blocks,
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
    return DriverPath(build_grid(fine.grid.T, n), fine.values[::step].copy())


def test_lebesgue_constant_and_polynomial():
    g = build_grid(1.0, 128)
    r = lebesgue_volterra(kernel_of(g, lambda t, s: np.ones_like(t * s)))
    np.testing.assert_allclose(r.values.values[:, 0], g.nodes, atol=1e-14)
    assert r.values.values[0, 0] == 0.0
    r2 = lebesgue_volterra(kernel_of(g, lambda t, s: t - s))
    np.testing.assert_allclose(r2.values.values[:, 0], g.nodes ** 2 / 2, atol=1e-14)


def test_lebesgue_refuses_matrix_kernel():
    # a (d, m) kernel with m > 1 has no Lebesgue integral: refused, not
    # cut to its first column; a (d, 1) kernel is a (d,) one
    g = build_grid(1.0, 8)
    vals = np.ones((9, 9, 2, 3))
    vals[..., 1:] = 5.0
    with pytest.raises(ValueError, match="got m = 3 columns"):
        lebesgue_volterra(BivariateKernelValues(g, vals))
    r = lebesgue_volterra(BivariateKernelValues(g, vals[..., :1])).values.values
    np.testing.assert_allclose(r, np.repeat(g.nodes[:, None], 2, axis=1), atol=1e-14)


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
    lin = DriverPath.from_callable(g, lambda t: t)
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
    lin = DriverPath.from_callable(g, lambda t: t)
    k = kernel_of(g, lambda t, s: np.full_like(t * s, 1.0))
    r = young_frac(k, lin, 0.25).values.values[:, 0]
    np.testing.assert_allclose(r[1:], g.nodes[1:], rtol=1e-12)


def test_young_frac_identity_kernel():
    g = build_grid(1.0, 512)
    lin = DriverPath.from_callable(g, lambda t: t)
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
    drv = DriverPath(g, np.stack([g.nodes, np.sin(g.nodes)], axis=1))
    rs = young_rs(k, drv).values.values[:, 0]
    fr = young_frac(k, drv, 0.25).values.values[:, 0]
    assert np.max(np.abs(rs - fr)) / np.max(np.abs(rs)) < 0.01


# --- young_frac's row blocks against the per-row rule ------------------

def _doubly_singular_quadrature(w_left: float, w_interior: np.ndarray, t: float, alpha: float) -> float:
    """integral_0^t m(s) W(s) ds for the kernel
    m(s) = s^{-alpha} (t-s)^{alpha-1}, with W sampled at the i-1 interior
    nodes of a uniform i-cell grid on [0, t].

    w_left is the s -> 0 limit of W; the s -> t limit is 0 for Holder
    drivers (both limits are exact, see young_frac).  Cells are
    integrated against the exact kernel moments, which are incomplete
    Beta differences, so the rule is exact for piecewise-linear W.
    """
    i = w_interior.shape[0] + 1
    wfull = np.empty(i + 1)
    wfull[1:-1] = w_interior
    wfull[0] = w_left
    wfull[-1] = 0.0
    x = np.linspace(0.0, 1.0, i + 1)
    b0 = beta_fn(1.0 - alpha, alpha)
    b1 = beta_fn(2.0 - alpha, alpha)
    i0 = b0 * betainc(1.0 - alpha, alpha, x)
    i1 = b1 * betainc(2.0 - alpha, alpha, x)
    m0 = np.diff(i0)
    m1 = t * np.diff(i1)
    s = x * t
    h = t / i
    slope = (wfull[1:] - wfull[:-1]) / h
    cell = wfull[:-1] * m0 + slope * (m1 - s[:-1] * m0)
    return float(cell.sum())


def young_frac_per_row(f: BivariateKernelValues, g: DriverPath, alpha: float) -> np.ndarray:
    """The oracle: young_frac as it was before its row blocks, one left
    derivative and two betainc tables per row and component."""
    check_alpha(alpha)
    v = _as_matrix_kernel(f.values)
    _check_driver_dimension(v.shape[3], g.m)
    grid = f.grid
    n, h = grid.n, grid.h
    d = v.shape[2]
    vals = np.zeros((n + 1, d))
    brackets = [weyl_bracket_matrix(g.component(c), h, alpha) for c in range(g.m)]
    nodes = grid.nodes
    g1a = _gamma(1.0 - alpha)
    for i in range(1, n + 1):
        t = nodes[i]
        if i == 1:
            # no interior node: degenerate single cell, left-point rule
            vals[1] = np.einsum("dm,m->d", v[1, 0], g.values[1] - g.values[0])
            continue
        for c in range(g.m):
            w_col = brackets[c][1:i, i]  # Weyl bracket at interior s
            v0 = brackets[c][0, i]
            for k in range(d):
                u_all = left_frac_derivative_all(v[i, : i + 1, k, c], h, alpha)
                u_int = u_all[1:i]
                s_int = nodes[1:i]
                w_interior = u_int * w_col * s_int ** alpha * (t - s_int) ** (1.0 - alpha)
                # s -> 0 limit: u(s) s^alpha -> f(t, 0) / Gamma(1-alpha)
                w_left = v[i, 0, k, c] / g1a * v0 * t ** (1.0 - alpha)
                vals[i, k] -= _doubly_singular_quadrature(w_left, w_interior, t, alpha)
    return vals


def assert_matches_per_row(k: BivariateKernelValues, drv: DriverPath, alpha: float):
    want = young_frac_per_row(k, drv, alpha)
    got = young_frac(k, drv, alpha).values.values
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want)))


@pytest.mark.parametrize("n", [2, 3, 17, 64, 257, 1024])
@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.45])
def test_young_frac_matches_per_row_rule(n, alpha):
    g = build_grid(1.0, n)
    drv = sample_davies_harte(g, 0.75, 1, Seed(n))
    k = BivariateKernelValues(g, np.broadcast_to(drv.values[None, :, 0], (n + 1, n + 1)).copy())
    assert_matches_per_row(k, drv, alpha)


@pytest.mark.parametrize(
    "n, alpha",
    [(n, a) for a in (0.01, 0.49) for n in (2, 3, 17, 64, 257)]
    + [(1024, 0.01)]
    + [(n, a) for a in (1e-3, 0.499) for n in (2, 3)],
)
def test_young_frac_matches_per_row_rule_window_edges(n, alpha):
    g = build_grid(1.0, n)
    drv = sample_davies_harte(g, 0.75, 1, Seed(n))
    k = BivariateKernelValues(g, np.broadcast_to(drv.values[None, :, 0], (n + 1, n + 1)).copy())
    assert_matches_per_row(k, drv, alpha)


def test_young_frac_matches_per_row_rule_time_varying_kernel():
    g = build_grid(2.0, 257)
    drv = sample_davies_harte(g, 0.75, 1, Seed(3))
    k = kernel_of(g, lambda t, s: np.cos(3.0 * t) * np.exp(-(t - s)) + np.sin(5.0 * s) * t)
    for alpha in (0.05, 0.2, 0.45):
        assert_matches_per_row(k, drv, alpha)


@pytest.mark.parametrize("n", [17, 64])
def test_young_frac_matches_per_row_rule_matrix_kernel(n):
    # d = 2, m = 2: each block contracts both components of both rows
    g = build_grid(1.0, n)
    drv = sample_davies_harte(g, 0.75, 2, Seed(7))
    t = g.nodes[:, None]
    s = g.nodes[None, :]
    vals = np.empty((n + 1, n + 1, 2, 2))
    vals[..., 0, 0] = np.cos(t - s)
    vals[..., 0, 1] = s * t
    vals[..., 1, 0] = np.exp(-s) + 0 * t
    vals[..., 1, 1] = np.sin(2.0 * t + s)
    k = BivariateKernelValues(g, vals)
    for alpha in (0.05, 0.2, 0.45):
        assert_matches_per_row(k, drv, alpha)


# the window edges of alpha (0.01, 0.49) besides the interior ones
MOMENT_ALPHAS = [0.01, 0.05, 0.2, 0.45, 0.49]


def _betainc_weights(cells: np.ndarray, width: int, alpha: float) -> np.ndarray:
    """The oracle: _doubly_singular_blocks' rows as they were before its
    moment series, one betainc per node.  The zeroth moments are
    differences of B(1-a,a) I_x(1-a,a), the first ones come from them by
    the Beta recurrence

        B(2-a,a) I_x(2-a,a) = (1-a) B(1-a,a) I_x(1-a,a) - x^{1-a} (1-x)^a,

    and nodes past i sit at x = 1, where both are constant."""
    x = np.minimum(np.arange(width) / cells[:, None], 1.0)
    i0 = beta_fn(1.0 - alpha, alpha) * betainc(1.0 - alpha, alpha, x)
    i1 = (1.0 - alpha) * i0 - x ** (1.0 - alpha) * (1.0 - x) ** alpha
    m0 = np.diff(i0, axis=1)
    slope = cells[:, None] * (np.diff(i1, axis=1) - x[:, :-1] * m0)
    out = np.zeros(x.shape)
    out[:, :-1] = m0 - slope
    out[:, 1:] += slope
    return out


@pytest.mark.parametrize("alpha", MOMENT_ALPHAS)
def test_doubly_singular_rule_exact_for_linear_w(alpha):
    # W(s) = t - s: int_0^t s^{-alpha} (t-s)^alpha ds = t B(1-alpha, 1+alpha),
    # for every row of the block rule up to 4096 cells and for the per-row rule
    t = 0.7
    exact = t * beta_fn(1.0 - alpha, 1.0 + alpha)
    for lo, hi, weights in _doubly_singular_blocks(4096, alpha):
        cells = np.arange(lo, hi)[:, None]
        j = np.arange(hi)
        assert np.all(weights[j > cells] == 0.0)
        got = (weights * (t - t * np.minimum(j / cells, 1.0))).sum(axis=1)
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-13, (lo, got, exact)
    for i in (2, 3, 64, 1024, 4096):
        s = t * np.arange(i + 1) / i
        oracle = _doubly_singular_quadrature(t, t - s[1:i], t, alpha)
        assert abs(oracle / exact - 1.0) <= 1e-13, (i, oracle, exact)


@pytest.mark.parametrize("alpha", MOMENT_ALPHAS)
def test_doubly_singular_weights_sum_to_beta(alpha):
    # W = 1: the weights of every row sum to int_0^1 u^{-alpha} (1-u)^{alpha-1} du
    exact = beta_fn(1.0 - alpha, alpha)
    for lo, hi, weights in _doubly_singular_blocks(4096, alpha):
        assert np.max(np.abs(weights.sum(axis=1) / exact - 1.0)) <= 1e-13, lo


@pytest.mark.parametrize("alpha", [0.01, 0.2, 0.49])
def test_doubly_singular_weights_match_betainc_rows(alpha):
    # both routes round the slope recurrence's cancellation differently;
    # the exactness tests above pin the rule itself
    for lo, hi, weights in _doubly_singular_blocks(1024, alpha):
        want = _betainc_weights(np.arange(lo, hi), hi, alpha)
        gap = np.max(np.abs(weights - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.max(gap) <= 1e-10, (lo, gap)


# a kernel on 32 cells against a driver on 64
MISMATCH = "kernel grid TimeGrid\\(n=32, T=1.0\\) differs from the driver grid TimeGrid\\(n=64, T=1.0\\)"


def kernel_and_finer_driver():
    drv64 = sample_davies_harte(build_grid(1.0, 64), 0.75, 1, Seed(1))
    return BivariateKernelValues(build_grid(1.0, 32), np.ones((33, 33))), drv64


def test_young_frac_refuses_mismatched_grids():
    k32, drv64 = kernel_and_finer_driver()
    with pytest.raises(ValueError, match=MISMATCH):
        young_frac(k32, drv64, 0.2)


def test_young_rs_refuses_mismatched_grids():
    k32, drv64 = kernel_and_finer_driver()
    with pytest.raises(ValueError, match=MISMATCH):
        young_rs(k32, drv64)


def test_diffusion_term_refuses_mismatched_grids():
    sigma = builtin_coefficients("smooth-volterra").sigma
    g64 = build_grid(1.0, 64)
    drv64 = sample_davies_harte(g64, 0.75, 1, Seed(1))
    x32 = GridFunction(build_grid(1.0, 32), np.zeros(33))
    with pytest.raises(ValueError, match="state grid TimeGrid\\(n=32, T=1.0\\) differs from the driver grid"):
        diffusion_term(sigma, x32, drv64)
    x_t2 = GridFunction(build_grid(2.0, 64), np.zeros(65))
    with pytest.raises(ValueError, match="TimeGrid\\(n=64, T=2.0\\) differs from .* TimeGrid\\(n=64, T=1.0\\)"):
        diffusion_term(sigma, x_t2, drv64)


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
    lin = DriverPath.from_callable(g, lambda t: t)

    def sigma_exp(t, s, xv):
        e = np.exp(-(np.asarray(t) - np.asarray(s)))
        return (np.cos(xv[..., 0]) * e)[..., None, None]

    # left-point rule is O(h): error bounded by ~h/2
    r3 = diffusion_term(sigma_exp, x, lin).values.values[:, 0]
    np.testing.assert_allclose(r3, 1 - np.exp(-g.nodes), atol=g.h / 2 * 1.05)


# --- the row-blocked rules against the whole-table rules ----------------

def lebesgue_volterra_full_table(f: BivariateKernelValues) -> np.ndarray:
    """The trapezoid oracle: lebesgue_volterra as it was before its row
    blocks, one cumsum over the whole table."""
    v = _as_matrix_kernel(f.values)[:, :, :, 0]
    n = f.grid.n
    h = f.grid.h
    csum = np.cumsum(v, axis=1)
    idx = np.arange(n + 1)
    row_sum = csum[idx, idx]  # sum_{j<=i} f(t_i, t_j)
    diag = v[idx, idx]
    first = v[:, 0]
    vals = h * (row_sum - 0.5 * (first + diag))
    vals[0] = 0.0
    return vals


def young_rs_full_table(f: BivariateKernelValues, g: DriverPath) -> np.ndarray:
    """The left-point oracle: young_rs as it was before its row blocks,
    one einsum over a masked copy of the whole table."""
    v = _as_matrix_kernel(f.values)
    _check_driver_dimension(v.shape[3], g.m)
    dg = np.diff(g.values, axis=0)  # (n, m)
    n = f.grid.n
    # strictly-lower-triangular contraction; upper triangle already zero,
    # the diagonal must not participate (left-point rule)
    w = v[:, :-1, :, :].copy()
    idx = np.arange(n)
    w[idx, idx, :, :] = 0.0
    w[0] = 0.0
    return np.einsum("ijdm,jm->id", w, dg)


def test_table_rules_copy_no_table():
    # the table rules read their table in row blocks: a call's traced
    # peak stays a fraction of the table, which one whole copy would fill
    n = 2048
    g = build_grid(1.0, n)
    drv = sample_davies_harte(g, 0.75, 1, Seed(4))
    k = BivariateKernelValues(g, np.broadcast_to(drv.values[None, :, 0], (n + 1, n + 1)))
    for rule in (lambda: young_rs(k, drv), lambda: lebesgue_volterra(k)):
        tracemalloc.start()
        try:
            rule()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * k.values.nbytes, (peak, k.values.nbytes)


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
    b_table = square_kernel(cs.b, x)
    drift = drift_term(cs.b, x).values.values
    assert np.array_equal(drift, lebesgue_volterra(b_table).values.values)
    assert np.array_equal(drift, lebesgue_volterra_full_table(b_table))
    sigma_table = square_kernel(cs.sigma, x)
    diffusion = diffusion_term(cs.sigma, x, drv).values.values
    assert np.array_equal(diffusion, young_rs(sigma_table, drv).values.values)
    assert np.array_equal(diffusion, young_rs_full_table(sigma_table, drv))


@pytest.mark.parametrize("n", ORACLE_NS)
def test_blocked_maps_match_table_rules_vector(n):
    g = build_grid(2.0, n)
    rng = np.random.default_rng(100 + n)
    x = GridFunction(g, rng.normal(size=(n + 1, 2)))
    drv1 = sample_davies_harte(g, 0.7, 1, Seed(n))
    drv3 = sample_davies_harte(g, 0.7, 3, Seed(n))
    for b in (causal_b, state_only_b):
        table = square_kernel(b, x)
        drift = drift_term(unbroadcast(b), x).values.values
        assert np.array_equal(drift, lebesgue_volterra(table).values.values)
        assert np.array_equal(drift, lebesgue_volterra_full_table(table))
    table = square_kernel(causal_sigma, x)
    diffusion = diffusion_term(unbroadcast(causal_sigma), x, drv1).values.values
    assert np.array_equal(diffusion, young_rs(table, drv1).values.values)
    assert np.array_equal(diffusion, young_rs_full_table(table, drv1))
    table = square_kernel(matrix_sigma, x)
    r = diffusion_term(unbroadcast(matrix_sigma), x, drv3).values.values
    assert r.shape == (n + 1, 2)
    assert np.array_equal(r, young_rs(table, drv3).values.values)
    assert np.array_equal(r, young_rs_full_table(table, drv3))
    # random tables, made by no evaluator: (d,) = (2,) and (d, m) = (2, 3)
    vec = BivariateKernelValues(g, rng.normal(size=(n + 1, n + 1, 2)))
    assert np.array_equal(lebesgue_volterra(vec).values.values, lebesgue_volterra_full_table(vec))
    mat = BivariateKernelValues(g, rng.normal(size=(n + 1, n + 1, 2, 3)))
    assert np.array_equal(young_rs(mat, drv3).values.values, young_rs_full_table(mat, drv3))


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

    # the left-point rule reads j < i only: NaN strictly above the
    # diagonal passes, a non-finite diagonal entry sigma(t_i, t_i) does not
    drv = DriverPath.from_callable(g, lambda t: np.sin(3.0 * t))

    def sigma_nan_above_diagonal(t, s, xv):
        return nan_above_diagonal(t, s, xv)[..., None]

    got = diffusion_term(sigma_nan_above_diagonal, x, drv).values.values[:, 0]
    np.testing.assert_allclose(got, drv.values[:, 0] - drv.values[0, 0], atol=1e-13)

    def inf_on_one_diagonal_node(t, s, xv):
        hit = (xv[..., 0] == t) & (t == nodes[300])
        return np.where(hit, np.inf, 1.0)[..., None, None]

    msg = f"diffusion evaluator returned non-finite value at \\(t, s\\) = \\({nodes[300]:g}, {nodes[300]:g}\\)"
    with pytest.raises(EvaluationError, match=msg):
        diffusion_term(inf_on_one_diagonal_node, x, drv)
