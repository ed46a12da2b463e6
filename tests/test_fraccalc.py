import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammaln

from volterra_fbm.fbm import Seed, sample_davies_harte
from volterra_fbm.fraccalc import (
    _bracket_blocks,
    _gamma,
    _lgamma,
    beta_fn,
    check_alpha,
    lambda_alpha,
    lambda_alpha_many,
    left_frac_derivative_all,
    weyl_bracket_matrix,
)
from volterra_fbm.grid import GridFunction, build_grid
from volterra_fbm.norms import w_1malpha_norm


def test_beta_values():
    assert beta_fn(1, 1) == pytest.approx(1.0)
    assert beta_fn(0.5, 0.5) == pytest.approx(np.pi)
    oracle, _ = quad(lambda t: t ** 1.0 * (1 - t) ** -0.25, 0, 1, points=[1], limit=200)
    assert beta_fn(2, 0.75) == pytest.approx(oracle, rel=1e-9)


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_fn(1.0, -2.0)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_lgamma_is_gammaln_bit_for_bit():
    # the port must be the same double as scipy's Cephes lgam: at the
    # branch and loop edges and on a seeded sample either side of x = 13,
    # log-uniform above it so that the series below 1000 gets most points.
    # Past 2.556348e305 lgam returns inf where Stirling is still finite
    edges = [1e-300, 1e-6, 0.5, 1.0, 2.0, 2.5, 3.0, 12.999999, 13.0, 999.999, 1000.0,
             1e8, 2e8, 1e300, 2.556348e305, 2.5563481e305]
    rng = np.random.default_rng(20240)
    x = np.concatenate([edges, rng.uniform(1e-6, 13.0, 100_000),
                        np.exp(rng.uniform(np.log(13.0), np.log(1e4), 10_000))])
    port = np.array([_lgamma(v) for v in x.tolist()])
    mismatched = np.flatnonzero(_bits(port) != _bits(gammaln(x)))
    assert x[mismatched].tolist() == []


def test_gamma_and_beta_are_their_gammaln_forms():
    # every argument shape the package passes, alpha across (0, 1/2)
    for alpha in np.linspace(0.0, 0.5, 101)[1:-1]:
        for beta in (alpha + 1e-3, 0.5 * (alpha + 1.0), 1.0):
            shapes = (1.0 - alpha, alpha, 2.0 * alpha, 1.0 + beta - alpha, beta + 1.0,
                      1.0 - 2.0 * alpha, 2.0 - alpha)
            gam = [_gamma(x) for x in shapes]
            assert _bits(gam).tolist() == _bits(np.exp(gammaln(shapes))).tolist()
            pairs = list(itertools.product(shapes, repeat=2))
            beta_port = [beta_fn(p, q) for p, q in pairs]
            beta_oracle = [np.exp(gammaln(p) + gammaln(q) - gammaln(p + q)) for p, q in pairs]
            assert _bits(beta_port).tolist() == _bits(beta_oracle).tolist()


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -2.5, np.nan, np.inf, -np.inf])
def test_lgamma_refuses_x_outside_its_domain(x):
    with pytest.raises(ValueError, match=f"x = {x}"):
        _lgamma(x)


def test_frac_params_range():
    for alpha in (0.0, 0.5, -0.1):
        with pytest.raises(ValueError, match="alpha must lie in"):
            check_alpha(alpha)
    check_alpha(0.25)


def test_left_derivative_of_constant():
    g = build_grid(1.0, 512)
    f = GridFunction(g, np.full(g.n + 1, 3.0))
    got = left_frac_derivative_all(f.values[:, 0], g.h, 0.25)[256]
    s = g.nodes[256]
    assert got == pytest.approx(3.0 * s ** -0.25 / gamma(0.75), rel=1e-12)


def test_left_derivative_of_identity():
    # classical power rule: D^a t = t^{1-a} / Gamma(2-a)
    g = build_grid(1.0, 2048)
    f = GridFunction(g, g.nodes.copy())
    got = left_frac_derivative_all(f.values[:, 0], g.h, 0.25)[g.n]
    assert got == pytest.approx(1.0 / gamma(1.75), rel=1e-10)


def test_left_derivative_of_zero_and_origin_error():
    g = build_grid(1.0, 64)
    f = GridFunction(g, np.zeros(g.n + 1))
    got = left_frac_derivative_all(f.values[:, 0], g.h, 0.3)
    assert got[10] == 0.0
    assert np.isnan(got[0])  # the derivative needs s > 0


def test_weyl_of_constant_is_zero():
    g = build_grid(1.0, 128)
    v = np.full(g.n + 1, 2.5)
    assert weyl_bracket_matrix(v, g.h, 0.3)[10, 90] == pytest.approx(0.0, abs=1e-14)


def test_weyl_of_identity_closed_form():
    g = build_grid(1.0, 2048)
    v = g.nodes.copy()
    table = weyl_bracket_matrix(v, g.h, 0.25)
    got = table[0, g.n]
    assert got == pytest.approx(-1.0 / gamma(1.25), rel=1e-10)
    got2 = table[512, 1536]
    assert got2 == pytest.approx(-0.5 ** 0.25 / gamma(1.25), rel=1e-10)


def test_weyl_quadrature_against_quad_oracle():
    g = build_grid(1.0, 1024)
    gfun = lambda y: np.sin(3 * y) + 0.5 * y ** 2
    v = gfun(g.nodes)
    alpha = 0.3
    s_i, t_i = 200, 900
    s, t = g.nodes[s_i], g.nodes[t_i]
    tail, _ = quad(lambda y: (gfun(s) - gfun(y)) * (y - s) ** (alpha - 2), s, t,
                   points=[s], limit=400)
    oracle = ((gfun(s) - gfun(t)) / (t - s) ** (1 - alpha) + (1 - alpha) * tail) / gamma(alpha)
    got = weyl_bracket_matrix(v, g.h, alpha)[s_i, t_i]
    assert got == pytest.approx(oracle, rel=2e-4)


def test_weyl_linearity():
    rng = np.random.default_rng(8)
    g = build_grid(1.0, 128)
    u = np.cumsum(rng.normal(size=g.n + 1)) * 0.1
    w = np.cumsum(rng.normal(size=g.n + 1)) * 0.1
    a, b = 1.7, -0.6
    got = weyl_bracket_matrix(a * u + b * w, g.h, 0.2)[30, 100]
    parts = a * weyl_bracket_matrix(u, g.h, 0.2)[30, 100] + b * weyl_bracket_matrix(w, g.h, 0.2)[30, 100]
    assert got == pytest.approx(parts, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9999, 1.0, -0.1])
def test_fraccalc_refuses_alpha_outside_its_window(alpha):
    # alpha = 1 used to read capacity 0.0, alpha = 0.9999 0.0063, and
    # alpha = 0 failed on the kernel exponent 2 without naming alpha
    g = build_grid(1.0, 8)
    v = g.nodes ** 2
    for call in (lambda_alpha, weyl_bracket_matrix, left_frac_derivative_all):
        with pytest.raises(ValueError, match="alpha must lie in"):
            call(v, g.h, alpha)


def test_lambda_alpha_refuses_non_finite_drivers_and_bad_stacks():
    # nanargmax skipped the pairs a NaN touches: this read a finite 1.85
    with pytest.raises(ValueError, match="finite"):
        lambda_alpha(np.array([0.0, np.nan, 1.0, 2.0]), 1.0 / 3.0, 0.3)
    with pytest.raises(ValueError, match="finite"):
        lambda_alpha_many(np.array([[0.0, 1.0, 2.0], [0.0, np.inf, 1.0]]), 0.5, 0.3)
    with pytest.raises(ValueError, match=r"\(P, n\+1\)"):
        lambda_alpha_many(np.zeros((2, 5, 1)), 0.25, 0.3)


def test_lambda_alpha_constant_driver():
    g = build_grid(1.0, 64)
    val, _ = lambda_alpha(np.full(g.n + 1, 7.0), g.h, 0.25)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_lambda_alpha_linear_driver():
    g = build_grid(1.0, 4096)
    val, arg = lambda_alpha(g.nodes.copy(), g.h, 0.25)
    closed = 1.0 / (gamma(0.75) * gamma(1.25))
    assert val == pytest.approx(closed, rel=0.01)
    # sup at the widest admissible pair
    assert arg[0] == 1 and arg[1] == g.n


def test_lambda_alpha_upper_bracket_on_fbm():
    # Lambda <= |g|_{1-a,inf} / (Gamma(1-a) Gamma(a)) pathwise
    g = build_grid(1.0, 256)
    for p in range(4):
        path = sample_davies_harte(g, 0.75, 1, Seed(31), path_index=p).values[:, 0]
        lam, _ = lambda_alpha(path, g.h, 0.3)
        upper = w_1malpha_norm(path, g.h, 0.3) / (gamma(0.7) * gamma(0.3))
        assert lam <= upper * (1 + 1e-12)


def test_lambda_alpha_refinement_drift_moderate():
    # the discrete sup grows under refinement as new near-diagonal pairs
    # appear; drift between n=1024 and n=2048 stays moderate for fBm
    g = build_grid(1.0, 2048)
    drifts = []
    for p in range(4):
        fine = sample_davies_harte(g, 0.75, 1, Seed(55), path_index=p).values[:, 0]
        lam2, _ = lambda_alpha(fine, g.h, 0.3)
        lam1, _ = lambda_alpha(fine[::2], 2 * g.h, 0.3)
        assert lam2 >= lam1 * (1 - 1e-9)  # more candidate pairs
        drifts.append((lam2 - lam1) / lam1)
    assert max(drifts) < 0.30


def test_fernique_proxy_exp_moments_stable():
    # finite, stable exp(Lambda^delta) moments over 10^3 sampled paths
    g = build_grid(1.0, 128)
    lams = np.array([
        lambda_alpha(sample_davies_harte(g, 0.75, 1, Seed(77), path_index=p).values[:, 0], g.h, 0.3)[0]
        for p in range(1000)
    ])
    assert np.all(np.isfinite(lams))
    for delta in (0.5, 1.0):
        m = np.exp(lams ** delta)
        half, full = m[:500].mean(), m.mean()
        assert np.isfinite(full)
        assert abs(half - full) / full < 0.15


def test_weyl_matrix_matches_pointwise():
    rng = np.random.default_rng(4)
    g = build_grid(1.0, 96)
    v = np.cumsum(rng.normal(size=g.n + 1)) * 0.15
    m = weyl_bracket_matrix(v, g.h, 0.3)
    # a pair (s, t) sees the driver up to t only: the table of the grid cut at t
    for (a, i) in ((0, 96), (10, 40), (50, 51)):
        assert m[a, i].hex() == weyl_bracket_matrix(v[: i + 1], g.h, 0.3)[a, i].hex()
    assert np.isnan(m[40, 10]) and np.isnan(m[40, 40])


def _weyl_bracket_matrix_by_rows(g_values, h, alpha):
    """The oracle: weyl_bracket_matrix as it was before its skewed block
    writes, one assignment per row."""
    v = np.asarray(g_values, dtype=float)
    n = v.shape[0] - 1
    ga = _gamma(alpha)
    out = np.full((n + 1, n + 1), np.nan)
    for a0, bracket in _bracket_blocks(v[None], h, alpha, 0):
        for r, row in enumerate(bracket[0]):
            out[a0 + r, a0 + r + 1 :] = row[: n - a0 - r] / ga
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
def test_weyl_matrix_block_writes_match_row_writes(n):
    # a random walk: n = 1 is below a TimeGrid's two cells
    v = np.cumsum(np.random.default_rng(n).normal(size=n + 1)) * 0.15
    got = weyl_bracket_matrix(v, 1.0 / n, 0.3)
    want = _weyl_bracket_matrix_by_rows(v, 1.0 / n, 0.3)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert np.all(np.isnan(got[np.tril_indices(n + 1)]))


def test_beta_moment_identity_grid_quadrature():
    # int_0^t (t-u)^q u^p du = B(p+1, q+1) t^{p+q+1} via the product rule
    from volterra_fbm.grid import left_singular_integral

    t = 0.75
    n = 2048
    sub = np.linspace(0.0, t, n + 1)
    h = t / n
    for p in (-0.4, 0.5, 2.0):
        for q in (-0.4, 0.5, 2.0):
            half = n // 2
            th1 = max(0.0, -p)
            lv = sub[: half + 1] ** (p + th1) * (t - sub[: half + 1]) ** q
            val = left_singular_integral(lv, h, th1)
            th2 = max(0.0, -q)
            rv = (t - sub[half:]) ** (q + th2) * sub[half:] ** p
            val += left_singular_integral(rv[::-1], h, th2)
            assert val == pytest.approx(beta_fn(p + 1, q + 1) * t ** (p + q + 1), rel=5e-3)
