import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_fbm.fbm import Seed, sample_davies_harte
from volterra_fbm.grid import GridFunction, build_grid
from volterra_fbm.norms import (
    HolderParams,
    alpha_1_norm,
    delta_functional,
    fractional_aggregate,
    holder_exponent_estimate,
    holder_norm,
    norm_row_passes,
    w_1malpha_norm,
    w_alpha_infty_norm,
    w_alpha_lambda_norm,
)


def grid_fn(values, T=1.0):
    values = np.asarray(values, dtype=float)
    return GridFunction(build_grid(T, values.shape[0] - 1), values)


def random_fn(seed, n=32, d=1, T=1.0):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.normal(size=(n + 1, d)), axis=0) * 0.2
    return grid_fn(vals, T)


def test_holder_params_validation():
    HolderParams(H=0.75, alpha=0.3, T=1.0)
    with pytest.raises(ValueError):
        HolderParams(H=0.75, alpha=0.25, T=1.0)  # boundary is excluded
    with pytest.raises(TypeError):  # no weight field: the solver selects it
        HolderParams(H=0.75, alpha=0.3, T=1.0, lam=0.5)
    with pytest.raises(ValueError):
        HolderParams(H=0.4, alpha=0.3, T=1.0)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_holder_params_reject_a_non_finite_horizon(T):
    with pytest.raises(ValueError, match="horizon"):
        HolderParams(H=0.75, alpha=0.3, T=T)


def test_w_alpha_infty_constant_and_identity():
    g = build_grid(1.0, 1024)
    const = GridFunction(g, np.full(g.n + 1, -2.5))
    assert w_alpha_infty_norm(const, 0.25).value == pytest.approx(2.5)
    ident = GridFunction(g, g.nodes.copy())
    r = w_alpha_infty_norm(ident, 0.25)
    # closed form: sup_t t + t^{3/4} / (3/4) at t = 1
    assert r.value == pytest.approx(7.0 / 3.0, rel=1e-5)
    assert r.sup_argmax == pytest.approx(1.0)
    assert r.components[0] == pytest.approx(1.0)
    zero = GridFunction(g, np.zeros(g.n + 1))
    assert w_alpha_infty_norm(zero, 0.25).value == 0.0


def test_w_alpha_lambda_constant_sup_at_origin():
    g = build_grid(1.0, 256)
    const = GridFunction(g, np.full(g.n + 1, 4.0))
    r = w_alpha_lambda_norm(const, 0.25, 1.0)
    assert r.value == pytest.approx(4.0)
    assert r.sup_argmax == 0.0


def test_w_alpha_lambda_identity_against_scan():
    # oracle: dense scan of the closed form e^{-10 t}(t + t^{0.75}/0.75)
    tt = np.linspace(0, 1, 400001)
    oracle = float(np.max(np.exp(-10 * tt) * (tt + tt ** 0.75 / 0.75)))
    g = build_grid(1.0, 2048)
    got = w_alpha_lambda_norm(GridFunction(g, g.nodes.copy()), 0.25, 10.0)
    assert got.value == pytest.approx(oracle, rel=1e-3)


def test_w_alpha_lambda_rejects_small_weight():
    f = random_fn(0)
    with pytest.raises(ValueError):
        w_alpha_lambda_norm(f, 0.25, 0.99)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_w_alpha_lambda_rejects_a_non_finite_weight(lam):
    with pytest.raises(ValueError, match="weight lambda must be finite"):
        w_alpha_lambda_norm(random_fn(0), 0.25, lam)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10000), lam=st.floats(1.0, 20.0), alpha=st.floats(0.05, 0.45))
def test_equivalence_sandwich(seed, lam, alpha):
    f = random_fn(seed, T=1.0)
    full = w_alpha_infty_norm(f, alpha).value
    weighted = w_alpha_lambda_norm(f, alpha, lam).value
    T = f.grid.T
    assert weighted <= full * (1 + 1e-12)
    assert full <= np.exp(lam * T) * weighted * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10000), a=st.floats(-4, 4), alpha=st.floats(0.05, 0.45))
def test_homogeneity_and_triangle(seed, a, alpha):
    f = random_fn(seed)
    g2 = random_fn(seed + 1)
    nf = w_alpha_infty_norm(f, alpha).value
    assert w_alpha_infty_norm(grid_fn(a * f.values), alpha).value == pytest.approx(abs(a) * nf, rel=1e-10, abs=1e-12)
    nsum = w_alpha_infty_norm(grid_fn(f.values + g2.values), alpha).value
    assert nsum <= nf + w_alpha_infty_norm(g2, alpha).value + 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10000))
def test_increment_component_monotone_in_alpha(seed):
    # on horizons T <= 1 the kernel (t-s)^{-a-1} grows with a pointwise,
    # so the increment part of the norm is nondecreasing in a
    f = random_fn(seed, T=1.0)
    parts = [w_alpha_infty_norm(f, a).components[1] for a in (0.1, 0.2, 0.3, 0.4)]
    for lo, hi in zip(parts, parts[1:]):
        assert hi >= lo - 1e-12


def test_sup_norm_dominated():
    f = random_fn(5)
    assert f.sup_norm() <= w_alpha_infty_norm(f, 0.3).value + 1e-12


def test_holder_norm_values():
    g = build_grid(1.0, 512)
    assert holder_norm(GridFunction(g, np.full(g.n + 1, 3.0)), 0.5) == pytest.approx(3.0)
    assert holder_norm(GridFunction(g, g.nodes.copy()), 1.0) == pytest.approx(2.0)
    # |sqrt(t) - sqrt(s)| <= sqrt(t-s), equality at s = 0
    assert holder_norm(GridFunction(g, np.sqrt(g.nodes)), 0.5) == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(ValueError):
        holder_norm(GridFunction(g, g.nodes.copy()), 1.5)


def test_w_1malpha_constant_and_linear():
    g = build_grid(1.0, 2048)
    assert w_1malpha_norm(np.full(g.n + 1, 5.0), g.h, 0.25) == 0.0
    # linear g: (t-s)^a (1 + 1/a), sup at the widest interior pair
    got = w_1malpha_norm(g.nodes.copy(), g.h, 0.25)
    closed = (1 + 4.0) * (1 - g.h) ** 0.25
    assert got == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("values", [
    [0.0, np.nan, 1.0, 2.0, 3.0],
    [0.0, 1.0, np.nan, 2.0, 3.0],
    [0.0, 1.0, 2.0, np.inf, 3.0],
])
def test_w_1malpha_refuses_nonfinite_drivers(values):
    # nanmax would drop the pairs a NaN touches and report a finite norm
    with pytest.raises(ValueError, match="finite"):
        w_1malpha_norm(np.array(values), 0.25, 0.3)


def test_w_1malpha_finite_on_fbm():
    g = build_grid(1.0, 256)
    vals = []
    for p in range(3):
        path = sample_davies_harte(g, 0.75, 1, Seed(17), path_index=p).values[:, 0]
        vals.append(w_1malpha_norm(path, g.h, 0.3))
    assert all(np.isfinite(v) and v > 0 for v in vals)


def test_alpha_1_norm_closed_forms():
    g = build_grid(1.0, 2048)
    # constant: |c| / (1 - a)
    const = GridFunction(g, np.full(g.n + 1, 1.5))
    assert alpha_1_norm(const, 0.25) == pytest.approx(1.5 / 0.75, rel=1e-9)
    assert alpha_1_norm(GridFunction(g, np.zeros(g.n + 1)), 0.25) == 0.0
    # identity: 1/(2-a) + 1/((1-a)(2-a)) = 1/(1-a) = 4/3
    ident = GridFunction(g, g.nodes.copy())
    assert alpha_1_norm(ident, 0.25) == pytest.approx(4.0 / 3.0, rel=1e-5)


def test_delta_functional_values():
    g = build_grid(1.0, 1024)
    assert delta_functional(GridFunction(g, np.full(g.n + 1, 2.0)), 0.25, 1.0) == 0.0
    ident = GridFunction(g, g.nodes.copy())
    assert delta_functional(ident, 0.25, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-6)
    # delta = 1 coincides with the increment part at the sup node
    f = random_fn(11, n=64)
    r = w_alpha_infty_norm(f, 0.3)
    d = delta_functional(f, 0.3, 1.0)
    assert d >= r.components[1] - 1e-12


def test_holder_exponent_linear_and_small_grid():
    g = build_grid(1.0, 256)
    est = holder_exponent_estimate(GridFunction(g, g.nodes.copy()))
    assert 0.98 <= est <= 1.02
    with pytest.raises(ValueError):
        holder_exponent_estimate(GridFunction(build_grid(1.0, 32), np.zeros(33)))


def test_holder_exponent_constant_convention():
    g = build_grid(1.0, 128)
    assert holder_exponent_estimate(GridFunction(g, np.full(g.n + 1, 3.0))) == 1.0


def test_holder_exponent_bulk_statistic_blind_to_origin():
    # the median lag statistic measures bulk regularity; sqrt(t) is
    # smooth away from 0, so the estimate sits near 1, not near 1/2
    g = build_grid(1.0, 4096)
    est = holder_exponent_estimate(GridFunction(g, np.sqrt(g.nodes)))
    assert 0.9 <= est <= 1.1


def test_norm_report_argmax_stable_under_refinement():
    rng = np.random.default_rng(42)
    coarse_vals = np.cumsum(rng.normal(size=65)) * 0.2
    fine_vals = np.repeat(coarse_vals, 2)[:-1]  # piecewise-constant refinement
    r1 = w_alpha_infty_norm(grid_fn(coarse_vals), 0.3)
    r2 = w_alpha_infty_norm(grid_fn(fine_vals), 0.3)
    assert abs(r1.sup_argmax - r2.sup_argmax) <= 0.1


@pytest.mark.parametrize("d, delta", [(1, 1.0), (1, 0.7), (3, 0.5), (2, 1.0)])
def test_delta_and_gap_aggregate_is_the_two_calls(d, delta):
    """A Picard step's one norm_row_passes call, the delta functional of
    the new iterate and the aggregate of its gap, is the two separate
    calls bit for bit, alone and among other samples."""
    x_prev, x_next = random_fn(11, n=300, d=d), random_fn(12, n=300, d=d)
    gap = x_next.values - x_prev.values
    want_sup, want_inc = fractional_aggregate(grid_fn(gap), 0.3)
    want_delta = delta_functional(x_next, 0.3, delta)
    [(got_sup, got_inc)], [got_delta] = norm_row_passes(gap[None], x_next.values[None], x_next.grid.h, 0.3, delta)
    assert got_delta == want_delta
    assert np.array_equal(got_sup, want_sup)
    assert np.array_equal(got_inc, want_inc)
    other = random_fn(13, n=300, d=d).values
    aggs, deltas = norm_row_passes(
        np.stack([other, gap]), np.stack([x_prev.values, x_next.values]), x_next.grid.h, 0.3, delta
    )
    assert np.array_equal(aggs[1][0], want_sup) and np.array_equal(aggs[1][1], want_inc)
    assert deltas[0] == delta_functional(x_prev, 0.3, delta) and deltas[1] == want_delta
    with pytest.raises(ValueError):
        norm_row_passes(gap[None], x_next.values[None], x_next.grid.h, 0.3, 1.5)
    # an (S, n+1) stack of scalar samples is not read as one d = n+1 sample
    scalars = np.stack([gap[:, 0], x_next.values[:, 0]])
    for args in ((scalars, None), (None, scalars), (gap, x_next.values[None])):
        with pytest.raises(ValueError, match=r"stacked as \(S, n\+1, d\)"):
            norm_row_passes(*args, x_next.grid.h, 0.3, delta)
