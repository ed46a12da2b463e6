import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from volterra_fbm import fbm as fbm_mod
from volterra_fbm import grid as grid_mod
from volterra_fbm.errors import SingularityError
from volterra_fbm.grid import (
    BivariateKernelValues,
    GridFunction,
    abs_increment_row_integrals,
    build_grid,
    gap_weights,
    increment_row_integrals,
    left_singular_integral,
    power_cell_weights,
    prefix_singular_integrals,
    right_singular_integral,
    row_singular_integrals,
)


def test_build_grid_uniform():
    g = build_grid(1.0, 4)
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    g2 = build_grid(2.0, 2)
    np.testing.assert_allclose(g2.nodes, [0.0, 1.0, 2.0])


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_grid(1.0, 1)
    with pytest.raises(ValueError):
        build_grid(-1.0, 8)
    with pytest.raises(ValueError):
        build_grid(0.0, 8)


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_build_grid_rejects_a_non_finite_horizon(T):
    # NaN is neither <= 0 nor > 0: only T > 0 with T finite is a horizon
    with pytest.raises(ValueError, match="horizon"):
        build_grid(T, 8)


def test_grid_function_shape_checks():
    g = build_grid(1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(3))
    with pytest.raises(ValueError):
        GridFunction(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))


def test_kernel_values_zero_upper_triangle():
    g = build_grid(1.0, 3)
    k = BivariateKernelValues(g, np.ones((4, 4)))
    assert k.values[0, 3] == 0.0
    assert k.values[3, 0] == 1.0


def test_constant_integrand_power_kernel():
    # int_0^1 (1-s)^{-1/2} ds = 2
    g = build_grid(1.0, 256)
    f = GridFunction(g, np.ones(g.n + 1))
    np.testing.assert_allclose(right_singular_integral(f.values, g.h, 0.5), [2.0], rtol=1e-12)


def test_identity_integrand_no_kernel():
    g = build_grid(2.0, 128)
    f = GridFunction(g, g.nodes.copy())
    np.testing.assert_allclose(right_singular_integral(f.values, g.h, 0.0), [2.0], rtol=1e-12)


def test_identity_integrand_beta_moment():
    # int_0^1 (1-s)^{-1/4} s ds = B(2, 3/4) = 16/21
    g = build_grid(1.0, 512)
    f = GridFunction(g, g.nodes.copy())
    oracle, _ = quad(lambda s: (1 - s) ** -0.25 * s, 0, 1, points=[1], limit=200)
    got = right_singular_integral(f.values, g.h, 0.25)[0]
    np.testing.assert_allclose(got, oracle, rtol=1e-10)
    np.testing.assert_allclose(got, 16.0 / 21.0, rtol=1e-10)


def test_exact_for_piecewise_linear_even_coarse():
    g = build_grid(1.0, 8)
    f = GridFunction(g, 2.0 - 1.5 * g.nodes)
    oracle, _ = quad(lambda s: (1 - s) ** -0.5 * (2 - 1.5 * s), 0, 1, points=[1], limit=200)
    np.testing.assert_allclose(right_singular_integral(f.values, g.h, 0.5)[0], oracle, rtol=1e-10)


def test_increment_type_integrable_past_one():
    # phi vanishing linearly at the endpoint keeps theta in [1, 2) integrable
    g = build_grid(1.0, 1024)
    f = GridFunction(g, 1.0 - g.nodes)
    got = right_singular_integral(f.values, g.h, 1.25)[0]
    np.testing.assert_allclose(got, 1.0 / 0.75, rtol=1e-12)


def test_nonintegrable_singularity_raises():
    g = build_grid(1.0, 64)
    f = GridFunction(g, np.ones(g.n + 1))
    with pytest.raises(SingularityError):
        right_singular_integral(f.values, g.h, 1.25)
    with pytest.raises(SingularityError):
        row_singular_integrals(np.ones((g.n + 1, g.n + 1)), g.h, 1.25)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.3, 1.75])
def test_weights_are_finite(theta):
    a, b = power_cell_weights(64, 1.0 / 64, theta)
    c, _ = gap_weights(64, 1.0 / 64, theta)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))


def _vanishing_rules(endpoint=0.0, interior=None):
    """The four product rules at theta = 1.3 on increment-type integrands
    whose singular endpoint holds `endpoint` and, given `interior`, whose
    node 3 holds that value."""
    n, h, theta = 8, 1.0 / 8, 1.3
    psi = np.sin(3.0 * np.linspace(0.0, 1.0, n + 1)) + 0.2
    right, left = psi - psi[-1], psi - psi[0]
    right[-1], left[0] = endpoint, endpoint
    rows = np.subtract.outer(psi, psi)
    np.fill_diagonal(rows, endpoint)
    if interior is not None:
        right[3] = left[3] = rows[5, 3] = interior
    return {
        "right": lambda: right_singular_integral(right, h, theta),
        "left": lambda: left_singular_integral(left, h, theta),
        "prefix": lambda: prefix_singular_integrals(left, h, theta),
        "rows": lambda: row_singular_integrals(rows, h, theta),
    }


@pytest.mark.parametrize("endpoint", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rule", ["right", "left", "prefix", "rows"])
def test_non_finite_singular_endpoint_raises(rule, endpoint):
    with pytest.raises(SingularityError):
        _vanishing_rules(endpoint)[rule]()


@pytest.mark.parametrize("rule", ["right", "left", "prefix", "rows"])
def test_endpoint_within_tolerance_and_interior_nan(rule):
    # an endpoint inside the tolerance gets the exact zero's bits (its
    # weight is 0); a NaN elsewhere propagates without a SingularityError
    exact = np.asarray(_vanishing_rules(0.0)[rule]())
    assert np.asarray(_vanishing_rules(1e-14)[rule]()).tobytes() == exact.tobytes()
    assert np.isnan(_vanishing_rules(interior=np.nan)[rule]()).any()


def test_richardson_order_smooth_integrand():
    # product rule is O(n^{-(2-theta)}): halving ratio >= 2^{1.5-theta}
    theta = 0.5
    exact, _ = quad(lambda s: (1 - s) ** -theta * np.cos(3 * s), 0, 1, points=[1], limit=400)
    errs = []
    for n in (64, 128, 256):
        g = build_grid(1.0, n)
        f = GridFunction(g, np.cos(3 * g.nodes))
        errs.append(abs(right_singular_integral(f.values, g.h, theta)[0] - exact))
    assert errs[0] / errs[1] >= 2 ** (1.5 - theta)
    assert errs[1] / errs[2] >= 2 ** (1.5 - theta)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    theta=st.floats(0.0, 0.9),
    seed=st.integers(0, 1000),
)
def test_linearity(a, b, theta, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 32)
    u = rng.normal(size=g.n + 1)
    v = rng.normal(size=g.n + 1)
    lhs = right_singular_integral(a * u + b * v, g.h, theta)
    rhs = a * right_singular_integral(u, g.h, theta) + b * right_singular_integral(v, g.h, theta)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_row_integrals_match_single_node_calls():
    rng = np.random.default_rng(3)
    n = 48
    g = build_grid(1.0, n)
    v = np.cumsum(rng.normal(size=n + 1)) * 0.2
    m = np.abs(v[:, None] - v[None, :])
    rows = row_singular_integrals(m, g.h, 1.3)
    # 1-D and (i+1, 1) values take the same rule; one node (i = 0) is an
    # empty integral
    for i in (0, 1, 7, 23, 48):
        phi = np.abs(v[i] - v[: i + 1])
        got = right_singular_integral(phi, g.h, 1.3)
        assert np.shape(got) == () and np.array_equal(right_singular_integral(phi[:, None], g.h, 1.3), [got])
        np.testing.assert_allclose(rows[i], got, rtol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 64, 1000])
@pytest.mark.parametrize("alpha", [0.01, 0.25, 0.49])
def test_increment_convolution_matches_direct_rows(n, alpha):
    # oracle: the direct row rule on the explicit signed increment table
    rng = np.random.default_rng(n)
    h = 1.0 / n
    theta = alpha + 1.0
    v = 2.0 + np.cumsum(rng.normal(size=n + 1)) * np.sqrt(h)
    direct = row_singular_integrals(v[:, None] - v[None, :], h, theta)
    got = increment_row_integrals(v, h, theta)
    c, _ = gap_weights(n, h, theta)
    row_scale = np.max(np.abs(v - v[0])) * np.sum(c)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, direct, rtol=0.0, atol=1e-12 * row_scale)
    # stacked rows, one FFT: each row is its own sample, and entry i sees
    # the row's entries j <= i only (the second row is zero past n // 2)
    cut = np.where(np.arange(n + 1) <= n // 2, v, 0.0)
    both = increment_row_integrals(np.stack([v, cut]), h, theta)
    np.testing.assert_allclose(both[0], direct, rtol=0.0, atol=1e-12 * row_scale)
    np.testing.assert_allclose(both[1, : n // 2 + 1], direct[: n // 2 + 1], rtol=0.0, atol=1e-12 * row_scale)


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 1000])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("power", [1.0, 0.5])
@pytest.mark.parametrize("alpha", [0.01, 0.25, 0.49])
def test_abs_increment_rows_match_table_route(n, d, power, alpha):
    # oracle: the row rule on the explicit table |v_i - v_j|**power,
    # built as the norms used to build it; the fused kernel must agree
    # to the bit
    rng = np.random.default_rng(n + d)
    h = 1.0 / n
    v = 2.0 + np.cumsum(rng.normal(size=(n + 1, d)), axis=0) * np.sqrt(h)
    table = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
    if power != 1.0:
        table = table ** power
    direct = row_singular_integrals(table, h, alpha + 1.0)
    got = abs_increment_row_integrals(v[:, 0] if d == 1 else v, h, alpha + 1.0, power=power)
    assert np.array_equal(got, direct)


def _oracle_table(n, seed, increments):
    rng = np.random.default_rng(seed)
    if increments:
        v = np.cumsum(rng.normal(size=n + 1)) / np.sqrt(n)
        return np.abs(v[:, None] - v[None, :])
    return rng.normal(size=(n + 1, n + 1))


# sha256 of row_singular_integrals' output bytes before it shared its
# weight block with the fused kernel (numpy 2.4, x86-64)
_ROW_RULE_DIGESTS = [
    (64, 0.3, False, "365988dfe5fcb3c702fcd2dab5b7bb018180d86c1367d730b908c1871d500842"),
    (300, 1.25, True, "c62ba02a0d4f78307fa80a0af330360525c7469d9ca5ce520a1b6bfe684df0c8"),
    (1000, 0.7, False, "c9a316f071cbaee8d881e48d4981d035ddd1dd006ee5fa8d8c76359b36a03f75"),
    (2048, 1.49, True, "d366d6c8ae6c5bad4a37b1d57f322772a13e965d7274a587d228f2ad1461f59c"),
]


@pytest.mark.parametrize("n, theta, increments, digest", _ROW_RULE_DIGESTS)
def test_row_rule_output_unchanged(n, theta, increments, digest):
    out = row_singular_integrals(_oracle_table(n, n, increments), 1.0 / n, theta)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n", [64, 96, 1024, 2048])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 1.2, 1.3, 1.7, 1.8])
def test_power_cell_weights_prefix_is_fresh_table(n, theta):
    h = 1.0 / n
    power_cell_weights(n, h, theta)
    for k in range(n + 1):
        a, b = power_cell_weights(k, h, theta)
        fa, fb = grid_mod._power_cell_table(k, h, theta)
        assert a.shape == (k,) and b.shape == (k + 1,)
        assert np.array_equal(a, fa[:k]) and np.array_equal(b, fb)


def test_power_cell_weights_are_read_only():
    a, b = power_cell_weights(16, 0.125, 1.3)
    with pytest.raises(ValueError):
        a[0] = 1.0
    with pytest.raises(ValueError):
        b[1] = 1.0


def test_power_cell_weights_under_threads():
    # more threads than cores, each reading tables of shared keys at
    # many sizes; every view must equal a fresh table and the cache stays
    # bounded.
    # The fBm eigenvalue lookups run alongside, over more keys than the
    # cap, so entries are evicted under contention
    keys = [(1.0 / 64, 0.3), (1.0 / 64, 1.3), (0.01, 1.7)]
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            h, theta = keys[rng.integers(len(keys))]
            k = int(rng.integers(0, 512))
            a, b = power_cell_weights(k, h, theta)
            fa, fb = grid_mod._power_cell_table(k, h, theta)
            if not (np.array_equal(a, fa[:k]) and np.array_equal(b, fb)):
                errors.append((h, theta, k))
            n, H = int(rng.integers(2, 40)), (0.6, 0.75, 0.9)[rng.integers(3)]
            eig = fbm_mod._fgn_circulant_eigenvalues(n, H)
            if not np.array_equal(eig, fbm_mod._circulant_eigenvalues(n, H)):
                errors.append((n, H))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for cached in (grid_mod._power_cell_tables, fbm_mod._fgn_circulant_eigenvalues):
        assert cached.cache_info().currsize <= cached.cache_info().maxsize


def test_increment_convolution_ignores_offset():
    # increments do not see a constant shift, however large
    rng = np.random.default_rng(11)
    n = 257
    v = np.cumsum(rng.normal(size=n + 1)) / np.sqrt(n)
    base = increment_row_integrals(v, 1.0 / n, 1.3)
    np.testing.assert_allclose(increment_row_integrals(v + 1e8, 1.0 / n, 1.3), base,
                               rtol=0.0, atol=1e-7 * np.max(np.abs(base)))


def test_prefix_integrals_match_quad():
    g = build_grid(1.0, 2048)
    vals = 1.0 + g.nodes
    pre = prefix_singular_integrals(vals, g.h, 0.25)
    oracle, _ = quad(lambda s: s ** -0.25 * (1 + s), 0, 0.5, points=[0], limit=200)
    np.testing.assert_allclose(pre[1024], oracle, rtol=1e-7)


def test_left_singular_integral_matches_quad():
    g = build_grid(1.0, 4096)
    a0 = g.nodes[1000]
    ys = g.nodes[1000:3000]
    psi = 2.0 * (ys - a0)
    oracle, _ = quad(lambda y: (y - a0) ** -1.75 * 2 * (y - a0), a0, g.nodes[2999], points=[a0], limit=400)
    np.testing.assert_allclose(left_singular_integral(psi, g.h, 1.75), oracle, rtol=1e-6)


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
@pytest.mark.parametrize("unit", [grid_mod._LANE_ROWS, grid_mod._PAIR_ROWS])
def test_one_path_keeps_the_64_row_cut(start, stop, want, unit):
    assert grid_mod._row_blocks(start, stop, 1) == grid_mod._row_blocks(start, stop, 1, unit) == want


@pytest.mark.parametrize("chunk", [32, 64, 96, 256])
def test_stack_blocks_keep_to_the_budget(monkeypatch, chunk):
    # a stack's rows shrink in multiples of the unit (32 for the einsum
    # rules, whose bits stay put at 32, 64, 96 and 256 rows), as far as
    # paths x rows x columns needs to fit the budget, and no further
    monkeypatch.setattr(grid_mod, "_ROW_CHUNK", chunk)
    budget = grid_mod._BLOCK_ENTRIES
    for unit in (grid_mod._LANE_ROWS, grid_mod._PAIR_ROWS):
        for start in (0, 1):
            for stop in (2, 3, 33, 64, 65, 97, 129, 256, 257, 301, 1025, 2049):
                for paths in (1, 2, 6, grid_mod._stack_size(96), 100, 1000):
                    blocks = grid_mod._row_blocks(start, stop, paths, unit)
                    los, his = zip(*blocks)
                    assert los[0] == start and his[-1] == stop and los[1:] == his[:-1]
                    if len(blocks) == 1:
                        continue
                    # equal blocks, the last taking a remainder shorter than one
                    rows = his[0] - los[0]
                    assert all(hi - lo == rows for lo, hi in blocks[:-1])
                    assert rows <= his[-1] - los[-1] < 2 * rows
                    assert rows % unit == 0 and rows <= chunk
                    if paths == 1:
                        assert rows == chunk
                    else:
                        assert paths * rows * stop <= budget or rows == unit
                        assert rows == chunk or paths * (rows + unit) * stop > budget
