import hashlib

import numpy as np
import pytest

from volterra_fbm import fbm as fbm_mod
from volterra_fbm import grid as grid_mod
from volterra_fbm.fbm import (
    DriverPath,
    Seed,
    _covariance_matrix,
    deterministic_driver,
    fbm_covariance,
    sample_cholesky,
    sample_davies_harte,
    sample_paths,
)
from volterra_fbm.grid import GridFunction, build_grid
from volterra_fbm.norms import holder_exponent_estimate


def test_covariance_values():
    assert fbm_covariance(1, 1, 0.75) == pytest.approx(1.0)
    assert fbm_covariance(1, 2, 0.5) == pytest.approx(1.0)  # Brownian: min(s, t)
    assert fbm_covariance(1, 2, 0.75) == pytest.approx(np.sqrt(2.0))
    assert fbm_covariance(0.3, 0.7, 0.6) == pytest.approx(fbm_covariance(0.7, 0.3, 0.6))


def test_covariance_rejects_bad_hurst():
    with pytest.raises(ValueError):
        fbm_covariance(1, 1, 0.0)
    with pytest.raises(ValueError):
        fbm_covariance(1, 1, 1.0)


def test_self_similarity_of_covariance():
    # R(cs, ct) = c^{2H} R(s, t)
    c, H = 3.0, 0.7
    s, t = 0.4, 1.3
    assert fbm_covariance(c * s, c * t, H) == pytest.approx(c ** (2 * H) * fbm_covariance(s, t, H))


def test_paths_start_at_zero_and_deterministic():
    g = build_grid(1.0, 8)
    for sampler in (sample_cholesky, sample_davies_harte):
        p1 = sampler(g, 0.75, 2, Seed(99))
        p2 = sampler(g, 0.75, 2, Seed(99))
        assert np.array_equal(p1.values, p2.values)
        np.testing.assert_array_equal(p1.values[0], 0.0)
        p3 = sampler(g, 0.75, 2, Seed(100))
        assert not np.array_equal(p1.values, p3.values)


def test_component_streams_independent_of_batching():
    g = build_grid(1.0, 16)
    whole = sample_davies_harte(g, 0.8, 3, Seed(5))
    single = sample_davies_harte(g, 0.8, 1, Seed(5))
    np.testing.assert_array_equal(whole.values[:, 0], single.values[:, 0])


def test_sample_paths_rejects_unknown_sampler():
    with pytest.raises(ValueError, match="unknown sampler 'choleski'"):
        sample_paths(build_grid(1.0, 8), 0.75, 1, Seed(1), 2, "choleski")


def test_cholesky_covariance_audit():
    # small-n Monte Carlo against the analytic covariance
    g = build_grid(1.0, 8)
    n_paths = 30000
    x = sample_paths(g, 0.75, 1, Seed(7), n_paths, "cholesky")[:, 1:, 0]
    ana = _covariance_matrix(g.nodes[1:], 0.75)
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / n_paths)
    z = np.abs(x.T @ x / n_paths - ana) / se
    assert z.max() < 4.0


def test_davies_harte_matches_cholesky_distribution():
    g = build_grid(1.0, 8)
    n_paths = 30000
    x = sample_paths(g, 0.6, 1, Seed(21), n_paths, "davies-harte")[:, 1:, 0]
    ana = _covariance_matrix(g.nodes[1:], 0.6)
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / n_paths)
    z = np.abs(x.T @ x / n_paths - ana) / se
    assert z.max() < 4.0


def test_brownian_limit_increments_uncorrelated():
    g = build_grid(1.0, 8)
    n_paths = 20000
    x = sample_paths(g, 0.5, 1, Seed(3), n_paths, "davies-harte")[:, :, 0]
    inc = np.diff(x, axis=1)
    corr = np.mean(inc[:, 0] * inc[:, 1]) / g.h
    assert abs(corr) < 4.0 / np.sqrt(n_paths)
    # marginal variance of the increments is h^{2H} = h
    assert np.var(inc[:, 3]) == pytest.approx(g.h, rel=0.05)


def test_terminal_variance_davies_harte():
    g = build_grid(1.0, 512)
    n_paths = 4000
    term = np.array([
        sample_davies_harte(g, 0.75, 1, Seed(11), path_index=p).values[-1, 0]
        for p in range(n_paths)
    ])
    se = np.sqrt(2.0 / n_paths)  # var of x^2-mean for unit Gaussian
    assert abs(np.mean(term ** 2) - 1.0) < 4.0 * se


def test_holder_exponent_concentrates_near_hurst():
    g = build_grid(1.0, 4096)
    ests = []
    for p in range(24):
        path = sample_davies_harte(g, 0.75, 1, Seed(1000), path_index=p)
        ests.append(holder_exponent_estimate(GridFunction(g, path.values)))
    ests = np.array(ests)
    # median tracks H; individual paths scatter roughly +-0.1
    assert 0.65 <= np.median(ests) <= 0.80
    assert np.mean((ests >= 0.60) & (ests <= 0.90)) >= 0.9


def test_minimal_grid_sampling():
    g = build_grid(1.0, 2)
    for sampler in (sample_cholesky, sample_davies_harte):
        p = sampler(g, 0.65, 1, Seed(0))
        assert p.values[0, 0] == 0.0
        assert np.all(np.isfinite(p.values))


def test_csv_export_roundtrip(tmp_path):
    g = build_grid(1.0, 4)
    p = sample_davies_harte(g, 0.75, 2, Seed(1))
    out = tmp_path / "path.csv"
    p.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,g1,g2"
    assert len(lines) == 6
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(parsed[:, 0], g.nodes)
    np.testing.assert_allclose(parsed[:, 1:], p.values, rtol=0, atol=0)


def test_deterministic_driver_tags():
    g = build_grid(1.0, 4)
    d = deterministic_driver(g, lambda t: 2 * t)
    assert d.hurst is None
    np.testing.assert_allclose(d.values[:, 0], 2 * g.nodes)


def test_driver_path_validation():
    g = build_grid(1.0, 4)
    with pytest.raises(ValueError):
        DriverPath(g, np.ones(3))
    with pytest.raises(ValueError):
        sample_cholesky(g, 1.2, 1, Seed(0))


# sha256 of the sampler outputs before the circulant eigenvalues were
# cached per (n, H) (numpy 2.4, x86-64)
_SAMPLE_PATHS_DIGESTS = [
    ((8, 0.75, 200, 1, 1), "37f31f5b826d7d6986bfa853571335707deb8d834f969da360099f9a7feb7537"),
    ((8, 0.6, 50, 2, 7), "ab1c3f00e1a5a1a31ac30329d1bebbcffc9668de6a0967c328d50d9370eda0db"),
    ((64, 0.9, 20, 1, 3), "812fc202bfc1400c7608e021a9a26b2fdccdc56b5c7f099569301489306e394c"),
    ((257, 0.55, 5, 2, 11), "3da904f238e375e3304d49779357c38172a8ac3d5bfe5543ff294e68719d65a2"),
]
_DAVIES_HARTE_DIGESTS = [
    ((2, 0.75, 1, 0, 0), "846c0e438f64bb34a2acb1721c5bd8ef1193a4b871f64f7b9739fa4ae52e41cc"),
    ((8, 0.75, 1, 1, 3), "6da7d1dd838cb9861fbe2159b2b512517ee63a59aea2c638d7dd171f56f6c5ab"),
    ((100, 0.7, 3, 5, 2), "f7cb50ec60a44ed9d11d26e8766cfac35318fd2cf58295954fe8386735594397"),
    ((1024, 0.95, 1, 9, 0), "0bbbd0ebe5dd684cb8bf6bb1255d7f5c689040fbc240558b164dc5b0e6fef148"),
]


@pytest.mark.parametrize("key, digest", _SAMPLE_PATHS_DIGESTS)
def test_sample_paths_pinned(key, digest):
    n, H, P, m, seed = key
    out = sample_paths(build_grid(1.0, n), H, m, Seed(seed), P)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("key, digest", _DAVIES_HARTE_DIGESTS)
def test_sample_davies_harte_pinned(key, digest):
    n, H, m, seed, p = key
    out = sample_davies_harte(build_grid(2.0, n), H, m, Seed(seed), p).values
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_circulant_eigenvalues_cached_read_only():
    eig = fbm_mod._fgn_circulant_eigenvalues(16, 0.7)
    assert fbm_mod._fgn_circulant_eigenvalues(16, 0.7) is eig
    assert not eig.flags.writeable
    with pytest.raises(ValueError):
        eig[0] = 1.0
    for n in range(2, 2 + 2 * grid_mod._TABLE_KEYS):
        fbm_mod._fgn_circulant_eigenvalues(n, 0.7)
    assert len(fbm_mod._eigenvalue_tables) == grid_mod._TABLE_KEYS


@pytest.mark.parametrize("n, m", [(2, 1), (8, 2), (100, 1)])
def test_davies_harte_blocks_do_not_change_paths(monkeypatch, n, m):
    # blocks of 1, 7 and all 23 paths draw the same bits, each path its
    # one-path sample
    grid = build_grid(1.0, n)
    out = {}
    for rows in (1, 7, 23):
        monkeypatch.setattr(fbm_mod, "_DRAW_NORMALS", 2 * n * rows)
        out[rows] = sample_paths(grid, 0.7, m, Seed(4), 23)
    assert np.array_equal(out[1], out[7]) and np.array_equal(out[1], out[23])
    for p in (0, 6, 7, 22):
        assert np.array_equal(out[7][p], sample_davies_harte(grid, 0.7, m, Seed(4), p).values)
