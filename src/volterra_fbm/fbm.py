"""Exact sampling of fractional Brownian motion on a uniform grid.

Two independent exact samplers are provided so each can certify the
other: a dense Cholesky factorization of the node covariance and the
Davies-Harte circulant embedding of the increment covariance
(Davies & Harte 1987; Dieker 2004 for the recipe used here).  Both are
deterministic functions of a :class:`Seed`.
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, FactorizationError
from .grid import TimeGrid, _cached_table

__all__ = [
    "Seed",
    "DriverPath",
    "fbm_covariance",
    "sample_cholesky",
    "sample_davies_harte",
    "deterministic_driver",
]

# relative diagonal jitter allowed before declaring the covariance
# factorization failed
_MAX_JITTER = 1e-12
# circulant eigenvalues of fGn are nonnegative in exact arithmetic; a
# worse violation signals an implementation bug, not rounding
_EIGEN_TOL = 1e-9
_eigenvalue_tables: OrderedDict = OrderedDict()
# normals per Davies-Harte block: 2**18 keeps each of the block's
# temporaries at 4 MB (8 MB complex) whatever the path count
_DRAW_NORMALS = 2 ** 18


@dataclass(frozen=True)
class Seed:
    """Master seed with documented per-(path, component) stream derivation.

    Component c of path p draws from
    ``numpy.random.SeedSequence(master, spawn_key=(p, c))``, so identical
    (master, p, c) reproduce identical paths bit for bit, independent of
    how the Monte Carlo loop is parallelized.
    """

    master: int

    def generator(self, path_index: int = 0, component: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master, spawn_key=(path_index, component))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class DriverPath:
    """m-dimensional driver sampled at the grid nodes.

    hurst is None for deterministic test drivers ("deterministic" tag).
    """

    grid: TimeGrid
    values: np.ndarray
    hurst: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.n + 1:
            raise ValueError(f"expected {self.grid.n + 1} node values, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("driver values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def component(self, c: int) -> np.ndarray:
        return self.values[:, c]

    def to_csv(self, path) -> None:
        """Write header `t,g1..gm`, one row per node, full double precision."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"g{j + 1}" for j in range(self.m)])
            for i, t in enumerate(self.grid.nodes):
                w.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in self.values[i]])


def deterministic_driver(grid: TimeGrid, fn) -> DriverPath:
    """Driver from a deterministic function t -> scalar or m-vector."""
    vals = np.asarray([np.atleast_1d(fn(t)) for t in grid.nodes], dtype=float)
    return DriverPath(grid, vals, hurst=None)


def fbm_covariance(s: float, t: float, H: float) -> float:
    """R(s, t) = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2."""
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {H}")
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


def _covariance_matrix(nodes: np.ndarray, H: float) -> np.ndarray:
    t = nodes[:, None]
    s = nodes[None, :]
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - np.abs(t - s) ** (2 * H))


def _cholesky_factor(grid: TimeGrid, H: float) -> np.ndarray:
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {H}")
    cov = _covariance_matrix(grid.nodes[1:], H)
    jitter = 0.0
    max_diag = float(np.max(np.diag(cov)))
    for _ in range(3):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(grid.n))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-16 * max_diag)
            if jitter > _MAX_JITTER * max_diag:
                break
    raise FactorizationError(
        f"fBm covariance not positive definite within jitter {_MAX_JITTER:g} * diag"
    )


def sample_cholesky(grid: TimeGrid, H: float, m: int, seed: Seed, path_index: int = 0) -> DriverPath:
    """Exact Gaussian sample via dense Cholesky of the node covariance.

    Cost O(n^3) once per (grid, H) plus O(n^2) per component; intended
    for moderate n and as the distributional oracle for the FFT sampler.
    The one-path case of the Cholesky path stack.
    """
    return DriverPath(grid, _cholesky_paths(grid, H, m, seed, [path_index])[0], hurst=H)


def _cholesky_paths(grid: TimeGrid, H: float, m: int, seed: Seed, path_indices) -> np.ndarray:
    """Cholesky drivers of the given path indices, shape (P, n+1, m):
    one factor for the stack, one matrix-vector product per component."""
    L = _cholesky_factor(grid, H)
    out = np.zeros((len(path_indices), grid.n + 1, m))
    for k, p in enumerate(path_indices):
        for c in range(m):
            out[k, 1:, c] = L @ seed.generator(p, c).standard_normal(grid.n)
    return out


def _fgn_circulant_eigenvalues(n: int, H: float) -> np.ndarray:
    """Eigenvalues of the fGn circulant embedding of size 2n, one
    read-only array per (n, H)."""
    return _cached_table(_eigenvalue_tables, (int(n), float(H)), lambda: _circulant_eigenvalues(n, H))


def _circulant_eigenvalues(n: int, H: float) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    rho = 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
    circ = np.concatenate([rho, rho[-2:0:-1]])  # length 2n
    eig = np.fft.fft(circ).real
    if eig.min() < -_EIGEN_TOL:
        raise EmbeddingError(
            f"circulant embedding produced eigenvalue {eig.min():.3e}; "
            "the fGn embedding is nonnegative definite, this is a bug"
        )
    eig = np.clip(eig, 0.0, None)
    eig.flags.writeable = False
    return eig


def _davies_harte_increments(n: int, H: float, rngs) -> np.ndarray:
    """Fractional Gaussian noise sequences of length n, unit spacing, one
    row per generator in rngs: shape (len(rngs), n).

    Each row draws its 2n normals from its own generator in a fixed
    documented order: first the two real modes z0 and zn, then the real
    parts u and the imaginary parts v of the n-1 complex pairs.  Rows
    are independent of each other and of the block size; one FFT along
    axis 1 serves the block.
    """
    eig = _fgn_circulant_eigenvalues(n, H)
    two_n = 2 * n
    z = np.empty((len(rngs), two_n))
    for row, rng in zip(z, rngs):
        rng.standard_normal(out=row)
    w = np.zeros((len(rngs), two_n), dtype=complex)
    w[:, 0] = z[:, 0]
    w[:, n] = z[:, 1]
    w[:, 1:n] = (z[:, 2 : n + 1] + 1j * z[:, n + 1 :]) / np.sqrt(2.0)
    w[:, n + 1 :] = np.conj(w[:, n - 1 : 0 : -1])
    return np.fft.fft(np.sqrt(eig / two_n) * w, axis=1).real[:, :n]


def sample_davies_harte(grid: TimeGrid, H: float, m: int, seed: Seed, path_index: int = 0) -> DriverPath:
    """O(n log n) circulant-embedding sample, distributionally identical
    to :func:`sample_cholesky`.  The one-path case of the Davies-Harte
    path stack."""
    return DriverPath(grid, _davies_harte_paths(grid, H, m, seed, [path_index])[0], hurst=H)


def _draw_block_rows(n: int) -> int:
    """Paths per Davies-Harte block at n cells: 2n normals each, at most
    _DRAW_NORMALS per block."""
    return max(1, _DRAW_NORMALS // (2 * n))


def _davies_harte_paths(grid: TimeGrid, H: float, m: int, seed: Seed, path_indices) -> np.ndarray:
    """Davies-Harte drivers of the given path indices, shape (P, n+1, m),
    in blocks of at most _DRAW_NORMALS normals per component: one FFT per
    block and component.  Path p, component c draws from
    seed.generator(p, c) alone, so every path is bit for bit the same
    whatever stack it is drawn in."""
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {H}")
    n = grid.n
    scale = grid.h ** H
    out = np.zeros((len(path_indices), n + 1, m))
    rows = _draw_block_rows(n)
    for lo in range(0, len(path_indices), rows):
        block = path_indices[lo : lo + rows]
        for c in range(m):
            fgn = _davies_harte_increments(n, H, [seed.generator(p, c) for p in block]) * scale
            out[lo : lo + len(block), 1:, c] = np.cumsum(fgn, axis=1)
    return out


# one sampler per name: a driver stack (P, n+1, m) for a sequence of path
# indices
_SAMPLERS = {"cholesky": _cholesky_paths, "davies-harte": _davies_harte_paths}


def _sampler(name: str):
    if name not in _SAMPLERS:
        raise ValueError(f"unknown sampler {name!r}")
    return _SAMPLERS[name]


def sample_paths(
    grid: TimeGrid,
    H: float,
    m: int,
    seed: Seed,
    n_paths: int,
    sampler: str = "davies-harte",
) -> np.ndarray:
    """Stack of n_paths independent drivers, shape (n_paths, n+1, m).

    Per-path streams come from the Seed derivation, so the result does
    not depend on batching or parallel fan-out.
    """
    return _sampler(sampler)(grid, H, m, seed, range(n_paths))
