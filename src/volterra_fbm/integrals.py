"""Volterra integral operators: Lebesgue and generalized Stieltjes.

Four operators act on two-time kernels f(t, s): the plain Lebesgue
integral F_t(f), its composition with a drift coefficient, the
Riemann-Stieltjes sum against a driver (the pathwise Young integral),
and the fractional-derivative representation of the same integral used
as the accuracy arbiter for rough drivers.

The coefficient maps drift_term and diffusion_term never build the
(n+1)^2 table: they evaluate the coefficient on the causal triangle in
blocks of rows and apply the table rules (lebesgue_volterra, young_rs)
block by block, bit-identically.  The table rules remain for general
tables and as the maps' test oracles.  Both maps also take a stack of P
paths at once, the path axis leading the state; each path's rows are
bit for bit its one-path map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import EvaluationError
from .fbm import DriverPath
from .fraccalc import _gamma, beta_fn, left_frac_derivative_all, weyl_bracket_matrix
from .grid import _ROW_CHUNK, BivariateKernelValues, GridFunction, TimeGrid

__all__ = [
    "IntegralResult",
    "lebesgue_volterra",
    "drift_term",
    "young_rs",
    "young_frac",
    "diffusion_term",
]


@dataclass(frozen=True)
class IntegralResult:
    """Map t_i -> integral value as a grid function, tagged with the
    quadrature route that produced it."""

    values: GridFunction
    method: str

    @property
    def grid(self) -> TimeGrid:
        return self.values.grid


def _as_matrix_kernel(v: np.ndarray, lead: int = 0) -> np.ndarray:
    """Kernel values (lead axes..., rows, cols[, d[, m]]) as (..., rows,
    cols, d, m); scalar kernels become d=m=1."""
    rank = v.ndim - lead - 2
    if rank == 0:
        return v[..., None, None]
    if rank == 1:
        return v[..., None]
    if rank == 2:
        return v
    raise ValueError(f"kernel value rank {rank} not supported")


def _check_driver_dimension(m: int, g_m: int) -> None:
    if m == 1 and g_m > 1:
        raise ValueError(f"kernel has driver dimension 1, driver has m={g_m}")
    if m != g_m:
        raise ValueError(f"kernel driver dimension {m} != driver m={g_m}")


def _triangle_blocks(fn, grid: TimeGrid, states: np.ndarray, rank: int, which: str, errors):
    """Evaluate fn(t_i, t_j, x(t_j)) on the causal triangle j <= i, in
    blocks of _ROW_CHUNK rows, for one path (states of shape (n+1, d))
    or a stack of paths (P, n+1, d).

    Yields (lo, hi, vals) with vals of shape ([P,] hi - lo, hi, ...):
    rows lo <= i < hi against columns j < hi, which covers those rows'
    triangle.  s is clipped to t, so the entries j > i are evaluations
    at s = t_i that no rule reads.  The state goes in un-broadcast, as
    (1, hi, d), or (P, 1, hi, d) for a stack, so a state-only factor is
    computed once per column.  The result is broadcast from the right,
    its last rank axes being the value's (1 for b, 2 for sigma), so one
    without the path axis serves every path.  Only the triangle is
    checked for finiteness; see _check_triangle_finite for errors.
    """
    t = grid.nodes
    n1 = grid.n + 1
    lead = states.shape[:-2]
    for lo in range(0, n1, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, n1)
        ti = t[lo:hi, None]
        vals = np.asarray(fn(ti, np.minimum(t[None, :hi], ti), states[..., None, :hi, :]), dtype=float)
        vals = np.broadcast_to(vals, lead + (hi - lo, hi) + vals.shape[max(vals.ndim - rank, 0) :])
        if not np.all(np.isfinite(vals)):
            _check_triangle_finite(which, vals, grid, lo, len(lead), errors)
        yield lo, hi, vals


def _check_triangle_finite(which: str, vals: np.ndarray, grid: TimeGrid, lo: int, lead: int, errors) -> None:
    """EvaluationError at each path's first non-finite triangle entry of
    the block whose first row is lo; entries above the diagonal pass.
    With errors None it is raised; otherwise errors[p] keeps path p's
    first one and the caller goes on with the other paths."""
    rows, cols = vals.shape[lead : lead + 2]
    bad = ~np.isfinite(vals).reshape(vals.shape[: lead + 2] + (-1,)).all(axis=-1)
    bad &= np.arange(cols)[None, :] <= np.arange(lo, lo + rows)[:, None]
    for p, path_bad in enumerate(bad.reshape(-1, rows, cols)):
        if not path_bad.any() or (errors is not None and errors[p] is not None):
            continue
        k, j = np.argwhere(path_bad)[0]
        exc = EvaluationError(
            f"{which} evaluator returned non-finite value at "
            f"(t, s) = ({grid.nodes[lo + k]:g}, {grid.nodes[j]:g})"
        )
        if errors is None:
            raise exc
        errors[p] = exc


def lebesgue_volterra(f: BivariateKernelValues) -> IntegralResult:
    """F_t(f) = int_0^t f(t, s) ds, trapezoidal in s per row."""
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
    return IntegralResult(GridFunction(f.grid, vals), "lebesgue-product-rule")


def drift_term(b, x, grid: TimeGrid | None = None, errors: list | None = None):
    """F^{(b)}_t(x) = int_0^t b(t, s, x(s)) ds.

    b follows the coefficient evaluator contract: broadcastable arrays
    (t, s) plus states of shape (..., d), returning (..., d).  The rule
    is lebesgue_volterra's, row block by row block: the same sequential
    row sums, so the result is bit-identical to it on the full table.

    x is one path, a GridFunction, for which an IntegralResult is
    returned; or the node values (P, n+1, d) of a stack of paths on
    grid, for which the values (P, n+1, d) are returned, each path's bit
    for bit its one-path map.  A non-finite evaluation raises
    EvaluationError, unless errors is a list of P entries: then path p's
    error goes to errors[p] (where it is None) and the others carry on.
    """
    if isinstance(x, GridFunction):
        return IntegralResult(GridFunction(x.grid, _drift_rows(b, x.grid, x.values, None)), "lebesgue-product-rule")
    return _drift_rows(b, grid, x, errors)


def _drift_rows(b, grid: TimeGrid, states: np.ndarray, errors) -> np.ndarray:
    h = grid.h
    lead = states.ndim - 2
    rows = []
    for lo, hi, vals in _triangle_blocks(b, grid, states, 1, "drift", errors):
        v = _as_matrix_kernel(vals, lead)[..., 0]
        csum = np.cumsum(v, axis=-2)
        k = np.arange(hi - lo)
        rows.append(h * (csum[..., k, lo + k, :] - 0.5 * (v[..., :, 0, :] + v[..., k, lo + k, :])))
    vals = np.concatenate(rows, axis=-2)
    vals[..., 0, :] = 0.0
    return vals


def young_rs(f: BivariateKernelValues, g: DriverPath) -> IntegralResult:
    """Left-point Riemann-Stieltjes sums

        I(t_i) = sum_{j<i} f(t_i, t_j) (g(t_{j+1}) - g(t_j)),

    contracting the m-dimension of dg against matrix-valued kernels.
    """
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
    vals = np.einsum("ijdm,jm->id", w, dg)
    return IntegralResult(GridFunction(f.grid, vals), "riemann-stieltjes-sum")


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


def young_frac(f: BivariateKernelValues, g: DriverPath, alpha: float) -> IntegralResult:
    """Fractional-derivative representation of int_0^t f(t, s) dg_s:

        -int_0^t (D^alpha_{0+} f(t, .))(s) (D^{1-alpha}_{t-} g_{t-})(s) ds,

    with both operators in the real convention (the leading minus is the
    residue of the dropped phases).  The product integrand carries
    s^{-alpha} and (t-s)^{alpha-1} endpoint singularities, removed by
    dividing out the exact kernel and product-integrating against it.

    Cost O(d m n^2 log n): each row t_i takes, per component, one
    FFT-convolution left derivative (fraccalc.left_frac_derivative_all,
    O(n log n)) and an O(n) outer quadrature; the Weyl bracket table is
    built once, in O(m n^2).  The FFT changes only the summation order
    of the derivative's increment integral, which agrees with the direct
    row rule to 1e-12 of its row scale.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
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
    return IntegralResult(GridFunction(grid, vals), "fractional-representation")


def diffusion_term(sigma, x, g, grid: TimeGrid | None = None, errors: list | None = None):
    """G^{(sigma)}_t(x) = int_0^t sigma(t, s, x(s)) dg_s by left-point
    Riemann-Stieltjes sums.

    sigma follows the evaluator contract: (t, s, state) -> (..., d, m).
    The rule is young_rs's, row block by row block, and bit-identical to
    it on the full table.

    x and g are one path, a GridFunction and a DriverPath, for which an
    IntegralResult is returned; or the node values (P, n+1, d) and
    (P, n+1, m) of a stack of paths on grid, as in drift_term.  Each row
    block is one einsum over the whole stack.
    """
    if isinstance(x, GridFunction):
        vals = _diffusion_rows(sigma, x.grid, x.values, g.values, None)
        return IntegralResult(GridFunction(x.grid, vals), "riemann-stieltjes-sum")
    return _diffusion_rows(sigma, grid, x, g, errors)


def _diffusion_rows(sigma, grid: TimeGrid, states: np.ndarray, drivers: np.ndarray, errors) -> np.ndarray:
    n = grid.n
    dg = np.diff(drivers, axis=-2)  # ([P,] n, m)
    rows = []
    for lo, hi, vals in _triangle_blocks(sigma, grid, states, 2, "diffusion", errors):
        v = _as_matrix_kernel(vals, states.ndim - 2)
        _check_driver_dimension(v.shape[-1], dg.shape[-1])
        cols = min(hi, n)
        # left-point rule: only j < i enters row i
        strict = np.arange(cols)[None, :] < np.arange(lo, hi)[:, None]
        w = np.where(strict[:, :, None, None], v[..., :cols, :, :], 0.0)
        rows.append(np.einsum("...ijdm,...jm->...id", w, dg[..., :cols, :]))
    return np.concatenate(rows, axis=-2)
