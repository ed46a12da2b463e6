"""Volterra integral operators: Lebesgue and generalized Stieltjes.

Four operators act on two-time kernels f(t, s): the plain Lebesgue
integral F_t(f), its composition with a drift coefficient, the
Riemann-Stieltjes sum against a driver (the pathwise Young integral),
and the fractional-derivative representation of the same integral used
as the accuracy arbiter for rough drivers.

Each discrete rule is written once, as a function of one block
(lo, hi, v): v holds rows lo <= i < hi against columns j < hi, shaped
([P,] rows, cols, d, m).  The trapezoid rule (_trapezoid_block) serves
lebesgue_volterra and the drift map, the left-point rule
(_left_point_block) young_rs and the diffusion map.  The table
operators feed them slices of a tabulated kernel.  The maps take one
pass over the causal triangle (coefficient_maps), for one path or a
stack of P paths: each block builds its times once, evaluates b and
sigma on them and feeds both rules, so a Picard step walks the triangle
once and never builds the (n+1)^2 table.  Each call needs a few row
blocks of working memory beyond its input: 64 (n+1) d m doubles a block
for one path or a table, for a stack of paths no more than that or
2^16 d m, whichever is larger; the left-point rule reuses one block
buffer for the whole call.  The pass returns one error per path, b's
before sigma's wherever each arises (one rule for one path and for a
stack); drift_term and diffusion_term, its one-path cases, raise it.

young_frac takes its rows t_i in blocks: one FFT gives the left
fractional derivatives of a whole block, two power series of the kernel
moments (one matrix product each) its outer quadrature weights.  It
costs O(d m n^2 log n) time (0.07-0.09 s at n = 1024 and d = m = 1 on a
2-vCPU Xeon, a fifth of it for the weights) and O(m n^2) memory for the
Weyl bracket tables.  It agrees with the per-row rule it replaced, kept
as its test oracle with the betainc moments, to 1e-9 of its sup.

The Stieltjes operators (young_rs, young_frac, diffusion_term) raise
ValueError on a driver whose grid is not the kernel's or the state's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EvaluationError
from .fbm import DriverPath
from .fraccalc import _gamma, check_alpha, left_frac_derivative_all, weyl_bracket_matrix
from .grid import BivariateKernelValues, GridFunction, TimeGrid, _part_paths, _row_blocks

# rows per block of young_frac: at n = 1024, 16 rows keep a call's peak
# RSS at the per-row rule's (64 rows add 5 MB), and 4 rows take a fifth longer
_FRAC_ROWS = 16

# terms of each kernel moment series (_doubly_singular_blocks): both are
# cut at x = 1/2, where term k falls like 2^-k, so 56 terms reach 2^-53
_MOMENT_TERMS = 56

__all__ = [
    "IntegralResult",
    "lebesgue_volterra",
    "coefficient_maps",
    "drift_term",
    "young_rs",
    "young_frac",
    "diffusion_term",
]


@dataclass(frozen=True)
class IntegralResult:
    """Map t_i -> integral value as a grid function."""

    values: GridFunction


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


def _check_same_grid(what: str, grid: TimeGrid, driver_grid: TimeGrid) -> None:
    if grid != driver_grid:
        raise ValueError(f"{what} grid {grid} differs from the driver grid {driver_grid}")


def _check_driver_dimension(m: int, g_m: int) -> None:
    if m == 1 and g_m > 1:
        raise ValueError(f"kernel has driver dimension 1, driver has m={g_m}")
    if m != g_m:
        raise ValueError(f"kernel driver dimension {m} != driver m={g_m}")


def _evaluate(fn, ti: np.ndarray, s: np.ndarray, states: np.ndarray, rank: int) -> np.ndarray:
    """fn(t_i, s_j, x(s_j)) on one row block, as ([P,] rows, cols, d, m).

    ti (rows, 1) and s (rows, cols) are the block's times, s clipped to
    t; the state goes in un-broadcast, as (1, cols, d), or (P, 1, cols, d)
    for a stack, so a state-only factor is computed once per column.
    The result is broadcast from the right, its last rank axes being the
    value's (1 for b, 2 for sigma), so one without the path axis serves
    every path.
    """
    lead = states.shape[:-3]
    vals = np.asarray(fn(ti, s, states), dtype=float)
    vals = np.broadcast_to(vals, lead + s.shape + vals.shape[max(vals.ndim - rank, 0) :])
    return _as_matrix_kernel(vals, len(lead))


def _checked(which: str, rows: np.ndarray, v: np.ndarray, grid: TimeGrid, lo: int, errors: list) -> np.ndarray:
    """rows, the rule's rows of the block v whose first row is lo; path
    p's first non-finite triangle entry of v goes to errors[p] as an
    EvaluationError, where that is None.  v is scanned only if rows or
    its diagonal hold a non-finite value, which finds every such entry:
    one makes its row non-finite, NaN and inf passing through the cumsum
    and through inf * dg, inf * 0 included.  The diagonal is checked on
    its own: the left-point rule does not read it, and it holds the only
    entry of row 0, which the trapezoid rule sets to 0."""
    r, cols = v.shape[-4:-2]
    k = np.arange(r)
    if np.isfinite(rows).all() and np.isfinite(v[..., k, lo + k, :, :]).all():
        return rows
    bad = ~np.isfinite(v).reshape(v.shape[:-2] + (-1,)).all(axis=-1)
    bad &= np.arange(cols)[None, :] <= np.arange(lo, lo + r)[:, None]
    for p, path_bad in enumerate(bad.reshape(-1, r, cols)):
        if path_bad.any() and errors[p] is None:
            i, j = np.argwhere(path_bad)[0]
            errors[p] = EvaluationError(
                f"{which} evaluator returned non-finite value at "
                f"(t, s) = ({grid.nodes[lo + i]:g}, {grid.nodes[j]:g})"
            )
    return rows


def _trapezoid_block(h: float, lo: int, v: np.ndarray) -> np.ndarray:
    """Trapezoid rule int_0^{t_i} f(t_i, s) ds of the rows lo <= i < lo + r
    of the block v ([P,] r, cols, d, 1), as ([P,] r, d).  Each row is one
    sequential cumsum, so its bits do not depend on the block cut."""
    if v.shape[-1] != 1:
        raise ValueError(f"the Lebesgue integral takes scalar or (d,) kernel values, got m = {v.shape[-1]} columns")
    v = v[..., 0]
    csum = np.cumsum(v, axis=-2)
    k = np.arange(v.shape[-3])
    rows = h * (csum[..., k, lo + k, :] - 0.5 * (v[..., :, 0, :] + v[..., k, lo + k, :]))
    if lo == 0:
        rows[..., 0, :] = 0.0
    return rows


def _left_point_block(lo: int, v: np.ndarray, dg: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Left-point sums sum_{j<i} f(t_i, t_j) (g(t_{j+1}) - g(t_j)) of the
    rows lo <= i < lo + r of the block v ([P,] r, cols, d, m), against
    the driver increments dg ([P,] n, m), as ([P,] r, d).

    The block is copied into buf, a flat buffer of at least its size
    (_block_buffer), and there only the r x r square from column lo,
    which holds every entry j >= i, is zeroed: neither v nor a caller's
    table is written, and the einsum reads one contiguous block.
    """
    _check_driver_dimension(v.shape[-1], dg.shape[-1])
    r, cols = v.shape[-4], min(v.shape[-3], dg.shape[-2])
    w = np.ndarray(v.shape[:-3] + (cols,) + v.shape[-2:], buffer=buf)
    np.copyto(w, v[..., :cols, :, :])
    # left-point rule: only j < i enters row i
    upper = np.arange(cols - lo)[None, :] >= np.arange(r)[:, None]
    np.copyto(w[..., lo:, :, :], 0.0, where=upper[:, :, None, None])
    return np.einsum("...ijdm,...jm->...id", w, dg[..., :cols, :])


def _block_buffer(blocks, n: int, v: np.ndarray) -> np.ndarray:
    """Flat buffer for the largest left-point block ([P,] rows, min(hi, n),
    d, m) of blocks, v being any block (or the table) of the kernel."""
    per_entry = v.size // (v.shape[-4] * v.shape[-3])
    return np.empty(per_entry * max((hi - lo) * min(hi, n) for lo, hi in blocks))


def coefficient_maps(b, sigma, states: np.ndarray, drivers: np.ndarray | None, grid: TimeGrid):
    """(F^{(b)}(x), G^{(sigma)}(x), errors) in one pass over the causal
    triangle: the drift by the trapezoid rule (lebesgue_volterra's), the
    diffusion by left-point sums (young_rs's), each bit for bit that rule
    on the full table.  b or sigma None skips its map, whose value is
    then None.

    states are one path's node values (n+1, d) or a stack of P paths
    (P, n+1, d), drivers the matching (n+1, m) or (P, n+1, m) values
    (unused without sigma); each map's value has the shape of states.
    Each row block of grid._row_blocks builds s = min(t_j, t_i) for its
    columns j < hi once and evaluates b and sigma on it; the entries
    j > i, evaluations at s = t_i, are neither read nor checked.

    One path takes blocks of 64 rows, a stack of P paths fewer, in
    multiples of 32, so that P x rows x columns stays within 2^16
    (grid._row_blocks); a stack that 32 rows leave above that goes in
    parts of grid._part_paths(n + 1) paths.  The working memory beyond
    states is a few blocks of evaluations: 64 (n+1) d m doubles each for
    one path, for a stack no more than that or 2^16 d m, whichever is
    larger.

    errors holds one entry per path (one for an unstacked state): None,
    or the EvaluationError of the path's first non-finite evaluation, b's
    before sigma's wherever each arises.  A failing path's rows are not
    meaningful; the pass goes on over every block and every path.
    drift_term and diffusion_term, its one-path cases, raise the error.
    """
    t, n = grid.nodes, grid.n
    paths = len(states) if states.ndim == 3 else 1
    part = _part_paths(n + 1)
    if paths > part:
        # 32-row blocks of the whole stack would pass the block budget: it
        # goes in parts, each path's rows being the same in any stack
        parts = [
            coefficient_maps(b, sigma, states[lo : lo + part], None if sigma is None else drivers[lo : lo + part], grid)
            for lo in range(0, paths, part)
        ]
        drift, diffusion = (None if parts[0][k] is None else np.concatenate([q[k] for q in parts]) for k in (0, 1))
        return drift, diffusion, [e for q in parts for e in q[2]]
    blocks = _row_blocks(0, n + 1, paths)
    dg = None if sigma is None else np.diff(drivers, axis=-2)
    b_errors, sigma_errors = [None] * paths, [None] * paths
    drift, diffusion, buf = [], [], None
    for lo, hi in blocks:
        ti = t[lo:hi, None]
        # s = min(t_j, t_i), which is t_j but in the square from column lo
        s = np.empty((hi - lo, hi))
        s[:] = t[:hi]
        np.minimum(s[:, lo:], ti, out=s[:, lo:])
        x = states[..., None, :hi, :]
        # each block of evaluations is dropped once its rows are taken, so
        # that no evaluation runs while an earlier block is still held
        if b is not None:
            v = _evaluate(b, ti, s, x, 1)
            drift.append(_checked("drift", _trapezoid_block(grid.h, lo, v), v, grid, lo, b_errors))
            del v
        if sigma is not None:
            v = _evaluate(sigma, ti, s, x, 2)
            if buf is None:
                buf = _block_buffer(blocks, n, v)
            diffusion.append(_checked("diffusion", _left_point_block(lo, v, dg, buf), v, grid, lo, sigma_errors))
            del v
    errors = [e if e is not None else e_sigma for e, e_sigma in zip(b_errors, sigma_errors)]
    drift, diffusion = (np.concatenate(rows, axis=-2) if rows else None for rows in (drift, diffusion))
    return drift, diffusion, errors


def _one_path(rows: np.ndarray, errors: list, grid: TimeGrid) -> IntegralResult:
    """A one-path map of coefficient_maps as an IntegralResult, or its
    error raised."""
    if errors[0] is not None:
        raise errors[0]
    return IntegralResult(GridFunction(grid, rows))


def lebesgue_volterra(f: BivariateKernelValues) -> IntegralResult:
    """F_t(f) = int_0^t f(t, s) ds, trapezoidal in s per row.  f takes
    scalar or (d,) values; a (d, m) kernel with m > 1 raises ValueError."""
    v = _as_matrix_kernel(f.values)
    vals = [_trapezoid_block(f.grid.h, lo, v[lo:hi, :hi]) for lo, hi in _row_blocks(0, f.grid.n + 1)]
    return IntegralResult(GridFunction(f.grid, np.concatenate(vals)))


def drift_term(b, x: GridFunction) -> IntegralResult:
    """F^{(b)}_t(x) = int_0^t b(t, s, x(s)) ds on one path,
    coefficient_maps without sigma; b follows the coefficient evaluator
    contract, (t, s, state) -> (..., d).  A non-finite evaluation raises
    the path's EvaluationError once the pass is done."""
    drift, _, errors = coefficient_maps(b, None, x.values, None, x.grid)
    return _one_path(drift, errors, x.grid)


def young_rs(f: BivariateKernelValues, g: DriverPath) -> IntegralResult:
    """Left-point Riemann-Stieltjes sums

        I(t_i) = sum_{j<i} f(t_i, t_j) (g(t_{j+1}) - g(t_j)),

    contracting the m-dimension of dg against matrix-valued kernels.
    """
    _check_same_grid("kernel", f.grid, g.grid)
    v = _as_matrix_kernel(f.values)
    dg = np.diff(g.values, axis=0)
    blocks = _row_blocks(0, f.grid.n + 1)
    buf = _block_buffer(blocks, f.grid.n, v)
    vals = [_left_point_block(lo, v[lo:hi, :hi], dg, buf) for lo, hi in blocks]
    return IntegralResult(GridFunction(f.grid, np.concatenate(vals)))


def _doubly_singular_blocks(n: int, alpha: float):
    """Node weights of integral_0^t m(s) W(s) ds, m(s) = s^{-alpha} (t-s)^{alpha-1},
    for the uniform grids of i = 2..n cells on [0, t], in the row blocks
    of young_frac: yields (lo, hi, out), out[i - lo, j] weighing W(s_j)
    for j < hi, zero past node i.  The weights do not depend on t.

    W is linear on each cell and each cell is integrated against the
    exact kernel moments, so the rule is exact for piecewise-linear W.
    With x_j = j / i the zeroth moment of cell j is
    m0 = int_{x_j}^{x_{j+1}} u^{-alpha} (1-u)^{alpha-1} du, from two
    series, each cut at x = 1/2 after _MOMENT_TERMS terms:

    - left of 1/2, a difference of
      i0(x) = x^{1-alpha} (1-x)^alpha / (1-alpha) sum_k k! / (2-alpha)_k x^k
      (DLMF 8.17.8);
    - right of 1/2, a difference of sum_k (alpha)_k / (k! (alpha+k)) y^{alpha+k},
      y = 1 - x.  Its k = 0 term, ((q+1)^alpha - q^alpha) / (alpha i^alpha)
      with q = i - j - 1, is tabulated by q as
      q^alpha expm1(alpha log1p(1/q)) / alpha, so no 1/alpha cancels;
    - the cell across 1/2 (odd i) joins the two at 1/2.

    Each series is one matrix product per block, (j / i)^k split as
    (J / i)^k (j / J)^k with J = n // 2 (finite for n below 10^6).  The
    first moments follow from m0 by the Beta recurrence on each cell,
    int u^{1-alpha} (1-u)^{alpha-1} du = (1-alpha) m0 - [x^{1-alpha} (1-x)^alpha].

    The weights agree with the betainc route (the oracle in
    tests/test_integrals.py) to 1e-10 of each row's largest.  The gap is
    mostly that route's rounding: against 40-digit weights at n = 1024
    its error is 1.4 to 22 times the series'.
    """
    k = np.arange(_MOMENT_TERMS)
    # left: i0(x) = x^{1-alpha} (1-x)^alpha sum_k a_k x^k; right: sum_{k>=1} b_k y^{alpha+k}
    a = np.cumprod(np.concatenate([[1.0], k[1:] / (1.0 - alpha + k[1:])])) / (1.0 - alpha)
    b = np.cumprod(np.concatenate([[1.0], (alpha + k[:-1]) / k[1:]])) / (alpha + k)
    half = max(n // 2, 1)
    jpow = np.vander(np.arange(half + 1) / half, k.size, increasing=True).T
    # q^alpha for q = n, n-1, ..., then zeros: row i of a block reads (i - j)^alpha
    pow_q = np.zeros(n + 1 + _FRAC_ROWS)
    pow_q[: n + 1] = np.arange(n, -1, -1) ** alpha
    q = np.arange(1, half + 1)
    t0 = np.concatenate([[1.0 / alpha], pow_q[n - q] * np.expm1(alpha * np.log1p(1.0 / q)) / alpha])
    pow_j = np.arange(n + 1) ** (1.0 - alpha)
    # i0(1/2) and the k >= 1 right series at y = 1/2
    left_half = (a * 0.5**k).sum() / 2.0
    right_half = 0.5**alpha * (b[1:] * 0.5 ** k[1:]).sum()
    for lo in range(2, n + 1, _FRAC_ROWS):
        hi = min(lo + _FRAC_ROWS, n + 1)
        rows = hi - lo
        i = np.arange(lo, hi)
        # left[r, j] = i0(j / i) on nodes j <= mid; right[r, q] = i^alpha times
        # the k >= 1 right series at y = q / i, q <= mid
        mid = (hi - 1) // 2
        scale = (half / i[:, None]) ** k
        i_a = i**-alpha
        # x^{1-alpha} (1-x)^alpha = j^{1-alpha} (i-j)^alpha / i, zero from node i on
        p = pow_j[:hi] * sliding_window_view(pow_q, hi)[n - hi + 1 : n - lo + 1][::-1] / i[:, None]
        left = p[:, : mid + 1] * ((a * scale) @ jpow[:, : mid + 1])
        right = pow_q[n : n - mid - 1 : -1] * ((b[1:] * scale[:, 1:]) @ jpow[1:, : mid + 1])
        # m0 of the right cell q, reversed, after `rows` zero columns: cell j of
        # row i is buf[r, rows + mid - i + j], a skewed read of row stride
        # rows + mid - 1 (past node i it reads the next row's zeros)
        buf = np.zeros((rows, rows + mid))
        buf[:, rows:] = (i_a[:, None] * (t0[:mid] + right[:, 1:] - right[:, :-1]))[:, ::-1]
        m0 = np.empty((rows, hi - 1))
        b0 = lo // 2
        m0[:, b0:] = sliding_window_view(buf.ravel(), hi - 1 - b0)[rows + mid - lo + b0 :: rows + mid - 1]
        # cells below b0 lie left of 1/2 in every row, cells from mid on right
        # of it (or across it); the band between splits at i / 2
        dl = np.diff(left, axis=1)
        m0[:, :b0] = dl[:, :b0]
        m0[:, b0:mid] = np.where(2 * np.arange(b0, mid) >= i[:, None], m0[:, b0:mid], dl[:, b0:mid])
        # odd i: cell (i-1)/2 lies across 1/2, its right end at q = (i-1)/2
        odd = np.flatnonzero(i % 2)
        io, jo = i[odd], i[odd] // 2
        across = -(0.5**alpha) * np.expm1(alpha * np.log1p(-1.0 / io)) / alpha
        m0[odd, jo] = (left_half - left[odd, jo]) + across + (right_half - right[odd, jo] * i_a[odd])
        m1 = (1.0 - alpha) * m0 - np.diff(p, axis=1)
        # cell j: W_j m0 + (W_{j+1} - W_j) / h * (m1 - s_j m0), with m1 in
        # units of t, s_j = t j / i and h = t / i
        slope = i[:, None] * m1 - np.arange(hi - 1) * m0
        out = np.zeros((rows, hi))
        out[:, :-1] = m0 - slope
        out[:, 1:] += slope
        yield lo, hi, out


def young_frac(f: BivariateKernelValues, g: DriverPath, alpha: float) -> IntegralResult:
    """Fractional-derivative representation of int_0^t f(t, s) dg_s:

        -int_0^t (D^alpha_{0+} f(t, .))(s) (D^{1-alpha}_{t-} g_{t-})(s) ds,

    with both operators in the real convention (the leading minus is the
    residue of the dropped phases).  The product integrand carries
    s^{-alpha} and (t-s)^{alpha-1} endpoint singularities, removed by
    dividing out the exact kernel and product-integrating against it
    (_doubly_singular_blocks).

    Rows t_i go in blocks of _FRAC_ROWS.  A block takes the left
    derivatives of all its rows and components from one FFT
    (fraccalc.left_frac_derivative_all), one table of kernel moments
    (two matrix products of _MOMENT_TERMS powers, over about n^2 / 2
    nodes in all), and one contraction for its outer quadratures; the
    Weyl bracket tables are built once, in O(m n^2).  Cost
    O(d m n^2 log n) in all.  The FFT and the moment series change only
    the rounding: the result agrees with the per-row rule (one FFT and
    two betainc tables per row and component; the oracle in
    tests/test_integrals.py) to 1e-9 of its sup.
    """
    check_alpha(alpha)
    _check_same_grid("kernel", f.grid, g.grid)
    v = _as_matrix_kernel(f.values)
    _check_driver_dimension(v.shape[3], g.m)
    grid = f.grid
    n, h = grid.n, grid.h
    nodes = grid.nodes
    vals = np.zeros((n + 1, v.shape[2]))
    # no interior node: degenerate single cell, left-point rule
    vals[1] = np.einsum("dm,m->d", v[1, 0], g.values[1] - g.values[0])
    brackets = [weyl_bracket_matrix(g.component(c), h, alpha) for c in range(g.m)]
    g1a = _gamma(1.0 - alpha)
    for lo, hi, weights in _doubly_singular_blocks(n, alpha):
        t = nodes[lo:hi, None]
        s = nodes[None, :hi]
        # Weyl bracket at (s_j, t_i), (rows, m, hi), NaN from j = i on; times
        # the kernel divided out, and zero from j = i on (the s -> t limit)
        bracket = np.stack([b[:hi, lo:hi].T for b in brackets], axis=1)
        inv_kernel = s ** alpha * np.maximum(t - s, 0.0) ** (1.0 - alpha)
        factor = np.where((s < t)[:, None], bracket * inv_kernel[:, None], 0.0)
        # left derivative of every row and component, (rows, d, m, hi)
        w = left_frac_derivative_all(np.moveaxis(v[lo:hi, :hi], 1, -1), h, alpha)
        w *= factor[:, None]
        # s -> 0 limit: u(s) s^alpha -> f(t, 0) / Gamma(1-alpha)
        w[..., 0] = v[lo:hi, 0] / g1a * bracket[:, None, :, 0] * t[:, :, None] ** (1.0 - alpha)
        vals[lo:hi] -= np.einsum("rkcj,rj->rk", w, weights)
    return IntegralResult(GridFunction(grid, vals))


def diffusion_term(sigma, x: GridFunction, g: DriverPath) -> IntegralResult:
    """G^{(sigma)}_t(x) = int_0^t sigma(t, s, x(s)) dg_s on one path by
    left-point Riemann-Stieltjes sums, coefficient_maps without b; sigma
    follows the evaluator contract, (t, s, state) -> (..., d, m).  Errors
    as in drift_term."""
    _check_same_grid("state", x.grid, g.grid)
    _, diffusion, errors = coefficient_maps(None, sigma, x.values, g.values, x.grid)
    return _one_path(diffusion, errors, x.grid)
