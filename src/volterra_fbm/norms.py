"""Function-space norms and functionals on grid data.

Five (semi)norms are provided: the fractional sup norm, its
exponentially weighted version (the metric of the fixed-point
argument), the classical Holder norm, the driver norm whose sup runs
over node pairs, and the integral-type norm entering the Stieltjes
bound.  All suprema are over grid nodes or node pairs; each report
carries the argmax so refinement stability can be checked.  Vector
values are measured in the Euclidean norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fraccalc import check_alpha
from .grid import (
    GridFunction,
    _gap_powers,
    _pair_blocks,
    _stack_size,
    abs_increment_row_integrals_many,
    left_singular_integral,
)

__all__ = [
    "HolderParams",
    "NormReport",
    "w_alpha_infty_norm",
    "w_alpha_infty_norms",
    "w_alpha_lambda_norm",
    "fractional_aggregate",
    "fractional_norm",
    "check_weight",
    "check_young_hurst",
    "holder_norm",
    "w_1malpha_norm",
    "alpha_1_norm",
    "double_increment_masses",
    "delta_functional",
    "norm_row_passes",
    "holder_exponent_estimate",
]


def check_young_hurst(H: float):
    """The Young integral, and with it the solver, needs H in (1/2, 1)."""
    if not 0.5 < H < 1.0:
        raise ValueError(f"need H in (1/2, 1), got {H}")


@dataclass(frozen=True)
class HolderParams:
    """Roughness parameters for the solver and its norms.

    alpha must lie in (1 - H, 1/2) for the driver to have finite
    capacity.  The solver selects the exponential weight of its
    contraction metric itself (or takes picard_solve's lambda_override).
    """

    H: float
    alpha: float
    T: float

    def __post_init__(self):
        check_young_hurst(self.H)
        if not (1.0 - self.H) < self.alpha < 0.5:
            raise ValueError(
                f"need alpha in (1-H, 1/2) = ({1 - self.H:g}, 0.5), got {self.alpha}"
            )
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")


@dataclass(frozen=True)
class NormReport:
    """Norm value with the node where the sup is attained and the
    (sup-part, integral-part) split at that node."""

    value: float
    sup_argmax: float
    components: tuple[float, float]


def fractional_aggregate(f: GridFunction, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(|f(t_i)|, integral_0^{t_i} |f(t_i)-f(s)| (t_i-s)^{-alpha-1} ds)
    at every node: the per-node parts of the fractional norms, one
    O(n^2) pass."""
    check_alpha(alpha)
    return norm_row_passes(f.values[None], None, f.grid.h, alpha, 1.0)[0][0]


def fractional_norm(nodes: np.ndarray, aggregate: tuple[np.ndarray, np.ndarray], lam: float) -> NormReport:
    """sup_t e^{-lam t} ( |f(t)| + increment integral ) from the
    fractional_aggregate of f; lam = 0 is the unweighted norm."""
    sup_part, inc = aggregate
    w = np.exp(-lam * nodes)
    agg = w * (sup_part + inc)
    i = int(np.argmax(agg))
    return NormReport(float(agg[i]), float(nodes[i]), (float(w[i] * sup_part[i]), float(w[i] * inc[i])))


def check_weight(lam: float):
    """The weighted norm is defined for finite lam >= 1 only."""
    if not np.isfinite(lam):
        raise ValueError(f"weight lambda must be finite, got {lam}")
    if lam < 1.0:
        raise ValueError(f"weight lambda must be >= 1, got {lam}")


def w_alpha_infty_norm(f: GridFunction, alpha: float) -> NormReport:
    """sup_t ( |f(t)| + int_0^t |f(t)-f(s)| / (t-s)^{alpha+1} ds ).  The
    one-function case of w_alpha_infty_norms."""
    return w_alpha_infty_norms([f], alpha)[0]


def w_alpha_infty_norms(fs, alpha: float) -> list[NormReport]:
    """w_alpha_infty_norm of each grid function of fs, all on one grid,
    in stacks of at most grid._stack_size(n) functions: one
    norm_row_passes call per stack, each report bit for bit the
    function's own call."""
    check_alpha(alpha)
    fs = list(fs)
    if not fs:
        return []
    grid = fs[0].grid
    if any(f.grid != grid for f in fs):
        raise ValueError("all functions of a stack must share one grid")
    size = _stack_size(grid.n)
    reports = []
    for lo in range(0, len(fs), size):
        aggs, _ = norm_row_passes(np.stack([f.values for f in fs[lo : lo + size]]), None, grid.h, alpha, 1.0)
        reports += [fractional_norm(grid.nodes, agg, 0.0) for agg in aggs]
    return reports


def w_alpha_lambda_norm(f: GridFunction, alpha: float, lam: float) -> NormReport:
    """Weighted variant sup_t e^{-lam t} ( |f(t)| + increment integral );
    defined for lam >= 1 only."""
    check_weight(lam)
    return fractional_norm(f.grid.nodes, fractional_aggregate(f, alpha), lam)


def holder_norm(f: GridFunction, exponent: float) -> float:
    """||f||_inf + sup_{s<t} |f(t)-f(s)| / (t-s)^exponent over node pairs."""
    if not 0.0 < exponent <= 1.0:
        raise ValueError(f"Holder exponent must lie in (0, 1], got {exponent}")
    n = f.grid.n
    gap_pow = _gap_powers(n, f.grid.h, exponent)
    semi = 0.0
    for _, dv, _ in _pair_blocks(f.values[None], f.grid.h, 0, n):
        dist = np.sqrt(np.add.reduce(dv * dv, axis=-1))
        semi = max(semi, float(np.nanmax(dist / gap_pow[: dist.shape[-1]])))
    return f.sup_norm() + semi


def w_1malpha_norm(g_values: np.ndarray, h: float, alpha: float) -> float:
    """Driver norm sup over node pairs 0 < s < t <= T of

        |g(t)-g(s)| / (t-s)^{1-alpha}
            + int_s^t |g(y)-g(s)| / (y-s)^{2-alpha} dy,

    for a scalar sample.  s runs over interior nodes; t includes the
    final node (immaterial for continuous data).  Non-finite values are
    refused, as by lambda_alpha_many: nanmax would skip the pairs they
    touch.
    """
    check_alpha(alpha)
    v = np.asarray(g_values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("need finite driver values")
    n = v.shape[0] - 1
    gap_pow = _gap_powers(n, h, 1.0 - alpha)
    best = 0.0
    for _, dv, tail in _pair_blocks(v[None], h, 1, n, theta=2.0 - alpha, signed=False):
        row = np.abs(dv) / gap_pow[: dv.shape[-1]] + tail
        best = max(best, float(np.nanmax(row)))
    return best


def alpha_1_norm(f: GridFunction, alpha: float) -> float:
    """int_0^T |f(s)| s^{-alpha} ds
    + int_0^T int_0^s |f(s)-f(y)| / (s-y)^{alpha+1} dy ds."""
    check_alpha(alpha)
    h = f.grid.h
    # left-singular kernel s^-alpha, integrable without cancellation
    first = left_singular_integral(f.pointwise_norm(), h, alpha)
    return first + double_increment_masses([f.values], h, alpha)[0]


def double_increment_masses(samples, h: float, alpha: float) -> list[float]:
    """int_0^T int_0^s |v(s)-v(y)| / (s-y)^{alpha+1} dy ds for each sample
    v, shape (k+1,) or (k+1, d), on its own k cells of width h: the inner
    integrals of all samples in one row pass, the outer one by the plain
    trapezoid rule, its integrand being bounded and vanishing at s = 0."""
    inners = abs_increment_row_integrals_many([(v, 1.0) for v in samples], h, alpha + 1.0)
    return [float(np.trapezoid(inner, dx=h)) for inner in inners]


def _check_delta(delta: float):
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


def delta_functional(f: GridFunction, alpha: float, delta: float) -> float:
    """sup_u int_0^u |f(u)-f(s)|^delta / (u-s)^{alpha+1} ds."""
    return norm_row_passes(None, f.values[None], f.grid.h, alpha, delta)[1][0]


def norm_row_passes(aggregated, delta_of, h: float, alpha: float, delta: float):
    """([fractional_aggregate of v for v in aggregated], [delta_functional
    of v for v in delta_of]) for two stacks of node values, each (S, n+1,
    d) or None for no samples: one abs_increment_row_integrals_many call,
    one kernel entry per stack, serves them all, each result bit for bit
    its own one-sample stack's.  A Picard step passes gaps and iterates."""
    _check_delta(delta)
    entries = [(v, p) for v, p in ((aggregated, 1.0), (delta_of, delta)) if v is not None]
    if any(np.ndim(v) != 3 for v, _ in entries):
        raise ValueError(f"need node values stacked as (S, n+1, d), got shapes {[np.shape(v) for v, _ in entries]}")
    incs = abs_increment_row_integrals_many(entries, h, alpha + 1.0) if entries else []
    # each stack's (S, n+1) result holds one row per sample
    aggregates = [] if aggregated is None else list(zip(np.linalg.norm(aggregated, axis=-1), incs[0]))
    deltas = [] if delta_of is None else [float(x) for x in incs[-1].max(axis=-1)]
    return aggregates, deltas


def holder_exponent_estimate(f: GridFunction) -> float:
    """Empirical path regularity: slope of the log-log regression of the
    median increment magnitude against dyadic lags k*h, k = 1..n/8.

    Constant (zero-variation) data returns 1.0 by convention.
    """
    n = f.grid.n
    if n < 64:
        raise ValueError(f"need n >= 64 for a stable estimate, got n={n}")
    lags = []
    meds = []
    k = 1
    while k <= n // 8:
        d = np.linalg.norm(f.values[k:] - f.values[:-k], axis=1)
        med = float(np.median(d))
        if med > 0.0:
            lags.append(k * f.grid.h)
            meds.append(med)
        k *= 2
    if len(lags) < 2:
        return 1.0
    slope = np.polyfit(np.log(lags), np.log(meds), 1)[0]
    return float(slope)
