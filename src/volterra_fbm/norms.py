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

from .grid import (
    GridFunction,
    _gap_powers,
    _pair_blocks,
    abs_increment_row_integrals,
    abs_increment_row_integrals_many,
    power_cell_weights,
)

__all__ = [
    "HolderParams",
    "NormReport",
    "w_alpha_infty_norm",
    "w_alpha_lambda_norm",
    "fractional_aggregate",
    "fractional_norm",
    "check_weight",
    "holder_norm",
    "w_1malpha_norm",
    "alpha_1_norm",
    "delta_functional",
    "delta_and_gap_aggregate",
    "holder_exponent_estimate",
]


@dataclass(frozen=True)
class HolderParams:
    """Roughness/weight parameters for the solver and its norms.

    alpha must lie in (1 - H, 1/2) for the driver to have finite
    capacity; lam >= 1 is the exponential weight of the contraction
    metric.
    """

    H: float
    alpha: float
    T: float
    lam: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise ValueError(f"need H in (1/2, 1), got {self.H}")
        if not (1.0 - self.H) < self.alpha < 0.5:
            raise ValueError(
                f"need alpha in (1-H, 1/2) = ({1 - self.H:g}, 0.5), got {self.alpha}"
            )
        if self.lam < 1.0:
            raise ValueError(f"weight lambda must be >= 1, got {self.lam}")
        if self.T <= 0:
            raise ValueError("horizon must be positive")


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
    sup_part = f.pointwise_norm()
    inc = abs_increment_row_integrals(f.values, f.grid.h, alpha + 1.0)
    return sup_part, inc


def fractional_norm(nodes: np.ndarray, aggregate: tuple[np.ndarray, np.ndarray], lam: float) -> NormReport:
    """sup_t e^{-lam t} ( |f(t)| + increment integral ) from the
    fractional_aggregate of f; lam = 0 is the unweighted norm."""
    sup_part, inc = aggregate
    w = np.exp(-lam * nodes)
    agg = w * (sup_part + inc)
    i = int(np.argmax(agg))
    return NormReport(float(agg[i]), float(nodes[i]), (float(w[i] * sup_part[i]), float(w[i] * inc[i])))


def check_weight(lam: float):
    """The weighted norm is defined for lam >= 1 only."""
    if lam < 1.0:
        raise ValueError(f"weight lambda must be >= 1, got {lam}")


def w_alpha_infty_norm(f: GridFunction, alpha: float) -> NormReport:
    """sup_t ( |f(t)| + int_0^t |f(t)-f(s)| / (t-s)^{alpha+1} ds )."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    return fractional_norm(f.grid.nodes, fractional_aggregate(f, alpha), 0.0)


def w_alpha_lambda_norm(f: GridFunction, alpha: float, lam: float) -> NormReport:
    """Weighted variant sup_t e^{-lam t} ( |f(t)| + increment integral );
    defined for lam >= 1 only."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    check_weight(lam)
    return fractional_norm(f.grid.nodes, fractional_aggregate(f, alpha), lam)


def holder_norm(f: GridFunction, exponent: float) -> float:
    """||f||_inf + sup_{s<t} |f(t)-f(s)| / (t-s)^exponent over node pairs."""
    if not 0.0 < exponent <= 1.0:
        raise ValueError(f"Holder exponent must lie in (0, 1], got {exponent}")
    n = f.grid.n
    gap_pow = _gap_powers(n, f.grid.h, exponent)
    semi = 0.0
    for _, dv, _ in _pair_blocks(f.values, f.grid.h, 0, n):
        dist = np.sqrt(np.add.reduce(dv * dv, axis=-1))
        semi = max(semi, float(np.nanmax(dist / gap_pow[: dist.shape[1]])))
    return f.sup_norm() + semi


def w_1malpha_norm(g_values: np.ndarray, h: float, alpha: float) -> float:
    """Driver norm sup over node pairs 0 < s < t <= T of

        |g(t)-g(s)| / (t-s)^{1-alpha}
            + int_s^t |g(y)-g(s)| / (y-s)^{2-alpha} dy,

    for a scalar sample.  s runs over interior nodes; t includes the
    final node (immaterial for continuous data).
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    v = np.asarray(g_values, dtype=float)
    n = v.shape[0] - 1
    gap_pow = _gap_powers(n, h, 1.0 - alpha)
    best = 0.0
    for _, dv, tail in _pair_blocks(v, h, 1, n, theta=2.0 - alpha, signed=False):
        row = np.abs(dv) / gap_pow[: dv.shape[1]] + tail
        best = max(best, float(np.nanmax(row)))
    return best


def alpha_1_norm(f: GridFunction, alpha: float) -> float:
    """int_0^T |f(s)| s^{-alpha} ds
    + int_0^T int_0^s |f(s)-f(y)| / (s-y)^{alpha+1} dy ds."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    h = f.grid.h
    mag = f.pointwise_norm()
    # left-singular kernel s^-alpha, integrable without cancellation
    a_w, b_w = power_cell_weights(f.grid.n, h, alpha)
    first = float(np.dot(a_w, mag[1:]) + np.dot(b_w[: f.grid.n], mag[:-1]))
    inner = abs_increment_row_integrals(f.values, h, alpha + 1.0)
    # outer integrand is bounded and vanishes at s=0: plain trapezoid
    second = float(np.trapezoid(inner, dx=h))
    return first + second


def _check_delta(delta: float):
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


def delta_functional(f: GridFunction, alpha: float, delta: float) -> float:
    """sup_u int_0^u |f(u)-f(s)|^delta / (u-s)^{alpha+1} ds."""
    _check_delta(delta)
    inc = abs_increment_row_integrals(f.values, f.grid.h, alpha + 1.0, power=delta)
    return float(np.max(inc))


def delta_and_gap_aggregate(
    x_next: GridFunction, x_prev: GridFunction, alpha: float, delta: float
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """(delta_functional(x_next), fractional_aggregate(x_next - x_prev)):
    the two norm passes of a Picard step, as one row-rule pass over both
    samples.  Bit for bit the two separate calls."""
    _check_delta(delta)
    gap = GridFunction(x_next.grid, x_next.values - x_prev.values)
    inc_next, inc_gap = abs_increment_row_integrals_many(
        [(x_next.values, delta), (gap.values, 1.0)], gap.grid.h, alpha + 1.0
    )
    return float(np.max(inc_next)), (gap.pointwise_norm(), inc_gap)


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
