"""Fractional derivative operators and the driver capacity functional.

Conventions
-----------
The right-sided (Weyl) derivative is computed in its real-valued form,
dropping the complex phase (-1)^{1-alpha}: only the magnitude enters the
capacity functional, and in the integral representation of
``integrals.young_frac`` the phases of the two operators combine into a
single leading minus sign, which that routine applies.  For increasing
drivers the real bracket is therefore negative.

All suprema are discrete sups over grid nodes: lower estimates of the
continuum value, paired where needed with the norm-based upper bound so
the truth is bracketed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .grid import GridFunction, increment_row_integrals, power_cell_weights

__all__ = [
    "FracParams",
    "beta_fn",
    "left_frac_derivative",
    "left_frac_derivative_all",
    "right_weyl_derivative",
    "weyl_bracket_matrix",
    "lambda_alpha",
]


@dataclass(frozen=True)
class FracParams:
    """Order parameter for the fractional operators, 0 < alpha < 1/2."""

    alpha: float
    T: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if self.T <= 0:
            raise ValueError("horizon must be positive")


def beta_fn(p: float, q: float) -> float:
    """Euler Beta via log-gamma, B(p, q) = Gamma(p)Gamma(q)/Gamma(p+q)."""
    if p <= 0 or q <= 0:
        raise ValueError(f"Beta arguments must be positive, got ({p}, {q})")
    return float(np.exp(gammaln(p) + gammaln(q) - gammaln(p + q)))


def _gamma(x: float) -> float:
    return float(np.exp(gammaln(x)))


def left_frac_derivative_all(values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """(D^alpha_{0+} f)(s_i) at every interior node for a scalar sample.

    Entry 0 is NaN: the derivative needs s > 0.  Formula (real
    convention, cf. Zahle, Probab. Theory Relat. Fields 111, 1998):

        (1/Gamma(1-alpha)) * ( f(s)/s^alpha
            + alpha * int_0^s (f(s) - f(y)) / (s - y)^{alpha+1} dy ).

    The increment integral of every node is one FFT convolution
    (grid.increment_row_integrals): O(n log n) for all n nodes, within
    1e-12 of max|f - f(0)| * sum(weights) of the direct row rule
    (grid.row_singular_integrals on the table f(s_i) - f(s_j)).
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0] - 1
    s = h * np.arange(n + 1)
    inc = increment_row_integrals(v, h, alpha + 1.0)
    out = np.full(n + 1, np.nan)
    out[1:] = (v[1:] / s[1:] ** alpha + alpha * inc[1:]) / _gamma(1.0 - alpha)
    return out


def left_frac_derivative(f: GridFunction, params: FracParams, s_index: int) -> np.ndarray:
    """Left fractional derivative of a d-dimensional grid function at a
    single node, componentwise."""
    i = int(s_index)
    if i <= 0:
        raise ValueError("left fractional derivative needs s > 0")
    if i > f.grid.n:
        raise ValueError(f"node index {s_index} outside grid")
    h = f.grid.h
    out = np.empty(f.dim)
    for c in range(f.dim):
        v = f.values[: i + 1, c]
        out[c] = left_frac_derivative_all(v, h, params.alpha)[i]
    return out


def _weyl_tail_integrals(v: np.ndarray, h: float, alpha: float, a: int, signed: bool = True):
    """J(a, i) = int_{t_a}^{t_i} psi(y) (y - t_a)^{alpha-2} dy for all
    i > a, where psi(y) = v[a] - v(y) (signed) or |v(y) - v[a]|.

    The kernel exponent is 2 - alpha in (1.5, 2); psi vanishes at the
    singular endpoint, so the increment-type product rule applies.
    Returns shape (n - a + 1,), entry k = J(a, a + k).
    """
    theta = 2.0 - alpha
    tail = v[a:]
    psi = (v[a] - tail) if signed else np.abs(tail - v[a])
    k = tail.shape[0] - 1  # number of cells ahead of a
    if k == 0:
        return np.zeros(1)
    a_w, b_w = power_cell_weights(k, h, theta)
    contrib = a_w * psi[1:]
    contrib[1:] += b_w[1:k] * psi[1:-1]
    out = np.zeros(k + 1)
    np.cumsum(contrib, out=out[1:])
    return out


def right_weyl_derivative(g_values: np.ndarray, h: float, alpha: float, s_index: int, t_index: int) -> float:
    """(D^{1-alpha}_{t-} g_{t-})(s) in the real convention:

        (1/Gamma(alpha)) * ( (g(s) - g(t)) / (t - s)^{1-alpha}
            + (1-alpha) * int_s^t (g(s) - g(y)) / (y - s)^{2-alpha} dy ).
    """
    a, i = int(s_index), int(t_index)
    if not 0 <= a < i <= g_values.shape[0] - 1:
        raise ValueError(f"need 0 <= s < t inside the grid, got ({s_index}, {t_index})")
    v = np.asarray(g_values, dtype=float)
    tail = _weyl_tail_integrals(v, h, alpha, a, signed=True)
    dt = (i - a) * h
    bracket = (v[a] - v[i]) / dt ** (1.0 - alpha) + (1.0 - alpha) * tail[i - a]
    return bracket / _gamma(alpha)


def weyl_bracket_matrix(g_values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Full pair table V[a, i] = right_weyl_derivative at (s_a, t_i) for
    a < i; other entries NaN.  O(n^2) time and memory; used by the
    fractional integral representation which needs whole columns."""
    v = np.asarray(g_values, dtype=float)
    n = v.shape[0] - 1
    ga = _gamma(alpha)
    out = np.full((n + 1, n + 1), np.nan)
    gaps = np.arange(1, n + 1) * h
    for a in range(n):
        tail = _weyl_tail_integrals(v, h, alpha, a, signed=True)
        d = gaps[: n - a]
        out[a, a + 1 :] = ((v[a] - v[a + 1 :]) / d ** (1.0 - alpha) + (1.0 - alpha) * tail[1:]) / ga
    return out


def lambda_alpha(g_values: np.ndarray, h: float, alpha: float):
    """Discrete capacity functional of a scalar driver:

        Lambda_alpha(g) = sup_{0<s<t<=T} |D^{1-alpha}_{t-} g_{t-}(s)| / Gamma(1-alpha),

    with s ranging over interior nodes.  Returns (value, (s_idx, t_idx)).
    The discrete sup is a lower estimate of the continuum one; callers
    needing an upper bound should use
    ``norms.w_1malpha_norm(g) / (Gamma(1-alpha) * Gamma(alpha))``.
    """
    v = np.asarray(g_values, dtype=float)
    n = v.shape[0] - 1
    if n < 2:
        raise ValueError("need at least 2 cells")
    ga = _gamma(alpha)
    g1a = _gamma(1.0 - alpha)
    best = -1.0
    arg = (1, 2)
    gaps = np.arange(1, n + 1) * h
    for a in range(1, n):
        tail = _weyl_tail_integrals(v, h, alpha, a, signed=True)
        d = gaps[: n - a]
        row = np.abs((v[a] - v[a + 1 :]) / d ** (1.0 - alpha) + (1.0 - alpha) * tail[1:])
        k = int(np.argmax(row))
        if row[k] > best:
            best = float(row[k])
            arg = (a, a + 1 + k)
    return best / (ga * g1a), arg
