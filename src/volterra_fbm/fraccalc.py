"""Fractional derivative operators and the driver capacity functional.

Conventions
-----------
The right-sided (Weyl) derivative is computed in its real-valued form,
dropping the complex phase (-1)^{1-alpha}: only the magnitude enters the
capacity functional, and in the integral representation of
``integrals.young_frac`` the phases of the two operators combine into a
single leading minus sign, which that routine applies.  For increasing
drivers the real bracket is therefore negative.

The bracket is written once, in ``_bracket_blocks``, over the node-pair
blocks of ``grid._pair_blocks`` (the row blocks of ``grid._row_blocks``):
``weyl_bracket_matrix`` gives the whole table, one pair being one entry,
and ``lambda_alpha_many`` the sup over a stack of drivers, of which
``lambda_alpha`` is the one-driver case.

All suprema are discrete sups over grid nodes: lower estimates of the
continuum value, paired where needed with the norm-based upper bound so
the truth is bracketed.

The Gamma normalizations come from ``_lgamma``, a port of Cephes ``lgam``
(S. L. Moshier, Cephes Math Library), the routine behind
``scipy.special.gammaln`` for real x: the same coefficients, branches
and Horner order, so every log-Gamma is the same double and the package
imports numpy alone.  ``math.lgamma`` rounds differently.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _gap_powers, _pair_blocks, increment_row_integrals

__all__ = [
    "check_alpha",
    "beta_fn",
    "left_frac_derivative_all",
    "weyl_bracket_matrix",
    "lambda_alpha",
    "lambda_alpha_many",
]


def check_alpha(alpha: float):
    """The fractional operators and norms take orders 0 < alpha < 1/2."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")


# Cephes lgam: rational approximation on [2, 3) (B / C, C monic), the
# Stirling correction series below 1000 (A) and from 1000 on (_LGAM_LARGE),
# leading coefficient first
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LGAM_LARGE = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_OVERFLOW = 2.556348e305


def _horner(x: float, coefs) -> float:
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _lgamma(x: float) -> float:
    """log Gamma(x) for finite x > 0, operation for operation Cephes lgam."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"log-Gamma needs a finite x > 0, got x = {x}")
    if x < 13.0:
        # Gamma(x) = z Gamma(u): shift u = x + p into [2, 3)
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C)
    if x > _LGAM_OVERFLOW:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    return q + _horner(p, _LGAM_LARGE if x >= 1000.0 else _LGAM_A) / x


def beta_fn(p: float, q: float) -> float:
    """Euler Beta via log-gamma, B(p, q) = Gamma(p)Gamma(q)/Gamma(p+q)."""
    if p <= 0 or q <= 0:
        raise ValueError(f"Beta arguments must be positive, got ({p}, {q})")
    return float(np.exp(_lgamma(p) + _lgamma(q) - _lgamma(p + q)))


def _gamma(x: float) -> float:
    return float(np.exp(_lgamma(x)))


def left_frac_derivative_all(values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """(D^alpha_{0+} f)(s_i) at every interior node for scalar samples:
    values (n+1,) for one, or (..., n+1) for a stack of rows, all taken
    by one FFT (the one-row call is the same rule).

    Entry 0 is NaN: the derivative needs s > 0.  Formula (real
    convention, cf. Zahle, Probab. Theory Relat. Fields 111, 1998):

        (1/Gamma(1-alpha)) * ( f(s)/s^alpha
            + alpha * int_0^s (f(s) - f(y)) / (s - y)^{alpha+1} dy ).

    The increment integral of every node is one FFT convolution
    (grid.increment_row_integrals): O(n log n) per row, within 1e-12 of
    max|f - f(0)| * sum(weights) of the direct row rule
    (grid.row_singular_integrals on the table f(s_i) - f(s_j)).  Node i
    depends on f at s_0..s_i only, so a row may run past its last node.
    """
    check_alpha(alpha)
    v = np.asarray(values, dtype=float)
    n = v.shape[-1] - 1
    s = h * np.arange(n + 1)
    inc = increment_row_integrals(v, h, alpha + 1.0)
    out = np.full(v.shape, np.nan)
    out[..., 1:] = (v[..., 1:] / s[1:] ** alpha + alpha * inc[..., 1:]) / _gamma(1.0 - alpha)
    return out


def _bracket_blocks(v: np.ndarray, h: float, alpha: float, lo: int):
    """Blocks (a0, B) of scalar samples stacked as v (P, n+1), rows a >= lo:
    B[p, a - a0, k - 1] = Gamma(alpha) (D^{1-alpha}_{t-} v_{p,t-})(s) at
    s = t_a, t = t_{a+k}, in the real convention (v(s) - v(t)) / (t - s)^{1-alpha}
    + (1-alpha) * int_s^t (v(s) - v(y)) / (y - s)^{2-alpha} dy."""
    check_alpha(alpha)
    n = v.shape[1] - 1
    gap_pow = _gap_powers(n, h, 1.0 - alpha)
    for a0, dv, tail in _pair_blocks(v, h, lo, n, theta=2.0 - alpha):
        # in place: dv / gap_pow + (1 - alpha) * tail, no block-sized temporaries
        dv /= gap_pow[: dv.shape[-1]]
        dv += np.multiply(tail, 1.0 - alpha, out=tail)
        yield a0, dv


def weyl_bracket_matrix(g_values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Full pair table V[a, i] = (D^{1-alpha}_{t-} g_{t-})(s) at s = t_a,
    t = t_i for a < i; other entries NaN.  O(n^2) time; O(n^2) memory for
    the result, plus O(_ROW_CHUNK n) for the row block in flight.  Used by
    the fractional integral representation, which needs whole columns.
    """
    check_alpha(alpha)
    v = np.asarray(g_values, dtype=float)
    n = v.shape[0] - 1
    ga = _gamma(alpha)
    out = np.full((n + 1, n + 1), np.nan)
    flat = out.reshape(-1)
    for a0, bracket in _bracket_blocks(v[None], h, alpha, 0):
        # entry (a, a + k) sits at flat index a (n + 2) + k: rows of stride
        # n + 2 from (a0, a0 + 1).  Row a0 + r's pairs past t_n are NaN and
        # spill into the next row's columns 0..r - 1, below its diagonal
        rows = bracket.shape[1]
        skew = flat[a0 * (n + 2) + 1 : (a0 + rows) * (n + 2) + 1].reshape(rows, n + 2)
        np.divide(bracket[0], ga, out=skew[:, : n - a0])
    return out


def lambda_alpha(g_values: np.ndarray, h: float, alpha: float):
    """Discrete capacity functional of a scalar driver:

        Lambda_alpha(g) = sup_{0<s<t<=T} |D^{1-alpha}_{t-} g_{t-}(s)| / Gamma(1-alpha),

    with s ranging over interior nodes.  Returns (value, (s_idx, t_idx)),
    the argmax being the first maximal pair in (s, t) row-major order.
    The discrete sup is a lower estimate of the continuum one; callers
    needing an upper bound should use
    ``norms.w_1malpha_norm(g) / (Gamma(1-alpha) * Gamma(alpha))``.
    The one-driver case of lambda_alpha_many.
    """
    values, args = lambda_alpha_many(np.asarray(g_values, dtype=float)[None], h, alpha)
    return float(values[0]), (int(args[0, 0]), int(args[0, 1]))


def lambda_alpha_many(g_values: np.ndarray, h: float, alpha: float):
    """lambda_alpha of P scalar drivers on one grid, stacked as g_values
    (P, n+1), in one pass over the node-pair blocks.  Returns the values,
    shape (P,), and the argmax pairs, shape (P, 2); each driver's are bit
    for bit its own lambda_alpha.  The bracket is elementwise or a
    sequential cumsum along the gaps, and each path's block sup is its
    own nanargmax, so the stack moves no bit.  Non-finite driver values
    are refused: nanargmax would skip the pairs they touch.
    """
    v = np.asarray(g_values, dtype=float)
    if v.ndim != 2 or not np.all(np.isfinite(v)):
        raise ValueError(f"need finite driver values stacked as (P, n+1), got shape {v.shape}")
    n = v.shape[1] - 1
    if n < 2:
        raise ValueError("need at least 2 cells")
    paths = np.arange(v.shape[0])
    best = np.full(v.shape[0], -1.0)
    args = np.tile([1, 2], (v.shape[0], 1))
    for a0, bracket in _bracket_blocks(v, h, alpha, 1):
        mag = np.abs(bracket, out=bracket).reshape(v.shape[0], -1)
        flat = np.nanargmax(mag, axis=1)
        top = mag[paths, flat]
        # a later block takes over only where it is strictly larger
        better = top > best
        best[better] = top[better]
        r, k = np.divmod(flat[better], bracket.shape[-1])
        args[better] = np.stack([a0 + r, a0 + r + k + 1], axis=1)
    return best / (_gamma(alpha) * _gamma(1.0 - alpha)), args
