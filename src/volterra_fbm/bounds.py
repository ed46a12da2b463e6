"""Closed-form constants of the a priori estimates.

Each displayed constant of the Lebesgue and Stieltjes estimates is
assembled here, in two variants where they differ:

* ``literal``   -- the display exactly as printed in the source
  derivations (kept for diffing);
* ``recomputed`` -- the assembly re-derived from the proof chain.  The
  printed displays drop a factor K in one product, hard-code the
  time-Holder order mu = 1 in another, and slip one exponent base; the
  recomputed forms repair those, and the inequality checks bind to
  them.

All functions are scalar-in, scalar-out.
"""

from __future__ import annotations

import numpy as np

from .fraccalc import _gamma, beta_fn

__all__ = [
    "lebesgue_c1",
    "lebesgue_c2",
    "drift_d1",
    "drift_d2",
    "drift_contraction_d_N",
    "rs_c3",
    "rs_c4",
    "kernel_c_alpha",
    "sup_weight_bound",
    "novaho_k2",
    "increment_k1_literal",
    "k3_constant",
    "k4_constant",
    "k5_constant",
    "k6_constant",
    "k7_constant",
    "k8_constant",
    "k9_constant",
    "stieltjes_d3",
    "stieltjes_d4",
    "stieltjes_dprime_N",
]


# ---------------------------------------------------------------- Lebesgue

def lebesgue_c1(alpha: float, T: float) -> float:
    """C1 of the Volterra-Lebesgue bound: T^alpha + 1/alpha."""
    return T ** alpha + 1.0 / alpha


def lebesgue_c2(alpha: float, L: float, mu: float) -> float:
    """C2 = L / (mu - alpha); requires mu > alpha."""
    if mu <= alpha:
        raise ValueError(f"need mu > alpha, got mu={mu}, alpha={alpha}")
    return L / (mu - alpha)


def drift_d1(alpha: float, T: float, L: float, L0: float, mu: float, B0: float) -> float:
    """Holder-(1-alpha) bound constant of the drift integral."""
    return (1.0 + T ** (1.0 - alpha)) * (B0 + T ** alpha * L0) + L * T ** (mu + alpha)


def drift_d2(alpha: float, T: float, L: float, L0: float, mu: float, B0: float) -> float:
    """Weighted-norm bound constant of the drift integral."""
    c1 = lebesgue_c1(alpha, T)
    c2 = lebesgue_c2(alpha, L, mu) if L > 0 else 0.0
    term_f = c1 * L0 * _gamma(1.0 - alpha)
    term_b = c1 * B0 * (1.0 - alpha) ** (1.0 - alpha) / (1.0 - 2.0 * alpha) ** alpha * np.exp(2.0 * alpha - 1.0)
    term_t = c2 * np.exp(alpha - mu - 1.0) * (1.0 + mu - alpha) ** (1.0 + mu - alpha)
    return float(term_f + term_b + term_t)


def drift_contraction_d_N(alpha: float, T: float, L_N: float) -> float:
    """d_N = L_N (1 + T^{1-alpha}/(1-alpha) + Gamma(1-alpha)/alpha)."""
    return L_N * (1.0 + T ** (1.0 - alpha) / (1.0 - alpha) + _gamma(1.0 - alpha) / alpha)


# ---------------------------------------------------------------- Stieltjes

def rs_c3(alpha: float, mu: float) -> float:
    """C3 = 1 / (mu - alpha); requires mu > alpha."""
    if mu <= alpha:
        raise ValueError(f"need mu > alpha, got mu={mu}, alpha={alpha}")
    return 1.0 / (mu - alpha)


def rs_c4(alpha: float, T: float) -> float:
    """C4 = max(B(2 alpha, 1 - alpha), 1) + T^alpha."""
    return max(beta_fn(2.0 * alpha, 1.0 - alpha), 1.0) + T ** alpha


def kernel_c_alpha(alpha: float) -> float:
    """Declared bound for the exponential-kernel constant:
    C_alpha <= 1/(1-2 alpha) + 4."""
    return 1.0 / (1.0 - 2.0 * alpha) + 4.0


def sup_weight_bound(p: float, lam: float) -> float:
    """sup_t t^p e^{-lam t} <= (p / lam)^p e^{-p} (p > 0)."""
    return (p / lam) ** p * np.exp(-p)


def novaho_k2(alpha: float, beta: float, mu: float, T: float, K: float, sigma00: float) -> float:
    """Norm envelope of sigma along a path:
    K2 = K (T^mu + T^beta + T^{beta-alpha}/(beta-alpha)) + |sigma(0,0,0)|."""
    return K * (T ** mu + T ** beta + T ** (beta - alpha) / (beta - alpha)) + sigma00


def increment_k1_literal(alpha: float, beta: float, T: float, K: float) -> float:
    """The printed increment constant (kept verbatim for diffing)."""
    return (
        5.0
        * K
        * (1.0 / (1.0 + alpha) + 1.0 / (beta - alpha) + 1.0 / ((beta - alpha) * (1.0 + beta - alpha)))
        * (1.0 + alpha * T ** (1.0 + beta))
    )


def k3_constant(alpha: float, beta: float) -> float:
    return (
        1.0 / (1.0 - 2.0 * alpha)
        + 1.0 / (1.0 - alpha)
        + 1.0 / (beta - alpha + 1.0)
        + beta_fn(1.0 + beta - alpha, 1.0 - 2.0 * alpha) / (beta - alpha)
        + 1.0 / ((beta - alpha) * (beta - 2.0 * alpha + 1.0))
        + beta_fn(beta + 1.0, 1.0 - 2.0 * alpha)
    )


def k4_constant(alpha: float, beta: float, mu: float) -> float:
    def pw(p):
        return (p / np.e) ** p

    return float(
        pw(1.0 + mu - 2.0 * alpha)
        + pw(1.0 + mu - alpha)
        + pw(beta - alpha + 1.0)
        + pw(beta - 2.0 * alpha + 1.0)
        + pw(beta - 3.0 * alpha + 1.0)
    )


def k5_constant(alpha: float, beta: float, mu: float, K: float, sigma00: float, recomputed: bool = True) -> float:
    """Envelope of the weighted A1 term.  The literal display drops the
    factor K on K3*K4 and the factor 2 collecting the two lambda powers."""
    base = kernel_c_alpha(alpha) * (sigma00 + K)
    k34 = k3_constant(alpha, beta) * k4_constant(alpha, beta, mu)
    return base + (2.0 * K * k34 if recomputed else k34)


def k6_constant(alpha: float, beta: float, K: float, recomputed: bool = True) -> float:
    """Envelope of the first A2 piece.  The literal exponent base is
    beta - 2 alpha (possibly negative); the proof gives beta - 2 alpha + 2."""
    lead = K * beta_fn(1.0 - alpha, beta - alpha + 2.0) / ((beta - alpha) * (beta - alpha + 1.0))
    p = beta - 2.0 * alpha + 2.0
    base = p if recomputed else beta - 2.0 * alpha
    if base <= 0:
        return float("nan")
    return float(lead * (base / np.e) ** p)


def k7_constant(alpha: float, T: float, K: float) -> float:
    return K * T ** (1.0 - alpha) / (1.0 - alpha)


def k8_constant(alpha: float, beta: float, T: float, K: float, K_N: float) -> float:
    return kernel_c_alpha(alpha) * (K_N + K * T ** (beta - alpha) / (beta - alpha))


def k9_constant(alpha: float, beta: float, T: float, K: float, K_N: float, recomputed: bool = True) -> float:
    """Envelope of the triple-integral B3 term.  The literal first
    summand drops T^{1-alpha}."""
    first = K_N * (T ** (1.0 - alpha) if recomputed else 1.0) / (1.0 - alpha)
    return (
        first
        + K * T ** (1.0 + beta - 2.0 * alpha) / ((beta - alpha) * (1.0 - alpha))
        + K_N * T ** (1.0 - alpha) / (1.0 - alpha)
    )


def _d3_affine(alpha: float, beta: float, mu: float, T: float, K: float, sigma00: float):
    """Affine coefficients (const, per-norm) of the Holder-(1-alpha)
    bound of the Stieltjes term, re-derived from the increment chain."""
    s0 = novaho_k2(alpha, beta, mu, T, K, sigma00)
    env = T ** (1.0 - alpha) / (1.0 - alpha) + alpha * T
    ba = beta - alpha
    a_inc = (
        K * T ** mu / (1.0 - alpha)
        + s0 / (1.0 - alpha)
        + alpha * K * T ** (1.0 + beta) / (ba * (1.0 + ba))
        + alpha * K * T ** beta / (ba * (1.0 + ba))
    )
    b_inc = K / (1.0 - alpha) + alpha * K * T ** (1.0 + alpha) + alpha * K * T ** alpha
    return env * s0 + a_inc, env * K + b_inc


def stieltjes_d3(alpha: float, beta: float, mu: float, T: float, K: float, sigma00: float, recomputed: bool = True) -> float:
    """Constant of the Holder-(1-alpha) bound for the Stieltjes term,
    with rhs shape d3 * (1 + |f|)."""
    if recomputed:
        const, slope = _d3_affine(alpha, beta, mu, T, K, sigma00)
        return max(const, slope)
    s0 = novaho_k2(alpha, beta, mu, T, K, sigma00)
    env = T ** (1.0 - alpha) / (1.0 - alpha) + alpha * T
    k1 = increment_k1_literal(alpha, beta, T, K)
    return max(env * s0 + k1 * (1.0 + s0), env * K + k1 * (K + 1.0))


def stieltjes_d4(alpha: float, beta: float, mu: float, T: float, K: float, sigma00: float, recomputed: bool = True) -> float:
    """Constant of the weighted-norm bound for the Stieltjes term."""
    c3 = rs_c3(alpha, mu)
    c4 = rs_c4(alpha, T)
    k7 = k7_constant(alpha, T, K)
    if recomputed:
        p = 1.0 + mu - 2.0 * alpha
        term_mu = c3 * K * beta_fn(1.0 - alpha, 1.0 + mu - alpha) * (p / np.e) ** p
        return float(
            term_mu
            + c4 * k5_constant(alpha, beta, mu, K, sigma00, recomputed=True)
            + alpha * (k6_constant(alpha, beta, K, recomputed=True) + k7)
        )
    term_mu = c3 * K * beta_fn(1.0 - alpha, 2.0 - alpha) * ((2.0 - 2.0 * alpha) / np.e) ** (2.0 - 2.0 * alpha)
    return float(
        term_mu
        + c4 * k5_constant(alpha, beta, mu, K, sigma00, recomputed=False)
        + alpha * (k6_constant(alpha, beta, K, recomputed=False) + k7)
    )


def stieltjes_dprime_N(
    alpha: float, beta: float, mu: float, T: float, K: float, K_N: float, recomputed: bool = True
) -> float:
    """Lipschitz constant of the Stieltjes map on a sup-norm ball."""
    c3 = rs_c3(alpha, mu)
    c4 = rs_c4(alpha, T)
    ca = kernel_c_alpha(alpha)
    k8 = k8_constant(alpha, beta, T, K, K_N)
    if recomputed:
        return float(
            c3 * K * _gamma(1.0 - alpha) * T ** (1.0 - alpha)
            + c4 * (K * ca + k8)
            + alpha * k9_constant(alpha, beta, T, K, K_N, recomputed=True)
        )
    return float(
        (c4 + 1.0)
        * (c3 * K * K_N * T ** (1.0 - alpha) + K * ca + k8 + k9_constant(alpha, beta, T, K, K_N, recomputed=False))
    )
