"""Coefficient models with declared hypothesis constants and samplers
that audit the declarations numerically.

Evaluator contract
------------------
Evaluators are numpy-broadcasting callables restricted to the physical
domain s <= t:

    sigma(t, s, x)        -> (..., d, m)
    b(t, s, x)            -> (..., d)
    dsigma_dx(t, s, x)    -> (..., d, m, d)   (last axis: state direction)
    dsigma_dt(t, s, x)    -> (..., d, m)
    d2sigma_dxdt(t, s, x) -> (..., d, m, d)

t and s broadcast against each other and against the leading axes of
the state x of shape (..., d).  All evaluators must be pure.  The drift
and diffusion maps call b and sigma on row blocks of the triangle
s <= t with t of shape (r, 1), s of shape (r, k) and the state
un-broadcast, shape (1, k, d): a factor of x(s) alone is computed once
per column.  A result smaller than the broadcast shape is broadcast.
b and sigma are called on the same t, s and state arrays per block, so
neither may write into its arguments; the maps in turn never write into
an evaluator's result.
A batch of P Picard solves stacks its paths on one more leading state
axis, (P, 1, k, d).  Results are broadcast from the right, the last
axis of b's and the last two of sigma's being the value's, so a result
without the path axis, or of constant shape, serves every path.

Constants are declared metadata, not inferred: the solver's weight
selection needs them a priori.  Every catalog value below is derived
analytically (derivations in the README catalog section) and audited by
``verify_hypotheses`` / ``partials_fd_check``.  Matrix magnitudes are
Frobenius, vector magnitudes Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CatalogError
from .report import EstimateReport, ratio_of

__all__ = [
    "CoefficientSet",
    "builtin_coefficients",
    "catalog_names",
    "verify_hypotheses",
    "partials_fd_check",
]


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluators for sigma and b plus their declared hypothesis
    constants.

    K_N and L_N are radius-dependent local constants (callables of N);
    B_0_alpha is the drift-offset functional
    sup_t ( int_0^t |b0(t,u)|^{1/alpha} du )^alpha as a callable of
    alpha (catalog entries provide it in closed form).  sigma_is_zero
    and b_is_zero read the evaluator: the solvers skip an all-zero
    _constant.
    """

    name: str
    d: int
    m: int
    sigma: Callable
    dsigma_dx: Callable
    dsigma_dt: Callable
    d2sigma_dxdt: Callable
    b: Callable
    K: float
    K_N: Callable[[float], float]
    beta: float
    mu: float
    delta: float
    L: float
    L_0: float
    L_N: Callable[[float], float]
    B_0_alpha: Callable[[float], float]
    gamma: float
    K_0: float

    @property
    def sigma_is_zero(self) -> bool:
        return getattr(self.sigma, "is_zero", False)

    @property
    def b_is_zero(self) -> bool:
        return getattr(self.b, "is_zero", False)

    def sigma_at_origin(self) -> np.ndarray:
        return np.asarray(self.sigma(0.0, 0.0, np.zeros(self.d)), dtype=float)


def _lead_shape(t, s, x) -> tuple:
    """Broadcast shape of (t, s) and the leading axes of the state x."""
    return np.broadcast_shapes(np.shape(t), np.shape(s), np.shape(x)[:-1])


def _constant(value) -> Callable:
    """Evaluator of the constant array value, broadcast over the leading
    axes of (t, s, x); zero arrays make the absent coefficient and the
    vanishing partials, marked is_zero."""
    value = np.asarray(value, dtype=float)

    def evaluate(t, s, x):
        return np.broadcast_to(value, _lead_shape(t, s, x) + value.shape).copy()

    evaluate.is_zero = not value.any()
    return evaluate


def _entry(K: float, L: float, L_0: float, **fields) -> CoefficientSet:
    """A catalog entry: every one has beta = mu = delta = 1 and b0 = 0
    (B_0_alpha = 0), and takes K_N = K and L_N = L_0 at every radius N."""
    return CoefficientSet(K=K, K_N=lambda N: K, beta=1.0, mu=1.0, delta=1.0, L=L, L_0=L_0,
                          L_N=lambda N: L_0, B_0_alpha=lambda alpha: 0.0, **fields)


def _constant_sigma(sigma0=((1.0,),)) -> CoefficientSet:
    """sigma identically a fixed d x m matrix, b identically zero."""
    s0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    d, m = s0.shape
    return _entry(
        name="constant-sigma",
        d=d,
        m=m,
        sigma=_constant(s0),
        dsigma_dx=_constant(np.zeros((d, m, d))),
        dsigma_dt=_constant(np.zeros((d, m))),
        d2sigma_dxdt=_constant(np.zeros((d, m, d))),
        b=_constant(np.zeros(d)),
        K=0.0,
        L=0.0,
        L_0=0.0,
        gamma=0.0,
        K_0=float(np.linalg.norm(s0)),
    )


def _linear_drift(kappa: float = 1.0, d: int = 1) -> CoefficientSet:
    """b(t, s, x) = kappa * x in d dimensions, sigma identically zero, one
    driver component."""

    def b(t, s, x):
        return kappa * np.broadcast_to(x, _lead_shape(t, s, x) + (d,))

    return _entry(
        name="linear-drift",
        d=d,
        m=1,
        sigma=_constant(np.zeros((d, 1))),
        dsigma_dx=_constant(np.zeros((d, 1, d))),
        dsigma_dt=_constant(np.zeros((d, 1))),
        d2sigma_dxdt=_constant(np.zeros((d, 1, d))),
        b=b,
        K=0.0,
        L=0.0,
        L_0=abs(kappa),
        gamma=0.0,
        K_0=1.0,
    )


def _cos_decay(a: float) -> dict:
    """The scalar diffusion a cos(x) e^{-(t-s)} and its three partials,
    as CoefficientSet fields."""

    def e(t, s):
        return np.exp(-(np.asarray(t) - np.asarray(s)))

    return {
        "sigma": lambda t, s, x: (a * np.cos(x[..., 0]) * e(t, s))[..., None, None],
        "dsigma_dx": lambda t, s, x: (-a * np.sin(x[..., 0]) * e(t, s))[..., None, None, None],
        "dsigma_dt": lambda t, s, x: (-a * np.cos(x[..., 0]) * e(t, s))[..., None, None],
        "d2sigma_dxdt": lambda t, s, x: (a * np.sin(x[..., 0]) * e(t, s))[..., None, None, None],
    }


def _smooth_volterra(a: float = 1.0, c: float = 1.0) -> CoefficientSet:
    """sigma = a cos(x) e^{-(t-s)}, b = c sin(x) / (1 + (t-s)); scalar.

    On s <= t the exponential and its t-derivative are bounded by 1, so
    each hypothesis item holds with the constants below (README catalog
    has the line-by-line derivation):
        K = K_N = 2a, beta = mu = delta = 1,
        L = L_0 = L_N = c, b0 = 0, gamma = 0, K_0 = a.
    """

    def b(t, s, x):
        w = 1.0 / (1.0 + np.asarray(t) - np.asarray(s))
        return (c * np.sin(x[..., 0]) * w)[..., None]

    return _entry(
        name="smooth-volterra",
        d=1,
        m=1,
        **_cos_decay(a),
        b=b,
        K=2.0 * a,
        L=c,
        L_0=c,
        gamma=0.0,
        K_0=a,
    )


def _bounded_growth(a: float = 0.5, a2: float = 0.5, gamma: float = 0.5) -> CoefficientSet:
    """sigma = a (1+x^2)^{gamma/2} + a2 cos(x) e^{-(t-s)}, b = 0; scalar.

    The growth part carries no (t, s) dependence, so the time-increment
    items hold globally with constants from the bounded summand alone;
    |d/dx (1+x^2)^{gamma/2}| <= gamma and likewise for the second
    derivative give the state constants:
        K = K_N = a*gamma + 2*a2, beta = mu = delta = 1,
        K_0 = a + a2 with growth order gamma
    (uses (1+x^2)^{gamma/2} <= 1 + |x|^gamma for gamma <= 1).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"growth order must lie in [0, 1], got {gamma}")
    bounded = _cos_decay(a2)

    def sigma(t, s, x):
        grow = a * (1.0 + x[..., 0] ** 2) ** (gamma / 2.0)
        return grow[..., None, None] + bounded["sigma"](t, s, x)

    def dsigma_dx(t, s, x):
        xx = x[..., 0]
        grow = a * gamma * xx * (1.0 + xx ** 2) ** (gamma / 2.0 - 1.0)
        return grow[..., None, None, None] + bounded["dsigma_dx"](t, s, x)

    return _entry(
        name="bounded-growth",
        d=1,
        m=1,
        sigma=sigma,
        dsigma_dx=dsigma_dx,
        dsigma_dt=bounded["dsigma_dt"],
        d2sigma_dxdt=bounded["d2sigma_dxdt"],
        b=_constant(np.zeros(1)),
        K=a * gamma + 2.0 * a2,
        L=0.0,
        L_0=0.0,
        gamma=gamma,
        K_0=a + a2,
    )


_CATALOG = {
    "constant-sigma": _constant_sigma,
    "linear-drift": _linear_drift,
    "smooth-volterra": _smooth_volterra,
    "bounded-growth": _bounded_growth,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def builtin_coefficients(name: str, **params) -> CoefficientSet:
    """Catalog lookup; unknown names raise CatalogError."""
    if name not in _CATALOG:
        raise CatalogError(f"unknown coefficient set {name!r}; catalog: {sorted(_CATALOG)}")
    return _CATALOG[name](**params)


def _frob(a: np.ndarray, ncomp: int) -> np.ndarray:
    """Frobenius magnitude over the trailing ncomp axes."""
    return np.sqrt(np.sum(a ** 2, axis=tuple(range(a.ndim - ncomp, a.ndim))))


def _random_states(rng, k: int, d: int, N: float) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, size=(k, d))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    radii = rng.uniform(0.0, N, size=(k, 1))
    return x / np.maximum(norms, 1e-300) * radii


def _sample_count(sample_count: int) -> int:
    k = int(sample_count)
    if k < 0:
        raise ValueError(f"sample_count must be nonnegative, got {sample_count}")
    return k


def verify_hypotheses(
    cs: CoefficientSet,
    sample_count: int,
    N: float,
    rng_seed: int,
) -> EstimateReport:
    """Audit every declared hypothesis inequality on random tuples drawn
    from the physical domain s <= t in [0, 1], |x|, |y| <= N.

    Violations are report content (ratio > 1), never exceptions.  An
    empty sample certifies nothing, so it fails; a negative count raises
    ValueError.
    """
    rng = np.random.default_rng(rng_seed)
    k = _sample_count(sample_count)
    # time tuples: three U(0,1) draws sorted so every (t, s) use keeps s <= t
    u = np.sort(rng.uniform(0.0, 1.0, size=(k, 3)), axis=1)
    s_lo, t_mid, t_hi = u[:, 0], u[:, 1], u[:, 2]
    x = _random_states(rng, k, cs.d, N)
    y = _random_states(rng, k, cs.d, N)
    x2 = _random_states(rng, k, cs.d, N)
    y2 = _random_states(rng, k, cs.d, N)

    dx = np.linalg.norm(x - y, axis=1)
    ratios: dict[str, float] = {}

    def record(item: str, lhs, rhs):
        ratios[f"ratio_{item}"] = float(np.max(ratio_of(lhs, rhs), initial=0.0))

    # (H1).1 spatial Lipschitz of sigma and dsigma_dt
    lhs = _frob(cs.sigma(t_hi, s_lo, x) - cs.sigma(t_hi, s_lo, y), 2) + _frob(
        cs.dsigma_dt(t_hi, s_lo, x) - cs.dsigma_dt(t_hi, s_lo, y), 2
    )
    record("H1_1", lhs, cs.K * dx)

    # (H1).2 local Holder of dsigma_dx and d2sigma_dxdt, per state direction
    dgx = cs.dsigma_dx(t_hi, s_lo, x) - cs.dsigma_dx(t_hi, s_lo, y)
    dg2 = cs.d2sigma_dxdt(t_hi, s_lo, x) - cs.d2sigma_dxdt(t_hi, s_lo, y)
    lhs = np.max(_frob(dgx, 2), axis=-1) + np.max(_frob(dg2, 2), axis=-1)
    record("H1_2", lhs, cs.K_N(N) * dx ** cs.delta)

    # (H1).3 time Holder of sigma and dsigma_dx
    lhs = _frob(cs.sigma(t_hi, s_lo, x) - cs.sigma(t_mid, s_lo, x), 2) + np.max(
        _frob(cs.dsigma_dx(t_hi, s_lo, x) - cs.dsigma_dx(t_mid, s_lo, x), 2), axis=-1
    )
    record("H1_3", lhs, cs.K * np.abs(t_hi - t_mid) ** cs.mu)

    # (H1).4 second-time Holder of sigma and dsigma_dt
    lhs = _frob(cs.sigma(t_hi, t_mid, x) - cs.sigma(t_hi, s_lo, x), 2) + _frob(
        cs.dsigma_dt(t_hi, t_mid, x) - cs.dsigma_dt(t_hi, s_lo, x), 2
    )
    record("H1_4", lhs, cs.K * np.abs(t_mid - s_lo) ** cs.beta)

    # (H1).5 second-time Holder of d2sigma_dxdt and dsigma_dx
    lhs = np.max(
        _frob(cs.d2sigma_dxdt(t_hi, t_mid, x) - cs.d2sigma_dxdt(t_hi, s_lo, x), 2), axis=-1
    ) + np.max(_frob(cs.dsigma_dx(t_hi, t_mid, x) - cs.dsigma_dx(t_hi, s_lo, x), 2), axis=-1)
    record("H1_5", lhs, cs.K * np.abs(t_mid - s_lo) ** cs.beta)

    # (H2).1 local spatial Lipschitz of b
    lhs = _frob(cs.b(t_hi, s_lo, x) - cs.b(t_hi, s_lo, y), 1)
    record("H2_1", lhs, cs.L_N(N) * dx)

    # (H2).2 time Holder of b
    lhs = _frob(cs.b(t_hi, s_lo, x) - cs.b(t_mid, s_lo, x), 1)
    record("H2_2", lhs, cs.L * np.abs(t_hi - t_mid) ** cs.mu)

    # (H2).3 linear growth of b (catalog entries have b0 = 0)
    lhs = _frob(cs.b(t_hi, s_lo, x), 1)
    record("H2_3", lhs, cs.L_0 * np.linalg.norm(x, axis=1))

    # (H2).4 mixed increment of b
    lhs = _frob(
        cs.b(t_hi, s_lo, x2) - cs.b(t_hi, s_lo, y2) - cs.b(t_mid, s_lo, x2) + cs.b(t_mid, s_lo, y2),
        1,
    )
    record("H2_4", lhs, cs.L_N(N) * np.abs(t_hi - t_mid) * np.linalg.norm(x2 - y2, axis=1))

    # (H3) growth of sigma
    lhs = _frob(cs.sigma(t_hi, s_lo, x), 2)
    record("H3", lhs, cs.K_0 * (1.0 + np.linalg.norm(x, axis=1) ** cs.gamma))

    worst = max(ratios.values())
    constants = {
        "K": cs.K, "K_N": cs.K_N(N), "beta": cs.beta, "mu": cs.mu, "delta": cs.delta,
        "L": cs.L, "L_0": cs.L_0, "L_N": cs.L_N(N), "gamma": cs.gamma, "K_0": cs.K_0,
        "N": N, "T": 1.0,
    }
    constants.update(ratios)
    return EstimateReport(
        name=f"hypotheses:{cs.name}",
        cases=k,
        max_ratio=worst,
        slack_allowed=0.0,
        passed=bool(k > 0 and worst <= 1.0),
        constants_used=constants,
        notes="" if k > 0 else "no cases were checked",
    )


def partials_fd_check(
    cs: CoefficientSet,
    sample_count: int,
    rng_seed: int,
) -> EstimateReport:
    """Central finite differences of sigma against the declared partials
    at random interior points of [0, 1], step 1e-4, tolerance 1e-6
    relative to |sigma| + 1.  An empty sample fails; a negative count
    raises ValueError."""
    step, tol = 1e-4, 1e-6
    rng = np.random.default_rng(rng_seed)
    k = _sample_count(sample_count)
    s = rng.uniform(0.0, 1.0 - 4 * step, size=k)
    t = rng.uniform(s + 2 * step, 1.0 - step)
    x = _random_states(rng, k, cs.d, 2.0)

    errs = []
    scale = _frob(cs.sigma(t, s, x), 2) + 1.0

    # d/dx_l sigma
    fd_x = np.empty((k, cs.d, cs.m, cs.d))
    for l in range(cs.d):
        e = np.zeros(cs.d)
        e[l] = step
        fd_x[..., l] = (cs.sigma(t, s, x + e) - cs.sigma(t, s, x - e)) / (2 * step)
    errs.append(np.max(_frob(fd_x - cs.dsigma_dx(t, s, x), 3) / scale, initial=0.0))

    # d/dt sigma
    fd_t = (cs.sigma(t + step, s, x) - cs.sigma(t - step, s, x)) / (2 * step)
    errs.append(np.max(_frob(fd_t - cs.dsigma_dt(t, s, x), 2) / scale, initial=0.0))

    # d2/dxdt sigma via FD of the declared x-partial
    fd_xt = (cs.dsigma_dx(t + step, s, x) - cs.dsigma_dx(t - step, s, x)) / (2 * step)
    errs.append(np.max(_frob(fd_xt - cs.d2sigma_dxdt(t, s, x), 3) / scale, initial=0.0))

    worst = float(max(errs))
    return EstimateReport(
        name=f"partials-fd:{cs.name}",
        cases=k,
        max_ratio=worst / tol,
        slack_allowed=0.0,
        passed=bool(k > 0 and worst <= tol),
        constants_used={"step": step, "tol": tol, "err_dx": float(errs[0]),
                        "err_dt": float(errs[1]), "err_dxdt": float(errs[2])},
        notes="" if k > 0 else "no cases were checked",
    )
