"""Fixed-point solver for the Volterra equation

    x(t) = x0 + int_0^t b(t, s, x(s)) ds + int_0^t sigma(t, s, x(s)) dg_s,

realized literally as Picard iteration on the whole grid, with weight
selection making the map a 1/2-contraction in the exponentially
weighted norm, an independent one-pass Euler scheme for cross checks,
and the a priori growth-bound audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bounds
from .coeffs import CoefficientSet
from .errors import AdmissibilityError, DivergenceError, NoContractionError
from .fbm import DriverPath
from .fraccalc import lambda_alpha
from .grid import GridFunction, TimeGrid
from .integrals import diffusion_term, drift_term
from .norms import (
    HolderParams,
    check_weight,
    fractional_norm,
    holder_exponent_estimate,
    norm_row_passes,
    w_alpha_infty_norm,
)

__all__ = [
    "AdmissibleWindow",
    "SolutionRecord",
    "GrowthBoundReport",
    "GrowthBoundCalibration",
    "admissible_alpha",
    "select_lambda",
    "picard_solve",
    "picard_solve_batch",
    "euler_solve",
    "phi_exponent",
    "calibrate_growth_bound",
    "growth_bound_check",
]

# strict-inequality surplus for the middle growth-exponent branch
PHI_EPSILON = 0.01

_LAMBDA_LADDER_MAX = 2.0 ** 64

# The proof-chain Lipschitz constants are loose by orders of magnitude,
# so the ladder can demand weights for which exp(-lambda t) defeats
# double precision and flattens the weighted metric to the origin.  The
# solver works at min(selected, cap); the uncapped selection is kept in
# the record.  exp(-64) ~ 1.6e-28 still leaves the metric meaningful.
LAMBDA_CAP = 64.0


@dataclass(frozen=True)
class AdmissibleWindow:
    """Feasible range for the roughness parameter alpha."""

    alpha0: float
    lower: float
    feasible: bool
    constraint_report: dict

    def contains(self, alpha: float) -> bool:
        return self.feasible and self.lower < alpha < self.alpha0


def admissible_alpha(H: float, beta: float, delta: float, mu: float) -> AdmissibleWindow:
    """alpha window ((1-H) v (1-mu), alpha0) with
    alpha0 = min(1/2, beta, delta/(1+delta)), feasible iff
    beta > 1-H, delta > 1/H - 1 and min(beta, delta/(1+delta)) > 1-mu."""
    if not 0.5 < H < 1.0:
        raise ValueError(f"need H in (1/2, 1), got {H}")
    alpha0 = min(0.5, beta, delta / (1.0 + delta))
    lower = max(1.0 - H, 1.0 - mu)
    constraints = {
        "beta > 1-H": beta > 1.0 - H,
        "delta > 1/H - 1": delta > 1.0 / H - 1.0,
        "min(beta, delta/(1+delta)) > 1-mu": min(beta, delta / (1.0 + delta)) > 1.0 - mu,
    }
    feasible = all(constraints.values()) and lower < alpha0
    return AdmissibleWindow(alpha0, lower, feasible, constraints)


def _contraction_terms(cs: CoefficientSet, alpha: float, T: float, N_bound: float, literal: bool):
    """(d_N, D'_N) of the contraction factor on the ball of radius
    N_bound, D'_N None without diffusion; neither depends on lambda."""
    d_n = bounds.drift_contraction_d_N(alpha, T, cs.L_N(N_bound))
    if cs.sigma_is_zero:
        return d_n, None
    return d_n, bounds.stieltjes_dprime_N(
        alpha, cs.beta, cs.mu, T, cs.K, cs.K_N(N_bound), recomputed=not literal
    )


def _contraction_factor(terms, alpha: float, lam: float, lam_alpha_g: float, delta_bound: float) -> float:
    """Combined drift+diffusion Lipschitz factor at weight lam, from the
    _contraction_terms of the ball."""
    d_n, dp = terms
    factor = d_n / lam ** (1.0 - alpha)
    if dp is not None:
        factor += lam_alpha_g * dp * (1.0 + 2.0 * delta_bound) / lam ** (1.0 - 2.0 * alpha)
    return float(factor)


def select_lambda(
    cs: CoefficientSet,
    params: HolderParams,
    lambda_alpha_g: float,
    N_bound: float,
    delta_bound: float,
) -> float:
    """Smallest weight on the geometric ladder 1, 2, 4, ... making the
    combined drift+diffusion Lipschitz factor at most 1/2."""
    terms = _contraction_terms(cs, params.alpha, params.T, N_bound, literal=True)
    lam = 1.0
    while lam <= _LAMBDA_LADDER_MAX:
        if _contraction_factor(terms, params.alpha, lam, lambda_alpha_g, delta_bound) <= 0.5:
            return lam
        lam *= 2.0
    raise NoContractionError(
        "no weight up to 2^64 yields a 1/2-contraction; parameters are outside "
        "the practical regime"
    )


@dataclass(frozen=True)
class SolutionRecord:
    """Solver output: the path plus the full convergence history.

    distances are weighted-norm gaps of consecutive iterates at
    lambda_used; convergence is declared on the unweighted norm, which
    dominates the weighted one, so the weighted gap is below tol too.
    """

    x: GridFunction
    x0: np.ndarray
    iterations: int
    distances: tuple
    lambda_used: float
    lambda_selected: float
    lambda_alpha_g: float
    holder_estimate: float
    converged: bool
    theoretical_factor: float
    sup_radius: float
    delta_radius: float

    def metadata(self) -> dict:
        return {
            "lambda": self.lambda_used,
            "iterations": self.iterations,
            "distances": list(self.distances),
            "lambda_alpha_g": self.lambda_alpha_g,
            "holder_estimate": self.holder_estimate,
            "converged": self.converged,
            "theoretical_factor": self.theoretical_factor,
        }

    def metadata_json(self) -> str:
        return json.dumps(self.metadata(), sort_keys=True)


def _check_admissible(cs: CoefficientSet, params: HolderParams):
    win = admissible_alpha(params.H, cs.beta, cs.delta, cs.mu)
    for name, ok in win.constraint_report.items():
        if not ok:
            raise AdmissibilityError(f"existence condition violated: {name}")
    if not win.contains(params.alpha):
        raise AdmissibilityError(
            f"alpha={params.alpha} outside admissible window "
            f"({win.lower:g}, {win.alpha0:g})"
        )


def _apply_map(cs: CoefficientSet, x0: np.ndarray, grid: TimeGrid, states: np.ndarray, drivers: np.ndarray):
    """x0 + F^{(b)}(x) + G^{(sigma)}(x) for a stack of P paths (P, n+1, d)
    with drivers (P, n+1, m), and each path's error, None if it has none:
    a non-finite evaluation or a non-finite iterate."""
    errors = [None] * len(states)
    vals = np.tile(x0, states.shape[:-1] + (1,))
    if not cs.b_is_zero:
        vals = vals + drift_term(cs.b, states, grid, errors)
    if not cs.sigma_is_zero:
        vals = vals + diffusion_term(cs.sigma, states, drivers, grid, errors)
    for k, finite in enumerate(np.isfinite(vals).all(axis=(1, 2))):
        if not finite and errors[k] is None:
            errors[k] = DivergenceError("Picard iterate produced a non-finite value")
    return vals, errors


def _sup_norms(states: np.ndarray) -> list[float]:
    """GridFunction.sup_norm of each path of a stack (P, n+1, d)."""
    return [float(v) for v in np.linalg.norm(states, axis=-1).max(axis=-1)]


def total_lambda_alpha(g: DriverPath, alpha: float) -> float:
    """Capacity of a multi-component driver: componentwise values add in
    the Stieltjes bounds, so the sum is the conservative aggregate."""
    return float(sum(lambda_alpha(g.component(c), g.grid.h, alpha)[0] for c in range(g.m)))


def picard_solve(
    cs: CoefficientSet,
    x0,
    g: DriverPath,
    params: HolderParams,
    tol: float = 1e-8,
    max_iter: int = 60,
    lambda_override: float | None = None,
    initial_offset: float = 0.0,
) -> SolutionRecord:
    """Iterate x^{k+1} = x0 + F^{(b)}(x^k) + G^{(sigma)}(x^k) from the
    constant initial iterate until the unweighted fractional norm of the
    consecutive gap drops below tol (which forces the weighted gap below
    tol as well, the weight being at most one).

    initial_offset shifts the starting iterate (uniqueness experiments).
    The one-path case of picard_solve_batch.
    """
    return picard_solve_batch(cs, x0, [g], params, tol, max_iter, lambda_override, initial_offset)[0]


def picard_solve_batch(
    cs: CoefficientSet,
    x0,
    drivers: list[DriverPath],
    params: HolderParams,
    tol: float = 1e-8,
    max_iter: int = 60,
    lambda_override: float | None = None,
    initial_offset: float = 0.0,
) -> list[SolutionRecord]:
    """picard_solve on each of several drivers on one grid, one record
    per driver.

    The iterates of the paths still iterating form one stack (P, n+1, d):
    one map application and one fused norm pass per step serve them all.
    Each path keeps its own weight (from its own capacity and a priori
    radii), iteration count, distances and radii, and leaves the stack
    when it converges or reaches max_iter.  Its record is bit for bit
    that of a solve of its driver alone, whatever the batch.

    A failing path (EvaluationError, DivergenceError, NoContractionError,
    an invalid lambda_override) leaves the stack with its exception; once
    the others are done, the lowest-index failing path's exception is
    raised.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _check_admissible(cs, params)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (cs.d,):
        raise ValueError(f"initial state must have dimension {cs.d}, got {x0.shape}")
    if not drivers:
        return []
    grid = drivers[0].grid
    if any(g.grid != grid for g in drivers):
        raise ValueError("all drivers of a batch must share one grid")
    alpha = params.alpha
    n_paths = len(drivers)
    errors = [None] * n_paths
    lam_g = [total_lambda_alpha(g, alpha) for g in drivers]
    g_all = np.stack([g.values for g in drivers])

    # the paths still iterating (act) and their stacked iterates
    act = list(range(n_paths))
    prev = np.tile(x0 + initial_offset, (n_paths, grid.n + 1, 1))
    cur, errs = _apply_map(cs, x0, grid, prev, g_all)
    # a priori radii from the pilot application, with margin
    sup_radius = [max(a, b) for a, b in zip(_sup_norms(prev), _sup_norms(cur))]
    act, keep = _leave_on_error(act, errs, errors)
    prev, cur = prev[keep], cur[keep]
    # one row pass after each map application: the new iterates' delta
    # functionals and the aggregates of their gaps to the previous ones
    aggs, deltas = norm_row_passes(cur - prev, cur, grid.h, alpha, cs.delta)
    agg, lam, lam_selected, delta_radius = {}, {}, {}, {}
    errs = [None] * len(act)
    for k, p in enumerate(act):
        agg[p] = aggs[k]
        # the constant starting iterate has no increments: its functional is 0
        delta_radius[p] = max(0.0, deltas[k])
        try:
            lam_selected[p] = select_lambda(cs, params, lam_g[p], 2.0 * sup_radius[p] + 1.0, 2.0 * deltas[k] + 1.0)
            lam[p] = lambda_override if lambda_override is not None else min(lam_selected[p], LAMBDA_CAP)
            check_weight(lam[p])
        except (NoContractionError, ValueError) as exc:
            errs[k] = exc
    act, keep = _leave_on_error(act, errs, errors)
    cur = cur[keep]

    distances = {p: [] for p in act}
    converged = dict.fromkeys(act, False)
    last = {}
    for it in range(max_iter):
        for k, p in enumerate(act):
            # one gap aggregate serves the weighted distance and the
            # unweighted stopping norm
            distances[p].append(fractional_norm(grid.nodes, agg[p], lam[p]).value)
            # stop on the unweighted norm: it dominates the weighted one,
            # so this is strictly stronger than a weighted-gap tolerance
            if fractional_norm(grid.nodes, agg[p], 0.0).value < tol:
                converged[p] = True
                last[p] = cur[k].copy()
        keep = [k for k, p in enumerate(act) if not converged[p]]
        act = [act[k] for k in keep]
        if not act:
            break
        prev = cur[keep]
        cur, errs = _apply_map(cs, x0, grid, prev, g_all[act])
        act, keep = _leave_on_error(act, errs, errors)
        prev, cur = prev[keep], cur[keep]
        for p, sup in zip(act, _sup_norms(cur)):
            sup_radius[p] = max(sup_radius[p], sup)
        # the last iterate's gap is never measured
        gaps = cur - prev if it + 1 < max_iter else ()
        aggs, deltas = norm_row_passes(gaps, cur, grid.h, alpha, cs.delta)
        for k, p in enumerate(act):
            delta_radius[p] = max(delta_radius[p], deltas[k])
            if aggs:
                agg[p] = aggs[k]
    for k, p in enumerate(act):
        last[p] = cur[k].copy()

    for exc in errors:
        if exc is not None:
            raise exc
    return [
        _record(cs, params, grid, x0, last[p], distances[p], lam[p], lam_selected[p], lam_g[p],
                converged[p], sup_radius[p], delta_radius[p])
        for p in range(n_paths)
    ]


def _leave_on_error(act: list[int], errs: list, errors: list):
    """Move the exceptions errs[k] of the stacked paths act[k] to
    errors[path]; returns the paths that go on and their stack rows."""
    keep = []
    for k, (p, exc) in enumerate(zip(act, errs)):
        if exc is None:
            keep.append(k)
        else:
            errors[p] = exc
    return [act[k] for k in keep], keep


def _record(cs, params, grid, x0, x, distances, lam, lam_selected, lam_g, converged, sup_radius, delta_radius):
    """One path's SolutionRecord, with the a posteriori contraction
    modulus over the realized ball (the re-derived Lipschitz constants
    at the realized radii)."""
    radius = max(sup_radius, 1e-12)
    factor = max(
        _contraction_factor(
            _contraction_terms(cs, params.alpha, params.T, radius, literal=literal),
            params.alpha, lam, lam_g, delta_radius,
        )
        for literal in (False, True)
    )
    x = GridFunction(grid, x)
    return SolutionRecord(
        x=x,
        x0=x0,
        iterations=len(distances),
        distances=tuple(distances),
        lambda_used=float(lam),
        lambda_selected=float(lam_selected),
        lambda_alpha_g=lam_g,
        holder_estimate=holder_exponent_estimate(x) if grid.n >= 64 else float("nan"),
        converged=converged,
        theoretical_factor=factor,
        sup_radius=float(sup_radius),
        delta_radius=float(delta_radius),
    )


def euler_solve(cs: CoefficientSet, x0, g: DriverPath) -> GridFunction:
    """One-pass left-point scheme with the Volterra kernels re-evaluated
    at the running time:

        X(t_i) = x0 + sum_{j<i} b(t_i, t_j, X_j) h
                    + sum_{j<i} sigma(t_i, t_j, X_j) (g_{j+1} - g_j).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    grid = g.grid
    n, h = grid.n, grid.h
    nodes = grid.nodes
    dg = np.diff(g.values, axis=0)
    X = np.zeros((n + 1, cs.d))
    X[0] = x0
    for i in range(1, n + 1):
        t = nodes[i]
        past = nodes[:i]
        states = X[:i]
        acc = x0.copy()
        if not cs.b_is_zero:
            acc = acc + h * np.asarray(cs.b(t, past, states)).sum(axis=0)
        if not cs.sigma_is_zero:
            sig = np.asarray(cs.sigma(t, past, states))
            acc = acc + np.einsum("jdm,jm->d", sig, dg[:i])
        if not np.all(np.isfinite(acc)):
            raise DivergenceError(f"Euler state diverged at t={t:g}")
        X[i] = acc
    return GridFunction(grid, X)


def phi_exponent(alpha: float, gamma: float) -> float:
    """Growth exponent of the a priori bound, piecewise in the diffusion
    growth order:

        1/(1-alpha)                      if gamma < (1-2 alpha)/(1-alpha),
        (1+eps)/(1-2 alpha), eps = 0.01  if gamma in [(1-2a)/(1-a), 1),
        1/(1-2 alpha)                    if gamma = 1.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"growth order must lie in [0, 1], got {gamma}")
    threshold = (1.0 - 2.0 * alpha) / (1.0 - alpha)
    if gamma < threshold:
        return 1.0 / (1.0 - alpha)
    if gamma < 1.0:
        return (1.0 + PHI_EPSILON) / (1.0 - 2.0 * alpha)
    return 1.0 / (1.0 - 2.0 * alpha)


@dataclass(frozen=True)
class GrowthBoundCalibration:
    """Frozen constants of the a priori bound, fitted once on a pilot
    ensemble and then held fixed for every fresh path."""

    C5: float
    C6: float
    phi: float
    pilot_paths: int
    coefficient_name: str


@dataclass(frozen=True)
class GrowthBoundReport:
    norm_alpha_infty: float
    lambda_alpha_g: float
    phi: float
    bound: float
    C5: float
    C6: float
    satisfied: bool


def calibrate_growth_bound(
    records: list[SolutionRecord],
    cs: CoefficientSet,
    params: HolderParams,
) -> GrowthBoundCalibration:
    """Fit C5, C6 of  |x|_{alpha,infty} <= C5 exp(C6 Lambda^phi)  on a
    pilot ensemble: least-squares slope in (Lambda^phi, log norm) space,
    inflated, with the intercept lifted over every pilot point by a
    dispersion margin."""
    if cs.gamma is None:
        raise ValueError("growth-bound calibration needs the (H3) constants")
    phi = phi_exponent(params.alpha, cs.gamma)
    z = np.array([r.lambda_alpha_g ** phi for r in records])
    y = np.array([w_alpha_infty_norm(r.x, params.alpha).value for r in records])
    logy = np.log(np.maximum(y, 1e-300))
    if np.ptp(z) < 1e-12 or np.ptp(logy) < 1e-12:
        slope = 0.0
    else:
        slope = float(np.polyfit(z, logy, 1)[0])
    c6 = max(slope, 0.0) * 1.25 + 0.05
    resid = logy - c6 * z
    margin = max(1.0, 3.0 * float(np.std(resid)))
    c5 = float(np.exp(np.max(resid) + margin))
    return GrowthBoundCalibration(
        C5=c5, C6=float(c6), phi=float(phi), pilot_paths=len(records),
        coefficient_name=cs.name,
    )


def growth_bound_check(
    sol: SolutionRecord,
    cs: CoefficientSet,
    params: HolderParams,
    calibration: GrowthBoundCalibration,
) -> GrowthBoundReport:
    """Evaluate the frozen bound on a fresh solution."""
    if calibration.coefficient_name != cs.name:
        raise ValueError("calibration was fitted for a different coefficient set")
    if not sol.converged:
        raise ValueError("growth bound is only meaningful for converged solutions")
    norm = w_alpha_infty_norm(sol.x, params.alpha).value
    lam_g = sol.lambda_alpha_g
    bound = calibration.C5 * float(np.exp(calibration.C6 * lam_g ** calibration.phi))
    return GrowthBoundReport(
        norm_alpha_infty=float(norm),
        lambda_alpha_g=float(lam_g),
        phi=calibration.phi,
        bound=float(bound),
        C5=calibration.C5,
        C6=calibration.C6,
        satisfied=bool(norm <= bound),
    )
