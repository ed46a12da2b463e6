"""Fixed-point solver for the Volterra equation

    x(t) = x0 + int_0^t b(t, s, x(s)) ds + int_0^t sigma(t, s, x(s)) dg_s,

realized literally as Picard iteration on the whole grid, with weight
selection making the map a 1/2-contraction in the exponentially
weighted norm, an independent one-pass Euler scheme for cross checks,
and the a priori growth-bound audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .coeffs import CoefficientSet
from .errors import AdmissibilityError, DivergenceError, NoContractionError
from .fbm import DriverPath
from .fraccalc import check_alpha, lambda_alpha_many
from .grid import GridFunction, TimeGrid
from .integrals import coefficient_maps
from .norms import (
    HolderParams,
    check_weight,
    check_young_hurst,
    holder_exponent_estimate,
    norm_row_passes,
    w_alpha_infty_norm,
    w_alpha_infty_norms,
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
    check_young_hurst(H)
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
    lambda_selected is inf where no weight contracts and an override ran.
    """

    x: GridFunction
    iterations: int
    distances: tuple
    lambda_used: float
    lambda_selected: float
    lambda_alpha_g: float
    converged: bool
    theoretical_factor: float
    sup_radius: float
    delta_radius: float

    @property
    def holder_estimate(self) -> float:
        """holder_exponent_estimate of x, computed when read; NaN below n = 64."""
        return holder_exponent_estimate(self.x) if self.x.grid.n >= 64 else float("nan")

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


def _initial_state(cs: CoefficientSet, x0) -> np.ndarray:
    """x0 as a finite float state of shape (d,), else ValueError."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (cs.d,):
        raise ValueError(f"initial state must have dimension {cs.d}, got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"initial state must be finite, got {x0}")
    return x0


def _check_driver(cs: CoefficientSet, g: DriverPath) -> None:
    """ValueError unless the driver g has the coefficient set's dimension m."""
    if g.m != cs.m:
        raise ValueError(f"coefficient set {cs.name!r} has driver dimension m={cs.m}, but the driver has m={g.m}")


def _apply_map(cs: CoefficientSet, x0: np.ndarray, grid: TimeGrid, states: np.ndarray, drivers: np.ndarray):
    """(x0 + F^{(b)}(x)) + G^{(sigma)}(x) for a stack of P paths
    (P, n+1, d) with drivers (P, n+1, m), both maps from one pass over
    the triangle (coefficient_maps), and each path's error, None if it
    has none: a non-finite evaluation (b's before sigma's) or a
    non-finite iterate."""
    b = None if cs.b_is_zero else cs.b
    sigma = None if cs.sigma_is_zero else cs.sigma
    *maps, errors = coefficient_maps(b, sigma, states, drivers, grid)
    vals = np.tile(x0, states.shape[:-1] + (1,))
    for rows in maps:
        if rows is not None:
            vals = vals + rows
    for k, finite in enumerate(np.isfinite(vals).all(axis=(1, 2))):
        if not finite and errors[k] is None:
            errors[k] = DivergenceError("Picard iterate produced a non-finite value")
    return vals, errors


def _sup_norms(states: np.ndarray) -> list[float]:
    """GridFunction.sup_norm of each path of a stack (P, n+1, d)."""
    return [float(v) for v in np.linalg.norm(states, axis=-1).max(axis=-1)]


def total_lambda_alpha(drivers: list[DriverPath], alpha: float) -> list[float]:
    """Capacity of each multi-component driver of one grid: componentwise
    values add in the Stieltjes bounds, so the sum is the conservative
    aggregate.  One lambda_alpha_many pass per component serves every
    driver; the components add in order, so each value is bit for bit
    the sum of its own lambda_alpha calls."""
    h = drivers[0].grid.h
    total = 0.0
    for c in range(drivers[0].m):
        total = total + lambda_alpha_many(np.stack([g.component(c) for g in drivers]), h, alpha)[0]
    return [float(lam) for lam in total]


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

    The drivers' capacities come from one stacked pass per driver
    component (total_lambda_alpha).  The iterates of the paths still
    iterating form one stack (P, n+1, d): one map application and one
    fused norm pass per step serve them all, the pass taking the gaps
    and the iterates as two stacked entries.  Each path keeps its own
    weight (from its own capacity and a priori radii), iteration count,
    distances and radii, and leaves the stack when it converges or
    reaches max_iter.  Its record is bit for bit that of a solve of its
    driver alone, whatever the batch.

    A failing path (EvaluationError, DivergenceError, NoContractionError)
    leaves the stack with its exception; once the others are done, the
    lowest-index failing path's exception is raised.  A lambda_override
    also stands in for a failed weight selection: the path records
    lambda_selected = inf and runs at the override.  An invalid
    lambda_override, like tol, max_iter and a driver whose dimension is
    not the coefficient set's m, is refused on entry.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if lambda_override is not None:
        check_weight(lambda_override)
    _check_admissible(cs, params)
    x0 = _initial_state(cs, x0)
    if not drivers:
        return []
    grid = drivers[0].grid
    if any(g.grid != grid for g in drivers):
        raise ValueError("all drivers of a batch must share one grid")
    if params.T != grid.T:
        raise ValueError(f"params.T = {params.T} differs from the drivers' horizon T = {grid.T}")
    for g in drivers:
        _check_driver(cs, g)
    alpha = params.alpha
    start = np.tile(x0 + initial_offset, (grid.n + 1, 1))
    # a priori radii: running maxima over the iterates, the constant
    # starting iterate included (it has no increments: its functional is 0)
    start_sup = _sup_norms(start[None])[0]
    capacities = total_lambda_alpha(drivers, alpha)
    paths = [_Path(g.values, lam, start, start_sup) for g, lam in zip(drivers, capacities)]

    def step(active):
        """Apply the map to the stacked iterates of the paths active,
        raise their radii and set their gap parts |gap| + increment
        integral per node (one row pass serves the new iterates' delta
        functionals and the gaps, as two stacks).  Returns the paths
        that go on, those without error."""
        prev = np.stack([p.x for p in active])
        cur, errs = _apply_map(cs, x0, grid, prev, np.stack([p.g for p in active]))
        for p, exc in zip(active, errs):
            p.error = exc
        ok = [k for k, exc in enumerate(errs) if exc is None]
        active, prev, cur = [active[k] for k in ok], prev[ok], cur[ok]
        aggs, deltas = norm_row_passes(cur - prev, cur, grid.h, alpha, cs.delta)
        for p, x, sup, delta in zip(active, cur, _sup_norms(cur), deltas):
            p.x = x.copy()  # a path that leaves keeps no view of the stack
            p.sup_radius = max(p.sup_radius, sup)
            p.delta_radius = max(p.delta_radius, delta)
        for p, (sup, inc) in zip(active, aggs):
            p.parts = sup + inc
        return active

    # the pilot application fixes each path's weight from its radii, with margin
    active = step(paths)
    for p in active:
        try:
            p.lam_selected = select_lambda(
                cs, params, p.lam_g, 2.0 * p.sup_radius + 1.0, 2.0 * p.delta_radius + 1.0
            )
        except NoContractionError as exc:
            if lambda_override is None:
                p.error = exc
                continue
            p.lam_selected = float("inf")  # no weight on the ladder contracts
        p.lam = lambda_override if lambda_override is not None else min(p.lam_selected, LAMBDA_CAP)
        p.weight = np.exp(-p.lam * grid.nodes)
    active = [p for p in active if p.error is None]

    for _ in range(max_iter):
        # one gap measurement serves the weighted distance and the
        # unweighted stopping norm, which dominates the weighted one, so
        # the test is strictly stronger than a weighted-gap tolerance
        for p in active:
            p.distances.append(float((p.weight * p.parts).max()))
            p.converged = bool(p.parts.max() < tol)
        active = [p for p in active if not p.converged]
        if not active:
            break
        active = step(active)

    for p in paths:
        if p.error is not None:
            raise p.error
    return [_record(cs, params, grid, p) for p in paths]


@dataclass
class _Path:
    """One driver of a batch solve: its values and capacity, the latest
    iterate, its a priori radii, weights and gap parts, the distances so
    far, and how it ended."""

    g: np.ndarray
    lam_g: float
    x: np.ndarray
    sup_radius: float
    delta_radius: float = 0.0
    lam_selected: float | None = None
    lam: float | None = None
    weight: np.ndarray | None = None
    parts: np.ndarray | None = None
    distances: list = field(default_factory=list)
    converged: bool = False
    error: Exception | None = None


def _record(cs, params, grid, p: _Path) -> SolutionRecord:
    """One path's SolutionRecord, with the a posteriori contraction
    modulus over the realized ball (the re-derived Lipschitz constants
    at the realized radii)."""
    radius = max(p.sup_radius, 1e-12)
    factor = max(
        _contraction_factor(
            _contraction_terms(cs, params.alpha, params.T, radius, literal=literal),
            params.alpha, p.lam, p.lam_g, p.delta_radius,
        )
        for literal in (False, True)
    )
    return SolutionRecord(
        x=GridFunction(grid, p.x),
        iterations=len(p.distances),
        distances=tuple(p.distances),
        lambda_used=float(p.lam),
        lambda_selected=float(p.lam_selected),
        lambda_alpha_g=p.lam_g,
        converged=p.converged,
        theoretical_factor=factor,
        sup_radius=float(p.sup_radius),
        delta_radius=float(p.delta_radius),
    )


def euler_solve(cs: CoefficientSet, x0, g: DriverPath) -> GridFunction:
    """One-pass left-point scheme with the Volterra kernels re-evaluated
    at the running time:

        X(t_i) = x0 + sum_{j<i} b(t_i, t_j, X_j) h
                    + sum_{j<i} sigma(t_i, t_j, X_j) (g_{j+1} - g_j).
    """
    x0 = _initial_state(cs, x0)
    _check_driver(cs, g)
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
    check_alpha(alpha)
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
    coefficient_name: str


@dataclass(frozen=True)
class GrowthBoundReport:
    norm_alpha_infty: float
    bound: float
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
    y = np.array([rep.value for rep in w_alpha_infty_norms([r.x for r in records], params.alpha)])
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
        C5=c5, C6=float(c6), phi=float(phi), coefficient_name=cs.name,
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
    bound = calibration.C5 * float(np.exp(calibration.C6 * sol.lambda_alpha_g ** calibration.phi))
    return GrowthBoundReport(norm_alpha_infty=float(norm), bound=float(bound), satisfied=bool(norm <= bound))
