"""Numerical certification of the a priori estimates.

Every displayed inequality of the Lebesgue and Stieltjes estimate
sections, the four-point increment lemmas, and the auxiliary kernel and
Beta-function bounds gets exactly one randomized check that instantiates
the constant expressions from :mod:`.bounds` and reports the worst
lhs/rhs ratio.  Estimate-level checks carry discretization slack
max(5%, c/sqrt(n)); lemma checks are pure pointwise algebra and carry
none.  Where the printed intermediate constants are looser or tighter
than the proof chain supports, the checks bind to the recomputed
variants and the literal values are recorded alongside (flagged in
notes when they would have failed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .coeffs import CoefficientSet, builtin_coefficients, verify_hypotheses
from .errors import VolterraError
from .fbm import DriverPath, _davies_harte_increments
from .fraccalc import _gamma, beta_fn
from .grid import (
    BivariateKernelValues,
    GridFunction,
    TimeGrid,
    abs_increment_row_integrals,
    abs_increment_row_integrals_many,
    build_grid,
    left_singular_integral,
    prefix_singular_integrals,
    row_singular_integrals,
    singular_weighted_integral,
)
from .integrals import diffusion_term, drift_term, lebesgue_volterra, young_rs
from .norms import fractional_norm, holder_norm, norm_row_passes, w_1malpha_norm
from .report import EstimateReport, make_report

__all__ = [
    "SuiteConfig",
    "check_lebesgue_estimates",
    "check_rs_estimates",
    "check_sigma_lemmas",
    "check_aux_inequalities",
    "run_suite",
]

_LAMBDA_LADDER = (1.0, 2.0, 4.0, 8.0, 16.0)
_HURST_GRID = (0.6, 0.75, 0.9)


def _prop_slack(n: int, c: float = 0.4) -> float:
    """Discretization slack for estimate checks: max(5%, c n^{-1/2});
    c = 0.4 keeps the floor binding from n = 64 up."""
    return max(0.05, c / np.sqrt(n))


def _case_rng(seed: int, case: int) -> np.random.Generator:
    return np.random.default_rng((seed, case))


def _fbm_values(rng: np.random.Generator, n: int, T: float, H: float) -> np.ndarray:
    inc = _davies_harte_increments(n, H, [rng])[0] * (T / n) ** H
    return np.concatenate([[0.0], np.cumsum(inc)])


def _rough_path(rng: np.random.Generator, grid: TimeGrid) -> np.ndarray:
    """Smooth trend plus scaled fBm roughness (exercises both norm
    components)."""
    t = grid.nodes
    a0, a1, a2 = rng.uniform(-1.0, 1.0, 3)
    om = rng.uniform(0.5, 3.0)
    h_rough = rng.choice(_HURST_GRID)
    z = _fbm_values(rng, grid.n, grid.T, h_rough)
    return a0 + a1 * np.cos(om * t) + 0.3 * a2 * z


# ------------------------------------------------------------- Lebesgue


def _lebesgue_kernel_case(rng, grid: TimeGrid):
    """Bivariate kernel smooth in t, rough in s, with a declared global
    time-Lipschitz constant."""
    t = grid.nodes[:, None]
    s = grid.nodes[None, :]
    a0 = rng.uniform(0.3, 1.5)
    om1, om2 = rng.uniform(0.5, 3.0, 2)
    phase = rng.uniform(0.0, 2 * np.pi)
    a1 = rng.uniform(0.2, 1.0)
    z = _fbm_values(rng, grid.n, grid.T, rng.choice(_HURST_GRID))
    vals = a0 * np.cos(om1 * t + om2 * s + phase) + a1 * z[None, :]
    L = a0 * om1  # |d/dt| of the trend, the rough part is t-free
    return vals, L


def check_lebesgue_estimates(
    cases: int,
    rng_seed: int,
    n: int = 64,
    constant_scale: dict | None = None,
) -> list[EstimateReport]:
    """Volterra-Lebesgue bound plus the three drift-map estimates."""
    scale = constant_scale or {}
    slack = _prop_slack(n)
    lhs_f1, rhs_f1 = [], []
    lhs_n1, rhs_n1 = [], []
    lhs_n2, rhs_n2 = [], []
    lhs_ct, rhs_ct = [], []
    consts: dict = {}
    for case in range(cases):
        rng = _case_rng(rng_seed, case)
        T = float(rng.choice((0.5, 1.0, 2.0)))
        alpha = float(rng.uniform(0.08, 0.42))
        mu = 1.0
        grid = build_grid(T, n)
        h = grid.h

        # --- Volterra-Lebesgue bound per node
        vals, L = _lebesgue_kernel_case(rng, grid)
        kernel = BivariateKernelValues(grid, vals)
        F = lebesgue_volterra(kernel).values.values[:, 0]
        lhs = np.abs(F) + abs_increment_row_integrals(F, h, alpha + 1.0)
        c1 = bounds.lebesgue_c1(alpha, T) * scale.get("C1", 1.0)
        c2 = bounds.lebesgue_c2(alpha, L, mu) * scale.get("C2", 1.0)
        inner = row_singular_integrals(np.abs(kernel.values), h, alpha)
        rhs = c1 * inner + c2 * grid.nodes ** (1.0 + mu - alpha)
        sel = np.arange(1, n + 1, 7)
        lhs_f1.extend(lhs[sel])
        rhs_f1.extend(rhs[sel])
        consts.setdefault("C1", c1)
        consts.setdefault("C2", c2)

        # --- drift-map estimates on a catalog b
        name = "linear-drift" if case % 2 == 0 else "smooth-volterra"
        if name == "linear-drift":
            cs = builtin_coefficients(name, kappa=float(rng.uniform(0.5, 2.0)))
        else:
            cs = builtin_coefficients(name, c=float(rng.uniform(0.5, 2.0)))
        f = GridFunction(grid, _rough_path(rng, grid))
        hh = GridFunction(grid, _rough_path(rng, grid))
        Ff = drift_term(cs.b, f).values
        Fh = drift_term(cs.b, hh).values
        b0a = cs.B_0_alpha(alpha)
        lam = _LAMBDA_LADDER[case % len(_LAMBDA_LADDER)]

        d1 = bounds.drift_d1(alpha, T, cs.L, cs.L_0, cs.mu, b0a) * scale.get("d1", 1.0)
        lhs_n1.append(holder_norm(Ff, 1.0 - alpha))
        rhs_n1.append(d1 * (1.0 + f.sup_norm()))

        (agg_ff, agg_f, agg_gap, agg_diff), _ = norm_row_passes(
            (Ff.values, f.values, Ff.values - Fh.values, f.values - hh.values), (), h, alpha, 1.0
        )
        d2 = bounds.drift_d2(alpha, T, cs.L, cs.L_0, cs.mu, b0a) * scale.get("d2", 1.0)
        lhs_n2.append(fractional_norm(grid.nodes, agg_ff, lam).value)
        rhs_n2.append(
            d2 / lam ** (1.0 - 2.0 * alpha) * (1.0 + fractional_norm(grid.nodes, agg_f, lam).value)
        )

        radius = max(f.sup_norm(), hh.sup_norm())
        d_n = bounds.drift_contraction_d_N(alpha, T, cs.L_N(radius)) * scale.get("d_N", 1.0)
        lhs_ct.append(fractional_norm(grid.nodes, agg_gap, lam).value)
        rhs_ct.append(
            d_n
            / lam ** (1.0 - alpha)
            * fractional_norm(grid.nodes, agg_diff, lam).value
        )
        consts.setdefault("d1", d1)
        consts.setdefault("d2", d2)
        consts.setdefault("d_N", d_n)

    return [
        make_report("lebesgue-volterra-bound", lhs_f1, rhs_f1, slack, consts, notes=f"n={n}"),
        make_report("drift-holder-bound", lhs_n1, rhs_n1, slack, consts),
        make_report("drift-weighted-bound", lhs_n2, rhs_n2, slack, consts),
        make_report("drift-contraction", lhs_ct, rhs_ct, slack, consts),
    ]


# ------------------------------------------------------------ Stieltjes


def _driver_case(rng, grid: TimeGrid, case: int):
    kind = case % 4
    if kind == 0:
        slope = float(rng.uniform(0.5, 2.0))
        return slope * grid.nodes, None
    H = _HURST_GRID[kind - 1]
    return _fbm_values(rng, grid.n, grid.T, H), H


def _stieltjes_kernel_case(rng, grid: TimeGrid):
    """Kernel with node-dependent time-Lipschitz profile K(u)."""
    t = grid.nodes[:, None]
    s = grid.nodes[None, :]
    a0 = rng.uniform(0.3, 1.2)
    om1, om2 = rng.uniform(0.5, 2.5, 2)
    a1 = rng.uniform(0.2, 0.8)
    q = 1.0 + 0.5 * np.sin(om2 * grid.nodes)
    z = _fbm_values(rng, grid.n, grid.T, rng.choice(_HURST_GRID))
    vals = a0 * np.cos(om1 * t) * q[None, :] + a1 * z[None, :]
    K_profile = a0 * om1 * np.abs(q)
    return vals, K_profile


def _w_path(row: np.ndarray, vals: np.ndarray, i_t: int, h: float, alpha: float) -> np.ndarray:
    """w[j] = int_0^{t_j} int_0^u |phi_j(u) - phi_j(y)| / (u-y)^{alpha+1} dy du
    for phi_j = row - vals[j] on the first j+1 nodes, j = 1..i_t - 1;
    w[0] = w[i_t] = 0.  One row-rule pass serves every j, each prefix at
    its own length."""
    w = np.zeros(i_t + 1)
    samples = [(row[: j + 1] - vals[j, : j + 1], 1.0) for j in range(1, i_t)]
    for j, inner in enumerate(abs_increment_row_integrals_many(samples, h, alpha + 1.0), start=1):
        w[j] = np.trapezoid(inner, dx=h)
    return w


def check_rs_estimates(
    cases: int,
    rng_seed: int,
    n: int = 64,
    constant_scale: dict | None = None,
) -> list[EstimateReport]:
    """Stieltjes increment/weighted bounds and the three sigma-map
    estimates, with the driver capacity taken at its norm-based upper
    bracket (the discrete sup underestimates)."""
    scale = constant_scale or {}
    slack = _prop_slack(n)
    L1, R1, L2, R2 = [], [], [], []
    L3, R3, L4, R4, L5, R5 = [], [], [], [], [], []
    consts: dict = {}
    lit_flags = 0
    for case in range(cases):
        rng = _case_rng(rng_seed, case)
        T = float(rng.choice((0.5, 1.0, 2.0)))
        alpha = float(rng.uniform(0.08, 0.42))
        mu = 1.0
        grid = build_grid(T, n)
        h = grid.h
        g_vals, _ = _driver_case(rng, grid, case)
        g = DriverPath(grid, g_vals, hurst=None)
        lam_up = w_1malpha_norm(g_vals, h, alpha) / (_gamma(1.0 - alpha) * _gamma(alpha))

        # ---- pathwise increment bound at sampled node pairs
        vals, K_prof = _stieltjes_kernel_case(rng, grid)
        kernel = BivariateKernelValues(grid, vals)
        G = young_rs(kernel, g).values.values[:, 0]
        k_over_u = prefix_singular_integrals(K_prof, h, alpha)
        c3 = bounds.rs_c3(alpha, mu) * scale.get("C3", 1.0)
        c4 = bounds.rs_c4(alpha, T) * scale.get("C4", 1.0)
        for _ in range(3):
            i_s = int(rng.integers(1, n - 1))
            i_t = int(rng.integers(i_s + 1, n + 1))
            tt, ss = grid.nodes[i_t], grid.nodes[i_s]
            lhs = abs(G[i_t] - G[i_s])
            term1 = (tt - ss) ** mu * k_over_u[i_s]
            term2 = left_singular_integral(np.abs(vals[i_t, i_s : i_t + 1]), h, alpha)
            # double increment masses of vals[i_t] - vals[i_s] up to s and
            # of vals[i_t] on [s, t]
            inner3, inner4 = abs_increment_row_integrals_many(
                [((vals[i_t] - vals[i_s])[: i_s + 1], 1.0), (vals[i_t, i_s : i_t + 1], 1.0)],
                h, alpha + 1.0,
            )
            term3 = float(np.trapezoid(inner3, dx=h))
            term4 = float(np.trapezoid(inner4, dx=h))
            L1.append(lhs)
            R1.append(lam_up * (term1 + term2 + alpha * (term3 + term4)))

        # ---- weighted aggregate bound at sampled nodes
        g_inc = abs_increment_row_integrals(G, h, alpha + 1.0)
        t_samples = {n, int(rng.integers(2, n)), int(rng.integers(2, n))}
        for i_t in t_samples:
            tt = grid.nodes[i_t]
            lhs = abs(G[i_t]) + g_inc[i_t]
            row = vals[i_t, : i_t + 1]
            phi1 = K_prof[: i_t + 1] * (tt - grid.nodes[: i_t + 1]) ** (mu - alpha)
            p1 = left_singular_integral(phi1, h, alpha)
            gf = np.abs(row) + abs_increment_row_integrals(row, h, alpha + 1.0)
            p2_right = singular_weighted_integral(
                GridFunction(_subgrid(tt, i_t), gf), 2.0 * alpha, i_t
            )[0]
            p2_left = left_singular_integral(gf, h, alpha)
            triple = singular_weighted_integral(
                GridFunction(_subgrid(tt, i_t), _w_path(row, vals, i_t, h, alpha)), alpha + 1.0, i_t
            )[0]
            L2.append(lhs)
            R2.append(lam_up * (c3 * p1 + c4 * (p2_right + p2_left) + alpha * triple))
        consts.setdefault("C3", c3)
        consts.setdefault("C4", c4)

        # ---- sigma-map estimates (Holder, weighted, contraction)
        names = ("smooth-volterra", "bounded-growth", "constant-sigma")
        cs = builtin_coefficients(names[case % 3])
        f = GridFunction(grid, _rough_path(rng, grid))
        hh = GridFunction(grid, _rough_path(rng, grid))
        Gf = diffusion_term(cs.sigma, f, g).values
        Gh = diffusion_term(cs.sigma, hh, g).values
        s00 = float(np.linalg.norm(cs.sigma_at_origin()))
        lam = _LAMBDA_LADDER[case % len(_LAMBDA_LADDER)]
        radius = max(f.sup_norm(), hh.sup_norm())

        # every row pass of the three estimates in one kernel call
        (agg_f, agg_gf, agg_gap, agg_diff), (df, dh) = norm_row_passes(
            (f.values, Gf.values, Gf.values - Gh.values, f.values - hh.values),
            (f.values, hh.values), h, alpha, cs.delta,
        )

        d3 = bounds.stieltjes_d3(alpha, cs.beta, cs.mu, T, cs.K, s00, recomputed=True)
        d3 *= scale.get("d3", 1.0)
        d3_lit = bounds.stieltjes_d3(alpha, cs.beta, cs.mu, T, cs.K, s00, recomputed=False)
        na_f = fractional_norm(grid.nodes, agg_f, 0.0).value
        lhs3 = holder_norm(Gf, 1.0 - alpha)
        L3.append(lhs3)
        R3.append(lam_up * d3 * (1.0 + na_f))
        if lhs3 > lam_up * d3_lit * (1.0 + na_f) * (1.0 + slack):
            lit_flags += 1

        d4 = bounds.stieltjes_d4(alpha, cs.beta, cs.mu, T, cs.K, s00, recomputed=True)
        d4 *= scale.get("d4", 1.0)
        L4.append(fractional_norm(grid.nodes, agg_gf, lam).value)
        R4.append(
            lam_up * d4 / lam ** (1.0 - 2.0 * alpha)
            * (1.0 + fractional_norm(grid.nodes, agg_f, lam).value)
        )

        dpn = bounds.stieltjes_dprime_N(
            alpha, cs.beta, cs.mu, T, cs.K, cs.K_N(radius), recomputed=True
        ) * scale.get("dprime_N", 1.0)
        L5.append(fractional_norm(grid.nodes, agg_gap, lam).value)
        R5.append(
            lam_up * dpn * (1.0 + df + dh) / lam ** (1.0 - 2.0 * alpha)
            * fractional_norm(grid.nodes, agg_diff, lam).value
        )
        consts.setdefault("d3_recomputed", d3)
        consts.setdefault("d3_literal", d3_lit)
        consts.setdefault("d4_recomputed", d4)
        consts.setdefault(
            "d4_literal", bounds.stieltjes_d4(alpha, cs.beta, cs.mu, T, cs.K, s00, recomputed=False)
        )
        consts.setdefault("dprime_N_recomputed", dpn)
        consts.setdefault(
            "dprime_N_literal",
            bounds.stieltjes_dprime_N(alpha, cs.beta, cs.mu, T, cs.K, cs.K_N(radius), recomputed=False),
        )

    notes = f"n={n}"
    if lit_flags:
        notes += f"; literal d3 display violated in {lit_flags} cases (flagged, not failed)"
    return [
        make_report("stieltjes-increment-bound", L1, R1, slack, consts, notes=notes),
        make_report("stieltjes-weighted-aggregate", L2, R2, slack, consts),
        make_report("sigma-map-holder-bound", L3, R3, slack, consts, notes=notes),
        make_report("sigma-map-weighted-bound", L4, R4, slack, consts),
        make_report("sigma-map-contraction", L5, R5, slack, consts),
    ]


def _subgrid(t: float, i: int) -> TimeGrid:
    """Grid with i cells on [0, t] (t > 0, i >= 2) for windowed
    quadrature; falls back to 2 cells for i < 2."""
    return TimeGrid(n=max(i, 2), T=t)


# ---------------------------------------------------------------- Lemmas


def check_sigma_lemmas(
    cs: CoefficientSet,
    cases: int,
    N: float,
    rng_seed: int,
    T: float = 1.0,
) -> list[EstimateReport]:
    """Four-point and eight-point mean-value inequalities for sigma,
    zero slack (pointwise algebra, no quadrature)."""
    rng = np.random.default_rng(rng_seed)
    k = int(cases)
    u = np.sort(rng.uniform(0.0, T, size=(k, 4)), axis=1)
    s1, s2, t2, t1 = u[:, 0], u[:, 1], u[:, 2], u[:, 3]
    xs = [
        rng.uniform(-N, N, size=(k, cs.d)) for _ in range(4)
    ]
    x1, x2, x3, x4 = xs
    K = cs.K
    K_N = cs.K_N(N)

    def mag(a):
        return np.linalg.norm(np.asarray(a).reshape(k, -1), axis=1)

    def nrm(a):
        return np.linalg.norm(a, axis=1)

    # four-point increment in (s, x)
    lhs1 = mag(
        cs.sigma(t1, s1, x1) - cs.sigma(t1, s2, x2) - cs.sigma(t1, s1, x3) + cs.sigma(t1, s2, x4)
    )
    rhs1 = (
        K_N * nrm(x1 - x2 - x3 + x4)
        + K * nrm(x1 - x3) * np.abs(s2 - s1) ** cs.beta
        + K_N * nrm(x1 - x3) * (nrm(x1 - x2) ** cs.delta + nrm(x3 - x4) ** cs.delta)
    )

    # four-point increment in (t, s/x)
    lhs2 = mag(
        cs.sigma(t1, s1, x1) - cs.sigma(t2, s1, x1) - cs.sigma(t1, s2, x2) + cs.sigma(t2, s2, x2)
    )
    rhs2 = K * np.abs(t1 - t2) * (np.abs(s1 - s2) ** cs.beta + nrm(x1 - x2))

    # eight-point increment
    lhs3 = mag(
        cs.sigma(t1, s1, x1) - cs.sigma(t1, s1, x2) - cs.sigma(t2, s1, x1) + cs.sigma(t2, s1, x2)
        - cs.sigma(t1, s2, x3) + cs.sigma(t1, s2, x4) + cs.sigma(t2, s2, x3) - cs.sigma(t2, s2, x4)
    )
    rhs3 = (
        K_N * np.abs(t1 - t2) * nrm(x1 - x2 - x3 + x4)
        + K * nrm(x1 - x2) * np.abs(t1 - t2) * np.abs(s1 - s2) ** cs.beta
        + K_N * nrm(x1 - x2) * np.abs(t1 - t2) * (nrm(x1 - x3) ** cs.delta + nrm(x2 - x4) ** cs.delta)
    )

    consts = {"K": K, "K_N": K_N, "beta": cs.beta, "delta": cs.delta, "N": N}
    return [
        make_report(f"lemma-four-point-sx:{cs.name}", lhs1, rhs1, 0.0, consts),
        make_report(f"lemma-four-point-t:{cs.name}", lhs2, rhs2, 0.0, consts),
        make_report(f"lemma-eight-point:{cs.name}", lhs3, rhs3, 0.0, consts),
    ]


# ------------------------------------------------------------- Auxiliary


def check_aux_inequalities(
    alpha_grid=(0.1, 0.2, 0.25, 0.3, 0.4, 0.45),
    lambda_grid=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    mu_grid=(0.25, 0.5, 0.75, 1.0),
    T: float = 1.0,
    n: int = 4096,
) -> list[EstimateReport]:
    """Exponential-weight suprema, the singular exponential kernels, the
    combined-kernel constant, and the Beta identities."""
    grid = build_grid(T, n)
    nodes = grid.nodes
    h = grid.h

    # sup_t t^mu e^{-lam t} <= (mu/lam)^mu e^{-mu}, scanned densely
    tt = np.linspace(0.0, max(T, 4.0), 200001)
    lhs_w, rhs_w = [], []
    for mu in mu_grid:
        for lam in lambda_grid:
            lhs_w.append(float(np.max(tt ** mu * np.exp(-lam * tt))))
            rhs_w.append(bounds.sup_weight_bound(mu, lam))
    rep_w = make_report("aux-exp-weight-sup", lhs_w, rhs_w, 0.0,
                        {"mu_grid": list(mu_grid), "lambda_grid": list(lambda_grid)})

    # int_0^t e^{-lam(t-s)} (t-s)^{-a} ds <= lam^{a-1} Gamma(1-a)
    # the bound is attained as lam*t -> inf; the piecewise-linear chord
    # overestimates the convex integrand by O((lam h)^2), hence the slack
    quad_slack = max(1e-3, (max(lambda_grid) * h) ** 2)
    lhs_k, rhs_k = [], []
    for alpha in alpha_grid:
        for lam in lambda_grid:
            for i_t in (n // 4, n // 2, n):
                t = nodes[i_t]
                phi = GridFunction(_subgrid(t, i_t), np.exp(-lam * (t - nodes[: i_t + 1])))
                lhs_k.append(float(singular_weighted_integral(phi, alpha, i_t)[0]))
                rhs_k.append(lam ** (alpha - 1.0) * _gamma(1.0 - alpha))
    rep_k = make_report("aux-exp-kernel-bound", lhs_k, rhs_k, quad_slack,
                        {"alpha_grid": list(alpha_grid), "n": n},
                        notes="quadrature slack for the convex-chord overshoot")

    # lam^{1-2a} int_0^t e^{-lam(t-u)} ((t-u)^{-2a} + u^{-a}) du <= 1/(1-2a) + 4
    lhs_c, rhs_c = [], []
    for alpha in alpha_grid:
        worst = 0.0
        for lam in lambda_grid:
            for i_t in (n // 8, n // 2, n):
                t = nodes[i_t]
                decay = np.exp(-lam * (t - nodes[: i_t + 1]))
                part1 = float(
                    singular_weighted_integral(GridFunction(_subgrid(t, i_t), decay), 2.0 * alpha, i_t)[0]
                )
                part2 = left_singular_integral(decay, h, alpha)
                worst = max(worst, lam ** (1.0 - 2.0 * alpha) * (part1 + part2))
        lhs_c.append(worst)
        rhs_c.append(bounds.kernel_c_alpha(alpha))
    rep_c = make_report("aux-combined-kernel-constant", lhs_c, rhs_c, 0.0,
                        {"alpha_grid": list(alpha_grid)})

    # Beta definition: quadrature of the defining integral vs log-gamma
    lhs_b, rhs_b = [], []
    pq = [(p, q) for p in (0.3, 0.55, 1.0, 1.6, 2.2) for q in (0.3, 0.55, 1.0, 1.6, 2.2)]
    xs = np.linspace(0.0, 1.0, n + 1)
    for p, q in pq:
        half = n // 2
        left_vals = xs[: half + 1] ** (p - 1.0 + max(0.0, 1.0 - p)) * (1.0 - xs[: half + 1]) ** (q - 1.0)
        quad = left_singular_integral(left_vals, 1.0 / n, max(0.0, 1.0 - p))
        rv = (1.0 - xs[half:]) ** (q - 1.0 + max(0.0, 1.0 - q)) * xs[half:] ** (p - 1.0)
        quad += left_singular_integral(rv[::-1], 1.0 / n, max(0.0, 1.0 - q))
        lhs_b.append(quad)
        rhs_b.append(beta_fn(p, q))
    ratios = np.abs(np.array(lhs_b) / np.array(rhs_b) - 1.0)
    rep_b = EstimateReport(
        name="aux-beta-definition",
        cases=len(pq),
        max_ratio=float(1.0 + np.max(ratios)),
        slack_allowed=0.01,
        passed=bool(np.max(ratios) <= 0.01),
        constants_used={"n": n},
        lhs_samples=tuple(lhs_b[:32]),
        rhs_samples=tuple(rhs_b[:32]),
        notes="two-sided identity: |quadrature/closed-form - 1| <= slack",
    )

    # Beta moment identity: int_0^t (t-u)^q u^p du = B(p+1, q+1) t^{p+q+1}
    lhs_m, rhs_m = [], []
    pq2 = [(p, q) for p in (-0.4, -0.1, 0.5, 1.4) for q in (-0.4, -0.1, 0.5, 1.4)]
    for p, q in pq2:
        for t in (0.5 * T, T):
            i_t = n // 2
            sub = np.linspace(0.0, t, i_t + 1)
            hh = t / i_t
            halfi = i_t // 2
            th1 = max(0.0, -p)
            lv = sub[: halfi + 1] ** (p + th1) * (t - sub[: halfi + 1]) ** q
            val = left_singular_integral(lv, hh, th1)
            th2 = max(0.0, -q)
            rv = (t - sub[halfi:]) ** (q + th2) * sub[halfi:] ** p
            val += left_singular_integral(rv[::-1], hh, th2)
            lhs_m.append(val)
            rhs_m.append(beta_fn(p + 1.0, q + 1.0) * t ** (p + q + 1.0))
    ratios = np.abs(np.array(lhs_m) / np.array(rhs_m) - 1.0)
    rep_m = EstimateReport(
        name="aux-beta-moment-identity",
        cases=len(lhs_m),
        max_ratio=float(1.0 + np.max(ratios)),
        slack_allowed=0.01,
        passed=bool(np.max(ratios) <= 0.01),
        constants_used={"n": n},
        lhs_samples=tuple(lhs_m[:32]),
        rhs_samples=tuple(rhs_m[:32]),
        notes="two-sided identity: |quadrature/closed-form - 1| <= slack",
    )

    return [rep_w, rep_k, rep_c, rep_b, rep_m]


# ----------------------------------------------------------------- Suite


@dataclass(frozen=True)
class SuiteConfig:
    """Which families to run and how hard."""

    families: tuple = ("lebesgue", "stieltjes", "lemmas", "aux", "hypotheses")
    estimate_cases: int = 1000
    lemma_tuples: int = 100000
    hypothesis_samples: int = 100000
    seed: int = 20260301
    grid_n: int = 64
    coefficient_names: tuple = ("constant-sigma", "linear-drift", "smooth-volterra", "bounded-growth")
    constant_scale: dict = field(default_factory=dict)


def run_suite(config: SuiteConfig = SuiteConfig()) -> dict[str, list[EstimateReport]]:
    """Run the selected families; returns {family: [reports]}."""
    out: dict[str, list[EstimateReport]] = {}
    for fam in config.families:
        if fam == "lebesgue":
            out[fam] = check_lebesgue_estimates(
                config.estimate_cases, config.seed, n=config.grid_n,
                constant_scale=config.constant_scale,
            )
        elif fam == "stieltjes":
            out[fam] = check_rs_estimates(
                config.estimate_cases, config.seed + 1, n=config.grid_n,
                constant_scale=config.constant_scale,
            )
        elif fam == "lemmas":
            reps = []
            for name in config.coefficient_names:
                cs = builtin_coefficients(name)
                for N in (1.0, 5.0):
                    reps.extend(check_sigma_lemmas(cs, config.lemma_tuples, N, config.seed + 2))
            out[fam] = reps
        elif fam == "aux":
            out[fam] = check_aux_inequalities()
        elif fam == "hypotheses":
            reps = []
            for name in config.coefficient_names:
                cs = builtin_coefficients(name)
                for N in (1.0, 10.0):
                    reps.append(verify_hypotheses(cs, config.hypothesis_samples, N, config.seed + 3))
            out[fam] = reps
        else:
            raise VolterraError(f"unknown verification family {fam!r}")
    return out
