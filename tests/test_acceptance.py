"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (run pytest -s to see them inline).

Criteria and tolerances are pinned here; nothing is deferred to later
calibration.  Run order matters only for the shared 100-path solver
batch, which is computed once per session.
"""

import time

import numpy as np
import pytest
from scipy.special import gamma

from volterra_fbm.cli import main as cli_main
from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.fbm import (
    DriverPath,
    Seed,
    fbm_covariance,
    sample_davies_harte,
    sample_paths,
)
from volterra_fbm.fraccalc import lambda_alpha
from volterra_fbm.grid import BivariateKernelValues, build_grid
from volterra_fbm.integrals import young_frac, young_rs
from volterra_fbm.norms import HolderParams, w_alpha_infty_norm
from volterra_fbm.solver import (
    calibrate_growth_bound,
    growth_bound_check,
    picard_solve,
)
from volterra_fbm.verify import (
    check_aux_inequalities,
    check_lebesgue_estimates,
    check_rs_estimates,
)

MC_PATHS = 200_000
ACCEPT_SEED = 2026


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})", flush=True)


@pytest.fixture(scope="module")
def smooth_batch():
    """100 converged smooth-volterra solves, shared by criteria 5 and 6."""
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 256)
    recs = []
    for p in range(100):
        drv = sample_davies_harte(g, 0.75, 1, Seed(ACCEPT_SEED), path_index=p)
        recs.append(picard_solve(cs, 1.0, drv, params, tol=1e-8, max_iter=60))
    return recs


def test_criterion_1_fbm_exactness():
    t0 = time.time()
    g = build_grid(1.0, 8)
    worst = {}
    for H in (0.6, 0.75, 0.9):
        ana = fbm_covariance(g.nodes[None, 1:], g.nodes[1:, None], H)
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / MC_PATHS)
        for sampler in ("cholesky", "davies-harte"):
            x = sample_paths(g, H, 1, Seed(ACCEPT_SEED), MC_PATHS, sampler)[:, 1:, 0]
            z = np.abs(x.T @ x / MC_PATHS - ana) / se
            worst[(H, sampler)] = float(z.max())
            assert z.max() <= 4.0, (H, sampler, z.max())
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s exceeds 2 min"
    detail = ", ".join(f"{k[1]}@H={k[0]}: max|z|={v:.2f}" for k, v in worst.items())
    report("1 fbm-exactness", f"{detail}; {elapsed:.0f}s")


def test_criterion_2_young_route_agreement():
    t0 = time.time()
    n_fine = 4096
    gf = build_grid(1.0, n_fine)
    fine = sample_davies_harte(gf, 0.75, 1, Seed(5))  # |g| swing ~ 2

    def route_pair(n, alpha=0.2):
        step = n_fine // n
        drv = DriverPath(build_grid(1.0, n), fine.values[::step].copy())
        k = BivariateKernelValues(
            drv.grid, np.broadcast_to(drv.values[None, :, 0], (n + 1, n + 1)).copy()
        )
        rs = young_rs(k, drv).values.values[:, 0]
        fr = young_frac(k, drv, alpha).values.values[:, 0]
        return rs, fr, drv

    # left-point sums vs the pathwise closed form at n = 4096
    k_full = BivariateKernelValues(
        gf, np.broadcast_to(fine.values[None, :, 0], (n_fine + 1, n_fine + 1)).copy()
    )
    rs_full = young_rs(k_full, fine).values.values[:, 0]
    closed = (fine.values[:, 0] ** 2 - fine.values[0, 0] ** 2) / 2
    rel_closed = np.max(np.abs(rs_full - closed)) / np.max(np.abs(closed))
    assert rel_closed < 0.02

    dis = {}
    for n in (512, 1024, 2048):
        rs, fr, _ = route_pair(n)
        dis[n] = np.max(np.abs(rs - fr)) / np.max(np.abs(rs))
    assert dis[512] < 0.02
    assert dis[1024] / dis[512] <= 0.75
    assert dis[2048] / dis[1024] <= 0.75
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        "2 young-route-agreement",
        f"rs-vs-closed {rel_closed:.4f}, frac-vs-rs@512 {dis[512]:.4f}, "
        f"doubling ratios {dis[1024] / dis[512]:.2f}, {dis[2048] / dis[1024]:.2f}; {elapsed:.0f}s",
    )


def test_criterion_3_lambda_alpha_closed_form():
    g = build_grid(1.0, 4096)
    val, _ = lambda_alpha(g.nodes.copy(), g.h, 0.25)
    closed = 1.0 / (gamma(0.75) * gamma(1.25))
    rel = abs(val - closed) / closed
    assert rel < 0.01
    report("3 lambda-closed-form", f"discrete {val:.5f} vs {closed:.5f}, rel {rel:.2e}")


def test_criterion_4_solver_exponential():
    cs = builtin_coefficients("linear-drift", kappa=1.0)
    params = HolderParams(H=0.8, alpha=0.25, T=1.0)
    errs = {}
    for n in (256, 512, 1024):
        g = build_grid(1.0, n)
        rec = picard_solve(cs, 1.0, DriverPath.from_callable(g, lambda t: 0.0), params,
                           tol=1e-10, max_iter=80)
        assert rec.converged
        errs[n] = float(np.max(np.abs(rec.x.values[:, 0] - np.exp(g.nodes))))
    assert errs[1024] < 1e-4
    r1, r2 = errs[256] / errs[512], errs[512] / errs[1024]
    assert 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0  # O(h^2)
    report("4 solver-exponential", f"err@1024 {errs[1024]:.2e}, refinement ratios {r1:.2f}, {r2:.2f}")


def test_criterion_5_contraction_realized(smooth_batch):
    ok = 0
    iters = []
    for rec in smooth_batch:
        assert rec.converged
        iters.append(rec.iterations)
        d = [x for x in rec.distances if x > 1e-14]
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1)]
        if not ratios or max(ratios) <= rec.theoretical_factor * 1.1:
            ok += 1
    assert ok >= 95
    assert max(iters) <= 40
    report("5 contraction-realized", f"ratio-ok {ok}/100, max iterations {max(iters)}")


def test_criterion_6_uniqueness_and_regularity(smooth_batch):
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 256)
    tol = 1e-8
    gaps = []
    for p in range(5):
        drv = sample_davies_harte(g, 0.75, 1, Seed(ACCEPT_SEED), path_index=p)
        r1 = picard_solve(cs, 1.0, drv, params, tol=tol)
        r2 = picard_solve(cs, 1.0, drv, params, tol=tol, initial_offset=1.0)
        gaps.append(float(np.max(np.abs(r1.x.values - r2.x.values))))
    assert max(gaps) < 10 * tol

    target = 1.0 - params.alpha - 0.1
    hold = np.array([rec.holder_estimate for rec in smooth_batch])
    frac = float(np.mean(hold >= target))
    assert frac >= 0.90
    report(
        "6 uniqueness-regularity",
        f"max init gap {max(gaps):.2e} < {10 * tol:.0e}; "
        f"holder >= {target:.2f} on {frac * 100:.0f}%",
    )


def test_criterion_7_inequality_suite():
    t0 = time.time()
    failures = []

    for rep in check_lebesgue_estimates(1000, ACCEPT_SEED):
        assert rep.slack_allowed == 0.05
        if not rep.passed:
            failures.append(rep.name)
    for rep in check_rs_estimates(1000, ACCEPT_SEED + 1):
        assert rep.slack_allowed == 0.05
        if not rep.passed:
            failures.append(rep.name)
    for name in ("constant-sigma", "linear-drift", "smooth-volterra", "bounded-growth"):
        cs = builtin_coefficients(name)
        from volterra_fbm.verify import check_sigma_lemmas

        for rep in check_sigma_lemmas(cs, 100_000, 5.0, ACCEPT_SEED + 2):
            assert rep.slack_allowed == 0.0
            if not rep.passed:
                failures.append(rep.name)
    for rep in check_aux_inequalities():
        if not rep.passed:
            failures.append(rep.name)

    elapsed = time.time() - t0
    assert not failures, failures
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 min"
    report("7 inequality-suite", f"all families pass; {elapsed:.0f}s")


def test_criterion_8_moment_surrogate_and_growth_bound():
    t0 = time.time()
    cs = builtin_coefficients("bounded-growth")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    g = build_grid(1.0, 96)

    def solve(p):
        drv = sample_davies_harte(g, 0.75, 1, Seed(ACCEPT_SEED), path_index=p)
        return picard_solve(cs, np.array([1.0]), drv, params, tol=1e-8)

    # pilot ensemble (indices disjoint from the test paths)
    pilots = [solve(p) for p in range(100_000, 100_100)]
    cal = calibrate_growth_bound(pilots, cs, params)

    recs = [solve(p) for p in range(2000)]
    norms = np.array([w_alpha_infty_norm(r.x, params.alpha).value for r in recs])
    drifts = {}
    for p_ord in (1, 2, 4):
        m_half = np.mean(norms[:1000] ** p_ord)
        m_full = np.mean(norms ** p_ord)
        drifts[p_ord] = abs(m_full - m_half) / m_half
        assert drifts[p_ord] < 0.20

    satisfied = sum(
        growth_bound_check(rec, cs, params, cal).satisfied for rec in recs[:1000]
    )
    assert satisfied == 1000

    # the fitted curve majorizes the scatter when sorted by capacity
    lams = np.array([r.lambda_alpha_g for r in recs[:1000]])
    bound = cal.C5 * np.exp(cal.C6 * lams ** cal.phi)
    assert np.all(norms[:1000] <= bound)

    elapsed = time.time() - t0
    report(
        "8 moments-growth-bound",
        f"moment drifts {drifts[1]:.3f}/{drifts[2]:.3f}/{drifts[4]:.3f}, "
        f"growth bound {satisfied}/1000; {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    runs = {}
    for tag, workers in (("w1", "1"), ("w3", "3")):
        out = tmp_path / tag
        code = cli_main([
            "solve", "--coeffs", "smooth-volterra", "--n", "128", "--H", "0.75",
            "--alpha", "0.3", "--paths", "3", "--seed", "11",
            "--workers", workers, "--out", str(out),
        ])
        assert code == 0
        code = cli_main([
            "sample", "--n", "8", "--H", "0.75", "--paths", "2000", "--seed", "11",
            "--workers", workers, "--out", str(out / "s"),
        ])
        assert code == 0
        runs[tag] = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
    assert set(runs["w1"]) == set(runs["w3"])
    for key in runs["w1"]:
        assert runs["w1"][key] == runs["w3"][key], f"{key} differs"
    report("9 cli-determinism", f"{len(runs['w1'])} files byte-identical across workers")
