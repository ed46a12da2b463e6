#!/usr/bin/env python3
"""Sweep the weight lambda on a fixed problem and tabulate the observed
Picard contraction ratio: the diffusion part of the Lipschitz factor
decays like lambda^{2 alpha - 1}, which shows up as shrinking ratios.

Writes out/lambda_sweep.csv with lambda, worst ratio, iterations.
"""

import sys
from pathlib import Path

import numpy as np

from volterra_fbm.cli import emit_report
from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.fbm import Seed, sample_davies_harte
from volterra_fbm.grid import build_grid
from volterra_fbm.norms import HolderParams
from volterra_fbm.solver import picard_solve


def main() -> int:
    cs = builtin_coefficients("smooth-volterra")
    params = HolderParams(H=0.75, alpha=0.3, T=1.0)
    grid = build_grid(1.0, 256)
    driver = sample_davies_harte(grid, 0.75, 1, Seed(2026), path_index=0)
    rows = []
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        rec = picard_solve(cs, 1.0, driver, params, tol=1e-9, lambda_override=lam)
        d = [x for x in rec.distances if x > 1e-14]
        worst = max(d[i + 1] / d[i] for i in range(len(d) - 1)) if len(d) > 1 else 0.0
        rows.append({"lambda": lam, "worst_ratio": worst, "iterations": rec.iterations})
        print(f"lambda={lam:5g}  worst ratio {worst:.4f}  iterations {rec.iterations}")
    emit_report(rows, Path("out/lambda_sweep.csv"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
