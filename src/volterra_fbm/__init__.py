"""Pathwise stochastic numerics for Volterra equations driven by
fractional Brownian motion with Hurst parameter above one half.

The package samples the driver exactly, evaluates generalized
Stieltjes (Young) integrals by Riemann-Stieltjes sums and by the
fractional-derivative representation, solves the integral equation by
weighted-norm Picard iteration, and numerically certifies the a priori
estimates the construction rests on.
"""

from .coeffs import CoefficientSet, builtin_coefficients, partials_fd_check, verify_hypotheses
from .fbm import DriverPath, Seed, fbm_covariance, sample_cholesky, sample_davies_harte
from .fraccalc import beta_fn, lambda_alpha
from .grid import BivariateKernelValues, GridFunction, TimeGrid, build_grid, right_singular_integral
from .integrals import IntegralResult, diffusion_term, drift_term, lebesgue_volterra, young_frac, young_rs
from .norms import (
    HolderParams,
    NormReport,
    alpha_1_norm,
    delta_functional,
    holder_exponent_estimate,
    holder_norm,
    w_1malpha_norm,
    w_alpha_infty_norm,
    w_alpha_lambda_norm,
)
from .report import EstimateReport
from .solver import (
    AdmissibleWindow,
    GrowthBoundReport,
    SolutionRecord,
    admissible_alpha,
    calibrate_growth_bound,
    euler_solve,
    growth_bound_check,
    phi_exponent,
    picard_solve,
    picard_solve_batch,
    select_lambda,
)
from .verify import SuiteConfig, run_suite

__version__ = "0.1.0"
