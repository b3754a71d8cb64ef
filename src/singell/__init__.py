"""Numerical laboratory for singular semilinear elliptic problems
-div(M(x) grad u) = f/u^gamma and their large-exponent limits.
"""

from .grids import (CoefficientField, ConstantDatum, EllipticityError, Grid,
                    GridFunction, IndicatorDatum, ProblemSpec, TabulatedDatum,
                    excess, make_uniform_grid, truncate)
from .operators import (LinearSolveError, MeasureData, SparseOperator, assemble,
                        solve_linear, solve_measure)
from .solver import (NonlinearSolveError, RegularizedIterate, ResidualField,
                     SingularSolution, UndefinedCertificateError,
                     default_m_schedule, from_quasilinear, linfty_certificate,
                     quasilinear_residual, singular_residual, solve_regularized,
                     solve_singular, to_quasilinear, total_singular_mass)
from .analytic import (ConstructionError, LimitProfile, OneDProfile,
                       beta_integral, beta_integral_inverse,
                       beta_total_closed_form, first_zero, gamma_fn,
                       glued_profile, limit_profiles, lower_matching_bound,
                       matching_constant, matching_slope_gap, profile_amplitude,
                       profile_value, upper_matching_bound)
from .sweeps import (ConjectureReport, MeasureHistogram, SweepReport, SweepRow,
                     conjecture_experiment, extract_atoms, fitted_depth_bound,
                     limit_equation_check, log_diagnostic, measure_histogram,
                     run_sweep)

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "ConstantDatum", "EllipticityError", "Grid",
    "GridFunction", "IndicatorDatum", "ProblemSpec", "TabulatedDatum",
    "excess", "make_uniform_grid", "truncate",
    "LinearSolveError", "MeasureData", "SparseOperator", "assemble",
    "solve_linear", "solve_measure",
    "NonlinearSolveError", "RegularizedIterate", "ResidualField",
    "SingularSolution", "UndefinedCertificateError", "default_m_schedule",
    "from_quasilinear", "linfty_certificate", "quasilinear_residual",
    "singular_residual", "solve_regularized", "solve_singular",
    "to_quasilinear", "total_singular_mass",
    "ConstructionError", "LimitProfile", "OneDProfile", "beta_integral",
    "beta_integral_inverse", "beta_total_closed_form", "first_zero", "gamma_fn",
    "glued_profile", "limit_profiles", "lower_matching_bound",
    "matching_constant", "matching_slope_gap", "profile_amplitude",
    "profile_value", "upper_matching_bound",
    "ConjectureReport", "MeasureHistogram", "SweepReport", "SweepRow",
    "conjecture_experiment",
    "extract_atoms", "fitted_depth_bound", "limit_equation_check",
    "log_diagnostic", "measure_histogram", "run_sweep",
]
