"""Exact heat-trace coefficient computation for locally symmetric spaces.

The package computes, in exact rational arithmetic, the normalized heat-trace
coefficient sequences of the compact rank-one symmetric space families and of
the noncompact families whose spherical Plancherel density is polynomial; it
provides the series algebra (Cauchy product, metric rescaling, compact/
noncompact dualization), factorial growth-law diagnostics, and an independent
spectral-summation oracle used to validate the closed forms.
"""

from .errors import (
    DegenerateModelError,
    HeatTraceError,
    IllConditionedFitError,
    InvariantViolation,
    NotPositiveDefiniteError,
    SafetyLimitError,
    UnsupportedSpaceError,
)
from .exactnum import bernoulli, c_coeffs, d_coeffs, log_abs
from .seedpolys import SignedTable, beta_table, delta_table, eta_table, gamma_table
from .series import HeatSeries, dualize, product, rescale
from .rank1 import SpaceModel, rank1_series
from .plancherel import (
    ExpPolyForm,
    PlancherelModel,
    build_family,
    closed_form,
    diagonalize_form,
    load_model_file,
    to_series,
)
from .growth import (
    GrowthReport,
    classify,
    estimate_growth_constant,
    factorial_bound_witness,
    growth_report,
)
from .oracle import fit_coefficients, heat_trace, sphere_volume

__version__ = "0.1.0"

__all__ = [
    "DegenerateModelError",
    "ExpPolyForm",
    "GrowthReport",
    "HeatSeries",
    "HeatTraceError",
    "IllConditionedFitError",
    "InvariantViolation",
    "NotPositiveDefiniteError",
    "PlancherelModel",
    "SafetyLimitError",
    "SignedTable",
    "SpaceModel",
    "UnsupportedSpaceError",
    "bernoulli",
    "beta_table",
    "build_family",
    "c_coeffs",
    "classify",
    "closed_form",
    "d_coeffs",
    "delta_table",
    "diagonalize_form",
    "dualize",
    "estimate_growth_constant",
    "eta_table",
    "factorial_bound_witness",
    "fit_coefficients",
    "gamma_table",
    "growth_report",
    "heat_trace",
    "load_model_file",
    "log_abs",
    "product",
    "rank1_series",
    "rescale",
    "sphere_volume",
    "to_series",
]
