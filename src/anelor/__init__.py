"""Lorenz-type reduction of anelastic Oberbeck-Boussinesq convection.

A stratified background density turns the usual Benard problem into an
anelastic one. Projecting the two-dimensional equations onto three modes of
the weighted vorticity eigenbasis yields a Lorenz-type system whose
coefficients, critical Rayleigh numbers, trajectories, and N-mode linear
validation this package computes.
"""

from .basis import ModeGrid, ModeIndex, QuadratureRule, mode_eval, weighted_inner_product
from .dynamics import (
    IntegrationError,
    Trajectory,
    amplitude_trend,
    integrate_lorenz,
    integrate_reduced,
    largest_lyapunov,
    log_norm_slope,
    map_trajectory,
)
from .lorenz import (
    LengthOptimum,
    LorenzParams,
    ScalingMap,
    StabilityReport,
    classify_rest_state,
    critical_points,
    critical_rayleigh,
    minimize_over_length,
    origin_eigenvalues,
    scale_to_lorenz,
    taylor_ratio,
)
from .params import InadmissibleError, PhysicalParams
from .projection import (
    GalerkinCoeffs,
    ProjectionTermReport,
    QuadratureConvergenceError,
    closed_form_coefficients,
    coefficients,
    discrepancy_report,
    oracle_coefficients,
    published_coefficients,
)
from .spectral import (
    LinearOperatorPencil,
    assemble_pencil,
    critical_rayleigh_spectral,
    leading_growth_rate,
)

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams",
    "InadmissibleError",
    "ModeIndex",
    "ModeGrid",
    "QuadratureRule",
    "mode_eval",
    "weighted_inner_product",
    "GalerkinCoeffs",
    "ProjectionTermReport",
    "QuadratureConvergenceError",
    "coefficients",
    "oracle_coefficients",
    "closed_form_coefficients",
    "published_coefficients",
    "discrepancy_report",
    "LorenzParams",
    "ScalingMap",
    "StabilityReport",
    "LengthOptimum",
    "scale_to_lorenz",
    "critical_points",
    "origin_eigenvalues",
    "classify_rest_state",
    "critical_rayleigh",
    "taylor_ratio",
    "minimize_over_length",
    "Trajectory",
    "IntegrationError",
    "integrate_reduced",
    "integrate_lorenz",
    "map_trajectory",
    "log_norm_slope",
    "amplitude_trend",
    "largest_lyapunov",
    "LinearOperatorPencil",
    "assemble_pencil",
    "leading_growth_rate",
    "critical_rayleigh_spectral",
    "__version__",
]
