"""Scaled Wiener-norm asymptotics for unimodular exponentials e^{ixh(t)}.

The package computes Fourier coefficient spectra of e^{ixh(t)} for
curvature-definite phases h, the scaled coefficient norm S(x) =
(1/sqrt(x)) sum |a_{x,nu}|, and its limit

    L(h) = (2/pi)^(3/2) * integral over [0, pi] of sqrt(|h''(t)|) dt,

together with the machinery behind that limit: the stationary-phase
approximation of central coefficients, the external/periphery/central
index partition, equidistribution diagnostics for the stationary
exponents, and the self-contained special functions (Gamma, 2F1,
Bessel J) that the closed-form constants rest on.
"""

from .asymptotics import (
    ConvergenceReport,
    FinalStepReport,
    StudyRow,
    asymptotic_limit,
    asymptotic_limit_slope_route,
    convergence_study,
    final_step_report,
    full_circle_reference,
    truncated_riemann,
)
from .equidist import (
    WeylReport,
    fractional_array,
    van_der_corput_bound,
    weyl_study,
    weyl_sum,
)
from .errors import (
    ConvergenceError,
    DomainError,
    GridResolutionError,
    MisalignedError,
    PeriodicityError,
    QuadratureBudgetError,
    WnlError,
)
from .phase import (
    PhaseFunction,
    TermPartition,
    ValidationReport,
    build_blaschke,
    build_blaschke_general,
    build_from_callable,
    build_linear,
    build_piecewise_abs,
    build_sine,
    choose_phi,
    legendre,
    modulus_of_continuity,
    partition_terms,
    psi,
    require_valid,
    validate,
)
from .specfun import (
    GirardValue,
    bessel_j,
    bessel_j_sequence,
    corollary2_integral,
    gamma_fn,
    girard_value,
    hyp2f1,
    lngamma_fn,
)
from .spectrum import (
    CoefficientSpectrum,
    PartitionSums,
    check_periodicity,
    coefficient_quadrature,
    compute_spectrum,
    partition_sums,
    scaled_norm,
)
from .stationary import (
    ComparisonRow,
    ComparisonTable,
    fitted_calibration,
    lemma1_monotone_bound,
    lemma1_var_bound,
    stationary_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSpectrum",
    "ComparisonRow",
    "ComparisonTable",
    "ConvergenceError",
    "ConvergenceReport",
    "DomainError",
    "FinalStepReport",
    "GirardValue",
    "GridResolutionError",
    "MisalignedError",
    "PartitionSums",
    "PeriodicityError",
    "PhaseFunction",
    "QuadratureBudgetError",
    "StudyRow",
    "TermPartition",
    "ValidationReport",
    "WeylReport",
    "WnlError",
    "asymptotic_limit",
    "asymptotic_limit_slope_route",
    "bessel_j",
    "bessel_j_sequence",
    "build_blaschke",
    "build_blaschke_general",
    "build_from_callable",
    "build_linear",
    "build_piecewise_abs",
    "build_sine",
    "check_periodicity",
    "choose_phi",
    "coefficient_quadrature",
    "compute_spectrum",
    "convergence_study",
    "corollary2_integral",
    "final_step_report",
    "fitted_calibration",
    "fractional_array",
    "full_circle_reference",
    "gamma_fn",
    "girard_value",
    "hyp2f1",
    "legendre",
    "lemma1_monotone_bound",
    "lemma1_var_bound",
    "lngamma_fn",
    "modulus_of_continuity",
    "partition_sums",
    "partition_terms",
    "psi",
    "require_valid",
    "scaled_norm",
    "stationary_comparison",
    "truncated_riemann",
    "validate",
    "van_der_corput_bound",
    "weyl_study",
    "weyl_sum",
]
