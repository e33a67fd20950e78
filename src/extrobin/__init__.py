"""Principal Robin eigenvalue of the Laplacian on the exterior of a ball.

The exterior Robin problem has a unique discrete eigenvalue below the
essential spectrum exactly when the coupling is subcritical; this package
computes it through the modified-Bessel dispersion relation, derives the
attached Steklov spectra and shape variations at the ball, certifies the
sign and ratio inequalities behind local maximality on deterministic
grids, and evaluates two asymptotic comparisons: an elongated (prolate)
ellipsoid against the equal-volume ball, which rules out global
maximality for n >= 3, and the square against the disk, which
illustrates the planar theorem that the disk wins.
"""

from .bessel import (
    BesselOrder,
    IdentityResiduals,
    ScaledValue,
    gap_a,
    identity_residuals,
    modified_bessel_I,
    modified_bessel_K,
    ratio_f,
    segura_bracket,
)
from .counterexample import (
    AsymptoticModel,
    ComparisonResult,
    EllipsoidSpec,
    HynakResult,
    compare_ellipsoid_ball,
    ellipsoid_hmax,
    equivalent_ball_radius,
    hynak_check,
    hynak_threshold,
    square_vs_disk,
)
from .errors import (
    BarycenterConstraintError,
    ConstraintViolationError,
    DegenerateSpectrumError,
    DomainError,
    ExtrobinError,
    GridFileError,
    MeasureConstraintError,
    NoDiscreteEigenvalueError,
    RangeLimitError,
    SolverConvergenceError,
)
from .report import (
    GridConfig,
    VerificationReport,
    Violation,
    default_certify_grids,
    parse_grid_file,
    parse_spectrum_file,
)
from .spectra import (
    BallGeometry,
    SpectralSolution,
    SteklovLevel,
    Z_MAX,
    Z_MIN,
    alpha_of_lambda,
    alpha_star,
    count_discrete,
    harmonic_steklov,
    multiplicity,
    shifted_steklov,
    solution_from_lambda,
    solve_lambda,
)
from .variation import (
    PerturbationSpectrum,
    QuantBound,
    QuantCheck,
    VariationReport,
    certify_negativity,
    first_variation,
    mode_coefficient,
    quant_bound,
    quant_ratio_check,
    second_variation,
)
from .verify import (
    run_bessel_suite,
    run_quant_suite,
    run_spectra_suite,
    run_suites,
    run_variation_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticModel",
    "BallGeometry",
    "BarycenterConstraintError",
    "BesselOrder",
    "ComparisonResult",
    "ConstraintViolationError",
    "DegenerateSpectrumError",
    "DomainError",
    "EllipsoidSpec",
    "ExtrobinError",
    "GridConfig",
    "GridFileError",
    "HynakResult",
    "IdentityResiduals",
    "MeasureConstraintError",
    "NoDiscreteEigenvalueError",
    "PerturbationSpectrum",
    "QuantBound",
    "QuantCheck",
    "RangeLimitError",
    "ScaledValue",
    "SolverConvergenceError",
    "SpectralSolution",
    "SteklovLevel",
    "VariationReport",
    "VerificationReport",
    "Violation",
    "Z_MAX",
    "Z_MIN",
    "alpha_of_lambda",
    "alpha_star",
    "certify_negativity",
    "compare_ellipsoid_ball",
    "count_discrete",
    "default_certify_grids",
    "ellipsoid_hmax",
    "equivalent_ball_radius",
    "first_variation",
    "gap_a",
    "harmonic_steklov",
    "hynak_check",
    "hynak_threshold",
    "identity_residuals",
    "mode_coefficient",
    "modified_bessel_I",
    "modified_bessel_K",
    "multiplicity",
    "parse_grid_file",
    "parse_spectrum_file",
    "quant_bound",
    "quant_ratio_check",
    "ratio_f",
    "run_bessel_suite",
    "run_quant_suite",
    "run_spectra_suite",
    "run_suites",
    "run_variation_suite",
    "second_variation",
    "segura_bracket",
    "shifted_steklov",
    "solution_from_lambda",
    "solve_lambda",
    "square_vs_disk",
]
