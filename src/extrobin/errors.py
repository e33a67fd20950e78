"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: input and constraint
problems exit 1, solver and eigenvalue-regime problems exit 2, verification
violations exit 3.
"""


class ExtrobinError(Exception):
    """Base class for all package errors."""


class DomainError(ExtrobinError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeLimitError(ExtrobinError, ArithmeticError):
    """A value left the representable double-precision working range.

    Raised for unscaled Bessel requests that would overflow or underflow
    (use the scaled mode instead) and for coupling constants whose
    dispersion branch falls outside the supported z window [1e-8, 700].
    """


class NoDiscreteEigenvalueError(ExtrobinError):
    """alpha >= alpha_star: the exterior problem has no discrete eigenvalue."""


class SolverConvergenceError(ExtrobinError):
    """The root solver failed to converge within its iteration budget."""


class ConstraintViolationError(ExtrobinError, ValueError):
    """A perturbation spectrum violates an admissibility constraint."""


class MeasureConstraintError(ConstraintViolationError):
    """Nonzero degree-0 coefficient: the measure-preserving condition fails."""


class BarycenterConstraintError(ConstraintViolationError):
    """Nonzero degree-1 coefficient: the barycenter condition fails."""


class DegenerateSpectrumError(ExtrobinError, ValueError):
    """An all-zero spectrum was supplied where a ratio is required."""


class GridFileError(ExtrobinError, ValueError):
    """A grid or spectrum file could not be parsed or validated."""


def require_int(value, name: str, minimum: int) -> int:
    """``value`` unchanged if it is an integer ``>= minimum``; else ``DomainError``.

    ``bool`` is rejected although it subclasses ``int``.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value
