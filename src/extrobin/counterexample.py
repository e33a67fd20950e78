"""Ellipsoid and square comparisons against the equal-volume ball.

In the strong-coupling regime ``alpha -> -inf`` the principal exterior
Robin eigenvalue of a smooth convex body expands as

    lambda(alpha) = -alpha^2 + (n-1) * H_max * alpha + o(alpha),

where ``H_max`` is the largest mean curvature of the boundary with respect
to the outward normal of the exterior domain (so ``H_max = -1/R`` for a
ball of radius ``R``).  Comparing the quadratic truncations of an elongated
(prolate) ellipsoid and of the ball of equal volume shows the ball is not
the global maximiser: for aspect ratios below an explicit threshold the
ellipsoid's truncation exceeds the ball's for every sufficiently strong
coupling.

The planar companion compares the square (flat sides, ``H_max = 0``) with
the unit disk at the same truncation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SolverConvergenceError, require_int

_THRESHOLD_SCAN_POINTS = 2048
_THRESHOLD_WIDTH = 1e-10


@dataclass(frozen=True)
class EllipsoidSpec:
    """Elongated (prolate) ellipsoid: unit semi-axes except the last one, ``1/a > 1``.

    The surface is ``x_1^2 + ... + x_{n-1}^2 + a^2 x_n^2 = 1`` with aspect
    parameter ``a`` strictly between 0 and 1, so the body is elongated
    along the last axis and its volume is ``1/a`` times the unit ball's.
    """

    n: int
    a: float

    def __post_init__(self) -> None:
        require_int(self.n, "ellipsoid dimension", 3)
        if not (isinstance(self.a, float) and math.isfinite(self.a)):
            raise DomainError(f"aspect parameter must be a finite float, got {self.a!r}")
        if not 0.0 < self.a < 1.0:
            raise DomainError(
                f"aspect parameter must lie strictly in (0, 1), got {self.a}"
            )


@dataclass(frozen=True)
class AsymptoticModel:
    """Quadratic strong-coupling truncation ``-alpha^2 + (n-1) h_max alpha``."""

    n: int
    h_max: float

    def __post_init__(self) -> None:
        require_int(self.n, "dimension", 2)
        if not math.isfinite(self.h_max):
            raise DomainError(f"h_max must be finite, got {self.h_max}")

    def evaluate(self, alpha: float) -> float:
        """Truncation value at coupling ``alpha < 0``."""
        if not math.isfinite(alpha) or alpha >= 0.0:
            raise DomainError(
                f"asymptotic model applies to alpha < 0, got {alpha}"
            )
        return -alpha * alpha + (self.n - 1) * self.h_max * alpha


@dataclass(frozen=True)
class HynakResult:
    """Outcome of the ellipsoid-exceeds-ball criterion at one aspect ratio.

    ``gap`` is the criterion function ``g(a) = n - 2 + a^2 - (n-1) a^{1/n}``;
    the ellipsoid's truncation dominates the equal-volume ball's for all
    strong couplings exactly when ``gap > 0``.  Truthiness follows
    ``holds``.
    """

    holds: bool
    gap: float

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ComparisonResult:
    """Quadratic-truncation comparison of two exterior domains at one coupling."""

    alpha: float
    lambda_first: float
    lambda_second: float
    delta: float
    first_exceeds: bool
    note: str


def ellipsoid_hmax(spec: EllipsoidSpec) -> float:
    """Largest mean curvature of the ellipsoid seen from the exterior.

    At axis coordinate ``x`` in ``[-1/a, 1/a]``, with
    ``D = 1 + a^2 (a^2 - 1) x^2``, the ``n - 2`` rotationally symmetric
    principal curvatures are ``1/sqrt(D)`` and the meridian curvature is
    ``a^2 / D^{3/2}``.  The mean curvature
    ``-((n-2)/sqrt(D) + a^2/D^{3/2})/(n-1)`` is maximal on the equator
    ``x = 0``, giving ``-(n - 2 + a^2)/(n - 1)``.
    """
    return -(spec.n - 2 + spec.a * spec.a) / (spec.n - 1)


def equivalent_ball_radius(spec: EllipsoidSpec) -> float:
    """Radius of the ball with the ellipsoid's volume: ``a^{-1/n}``."""
    return spec.a ** (-1.0 / spec.n)


def _criterion_gap(n: int, a: float) -> float:
    return n - 2 + a * a - (n - 1) * a ** (1.0 / n)


def hynak_check(n: int, a: float) -> HynakResult:
    """Does the aspect-``a`` ellipsoid beat the equal-volume ball asymptotically?

    Evaluates ``g(a) = n - 2 + a^2 - (n-1) a^{1/n}``; the truncation gap is
    ``delta(alpha) = -alpha * g(a)``, positive for every ``alpha < 0``
    exactly when ``g(a) > 0``.
    """
    EllipsoidSpec(n=n, a=float(a))
    return HynakResult(holds=_criterion_gap(n, float(a)) > 0.0, gap=_criterion_gap(n, float(a)))


def hynak_threshold(n: int) -> float:
    """Aspect threshold ``a_star``: the criterion holds for ``0 < a < a_star``.

    ``g`` is positive near 0 (limit ``n - 2 > 0``), has a single interior
    zero, and returns to zero from below at ``a = 1``.  The zero is
    bracketed on a scan grid and bisected to width 1e-10.
    """
    require_int(n, "threshold dimension", 3)
    lo = None
    hi = None
    prev_a = 1.0 / _THRESHOLD_SCAN_POINTS
    prev_g = _criterion_gap(n, prev_a)
    for idx in range(2, _THRESHOLD_SCAN_POINTS):
        a = idx / _THRESHOLD_SCAN_POINTS
        g = _criterion_gap(n, a)
        if prev_g > 0.0 >= g:
            lo, hi = prev_a, a
            break
        prev_a, prev_g = a, g
    if lo is None:
        raise SolverConvergenceError(
            f"criterion sign change not found on scan grid for n = {n}"
        )
    while hi - lo > _THRESHOLD_WIDTH:
        mid = 0.5 * (lo + hi)
        if _criterion_gap(n, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def compare_ellipsoid_ball(spec: EllipsoidSpec, alpha: float) -> ComparisonResult:
    """Compare quadratic truncations of the ellipsoid and the equal-volume ball.

    ``delta = lambda_first - lambda_second = -alpha * g(a)`` exceeds zero
    exactly when the criterion holds; the ``o(alpha)`` remainders of both
    expansions are not modelled.
    """
    ell = AsymptoticModel(n=spec.n, h_max=ellipsoid_hmax(spec))
    ball = AsymptoticModel(n=spec.n, h_max=-(spec.a ** (1.0 / spec.n)))
    lam_e = ell.evaluate(alpha)
    lam_b = ball.evaluate(alpha)
    return ComparisonResult(
        alpha=alpha,
        lambda_first=lam_e,
        lambda_second=lam_b,
        delta=lam_e - lam_b,
        first_exceeds=hynak_check(spec.n, spec.a).holds,
        note=(
            "quadratic truncations at strong coupling; o(alpha) remainders "
            "are not modelled"
        ),
    )


def square_vs_disk(alpha: float) -> ComparisonResult:
    """Compare quadratic truncations of the square and the unit disk exteriors.

    The square's sides are flat, so its curvature term vanishes and the
    truncation is ``-alpha^2``; the unit disk gives ``-alpha^2 - alpha``.
    The disk's truncation is larger for every ``alpha < 0``: corners do
    not help at this order, and the gap ``delta = alpha`` is negative.
    """
    square = AsymptoticModel(n=2, h_max=0.0)
    disk = AsymptoticModel(n=2, h_max=-1.0)
    lam_s = square.evaluate(alpha)
    lam_d = disk.evaluate(alpha)
    return ComparisonResult(
        alpha=alpha,
        lambda_first=lam_s,
        lambda_second=lam_d,
        delta=lam_s - lam_d,
        first_exceeds=lam_s > lam_d,
        note=(
            "square (flat sides, curvature term zero) vs unit disk at the "
            "quadratic truncation; corner contributions are o(alpha)"
        ),
    )
