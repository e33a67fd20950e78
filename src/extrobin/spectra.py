"""Principal Robin eigenvalue of the Laplacian outside a ball.

On the exterior of a ball of radius ``R`` in ``n`` dimensions, the Robin
condition ``du/dnu = alpha*u`` (outward normal pointing into the ball's
complement) admits a discrete eigenvalue below the essential spectrum
``[0, inf)`` exactly when ``alpha < alpha_star = -(n-2)/R`` (``0`` for
``n = 2``).  Writing ``z = R*sqrt(-lambda)`` and ``y = -alpha*R``, the
eigenvalue is characterised by the dispersion relation ``ratio_f(n, z) = y``
whose left side is strictly increasing from ``n - 2`` to infinity, so the
discrete eigenvalue is unique and simple.

This module solves the dispersion relation, evaluates the boundary value of
the L2-normalised radial eigenfunction, and produces the two Steklov-type
spectra attached to the solution: the shifted spectrum ``mu_k`` built from
ratios of modified Bessel functions and the harmonic spectrum
``(n - 2 + l)/R`` of the exterior Dirichlet-to-Neumann map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .bessel import (
    UNSCALED_Z_MAX,
    _g_ladder,
    _k_scaled,
    gap_a,
    ratio_f,
    segura_bracket,
)
from .errors import (
    DomainError,
    NoDiscreteEigenvalueError,
    RangeLimitError,
    SolverConvergenceError,
    require_int,
)

# Supported window for z = R*sqrt(-lambda).  Below Z_MIN the dispersion
# curve is flat to within double rounding (f_n(z) - (n-2) underflows the
# significand for n >= 5), above Z_MAX unscaled Bessel factors leave the
# double range.
Z_MIN = 1e-8
Z_MAX = UNSCALED_Z_MAX

_MAX_EVALS = 200
_BISECT_REL_WIDTH = 1e-12
_RESIDUAL_REL = 1e-13
_SECANT_POLISHES = 5


@dataclass(frozen=True)
class BallGeometry:
    """Exterior ball domain: dimension ``n >= 2`` and radius ``R > 0``."""

    n: int
    R: float

    def __post_init__(self) -> None:
        require_int(self.n, "dimension", 2)
        if not math.isfinite(self.R) or self.R <= 0.0:
            raise DomainError(f"radius must be positive and finite, got {self.R}")


@dataclass(frozen=True)
class SpectralSolution:
    """Solved principal eigenvalue together with its derived quantities.

    Stored: the geometry, ``alpha``, the root ``z = R*sqrt(-lam)`` of the
    dispersion relation and ``a_val = gap_a(n, z)``.  Derived from those:
    ``lam = -(z/R)**2``, ``y = -alpha*R`` and ``K_const = a_val / R**2``,
    which equals ``alpha**2 + alpha*(n-1)/R + lam``.  Construction raises
    ``DomainError`` unless ``lam < 0`` and ``K_const < 0``, and
    ``RangeLimitError`` when ``lam`` or ``K_const`` underflows to zero.

    ``u_boundary_sq``, the square of the eigenfunction at the boundary under
    unit L2 norm, is integrated on first read and cached.  That read raises
    ``DomainError`` unless the value is positive, and ``RangeLimitError``
    when ``R**n`` or the sphere area leaves the double range.
    """

    geom: BallGeometry
    alpha: float
    z: float
    a_val: float

    @property
    def lam(self) -> float:
        return -((self.z / self.geom.R) ** 2)

    @property
    def y(self) -> float:
        return -self.alpha * self.geom.R

    @property
    def K_const(self) -> float:
        R = self.geom.R
        return self.a_val / (R * R)

    @cached_property
    def u_boundary_sq(self) -> float:
        """``u(R)^2`` under unit L2 norm, integrated on first read."""
        n, R = self.geom.n, self.geom.R
        try:
            value = _boundary_sq(n, R, self.z)
        except (OverflowError, ZeroDivisionError) as exc:
            # R**n or the sphere area's gamma leaves the double range.
            raise _range_error(n, R, self.z, f"{type(exc).__name__}: {exc}") from exc
        if not value > 0.0:
            raise DomainError("spectral solution requires K_const < 0 and u^2 > 0")
        return value

    def __post_init__(self) -> None:
        if self.z > 0.0 and self.a_val < 0.0 and (self.lam == 0.0 or self.K_const == 0.0):
            # R is so large that -(z/R)**2 or a_val/R**2 underflows.
            n, R = self.geom.n, self.geom.R
            raise _range_error(n, R, self.z, "lambda or K underflows to zero")
        if not (self.lam < 0.0 and self.z > 0.0 and self.y > 0.0):
            raise DomainError("spectral solution requires lam < 0 and z, y > 0")
        if not self.K_const < 0.0:
            raise DomainError("spectral solution requires K_const < 0 and u^2 > 0")


@dataclass(frozen=True)
class SteklovLevel:
    """One level of a Steklov-type spectrum on the sphere.

    ``k`` indexes the spherical-harmonic degree, ``mu`` is the level value
    and ``dim`` the dimension of the degree-``k`` harmonic space.
    """

    k: int
    mu: float
    dim: int


def _sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in ``n`` dimensions."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def alpha_star(geom: BallGeometry) -> float:
    """Critical Robin parameter: discrete spectrum exists iff alpha < alpha_star."""
    return 0.0 if geom.n == 2 else -(geom.n - 2) / geom.R


def multiplicity(n: int, k: int) -> int:
    """Dimension of the space of degree-``k`` spherical harmonics on S^{n-1}.

    Equals C(n+k-1, n-1) - C(n+k-3, n-1); in particular 1 for ``k = 0``
    and ``n`` for ``k = 1``.
    """
    require_int(n, "dimension", 2)
    require_int(k, "harmonic degree", 0)
    return _dim(n, k)


def _dim(n: int, k: int) -> int:
    """``multiplicity(n, k)`` for arguments the caller has validated."""
    lower = math.comb(n + k - 3, n - 1) if n + k - 3 >= 0 else 0
    return math.comb(n + k - 1, n - 1) - lower


def alpha_of_lambda(geom: BallGeometry, lam: float) -> float:
    """Robin parameter whose principal exterior eigenvalue equals ``lam``.

    Inverts the dispersion relation in closed direction:
    ``alpha = -ratio_f(n, R*sqrt(-lam)) / R``.  Requires ``lam < 0``; the
    resulting ``z`` must lie in the supported window.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    if lam >= 0.0:
        raise DomainError(
            f"lambda must be negative (essential spectrum is [0, inf)), got {lam}"
        )
    z = geom.R * math.sqrt(-lam)
    _check_z_window(z)
    return -ratio_f(geom.n, z) / geom.R


def _check_z_window(z: float) -> None:
    if z < Z_MIN or z > Z_MAX:
        raise RangeLimitError(
            f"z = {z:.6g} outside supported window [{Z_MIN:g}, {Z_MAX:g}]"
        )


def _solve_z(n: int, y: float) -> float:
    """Root of ``ratio_f(n, .) = y`` by bracketed bisection plus secant polish.

    The initial bracket comes from the Steed/Segura two-sided bound and is
    clamped to the supported window.  Bisection runs to relative width
    1e-12, then at most five secant steps sharpen the residual.  The total
    evaluation budget is 200.
    """
    lo, hi = segura_bracket(n, y)
    lo = max(lo, Z_MIN)
    hi = min(hi, Z_MAX)
    if lo > hi:
        raise RangeLimitError(
            f"dispersion root for y = {y:.6g} lies outside the z window"
        )

    evals = 0

    def g(z: float) -> float:
        nonlocal evals
        evals += 1
        if evals > _MAX_EVALS:
            raise SolverConvergenceError(
                f"dispersion solve exceeded {_MAX_EVALS} evaluations"
            )
        return ratio_f(n, z) - y

    glo = g(lo)
    ghi = g(hi)
    if glo > 0.0 or ghi < 0.0:
        raise RangeLimitError(
            f"bracket [{lo:.6g}, {hi:.6g}] does not straddle the root for y = {y:.6g}"
        )
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi

    while hi - lo > _BISECT_REL_WIDTH * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm < 0.0:
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm

    z0, g0 = lo, glo
    z1, g1 = hi, ghi
    best_z, best_g = (z1, g1) if abs(g1) < abs(g0) else (z0, g0)
    for _ in range(_SECANT_POLISHES):
        if g1 == g0:
            break
        z2 = z1 - g1 * (z1 - z0) / (g1 - g0)
        if not (lo <= z2 <= hi):
            z2 = 0.5 * (lo + hi)
        g2 = g(z2)
        if abs(g2) < abs(best_g):
            best_z, best_g = z2, g2
        z0, g0, z1, g1 = z1, g1, z2, g2
        if abs(g2) <= 0.1 * _RESIDUAL_REL * y:
            break

    if abs(best_g) > _RESIDUAL_REL * y:
        raise SolverConvergenceError(
            f"dispersion residual {abs(best_g):.3e} exceeds {_RESIDUAL_REL * y:.3e}"
        )
    return best_z


def _range_error(n: int, R: float, z: float, reason: str) -> RangeLimitError:
    return RangeLimitError(
        f"solution at n = {n}, R = {R:g}, z = {z:.6g} leaves the double range ({reason})"
    )


def _solution_from_z(geom: BallGeometry, alpha: float, z: float) -> SpectralSolution:
    try:
        return SpectralSolution(geom=geom, alpha=alpha, z=z, a_val=gap_a(geom.n, z))
    except (OverflowError, ZeroDivisionError) as exc:
        # (z/R)**2 overflows or R*R underflows to zero.
        raise _range_error(geom.n, geom.R, z, f"{type(exc).__name__}: {exc}") from exc


def solve_lambda(geom: BallGeometry, alpha: float) -> SpectralSolution:
    """Principal Robin eigenvalue outside the ball for parameter ``alpha``.

    Raises ``NoDiscreteEigenvalueError`` when ``alpha >= alpha_star`` (the
    spectrum is purely essential, including at equality), and
    ``RangeLimitError`` when the root's ``z = R*sqrt(-lambda)`` falls
    outside the supported window.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    n, R = geom.n, geom.R
    crit = alpha_star(geom)
    if alpha >= crit:
        raise NoDiscreteEigenvalueError(
            f"no discrete eigenvalue: alpha = {alpha:g} is not below "
            f"alpha_star = {crit:g} for n = {n}, R = {R:g}"
        )
    y = -alpha * R
    if y < ratio_f(n, Z_MIN):
        raise RangeLimitError(
            f"alpha = {alpha:g} is too close to alpha_star = {crit:g}: "
            f"the eigenvalue's z falls below {Z_MIN:g}"
        )
    if y > ratio_f(n, Z_MAX):
        raise RangeLimitError(
            f"alpha = {alpha:g} is too strongly binding: the eigenvalue's z "
            f"exceeds {Z_MAX:g}"
        )
    z = _solve_z(n, y)
    return _solution_from_z(geom, alpha, z)


def solution_from_lambda(geom: BallGeometry, lam: float) -> SpectralSolution:
    """Solution record at a prescribed eigenvalue (inverse direction).

    Computes ``alpha = alpha_of_lambda(geom, lam)`` and assembles the full
    record without root-finding, since ``z`` is known exactly.
    """
    alpha = alpha_of_lambda(geom, lam)
    z = geom.R * math.sqrt(-lam)
    return _solution_from_z(geom, alpha, z)


def _boundary_sq(n: int, R: float, z: float) -> float:
    """Square of the L2-normalised radial eigenfunction at the boundary.

    With ``nu = (n-2)/2`` and scaled kernels ``Kt(t) = e^t K_nu(t)``, the
    radial L2 mass reduces to the one-dimensional integral

        J = int_0^inf (z + s) * Kt(z + s)^2 * exp(-2 s) ds,

    and ``u(R)^2 = z^2 Kt(z)^2 / (omega_{n-1} R^n J)`` where ``omega_{n-1}``
    is the unit-sphere area.  The scaled form keeps every factor in double
    range for all supported ``z``.
    """
    # Imported here: SciPy is most of a cold start, and only this quadrature uses it.
    from scipy.integrate import quad
    two_nu = n - 2
    kz = _k_scaled(two_nu, z)

    def integrand(s: float) -> float:
        t = z + s
        kt = _k_scaled(two_nu, t)
        return t * kt * kt * math.exp(-2.0 * s)

    # exp(-2s) tail beyond s = 40 is below 1e-34 relative.
    val, _err = quad(integrand, 0.0, 40.0, points=[1.0], limit=200,
                     epsabs=0.0, epsrel=1e-12)
    omega = _sphere_area(n)
    return z * z * kz * kz / (omega * R**n * val)


def shifted_steklov(sol: SpectralSolution, k_max: int) -> list[SteklovLevel]:
    """Shifted Steklov levels ``mu_k`` of the solved exterior problem.

    ``mu_k = (ratio_f(n + 2k, z) - k - y) / R`` is the degree-``k``
    Dirichlet-to-Neumann level of ``-Delta - lambda`` on the exterior,
    shifted by the principal Robin value ``-alpha = y/R`` so that
    ``mu_0 = 0``.  In the gap variables ``g_m = ratio_f(m, z) - z - (m-1)/2``
    the degree term cancels algebraically, ``mu_k = (g_{n+2k} - g_n)/R``,
    which makes the ``k = 0`` level ``(g_n - g_n)/R``, exactly zero, and
    keeps large levels fully accurate.  Levels are strictly increasing in
    ``k`` and each carries ``multiplicity(n, k)``.
    """
    require_int(k_max, "k_max", 0)
    n, R = sol.geom.n, sol.geom.R
    gs = _g_ladder(n + 2 * k_max, sol.z)
    base = len(gs) - 1 - k_max
    g_n = gs[base]
    return [
        SteklovLevel(k=k, mu=(gs[base + k] - g_n) / R, dim=_dim(n, k))
        for k in range(k_max + 1)
    ]


def harmonic_steklov(geom: BallGeometry, l_max: int) -> list[SteklovLevel]:
    """Exterior harmonic Steklov levels ``(n - 2 + l)/R`` for ``n >= 3``.

    These are the Dirichlet-to-Neumann eigenvalues of the exterior harmonic
    extension decaying at infinity; for ``n = 2`` the degree-zero mode has
    no decaying harmonic extension with finite energy, so the spectrum is
    not defined here.
    """
    if geom.n < 3:
        raise DomainError("harmonic Steklov spectrum requires n >= 3")
    require_int(l_max, "l_max", 0)
    return [
        SteklovLevel(k=l, mu=(geom.n - 2 + l) / geom.R, dim=_dim(geom.n, l))
        for l in range(l_max + 1)
    ]


def count_discrete(geom: BallGeometry, alpha: float, *, with_multiplicity: bool = True) -> int:
    """Number of discrete exterior Robin eigenvalues.

    For ``n >= 3`` the count equals the number of harmonic Steklov levels
    strictly below ``-alpha``, each weighted by its harmonic multiplicity
    (or by one when ``with_multiplicity`` is false); it is zero when
    ``alpha >= alpha_star``.  With ``L`` such levels the weighted sum
    telescopes to ``C(n+L-2, n-1) + C(n+L-3, n-1)``, which is ``L**2`` for
    ``n = 3``.
    """
    if geom.n < 3:
        raise DomainError("count_discrete requires n >= 3")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if alpha >= alpha_star(geom):
        return 0
    n, R = geom.n, geom.R
    if not math.isfinite(2.0 * alpha * R):
        raise RangeLimitError(
            f"alpha = {alpha:g} at R = {R:g}: the level count leaves the double range"
        )
    # L is the first degree l with (n-2+l)/R >= -alpha.  That float test is
    # monotone in l, so bisection finds the boundary a walk over the levels
    # finds; degree 0 lies below since alpha < alpha_star, and degree
    # 2*(-alpha*R) + 2 does not.
    lo, hi = 1, 2 * math.ceil(-alpha * R) + 2
    while lo < hi:
        mid = (lo + hi) // 2
        if (n - 2 + mid) / R < -alpha:
            lo = mid + 1
        else:
            hi = mid
    if not with_multiplicity:
        return lo
    return math.comb(n + lo - 2, n - 1) + math.comb(n + lo - 3, n - 1)
