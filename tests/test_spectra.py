"""Exterior-ball spectral layer: dispersion solves, Steklov ladders,
multiplicities, and the boundary normalization."""

import math
import random
import warnings

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from extrobin import (
    BallGeometry,
    BesselOrder,
    DomainError,
    ExtrobinError,
    NoDiscreteEigenvalueError,
    RangeLimitError,
    alpha_of_lambda,
    alpha_star,
    count_discrete,
    harmonic_steklov,
    modified_bessel_K,
    multiplicity,
    shifted_steklov,
    solution_from_lambda,
    solve_lambda,
)
from tests.conftest import draw_solution, rel_err

mpmath.mp.dps = 40


def closed_tail_boundary_sq(n: int, R: float, z: float) -> float:
    """Independent u(R)^2 oracle from the antiderivative of t*K_nu(t)^2.

    int_z^inf t K_nu(t)^2 dt = (z^2/2)(K_{nu-1}(z)K_{nu+1}(z) - K_nu(z)^2),
    evaluated with scaled kernels so the e^{-2z} factors cancel against the
    numerator.
    """
    twice_nu = n - 2
    k_lo = modified_bessel_K(BesselOrder(twice_order=abs(twice_nu - 2)), z, scaled=True)
    k_mid = modified_bessel_K(BesselOrder(twice_order=twice_nu), z, scaled=True)
    k_hi = modified_bessel_K(BesselOrder(twice_order=twice_nu + 2), z, scaled=True)
    tail = (z * z / 2.0) * (k_lo * k_hi - k_mid * k_mid)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return z * z * k_mid * k_mid / (omega * R**n * tail)


def test_alpha_star_table() -> None:
    for n in range(3, 11):
        for R in (0.2, 1.0, 5.0):
            assert alpha_star(BallGeometry(n, R)) == -(n - 2) / R
    assert alpha_star(BallGeometry(2, 5.0)) == 0.0
    assert alpha_star(BallGeometry(5, 0.5)) == -6.0


def test_geometry_validation() -> None:
    with pytest.raises(DomainError):
        BallGeometry(1, 1.0)
    with pytest.raises(DomainError):
        BallGeometry(3, 0.0)
    with pytest.raises(DomainError):
        BallGeometry(3, -2.0)


def test_reference_solution(ref_solution) -> None:
    sol = ref_solution
    assert abs(sol.lam + 4.0) <= 1e-12
    assert abs(sol.z - 2.0) <= 1e-12
    assert abs(sol.y - 3.0) <= 1e-12
    assert abs(sol.K_const + 1.0) <= 1e-12
    assert abs(sol.a_val + 1.0) <= 1e-12
    assert rel_err(sol.u_boundary_sq, 1.0 / math.pi) <= 1e-12


def test_alpha_of_lambda_values() -> None:
    assert rel_err(alpha_of_lambda(BallGeometry(3, 1.0), -4.0), -3.0) <= 1e-14
    assert rel_err(alpha_of_lambda(BallGeometry(5, 1.0), -4.0), -13.0 / 3.0) <= 1e-14
    # alpha -> 0- along the dispersion branch for n = 2 (logarithmically slowly).
    assert -0.15 < alpha_of_lambda(BallGeometry(2, 1.0), -1e-6) < 0.0
    with pytest.raises(DomainError):
        alpha_of_lambda(BallGeometry(3, 1.0), 0.0)
    with pytest.raises(DomainError):
        alpha_of_lambda(BallGeometry(3, 1.0), 1.0)


def test_no_discrete_eigenvalue() -> None:
    with pytest.raises(NoDiscreteEigenvalueError):
        solve_lambda(BallGeometry(3, 1.0), -1.0 + 1e-9)
    with pytest.raises(NoDiscreteEigenvalueError):
        solve_lambda(BallGeometry(3, 1.0), -1.0)
    with pytest.raises(NoDiscreteEigenvalueError):
        solve_lambda(BallGeometry(2, 1.0), 0.0)


def test_range_limits() -> None:
    # Coupling too close to the threshold (z below the window) and too
    # strongly binding (z above it) both surface range errors.
    with pytest.raises(RangeLimitError):
        solve_lambda(BallGeometry(3, 1.0), -1.0 - 1e-13)
    with pytest.raises(RangeLimitError):
        solve_lambda(BallGeometry(3, 1.0), -800.0)
    with pytest.raises(RangeLimitError):
        solve_lambda(BallGeometry(2, 1.0), -1e-12)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 400),
    R=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    value=_FINITE,
    inverse=st.booleans(),
)
@example(n=3, R=1e-200, value=-1e201, inverse=False)
@example(n=3, R=1e200, value=-5e-200, inverse=False)
@example(n=3, R=1e-120, value=-3e120, inverse=False)
@example(n=400, R=1.0, value=-100.0, inverse=True)
def test_extreme_inputs_raise_only_typed_errors(n, R, value, inverse) -> None:
    # Overflow in (z/R)**2, R**n or the sphere area must surface as an
    # ExtrobinError, in both solve directions; R**n and the sphere area are
    # evaluated when u(R)^2 is first read.
    solve = solution_from_lambda if inverse else solve_lambda
    try:
        solve(BallGeometry(n, R), value).u_boundary_sq
    except ExtrobinError:
        pass


def test_failed_normalization_raises_on_read() -> None:
    # A valid near-threshold root whose quadrature fails: the solve returns,
    # and the failure surfaces, typed, where u(R)^2 is read.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_lambda(BallGeometry(6, 1.0), -4.000000000000001)
        assert sol.lam < 0.0 and sol.K_const < 0.0
        with pytest.raises(DomainError, match=r"^spectral solution requires K_const < 0 and u\^2 > 0$"):
            sol.u_boundary_sq


def test_n2_spot_solution() -> None:
    # Root of z*K_1(z)/K_0(z) = 1/2, pinned by an arbitrary-precision solve.
    sol = solve_lambda(BallGeometry(2, 1.0), -0.5)
    assert rel_err(sol.lam, -0.027463620926139019) <= 1e-12
    assert rel_err(alpha_of_lambda(sol.geom, sol.lam), -0.5) <= 1e-10


def test_n3_closed_form() -> None:
    # lambda = -(alpha + 1/R)^2 in three dimensions.
    for R in (0.3, 1.0, 4.0):
        for scale in (1.5, 3.0, 20.0):
            alpha = scale * alpha_star(BallGeometry(3, R))
            sol = solve_lambda(BallGeometry(3, R), alpha)
            assert rel_err(sol.lam, -((alpha + 1.0 / R) ** 2)) <= 1e-12


def test_solution_from_lambda_round_trip(solution_pool) -> None:
    for sol in solution_pool:
        back = solution_from_lambda(sol.geom, sol.lam)
        assert rel_err(back.alpha, sol.alpha) <= 1e-12
        assert rel_err(back.z, sol.z) <= 1e-15


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(seed: int) -> None:
    sol = draw_solution(random.Random(seed))
    assert rel_err(alpha_of_lambda(sol.geom, sol.lam), sol.alpha) <= 1e-10
    assert abs(sol.y - (-sol.alpha * sol.geom.R)) <= 1e-13 * abs(sol.y)
    assert sol.K_const < 0.0
    assert sol.lam < 0.0


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_monotone_in_coupling(seed: int) -> None:
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    R = 1.0
    geom = BallGeometry(n, R)
    base = -0.5 if n == 2 else 1.2 * alpha_star(geom)
    alphas = sorted([base * f for f in (1.0, 1.5, 2.5, 6.0)])
    lams = [solve_lambda(geom, a).lam for a in alphas]
    # alpha ascending toward the threshold must give lambda ascending to 0-.
    assert all(l1 < l2 for l1, l2 in zip(lams, lams[1:]))


def test_radial_monotonicity() -> None:
    lams = [solve_lambda(BallGeometry(3, R), -3.0).lam for R in (1.0, 1.5, 2.0, 3.0)]
    assert all(l2 <= l1 for l1, l2 in zip(lams, lams[1:]))


def test_steklov_reference(ref_solution) -> None:
    levels = shifted_steklov(ref_solution, 2)
    assert levels[0].mu == 0.0
    assert abs(levels[1].mu - 1.0 / 3.0) <= 1e-12
    assert abs(levels[2].mu - 12.0 / 13.0) <= 1e-12
    assert [l.dim for l in levels] == [1, 3, 5]


def test_steklov_ordering(solution_pool) -> None:
    for sol in solution_pool[:12]:
        mus = [level.mu for level in shifted_steklov(sol, 21)]
        assert mus[0] == 0.0
        assert all(m1 < m2 for m1, m2 in zip(mus, mus[1:]))


def test_steklov_first_level_identity(solution_pool) -> None:
    # mu_1 = K/alpha, equivalently y*R*mu_1 = -a_n(z).
    for sol in solution_pool[:12]:
        mu1 = shifted_steklov(sol, 1)[1].mu
        assert rel_err(mu1, sol.K_const / sol.alpha) <= 1e-12


def test_multiplicity_table() -> None:
    assert [multiplicity(2, k) for k in range(4)] == [1, 2, 2, 2]
    assert [multiplicity(3, k) for k in range(5)] == [1, 3, 5, 7, 9]
    assert multiplicity(3, 2) == 5
    assert multiplicity(2, 3) == 2
    assert multiplicity(4, 1) == 4
    for n in range(2, 8):
        assert multiplicity(n, 0) == 1


def test_harmonic_steklov() -> None:
    levels = harmonic_steklov(BallGeometry(3, 1.0), 2)
    assert [l.mu for l in levels] == [1.0, 2.0, 3.0]
    assert [l.dim for l in levels] == [1, 3, 5]
    assert harmonic_steklov(BallGeometry(4, 2.0), 0)[0].mu == 1.0
    with pytest.raises(DomainError):
        harmonic_steklov(BallGeometry(2, 1.0), 3)
    # alpha_star equals minus the lowest harmonic Steklov level.
    for n in (3, 5, 9):
        geom = BallGeometry(n, 0.7)
        assert alpha_star(geom) == -harmonic_steklov(geom, 0)[0].mu


def test_steklov_harmonic_limit() -> None:
    # Weak coupling: mu_k(z) - alpha approaches the harmonic level (n-2+k)/R.
    geom = BallGeometry(4, 1.0)
    alpha = 1.0000001 * alpha_star(geom)
    sol = solve_lambda(geom, alpha)
    for level, harm in zip(shifted_steklov(sol, 3), harmonic_steklov(geom, 3)):
        assert abs(level.mu - alpha - harm.mu) <= 1e-3


def _count_by_levels(geom: BallGeometry, alpha: float, with_multiplicity: bool) -> int:
    """The level-by-level sum that count_discrete replaces by a closed form."""
    if alpha >= alpha_star(geom):
        return 0
    total = 0
    l = 0
    while (geom.n - 2 + l) / geom.R < -alpha:
        total += multiplicity(geom.n, l) if with_multiplicity else 1
        l += 1
    return total


def test_count_discrete_closed_form_matches_level_sum() -> None:
    for n in range(3, 13):
        for R in (0.3, 1.0, 7.0):
            geom = BallGeometry(n, R)
            for l in range(25):
                edge = -(n - 2 + l) / R
                for alpha in (edge, math.nextafter(edge, -math.inf),
                              math.nextafter(edge, math.inf), edge - 0.5 / R):
                    for weighted in (True, False):
                        assert count_discrete(geom, alpha, with_multiplicity=weighted) == (
                            _count_by_levels(geom, alpha, weighted)
                        )


def test_count_discrete() -> None:
    geom = BallGeometry(3, 1.0)
    assert count_discrete(geom, -1.5) == 1
    assert count_discrete(geom, -2.5) == 4
    assert count_discrete(geom, -0.5) == 0
    assert count_discrete(geom, -2.5, with_multiplicity=False) == 2
    # 10**10 - 1 levels lie below 1e10, counted at once; at n = 3 the count
    # with multiplicity is their number squared.
    assert count_discrete(geom, -1e10) == (10**10 - 1) ** 2
    assert count_discrete(geom, -1e10, with_multiplicity=False) == 10**10 - 1
    with pytest.raises(DomainError):
        count_discrete(BallGeometry(2, 1.0), -3.0)
    with pytest.raises(RangeLimitError):
        count_discrete(BallGeometry(3, 1e10), -1e300)


def test_normalization_against_closed_tail(solution_pool) -> None:
    for sol in solution_pool:
        oracle = closed_tail_boundary_sq(sol.geom.n, sol.geom.R, sol.z)
        assert rel_err(sol.u_boundary_sq, oracle) <= 1e-9


def test_normalization_against_mpmath(ref_solution) -> None:
    # Full arbitrary-precision quadrature of the tail integral at n = 2.
    sol = solve_lambda(BallGeometry(2, 1.0), -1.0)
    z = mpmath.mpf(sol.z)
    tail = mpmath.quad(lambda t: t * mpmath.besselk(0, t) ** 2, [z, mpmath.inf])
    oracle = float(sol.z**2 * mpmath.besselk(0, z) ** 2 / (2 * mpmath.pi * tail))
    assert rel_err(sol.u_boundary_sq, oracle) <= 1e-10
