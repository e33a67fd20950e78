"""Ellipsoid and square counterexamples: the largest mean curvature, the
criterion gap and its thresholds, and quadratic-truncation comparisons."""

import mpmath
import pytest

from extrobin import (
    AsymptoticModel,
    BallGeometry,
    DomainError,
    EllipsoidSpec,
    alpha_star,
    compare_ellipsoid_ball,
    ellipsoid_hmax,
    equivalent_ball_radius,
    hynak_check,
    hynak_threshold,
    solve_lambda,
    square_vs_disk,
)
from tests.conftest import rel_err

mpmath.mp.dps = 40


def test_spec_validation() -> None:
    with pytest.raises(DomainError):
        EllipsoidSpec(n=2, a=0.5)
    with pytest.raises(DomainError):
        EllipsoidSpec(n=3, a=0.0)
    with pytest.raises(DomainError):
        EllipsoidSpec(n=3, a=1.0)
    with pytest.raises(DomainError):
        EllipsoidSpec(n=3, a=1.2)


def test_hmax() -> None:
    assert ellipsoid_hmax(EllipsoidSpec(n=3, a=0.5)) == -0.625
    # Sphere limit: h_max -> -1 and equivalent radius -> 1, monotonically.
    h_prev, r_prev = None, None
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
        h = ellipsoid_hmax(EllipsoidSpec(n=3, a=a))
        r = equivalent_ball_radius(EllipsoidSpec(n=3, a=a))
        if h_prev is not None:
            assert h < h_prev
            assert r < r_prev
        h_prev, r_prev = h, r
    assert abs(ellipsoid_hmax(EllipsoidSpec(n=3, a=1.0 - 1e-9)) + 1.0) <= 1e-8
    assert abs(equivalent_ball_radius(EllipsoidSpec(n=3, a=1.0 - 1e-9)) - 1.0) <= 1e-9


def test_asymptotic_model() -> None:
    model = AsymptoticModel(n=3, h_max=-1.0)
    # -alpha^2 + (n-1) h_max alpha = -100 + 2*(-1)*(-10) = -80.
    assert model.evaluate(-10.0) == -80.0
    with pytest.raises(DomainError):
        model.evaluate(0.0)
    with pytest.raises(DomainError):
        model.evaluate(1.0)


def test_hynak_check() -> None:
    assert hynak_check(3, 0.1).holds
    assert bool(hynak_check(3, 0.1))
    assert not hynak_check(3, 0.95).holds
    assert hynak_check(3, 0.1).gap > 0.0
    assert hynak_check(3, 0.95).gap < 0.0
    # The gap closes continuously at the sphere.
    assert abs(hynak_check(3, 1.0 - 1e-9).gap) <= 1e-8


def test_hynak_threshold_against_oracle() -> None:
    for n in (3, 4, 5, 10):
        got = hynak_threshold(n)
        oracle = float(
            mpmath.findroot(
                lambda t, n=n: n - 2 + t * t - (n - 1) * t ** (mpmath.mpf(1) / n),
                mpmath.mpf("0.2"),
            )
        )
        assert abs(got - oracle) <= 1e-9
        # Criterion holds strictly below the threshold, fails above it.
        assert hynak_check(n, got - 1e-6).holds
        assert not hynak_check(n, got + 1e-6).holds


def test_compare_ellipsoid_ball() -> None:
    res = compare_ellipsoid_ball(EllipsoidSpec(n=3, a=0.1), -50.0)
    assert res.delta > 0.0
    assert rel_err(res.delta, 50.0 * (1.0 + 0.01 - 2.0 * 0.1 ** (1.0 / 3.0))) <= 1e-12
    assert res.first_exceeds
    assert "not modelled" in res.note
    rev = compare_ellipsoid_ball(EllipsoidSpec(n=3, a=0.95), -50.0)
    assert rev.delta < 0.0
    assert not rev.first_exceeds


def test_truncation_defect_n3() -> None:
    # n = 3 balls: exact lambda = -(alpha + 1/R)^2 makes the quadratic
    # truncation defect exactly -1/R^2.
    for R in (0.5, 1.0, 2.0):
        model = AsymptoticModel(n=3, h_max=-1.0 / R)
        for alpha in (-10.0, -100.0, -300.0):
            lam = solve_lambda(BallGeometry(3, R), alpha * 1.0).lam
            defect = lam - model.evaluate(alpha)
            assert abs(defect + 1.0 / (R * R)) <= 1e-9 * max(1.0, abs(lam))


def test_perimeter_reduction_order() -> None:
    # Fixed coupling below the larger ball's threshold: shrinking the radius
    # raises the eigenvalue, so surface-area optimality propagates to
    # measure optimality through the isoperimetric chain.
    for r1, r2 in ((2.0, 1.0), (3.0, 0.5), (1.5, 1.4)):
        # The smaller ball has the more negative threshold; stay below both.
        alpha = 1.5 * alpha_star(BallGeometry(3, r2))
        lam_big = solve_lambda(BallGeometry(3, r1), alpha).lam
        lam_small = solve_lambda(BallGeometry(3, r2), alpha).lam
        assert lam_big <= lam_small


def test_square_vs_disk() -> None:
    res = square_vs_disk(-10.0)
    assert res.lambda_first == -100.0
    assert res.lambda_second == -90.0
    assert res.delta == -10.0
    assert not res.first_exceeds
    res1 = square_vs_disk(-1.0)
    assert res1.lambda_first == -1.0 and res1.lambda_second == 0.0
    small = square_vs_disk(-1e-9)
    assert abs(small.lambda_first) <= 1e-8 and abs(small.lambda_second) <= 1e-8
    with pytest.raises(DomainError):
        square_vs_disk(0.0)
