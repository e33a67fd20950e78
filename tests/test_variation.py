"""Shape-variation layer: mode coefficients, second variations, the
decomposition identity, constraint handling, and the quantitative bound."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from extrobin import (
    BallGeometry,
    BarycenterConstraintError,
    DegenerateSpectrumError,
    DomainError,
    GridConfig,
    MeasureConstraintError,
    PerturbationSpectrum,
    certify_negativity,
    first_variation,
    mode_coefficient,
    quant_bound,
    quant_ratio_check,
    second_variation,
    shifted_steklov,
    solve_lambda,
)
from tests.conftest import draw_solution, draw_spectrum, rel_err


def proof_identity_L(sol, k: int) -> float:
    """Independent L(k) oracle: R^4 mu_k L = -2a^2 - yR mu_k (2a + k^2 + (n-2)k - (n-1))."""
    n, R = sol.geom.n, sol.geom.R
    mu_k = shifted_steklov(sol, k)[k].mu
    a = sol.a_val
    rhs = -2.0 * a * a - sol.y * R * mu_k * (2.0 * a + k * k + (n - 2) * k - (n - 1))
    return rhs / (R**4 * mu_k)


def test_first_variation(ref_solution) -> None:
    assert rel_err(first_variation(ref_solution, 1.0), -1.0 / math.pi) <= 1e-12
    assert first_variation(ref_solution, 0.0) == 0.0
    assert rel_err(first_variation(ref_solution, -2.0), 2.0 / math.pi) <= 1e-12


def test_mode_coefficient_reference(ref_solution) -> None:
    assert abs(mode_coefficient(ref_solution, 2) + 49.0 / 6.0) <= 1e-12
    assert abs(mode_coefficient(ref_solution, 1)) <= 1e-9
    with pytest.raises(DomainError):
        mode_coefficient(ref_solution, 0)


def test_mode_coefficient_n2() -> None:
    sol = solve_lambda(BallGeometry(2, 1.0), -2.0)
    val = mode_coefficient(sol, 2)
    assert val < 0.0
    assert rel_err(val, proof_identity_L(sol, 2)) <= 1e-11


@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=2, max_value=12))
@settings(max_examples=60, deadline=None)
def test_mode_coefficient_identity_property(seed: int, k: int) -> None:
    sol = draw_solution(random.Random(seed))
    val = mode_coefficient(sol, k)
    assert val < 0.0
    assert rel_err(val, proof_identity_L(sol, k)) <= 1e-11


def test_area_factor_positive() -> None:
    # k(n+k-2) - (n-1) > 0 for every k >= 2, n >= 2.
    for n in range(2, 13):
        for k in range(2, 41):
            assert k * (n + k - 2) - (n - 1) > 0


def test_second_variation_reference(ref_solution) -> None:
    spec = PerturbationSpectrum(entries=((2, 0, 1.0),))
    rep = second_variation(ref_solution, spec)
    assert rel_err(rep.lambda_ddot, -49.0 / (6.0 * math.pi)) <= 1e-12
    assert rel_err(rep.S_ddot, 4.0) <= 1e-13
    assert rel_err(rep.Q_val, 13.0 / (12.0 * math.pi)) <= 1e-12
    assert rel_err(rep.quant_ratio, -49.0 / (24.0 * math.pi)) <= 1e-12
    assert rel_err(rep.quant_bound, -3.0 / (4.0 * math.pi)) <= 1e-12
    assert rep.notes == ()


def test_second_variation_empty(ref_solution) -> None:
    rep = second_variation(ref_solution, PerturbationSpectrum(entries=()))
    assert rep.lambda_ddot == 0.0 and rep.S_ddot == 0.0 and rep.Q_val == 0.0
    assert any("empty spectrum" in note for note in rep.notes)


def test_second_variation_scaling(ref_solution) -> None:
    spec1 = PerturbationSpectrum(entries=((2, 0, 1.0), (4, 3, -0.5)))
    spec3 = PerturbationSpectrum(entries=((2, 0, 3.0), (4, 3, -1.5)))
    rep1 = second_variation(ref_solution, spec1)
    rep3 = second_variation(ref_solution, spec3)
    assert rel_err(rep3.lambda_ddot, 9.0 * rep1.lambda_ddot) <= 1e-13
    assert rel_err(rep3.S_ddot, 9.0 * rep1.S_ddot) <= 1e-13
    assert rel_err(rep3.Q_val, 9.0 * rep1.Q_val) <= 1e-13


def test_second_variation_additivity(ref_solution) -> None:
    spec_a = PerturbationSpectrum(entries=((2, 0, 1.0),))
    spec_b = PerturbationSpectrum(entries=((3, 2, 0.7),))
    spec_ab = PerturbationSpectrum(entries=((2, 0, 1.0), (3, 2, 0.7)))
    rep_a = second_variation(ref_solution, spec_a)
    rep_b = second_variation(ref_solution, spec_b)
    rep_ab = second_variation(ref_solution, spec_ab)
    assert rel_err(rep_ab.lambda_ddot, rep_a.lambda_ddot + rep_b.lambda_ddot) <= 1e-13
    assert rel_err(rep_ab.S_ddot, rep_a.S_ddot + rep_b.S_ddot) <= 1e-13
    assert rel_err(rep_ab.Q_val, rep_a.Q_val + rep_b.Q_val) <= 1e-13


def test_constraint_violations(ref_solution) -> None:
    with pytest.raises(MeasureConstraintError):
        second_variation(ref_solution, PerturbationSpectrum(entries=((0, 0, 0.1),)))
    with pytest.raises(BarycenterConstraintError):
        second_variation(ref_solution, PerturbationSpectrum(entries=((1, 0, 1.0),)))
    with pytest.raises(BarycenterConstraintError):
        second_variation(ref_solution, PerturbationSpectrum(entries=((1, 0, 1.0), (2, 0, 1.0))))
    # A zero coefficient on a constrained degree is admissible.
    rep = second_variation(
        ref_solution, PerturbationSpectrum(entries=((0, 0, 0.0), (1, 0, 0.0), (2, 0, 1.0)))
    )
    assert rel_err(rep.lambda_ddot, -49.0 / (6.0 * math.pi)) <= 1e-12


def test_null_mode(ref_solution) -> None:
    spec = PerturbationSpectrum(entries=((1, 0, 1.0),))
    rep = second_variation(ref_solution, spec, allow_pure_translation=True)
    assert rep.lambda_ddot == 0.0
    assert rep.S_ddot == 0.0
    assert any("null mode" in note for note in rep.notes)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_decomposition_identity(seed: int) -> None:
    rng = random.Random(seed)
    sol = draw_solution(rng, dims=(2, 6))
    spec = draw_spectrum(rng, sol.geom.n)
    rep = second_variation(sol, spec)
    u_sq = sol.u_boundary_sq
    sum_b2 = sum(b * b for _k, _i, b in spec.entries)
    recon = (
        2.0 * u_sq * sol.alpha * sol.K_const * sum_b2
        + sol.alpha * u_sq * rep.S_ddot
        - 2.0 * rep.Q_val
    )
    assert rel_err(rep.lambda_ddot, recon) <= 1e-10
    assert rep.lambda_ddot < 0.0
    assert rep.S_ddot > 0.0
    assert rep.Q_val > 0.0


def test_one_steklov_ladder_per_call(ref_solution, monkeypatch) -> None:
    import extrobin.variation as variation

    calls = []

    def counting(sol, k_max):
        calls.append(k_max)
        return shifted_steklov(sol, k_max)

    monkeypatch.setattr(variation, "shifted_steklov", counting)
    second_variation(ref_solution, PerturbationSpectrum(entries=((2, 0, 1.0), (5, 1, 0.3))))
    assert calls == [5]
    calls.clear()
    second_variation(
        ref_solution, PerturbationSpectrum(entries=((1, 0, 1.0),)), allow_pure_translation=True
    )
    assert calls == [1]
    calls.clear()
    mode_coefficient(ref_solution, 4)
    assert calls == [4]


def test_quant_bound_values(ref_solution) -> None:
    bound = quant_bound(ref_solution)
    assert rel_err(bound.deficit_constant, 3.0 / (4.0 * math.pi)) <= 1e-12
    assert bound.ratio_bound == -bound.deficit_constant
    sol2 = solve_lambda(BallGeometry(2, 1.0), -1.0)
    b2 = quant_bound(sol2)
    assert rel_err(b2.deficit_constant, sol2.u_boundary_sq / 3.0) <= 1e-13
    assert b2.deficit_constant > 0.0


def test_quant_ratio_check(ref_solution) -> None:
    spec = PerturbationSpectrum(entries=((2, 0, 1.0),))
    check = quant_ratio_check(ref_solution, spec)
    assert check.holds
    assert rel_err(check.margin, 31.0 / (24.0 * math.pi)) <= 1e-12
    mixed = PerturbationSpectrum(entries=((2, 0, 1.0), (5, 1, 0.3)))
    assert quant_ratio_check(ref_solution, mixed).holds
    scaled = PerturbationSpectrum(entries=((2, 0, 10.0), (5, 1, 3.0)))
    check_m = quant_ratio_check(ref_solution, mixed)
    check_s = quant_ratio_check(ref_solution, scaled)
    assert rel_err(check_s.ratio, check_m.ratio) <= 1e-13
    assert rel_err(check_s.margin, check_m.margin) <= 1e-13
    with pytest.raises(DegenerateSpectrumError):
        quant_ratio_check(ref_solution, PerturbationSpectrum(entries=((2, 0, 0.0),)))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_quant_property(seed: int) -> None:
    rng = random.Random(seed)
    sol = draw_solution(rng)
    spec = draw_spectrum(rng, sol.geom.n)
    check = quant_ratio_check(sol, spec)
    assert check.holds
    assert check.margin >= 0.0
    assert check.ratio < 0.0 and check.bound < 0.0


def test_spectrum_validation() -> None:
    with pytest.raises(DomainError):
        PerturbationSpectrum(entries=((2, 0, 1.0), (2, 0, 0.5)))
    with pytest.raises(DomainError):
        PerturbationSpectrum(entries=((-1, 0, 1.0),))
    with pytest.raises(DomainError):
        PerturbationSpectrum(entries=((2, 0, float("nan")),))
    with pytest.raises(DomainError):
        PerturbationSpectrum(entries=((70, 0, 1.0),))
    PerturbationSpectrum(entries=((70, 0, 1.0),), k_max=70)
    with pytest.raises(DomainError):
        PerturbationSpectrum(entries=((2, 9, 1.0),)).validate_for(3)
    PerturbationSpectrum(entries=((2, 4, 1.0),)).validate_for(3)


def test_certify_negativity_single_point() -> None:
    grid = GridConfig(
        dims=(3,), radii=(1.0,), alpha_multipliers=(3.0,), k_range=(2, 2), z_grid=(1.0, 2.0, 2)
    )
    report = certify_negativity(grid)
    assert report.status == "pass"
    metrics = dict(report.metrics)
    assert abs(metrics["max_mode_coefficient_k_ge_2"] + 49.0 / 6.0) <= 1e-12


def test_certify_negativity_small_grid() -> None:
    grid = GridConfig(
        dims=(3, 4, 6),
        radii=(0.5, 2.0),
        alpha_multipliers=(1.05, 2.0, 10.0),
        k_range=(2, 12),
        z_grid=(1.0, 2.0, 2),
    )
    report = certify_negativity(grid)
    assert report.status == "pass"
    assert report.violations == ()
    assert report.checks_run > 0
    metrics = dict(report.metrics)
    assert metrics["max_mode_coefficient_k_ge_2"] < 0.0
    assert metrics["max_translation_residual_rel"] <= 1e-9


def test_certify_negativity_all_points_skipped() -> None:
    # -1e-300 puts every planar point far outside the supported z window.
    grid = GridConfig(dims=(2,), alpha_absolute=(-1e-300,), alpha_multipliers=None)
    report = certify_negativity(grid)
    assert report.status == "pass"
    assert report.checks_run == 0
    metrics = dict(report.metrics)
    assert metrics["skipped_points"] == 3.0
    assert all(math.isfinite(v) for v in metrics.values())
