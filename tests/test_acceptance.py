"""Acceptance gate: the eleven headline criteria, one test per criterion.

Each test asserts the stated tolerance and, where applicable, the stated
wall-clock budget, so a verbose run prints exactly one pass/fail line per
criterion.
"""

import csv
import io
import math
import random
import subprocess
import sys
import time

from extrobin import (
    BallGeometry,
    GridConfig,
    alpha_of_lambda,
    alpha_star,
    certify_negativity,
    compare_ellipsoid_ball,
    default_certify_grids,
    EllipsoidSpec,
    AsymptoticModel,
    gap_a,
    hynak_check,
    mode_coefficient,
    quant_bound,
    quant_ratio_check,
    run_bessel_suite,
    second_variation,
    shifted_steklov,
    solve_lambda,
)
from tests.conftest import draw_solution, draw_spectrum, rel_err


def solved_default_grid_points():
    """All solvable (geometry, coupling) points of the default certify grids."""
    from extrobin import RangeLimitError

    sols = []
    for grid in default_certify_grids():
        for n in grid.dims:
            for R in grid.radii:
                for alpha in grid.alphas_for(n, R):
                    try:
                        sols.append(solve_lambda(BallGeometry(n, R), alpha))
                    except RangeLimitError:
                        continue
    return sols


def test_criterion_01_dispersion_closed_form_and_round_trip() -> None:
    start = time.perf_counter()
    sol = solve_lambda(BallGeometry(3, 1.0), -3.0)
    assert abs(sol.lam + 4.0) <= 1e-12
    rng = random.Random(20260816)
    for _ in range(200):
        s = draw_solution(rng)
        assert rel_err(alpha_of_lambda(s.geom, s.lam), s.alpha) <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_alpha_star_table() -> None:
    for n in range(3, 11):
        for R in (0.2, 1.0, 5.0):
            assert alpha_star(BallGeometry(n, R)) == -(n - 2) / R
    for R in (0.2, 1.0, 5.0):
        assert alpha_star(BallGeometry(2, R)) == 0.0


def test_criterion_03_bessel_inequality_suite() -> None:
    start = time.perf_counter()
    report = run_bessel_suite()
    assert report.status == "pass"
    assert report.violations == ()
    for z in GridConfig().z_values():
        assert abs(gap_a(3, z) + 1.0) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_04_steklov_ordering_and_spot_values() -> None:
    for sol in solved_default_grid_points():
        mus = [level.mu for level in shifted_steklov(sol, 21)]
        assert mus[0] == 0.0
        assert all(m1 < m2 for m1, m2 in zip(mus, mus[1:]))
    ref = solve_lambda(BallGeometry(3, 1.0), -3.0)
    levels = shifted_steklov(ref, 2)
    assert abs(levels[1].mu - 1.0 / 3.0) <= 1e-12
    assert abs(levels[2].mu - 12.0 / 13.0) <= 1e-12


def test_criterion_05_second_variation_negativity() -> None:
    start = time.perf_counter()
    report = certify_negativity()
    assert report.status == "pass"
    assert report.violations == ()
    metrics = dict(report.metrics)
    assert metrics["max_mode_coefficient_k_ge_2"] < 0.0
    assert metrics["max_translation_residual_rel"] <= 1e-9
    ref = solve_lambda(BallGeometry(3, 1.0), -3.0)
    assert abs(mode_coefficient(ref, 1)) <= 1e-12
    assert abs(mode_coefficient(ref, 2) + 49.0 / 6.0) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_06_decomposition_identity() -> None:
    rng = random.Random(20260816 + 6)
    for _ in range(100):
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


def test_criterion_07_quantitative_bound() -> None:
    rng = random.Random(20260816 + 7)
    for _ in range(100):
        sol = draw_solution(rng)
        spec = draw_spectrum(rng, sol.geom.n)
        check = quant_ratio_check(sol, spec)
        assert check.holds
        assert check.ratio <= check.bound + 1e-15 * abs(check.bound)
    ref = solve_lambda(BallGeometry(3, 1.0), -3.0)
    assert abs(quant_bound(ref).deficit_constant - 3.0 / (4.0 * math.pi)) <= 1e-10


def test_criterion_08_normalization() -> None:
    from tests.test_spectra import closed_tail_boundary_sq

    for sol in solved_default_grid_points():
        oracle = closed_tail_boundary_sq(sol.geom.n, sol.geom.R, sol.z)
        assert rel_err(sol.u_boundary_sq, oracle) <= 1e-9
    ref = solve_lambda(BallGeometry(3, 1.0), -3.0)
    assert rel_err(ref.u_boundary_sq, 1.0 / math.pi) <= 1e-12


def test_criterion_09_counterexample() -> None:
    assert hynak_check(3, 0.1).holds
    assert not hynak_check(3, 0.95).holds
    assert compare_ellipsoid_ball(EllipsoidSpec(n=3, a=0.1), -50.0).delta > 0.0
    for R in (0.5, 1.0, 2.0):
        model = AsymptoticModel(n=3, h_max=-1.0 / R)
        for alpha in (-10.0 / R, -100.0 / R):
            lam = solve_lambda(BallGeometry(3, R), alpha).lam
            defect = lam - model.evaluate(alpha)
            assert abs(defect + 1.0 / (R * R)) <= 1e-9 * max(1.0, abs(lam))


def test_criterion_10_figure_curve() -> None:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "extrobin.cli", "curve",
            "--n", "2,3,4,5",
            "--radius", "1",
            "--lambda-min", "-25",
            "--lambda-max", "-1e-6",
            "--points", "200",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    assert len(rows) == 800
    by_n: dict[int, list[tuple[float, float]]] = {}
    for n_txt, _r, lam_txt, _z, alpha_txt in rows:
        by_n.setdefault(int(n_txt), []).append((float(lam_txt), float(alpha_txt)))
    for n, block in by_n.items():
        alphas = [alpha for _lam, alpha in block]
        assert all(a1 < a2 for a1, a2 in zip(alphas, alphas[1:]))
        assert block[-1][0] == -1e-6
        if n >= 3:
            assert abs(alphas[-1] + (n - 2)) <= 0.02
    assert time.perf_counter() - start < 2.0


def test_criterion_11_radial_monotonicity() -> None:
    lams = [solve_lambda(BallGeometry(3, R), -3.0).lam for R in (1.0, 1.5, 2.0, 3.0)]
    assert all(l2 <= l1 for l1, l2 in zip(lams, lams[1:]))
