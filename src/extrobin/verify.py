"""Deterministic verification suites for every numeric layer.

Each suite walks a fixed or seeded-random grid, re-checks the inequalities
and identities the package is built on, and returns a
``VerificationReport``.  All randomness is drawn from fixed seeds so a
suite either always passes or always fails for a given build.

A check here can fail: it compares a computed value against a bound, a
reference value or a second code path.  Facts that hold by construction
are stated where they are established and not re-checked: ``mu_0 = 0``
(``shifted_steklov``), the signs ``lam < 0``, ``K < 0``, ``u(R)^2 > 0``
(``SpectralSolution`` raises otherwise), Steklov multiplicities, and the
positive area factor ``(k-1)(k+n-1)`` (``variation._area_factor``).  The
recurrence ``f_{n+2} = z^2/f_n + n`` and the Macdonald-tail value of
``u(R)^2`` are covered by the test suite against independent oracles.  So
is the K kernel, in place of the K/I identities (recurrence, derivative,
Wronskian): ``tests/test_bessel.py::test_k_against_oracle`` checks
``e^z K_m`` against 40-digit mpmath for orders 0..6 and z from 1e-3 to
700.  Every check, including those of ``certify_negativity``, is counted
by ``report._Recorder``.
"""

from __future__ import annotations

import math
import random

from .bessel import (
    EULER_GAMMA, BesselOrder, gap_a, modified_bessel_K, ratio_f, segura_bracket,
)
from .errors import DomainError
from .report import GridConfig, VerificationReport, _Recorder
from .spectra import (
    BallGeometry,
    SpectralSolution,
    alpha_of_lambda,
    alpha_star,
    count_discrete,
    multiplicity,
    shifted_steklov,
    solve_lambda,
)
from .variation import (
    PerturbationSpectrum,
    _mode_coefficients,
    certify_negativity,
    quant_bound,
    quant_ratio_check,
    second_variation,
)

_SEED = 20260816
_BESSEL_DIMS = tuple(range(2, 13))


def _draw_solution(rng: random.Random) -> SpectralSolution:
    """One solvable (n, R, alpha) draw, guaranteed inside the z window."""
    n = rng.randint(2, 10)
    R = 10.0 ** rng.uniform(-1.0, 1.0)
    if n == 2:
        y = 10.0 ** rng.uniform(math.log10(0.07), math.log10(600.0))
        alpha = -y / R
    else:
        m_hi = min(60.0, 600.0 / (n - 2))
        m = 10.0 ** rng.uniform(math.log10(1.001), math.log10(m_hi))
        alpha = m * alpha_star(BallGeometry(n, R))
    return solve_lambda(BallGeometry(n, R), alpha)


def _draw_spectrum(rng: random.Random, n: int) -> PerturbationSpectrum:
    """Admissible random spectrum with 1..5 distinct degrees in [2, 25]."""
    degrees = rng.sample(range(2, 26), rng.randint(1, 5))
    entries = []
    for k in sorted(degrees):
        i = rng.randrange(multiplicity(n, k))
        b = rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))
        entries.append((k, i, b))
    return PerturbationSpectrum(entries=tuple(entries))


def run_bessel_suite(grid: GridConfig | None = None) -> VerificationReport:
    """Ratio bounds, gap bounds, monotonicity, the K_2/K_1 envelope and the K_0 log asymptote."""
    cfg = grid if grid is not None else GridConfig()
    dims = cfg.dims if grid is not None else _BESSEL_DIMS
    zs = cfg.z_values()
    rec = _Recorder()
    for n in dims:
        prev_f = -math.inf
        for z in zs:
            f = ratio_f(n, z)
            params = (("n", float(n)), ("z", z))
            rec.check(
                f > n - 2,
                "ratio-above-range-floor",
                params,
                f,
                float(n - 2),
                (n - 2) - f,
            )
            rec.check(
                f > prev_f,
                "ratio-strictly-increasing",
                params,
                f,
                prev_f,
                prev_f - f,
            )
            prev_f = f
            lo, hi = segura_bracket(n, f)
            slack = 1e-12 * z
            rec.check(
                lo <= z + slack and z - slack <= hi,
                "bracket-contains-root",
                params,
                lo,
                hi,
                max(lo - z, z - hi),
            )
            if n >= 3:
                g = f - z - 0.5 * (n - 1)
                rec.check(
                    g >= -1e-13 * f,
                    "ratio-linear-lower-bound",
                    params,
                    f,
                    z + 0.5 * (n - 1),
                    -g,
                )
            a = gap_a(n, z)
            floor = -0.5 if n == 2 else -float(n - 2)
            tol = 1e-12 * abs(floor)
            rec.check(
                floor - tol <= a < 0.0,
                "gap-in-band",
                params,
                a,
                floor,
                max(floor - a, a),
            )
            rec.track_max("max_gap_value", a)

        if n >= 3:
            f_small = ratio_f(n, 1e-8)
            rec.check(
                abs(f_small - (n - 2)) <= 1e-4,
                "ratio-small-z-limit",
                (("n", float(n)), ("z", 1e-8)),
                f_small,
                float(n - 2),
                abs(f_small - (n - 2)) - 1e-4,
            )
        # The 1/z correction coefficient is negative at n = 2, exactly zero
        # at n = 3, and positive for n >= 4.
        g500 = ratio_f(n, 500.0) - 500.0 - 0.5 * (n - 1)
        if n == 2:
            ok = abs(g500) <= 0.05
            margin = abs(g500) - 0.05
        elif n == 3:
            ok = abs(g500) <= 1e-12
            margin = abs(g500) - 1e-12
        else:
            ok = 0.0 < g500 <= 0.05
            margin = max(-g500, g500 - 0.05)
        rec.check(
            ok,
            "ratio-large-z-window",
            (("n", float(n)), ("z", 500.0)),
            g500,
            0.05,
            margin,
        )

    # External two-sided envelope for K_2/K_1 = ratio_f(4, z)/z.
    for z in zs:
        if not 1e-3 <= z <= 50.0:
            continue
        r = ratio_f(4, z) / z
        lower = 2.0 * (z + 1.0) ** 2 / (z * (2.0 * z + 1.0))
        upper = (4.0 * z * z + 9.0 * z + 6.0) / (z * (4.0 * z + 3.0))
        rec.check(
            lower < r < upper,
            "order-one-two-ratio-envelope",
            (("z", z),),
            r,
            lower,
            max(lower - r, r - upper),
        )

    # Log-singularity coefficient of K_0 near zero.
    k0 = modified_bessel_K(BesselOrder(0), 0.01)
    ref = -math.log(0.005) - EULER_GAMMA
    rec.check(
        abs(k0 / ref - 1.0) <= 1e-3,
        "k0-log-asymptote",
        (("z", 0.01),),
        k0,
        ref,
        abs(k0 / ref - 1.0) - 1e-3,
    )

    summary = (
        f"dims {dims[0]}..{dims[-1]}; z in [{zs[0]:g}, {zs[-1]:g}] "
        f"({len(zs)} log-spaced points)"
    )
    return rec.report("bessel.identities", summary)


def run_spectra_suite(grid: GridConfig | None = None) -> VerificationReport:
    """Round trips, monotonicity, and Steklov structure of the solved problem."""
    rec = _Recorder()
    rng = random.Random(_SEED)
    draws = 200
    for _ in range(draws):
        sol = _draw_solution(rng)
        n, R = sol.geom.n, sol.geom.R
        params = (("n", float(n)), ("R", R), ("alpha", sol.alpha))
        resid = abs(ratio_f(n, sol.z) - sol.y) / sol.y
        rec.check(
            resid <= 1e-13,
            "dispersion-residual",
            params,
            resid,
            1e-13,
            resid - 1e-13,
        )
        back = alpha_of_lambda(sol.geom, sol.lam)
        rel = abs(back - sol.alpha) / abs(sol.alpha)
        rec.check(
            rel <= 1e-12,
            "alpha-round-trip",
            params,
            back,
            sol.alpha,
            rel - 1e-12,
        )
        rec.track_max("max_round_trip_rel_err", rel)

    # alpha_of_lambda is strictly increasing in lambda at fixed geometry.
    for n in (2, 3, 4, 5, 8):
        geom = BallGeometry(n, 1.0)
        lam_lo, lam_hi, pts = -1e4, -1e-4, 30
        step = math.log(lam_lo / lam_hi) / (pts - 1)
        lams = [lam_hi * math.exp((pts - 1 - i) * step) for i in range(pts)]
        prev = -math.inf
        for lam in lams:
            al = alpha_of_lambda(geom, lam)
            rec.check(
                al > prev,
                "alpha-strictly-increasing-in-lambda",
                (("n", float(n)), ("lambda", lam)),
                al,
                prev,
                prev - al,
            )
            prev = al

    # Weak-coupling limit of the dispersion curve.
    for n in range(3, 9):
        al = alpha_of_lambda(BallGeometry(n, 1.0), -1e-6)
        rec.check(
            abs(al + (n - 2)) <= 0.02,
            "weak-coupling-limit",
            (("n", float(n)), ("lambda", -1e-6)),
            al,
            float(-(n - 2)),
            abs(al + (n - 2)) - 0.02,
        )

    # lambda is strictly decreasing as alpha decreases.
    geom = BallGeometry(3, 1.0)
    prev_lam = 0.0
    for i in range(20):
        alpha = -1.05 * (500.0 / 1.05) ** (i / 19.0)
        lam = solve_lambda(geom, alpha).lam
        rec.check(
            lam < prev_lam,
            "lambda-decreasing-in-coupling",
            (("n", 3.0), ("alpha", alpha)),
            lam,
            prev_lam,
            lam - prev_lam,
        )
        prev_lam = lam

    # Steklov structure at fixed solved problems.
    for n, R, mult in ((2, 1.0, 5.0), (3, 1.0, 3.0), (3, 0.2, 1.5), (5, 2.0, 2.0), (9, 1.0, 1.1)):
        if n == 2:
            alpha = -mult
        else:
            alpha = mult * alpha_star(BallGeometry(n, R))
        sol = solve_lambda(BallGeometry(n, R), alpha)
        levels = shifted_steklov(sol, 20)
        params = (("n", float(n)), ("R", R), ("alpha", alpha))
        for k in range(1, 21):
            rec.check(
                levels[k].mu > levels[k - 1].mu,
                "steklov-strictly-increasing",
                params + (("k", float(k)),),
                levels[k].mu,
                levels[k - 1].mu,
                levels[k - 1].mu - levels[k].mu,
            )
        mu1_ref = sol.K_const / sol.alpha
        rel = abs(levels[1].mu - mu1_ref) / mu1_ref
        rec.check(
            rel <= 1e-12,
            "steklov-first-level-identity",
            params,
            levels[1].mu,
            mu1_ref,
            rel - 1e-12,
        )
        rec.track_max("max_mu1_identity_rel_err", rel)

    # Discrete-spectrum counting against the harmonic Steklov ladder.
    for n, R in ((3, 1.0), (4, 0.5), (6, 2.0)):
        geom = BallGeometry(n, R)
        cumulative = 0
        for l in range(0, 6):
            cumulative += multiplicity(n, l)
            alpha_mid = -0.5 * ((n - 2 + l) / R + (n - 1 + l) / R)
            got = count_discrete(geom, alpha_mid)
            rec.check(
                got == cumulative,
                "count-matches-harmonic-ladder",
                (("n", float(n)), ("R", R), ("alpha", alpha_mid)),
                float(got),
                float(cumulative),
                float(abs(got - cumulative)),
            )

    summary = f"{draws} seeded draws; monotonicity ladders; Steklov levels k <= 20"
    return rec.report("spectra.roundtrip", summary)


def run_variation_suite(grid: GridConfig | None = None) -> VerificationReport:
    """Negativity certificate plus the identities behind the second variation."""
    rec = _Recorder()
    certify = certify_negativity(grid)
    rec.checks += certify.checks_run
    rec.violations.extend(certify.violations)
    for name, value in certify.metrics:
        rec.track_max(name, value)

    rng = random.Random(_SEED + 1)
    sols = [_draw_solution(rng) for _ in range(30)]

    # Structural identity: R^4 mu_k L(k) equals
    # -2 a^2 - y R mu_k (2a + k^2 + (n-2)k - (n-1)).
    for sol in sols:
        n, R = sol.geom.n, sol.geom.R
        a = sol.a_val
        y = sol.y
        levels = shifted_steklov(sol, 12)
        coeffs = _mode_coefficients(sol, levels)
        for k in range(2, 13):
            mu = levels[k].mu
            lhs = R**4 * mu * coeffs[k - 1]
            rhs = -2.0 * a * a - y * R * mu * (
                2.0 * a + k * k + (n - 2) * k - (n - 1)
            )
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            rec.check(
                rel <= 1e-11,
                "mode-coefficient-identity",
                (("n", float(n)), ("R", R), ("alpha", sol.alpha), ("k", float(k))),
                lhs,
                rhs,
                rel - 1e-11,
            )
            rec.track_max("max_identity_rel_err", rel)

    # Decomposition of the second variation into its three named pieces,
    # plus sign checks, on seeded random admissible spectra.
    for idx in range(100):
        sol = sols[idx % len(sols)]
        n = sol.geom.n
        spectrum = _draw_spectrum(rng, n)
        rep = second_variation(sol, spectrum)
        ssum = sum(b * b for _k, _i, b in spectrum.entries)
        u_sq = sol.u_boundary_sq
        t1 = 2.0 * u_sq * sol.alpha * sol.K_const * ssum
        t2 = sol.alpha * u_sq * rep.S_ddot
        t3 = -2.0 * rep.Q_val
        scale = max(abs(rep.lambda_ddot), abs(t1), abs(t2), abs(t3))
        rel = abs(rep.lambda_ddot - (t1 + t2 + t3)) / scale
        params = (
            ("n", float(n)),
            ("R", sol.geom.R),
            ("alpha", sol.alpha),
            ("modes", float(len(spectrum.entries))),
        )
        rec.check(
            rel <= 1e-12,
            "second-variation-decomposition",
            params,
            rep.lambda_ddot,
            t1 + t2 + t3,
            rel - 1e-12,
        )
        rec.track_max("max_decomposition_rel_err", rel)
        rec.check(
            rep.lambda_ddot < 0.0,
            "second-variation-negative",
            params,
            rep.lambda_ddot,
            0.0,
            rep.lambda_ddot,
        )
        rec.check(
            rep.S_ddot > 0.0,
            "area-second-variation-positive",
            params,
            rep.S_ddot,
            0.0,
            -rep.S_ddot,
        )
        rec.check(
            rep.Q_val > 0.0,
            "steklov-form-positive",
            params,
            rep.Q_val,
            0.0,
            -rep.Q_val,
        )

    # Additivity over disjoint mode supports.
    for _ in range(20):
        sol = sols[rng.randrange(len(sols))]
        n = sol.geom.n
        ks = rng.sample(range(2, 26), 4)
        first = tuple((k, 0, rng.uniform(0.2, 1.5)) for k in sorted(ks[:2]))
        second = tuple((k, 0, rng.uniform(0.2, 1.5)) for k in sorted(ks[2:]))
        rep_a = second_variation(sol, PerturbationSpectrum(entries=first))
        rep_b = second_variation(sol, PerturbationSpectrum(entries=second))
        rep_ab = second_variation(sol, PerturbationSpectrum(entries=first + second))
        err = abs(rep_ab.lambda_ddot - rep_a.lambda_ddot - rep_b.lambda_ddot)
        tol = 1e-12 * (abs(rep_a.lambda_ddot) + abs(rep_b.lambda_ddot))
        rec.check(
            err <= tol,
            "second-variation-additive",
            (("n", float(n)), ("R", sol.geom.R), ("alpha", sol.alpha)),
            rep_ab.lambda_ddot,
            rep_a.lambda_ddot + rep_b.lambda_ddot,
            err - tol,
        )

    summary = f"negativity certificate ({certify.grid_summary}); 30 seeded solutions"
    return rec.report("variation.identities", summary)


def run_quant_suite(grid: GridConfig | None = None) -> VerificationReport:
    """Quantitative ratio bound on seeded spectra plus the deficit constant."""
    rec = _Recorder()
    rng = random.Random(_SEED + 2)
    sols = [_draw_solution(rng) for _ in range(25)]
    worst_margin = math.inf
    for idx in range(100):
        sol = sols[idx % len(sols)]
        spectrum = _draw_spectrum(rng, sol.geom.n)
        qc = quant_ratio_check(sol, spectrum)
        params = (
            ("n", float(sol.geom.n)),
            ("R", sol.geom.R),
            ("alpha", sol.alpha),
            ("modes", float(len(spectrum.entries))),
        )
        rec.check(
            qc.holds and qc.margin >= 0.0,
            "quant-ratio-bound",
            params,
            qc.ratio,
            qc.bound,
            -qc.margin,
        )
        rec.check(
            qc.ratio < 0.0 and qc.bound < 0.0,
            "quant-ratio-signs",
            params,
            qc.ratio,
            qc.bound,
            max(qc.ratio, qc.bound),
        )
        worst_margin = min(worst_margin, qc.margin)
    rec.track_max("min_margin_observed", worst_margin)

    sol = solve_lambda(BallGeometry(3, 1.0), -3.0)
    qb = quant_bound(sol)
    ref = 3.0 / (4.0 * math.pi)
    err = abs(qb.deficit_constant - ref)
    rec.check(
        err <= 1e-10,
        "deficit-reference-value",
        (("n", 3.0), ("R", 1.0), ("alpha", -3.0)),
        qb.deficit_constant,
        ref,
        err - 1e-10,
    )
    qc = quant_ratio_check(sol, PerturbationSpectrum(entries=((2, 0, 1.0),)))
    ref_margin = 31.0 / (24.0 * math.pi)
    err = abs(qc.margin - ref_margin)
    rec.check(
        err <= 1e-10,
        "margin-reference-value",
        (("n", 3.0), ("R", 1.0), ("alpha", -3.0)),
        qc.margin,
        ref_margin,
        err - 1e-10,
    )

    summary = "100 seeded spectra over 25 seeded solutions; reference spot values"
    return rec.report("quant.ratio-bound", summary)


_SUITES = {
    "bessel": run_bessel_suite,
    "spectra": run_spectra_suite,
    "variation": run_variation_suite,
    "quant": run_quant_suite,
}


def run_suites(names: tuple[str, ...], grid: GridConfig | None = None) -> list[VerificationReport]:
    """Run the named suites in canonical order and return their reports."""
    unknown = sorted(set(names) - set(_SUITES) - {"all"})
    if unknown:
        raise DomainError(
            f"unknown suite names {unknown}; choose from "
            f"{sorted(_SUITES)} or 'all'"
        )
    order = tuple(_SUITES)
    chosen = order if "all" in names else tuple(n for n in order if n in names)
    return [_SUITES[name](grid) for name in chosen]
