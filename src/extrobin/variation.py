"""Shape variations of the principal exterior Robin eigenvalue.

A nearly-spherical perturbation moves the boundary along its normal by
``t * phi`` with ``phi`` expanded in real spherical harmonics,
``phi = sum b_{k,i} Y_{k,i}``.  Volume preservation to first order forces
``b_{0,i} = 0`` and barycenter fixing forces ``b_{1,i} = 0``; the remaining
degrees ``k >= 2`` are the admissible ones.

At the ball the first variation vanishes and the second variation
diagonalises over the harmonic degrees,

    lambda_ddot = u(R)^2 * sum_k L(k) * sum_i b_{k,i}^2,

with the mode coefficient

    L(k) = 2*K*alpha + (alpha/R^2) * (k(n+k-2) - (n-1)) - 2*K^2 / mu_k,

where ``K = alpha^2 + alpha*(n-1)/R + lambda`` and ``mu_k`` is the shifted
Steklov level of the solved problem.  Every ``L(k)`` with ``k >= 2`` is
strictly negative, which is the local-maximality certificate; ``L(1) = 0``
reflects translation invariance through the identity ``mu_1 = K/alpha``.

The quantitative comparison divides ``lambda_ddot`` by the surface-area
second variation ``S_ddot`` and bounds the ratio away from zero:
``lambda_ddot / S_ddot <= alpha*u(R)^2/(n+1) < 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BarycenterConstraintError,
    DegenerateSpectrumError,
    DomainError,
    MeasureConstraintError,
    RangeLimitError,
)
from .report import (
    GridConfig,
    VerificationReport,
    Violation,
    default_certify_grids,
)
from .spectra import BallGeometry, SpectralSolution, multiplicity, shifted_steklov, solve_lambda

_K_MAX_DEFAULT = 64

# Relative tolerance on the translation mode L(1), which vanishes
# analytically and is computed as a difference of O(|K*alpha|) terms.
_TRANSLATION_REL_TOL = 1e-9


@dataclass(frozen=True)
class PerturbationSpectrum:
    """Spherical-harmonic coefficients ``b_{k,i}`` of a normal perturbation.

    ``entries`` holds ``(k, i, b)`` triples with distinct ``(k, i)`` pairs,
    ``0 <= k <= k_max`` and ``i >= 0``.  Index admissibility against the
    degree multiplicity depends on the dimension and is checked by
    ``validate_for``.
    """

    entries: tuple[tuple[int, int, float], ...]
    k_max: int = _K_MAX_DEFAULT

    def __post_init__(self) -> None:
        if not isinstance(self.k_max, int) or isinstance(self.k_max, bool):
            raise DomainError("k_max must be an integer")
        if self.k_max < 0:
            raise DomainError(f"k_max must be >= 0, got {self.k_max}")
        seen: set[tuple[int, int]] = set()
        for entry in self.entries:
            if len(entry) != 3:
                raise DomainError(f"entries must be (k, i, b) triples, got {entry!r}")
            k, i, b = entry
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise DomainError(f"degree k must be an integer >= 0, got {k!r}")
            if k > self.k_max:
                raise DomainError(f"degree k = {k} exceeds k_max = {self.k_max}")
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise DomainError(f"index i must be an integer >= 0, got {i!r}")
            if not isinstance(b, float) or not math.isfinite(b):
                raise DomainError(f"coefficient b must be a finite float, got {b!r}")
            if (k, i) in seen:
                raise DomainError(f"duplicate mode (k, i) = ({k}, {i})")
            seen.add((k, i))

    def validate_for(self, n: int) -> None:
        """Check every index against the degree-``k`` multiplicity in dimension ``n``."""
        for k, i, _b in self.entries:
            dim = multiplicity(n, k)
            if i >= dim:
                raise DomainError(
                    f"mode index i = {i} out of range for degree k = {k} in "
                    f"dimension n = {n} (multiplicity {dim})"
                )

    def nonzero(self) -> list[tuple[int, int, float]]:
        """Entries with non-vanishing coefficient, sorted by (k, i)."""
        return sorted((e for e in self.entries if e[2] != 0.0), key=lambda e: e[:2])


@dataclass(frozen=True)
class VariationReport:
    """Second-variation summary at one solved exterior problem.

    ``lambda_ddot`` and ``S_ddot`` are the second variations of the
    eigenvalue and of the surface area, ``Q_val`` the Steklov quadratic
    form entering the decomposition, ``quant_ratio = lambda_ddot/S_ddot``
    (zero when ``S_ddot`` vanishes) and ``quant_bound`` its certified
    upper bound ``alpha*u(R)^2/(n+1)``.  Degenerate inputs are flagged in
    ``notes`` and zero out the comparison fields.
    """

    lambda_ddot: float
    S_ddot: float
    Q_val: float
    quant_ratio: float
    quant_bound: float
    notes: tuple[str, ...] = ()


class QuantBound(NamedTuple):
    """Certified ratio bound and the equivalent positive deficit constant."""

    ratio_bound: float
    deficit_constant: float


class QuantCheck(NamedTuple):
    """One evaluation of the quantitative inequality on a concrete spectrum."""

    holds: bool
    margin: float
    ratio: float
    bound: float


def first_variation(sol: SpectralSolution, v_dot: float) -> float:
    """First variation of the eigenvalue for a perturbation of volume rate ``v_dot``.

    At the ball the shape derivative is ``K * u(R)^2`` times the integral of
    the normal speed, and that integral is the first variation of the
    enclosed volume.  Volume-preserving perturbations give zero.
    """
    if not math.isfinite(v_dot):
        raise DomainError(f"v_dot must be finite, got {v_dot}")
    return sol.K_const * sol.u_boundary_sq * v_dot


def _mode_coefficients(sol: SpectralSolution, k_max: int) -> list[float]:
    """Mode coefficients ``L(k)`` for ``k = 1..k_max`` from one Steklov ladder."""
    n, R = sol.geom.n, sol.geom.R
    K = sol.K_const
    alpha = sol.alpha
    levels = shifted_steklov(sol, k_max)
    out = []
    for k in range(1, k_max + 1):
        mu = levels[k].mu
        out.append(
            2.0 * K * alpha
            + (alpha / (R * R)) * (k * (n + k - 2) - (n - 1))
            - 2.0 * K * K / mu
        )
    return out


def mode_coefficient(sol: SpectralSolution, k: int) -> float:
    """Coefficient ``L(k)`` of the degree-``k`` harmonic in the second variation.

    Defined for ``k >= 1``; the degree-zero mode changes volume and is not
    admissible.  ``L(1)`` vanishes analytically (translation invariance).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"mode degree must be an integer >= 1, got {k!r}")
    return _mode_coefficients(sol, k)[k - 1]


def _area_factor(n: int, k: int) -> float:
    """Surface-area quadratic form factor ``k(n+k-2) - (n-1)``; positive for k >= 2."""
    return float(k * (n + k - 2) - (n - 1))


def second_variation(
    sol: SpectralSolution,
    spectrum: PerturbationSpectrum,
    allow_pure_translation: bool = False,
) -> VariationReport:
    """Second variation of the eigenvalue under a harmonic perturbation.

    The spectrum must satisfy the admissibility constraints: degree-zero
    coefficients violate volume preservation (``MeasureConstraintError``)
    and degree-one coefficients violate barycenter fixing
    (``BarycenterConstraintError``).  A purely translational spectrum is
    admitted only with ``allow_pure_translation=True``, in which case both
    second variations vanish identically and the report says so.
    """
    n, R = sol.geom.n, sol.geom.R
    spectrum.validate_for(n)
    active = spectrum.nonzero()
    if not active:
        return VariationReport(
            lambda_ddot=0.0,
            S_ddot=0.0,
            Q_val=0.0,
            quant_ratio=0.0,
            quant_bound=0.0,
            notes=("empty spectrum: all variations vanish",),
        )
    for k, i, _b in active:
        if k == 0:
            raise MeasureConstraintError(
                f"measure-preserving condition violated: coefficient of the "
                f"volume mode (k, i) = (0, {i}) must vanish"
            )
    degree_one_only = all(k == 1 for k, _i, _b in active)
    if degree_one_only:
        if not allow_pure_translation:
            raise BarycenterConstraintError(
                "barycenter condition violated: degree-one coefficients must "
                "vanish (pass allow_pure_translation=True to evaluate the "
                "translational null direction)"
            )
        u_sq = sol.u_boundary_sq
        K = sol.K_const
        k_top = max(k for k, _i, _b in active)
        levels = shifted_steklov(sol, k_top)
        q_val = u_sq * K * K * sum(
            b * b / levels[k].mu for k, _i, b in active
        )
        return VariationReport(
            lambda_ddot=0.0,
            S_ddot=0.0,
            Q_val=q_val,
            quant_ratio=0.0,
            quant_bound=sol.alpha * u_sq / (n + 1),
            notes=(
                "null mode: pure translation leaves both second variations "
                "zero along the degree-one directions",
            ),
        )
    for k, i, _b in active:
        if k == 1:
            raise BarycenterConstraintError(
                f"barycenter condition violated: coefficient of the "
                f"translation mode (k, i) = (1, {i}) must vanish"
            )

    u_sq = sol.u_boundary_sq
    K = sol.K_const
    k_top = max(k for k, _i, _b in active)
    levels = shifted_steklov(sol, k_top)
    coeffs = _mode_coefficients(sol, k_top)
    lam_dd = 0.0
    s_dd = 0.0
    q_val = 0.0
    for k, _i, b in active:
        b_sq = b * b
        lam_dd += coeffs[k - 1] * b_sq
        s_dd += _area_factor(n, k) * b_sq
        q_val += b_sq / levels[k].mu
    lam_dd *= u_sq
    s_dd /= R * R
    q_val *= u_sq * K * K
    bound = sol.alpha * u_sq / (n + 1)
    ratio = lam_dd / s_dd if s_dd > 0.0 else 0.0
    return VariationReport(
        lambda_ddot=lam_dd,
        S_ddot=s_dd,
        Q_val=q_val,
        quant_ratio=ratio,
        quant_bound=bound,
        notes=(),
    )


def quant_bound(sol: SpectralSolution) -> QuantBound:
    """Certified bound ``alpha*u(R)^2/(n+1)`` and its positive deficit form.

    Every admissible perturbation satisfies
    ``lambda_ddot / S_ddot <= ratio_bound``, equivalently
    ``lambda_ddot <= -deficit_constant * S_ddot`` with
    ``deficit_constant > 0``.
    """
    ratio_bound = sol.alpha * sol.u_boundary_sq / (sol.geom.n + 1)
    return QuantBound(ratio_bound=ratio_bound, deficit_constant=-ratio_bound)


def quant_ratio_check(
    sol: SpectralSolution, spectrum: PerturbationSpectrum
) -> QuantCheck:
    """Evaluate the quantitative ratio inequality on a concrete spectrum.

    Requires at least one non-vanishing admissible coefficient of degree
    ``k >= 2``; constraint violations raise as in ``second_variation`` and
    a spectrum with no admissible energy raises
    ``DegenerateSpectrumError``.
    """
    active = spectrum.nonzero()
    if not any(k >= 2 for k, _i, _b in active):
        raise DegenerateSpectrumError(
            "quantitative ratio needs at least one nonzero coefficient of "
            "degree k >= 2"
        )
    rep = second_variation(sol, spectrum)
    margin = rep.quant_bound - rep.quant_ratio
    return QuantCheck(
        holds=margin >= 0.0,
        margin=margin,
        ratio=rep.quant_ratio,
        bound=rep.quant_bound,
    )


def certify_negativity(grid: GridConfig | None = None) -> VerificationReport:
    """Certify ``L(k) < 0`` for all admissible degrees across a parameter grid.

    For every grid point the solved exterior problem is checked for strict
    negativity of ``L(k)`` over the configured degree range, plus vanishing
    of the translation mode ``L(1)`` to within rounding of its natural
    scale.  Grid points whose eigenvalue leaves the supported z window are
    skipped and counted in the summary, not failed.
    """
    grids = default_certify_grids() if grid is None else (grid,)
    checks = 0
    skipped = 0
    solved = 0
    violations: list[Violation] = []
    worst_l = -math.inf
    worst_l1 = 0.0
    for cfg in grids:
        k_lo, k_hi = cfg.k_range
        for n in cfg.dims:
            for R in cfg.radii:
                for alpha in cfg.alphas_for(n, R):
                    geom = BallGeometry(n, R)
                    try:
                        sol = solve_lambda(geom, alpha)
                    except RangeLimitError:
                        skipped += 1
                        continue
                    solved += 1
                    coeffs = _mode_coefficients(sol, k_hi)
                    params = (
                        ("n", float(n)),
                        ("R", float(R)),
                        ("alpha", float(alpha)),
                    )
                    # L(1) = 2K*alpha - 2K^2/mu_1 cancels two terms of size
                    # |2K*alpha|; that sets the rounding scale.
                    scale = 4.0 * abs(sol.K_const * alpha)
                    checks += 1
                    l1_rel = abs(coeffs[0]) / scale
                    worst_l1 = max(worst_l1, l1_rel)
                    if l1_rel > _TRANSLATION_REL_TOL:
                        violations.append(
                            Violation(
                                check_id="translation-mode-vanishes",
                                params=params + (("k", 1.0),),
                                lhs=coeffs[0],
                                rhs=0.0,
                                margin=l1_rel - _TRANSLATION_REL_TOL,
                            )
                        )
                    for k in range(k_lo, k_hi + 1):
                        checks += 1
                        lk = coeffs[k - 1]
                        worst_l = max(worst_l, lk)
                        if not (lk < 0.0):
                            violations.append(
                                Violation(
                                    check_id="mode-coefficient-negative",
                                    params=params + (("k", float(k)),),
                                    lhs=lk,
                                    rhs=0.0,
                                    margin=lk,
                                )
                            )
    summary = (
        f"{len(grids)} grid(s); {solved} solved points; degrees "
        f"{grids[0].k_range[0]}..{grids[0].k_range[1]}; "
        f"{skipped} skipped (outside z window)"
    )
    metrics = (
        ("max_mode_coefficient_k_ge_2", worst_l),
        ("max_translation_residual_rel", worst_l1),
        ("skipped_points", float(skipped)),
    )
    return VerificationReport(
        suite="variation.negativity",
        grid_summary=summary,
        checks_run=checks,
        violations=tuple(violations),
        metrics=metrics,
    )
