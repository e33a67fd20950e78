"""Verification grids, violation records, and structured reports.

A verification suite walks a deterministic parameter grid, runs sign and
identity checks, and returns a ``VerificationReport``.  The report carries
every violated check as a ``Violation`` record; a report passes exactly
when its violation list is empty.  Grids come from built-in defaults or
from a small JSON file (see ``parse_grid_file``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from .errors import GridFileError

_DEFAULT_K_RANGE = (2, 25)
_DEFAULT_Z_GRID = (1e-3, 700.0, 200)
_DEFAULT_DIMS = (3, 4, 5, 6, 7, 8, 9, 10)
_DEFAULT_RADII = (0.2, 1.0, 5.0)
_DEFAULT_MULTIPLIERS = (1.01, 1.1, 1.5, 3.0, 10.0, 50.0)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _floats(values, name: str, ok, rule: str) -> tuple[float, ...]:
    """``values`` as a non-empty tuple of finite floats that all satisfy ``ok``.

    Anything else raises ``GridFileError``: bools, non-numbers, NaN,
    infinities and integers too large for a float.
    """
    if not values:
        raise GridFileError(f"{name} must be non-empty")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
            abs(v) <= sys.float_info.max and ok(v)
        ):
            raise GridFileError(f"{name} must be finite and {rule}, got {v!r}")
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class GridConfig:
    """Deterministic parameter grid for one verification run.

    ``alpha_absolute`` and ``alpha_multipliers`` are mutually exclusive:
    absolute values are used as-is, multipliers scale the critical value
    ``alpha_star = -(n-2)/R`` and therefore require every dimension to be
    at least 3 and every multiplier to exceed 1 (so ``alpha < alpha_star``).
    ``k_range`` bounds the spherical-harmonic degrees checked and
    ``z_grid = (z_min, z_max, points)`` is the log-spaced argument grid
    used by the kernel-identity checks.
    """

    dims: tuple[int, ...] = _DEFAULT_DIMS
    radii: tuple[float, ...] = _DEFAULT_RADII
    alpha_absolute: tuple[float, ...] | None = None
    alpha_multipliers: tuple[float, ...] | None = _DEFAULT_MULTIPLIERS
    k_range: tuple[int, int] = _DEFAULT_K_RANGE
    z_grid: tuple[float, float, int] = _DEFAULT_Z_GRID

    def __post_init__(self) -> None:
        if (self.alpha_absolute is None) == (self.alpha_multipliers is None):
            raise GridFileError(
                "exactly one of alpha_absolute / alpha_multipliers must be set"
            )
        if not self.dims:
            raise GridFileError("dims must be non-empty")
        for n in self.dims:
            if not _is_int(n) or n < 2:
                raise GridFileError(f"dims entries must be integers >= 2, got {n!r}")
        radii = _floats(self.radii, "radii", lambda r: r > 0, "positive")
        object.__setattr__(self, "radii", radii)
        if self.alpha_multipliers is not None:
            if any(n == 2 for n in self.dims):
                raise GridFileError(
                    "alpha multipliers are relative to alpha_star = -(n-2)/R, "
                    "which vanishes for n = 2; give absolute alpha values instead"
                )
            multipliers = _floats(
                self.alpha_multipliers, "alpha multipliers", lambda m: m > 1.0, "above 1"
            )
            object.__setattr__(self, "alpha_multipliers", multipliers)
        if self.alpha_absolute is not None:
            absolute = _floats(
                self.alpha_absolute, "absolute alpha values", lambda a: a < 0, "negative"
            )
            object.__setattr__(self, "alpha_absolute", absolute)
        if not (
            len(self.k_range) == 2
            and all(_is_int(k) for k in self.k_range)
            and 2 <= self.k_range[0] <= self.k_range[1] <= 200
        ):
            raise GridFileError(
                f"k_range must be integers 2 <= lo <= hi <= 200, got {self.k_range!r}"
            )
        zmin, zmax = _floats(
            self.z_grid[:2], "z_grid bounds", lambda z: 0 < z <= 700.0, "in (0, 700]"
        )
        if not zmin < zmax:
            raise GridFileError(f"z_grid needs min < max, got {self.z_grid!r}")
        pts = self.z_grid[2]
        if not (_is_int(pts) and pts >= 2):
            raise GridFileError(f"z_grid point count must be >= 2, got {pts!r}")
        object.__setattr__(self, "z_grid", (zmin, zmax, pts))

    def alphas_for(self, n: int, R: float) -> tuple[float, ...]:
        """Robin parameters this grid prescribes at dimension ``n``, radius ``R``."""
        if self.alpha_absolute is not None:
            return self.alpha_absolute
        star = -(n - 2) / R
        return tuple(m * star for m in self.alpha_multipliers)

    def z_values(self) -> tuple[float, ...]:
        """Log-spaced argument grid with exact endpoints."""
        zmin, zmax, pts = self.z_grid
        step = math.log(zmax / zmin) / (pts - 1)
        values = [zmin * math.exp(i * step) for i in range(pts)]
        values[0], values[-1] = zmin, zmax
        return tuple(values)


def default_certify_grids() -> tuple[GridConfig, ...]:
    """Built-in grids for the negativity certificate.

    Dimensions 3..10 run on multipliers of ``alpha_star``; the planar case
    has ``alpha_star = 0`` and runs on a log-spaced absolute ladder instead.
    Planar points whose eigenvalue falls outside the supported z window are
    skipped and counted, not failed.
    """
    planar_alphas = tuple(-(50.0 * (1e-3 / 50.0) ** (i / 7.0)) for i in range(8))
    return (
        GridConfig(),
        GridConfig(dims=(2,), alpha_absolute=planar_alphas, alpha_multipliers=None),
    )


_Params = tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class Violation:
    """One failed check: identifier, grid point, and the failed comparison.

    ``margin`` is positive by exactly the amount the check failed; the
    passing direction is ``margin <= 0``.
    """

    check_id: str
    params: _Params
    lhs: float
    rhs: float
    margin: float

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification suite over one grid."""

    suite: str
    grid_summary: str
    checks_run: int
    violations: tuple[Violation, ...]
    metrics: tuple[tuple[str, float], ...] = field(default=())

    @property
    def status(self) -> str:
        """``"pass"`` exactly when no check was violated."""
        return "pass" if not self.violations else "fail"

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "status": self.status,
            "grid_summary": self.grid_summary,
            "checks_run": self.checks_run,
            "metrics": dict(self.metrics),
            "violations": [v.to_dict() for v in self.violations],
        }


class _Recorder:
    """Accumulates check counts, violations, and named extremal metrics.

    A metric appears in the report only once some value above ``-inf`` has
    been tracked for it.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.violations: list[Violation] = []
        self._metrics: dict[str, float] = {}

    def check(
        self, ok: bool, check_id: str, params: _Params, lhs: float, rhs: float, margin: float
    ) -> None:
        self.checks += 1
        if not ok:
            self.violations.append(
                Violation(
                    check_id=check_id,
                    params=params,
                    lhs=float(lhs),
                    rhs=float(rhs),
                    margin=float(margin),
                )
            )

    def within(
        self, check_id: str, params: _Params, value: float, ref: float, tol: float,
        scale: float = 1.0,
    ) -> float:
        """Check ``|value - ref| / scale <= tol`` and return that error."""
        err = abs(value - ref) / scale
        self.check(err <= tol, check_id, params, value, ref, err - tol)
        return err

    def below(self, check_id: str, params: _Params, value: float, bound: float) -> None:
        """Check ``value < bound``."""
        self.check(value < bound, check_id, params, value, bound, value - bound)

    def above(self, check_id: str, params: _Params, value: float, bound: float) -> None:
        """Check ``value > bound``."""
        self.check(value > bound, check_id, params, value, bound, bound - value)

    def track_max(self, name: str, value: float) -> None:
        prev = self._metrics.get(name, -math.inf)
        if value > prev:
            self._metrics[name] = value

    def report(self, suite: str, grid_summary: str) -> VerificationReport:
        return VerificationReport(
            suite=suite,
            grid_summary=grid_summary,
            checks_run=self.checks,
            violations=tuple(self.violations),
            metrics=tuple(sorted(self._metrics.items())),
        )


_GRID_KEYS = {"dims", "radii", "alpha", "k_range", "z_grid"}


def _listed(value, key: str) -> tuple:
    if not isinstance(value, list):
        raise GridFileError(f"grid file: {key!r} must be a list")
    return tuple(value)


def parse_grid_file(path: str) -> GridConfig:
    """Load a ``GridConfig`` from a JSON file.

    Schema (every key optional, defaults as in ``GridConfig``)::

        {
          "dims": [3, 4],
          "radii": [0.2, 1.0],
          "alpha": {"multipliers": [1.5, 3.0]}   (or {"absolute": [-3.0]}),
          "k_range": [2, 25],
          "z_grid": {"min": 1e-3, "max": 700.0, "points": 200}
        }

    This only reshapes the JSON into ``GridConfig`` fields, which validates
    the values.  Malformed structure or values raise ``GridFileError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise GridFileError(f"grid file: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GridFileError(f"grid file: invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise GridFileError("grid file: top level must be a JSON object")
    unknown = set(raw) - _GRID_KEYS
    if unknown:
        raise GridFileError(f"grid file: unknown keys {sorted(unknown)}")

    kwargs = {key: _listed(raw[key], key) for key in ("dims", "radii", "k_range") if key in raw}
    if "alpha" in raw:
        alpha = raw["alpha"]
        if (
            not isinstance(alpha, dict)
            or len(alpha) != 1
            or next(iter(alpha)) not in ("absolute", "multipliers")
        ):
            raise GridFileError(
                'grid file: "alpha" must be {"absolute": [...]} or '
                '{"multipliers": [...]}'
            )
        key, values = next(iter(alpha.items()))
        kwargs[f"alpha_{key}"] = _listed(values, f"alpha.{key}")
        if key == "absolute":
            kwargs["alpha_multipliers"] = None
    if "z_grid" in raw:
        zg = raw["z_grid"]
        if not isinstance(zg, dict) or set(zg) != {"min", "max", "points"}:
            raise GridFileError(
                'grid file: "z_grid" must be {"min": ..., "max": ..., "points": ...}'
            )
        kwargs["z_grid"] = (zg["min"], zg["max"], zg["points"])
    return GridConfig(**kwargs)


def parse_spectrum_file(path: str) -> list[tuple[int, int, float]]:
    """Load perturbation-mode coefficients from a plain text file.

    Each non-blank line reads ``k i b``: harmonic degree, index within the
    degree, coefficient.  ``#`` starts a comment (full line or trailing).
    Malformed lines raise ``GridFileError``.
    """
    entries: list[tuple[int, int, float]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise GridFileError(f"spectrum file: cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise GridFileError(
                f"spectrum file: line {lineno}: expected 'k i b', got {body!r}"
            )
        try:
            k = int(parts[0])
            i = int(parts[1])
            b = float(parts[2])
        except ValueError as exc:
            raise GridFileError(
                f"spectrum file: line {lineno}: {exc}"
            ) from exc
        if not math.isfinite(b):
            raise GridFileError(
                f"spectrum file: line {lineno}: coefficient must be finite"
            )
        entries.append((k, i, b))
    return entries
