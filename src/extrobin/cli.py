"""Command-line interface for the exterior Robin eigenvalue toolkit.

Every subcommand emits plain text: a single record or a table, as JSON or
CSV, to stdout or to ``--out``.  Floats are printed as shortest
round-trip decimals (at most 17 significant digits), iteration orders are
fixed, and no timestamps or environment data enter the output, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 input or constraint error, 2 solver failure, no
discrete eigenvalue or arithmetic overflow, 3 verification violations.
"""

from __future__ import annotations

import argparse
import csv as _csv
import inspect
import io
import json
import math
import sys
from typing import NoReturn

from .bessel import BesselOrder, gap_a, modified_bessel_K, ratio_f
from .counterexample import (
    EllipsoidSpec, compare_ellipsoid_ball, ellipsoid_hmax, equivalent_ball_radius, hynak_check,
    hynak_threshold, square_vs_disk,
)
from .errors import ExtrobinError, NoDiscreteEigenvalueError, RangeLimitError, SolverConvergenceError
from .report import parse_grid_file, parse_spectrum_file
from .spectra import (
    BallGeometry, Z_MAX, Z_MIN, alpha_of_lambda, alpha_star, count_discrete, shifted_steklov,
    solution_from_lambda, solve_lambda,
)
from .variation import PerturbationSpectrum, quant_bound, quant_ratio_check, second_variation
from .verify import run_suites

EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_VIOLATIONS = 3


class _UsageError(Exception):
    """A missing, unknown or malformed flag, or an unwritable ``--out``."""


class _Parser(argparse.ArgumentParser):
    """``argparse`` with this CLI's conventions.

    Usage errors raise instead of exiting 2, which is the solver-failure
    code here; flags must be spelled out in full; ``--help`` has no ``-h``
    alias.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False,
                         formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_record(record: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write(_json(record), out)
    else:
        _emit_table(tuple(record), [tuple(record.values())], fmt, out)


def _emit_table(header: tuple[str, ...], rows: list[tuple], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = _json([dict(zip(header, row)) for row in rows])
    else:
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
        text = buf.getvalue()
    _write(text, out)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError as exc:
        raise _UsageError(f"{flag} expects comma-separated integers: {exc}")
    if not values:
        raise _UsageError(f"{flag} must name at least one value")
    return values


def cmd_dispersion(n: int, radius: float, alpha: float | None, lam: float | None, fmt: str, out: str | None) -> None:
    """Solve the dispersion relation at one parameter point.

    Exactly one of --alpha / --lambda selects the direction: from the
    coupling to the eigenvalue (root solve) or back (closed form).
    """
    if (alpha is None) == (lam is None):
        raise _UsageError("exactly one of --alpha / --lambda is required")
    geom = BallGeometry(n, radius)
    if alpha is not None:
        sol = solve_lambda(geom, alpha)
    else:
        sol = solution_from_lambda(geom, lam)
    record = {
        "n": n,
        "R": radius,
        "alpha": sol.alpha,
        "lambda": sol.lam,
        "z": sol.z,
        "K": sol.K_const,
        "a_n": sol.a_val,
        "u_boundary_sq": sol.u_boundary_sq,
        "alpha_star": alpha_star(geom),
    }
    _emit_record(record, fmt, out)


def cmd_curve(dims_text: str, radius: float, lambda_min: float, lambda_max: float, points: int, out: str | None) -> None:
    """Emit dispersion-curve data as CSV: alpha against lambda per dimension.

    Header ``n,R,lambda,z,alpha``; rows ascend in lambda within each block
    and blocks ascend in dimension.
    """
    dims = _parse_int_list(dims_text, "--n")
    if points < 2:
        raise _UsageError("--points must be >= 2")
    if not (lambda_min < lambda_max < 0.0):
        raise _UsageError("range must satisfy lambda-min < lambda-max < 0")
    z_hi = radius * math.sqrt(-lambda_min)
    z_lo = radius * math.sqrt(-lambda_max)
    if z_hi > Z_MAX or z_lo < Z_MIN:
        raise _UsageError(
            f"lambda range maps to z in [{z_lo:.3g}, {z_hi:.3g}], outside the "
            f"supported window [{Z_MIN:g}, {Z_MAX:g}]"
        )
    rows: list[tuple] = []
    for n in dims:
        geom = BallGeometry(n, radius)
        for i in range(points):
            # Exact at both endpoints, unlike offset-plus-span stepping.
            lam = ((points - 1 - i) * lambda_min + i * lambda_max) / (points - 1)
            rows.append((n, radius, lam, radius * math.sqrt(-lam), alpha_of_lambda(geom, lam)))
    _emit_table(("n", "R", "lambda", "z", "alpha"), rows, "csv", out)


def cmd_steklov(n: int, radius: float, alpha: float, kmax: int, fmt: str, out: str | None) -> None:
    """Tabulate the shifted Steklov levels of the solved exterior problem."""
    geom = BallGeometry(n, radius)
    sol = solve_lambda(geom, alpha)
    levels = shifted_steklov(sol, kmax)
    if fmt == "json":
        record = {
            "n": n,
            "R": radius,
            "alpha": alpha,
            "lambda": sol.lam,
            "alpha_star": alpha_star(geom),
            "count_with_multiplicity": count_discrete(geom, alpha) if n >= 3 else None,
            "count_distinct_degrees": (
                count_discrete(geom, alpha, with_multiplicity=False) if n >= 3 else None
            ),
            "levels": [{"k": l.k, "mu": l.mu, "multiplicity": l.dim} for l in levels],
        }
        _write(_json(record), out)
    else:
        rows = [(l.k, l.mu, l.dim) for l in levels]
        _emit_table(("k", "mu", "multiplicity"), rows, "csv", out)


def _load_spectrum(path: str, kmax: int) -> PerturbationSpectrum:
    entries = parse_spectrum_file(path)
    return PerturbationSpectrum(entries=tuple(entries), k_max=kmax)


def cmd_second_variation(n: int, radius: float, alpha: float, spectrum: str, kmax: int, fmt: str, out: str | None) -> None:
    """Second variation of the eigenvalue under a harmonic perturbation.

    The admissibility constraints are enforced: degree-0 coefficients
    violate volume preservation, degree-1 coefficients violate barycenter
    fixing.  A purely degree-1 spectrum is reported as the translational
    null mode.
    """
    geom = BallGeometry(n, radius)
    sol = solve_lambda(geom, alpha)
    spec = _load_spectrum(spectrum, kmax)
    rep = second_variation(sol, spec, allow_pure_translation=True)
    quant_holds: bool | None = None
    quant_margin: float | None = None
    notes = rep.notes
    if any(k >= 2 and b != 0.0 for k, _i, b in spec.entries):
        qc = quant_ratio_check(sol, spec)
        quant_holds = qc.holds
        quant_margin = qc.margin
    else:
        notes = notes + ("quant check skipped: no admissible modes of degree >= 2",)
    record = {
        "n": n,
        "R": radius,
        "alpha": alpha,
        "lambda": sol.lam,
        "u_boundary_sq": sol.u_boundary_sq,
        "lambda_ddot": rep.lambda_ddot,
        "S_ddot": rep.S_ddot,
        "Q": rep.Q_val,
        "quant_ratio": rep.quant_ratio,
        "quant_bound": rep.quant_bound,
        "quant_holds": quant_holds,
        "quant_margin": quant_margin,
        "notes": "; ".join(notes),
    }
    _emit_record(record, fmt, out)


def cmd_quant_bound(n: int, radius: float, alpha: float, spectrum: str | None, kmax: int, fmt: str, out: str | None) -> None:
    """Certified bound on lambda_ddot / S_ddot, optionally tested on a spectrum."""
    geom = BallGeometry(n, radius)
    sol = solve_lambda(geom, alpha)
    qb = quant_bound(sol)
    record = {
        "n": n,
        "R": radius,
        "alpha": alpha,
        "lambda": sol.lam,
        "ratio_bound": qb.ratio_bound,
        "deficit_constant": qb.deficit_constant,
    }
    if spectrum is not None:
        qc = quant_ratio_check(sol, _load_spectrum(spectrum, kmax))
        record["ratio"] = qc.ratio
        record["margin"] = qc.margin
        record["holds"] = qc.holds
    _emit_record(record, fmt, out)


def cmd_counterexample_ellipsoid(n: int, aspect: float, alpha: float, fmt: str, out: str | None) -> None:
    """Quadratic truncations: elongated (prolate) ellipsoid against the equal-volume ball."""
    spec = EllipsoidSpec(n=n, a=aspect)
    comp = compare_ellipsoid_ball(spec, alpha)
    check = hynak_check(n, aspect)
    verdict = (
        "ellipsoid exceeds ball (asymptotic)"
        if comp.first_exceeds
        else "ball exceeds ellipsoid (asymptotic)"
    )
    record = {
        "n": n,
        "a": aspect,
        "alpha": alpha,
        "h_max_ellipsoid": ellipsoid_hmax(spec),
        "h_max_ball": -(aspect ** (1.0 / n)),
        "equivalent_ball_radius": equivalent_ball_radius(spec),
        "lambda_ellipsoid": comp.lambda_first,
        "lambda_ball": comp.lambda_second,
        "delta": comp.delta,
        "criterion_gap": check.gap,
        "threshold": hynak_threshold(n),
        "verdict": verdict,
        "note": comp.note,
    }
    _emit_record(record, fmt, out)


def cmd_counterexample_square(alpha: float, fmt: str, out: str | None) -> None:
    """Quadratic truncations: square against the unit disk (planar case)."""
    comp = square_vs_disk(alpha)
    record = {
        "alpha": alpha,
        "lambda_square": comp.lambda_first,
        "lambda_disk": comp.lambda_second,
        "delta": comp.delta,
        "verdict": "disk exceeds square (asymptotic)",
        "note": comp.note,
    }
    _emit_record(record, fmt, out)


def cmd_verify(suite: str, grid: str | None, fmt: str, out: str | None) -> None:
    """Run property suites and report violations; exit 3 if any are found.

    A grid file drives the bessel and variation suites only; the spectra
    and quant suites run fixed grids and reject --grid.
    """
    if grid is not None and suite in ("spectra", "quant"):
        raise _UsageError(f"--grid does not apply to --suite {suite}")
    cfg = parse_grid_file(grid) if grid is not None else None
    reports = run_suites((suite,), cfg)
    if fmt == "json":
        _write(_json([r.to_dict() for r in reports]), out)
    else:
        rows: list[tuple] = []
        for r in reports:
            rows.append(("summary", r.suite, r.status, r.checks_run, "", "", "", "", ""))
            rows.extend(
                ("violation", r.suite, r.status, r.checks_run, v.check_id,
                 json.dumps(dict(v.params), sort_keys=True), v.lhs, v.rhs, v.margin)
                for v in r.violations
            )
        header = ("record", "suite", "status", "checks_run", "check_id", "params", "lhs", "rhs", "margin")
        _emit_table(header, rows, "csv", out)
    if out is not None:
        for r in reports:
            print(
                f"{r.suite}: {r.status} ({r.checks_run} checks, "
                f"{len(r.violations)} violations)"
            )
    if any(r.violations for r in reports):
        sys.exit(EXIT_VIOLATIONS)


def cmd_bessel_table(orders: str, dims_text: str, zmin: float, zmax: float, points: int, fmt: str, out: str | None) -> None:
    """Dump scaled kernels e^z K_m(z) plus ratio and gap columns on a z grid."""
    order_list = [BesselOrder.parse(tok.strip()) for tok in orders.split(",") if tok.strip()]
    if not order_list:
        raise _UsageError("--orders must name at least one order")
    dims = _parse_int_list(dims_text, "--n") if dims_text else ()
    if any(n < 2 for n in dims):
        raise _UsageError("--n dimensions must be >= 2")
    if not (0.0 < zmin < zmax <= 1e6):
        raise _UsageError("need 0 < zmin < zmax <= 1e6")
    if not 2 <= points <= 100000:
        raise _UsageError("--points must lie in [2, 100000]")
    header = (
        ("z",)
        + tuple(f"K_scaled_{o}" for o in order_list)
        + tuple(col for n in dims for col in (f"f_{n}", f"a_{n}"))
    )
    step = math.log(zmax / zmin) / (points - 1)
    rows: list[tuple] = []
    for i in range(points):
        z = zmin if i == 0 else zmax if i == points - 1 else zmin * math.exp(i * step)
        row: list = [z]
        for o in order_list:
            row.append(modified_bessel_K(o, z, scaled=True))
        for n in dims:
            row.append(ratio_f(n, z))
            row.append(gap_a(n, z))
        rows.append(tuple(row))
    _emit_table(header, rows, fmt, out)


def _command(commands, name: str, func) -> _Parser:
    doc = inspect.getdoc(func)
    parser = commands.add_parser(name, help=doc.splitlines()[0], description=doc)
    parser.set_defaults(func=func)
    return parser


_OUT_HELP = "write to this file instead of stdout"


def _ball_flags(parser: _Parser, alpha_required: bool = True) -> None:
    parser.add_argument("--n", type=int, required=True, help="space dimension, n >= 2")
    parser.add_argument("--radius", type=float, default=1.0, help="ball radius R (default: 1.0)")
    parser.add_argument("--alpha", type=float, required=alpha_required, help="Robin coupling (negative)")


def _output_flags(parser: _Parser) -> None:
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                        help="output encoding (default: json)")
    parser.add_argument("--out", metavar="FILE", help=_OUT_HELP)


def _build_parser() -> _Parser:
    root = _Parser(
        prog="extrobin",
        description="Principal Robin eigenvalue outside a ball.\n\n"
        "Dispersion solves, Steklov spectra, shape variations, asymptotic\n"
        "comparisons, and certified inequality suites.",
    )
    commands = root.add_subparsers(required=True, metavar="COMMAND")

    p = _command(commands, "dispersion", cmd_dispersion)
    _ball_flags(p, alpha_required=False)
    p.add_argument("--lambda", dest="lam", metavar="LAMBDA", type=float, help="prescribed eigenvalue (negative)")
    _output_flags(p)

    p = _command(commands, "curve", cmd_curve)
    p.add_argument("--n", dest="dims_text", metavar="DIMS", default="2,3,4,5", help="comma-separated dimensions (default: 2,3,4,5)")
    p.add_argument("--radius", type=float, default=1.0, help="ball radius R (default: 1.0)")
    p.add_argument("--lambda-min", type=float, required=True, help="most negative eigenvalue")
    p.add_argument("--lambda-max", type=float, required=True, help="least negative eigenvalue")
    p.add_argument("--points", type=int, default=200, help="rows per dimension block (default: 200)")
    p.add_argument("--out", metavar="FILE", help=_OUT_HELP)

    p = _command(commands, "steklov", cmd_steklov)
    _ball_flags(p)
    p.add_argument("--kmax", type=int, default=10, help="largest harmonic degree (default: 10)")
    _output_flags(p)

    p = _command(commands, "second-variation", cmd_second_variation)
    _ball_flags(p)
    p.add_argument("--spectrum", required=True, help="perturbation coefficient file (lines 'k i b')")
    p.add_argument("--kmax", type=int, default=64, help="degree cap for the spectrum (default: 64)")
    _output_flags(p)

    p = _command(commands, "quant-bound", cmd_quant_bound)
    _ball_flags(p)
    p.add_argument("--spectrum", help="optional spectrum to evaluate the ratio on")
    p.add_argument("--kmax", type=int, default=64, help="degree cap for the spectrum (default: 64)")
    _output_flags(p)

    doc = "Asymptotic comparisons of non-ball domains against the ball."
    p = commands.add_parser("counterexample", help=doc, description=doc)
    shapes = p.add_subparsers(required=True, metavar="SHAPE")
    p = _command(shapes, "ellipsoid", cmd_counterexample_ellipsoid)
    p.add_argument("--n", type=int, required=True, help="space dimension, n >= 3")
    p.add_argument("--a", dest="aspect", metavar="A", type=float, required=True, help="aspect parameter in (0, 1)")
    p.add_argument("--alpha", type=float, required=True, help="Robin coupling (negative)")
    _output_flags(p)
    p = _command(shapes, "square", cmd_counterexample_square)
    p.add_argument("--alpha", type=float, required=True, help="Robin coupling (negative)")
    _output_flags(p)

    p = _command(commands, "verify", cmd_verify)
    p.add_argument("--suite", choices=("bessel", "spectra", "variation", "quant", "all"), default="all",
                   help="which property suite to run (default: all)")
    p.add_argument("--grid", help="JSON grid file overriding the defaults")
    _output_flags(p)

    p = _command(commands, "bessel-table", cmd_bessel_table)
    p.add_argument("--orders", default="0,1/2,1,3/2",
                   help="comma-separated K orders, integers or half-integers (default: 0,1/2,1,3/2)")
    p.add_argument("--n", dest="dims_text", metavar="DIMS", default="", help="comma-separated dimensions for ratio and gap columns")
    p.add_argument("--zmin", type=float, default=1e-3, help="smallest argument (default: 0.001)")
    p.add_argument("--zmax", type=float, default=700.0, help="largest argument (default: 700.0)")
    p.add_argument("--points", type=int, default=50, help="log-spaced point count (default: 50)")
    _output_flags(p)
    return root


cli = _build_parser()


def _attach_values(argv: list[str]) -> list[str]:
    """Join each ``--flag value`` pair into ``--flag=value``.

    Every flag but ``--help`` takes one value: the next token, even one such
    as ``-1e-6`` that argparse alone would read as a flag.
    """
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        if tok.startswith("--") and tok not in ("--", "--help") and "=" not in tok:
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        out.append(tok)
    return out


def _fail(message: str, code: int) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def main(argv: list[str] | None = None) -> None:
    """Entry point with the documented exit-code mapping."""
    try:
        args = vars(cli.parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
        args.pop("func")(**args)
    except (NoDiscreteEigenvalueError, RangeLimitError, SolverConvergenceError) as exc:
        _fail(str(exc), EXIT_SOLVER)
    except (_UsageError, ExtrobinError) as exc:
        _fail(str(exc), EXIT_INPUT)
    except ArithmeticError as exc:
        # Overflow or division by zero from inputs of extreme magnitude.
        _fail(f"{type(exc).__name__}: {exc}", EXIT_SOLVER)


if __name__ == "__main__":
    main()
