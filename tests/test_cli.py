"""End-to-end CLI tests: subcommand contracts, exit codes, file formats,
and byte determinism.  Commands run in-process through ``cli.main``; real
subprocesses are kept where the process boundary is the point: the
``python -m extrobin.cli`` entry point, determinism across interpreters,
and the modules a cold import loads."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extrobin.cli as cli_mod
from extrobin import VerificationReport, Violation


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args: str) -> CliRun:
    """Exit code, stdout and stderr of ``cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_mod.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def run_subprocess(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "extrobin.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_entry_point() -> None:
    # A success and a solver failure: same streams and exit code as in-process.
    for argv in (
        ("dispersion", "--n", "3", "--alpha", "-3"),
        ("dispersion", "--n", "3", "--alpha", "-0.5"),
    ):
        proc = run_subprocess(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(*argv)


def test_dispersion_alpha() -> None:
    proc = run_cli("dispersion", "--n", "3", "--radius", "1", "--alpha", "-3")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert abs(record["lambda"] + 4.0) <= 1e-12
    assert abs(record["z"] - 2.0) <= 1e-12
    assert record["alpha_star"] == -1.0
    assert abs(record["K"] + 1.0) <= 1e-12
    assert abs(record["a_n"] + 1.0) <= 1e-12
    assert abs(record["u_boundary_sq"] - 1.0 / math.pi) <= 1e-12


def test_dispersion_lambda() -> None:
    proc = run_cli("dispersion", "--n", "3", "--radius", "1", "--lambda", "-4")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert abs(record["alpha"] + 3.0) <= 1e-12


def test_dispersion_flag_errors() -> None:
    assert run_cli("dispersion", "--n", "3").returncode == 1
    assert (
        run_cli("dispersion", "--n", "3", "--alpha", "-3", "--lambda", "-4").returncode == 1
    )


def test_dispersion_no_eigenvalue() -> None:
    proc = run_cli("dispersion", "--n", "3", "--radius", "1", "--alpha", "-0.5")
    assert proc.returncode == 2
    assert "alpha_star" in proc.stderr or "-1" in proc.stderr


def test_dispersion_range_limit() -> None:
    proc = run_cli("dispersion", "--n", "3", "--radius", "1", "--alpha", "-900")
    assert proc.returncode == 2


def test_dispersion_csv_and_out(tmp_path) -> None:
    plain = run_cli("dispersion", "--n", "4", "--alpha", "-5", "--format", "csv")
    assert plain.returncode == 0
    rows = list(csv.reader(io.StringIO(plain.stdout)))
    assert len(rows) == 2 and rows[0][0] == "n"
    out_file = tmp_path / "record.csv"
    to_file = run_cli(
        "dispersion", "--n", "4", "--alpha", "-5", "--format", "csv", "--out", str(out_file)
    )
    assert to_file.returncode == 0
    assert out_file.read_text() == plain.stdout


def test_determinism() -> None:
    first = run_subprocess("dispersion", "--n", "5", "--radius", "0.7", "--alpha", "-9.25")
    second = run_subprocess("dispersion", "--n", "5", "--radius", "0.7", "--alpha", "-9.25")
    assert first.stdout == second.stdout
    v1 = run_subprocess("verify", "--suite", "quant")
    v2 = run_subprocess("verify", "--suite", "quant")
    assert v1.returncode == 0 and v1.stdout == v2.stdout


def test_curve_contract() -> None:
    proc = run_cli(
        "curve",
        "--n", "2,3,4,5",
        "--radius", "1",
        "--lambda-min", "-25",
        "--lambda-max", "-1e-6",
        "--points", "100",
    )
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["n", "R", "lambda", "z", "alpha"]
    data = rows[1:]
    assert len(data) == 400
    by_n: dict[str, list[tuple[float, float]]] = {}
    for n_txt, _r, lam_txt, _z, alpha_txt in data:
        by_n.setdefault(n_txt, []).append((float(lam_txt), float(alpha_txt)))
    for n_txt, block in by_n.items():
        lams = [lam for lam, _ in block]
        alphas = [al for _, al in block]
        assert lams == sorted(lams)
        assert block[-1][0] == -1e-6
        assert all(a1 < a2 for a1, a2 in zip(alphas, alphas[1:]))
        n = int(n_txt)
        if n >= 3:
            assert abs(alphas[-1] + (n - 2)) <= 0.02


def test_curve_spot_value() -> None:
    # 25 points from -4 to -1 include lambda = -4 exactly at the endpoint.
    proc = run_cli(
        "curve", "--n", "3", "--lambda-min", "-4", "--lambda-max", "-1", "--points", "25"
    )
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    lam, alpha = float(rows[0][2]), float(rows[0][4])
    assert lam == -4.0
    assert abs(alpha + 3.0) <= 1e-10


def test_curve_bad_range() -> None:
    assert (
        run_cli("curve", "--n", "3", "--lambda-min", "-1", "--lambda-max", "-2").returncode == 1
    )
    assert (
        run_cli("curve", "--n", "3", "--lambda-min", "-4", "--lambda-max", "0").returncode == 1
    )


def test_steklov_json() -> None:
    proc = run_cli("steklov", "--n", "3", "--alpha", "-3", "--kmax", "2")
    record = json.loads(proc.stdout)
    assert record["count_with_multiplicity"] == 4
    assert record["count_distinct_degrees"] == 2
    mus = [level["mu"] for level in record["levels"]]
    assert mus[0] == 0.0
    assert abs(mus[1] - 1.0 / 3.0) <= 1e-12
    assert abs(mus[2] - 12.0 / 13.0) <= 1e-12
    assert [level["multiplicity"] for level in record["levels"]] == [1, 3, 5]


def test_steklov_csv_and_n2() -> None:
    proc = run_cli("steklov", "--n", "2", "--alpha", "-1", "--kmax", "3", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["k", "mu", "multiplicity"]
    assert len(rows) == 5
    record = json.loads(run_cli("steklov", "--n", "2", "--alpha", "-1").stdout)
    assert record["count_with_multiplicity"] is None


def test_second_variation_cli(tmp_path) -> None:
    modes = tmp_path / "modes.txt"
    modes.write_text("2 1 1.0\n")
    proc = run_cli(
        "second-variation", "--n", "3", "--radius", "1", "--alpha", "-3",
        "--spectrum", str(modes),
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert abs(record["lambda_ddot"] + 49.0 / (6.0 * math.pi)) <= 1e-12
    assert record["S_ddot"] == 4.0
    assert record["quant_holds"] is True


def test_second_variation_constraints(tmp_path) -> None:
    modes = tmp_path / "modes.txt"
    modes.write_text("0 0 0.1\n")
    proc = run_cli(
        "second-variation", "--n", "3", "--alpha", "-3", "--spectrum", str(modes)
    )
    assert proc.returncode == 1
    assert "measure-preserving condition violated" in proc.stderr

    modes.write_text("1 1 1.0\n")
    proc = run_cli(
        "second-variation", "--n", "3", "--alpha", "-3", "--spectrum", str(modes)
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["lambda_ddot"] == 0.0
    assert "null mode" in record["notes"]

    modes.write_text("not a spectrum\n")
    proc = run_cli(
        "second-variation", "--n", "3", "--alpha", "-3", "--spectrum", str(modes)
    )
    assert proc.returncode == 1


def test_quant_bound_cli(tmp_path) -> None:
    proc = run_cli("quant-bound", "--n", "3", "--radius", "1", "--alpha", "-3")
    record = json.loads(proc.stdout)
    assert abs(record["deficit_constant"] - 3.0 / (4.0 * math.pi)) <= 1e-12
    modes = tmp_path / "modes.txt"
    modes.write_text("2 0 1.0\n")
    proc = run_cli(
        "quant-bound", "--n", "3", "--radius", "1", "--alpha", "-3",
        "--spectrum", str(modes),
    )
    record = json.loads(proc.stdout)
    assert record["holds"] is True
    assert abs(record["margin"] - 31.0 / (24.0 * math.pi)) <= 1e-12


def test_counterexample_ellipsoid() -> None:
    proc = run_cli("counterexample", "ellipsoid", "--n", "3", "--a", "0.1", "--alpha", "-50")
    record = json.loads(proc.stdout)
    assert record["delta"] > 4.0
    assert record["verdict"] == "ellipsoid exceeds ball (asymptotic)"
    proc = run_cli("counterexample", "ellipsoid", "--n", "3", "--a", "0.95", "--alpha", "-50")
    record = json.loads(proc.stdout)
    assert record["delta"] < 0.0
    assert record["verdict"] == "ball exceeds ellipsoid (asymptotic)"
    assert run_cli(
        "counterexample", "ellipsoid", "--n", "3", "--a", "1.2", "--alpha", "-50"
    ).returncode == 1


def test_counterexample_square() -> None:
    proc = run_cli("counterexample", "square", "--alpha", "-10")
    record = json.loads(proc.stdout)
    assert record["lambda_square"] == -100.0
    assert record["lambda_disk"] == -90.0
    assert record["verdict"] == "disk exceeds square (asymptotic)"


def test_verify_cli(tmp_path) -> None:
    report_file = tmp_path / "report.json"
    proc = run_cli("verify", "--suite", "quant", "--out", str(report_file))
    assert proc.returncode == 0
    assert "pass" in proc.stdout
    reports = json.loads(report_file.read_text())
    assert reports[0]["suite"] == "quant.ratio-bound"
    assert reports[0]["status"] == "pass"


def test_verify_grid_file(tmp_path) -> None:
    cfg = tmp_path / "single.cfg"
    cfg.write_text(
        json.dumps(
            {
                "dims": [3],
                "radii": [1.0],
                "alpha": {"multipliers": [3.0]},
                "k_range": [2, 2],
                "z_grid": {"min": 1.0, "max": 2.0, "points": 2},
            }
        )
    )
    proc = run_cli("verify", "--suite", "variation", "--grid", str(cfg))
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    metrics = reports[0]["metrics"]
    assert abs(metrics["max_mode_coefficient_k_ge_2"] + 49.0 / 6.0) <= 1e-12

    cfg.write_text("{broken")
    assert run_cli("verify", "--suite", "variation", "--grid", str(cfg)).returncode == 1


def test_verify_exit_code_on_violation(monkeypatch, capsys) -> None:
    # Forced violation exercises the exit-3 wiring without weakening any suite.
    failing = VerificationReport(
        suite="bessel.identities",
        grid_summary="forced",
        checks_run=1,
        violations=(
            Violation(check_id="forced", params=(("n", 3.0),), lhs=1.0, rhs=0.0, margin=-1.0),
        ),
    )
    monkeypatch.setattr(cli_mod, "run_suites", lambda names, grid: [failing])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main(["verify", "--suite", "bessel"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_bessel_table() -> None:
    proc = run_cli(
        "bessel-table",
        "--orders", "0,1/2",
        "--n", "3",
        "--zmin", "0.5",
        "--zmax", "8",
        "--points", "3",
        "--format", "csv",
    )
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["z", "K_scaled_0", "K_scaled_1/2", "f_3", "a_3"]
    assert [r[0] for r in rows[1:]] == ["0.5", "2.0", "8.0"]
    # f_3(z) = z + 1 and a_3 = -1 in the closed-form columns.
    assert float(rows[1][3]) == 1.5
    assert float(rows[1][4]) == -1.0
    assert run_cli("bessel-table", "--orders", "1/3").returncode == 1
    assert run_cli("bessel-table", "--points", "1").returncode == 1


def test_help_lists_subcommands() -> None:
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in (
        "dispersion", "curve", "steklov", "second-variation",
        "quant-bound", "counterexample", "verify", "bessel-table",
    ):
        assert name in proc.stdout


def test_verify_grid_rejected_for_fixed_grid_suites(tmp_path) -> None:
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"dims": [3]}))
    for suite in ("spectra", "quant"):
        code, out, err = run_cli("verify", "--suite", suite, "--grid", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: --grid does not apply to --suite {suite}\n"


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (("dispersion", "--n", "3", "--radius", "1e-200", "--alpha", "-1e201"), 2),
        (("dispersion", "--n", "3", "--radius", "1e200", "--alpha", "-5e-200"), 2),
        (("quant-bound", "--n", "3", "--radius", "1e-120", "--alpha", "-3e120"), 2),
        (("dispersion", "--n", "3", "--alpha", "-3", "--out", "{missing}/x.json"), 1),
        (("dispersion", "--n", "3", "--alpha", "-3", "--out", "{dir}"), 1),
        (("bessel-table", "--orders", "x"), 1),
        (("bessel-table", "--orders", "1/0"), 1),
        (("bessel-table", "--orders", "1e300", "--points", "2"), 1),
    ],
)
def test_failures_exit_with_one_error_line(tmp_path, argv, code) -> None:
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    got, out, err = run_cli(*argv)
    assert got == code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_EXTREME = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["alpha", "lambda", "steklov", "quant-bound", "curve"]),
    n=st.integers(2, 12),
    radius=_EXTREME,
    value=_EXTREME,
    other=_EXTREME,
)
@example(command="alpha", n=3, radius=1e-200, value=-1e201, other=0.0)
@example(command="alpha", n=3, radius=1e200, value=-5e-200, other=0.0)
@example(command="quant-bound", n=3, radius=1e-120, value=-3e120, other=0.0)
def test_extreme_inputs_end_in_an_exit_code(command, n, radius, value, other) -> None:
    point = ["--n", str(n), "--radius", repr(radius)]
    argv = {
        "alpha": ["dispersion", *point, "--alpha", repr(value)],
        "lambda": ["dispersion", *point, "--lambda", repr(value)],
        "steklov": ["steklov", *point, "--alpha", repr(value), "--kmax", "3"],
        "quant-bound": ["quant-bound", *point, "--alpha", repr(value)],
        "curve": ["curve", *point, "--lambda-min", repr(value), "--lambda-max", repr(other),
                  "--points", "3"],
    }[command]
    assert run_cli(*argv)[0] in (0, 1, 2, 3)


def test_cli_imports_no_click() -> None:
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, extrobin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout == "[]\n"
