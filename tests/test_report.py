"""Grid configuration, report structures, and the two file parsers."""

import json
import math

import pytest

from extrobin import (
    GridConfig,
    GridFileError,
    VerificationReport,
    Violation,
    default_certify_grids,
    parse_grid_file,
    parse_spectrum_file,
)
from extrobin.report import _Recorder


def test_grid_defaults() -> None:
    grid = GridConfig()
    assert grid.dims == (3, 4, 5, 6, 7, 8, 9, 10)
    assert grid.radii == (0.2, 1.0, 5.0)
    assert grid.k_range == (2, 25)
    zs = grid.z_values()
    assert len(zs) == 200
    assert zs[0] == 1e-3 and zs[-1] == 700.0
    assert all(z1 < z2 for z1, z2 in zip(zs, zs[1:]))


def test_grid_validation() -> None:
    with pytest.raises(GridFileError):
        GridConfig(alpha_multipliers=(1.5,), alpha_absolute=(-3.0,))
    with pytest.raises(GridFileError):
        GridConfig(alpha_multipliers=None, alpha_absolute=None)
    with pytest.raises(GridFileError):
        GridConfig(alpha_multipliers=(0.9,))
    with pytest.raises(GridFileError):
        GridConfig(dims=(2, 3))
    GridConfig(dims=(2,), alpha_multipliers=None, alpha_absolute=(-1.0,))
    with pytest.raises(GridFileError):
        GridConfig(k_range=(1, 5))
    with pytest.raises(GridFileError):
        GridConfig(k_range=(5, 2))
    with pytest.raises(GridFileError):
        GridConfig(z_grid=(0.0, 700.0, 10))
    with pytest.raises(GridFileError):
        GridConfig(z_grid=(1.0, 800.0, 10))
    with pytest.raises(GridFileError):
        GridConfig(z_grid=(1.0, 2.0, 1))
    with pytest.raises(GridFileError):
        GridConfig(radii=(True,))
    with pytest.raises(GridFileError):
        GridConfig(z_grid=("a", 2.0, 3))
    with pytest.raises(GridFileError):
        GridConfig(dims=(2,), alpha_multipliers=None, alpha_absolute=())
    # Numbers are normalized to floats, so equal grids compare equal.
    grid = GridConfig(radii=(1,), alpha_multipliers=(2,), z_grid=(1, 2, 3))
    assert grid == GridConfig(radii=(1.0,), alpha_multipliers=(2.0,), z_grid=(1.0, 2.0, 3))
    assert isinstance(grid.radii[0], float) and isinstance(grid.z_grid[0], float)


def test_alphas_for() -> None:
    grid = GridConfig(dims=(3,), alpha_multipliers=(1.5, 3.0))
    assert grid.alphas_for(3, 1.0) == (-1.5, -3.0)
    absolute = GridConfig(dims=(2,), alpha_multipliers=None, alpha_absolute=(-0.5, -7.0))
    assert absolute.alphas_for(2, 1.0) == (-0.5, -7.0)


def test_default_certify_grids() -> None:
    grids = default_certify_grids()
    assert len(grids) == 2
    assert grids[0].dims == tuple(range(3, 11))
    assert grids[1].dims == (2,)
    assert grids[1].alpha_absolute is not None
    assert all(a < 0.0 for a in grids[1].alpha_absolute)


def test_report_status() -> None:
    clean = VerificationReport(suite="s", grid_summary="g", checks_run=10, violations=())
    assert clean.status == "pass"
    bad = VerificationReport(
        suite="s",
        grid_summary="g",
        checks_run=10,
        violations=(Violation(check_id="c", params=(("n", 3.0),), lhs=1.0, rhs=0.0, margin=-1.0),),
    )
    assert bad.status == "fail"
    record = bad.to_dict()
    assert record["status"] == "fail"
    assert record["violations"][0]["check_id"] == "c"


def test_recorder_helpers() -> None:
    rec = _Recorder()
    params = (("n", 3.0),)
    assert rec.within("w", params, 1.5, 1.0, 0.25, scale=2.0) == 0.25
    rec.below("b", params, -1.0, 0.0)
    rec.above("a", params, 1.0, 0.0)
    assert rec.checks == 3 and rec.violations == []
    # A failed check's margin is positive by the amount it failed.
    rec.within("w", params, 2.0, 1.0, 0.25)
    rec.below("b", params, 1.0, 0.5)
    rec.above("a", params, 0.5, 1.0)
    assert [(v.check_id, v.lhs, v.rhs, v.margin) for v in rec.violations] == [
        ("w", 2.0, 1.0, 0.75),
        ("b", 1.0, 0.5, 0.5),
        ("a", 0.5, 1.0, 0.5),
    ]
    # NaN fails every helper.
    rec = _Recorder()
    rec.within("w", params, math.nan, 1.0, 0.25)
    rec.below("b", params, math.nan, 0.0)
    rec.above("a", params, math.nan, 0.0)
    assert [v.check_id for v in rec.violations] == ["w", "b", "a"]


def test_parse_grid_file(tmp_path) -> None:
    path = tmp_path / "grid.cfg"
    path.write_text(
        json.dumps(
            {
                "dims": [3, 4],
                "radii": [0.5, 1.0],
                "alpha": {"multipliers": [1.5, 3.0]},
                "k_range": [2, 10],
                "z_grid": {"min": 0.01, "max": 100.0, "points": 20},
            }
        )
    )
    grid = parse_grid_file(str(path))
    assert grid.dims == (3, 4)
    assert grid.alpha_multipliers == (1.5, 3.0)
    assert grid.z_grid == (0.01, 100.0, 20)

    path.write_text(json.dumps({"alpha": {"absolute": [-3.0]}, "dims": [2]}))
    grid = parse_grid_file(str(path))
    assert grid.alpha_absolute == (-3.0,)


def test_parse_grid_file_errors(tmp_path) -> None:
    path = tmp_path / "grid.cfg"
    path.write_text("{not json")
    with pytest.raises(GridFileError):
        parse_grid_file(str(path))
    path.write_text(json.dumps({"dims": [3], "bogus": 1}))
    with pytest.raises(GridFileError):
        parse_grid_file(str(path))
    path.write_text(json.dumps({"alpha": {"absolute": [-1.0], "multipliers": [2.0]}}))
    with pytest.raises(GridFileError):
        parse_grid_file(str(path))
    path.write_text(json.dumps({"dims": [2, 3]}))
    with pytest.raises(GridFileError):
        parse_grid_file(str(path))
    path.write_text(json.dumps({"z_grid": {"min": 1.0, "max": 2.0}}))
    with pytest.raises(GridFileError):
        parse_grid_file(str(path))
    for bad in (
        {"radii": 1.0},
        {"radii": [True]},
        {"k_range": [2, "x"]},
        {"k_range": [2, 3, 4]},
        {"alpha": {"absolute": []}},
        {"z_grid": {"min": "a", "max": 2.0, "points": 3}},
        {"z_grid": {"min": 1.0, "max": 2.0, "points": 3.0}},
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(GridFileError):
            parse_grid_file(str(path))
    path.write_text('{"radii": [1' + "0" * 400 + "]}")
    with pytest.raises(GridFileError):
        parse_grid_file(str(path))
    with pytest.raises(GridFileError):
        parse_grid_file(str(tmp_path / "missing.cfg"))


def test_parse_spectrum_file(tmp_path) -> None:
    path = tmp_path / "modes.txt"
    path.write_text("# leading comment\n2 0 1.0\n\n3 2 -0.5  # trailing\n")
    assert parse_spectrum_file(str(path)) == [(2, 0, 1.0), (3, 2, -0.5)]


def test_parse_spectrum_file_errors(tmp_path) -> None:
    path = tmp_path / "modes.txt"
    path.write_text("2 0\n")
    with pytest.raises(GridFileError, match="line 1"):
        parse_spectrum_file(str(path))
    path.write_text("2 0 1.0\nx 0 1.0\n")
    with pytest.raises(GridFileError, match="line 2"):
        parse_spectrum_file(str(path))
    with pytest.raises(GridFileError):
        parse_spectrum_file(str(tmp_path / "missing.txt"))
