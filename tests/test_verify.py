"""The verification suites must pass on their default grids, honor custom
grid configurations, and fail on planted faults."""

from collections import Counter

import pytest

import extrobin.spectra
import extrobin.verify
from extrobin import (
    DomainError,
    GridConfig,
    certify_negativity,
    run_bessel_suite,
    run_quant_suite,
    run_spectra_suite,
    run_suites,
    run_variation_suite,
)

SMALL = GridConfig(
    dims=(3, 5),
    radii=(1.0,),
    alpha_multipliers=(1.5, 4.0),
    k_range=(2, 8),
    z_grid=(1e-2, 100.0, 25),
)


def test_bessel_suite_small() -> None:
    report = run_bessel_suite(SMALL)
    assert report.status == "pass"
    assert report.violations == ()
    assert report.checks_run > 0
    assert report.suite == "bessel.identities"


def test_spectra_suite_small() -> None:
    report = run_spectra_suite(SMALL)
    assert report.status == "pass"
    assert dict(report.metrics)["max_round_trip_rel_err"] <= 1e-10


def test_variation_suite_small() -> None:
    report = run_variation_suite(SMALL)
    assert report.status == "pass"
    assert dict(report.metrics)["max_mode_coefficient_k_ge_2"] < 0.0


def test_quant_suite_small() -> None:
    report = run_quant_suite(SMALL)
    assert report.status == "pass"
    assert dict(report.metrics)["min_margin_observed"] >= 0.0


def test_run_suites_order_and_all() -> None:
    reports = run_suites(("all",), SMALL)
    assert [r.suite for r in reports] == [
        "bessel.identities",
        "spectra.roundtrip",
        "variation.identities",
        "quant.ratio-bound",
    ]
    # Explicit names are deduplicated into canonical order.
    reports = run_suites(("quant", "bessel", "quant"), SMALL)
    assert [r.suite for r in reports] == ["bessel.identities", "quant.ratio-bound"]
    with pytest.raises(DomainError):
        run_suites(("nonsense",), SMALL)


def test_default_check_counts() -> None:
    reports = run_suites(("all",))
    assert {r.suite: r.checks_run for r in reports} == {
        "bessel.identities": 10_982,
        "spectra.roundtrip": 699,
        "variation.identities": 4_725,
        "quant.ratio-bound": 202,
    }
    assert sum(r.checks_run for r in reports) == 16_608
    assert all(r.status == "pass" for r in reports)
    assert certify_negativity().checks_run == 3_975


def _perturbed(fn):
    """``fn`` with a planted relative error of 1e-9."""
    return lambda n, z: fn(n, z) * (1.0 + 1e-9)


def _violation_counts(reports) -> Counter:
    return Counter(v.check_id for r in reports for v in r.violations)


def test_fault_in_ratio_is_caught(monkeypatch) -> None:
    monkeypatch.setattr(extrobin.verify, "ratio_f", _perturbed(extrobin.verify.ratio_f))
    counts = _violation_counts(run_suites(("bessel", "spectra")))
    assert counts["dispersion-residual"] == 200
    assert counts["ratio-large-z-window"] > 0


def test_fault_in_gap_is_caught(monkeypatch) -> None:
    # The solve stores a_val = gap_a(n, z), so K_const inherits the error.
    monkeypatch.setattr(extrobin.spectra, "gap_a", _perturbed(extrobin.spectra.gap_a))
    counts = _violation_counts(run_suites(("spectra", "quant")))
    assert counts["steklov-first-level-identity"] > 0
    assert counts["margin-reference-value"] > 0
