"""Turn one worker result into the named metrics.

End-to-end metrics come from the untraced phase only.  Per-layer metrics
come from the traced phase: counts, self times (span duration minus traced
children) and ratios, each ratio with its base in the detail.  No layer
waits on a queue, lock or peer (one single-threaded client), so there is no
wait metric.
"""

from __future__ import annotations

import bisect
import math
from statistics import median

from inputs import digest

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

CLI_KINDS = (
    "dispersion-alpha", "dispersion-lambda", "steklov", "second-variation", "quant-bound",
    "counterexample-ellipsoid", "counterexample-square", "curve", "bessel-table",
)

PER_LAYER = {
    "bessel.ratio_f.calls": "count",
    "bessel.ratio_f.self_s": "s",
    "bessel.ratio_f.calls.half_int": "count",
    "bessel.ratio_f.calls.series": "count",
    "bessel.ratio_f.calls.cf2": "count",
    "bessel.ratio_f.us_per_call.half_int": "us",
    "bessel.ratio_f.us_per_call.series": "us",
    "bessel.ratio_f.us_per_call.cf2": "us",
    "bessel.ratio_f.calls_per_solve": "ratio",
    "bessel.gap_a.calls": "count",
    "bessel.gap_a.self_s": "s",
    "bessel.k_scaled.calls": "count",
    "bessel.k_scaled.self_s": "s",
    "bessel.identity_residuals.self_s": "s",
    "spectra.solve_lambda.calls": "count",
    "spectra.solve_lambda.us_per_call.even": "us",
    "spectra.solve_lambda.us_per_call.odd": "us",
    "spectra.solve_lambda.even_over_odd": "ratio",
    "spectra.solve_z.calls": "count",
    "spectra.solve_z.self_s": "s",
    "spectra.solve_z.evals_per_solve": "ratio",
    "spectra.solve_z.evals_max": "count",
    "spectra.boundary_sq.calls": "count",
    "spectra.boundary_sq.self_s": "s",
    "spectra.boundary_sq.integrand_evals_per_call": "ratio",
    "spectra.boundary_sq.share_of_solve": "ratio",
    "spectra.boundary_sq.warnings": "count",
    "spectra.alpha_of_lambda.calls": "count",
    "spectra.shifted_steklov.calls": "count",
    "spectra.shifted_steklov.self_s": "s",
    "spectra.shifted_steklov.levels": "count",
    "variation.second_variation.calls": "count",
    "variation.second_variation.self_s": "s",
    "variation.mode_coefficients.self_s": "s",
    "variation.ladders_per_second_variation": "ratio",
    "variation.quant_ratio_check.calls": "count",
    "variation.certify_negativity.self_s": "s",
    "verify.bessel.self_s": "s",
    "verify.spectra.self_s": "s",
    "verify.variation.self_s": "s",
    "verify.quant.self_s": "s",
    "verify.checks": "count",
    "verify.violations": "count",
    "counterexample.calls": "count",
    "counterexample.self_s": "s",
    "cli.bare_python_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import.scipy_ms": "ms",
    "cli.import.click_ms": "ms",
    **{f"cli.{kind.replace('-', '_')}.p50_ms": "ms" for kind in CLI_KINDS},
    "trace.overhead_frac": "ratio",
}


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it.

    Below twenty samples no percentile above the median qualifies, and the
    median is reported in its place (the detail says so).
    """
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


WINDOWS = 5
# Windows this large keep the tail at p99 (20 or more samples beyond it), so
# the percentile does not flip with small changes in the op count.
_MIN_WINDOW_OPS = 2000


def _windows(phase: dict, reference_s: float | None) -> list[list[float]]:
    """Split the timed loop's latencies into equal time windows.

    With ``reference_s`` each latency is first scaled by the reference kernel
    time over the mean of the kernel timings taken just before and just
    after the op.  Medians over windows keep a burst of interference from
    moving a whole run; runs with few ops use one window.
    """
    lat, starts, elapsed = phase["lat"], phase["start"], phase["elapsed"]
    cal_t = [t for t, _ in phase["cal"]]
    cal_k = [k for _, k in phase["cal"]]
    count = max(1, min(WINDOWS, len(lat) // _MIN_WINDOW_OPS))
    width = elapsed / count
    out: list[list[float]] = [[] for _ in range(count)]
    for dt, t0 in zip(lat, starts):
        if reference_s is not None:
            i = bisect.bisect_right(cal_t, t0)
            around = cal_k[max(0, i - 1):i + 1]
            dt *= reference_s * len(around) / sum(around)
        out[min(int(t0 / width), count - 1)].append(dt)
    return [w for w in out if w]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer(trace: dict, warnings: int, phases: dict, result: dict, records: list,
           workload: str, cli: dict) -> tuple[dict, dict]:
    stats, edges, classes, under = trace["stats"], trace["edges"], trace["classes"], trace["under"]

    def st(name: str) -> list:
        return stats.get(name, [0, 0.0, 0.0, 0])

    def cls(name: str) -> list:
        return classes.get(name, [0, 0.0, 0.0])

    solves = st("spectra.solve_lambda")[0]
    even, odd = cls("spectra.solve_lambda#even"), cls("spectra.solve_lambda#odd")
    even_us = 1e6 * _ratio(even[1], even[0])
    odd_us = 1e6 * _ratio(odd[1], odd[0])
    solve_z = st("spectra._solve_z")
    bsq = st("spectra._boundary_sq")
    sv = st("variation.second_variation")
    ratio_f_under_solve = under.get("spectra.solve_lambda>bessel.ratio_f", [0, 0.0])[0]
    k_under_bsq = under.get("spectra._boundary_sq>bessel._k_scaled", [0, 0.0])[0]
    bsq_in_solve = under.get("spectra.solve_lambda>spectra._boundary_sq", [0, 0.0])[1]
    ladders = under.get("variation.second_variation>spectra.shifted_steklov", [0, 0.0])[0]
    counter = [v for k, v in stats.items() if k.startswith("counterexample.")]

    traced_out = phases.get("traced", {})
    checks = violations = 0
    if workload == "certify":
        out = result["outputs"].get("0")
        if isinstance(out, list):
            per_op_checks = sum(r[2] for r in out)
            per_op_viol = sum(len(r[3]) for r in out)
            ops = len(traced_out.get("lat", []))
            checks, violations = per_op_checks * ops, per_op_viol * ops

    m = {
        "bessel.ratio_f.calls": st("bessel.ratio_f")[0],
        "bessel.ratio_f.self_s": st("bessel.ratio_f")[2],
        "bessel.ratio_f.calls_per_solve": _ratio(ratio_f_under_solve, solves),
        "bessel.gap_a.calls": st("bessel.gap_a")[0],
        "bessel.gap_a.self_s": st("bessel.gap_a")[2],
        "bessel.k_scaled.calls": st("bessel._k_scaled")[0],
        "bessel.k_scaled.self_s": st("bessel._k_scaled")[2],
        "bessel.identity_residuals.self_s": st("bessel.identity_residuals")[2],
        "spectra.solve_lambda.calls": solves,
        "spectra.solve_lambda.us_per_call.even": even_us,
        "spectra.solve_lambda.us_per_call.odd": odd_us,
        "spectra.solve_lambda.even_over_odd": _ratio(even_us, odd_us),
        "spectra.solve_z.calls": solve_z[0],
        "spectra.solve_z.self_s": solve_z[2],
        "spectra.solve_z.evals_per_solve": _ratio(
            edges.get("spectra._solve_z>bessel.ratio_f", [0])[0], solve_z[0]),
        "spectra.solve_z.evals_max": solve_z[3],
        "spectra.boundary_sq.calls": bsq[0],
        "spectra.boundary_sq.self_s": bsq[2],
        "spectra.boundary_sq.integrand_evals_per_call": _ratio(k_under_bsq, bsq[0]),
        "spectra.boundary_sq.share_of_solve": _ratio(bsq_in_solve, st("spectra.solve_lambda")[1]),
        "spectra.boundary_sq.warnings": warnings,
        "spectra.alpha_of_lambda.calls": st("spectra.alpha_of_lambda")[0],
        "spectra.shifted_steklov.calls": st("spectra.shifted_steklov")[0],
        "spectra.shifted_steklov.self_s": st("spectra.shifted_steklov")[2],
        "spectra.shifted_steklov.levels": trace["levels"],
        "variation.second_variation.calls": sv[0],
        "variation.second_variation.self_s": sv[2],
        "variation.mode_coefficients.self_s": st("variation._mode_coefficients")[2],
        "variation.ladders_per_second_variation": _ratio(ladders, sv[0]),
        "variation.quant_ratio_check.calls": st("variation.quant_ratio_check")[0],
        "variation.certify_negativity.self_s": st("variation.certify_negativity")[2],
        "verify.bessel.self_s": st("verify.run_bessel_suite")[2],
        "verify.spectra.self_s": st("verify.run_spectra_suite")[2],
        "verify.variation.self_s": st("verify.run_variation_suite")[2],
        "verify.quant.self_s": st("verify.run_quant_suite")[2],
        "verify.checks": checks,
        "verify.violations": violations,
        "counterexample.calls": sum(v[0] for v in counter),
        "counterexample.self_s": sum(v[2] for v in counter),
        "cli.bare_python_ms": cli["bare_python_ms"],
        "cli.import_ms": cli["import_extrobin_ms"],
        "cli.import.scipy_ms": cli["import_scipy_ms"],
        "cli.import.click_ms": cli["import_click_ms"],
    }
    for branch in ("half_int", "series", "cf2"):
        c = cls(f"bessel.ratio_f#{branch}")
        m[f"bessel.ratio_f.calls.{branch}"] = c[0]
        m[f"bessel.ratio_f.us_per_call.{branch}"] = 1e6 * _ratio(c[2], c[0])

    untraced = phases["untraced"]
    for kind in CLI_KINDS:
        lat = [dt for dt, r in zip(untraced["lat"], untraced["rec"])
               if workload == "cli-oneshot" and records[r]["kind"] == kind]
        m[f"cli.{kind.replace('-', '_')}.p50_ms"] = 1e3 * median(lat) if lat else 0.0

    # Overhead compares the traced pass with the mean untraced latency of the
    # same records.
    sums: dict[int, list] = {}
    for dt, r in zip(untraced["lat"], untraced["rec"]):
        acc = sums.setdefault(r, [0.0, 0])
        acc[0] += dt
        acc[1] += 1
    pairs = [(dt, sums[r][0] / sums[r][1]) for dt, r in zip(traced_out["lat"], traced_out["rec"])
             if r in sums]
    traced_s = sum(t for t, _ in pairs)
    untraced_s = sum(u for _, u in pairs)
    m["trace.overhead_frac"] = _ratio(traced_s, untraced_s) - 1.0 if untraced_s else 0.0

    bases = {
        "bessel.ratio_f.calls_per_solve": f"{ratio_f_under_solve} ratio_f calls under {solves} solve_lambda calls",
        "spectra.solve_lambda.even_over_odd": f"{even[0]} even-n and {odd[0]} odd-n solves",
        "spectra.solve_z.evals_per_solve": f"over {solve_z[0]} _solve_z calls",
        "spectra.boundary_sq.integrand_evals_per_call": f"{k_under_bsq} _k_scaled calls under {bsq[0]} _boundary_sq calls",
        "spectra.boundary_sq.share_of_solve": "boundary_sq time inside solve_lambda over solve_lambda time",
        "spectra.boundary_sq.warnings": "Python warnings raised inside ops, both phases",
        "variation.ladders_per_second_variation": f"{ladders} ladders under {sv[0]} second_variation calls",
        "trace.overhead_frac": f"traced time over untraced time of the same {len(pairs)} ops, minus 1",
        "cli.import_ms": "cumulative -X importtime of extrobin and extrobin.cli",
    }
    return m, bases


def summarise(workload: str, trace: int, result: dict, records: list,
              setup_samples: list[tuple[float, float]], cli: dict) -> dict:
    phases = result["phases"]
    failures = result["failures"]
    # A repeated input must give a bit-identical output (else the run is not
    # correct), so its outcome is its first op's: ``attempted`` and ``failed``
    # count distinct inputs, which depend on the seed and the program only,
    # not on how many ops the machine's speed allowed.  Op counts stay in
    # the detail.
    ops = ops_failed = undetermined = 0
    for phase in phases.values():
        for r in phase["rec"]:
            ops += 1
            names = failures.get(str(r))
            if names is None:
                undetermined += 1
            elif names:
                ops_failed += 1
    attempted = len(failures)
    failed = sum(1 for names in failures.values() if names)
    by_check: dict[str, int] = {}
    for names in failures.values():
        for name in names:
            by_check[name] = by_check.get(name, 0) + 1
    nondeterministic = sum(p["nondeterministic"] for p in phases.values())
    mismatches = result.get("traced_untraced_mismatches", 0)
    warnings = sum(p["warnings"] for p in phases.values())
    notes: dict[str, str] = {}
    detail = {
        "workload": workload,
        "trace": trace,
        "closed_loop_clients": 1,
        "failed_frac": _ratio(failed, attempted),
        "failed_by_check": by_check,
        "ops": ops,
        "ops_failed": ops_failed,
        "nondeterministic_repeats": nondeterministic,
        "traced_untraced_mismatches": mismatches,
        "undetermined_ops": undetermined,
        "warnings_by_category": result["warning_kinds"],
        "output_digests": [digest(result["outputs"][k]) for k in sorted(result["outputs"], key=int)],
        "worker_setup_s": result["setup_s"],
        "notes": notes,
    }
    if workload == "certify":
        detail["seed_effect"] = "none: the verify suites seed themselves"
    correct = nondeterministic == 0 and mismatches == 0 and undetermined == 0

    if trace:
        m, bases = _layer(result["trace"], warnings, phases, result, records, workload, cli)
        notes.update(bases)
        detail["absent_targets"] = result["trace"]["absent"]
        detail["bindings"] = result["trace"]["bindings"]
        if workload != "cli-oneshot":
            notes["cli.bare_python_ms"] = "probe launches; command p50s apply to cli-oneshot only"
        units = PER_LAYER
    else:
        untraced = phases["untraced"]
        windows = _windows(untraced, result["cal_reference_s"])
        n_ops = len(untraced["lat"])
        per = n_ops // len(windows)
        p_tail = tail_percentile(per)

        def timing(windows: list[list[float]]) -> dict:
            return {
                "ops_per_s": median(len(w) / sum(w) for w in windows),
                "latency_p50_ms": 1e3 * median(percentile(sorted(w), 50.0) for w in windows),
                "latency_tail_ms": 1e3 * median(percentile(sorted(w), p_tail) for w in windows),
            }

        m = {
            "setup_s": median(t * k for t, k in setup_samples),
            **timing(windows),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        detail["wall_clock"] = timing(_windows(untraced, None))
        detail["kernel_median_s"] = median(k for _, k in untraced["cal"])
        detail["calibration_samples"] = len(untraced["cal"])
        of = (f"median over {len(windows)} equal time windows of about {per} ops each"
              if len(windows) > 1 else f"{n_ops} ops")
        of += "; at reference interpreter speed"
        notes["setup_s"] = f"median of {len(setup_samples)} launches to first op, at reference speed" + (
            ": interpreter plus import extrobin.cli, which every op pays"
            if workload == "cli-oneshot" else "")
        notes["ops_per_s"] = f"{n_ops} ops, one client, over their busy time; {of}"
        notes["latency_p50_ms"] = of
        notes["latency_tail_ms"] = f"p{p_tail:g}; {of}" + (
            "; under 20 samples, no percentile above the median has 10 beyond it"
            if p_tail == 50.0 else "")
        notes["peak_rss_mb"] = ("peak over the CLI child processes" if workload == "cli-oneshot"
                                else "peak of the workload process")
        detail["setup_samples_s"] = [t for t, _ in setup_samples]
        detail["setup_speed_scales"] = [k for _, k in setup_samples]
        detail["tail_percentile"] = p_tail
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(m[name]), "unit": unit} for name, unit in units.items()},
        "detail": detail,
    }
