"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``
from the root of the checkout."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT, seconds: float = 1.0):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def _parsed(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_names_every_metric() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload: str) -> None:
    assert inputs.make(workload, 7, 15) == inputs.make(workload, 7, 15)


@pytest.mark.parametrize("workload", ("solve-mixed", "ladder-inverse", "cli-oneshot"))
def test_other_seed_other_inputs(workload: str) -> None:
    assert inputs.digest(inputs.make(workload, 7, 15)) != inputs.digest(inputs.make(workload, 8, 15))


def test_certify_ignores_the_seed() -> None:
    assert inputs.make("certify", 7, 15) == inputs.make("certify", 8, 15)


def test_oracle_closed_forms(tmp_path) -> None:
    import math

    import oracle

    orc = oracle.Oracle(str(tmp_path / "cache.json"))
    # n = 3: f_3(z) = 1 + z and u(R)^2 = z / (2 pi R^3).
    assert float(orc.f(3, 2.0)) == pytest.approx(3.0, rel=1e-15)
    assert float(orc.u_sq(3, 1.0, 2.0)) == pytest.approx(1.0 / math.pi, rel=1e-15)
    rec = {"n": 3, "R": 1.0, "alpha": -3.0}
    assert orc.check(rec, [2.0, -4.0, 1.0 / math.pi, -1.0, -1.0, -3.0]) == []
    assert orc.check(rec, [2.0, -4.0, 1.01 / math.pi, -1.0, -1.0, -3.0]) == ["u-boundary-sq"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_run_reports_every_metric_and_repeats(workload: str) -> None:
    detail, result = _parsed(_run(workload, 3, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    for name, unit in metrics.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0.0
    again, again_result = _parsed(_run(workload, 3, 0))
    assert again["input_digest"] == detail["input_digest"]
    if workload != "cli-oneshot":  # its inputs run once each, as time allows
        assert again_result["attempted"] == result["attempted"] == len(again["output_digests"])
        assert again_result["failed"] == result["failed"]
    common = min(len(detail["output_digests"]), len(again["output_digests"]))
    assert common >= 1
    assert again["output_digests"][:common] == detail["output_digests"][:common]
    for key in ("nproc", "cpu_model", "python", "versions", "seed", "bare_python_ms"):
        assert key in detail["provenance"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_run_reports_every_layer(workload: str) -> None:
    detail, result = _parsed(_run(workload, 3, 1, seconds=2.0))
    assert result["correct"] is True
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    assert detail["traced_untraced_mismatches"] == 0
    assert detail["absent_targets"] == []
    for name, unit in metrics.PER_LAYER.items():
        assert result["metrics"][name]["unit"] == unit


def test_tracer_rebinds_every_binding_and_reports_absent(monkeypatch) -> None:
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import extrobin.cli  # noqa: F401 - binds ratio_f in one more module
    from extrobin import bessel, spectra, verify

    import spans

    original = bessel.ratio_f
    monkeypatch.delattr(spectra, "_boundary_sq")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "spectra._boundary_sq" in tracer.absent
        assert tracer.bindings["bessel.ratio_f"] == 5  # bessel, spectra, verify, cli, package
        assert verify.ratio_f is bessel.ratio_f is not original
        spectra.alpha_of_lambda(spectra.BallGeometry(3, 1.0), -4.0)
    finally:
        tracer.uninstall()
    assert verify.ratio_f is bessel.ratio_f is original
    dump = tracer.dump()
    assert dump["edges"]["spectra.alpha_of_lambda>bessel.ratio_f"][0] == 1
    assert dump["classes"]["bessel.ratio_f#half_int"][0] == 1


def test_without_the_program_it_fails_quietly(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("solve-mixed", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
