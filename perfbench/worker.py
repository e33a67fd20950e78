"""Workload process: set-up, one closed loop with one client, outputs.

Run by ``run.py`` as ``python3 perfbench/worker.py SPEC.json`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  The spec carries the
generated inputs, so this process does only the program's work: its
imports, the pre-solves of ``ladder-inverse``, and the timed ops.  It prints
one JSON object on stdout.

``python3 perfbench/worker.py --cli-trace OUT.json ARGV...`` runs one CLI
command in-process under the tracer (the traced phase of ``cli-oneshot``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings

import spans

CLI_TIMEOUT_S = 60

# A shared machine's speed wanders by 20-30% within seconds (other tenants
# of the host).  Time-bounded loops pause every CAL_EVERY_S to time a fixed
# pure-Python kernel for CAL_BURST_S; metrics.py scales each window's
# timings to the reference kernel time below, measured as the median on a
# 2-vCPU Intel Xeon with Python 3.11.7.
CAL_EVERY_S = 0.5
CAL_BURST_S = 0.04
CAL_REFERENCE_S = 8.0e-5


def _raised(exc: BaseException) -> dict:
    from extrobin.errors import ExtrobinError

    kind = "raised" if isinstance(exc, ExtrobinError) else "uncaught"
    return {"error": f"{kind}:{type(exc).__name__}"}


class _Workload:
    records: list

    @staticmethod
    def comparable(out):
        """The part of an op's output that tracing must not change."""
        return out


class SolveMixed(_Workload):
    """Forward ``solve_lambda`` on seeded (n, R, alpha)."""

    def setup(self, spec: dict) -> None:
        import extrobin

        self.ex = extrobin
        self.records = spec["inputs"]

    def run_op(self, rec: dict) -> list:
        ex = self.ex
        sol = ex.solve_lambda(ex.BallGeometry(rec["n"], rec["R"]), rec["alpha"])
        return [sol.z, sol.lam, sol.u_boundary_sq, sol.K_const, sol.a_val]

    def describe(self, rec: dict, out: list) -> tuple[list, list[str]]:
        # The round trip is a library call, so it is made here, untimed and
        # untraced; the oracle checks it in the parent.
        geom = self.ex.BallGeometry(rec["n"], rec["R"])
        return out + [self.ex.alpha_of_lambda(geom, out[1])], []


class LadderInverse(_Workload):
    """Inverse map, Steklov ladder, second variation, quant check on
    solutions pre-solved during set-up."""

    def setup(self, spec: dict) -> None:
        import extrobin

        self.ex = extrobin
        self.k_max = spec["k_max"]
        self.records = []
        for rec in spec["inputs"]:
            geom = extrobin.BallGeometry(rec["n"], rec["R"])
            sol = extrobin.solve_lambda(geom, rec["alpha"])
            entries = tuple((k, i, b) for k, i, b in rec["spectrum"])
            self.records.append((sol, extrobin.PerturbationSpectrum(entries=entries)))

    def run_op(self, rec) -> list:
        ex = self.ex
        sol, spectrum = rec
        back = ex.alpha_of_lambda(sol.geom, sol.lam)
        levels = ex.shifted_steklov(sol, self.k_max)
        rep = ex.second_variation(sol, spectrum)
        qc = ex.quant_ratio_check(sol, spectrum)
        return [back, [lvl.mu for lvl in levels], rep.lambda_ddot, rep.S_ddot, rep.Q_val,
                qc.ratio, qc.bound, qc.margin, qc.holds]

    def describe(self, rec, out: list) -> tuple[list, list[str]]:
        sol, _spectrum = rec
        back, mus, lam_dd, s_dd, _q, ratio, bound, _margin, holds = out
        failed = []
        if not abs(back - sol.alpha) <= 1e-10 * abs(sol.alpha):
            failed.append("alpha-round-trip")
        if mus[0] != 0.0:
            failed.append("steklov-mu0-zero")
        if any(b <= a for a, b in zip(mus, mus[1:])):
            failed.append("steklov-increasing")
        mu1 = sol.K_const / sol.alpha
        if not abs(mus[1] - mu1) <= 1e-12 * abs(mu1):
            failed.append("steklov-mu1-identity")
        if not (lam_dd < 0.0 and s_dd > 0.0):
            failed.append("second-variation-signs")
        if not (holds and ratio <= bound < 0.0):
            failed.append("quant-ratio-bound")
        return out, failed


class Certify(_Workload):
    """One full default-grid ``run_suites(("all",))``."""

    def setup(self, spec: dict) -> None:
        import extrobin.verify

        self.verify = extrobin.verify
        self.records = spec["inputs"]

    def run_op(self, rec: dict) -> list:
        reports = self.verify.run_suites(tuple(rec["suites"]))
        return [[r.suite, r.status, r.checks_run, [v.check_id for v in r.violations],
                 [list(m) for m in r.metrics]] for r in reports]

    def describe(self, rec: dict, out: list) -> tuple[list, list[str]]:
        return out, [f"violation:{cid}" for r in out for cid in r[3]]


class CliOneshot(_Workload):
    """``python -m extrobin.cli`` subprocesses, one at a time."""

    @staticmethod
    def comparable(out):
        return out[:2] if isinstance(out, list) else out

    def setup(self, spec: dict) -> None:
        if spec["mode"] == "setup":
            # Every op pays this cold start; it is what set-up means here.
            import extrobin.cli  # noqa: F401

            return
        self.src = spec["src"]
        self.work = spec["work"]
        self.records = []
        for idx, rec in enumerate(spec["inputs"]):
            argv = list(rec["argv"])
            if rec["spectrum"] is not None:
                path = os.path.join(self.work, f"spectrum-{idx}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(f"{k} {i} {b!r}\n" for k, i, b in rec["spectrum"])
                argv = [path if a == "{spectrum}" else a for a in argv]
            self.records.append({"kind": rec["kind"], "argv": argv})
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.trace_dumps: list[dict] = []
        self.traced = False

    def run_op(self, rec: dict) -> list:
        if self.traced:
            out = os.path.join(self.work, f"trace-{len(self.trace_dumps)}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--cli-trace", out, *rec["argv"]]
        else:
            out = None
            cmd = [sys.executable, "-m", "extrobin.cli", *rec["argv"]]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.work,
                              timeout=CLI_TIMEOUT_S, check=False)
        if out is not None and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                self.trace_dumps.append(json.load(fh))
            os.remove(out)
        return [proc.returncode, proc.stdout.decode("utf-8", "replace"),
                proc.stderr.decode("utf-8", "replace")]

    def describe(self, rec: dict, out: list) -> tuple[list, list[str]]:
        rc, stdout, stderr = out
        ref_rc, ref_stdout = _in_process_cli(rec["argv"])
        failed = []
        if rc != 0:
            failed.append(f"exit-{rc}")
        if rc == 0 and stderr:
            failed.append("stderr-on-success")
        if ref_rc != 0:
            failed.append(f"in-process-exit-{ref_rc}")
        if stdout != ref_stdout:
            failed.append("stdout-differs-from-in-process")
        return [rc, stdout], failed


def _in_process_cli(argv: list[str]) -> tuple[int, str]:
    from extrobin import cli

    buf, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


WORKLOADS = {
    "solve-mixed": SolveMixed,
    "ladder-inverse": LadderInverse,
    "certify": Certify,
    "cli-oneshot": CliOneshot,
}


def _kernel() -> float:
    acc, x = 0.0, 0.5
    for i in range(400):
        x = (x * 1.0000001 + 0.3) % 7.0
        acc += math.sqrt(x) / (1.0 + i)
    return acc


def calibrate() -> float:
    """Seconds per kernel call over one burst of CAL_BURST_S."""
    clock = time.perf_counter
    t0 = clock()
    calls = 0
    while True:
        _kernel()
        calls += 1
        spent = clock() - t0
        if spent >= CAL_BURST_S:
            return spent / calls


def _phase(wl, first: dict, warn_log: list, seconds: float, pass_ops: int,
           max_ops: int | None = None) -> dict:
    """Closed loop over the records, from the first, in whole passes of
    ``pass_ops`` ops until ``seconds`` have passed, or ``max_ops`` ops.

    Whole passes give every input of a pass the same weight in the metrics,
    so a run's mix (of CLI command kinds, of solve dimensions and scales)
    does not depend on where the clock ran out.

    ``first`` maps record index to its first output; a repeat whose output
    differs is counted as nondeterministic.  A time-bounded loop also records
    ``(offset, kernel seconds)`` calibration samples between ops.
    """
    records = wl.records
    lat: list[float] = []
    starts: list[float] = []
    kinds: list[int] = []
    cal: list[tuple[float, float]] = []
    nondeterministic = 0
    warns = 0
    clock = time.perf_counter
    start = clock()
    last_cal = -math.inf
    i = 0
    while (i % pass_ops or i == 0 or clock() - start < seconds) and (max_ops is None or i < max_ops):
        if max_ops is None and clock() - last_cal >= CAL_EVERY_S:
            cal.append((clock() - start, calibrate()))
            last_cal = clock()
        r = i % len(records)
        before = len(warn_log)
        t0 = clock()
        try:
            out = wl.run_op(records[r])
        except Exception as exc:  # an op failure is a measured outcome
            out = _raised(exc)
        dt = clock() - t0
        warns += len(warn_log) - before
        lat.append(dt)
        starts.append(t0 - start)
        kinds.append(r)
        if r not in first:
            first[r] = out
        elif first[r] != out:
            nondeterministic += 1
        i += 1
    return {"lat": lat, "start": starts, "rec": kinds, "elapsed": clock() - start, "cal": cal,
            "nondeterministic": nondeterministic, "warnings": warns}


def _traced_pass(wl, spec: dict, first: dict, warn_log: list) -> tuple[dict, dict, int]:
    """One traced pass over the first ``trace_ops`` records.

    Returns the phase, the tracer dump and the number of ops whose output
    differs from the untraced output of the same record.
    """
    ops = spec["trace_ops"]
    traced_first: dict[int, object] = {}
    if isinstance(wl, CliOneshot):
        wl.traced = True
        phase = _phase(wl, traced_first, warn_log, 0.0, ops, ops)
        trace = spans.merge(wl.trace_dumps)
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            phase = _phase(wl, traced_first, warn_log, 0.0, ops, ops)
        finally:
            tracer.uninstall()
        trace = tracer.dump()
    mismatched = 0
    for r, out in traced_first.items():
        if r not in first:
            first[r] = out
        elif wl.comparable(first[r]) != wl.comparable(out):
            mismatched += 1
    return phase, trace, mismatched


def run(spec: dict, launched: float) -> dict:
    wl = WORKLOADS[spec["workload"]]()
    wl.setup(spec)
    ready = time.monotonic()
    result = {"setup_s": ready - launched, "cal_reference_s": CAL_REFERENCE_S}
    if spec["mode"] == "setup":
        return result
    first: dict[int, object] = {}
    with warnings.catch_warnings(record=True) as warn_log:
        warnings.simplefilter("always")
        if spec["trace"]:
            # At least one untraced pass, so every traced op has a twin.
            untraced = _phase(wl, first, warn_log, spec["seconds"] / 2.0, spec["trace_ops"])
            traced, trace, mismatched = _traced_pass(wl, spec, first, warn_log)
            phases = {"untraced": untraced, "traced": traced}
            result["trace"] = trace
            result["traced_untraced_mismatches"] = mismatched
        else:
            # Every input is run and checked at least once (a pass is every
            # record, or for the CLI one round of the nine commands), so a
            # seed always checks the same inputs and reports the same failures.
            phases = {"untraced": _phase(wl, first, warn_log, spec["seconds"],
                                         spec["trace_ops"])}
    if isinstance(wl, CliOneshot):
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    warn_kinds: dict[str, int] = {}
    for w in warn_log:
        warn_kinds[w.category.__name__] = warn_kinds.get(w.category.__name__, 0) + 1
    outputs, failures = {}, {}
    for r in sorted(first):
        out = first[r]
        if isinstance(out, dict):
            outputs[r], failures[r] = out, [out["error"]]
        else:
            outputs[r], failures[r] = wl.describe(wl.records[r], out)
    result.update({
        "phases": phases,
        "peak_rss_kb": rss_kb,
        "outputs": outputs,
        "failures": failures,
        "warning_kinds": warn_kinds,
    })
    return result


def _cli_trace(out_path: str, argv: list[str]) -> int:
    from extrobin import cli

    tracer = spans.Tracer()
    tracer.install()
    code = 0
    try:
        cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


def main() -> int:
    launched = float(os.environ.get("PERFBENCH_LAUNCHED", time.monotonic()))
    if sys.argv[1] == "--cli-trace":
        return _cli_trace(sys.argv[2], sys.argv[3:])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec, launched)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
