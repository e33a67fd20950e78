"""extrobin benchmark: one command, every metric, correctness checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs half the time untraced, then one traced pass over the inputs, and
reports the per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full detail (provenance, sample counts, failures by check).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402
from worker import CAL_REFERENCE_S, calibrate  # noqa: E402

SETUP_PROBES = 5
CLI_PROBES = 3
WORKER_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _launch_worker(spec: dict, work: str, env: dict, timeout: float) -> dict:
    path = os.path.join(work, f"spec-{spec['mode']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(env, PERFBENCH_LAUNCHED=repr(time.monotonic()))
    # Its own process group, so a timeout also ends the worker's CLI children.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _timed_launch(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60, check=True)
    return time.perf_counter() - t0, proc.stderr.decode(errors="replace")


def _import_profile(text: str) -> dict:
    """Cumulative import times (ms) from ``python -X importtime`` output."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1000.0))

    def top(prefix: str) -> float:
        hits = [(d, c) for d, name, c in rows if name == prefix or name.startswith(prefix + ".")]
        if not hits:
            return 0.0
        depth = min(d for d, _ in hits)
        return sum(c for d, c in hits if d == depth)

    return {"extrobin": top("extrobin"), "scipy": top("scipy"), "click": top("click")}


def _cli_probes(env: dict) -> dict:
    bare = [_timed_launch([sys.executable, "-c", "pass"], env)[0] for _ in range(CLI_PROBES)]
    out = {"bare_python_ms": 1e3 * median(bare)}
    profiles = [
        _import_profile(_timed_launch(
            [sys.executable, "-X", "importtime", "-c", "import extrobin.cli"], env)[1])
        for _ in range(CLI_PROBES)
    ]
    for key in ("extrobin", "scipy", "click"):
        out[f"import_{key}_ms"] = median(p[key] for p in profiles)
    return out


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, check=False)
    return proc.stdout.decode().strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(root: str, seed: int, bare_ms: float) -> dict:
    versions = {}
    for pkg in ("scipy", "numpy", "click", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "versions": versions,
        "git_commit": _git_commit(root),
        "seed": seed,
        "bare_python_ms": bare_ms,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "extrobin", "__init__.py")):
        return _fail(f"no extrobin package under {src}; run from the root of a checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    # Keep every process of the run on one CPU, so the calibration kernel
    # times the CPU the ops run on: the CPUs of a shared machine differ in
    # speed from moment to moment.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        # Users run from compiled bytecode; compile once so no timed process
        # pays for it.
        compileall.compile_dir(os.path.join(src, "extrobin"), quiet=1)
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        records = inputs.make(args.workload, args.seed, args.seconds)
        extra = {"input_digest": inputs.digest(records), "records": len(records)}
        oracle = None
        if args.workload == "solve-mixed":
            import oracle as oracle_mod

            oracle = oracle_mod.Oracle(os.path.join(state, "oracle-cache.json"))
            records, dropped = oracle.attach_alpha(records)
            extra["dropped_indistinguishable_from_alpha_star"] = dropped
            oracle.save()
        spec = {
            "workload": args.workload,
            "inputs": records,
            "seconds": args.seconds,
            "trace": args.trace,
            "k_max": inputs.LADDER_K_MAX,
            # The traced pass covers every record once; for the CLI, one round.
            "trace_ops": len(records) if args.workload != "cli-oneshot" else len(inputs.CLI_KINDS),
            "src": src,
            "work": work,
        }
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                before = calibrate()
                probe = _launch_worker(dict(spec, mode="setup"), work, env, WORKER_TIMEOUT_S)
                scale = CAL_REFERENCE_S / median((before, calibrate()))
                setup_samples.append((probe["setup_s"], scale))
        result = _launch_worker(dict(spec, mode="run"), work, env, WORKER_TIMEOUT_S)
        if oracle is not None:
            by_n: dict[str, list] = {}
            for r, out in result["outputs"].items():
                if isinstance(out, list):
                    result["failures"][r] += oracle.check(records[int(r)], out)
                if result["failures"][r]:
                    rec = records[int(r)]
                    entry = by_n.setdefault(str(rec["n"]), [0, 0.0])
                    entry[0] += 1
                    entry[1] = max(entry[1], rec["z"])
            extra["failed_inputs_by_n"] = {"fields": ["inputs", "largest drawn z"], **by_n}
            oracle.save()
        cli = _cli_probes(env) if args.trace else {
            "bare_python_ms": 1e3 * median(
                _timed_launch([sys.executable, "-c", "pass"], env)[0] for _ in range(CLI_PROBES))
        }
        report = metrics.summarise(
            args.workload, args.trace, result, records, setup_samples, cli,
        )
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["detail"].update(extra)
    report["detail"]["provenance"] = _provenance(root, args.seed, cli["bare_python_ms"])
    for name, m in report["metrics"].items():
        note = report["detail"]["notes"].get(name, "")
        print(f"{name:48s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps(report["detail"], sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
