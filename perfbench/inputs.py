"""Seeded inputs for every benchmark workload (standard library only).

The same ``(workload, seed, seconds)`` always yields the same inputs; the
program under test receives only these generated values.  Every draw is
made from ``random.Random`` seeded with a string, which hashes the same way
in every interpreter run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("solve-mixed", "ladder-inverse", "certify", "cli-oneshot")

# The documented solver window for z = R*sqrt(-lambda).
Z_MIN = 1e-8
Z_MAX = 700.0

# solve-mixed: one draw per (n, eighth of a decade of z) cell, so every seed
# has the same mix of parities and z scales and only the positions inside a
# cell vary.
SOLVE_DIMS = tuple(range(2, 13))
SOLVE_Z_CELLS = 88

# ladder-inverse: dimensions of verify._draw_solution, equally represented;
# within a dimension the number of modes cycles through 1..8 and the top
# degree is stratified over 2..64, since the ladders' cost follows both.
LADDER_DIMS = tuple(range(2, 11))
LADDER_PER_DIM = 32
LADDER_MAX_MODES = 8
LADDER_K_MAX = 64

CLI_KINDS = (
    "dispersion-alpha",
    "dispersion-lambda",
    "steklov",
    "second-variation",
    "quant-bound",
    "counterexample-ellipsoid",
    "counterexample-square",
    "curve",
    "bessel-table",
)
# Subprocess ops cost about 0.8 s each; generate more rounds than a run of
# the requested length can use.
_CLI_OP_FLOOR_S = 0.25


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"extrobin-bench:{workload}:{seed}:{part}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def multiplicity(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{n-1}."""
    lower = math.comb(n + k - 3, n - 1) if n + k - 3 >= 0 else 0
    return math.comb(n + k - 1, n - 1) - lower


def _draw_coupling(rng: random.Random, n: int, R: float) -> float:
    """Coupling from the range of ``verify._draw_solution`` for dimension n."""
    if n == 2:
        return -_log_uniform(rng, 0.07, 600.0) / R
    m = _log_uniform(rng, 1.001, min(60.0, 600.0 / (n - 2)))
    return m * (-(n - 2) / R)


def _draw_spectrum(rng: random.Random, n: int, k_top: int, modes: int) -> list[list]:
    """Admissible modes: degree k_top plus up to modes-1 lower degrees >= 2."""
    lower = rng.sample(range(2, k_top), min(modes - 1, k_top - 2))
    degrees = sorted(lower) + [k_top]
    return [
        [k, rng.randrange(multiplicity(n, k)), rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))]
        for k in degrees
    ]


def solve_mixed(seed: int) -> list[dict]:
    """Forward solves: n in 2..12, R log-uniform on [0.1, 10], z log-uniform
    over the whole window.  ``alpha`` is attached later by the mpmath oracle."""
    rng = _rng("solve-mixed", seed)
    lo, hi = math.log10(Z_MIN), math.log10(Z_MAX)
    width = (hi - lo) / SOLVE_Z_CELLS
    records = []
    for n in SOLVE_DIMS:
        for cell in range(SOLVE_Z_CELLS):
            z = 10.0 ** (lo + width * (cell + rng.random()))
            records.append({"n": n, "R": _log_uniform(rng, 0.1, 10.0), "z": z})
    rng.shuffle(records)
    return records


def ladder_inverse(seed: int) -> list[dict]:
    """One pre-solved (n, R, alpha) and one admissible spectrum per record."""
    rng = _rng("ladder-inverse", seed)
    records = []
    span = LADDER_K_MAX - 1
    for n in LADDER_DIMS:
        for j in range(LADDER_PER_DIM):
            R = _log_uniform(rng, 0.1, 10.0)
            k_top = 2 + int((j + rng.random()) * span / LADDER_PER_DIM)
            records.append({
                "n": n,
                "R": R,
                "alpha": _draw_coupling(rng, n, R),
                "spectrum": _draw_spectrum(rng, n, k_top, 1 + j % LADDER_MAX_MODES),
            })
    rng.shuffle(records)
    return records


def certify(seed: int) -> list[dict]:
    """A full default-grid ``run_suites(("all",))``; the suites seed
    themselves, so the workload seed has no effect."""
    del seed
    return [{"suites": ["all"]}]


def _cli_args(rng: random.Random, kind: str) -> dict:
    """argv (after the program name) plus an optional spectrum file body."""
    n = rng.randint(2, 10)
    R = _log_uniform(rng, 0.1, 10.0)
    alpha = _draw_coupling(rng, n, R)
    point = ["--n", str(n), "--radius", repr(R)]
    spectrum = None
    if kind == "dispersion-alpha":
        argv = ["dispersion", *point, "--alpha", repr(alpha)]
    elif kind == "dispersion-lambda":
        z = _log_uniform(rng, 0.05, 50.0)
        argv = ["dispersion", *point, "--lambda", repr(-((z / R) ** 2))]
    elif kind == "steklov":
        argv = ["steklov", *point, "--alpha", repr(alpha), "--kmax", str(rng.randint(5, 40)),
                "--format", rng.choice(("json", "csv"))]
    elif kind == "second-variation":
        spectrum = _draw_spectrum(rng, n, rng.randint(2, 25), rng.randint(1, 5))
        argv = ["second-variation", *point, "--alpha", repr(alpha), "--spectrum", "{spectrum}"]
    elif kind == "quant-bound":
        argv = ["quant-bound", *point, "--alpha", repr(alpha)]
        if rng.random() < 0.5:
            spectrum = _draw_spectrum(rng, n, rng.randint(2, 25), rng.randint(1, 5))
            argv += ["--spectrum", "{spectrum}"]
    elif kind == "counterexample-ellipsoid":
        argv = ["counterexample", "ellipsoid", "--n", str(rng.randint(3, 8)),
                "--a", repr(rng.uniform(0.05, 0.95)), "--alpha", repr(-_log_uniform(rng, 10.0, 500.0))]
    elif kind == "counterexample-square":
        argv = ["counterexample", "square", "--alpha", repr(-_log_uniform(rng, 1.0, 500.0))]
    elif kind == "curve":
        lam_min = -_log_uniform(rng, 10.0, 1000.0)
        lam_max = -_log_uniform(rng, 0.01, 1.0)
        argv = ["curve", "--n", "2,3,4,5", "--lambda-min", repr(lam_min),
                "--lambda-max", repr(lam_max), "--points", "200"]
    else:
        argv = ["bessel-table", "--zmin", repr(_log_uniform(rng, 1e-3, 0.1)),
                "--zmax", repr(_log_uniform(rng, 10.0, 700.0)), "--points", str(rng.randint(20, 100)),
                "--n", f"{n},{n + 1}", "--format", rng.choice(("json", "csv"))]
    return {"kind": kind, "argv": argv, "spectrum": spectrum}


def cli_oneshot(seed: int, seconds: float) -> list[dict]:
    """Rounds of the nine command kinds, each round in a seeded order."""
    rng = _rng("cli-oneshot", seed)
    rounds = int(seconds / (_CLI_OP_FLOOR_S * len(CLI_KINDS))) + 2
    records = []
    for _ in range(rounds):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        records.extend(_cli_args(rng, kind) for kind in kinds)
    return records


def make(workload: str, seed: int, seconds: float) -> list[dict]:
    if workload == "solve-mixed":
        return solve_mixed(seed)
    if workload == "ladder-inverse":
        return ladder_inverse(seed)
    if workload == "certify":
        return certify(seed)
    if workload == "cli-oneshot":
        return cli_oneshot(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def digest(obj) -> str:
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
