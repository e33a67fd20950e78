"""Per-layer spans recorded from outside the program.

``Tracer.install`` finds every ``extrobin.*`` module attribute (and every
module-level dict value) bound to a target function and rebinds it to one
timing wrapper per target, so a call is traced whichever module it is made
through: ``ratio_f`` is bound in ``bessel``, ``spectra``, ``verify`` and
``cli``, and ``verify._SUITES`` holds the suite functions.  Click
subcommands are traced through their callbacks.  A target that does not
exist (renamed or removed) is reported as absent.

Spans are aggregated in memory as they close, rather than stored one by one,
because a single solve can open hundreds of kernel spans.  Each span knows
its parent (the innermost traced caller), which gives self time (duration
minus traced children) and the per-parent counts behind the ratios.
"""

from __future__ import annotations

import sys
import time

TARGETS = {
    "bessel": ("ratio_f", "gap_a", "_k_scaled", "identity_residuals"),
    "spectra": ("solve_lambda", "_solve_z", "_boundary_sq", "shifted_steklov", "alpha_of_lambda"),
    "variation": ("second_variation", "_mode_coefficients", "quant_ratio_check", "certify_negativity"),
    "verify": ("run_bessel_suite", "run_spectra_suite", "run_variation_suite", "run_quant_suite"),
    "counterexample": (
        "compare_ellipsoid_ball", "square_vs_disk", "hynak_check", "hynak_threshold",
        "ellipsoid_hmax", "equivalent_ball_radius",
    ),
}

# (ancestor, span): spans counted whenever the ancestor is open anywhere on
# the stack, for ratios that cross untraced frames.
_UNDER = {
    "bessel.ratio_f": ("spectra.solve_lambda",),
    "bessel._k_scaled": ("spectra._boundary_sq",),
    "spectra._boundary_sq": ("spectra.solve_lambda",),
    "spectra.shifted_steklov": ("variation.second_variation",),
}


def _ratio_f_branch(args, kwargs) -> str:
    n = args[0] if args else kwargs["n"]
    z = args[1] if len(args) > 1 else kwargs["z"]
    if n % 2 == 1:
        return "half_int"
    return "cf2" if z >= 2.0 else "series"


def _solve_parity(args, kwargs) -> str:
    geom = args[0] if args else kwargs["geom"]
    return "even" if geom.n % 2 == 0 else "odd"


_CLASSIFY = {
    "bessel.ratio_f": _ratio_f_branch,
    "spectra.solve_lambda": _solve_parity,
}


class Tracer:
    """Installs wrappers, aggregates spans, restores the bindings."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, max direct children]
        self.stats: dict[str, list] = {}
        # "parent>child" -> [calls, total_s]; parent "" is the op itself
        self.edges: dict[str, list] = {}
        # "name#class" -> [calls, total_s, self_s]
        self.classes: dict[str, list] = {}
        self.under: dict[str, list] = {}
        self.levels = 0
        self.bindings: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, open_, edges, under = self._stack, self._open, self.edges, self.under
        classify = _CLASSIFY.get(name)
        watch = _UNDER.get(name, ())
        classes = self.classes
        counts_levels = name == "spectra.shifted_steklov"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0]
            stack.append(frame)
            open_[name] = open_.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_[name] -= 1
                own = dt - frame[1]
                stats[0] += 1
                stats[1] += dt
                stats[2] += own
                if frame[2] > stats[3]:
                    stats[3] = frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                    parent[2] += 1
                key = f"{parent[0] if parent else ''}>{name}"
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
                for anc in watch:
                    if open_.get(anc):
                        rec = under.setdefault(f"{anc}>{name}", [0, 0.0])
                        rec[0] += 1
                        rec[1] += dt
                if classify is not None:
                    rec = classes.setdefault(f"{name}#{classify(args, kwargs)}", [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += own
                if counts_levels:
                    k_max = args[1] if len(args) > 1 else kwargs["k_max"]
                    tracer.levels += k_max + 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, tuple[str, object]] = {}
        for mod_name, attrs in TARGETS.items():
            mod = sys.modules.get(f"extrobin.{mod_name}")
            for attr in attrs:
                fn = getattr(mod, attr, None) if mod is not None else None
                name = f"{mod_name}.{attr}"
                if fn is None or not callable(fn):
                    self.absent.append(name)
                    continue
                wrappers[id(fn)] = (name, self._wrap(name, fn))
                self.bindings[name] = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "extrobin" or mod_name.startswith("extrobin.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None:
                    self._rebind(vars(mod), attr, value, hit)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None:
                            self._rebind(value, key, item, hit)
        cli_mod = sys.modules.get("extrobin.cli")
        if cli_mod is not None:
            self._wrap_commands(cli_mod.cli, "cli")

    def _rebind(self, namespace: dict, key, original, hit) -> None:
        name, wrapper = hit
        namespace[key] = wrapper
        self.bindings[name] += 1
        self._undo.append((namespace, key, original))

    def _wrap_commands(self, group, prefix: str) -> None:
        for cmd_name, cmd in getattr(group, "commands", {}).items():
            name = f"{prefix}.{cmd_name}"
            if getattr(cmd, "commands", None):
                self._wrap_commands(cmd, name)
            elif cmd.callback is not None:
                original = cmd.callback
                cmd.callback = self._wrap(name, original)
                self.bindings[name] = 1
                self._undo.append((cmd, "callback", original))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "edges": self.edges,
            "classes": self.classes,
            "under": self.under,
            "levels": self.levels,
            "bindings": self.bindings,
            "absent": self.absent,
        }


def merge(dumps: list[dict]) -> dict:
    """Sum several tracer dumps (maxima stay maxima)."""
    out = {"stats": {}, "edges": {}, "classes": {}, "under": {}, "levels": 0,
           "bindings": {}, "absent": []}
    for d in dumps:
        for key in ("edges", "classes", "under"):
            for name, vals in d[key].items():
                acc = out[key].setdefault(name, [0] * len(vals))
                for i, v in enumerate(vals):
                    acc[i] += v
        for name, (calls, total, own, kids) in d["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
            acc[3] = max(acc[3], kids)
        out["levels"] += d["levels"]
        out["bindings"].update(d["bindings"])
        out["absent"] = sorted(set(out["absent"]) | set(d["absent"]))
    return out
