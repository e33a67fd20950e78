"""Independent mpmath oracle for the solve-mixed workload.

References never call extrobin.  ``alpha`` comes from ``f_n(z)`` at the
drawn ``z``; each solve is then checked at the ``z`` it returned:

* dispersion residual ``|f_n(z) - y| <= 1e-13 * y`` with ``y = -alpha*R``;
* alpha round trip ``|alpha_of_lambda(lambda) - alpha| <= 1e-10 |alpha|``;
* ``u(R)^2`` within ``1e-9`` of the closed-form Macdonald tail
  ``int_z^inf t K_nu(t)^2 dt = (z^2/2)(K_{nu-1} K_{nu+1} - K_nu^2)``.

The normalization is checked at the returned ``z`` rather than at the drawn
one: the solver's own residual gate lets ``z`` move by up to ``1e-13*y/f'``,
which near the critical coupling is far above ``1e-9`` relative, and that is
conditioning of the solve, not a normalization error.

Kernel values are cached on disk keyed by order and argument, so a repeated
seed costs no mpmath work.  Twenty digits leave at least fifteen after the
one cancellation (``K_{nu-1} K_{nu+1} - K_nu^2`` is about ``K_nu^2 / z``).
"""

from __future__ import annotations

import json
import os

RESIDUAL_REL = 1e-13
ROUND_TRIP_REL = 1e-10
U_SQ_REL = 1e-9
_DPS = 20


class Oracle:
    def __init__(self, cache_path: str) -> None:
        import mpmath

        mpmath.mp.dps = _DPS
        self._mpmath = mpmath
        self.path = cache_path
        self.cache: dict[str, str] = {}
        if os.path.exists(cache_path):
            with open(cache_path, encoding="utf-8") as fh:
                self.cache = json.load(fh)
        self._dirty = False

    def save(self) -> None:
        if self._dirty:
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.cache, fh)
            os.replace(tmp, self.path)

    def _k(self, twice_order: int, z: float):
        """K_{twice_order/2}(z) at the working precision, cached."""
        key = f"k:{twice_order}:{z!r}"
        if key not in self.cache:
            mpf = self._mpmath.mpf
            self.cache[key] = str(self._mpmath.besselk(mpf(twice_order) / 2, mpf(z)))
            self._dirty = True
        return self._mpmath.mpf(self.cache[key])

    def f(self, n: int, z: float):
        """f_n(z) = z K_{n/2}(z) / K_{n/2-1}(z)."""
        return self._mpmath.mpf(z) * self._k(n, z) / self._k(n - 2, z)

    def u_sq(self, n: int, R: float, z: float):
        """u(R)^2 from the closed-form tail of t K_nu(t)^2, nu = (n-2)/2."""
        mpf = self._mpmath.mpf
        x = mpf(z)
        k_mid = self._k(n - 2, z)
        tail = x * x / 2 * (self._k(abs(n - 4), z) * self._k(n, z) - k_mid * k_mid)
        omega = 2 * self._mpmath.pi ** (mpf(n) / 2) / self._mpmath.gamma(mpf(n) / 2)
        return x * x * k_mid * k_mid / (omega * mpf(R) ** n * tail)

    def attach_alpha(self, records: list[dict]) -> tuple[list[dict], int]:
        """Set ``alpha = -f_n(z)/R`` on each record.

        Draws whose alpha rounds to alpha_star or beyond in double precision
        cannot be told apart from the critical coupling; they are dropped
        and counted.
        """
        kept, dropped = [], 0
        for rec in records:
            n, R = rec["n"], rec["R"]
            alpha = float(-self.f(n, rec["z"]) / self._mpmath.mpf(R))
            if alpha >= (0.0 if n == 2 else -(n - 2) / R):
                dropped += 1
                continue
            kept.append({**rec, "alpha": alpha})
        return kept, dropped

    def check(self, rec: dict, out: list) -> list[str]:
        """Failed check names for one solve; ``out`` is the worker's record."""
        n, R, alpha = rec["n"], rec["R"], rec["alpha"]
        z, u_sq, alpha_back = out[0], out[2], out[5]
        failed = []
        y = -self._mpmath.mpf(alpha) * self._mpmath.mpf(R)
        if abs(self.f(n, z) - y) > RESIDUAL_REL * y:
            failed.append("dispersion-residual")
        if abs(alpha_back - alpha) > ROUND_TRIP_REL * abs(alpha):
            failed.append("alpha-round-trip")
        ref = self.u_sq(n, R, z)
        if not abs(u_sq - ref) <= U_SQ_REL * ref:
            failed.append("u-boundary-sq")
        return failed
