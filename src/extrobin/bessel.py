"""Modified Bessel kernels and the ratio family behind the exterior dispersion relation.

Double-precision evaluation of K_m for integer and half-integer orders
m >= 0, with an exponentially scaled mode for large arguments, plus the
ratio

    f_n(z) = z * K_{n/2}(z) / K_{(n-2)/2}(z),       n >= 2, z > 0,

and the gap function a_n(z) = f_n(z)^2 - (n-1) f_n(z) - z^2. The ratio f_n
maps (0, inf) onto (n-2, inf), is strictly increasing, and is the quantity
through which the spectral layer sees the Bessel functions.

Algorithms
----------
* K_0, K_1 for z <= 2: ascending power series with the log term
  (DLMF 10.31.1, 10.31.2).
* K_0, K_1 for z >= 2: Steed's continued fraction CF2 evaluated in
  exponentially scaled form (Temme's method; Thompson & Barnett,
  J. Comput. Phys. 64 (1986) 490; Numerical Recipes sec. 6.6).
* Half-integer orders: closed forms K_{1/2}(z) = sqrt(pi/(2z)) e^{-z} and
  K_{3/2}(z) = K_{1/2}(z)(1 + 1/z), exact up to rounding.
* Higher orders: upward three-term recurrence K_{m+1} = K_{m-1} + (2m/z)K_m,
  stable because K grows with the order.
* f_n: the two-step recurrence f_{n+2} = z^2/f_n + n, evaluated in the
  shifted variable g_n = f_n - z - (n-1)/2 to avoid large-z cancellation.
* a_n: the equivalent recurrence a_{n+2} = -(z/f_n)^2 a_n - n, folded over
  the same g ladder and seeded with the exact a_3 = -1, which preserves
  absolute accuracy where the direct quadratic expression would cancel
  catastrophically.

Two-sided ratio bounds (J. Segura, J. Math. Anal. Appl. 374 (2011) 516)
provide guaranteed root brackets for f_n(z) = y; see segura_bracket.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeLimitError, SolverConvergenceError, require_int

EULER_GAMMA = 0.5772156649015328606065120900824024

_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

# Largest z for which e^{-z} K stays inside normal doubles.
UNSCALED_Z_MAX = 700.0

_CF2_MAX_ITER = 10000
_SERIES_MAX_TERMS = 80


@dataclass(frozen=True)
class BesselOrder:
    """Exact order m = twice_order / 2, covering integers and half-integers."""

    twice_order: int

    def __post_init__(self) -> None:
        require_int(self.twice_order, "twice_order", 0)

    @property
    def is_half_integer(self) -> bool:
        return self.twice_order % 2 == 1

    @classmethod
    def from_order(cls, value: float | int) -> "BesselOrder":
        if not math.isfinite(value):
            raise DomainError(f"order {value!r} is not finite")
        twice = round(2.0 * value)
        if abs(2.0 * value - twice) > 1e-12:
            raise DomainError(
                f"order {value!r} is neither an integer nor a half-integer"
            )
        return cls(int(twice))

    @classmethod
    def parse(cls, text: str) -> "BesselOrder":
        """Accept '2', '1.5' or '3/2'."""
        num, slash, den = text.strip().partition("/")
        try:
            value = float(num) / float(den) if slash else float(num)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"order {text!r} is neither a number nor a fraction p/q") from None
        return cls.from_order(value)

    def __str__(self) -> str:
        if self.is_half_integer:
            return f"{self.twice_order}/2"
        return str(self.twice_order // 2)


def _k01_series(x: float) -> tuple[float, float]:
    """Unscaled K_0(x), K_1(x) by the ascending series, 0 < x <= 2."""
    q = 0.25 * x * x
    lg = math.log(0.5 * x)
    # Joint accumulation of I0, I1 and the harmonic-number weighted sums.
    t = 1.0          # q^k / (k!)^2
    i0 = 1.0
    s0 = 0.0         # sum_{k>=1} H_k q^k / (k!)^2
    u = 1.0          # q^k / (k! (k+1)!)
    i1s = 1.0
    s1 = 1.0         # sum (H_k + H_{k+1}) q^k / (k!(k+1)!); k=0 term is 1
    hk = 0.0
    for k in range(1, _SERIES_MAX_TERMS):
        hk += 1.0 / k
        t *= q / (k * k)
        i0 += t
        s0 += t * hk
        u *= q / (k * (k + 1))
        i1s += u
        s1 += u * (2.0 * hk + 1.0 / (k + 1))
        if t < 1e-18 * i0 and u < 1e-18 * i1s:
            break
    i1 = 0.5 * x * i1s
    k0 = -(lg + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / x + lg * i1 - 0.25 * x * (s1 - 2.0 * EULER_GAMMA * i1s)
    return k0, k1


def _cf2_h(x: float) -> tuple[float, float]:
    """Steed CF2 at order 0 for x >= 2.

    Returns (s, h) with e^x K_0(x) = sqrt(pi/(2x)) / s and
    K_1(x)/K_0(x) = (x + 1/2 - h)/x. The correction h is produced at full
    relative precision, which downstream code exploits for the ratio.
    """
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _CF2_MAX_ITER):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-16:
            break
    else:
        raise SolverConvergenceError(f"CF2 failed to converge at x={x!r}")
    return s, a1 * h


def _k01_scaled(x: float) -> tuple[float, float]:
    """(e^x K_0(x), e^x K_1(x)) for any x > 0."""
    if x < 2.0:
        k0, k1 = _k01_series(x)
        ex = math.exp(x)
        return ex * k0, ex * k1
    s, h = _cf2_h(x)
    ek0 = math.sqrt(math.pi / (2.0 * x)) / s
    ek1 = ek0 * (x + 0.5 - h) / x
    return ek0, ek1


def _k_scaled(twice_order: int, z: float) -> float:
    """e^z K_m(z) for m = twice_order/2 by upward recurrence from two seeds."""
    if twice_order % 2 == 1:
        k_lo = _SQRT_HALF_PI / math.sqrt(z)          # e^z K_{1/2}
        if twice_order == 1:
            return k_lo
        k_hi = k_lo * (1.0 + 1.0 / z)                # e^z K_{3/2}
        nu = 1.5
        steps = (twice_order - 3) // 2
    else:
        k_lo, k_hi = _k01_scaled(z)
        if twice_order == 0:
            return k_lo
        nu = 1.0
        steps = (twice_order - 2) // 2
    for _ in range(steps):
        k_lo, k_hi = k_hi, k_lo + (2.0 * nu / z) * k_hi
        nu += 1.0
    if math.isinf(k_hi):
        raise RangeLimitError(
            f"K overflow at order {twice_order}/2, z={z!r}; "
            "the order is too large for this argument"
        )
    return k_hi


def _check_positive_z(z: float) -> float:
    z = float(z)
    if not z > 0.0 or math.isnan(z) or math.isinf(z):
        raise DomainError(f"argument must be positive and finite, got {z!r}")
    return z


def modified_bessel_K(order: BesselOrder, z: float, scaled: bool = False) -> float:
    """K_m(z) for m = order.twice_order/2.

    With scaled=True the returned value is e^z K_m(z), valid far beyond
    the unscaled double range. Unscaled requests that would underflow
    raise RangeLimitError and suggest the scaled mode.
    """
    z = _check_positive_z(z)
    km = _k_scaled(order.twice_order, z)
    if scaled:
        return km
    if z > UNSCALED_Z_MAX:
        raise RangeLimitError(
            f"e^-z underflows at z={z!r}; request scaled=True for e^z K_m(z)"
        )
    value = km * math.exp(-z)
    if value == 0.0 or value < 2.3e-308 or math.isinf(value):
        raise RangeLimitError(
            f"unscaled K at order {order} and z={z!r} leaves the double range; "
            "request scaled=True"
        )
    return value


def _g2(z: float) -> float:
    """g_2 = f_2(z) - z - 1/2 at full relative precision."""
    if z >= 2.0:
        _, h = _cf2_h(z)
        return -h
    k0, k1 = _k01_series(z)
    return z * k1 / k0 - z - 0.5


def _g_ladder(n: int, z: float) -> list[float]:
    """[g_m for m = n0, n0+2, ..., n] with n0 = 2 or 3 matching n's parity.

    g_m = f_m - z - (m-1)/2 satisfies
    g_{m+2} = (m-1)/2 - z*(g_m + (m-1)/2)/f_m, which is the ratio
    recurrence f_{m+2} = z^2/f_m + m freed of its large-z cancellation.
    """
    if n % 2 == 0:
        m = 2
        g = _g2(z)
    else:
        m = 3
        g = 0.0
    out = [g]
    while m < n:
        half = 0.5 * (m - 1.0)
        f = z + half + g
        g = half - z * (g + half) / f
        out.append(g)
        m += 2
    return out


def ratio_f(n: int, z: float) -> float:
    """f_n(z) = z K_{n/2}(z) / K_{(n-2)/2}(z), strictly increasing, range (n-2, inf)."""
    n = require_int(n, "dimension", 2)
    z = _check_positive_z(z)
    g = _g_ladder(n, z)[-1]
    return z + 0.5 * (n - 1.0) + g


def gap_a(n: int, z: float) -> float:
    """a_n(z) = f_n(z)^2 - (n-1) f_n(z) - z^2.

    Negative everywhere; bounded below by -(n-2) for n >= 3 and by -1/2
    for n = 2. Evaluated through the cancellation-free chain
    a_{m+2} = -(z/f_m)^2 a_m - m along the g ladder, seeded with
    a_m = g_m^2 + 2 z g_m - ((m-1)/2)^2, which is exactly -1 at m = 3, so
    a_3 = -1 exactly with no step taken.
    """
    n = require_int(n, "dimension", 2)
    z = _check_positive_z(z)
    gs = _g_ladder(n, z)
    m = n - 2 * (len(gs) - 1)
    half = 0.5 * (m - 1.0)
    g = gs[0]
    a = 2.0 * z * g + g * g - half * half
    for g in gs[:-1]:
        half = 0.5 * (m - 1.0)
        r = z / (z + half + g)
        a = -(r * r) * a - m
        m += 2
    return a


def segura_bracket(n: int, y: float) -> tuple[float, float]:
    """Guaranteed bracket [z_lo, z_hi] for the root of f_n(z) = y, y > n-2.

    From the two-sided ratio bounds
    (n-2)/2 + sqrt((n-2)^2/4 + z^2) <= f_n(z) <= (n-1)/2 + sqrt((n-1)^2/4 + z^2):
    inverting the upper bound at y gives z_lo with f_n(z_lo) <= y, inverting
    the lower bound gives z_hi with f_n(z_hi) >= y.
    """
    n = require_int(n, "dimension", 2)
    y = float(y)
    if not y > n - 2 or math.isinf(y) or math.isnan(y):
        raise DomainError(
            f"y must exceed n-2 = {n - 2} (range of f_n), got {y!r}"
        )
    half_hi = 0.5 * (n - 1.0)
    z_lo = math.sqrt(max(0.0, (y - half_hi) ** 2 - half_hi * half_hi))
    z_hi = math.sqrt(y * (y - (n - 2.0)))
    return z_lo, z_hi

