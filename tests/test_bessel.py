"""Kernel-level tests: scaled K values against an arbitrary-precision
oracle, and the ratio/gap inequality suite."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from extrobin import (
    BesselOrder,
    DomainError,
    RangeLimitError,
    gap_a,
    modified_bessel_K,
    ratio_f,
    segura_bracket,
)
from tests.conftest import rel_err

mpmath.mp.dps = 40

ORDERS = [BesselOrder(twice_order=t) for t in range(0, 13)]
Z_SAMPLES = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 10.0, 50.0, 300.0, 700.0]


def oracle_k_scaled(order: BesselOrder, z: float) -> float:
    return float(mpmath.besselk(mpmath.mpf(order.twice_order) / 2, z) * mpmath.exp(z))


def test_order_parsing() -> None:
    assert BesselOrder.parse("0").twice_order == 0
    assert BesselOrder.parse("1/2").twice_order == 1
    assert BesselOrder.parse("3/2").twice_order == 3
    assert BesselOrder.parse("2").twice_order == 4
    assert BesselOrder.from_order(2.5).twice_order == 5
    with pytest.raises(DomainError):
        BesselOrder.parse("1/3")
    with pytest.raises(DomainError):
        BesselOrder.parse("-1/2")
    with pytest.raises(DomainError):
        BesselOrder.from_order(0.3)
    for text in ("x", "", "nan", "inf", "-inf", "3/2/1", "1/0", "1/x", "1e308/1e-308"):
        with pytest.raises(DomainError):
            BesselOrder.parse(text)
    for value in (math.nan, math.inf):
        with pytest.raises(DomainError):
            BesselOrder.from_order(value)


def test_k_against_oracle() -> None:
    for order in ORDERS:
        for z in Z_SAMPLES:
            got = modified_bessel_K(order, z, scaled=True)
            assert rel_err(got, oracle_k_scaled(order, z)) <= 1e-12


def test_k_half_integer_closed_forms() -> None:
    # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}, K_{3/2}(z) = K_{1/2}(z) (z+1)/z.
    assert rel_err(
        modified_bessel_K(BesselOrder.parse("1/2"), 2.0, scaled=False),
        math.sqrt(math.pi / 4.0) * math.exp(-2.0),
    ) <= 1e-15
    assert rel_err(
        modified_bessel_K(BesselOrder.parse("3/2"), 2.0, scaled=False),
        math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5,
    ) <= 1e-15


def test_k0_reference_value() -> None:
    assert rel_err(
        modified_bessel_K(BesselOrder.parse("0"), 1.0, scaled=False),
        float(mpmath.besselk(0, 1)),
    ) <= 1e-14


def test_domain_and_range_errors() -> None:
    with pytest.raises(DomainError):
        modified_bessel_K(BesselOrder.parse("0"), 0.0, scaled=True)
    with pytest.raises(DomainError):
        modified_bessel_K(BesselOrder.parse("0"), -1.0, scaled=True)
    with pytest.raises(RangeLimitError):
        modified_bessel_K(BesselOrder.parse("0"), 720.0, scaled=False)
    with pytest.raises(DomainError):
        ratio_f(1, 1.0)
    with pytest.raises(DomainError):
        ratio_f(3, 0.0)
    with pytest.raises(DomainError):
        gap_a(3, -2.0)
    with pytest.raises(DomainError):
        segura_bracket(3, 1.0)


def test_ratio_spot_values() -> None:
    assert rel_err(ratio_f(3, 2.0), 3.0) <= 1e-15
    assert rel_err(ratio_f(5, 2.0), 13.0 / 3.0) <= 1e-14
    assert rel_err(ratio_f(7, 2.0), 77.0 / 13.0) <= 1e-14


def test_ratio_against_oracle() -> None:
    for n in range(2, 13):
        for z in Z_SAMPLES:
            oracle = float(
                z * mpmath.besselk(mpmath.mpf(n) / 2, z) / mpmath.besselk(mpmath.mpf(n - 2) / 2, z)
            )
            assert rel_err(ratio_f(n, z), oracle) <= 1e-13


def test_gap_spot_values() -> None:
    for z in [1e-3, 0.3, 2.0, 45.0, 700.0]:
        assert abs(gap_a(3, z) + 1.0) <= 1e-12
    assert rel_err(gap_a(5, 1.0), -2.75) <= 1e-13
    # a_2 is negative already for small z.
    assert -0.5 <= gap_a(2, 1e-3) < 0.0


def test_gap_against_oracle() -> None:
    for n in range(2, 13):
        for z in Z_SAMPLES:
            f = z * mpmath.besselk(mpmath.mpf(n) / 2, z) / mpmath.besselk(mpmath.mpf(n - 2) / 2, z)
            oracle = float(f * f - (n - 1) * f - z * z)
            # The oracle difference is tiny against the O(n-2) scale of a_n.
            assert abs(gap_a(n, z) - oracle) <= 1e-11 * max(1.0, n - 2.0)


def test_small_z_limit() -> None:
    for n in range(3, 13):
        assert abs(ratio_f(n, 1e-8) - (n - 2)) <= 1e-4


def test_large_z_window() -> None:
    # f_3(z) = z + 1 makes the n = 3 expression vanish identically; the n = 2
    # correction term is negative, so only n >= 4 sits in the strict window.
    assert abs(ratio_f(3, 500.0) - 500.0 - 1.0) <= 1e-12
    assert abs(ratio_f(2, 500.0) - 500.0 - 0.5) <= 0.05
    for n in range(4, 13):
        excess = ratio_f(n, 500.0) - 500.0 - (n - 1) / 2.0
        assert 0.0 < excess <= 0.05


def test_segura_bracket_examples() -> None:
    lo, hi = segura_bracket(3, 3.0)
    assert rel_err(lo, math.sqrt(3.0)) <= 1e-15
    assert rel_err(hi, math.sqrt(6.0)) <= 1e-15
    assert lo <= 2.0 <= hi
    lo, hi = segura_bracket(2, 1.0)
    assert lo == 0.0 and rel_err(hi, 1.0) <= 1e-15
    # Tight bracket near the range edge: z_hi maps above y, z_lo below.
    lo, hi = segura_bracket(4, 2.001)
    assert rel_err(hi, math.sqrt(2.001**2 - 2 * 2.001)) <= 1e-12
    assert ratio_f(4, hi) >= 2.001
    assert lo == 0.0 or ratio_f(4, lo) <= 2.001


@given(
    n=st.integers(min_value=2, max_value=12),
    logz=st.floats(min_value=math.log(1e-3), max_value=math.log(700.0)),
)
@settings(max_examples=120, deadline=None)
def test_segura_band_property(n: int, logz: float) -> None:
    z = math.exp(logz)
    f = ratio_f(n, z)
    lower = (n - 2) / 2.0 + math.sqrt((n - 2) ** 2 / 4.0 + z * z)
    upper = (n - 1) / 2.0 + math.sqrt((n - 1) ** 2 / 4.0 + z * z)
    if n >= 3:
        assert lower < f < upper
        assert f >= z + (n - 1) / 2.0
    else:
        assert lower <= f <= upper
    assert f > n - 2


@given(
    n=st.integers(min_value=2, max_value=12),
    logz=st.floats(min_value=math.log(1e-3), max_value=math.log(699.0)),
    factor=st.floats(min_value=1.0001, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_ratio_strictly_increasing(n: int, logz: float, factor: float) -> None:
    z1 = math.exp(logz)
    z2 = min(700.0, z1 * factor)
    assert ratio_f(n, z1) < ratio_f(n, z2)


@given(
    n=st.integers(min_value=2, max_value=12),
    logz=st.floats(min_value=math.log(1e-3), max_value=math.log(700.0)),
)
@settings(max_examples=100, deadline=None)
def test_gap_band_property(n: int, logz: float) -> None:
    a = gap_a(n, math.exp(logz))
    assert a < 0.0
    assert a >= -(n - 2) if n >= 3 else a >= -0.5


@given(
    n=st.integers(min_value=2, max_value=10),
    logz=st.floats(min_value=math.log(1e-3), max_value=math.log(700.0)),
)
@settings(max_examples=100, deadline=None)
def test_recurrence_closure(n: int, logz: float) -> None:
    z = math.exp(logz)
    f_next = ratio_f(n + 2, z)
    assert abs(f_next - z * z / ratio_f(n, z) - n) <= 1e-12 * f_next


@given(
    n=st.integers(min_value=2, max_value=12),
    logy_excess=st.floats(min_value=math.log(1e-2), max_value=math.log(500.0)),
)
@settings(max_examples=100, deadline=None)
def test_bracket_contains_root(n: int, logy_excess: float) -> None:
    y = (n - 2) + math.exp(logy_excess)
    lo, hi = segura_bracket(n, y)
    assert lo < hi
    if lo > 0.0:
        assert ratio_f(n, lo) <= y
    if hi <= 700.0:
        assert ratio_f(n, hi) >= y


def test_order_one_two_ratio_envelope() -> None:
    # Two-sided rational bounds on K_2/K_1, checked on a moderate window.
    for z in [1e-3, 0.01, 0.1, 1.0, 5.0, 20.0, 50.0]:
        ratio = (
            modified_bessel_K(BesselOrder.parse("2"), z, scaled=True)
            / modified_bessel_K(BesselOrder.parse("1"), z, scaled=True)
        )
        assert 2 * (z + 1) ** 2 / (z * (2 * z + 1)) < ratio
        assert ratio < (4 * z * z + 9 * z + 6) / (z * (4 * z + 3))


def test_k0_log_asymptote() -> None:
    z = 0.01
    k0 = modified_bessel_K(BesselOrder.parse("0"), z, scaled=False)
    assert abs(k0 / (-math.log(z / 2.0) - 0.5772156649015329) - 1.0) <= 1e-3
