import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeporos.enclosure import (POWERS_KEPT, RatInterval, frac_parse, frac_str, iroot,
                                 pow2_enclosure, pow_enclosure, powers)

import iroot_reference
import pow_reference


def test_iroot_exact_cubes():
    assert iroot(27, 3) == 3
    assert iroot(26, 3) == 2
    assert iroot(0, 5) == 0
    assert iroot(1, 7) == 1
    assert iroot(2 ** 100, 10) == 2 ** 10


@given(st.integers(0, 10 ** 30), st.integers(1, 12))
@settings(max_examples=200)
def test_iroot_floor_property(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@st.composite
def root_cases(draw):
    # an arbitrary argument, or a perfect power and its neighbours, where an
    # off-by-one start or stop would show
    k = draw(st.integers(1, 64))
    if draw(st.booleans()):
        n = draw(st.integers(0, 1 << draw(st.integers(0, 4096))))
    else:
        x = draw(st.integers(1, 1 << (4096 // k)))
        n = max(0, x ** k + draw(st.integers(-1, 1)))
    return n, k


@given(root_cases())
@settings(max_examples=300, deadline=None)
def test_iroot_matches_the_newton_reference(case):
    n, k = case
    r = iroot(n, k)
    assert r == iroot_reference.iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_iroot_of_a_high_order_is_quick():
    # the shape pow_enclosure(7/3, 1/4000) asks for; the reference Newton
    # takes about 700 linear steps here
    n = (7 << 4000 * 80) // 3
    start = time.perf_counter()
    r = iroot(n, 4000)
    assert time.perf_counter() - start < 2
    assert r ** 4000 <= n < (r + 1) ** 4000


def test_pow2_integer_exponents_exact():
    assert pow2_enclosure(Fraction(3)) == RatInterval.point(8)
    assert pow2_enclosure(Fraction(-4)) == RatInterval.point(Fraction(1, 16))


def test_pow2_half():
    enc = pow2_enclosure(Fraction(1, 2))
    # the enclosure straddles sqrt(2): exact rational comparison of squares
    assert enc.lo ** 2 <= 2 <= enc.hi ** 2
    assert float(enc.lo) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert enc.hi - enc.lo <= enc.lo / (1 << 60)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000),
       st.fractions(min_value=-4, max_value=4))
@settings(max_examples=150)
def test_pow_enclosure_contains_float_value(base, exp):
    if exp.denominator > 16:
        exp = Fraction(exp.numerator % 16, exp.denominator % 16 + 1)
    enc = pow_enclosure(base, exp)
    approx = float(base) ** float(exp)
    # the certified interval must straddle the float evaluation generously
    assert float(enc.lo) <= approx * (1 + 1e-9) + 1e-12
    assert float(enc.hi) >= approx * (1 - 1e-9) - 1e-12
    assert enc.hi - enc.lo <= enc.lo / (1 << 58)


@st.composite
def power_cases(draw):
    """(base, exp): a base of up to 256 bits over up to 256 bits, or a
    perfect power of such a ratio and its neighbours, where an exact root
    or an off-by-one width shows; exponents p/q with |p| <= 9, q <= 12."""
    q = draw(st.integers(1, 12))
    exp = Fraction(draw(st.integers(-9, 9)), q)
    bits = st.integers(0, 256).map(lambda b: 1 << b)
    num = draw(st.integers(0, draw(bits)))
    den = draw(st.integers(1, draw(bits)))
    if draw(st.booleans()):
        num = max(0, num ** q + draw(st.integers(-1, 1)))
        den = den ** q + draw(st.sampled_from((0, 0, 1)))
    return Fraction(num, den), exp


def _power_outcome(fn, base, exp):
    try:
        return fn(base, exp)
    except ValueError as exc:
        return str(exc)


@given(power_cases())
# the upper root of t + 1 is the lower root plus two: t + 1 is a q-th power
@example((Fraction(1, 10889035741470030831620336645598578820217), Fraction(1, 2)))
@example((Fraction(1, 100433627766186892231887208137671532539031697260286100648407),
          Fraction(1, 3)))
@example((Fraction(0), Fraction(-1, 2)))
@example((Fraction(-1, 3), Fraction(1, 2)))
@example((Fraction(9, 4), Fraction(-3, 2)))
@example((Fraction(9, 5), Fraction(1, 2)))
@example((Fraction(8, 27), Fraction(-2, 3)))
@settings(max_examples=300, deadline=None)
def test_pow_enclosure_matches_the_fraction_reference(case):
    base, exp = case
    assert _power_outcome(pow_enclosure, base, exp) == \
        _power_outcome(pow_reference.pow_enclosure, base, exp)


def test_interval_arithmetic():
    a = RatInterval(Fraction(1), Fraction(2))
    b = RatInterval(Fraction(3), Fraction(4))
    assert (a + b) == RatInterval(Fraction(4), Fraction(6))
    assert (b - a) == RatInterval(Fraction(1), Fraction(3))
    assert (a * b) == RatInterval(Fraction(3), Fraction(8))
    assert (b / a) == RatInterval(Fraction(3, 2), Fraction(4))


interval_ends = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def intervals(draw):
    # 0 and negative ends drawn often, point intervals included
    ends = st.one_of(st.just(Fraction(0)), interval_ends)
    lo, hi = sorted((draw(ends), draw(ends)))
    return RatInterval(lo, hi)


def _point_in(draw, iv):
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=16))
    return iv.lo + t * (iv.hi - iv.lo)


@given(st.data())
@settings(max_examples=300)
def test_interval_forms_are_the_corner_hulls(data):
    """`+`, `-`, `*` by an interval or by a scalar >= 0, and `/` by an
    interval without 0: each result's ends are the least and the largest
    corner result, and each holds `x op y` for points inside the operands."""
    draw = data.draw
    a, b = draw(intervals()), draw(intervals())
    c = draw(st.one_of(st.integers(0, 9), st.fractions(min_value=0, max_value=8)))
    ops = [(a + b, a, b, lambda x, y: x + y), (a - b, a, b, lambda x, y: x - y),
           (a * b, a, b, lambda x, y: x * y),
           (a * c, a, RatInterval.point(c), lambda x, y: x * y)]
    if not b.lo <= 0 <= b.hi:
        ops.append((a / b, a, b, lambda x, y: x / y))
    for result, u, v, op in ops:
        corners = [op(x, y) for x in (u.lo, u.hi) for y in (v.lo, v.hi)]
        assert (result.lo, result.hi) == (min(corners), max(corners))
        x, y = _point_in(draw, u), _point_in(draw, v)
        assert result.lo <= op(x, y) <= result.hi
    with pytest.raises(ZeroDivisionError):
        a / RatInterval(min(b.lo, Fraction(0)), max(b.hi, Fraction(0)))


def test_frac_round_trip():
    x = Fraction(-7, 12)
    assert frac_parse(frac_str(x)) == x
    assert frac_str(Fraction(2)) == "2/1"


def test_powers_raises_each_recent_base_once(pow_calls):
    power = powers(Fraction(-3, 5))
    half = (Fraction(1, 2), Fraction(-3, 5))
    fresh = iter(range(3, 10 ** 6))

    def newer(n):
        for _ in range(n):
            power(Fraction(1, next(fresh)))
    assert power(Fraction(1, 2)) == pow_enclosure(*half)
    assert power(Fraction(2, 4)) == pow_enclosure(*half)  # one key per value
    assert pow_calls[half] == 1
    for _ in range(2):  # a use keeps it through 127 newer bases
        newer(POWERS_KEPT - 1)
        power(Fraction(1, 2))
        assert pow_calls[half] == 1
    newer(POWERS_KEPT)  # 128 newer bases evict it
    assert power(Fraction(1, 2)) == pow_enclosure(*half)
    assert pow_calls[half] == 2
