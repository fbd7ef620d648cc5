"""The power kernel as `Fraction` arithmetic with two integer roots per
enclosure, kept as the oracle for `enclosure.pow_enclosure`.

Each step takes the roots of t and t + 1, scales both ends by a `Fraction`
and tests the width in `Fraction`s; an exact point takes the roots of the
numerator and the denominator both.  The roots are the Newton reference's.
"""

from fractions import Fraction

from cubeporos.enclosure import REL_BITS, RatInterval
from iroot_reference import iroot

_ONE = Fraction(1)


def _rational_root_enclosure(y: Fraction, q: int) -> RatInterval:
    """Enclosure of y**(1/q) for y > 0 with relative width <= 2^-REL_BITS."""
    num, den = y.numerator, y.denominator
    # Scale so the integer root retains > REL_BITS significant bits.
    mag = num.bit_length() - den.bit_length()  # log2(y) within +-1
    k = REL_BITS + 4 + max(0, (q - mag + 1) // q + 1)
    while True:
        t = (num << (q * k)) // den
        lo_i = iroot(t, q)
        hi_i = iroot(t + 1, q) + 1
        scale = _ONE / (1 << k)
        lo, hi = lo_i * scale, hi_i * scale
        if lo > 0 and (hi - lo) * (1 << REL_BITS) <= lo:
            return RatInterval(lo, hi)
        k += 32


def pow_enclosure(base, exp) -> RatInterval:
    """Certified enclosure of base**exp for rational base > 0, rational exp.

    Exact (a point interval) whenever the true value is rational by
    construction, e.g. integer exponents and base 0/1 cases.
    """
    base = Fraction(base)
    exp = Fraction(exp)
    if base < 0:
        raise ValueError("pow_enclosure needs base >= 0")
    if base == 0:
        if exp <= 0:
            raise ValueError("0 cannot be raised to a non-positive power")
        return RatInterval.point(0)
    p, q = exp.numerator, exp.denominator
    y = base ** p  # exact Fraction, p may be negative
    if q == 1:
        return RatInterval.point(y)
    root = iroot(y.numerator, q)
    root_d = iroot(y.denominator, q)
    if root ** q == y.numerator and root_d ** q == y.denominator:
        return RatInterval.point(Fraction(root, root_d))
    return _rational_root_enclosure(y, q)
