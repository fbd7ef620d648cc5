"""Certified rational interval arithmetic for real powers.

Quantities like x^(p/q) with rational x > 0 are irrational in general, so
every report in this package carries them as intervals [lo, hi] with exact
rational endpoints and relative width <= 2^-REL_BITS.  Endpoints are dyadic
rationals produced from integer k-th roots, so there is never a rounding
step that could silently cross a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

REL_BITS = 60

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac_str(x: Fraction) -> str:
    """Decimal-free wire format, always 'p/q'."""
    return f"{x.numerator}/{x.denominator}"


def dyadic_str(n: int, b: int) -> str:
    """`frac_str(Fraction(n, 2^b))` with no Fraction and no gcd: the shared
    factors of 2 are the trailing zeros of n, shifted out."""
    if not n:
        return "0/1"
    z = min((n & -n).bit_length() - 1, b)
    return f"{n >> z}/{1 << b - z}"


def frac_parse(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"expected a rational as a string such as '1/3', got {s!r}")
    s = s.strip()
    if "/" in s:
        num, den = (int(t) for t in s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)
    # accept bare integers and decimal strings from CLI flags
    return Fraction(s)


def int_parse(x) -> int:
    """A JSON integer as read by `json`; a float, bool or string raises."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1."""
    if n < 0:
        raise ValueError("iroot of negative integer")
    if k <= 0:
        raise ValueError("iroot order must be positive")
    if n == 0:
        return 0
    if k == 1:
        return n
    # Newton iteration from an over-estimate; terminates monotonically.  From
    # 2^e, up to twice the root, it closes in about 0.7*k linear steps, so a
    # high order first finds the root's top t bits one at a time, which puts
    # the start within a factor 1 + 2^(2-t) < 1 + 1/k of the root.
    e = (n.bit_length() + k - 1) // k
    t = k.bit_length() + 2
    if k <= 16 or e <= t:
        x = 1 << e
    else:
        s = e - t
        top, r = n >> k * s, 0
        for i in range(t - 1, -1, -1):
            if (r | 1 << i) ** k <= top:
                r |= 1 << i
        x = r + 1 << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other) -> "RatInterval":
        """Product with an interval, or with a scalar >= 0."""
        if isinstance(other, RatInterval):
            cands = (self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi)
            return RatInterval(min(cands), max(cands))
        return RatInterval(self.lo * other, self.hi * other)

    def __truediv__(self, other: "RatInterval") -> "RatInterval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval division by interval containing 0")
        cands = (self.lo / other.lo, self.lo / other.hi,
                 self.hi / other.lo, self.hi / other.hi)
        return RatInterval(min(cands), max(cands))

    def to_json(self):
        return [frac_str(self.lo), frac_str(self.hi)]


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


def pow2_enclosure(exp) -> RatInterval:
    """Enclosure of 2**exp; the workhorse for dyadic volume powers."""
    return pow_enclosure(Fraction(2), exp)


def sum_intervals(parts) -> RatInterval:
    lo = _ZERO
    hi = _ZERO
    for p in parts:
        lo += p.lo
        hi += p.hi
    return RatInterval(lo, hi)
