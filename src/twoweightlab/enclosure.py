"""Exact rational enclosures and directed-rounding float intervals.

All certified quantities in this package travel either as an `Enclosure`
(a closed interval with `Fraction` endpoints; exact values have lo == hi)
or, on the floating-point side, as a `FloatInterval` whose arithmetic is
padded outward by one ulp per operation.  That outward rounding lives in a
few float-pair primitives (`add_bounds`, `mul_bounds`, `ratio_bounds`,
`log_bounds`, `log_ratio_bounds`) that take and return plain (lo, hi)
floats; `FloatInterval` and the interval helpers below are thin wrappers
over them, and hot loops such as the Hilbert walk call them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import nextafter

Q = Fraction

INF = float("inf")


def qstr(x: Fraction) -> str:
    """Serialize a rational as "num/den" (the wire format for all reports)."""
    return f"{x.numerator}/{x.denominator}"


def parse_q(text) -> Fraction:
    """Parse "num/den", integer or decimal strings into an exact rational."""
    if isinstance(text, float):
        raise TypeError(f"refusing float {text!r}; pass a 'num/den' string")
    return Fraction(str(text).strip())


@dataclass(frozen=True)
class Enclosure:
    """Closed rational interval [lo, hi] certified to contain a quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: {self.lo} > {self.hi}")

    @staticmethod
    def exact(value) -> "Enclosure":
        v = Fraction(value)
        return Enclosure(v, v)

    @staticmethod
    def hull(*values) -> "Enclosure":
        vs = [Fraction(v) for v in values]
        return Enclosure(min(vs), max(vs))

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        other = _coerce(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Enclosure(min(cands), max(cands))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by enclosure containing zero")
        inv = Enclosure(1 / other.hi, 1 / other.lo)
        return self * inv

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def pow_int(self, n: int) -> "Enclosure":
        if n == 0:
            return Enclosure.exact(1)
        if n < 0:
            return Enclosure.exact(1) / self.pow_int(-n)
        if self.lo >= 0:
            return Enclosure(self.lo ** n, self.hi ** n)
        out = Enclosure.exact(1)
        for _ in range(n):
            out = out * self
        return out

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self):
        if self.is_exact:
            return qstr(self.lo)
        return f"[{qstr(self.lo)}, {qstr(self.hi)}]"


def _coerce(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    return Enclosure.exact(x)


ZERO = Enclosure.exact(0)
ONE = Enclosure.exact(1)


def enclosure_sum(items) -> Enclosure:
    lo = Q(0)
    hi = Q(0)
    for e in items:
        lo += e.lo
        hi += e.hi
    return Enclosure(lo, hi)


def _int_nth_root(n: int, d: int) -> int:
    """Floor of the d-th root of a nonnegative integer, exact."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if d == 1:
        return n
    if d == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // d) + 1)  # initial overestimate
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    while x ** d > n:
        x -= 1
    return x


def nth_root_enclosure(x: Fraction, d: int) -> Enclosure:
    """Enclosure of x**(1/d) for x >= 0, tight to about 2**-80 relative."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return ZERO
    shift = 1 << 80
    scaled = (x.numerator * shift ** d) // x.denominator
    r = _int_nth_root(scaled, d)
    return Enclosure(Q(r, shift), Q(r + 1, shift))


def qpow_enclosure(x: Fraction, e: Fraction) -> Enclosure:
    """Enclosure of x**e for x > 0 and rational e."""
    x, e = Fraction(x), Fraction(e)
    if x <= 0:
        raise ValueError("base must be positive")
    n, d = e.numerator, e.denominator
    if n < 0:
        inner = qpow_enclosure(x, -e)
        return ONE / inner
    if d == 1:
        return Enclosure.exact(x ** n)
    return nth_root_enclosure(x ** n, d)


def pow_enclosure(e: Enclosure, exponent: Fraction) -> Enclosure:
    """Enclosure of e**exponent for a nonnegative enclosure e."""
    exponent = Fraction(exponent)
    if e.lo < 0:
        raise ValueError("pow_enclosure needs a nonnegative enclosure")
    if exponent.denominator == 1:
        return e.pow_int(exponent.numerator)
    if exponent >= 0:
        lo = ZERO if e.lo == 0 else qpow_enclosure(e.lo, exponent)
        hi = ZERO if e.hi == 0 else qpow_enclosure(e.hi, exponent)
        return Enclosure(lo.lo, hi.hi)
    if e.lo == 0:
        raise ZeroDivisionError("negative power of enclosure touching zero")
    lo = qpow_enclosure(e.hi, exponent)
    hi = qpow_enclosure(e.lo, exponent)
    return Enclosure(lo.lo, hi.hi)


# ---------------------------------------------------------------------------
# Float bounds with outward rounding: (lo, hi) primitives, then the
# `FloatInterval` object built on them.

def add_bounds(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    """[alo, ahi] + [blo, bhi], one ulp outward."""
    return nextafter(alo + blo, -INF), nextafter(ahi + bhi, INF)


def mul_bounds(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    """[alo, ahi] * [blo, bhi], one ulp outward."""
    cands = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return nextafter(min(cands), -INF), nextafter(max(cands), INF)


def ratio_bounds(a: int, b: int) -> tuple[float, float]:
    """a/b for integers a and b != 0, one ulp either side of the quotient.

    Big-int true division is correctly rounded and stays finite wherever the
    quotient is, even when `float(a)` would overflow.
    """
    v = a / b
    return nextafter(v, -INF), nextafter(v, INF)


def log_bounds(lo: float, hi: float) -> tuple[float, float]:
    """Bounds on ln over the positive floats [lo, hi].

    Platform libm is assumed accurate to <= 2 ulp for log; each end is
    padded outward by 4 ulp.
    """
    down = nextafter(nextafter(nextafter(nextafter(math.log(lo), -INF), -INF), -INF), -INF)
    up = nextafter(nextafter(nextafter(nextafter(math.log(hi), INF), INF), INF), INF)
    return down, up


def log_ratio_bounds(a: int, b: int) -> tuple[float, float]:
    """ln(a/b) for positive integers a and b, without rational normalization."""
    if a == b:
        return 0.0, 0.0
    v = a / b
    return log_bounds(nextafter(v, -INF), nextafter(v, INF))


@dataclass(frozen=True)
class FloatInterval:
    """Closed float interval; every operation widens outward by one ulp."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty float interval: {self.lo} > {self.hi}")

    @staticmethod
    def from_fraction(x: Fraction) -> "FloatInterval":
        f = float(x)
        if math.isinf(f):
            raise OverflowError("fraction out of float range")
        fr = Fraction(f)
        if fr == x:
            return FloatInterval(f, f)
        if fr < x:
            return FloatInterval(f, nextafter(f, INF))
        return FloatInterval(nextafter(f, -INF), f)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, other: "FloatInterval") -> "FloatInterval":
        return FloatInterval(*add_bounds(self.lo, self.hi, other.lo, other.hi))

    def __neg__(self):
        return FloatInterval(-self.hi, -self.lo)

    def __mul__(self, other: "FloatInterval") -> "FloatInterval":
        return FloatInterval(*mul_bounds(self.lo, self.hi, other.lo, other.hi))

    def abs(self) -> "FloatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return FloatInterval(0.0, max(-self.lo, self.hi))

    def to_enclosure(self) -> Enclosure:
        return Enclosure(Q(self.lo), Q(self.hi))

    def __str__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


FZERO = FloatInterval(0.0, 0.0)


def log_interval(x: Fraction) -> FloatInterval:
    """Directed-rounding enclosure of ln(x) for a positive rational x."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of nonpositive value")
    fx = FloatInterval.from_fraction(x)
    return FloatInterval(*log_bounds(fx.lo, fx.hi))


def ratio_interval(num: Fraction, den: Fraction) -> FloatInterval:
    """num/den as a 1-ulp float interval without rational normalization."""
    a = num.numerator * den.denominator
    b = num.denominator * den.numerator
    if b == 0:
        raise ZeroDivisionError("ratio_interval by zero")
    return FloatInterval(*ratio_bounds(a, b))


def log_abs_ratio_interval(num: Fraction, den: Fraction) -> FloatInterval:
    """Enclosure of ln|num/den| without rational normalization."""
    a = abs(num.numerator * den.denominator)
    b = abs(num.denominator * den.numerator)
    if a == 0 or b == 0:
        raise ValueError("log of zero ratio")
    return FloatInterval(*log_ratio_bounds(a, b))


LN3 = log_interval(Q(3))
