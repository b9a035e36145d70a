"""Float-pair primitives against independent oracles: 50-digit mpmath for
the log and ratio bounds, exact `Fraction` products and sums for the rest.

The Hilbert walk and its test-side reference walk share these primitives,
so this file is their only independent check.
"""

import math
import random
from fractions import Fraction

import pytest

from twoweightlab.enclosure import (add_bounds, log_abs_ratio_interval, log_bounds,
                                    log_ratio_bounds, mul_bounds, ratio_bounds,
                                    ratio_interval)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


def _signed_pairs():
    """Seeded big-int pairs (a, b), b != 0, with moderate quotients."""
    rng = random.Random("enclosure-oracle")
    pairs = []
    for _ in range(200):
        bits = rng.randrange(1, 200)
        a = rng.getrandbits(bits) + 1
        b = rng.getrandbits(rng.randrange(1, 200)) + 1
        pairs.append((a * rng.choice((1, -1)), b * rng.choice((1, -1))))
    # quotients one ulp from 1, and ties that round to 1.0
    for e in (52, 53, 60, 200):
        n = 2 ** e
        pairs += [(n + 1, n), (n - 1, n), (n, n + 1), (n, n - 1)]
    # walk-like differences x - a and x - b of opposite sign
    for _ in range(50):
        x = rng.getrandbits(120)
        a, b = x - rng.randrange(1, 3 ** 30), x + rng.randrange(1, 3 ** 30)
        pairs.append((x - a, x - b))
    # integers above 2**1100: float(a) overflows, a / b does not
    for _ in range(50):
        big = 2 ** 1100 + rng.getrandbits(1100)
        pairs.append((big + rng.getrandbits(1000), -(big - rng.getrandbits(1000))))
        pairs.append((3 ** 700 * rng.randrange(1, 10 ** 6), 3 ** 699 * rng.randrange(1, 10 ** 6)))
    return pairs


PAIRS = _signed_pairs()


def test_ratio_bounds_contain_50_digit_quotient():
    with pytest.raises(OverflowError):
        float(max(abs(a) for a, _ in PAIRS))
    with mp.workdps(50):
        for a, b in PAIRS:
            lo, hi = ratio_bounds(a, b)
            exact = mpmath.mpf(a) / mpmath.mpf(b)
            assert lo < hi
            assert mpmath.mpf(lo) < exact < mpmath.mpf(hi), (a, b)


def test_log_ratio_bounds_contain_50_digit_log():
    with mp.workdps(50):
        for a, b in PAIRS:
            lo, hi = log_ratio_bounds(abs(a), abs(b))
            exact = mpmath.log(abs(mpmath.mpf(a) / mpmath.mpf(b)))
            assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi), (a, b)
            assert hi - lo <= 1e-13 * max(1.0, abs(lo)), (a, b)
    assert log_ratio_bounds(7 ** 40, 7 ** 40) == (0.0, 0.0)


def _libm_log_inputs():
    """10^4 seeded floats: subnormal to 1e308, 1 ± k·2^-52 and [0.5, 2]."""
    rng = random.Random("libm-log")
    xs = [5e-324, 2.2250738585072014e-308, 1e308]
    xs += [math.ldexp(1 + rng.random(), rng.randrange(-1074, 1024)) for _ in range(3997)]
    xs += [1 + s * k * 2.0 ** -52 for k in range(1, 1501) for s in (1, -1)]
    xs += [rng.uniform(0.5, 2.0) for _ in range(3000)]
    return xs


def test_libm_log_is_within_2_ulp_and_log_bounds_enclose_it():
    """The first float assumption: `math.log` is within 2 ulp of the true log."""
    xs = _libm_log_inputs()
    assert len(xs) == 10 ** 4 and all(x > 0 for x in xs)
    with mp.workdps(50):
        for x in xs:
            exact = mpmath.log(mpmath.mpf(x))
            err = abs(mpmath.mpf(math.log(x)) - exact) / math.ulp(float(exact))
            assert err <= 2, (x, err)
            lo, hi = log_bounds(x, x)
            assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi), x


def test_interval_wrappers_are_the_primitives_on_fractions():
    rng = random.Random("wrappers")
    for a, b in PAIRS[:100]:
        da, db = rng.randrange(1, 10 ** 9), rng.randrange(1, 10 ** 9)
        num, den = Fraction(a, da), Fraction(b, db)
        iv = ratio_interval(num, den)
        assert (iv.lo, iv.hi) == ratio_bounds(a * db, da * b)
        iv = log_abs_ratio_interval(num, den)
        assert (iv.lo, iv.hi) == log_ratio_bounds(abs(a * db), abs(da * b))


def test_add_and_mul_bounds_contain_exact_results():
    rng = random.Random("add-mul")
    for _ in range(500):
        xs = sorted(rng.uniform(-1, 1) * 10.0 ** rng.randrange(-30, 30) for _ in range(2))
        ys = sorted(rng.uniform(-1, 1) * 10.0 ** rng.randrange(-30, 30) for _ in range(2))
        corners = [Fraction(x) * Fraction(y) for x in xs for y in ys]
        lo, hi = mul_bounds(*xs, *ys)
        assert Fraction(lo) < min(corners) and max(corners) < Fraction(hi)
        lo, hi = add_bounds(*xs, *ys)
        assert Fraction(lo) < Fraction(xs[0]) + Fraction(ys[0])
        assert Fraction(xs[1]) + Fraction(ys[1]) < Fraction(hi)
    assert mul_bounds(0.0, 0.0, 2.0, 3.0) == (-math.ulp(0.0), math.ulp(0.0))
