"""Masses, averages, packing: frozen oracles and comparison properties."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoweightlab.enclosure import Enclosure
from twoweightlab.measures import ap_product, average, mass, packing_partial, packing_sum
from twoweightlab.triadic import IntervalQ, cell_from_index
from twoweightlab.weights import (ConstructionParams, WeightModel, _carrier_mass, _value,
                                  build_construction)

from oracles import cell_contains, cell_from_address, smallest_carrier

UNIT = IntervalQ(Q(0), Q(1))


def model(k=2, p=2, depth=3, placement="right"):
    lo = max(Q(1), 1 / (Q(p) - 1))
    r = (lo + Q(p) / (Q(p) - 1)) / 2
    return build_construction(
        ConstructionParams(k=k, p=Q(p), r=r, depth=depth, placement=placement))


def sigma_mass_series_oracle(k: int, p: int, terms: int = 60) -> Q:
    """Direct summation of the support-cell sigma masses plus the exact tail."""
    rho = Q(3 ** k, 3 ** (k - 1) + 1)
    b = rho ** (1 - p)
    partial = Q(0)
    for gen in range(1, terms + 1):
        count = 3 ** ((gen - 1) * (k - 1))
        partial += count * Q(1, 3 ** (gen * k)) * b ** gen
    ratio = 3 ** (k - 1) * Q(1, 3 ** k) * b  # per-generation growth factor
    tail = (3 ** (terms * (k - 1)) * Q(1, 3 ** ((terms + 1) * k)) * b ** (terms + 1)) \
        / (1 - ratio)
    return partial + tail


def test_sigma_mass_unit_interval_frozen():
    # geometric series in exact rationals: sum of 3^(l-1) 9^-l (4/9)^l = 4/69
    assert sigma_mass_series_oracle(2, 2) == Q(4, 69)
    m = model()
    enc = mass(m, "sigma", UNIT)
    assert enc.is_exact and enc.lo == Q(4, 69)


def test_w_mass_unit_and_vanishing_left_third():
    m = model()
    assert mass(m, "w", UNIT).lo == 1
    enc = mass(m, "w", IntervalQ(Q(0), Q(1, 3)))
    assert enc.is_exact and enc.lo == 0


def test_carrier_averages_match_closed_forms():
    for k, p in ((2, 2), (3, 2), (2, 3)):
        m = model(k=k, p=p, depth=2)
        for gen in range(3):
            cell = m.kcell(gen, 0)
            aw = average(m, "w", cell.interval(), 200)
            assert aw.is_exact and aw.lo == m.rho ** gen
            asig = average(m, "sigma", cell.interval(), 200)
            assert asig.is_exact and asig.lo == m.avg_sigma_carrier(gen).lo


def test_gen1_average_is_nine_quarters():
    m = model()
    enc = average(m, "w", m.kcell(1, 0).interval())
    assert enc.lo == Q(9, 4)


def test_ap_products():
    m = model()
    support = m.support_cells(1)[0].cell
    assert ap_product(m, support.interval()).lo == 1
    assert ap_product(m, UNIT).lo == Q(4, 69)
    # on any carrier the forward product is c * 3^-k, independent of gen
    for gen in (0, 1, 2):
        enc = ap_product(m, m.kcell(gen, 0).interval(), max_depth=200)
        assert enc.lo == m.c.lo * Q(1, 9)
    dual = ap_product(m, support.interval(), "dual")
    assert dual.lo == 1


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ap_products_at_a_non_integer_p(k):
    # p = 3/2 raises <w> to the power 1/2 (forward), so the support-cell
    # product of 1 comes back as a fixed-point root enclosure
    m = model(k=k, p=Q(3, 2), depth=2)
    assert m.params.r == Q(5, 2)
    for support in m.support[:4]:
        for direction in ("forward", "dual"):
            enc = ap_product(m, support.cell.interval(), direction)
            assert enc.lo <= 1 <= enc.hi and enc.width < Q(1, 10 ** 20), (support, direction)


def test_wtilde_scale():
    m = model()
    enc = mass(m, "wTilde", UNIT)
    assert enc.encloses(m.scale)
    assert float(enc.width) < 1e-18


def test_packing_closed_forms():
    m = model()
    root = cell_from_address("")
    enc = packing_sum(m, root, "w")
    assert enc.is_exact and enc.lo == 4
    ratio = enc.lo / 9
    assert Q(1, 3) < ratio <= Q(4, 9)
    sig = packing_sum(m, root, "sigma")
    assert sig.encloses(Enclosure.exact(Q(4, 69) / (1 - Q(4, 27))))
    partial = packing_partial(m, 0, 25)
    assert partial.lo < 4
    tail = Q(3, 4) ** 26 * 4
    assert partial.lo + tail == 4


def test_packing_rejects_non_carrier():
    m = model()
    with pytest.raises(ValueError):
        packing_sum(m, cell_from_address("0"), "w")


@pytest.mark.parametrize("call, message", [
    (lambda m: mass(m, "W", UNIT), "which must be"),
    (lambda m: average(m, "wtilde", UNIT, 5), "which must be"),
    (lambda m: mass(m, "w", UNIT, -1), "max_depth must be >= 0"),
    (lambda m: average(m, "sigma", UNIT, -1), "max_depth must be >= 0"),
    (lambda m: packing_sum(m, cell_from_address(""), "tilde"), "which must be"),
], ids=["mass-which", "average-which", "mass-depth", "average-depth", "packing-which"])
def test_unknown_measures_and_negative_depths_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call(model())


def test_enclosure_soundness_under_refinement():
    m = model()
    iv = IntervalQ(Q(0), Q(1, 2))
    prev = mass(m, "w", iv, 6)
    for depth in (10, 20, 40, 80):
        cur = mass(m, "w", iv, depth)
        assert prev.encloses(cur)
        prev = cur
    assert float(prev.width) < 1e-9


def test_recursion_guard_at_half():
    # 1/2 sits inside the active region at every generation; the budget stops
    # the descent with a certified enclosure instead of diverging
    m = model(depth=2)
    enc = mass(m, "w", IntervalQ(Q(1, 3), Q(1, 2)), 12)
    assert enc.width > 0
    finer = mass(m, "w", IntervalQ(Q(1, 3), Q(1, 2)), 36)
    assert enc.encloses(finer) and finer.width < enc.width


def test_policy_independence_mirror():
    right = model(placement="right")
    left = model(placement="left")
    rng = random.Random(11)
    for _ in range(40):
        a = Q(rng.randint(0, 3 ** 5 - 2), 3 ** 5)
        b = Q(rng.randint(int(a * 3 ** 5) + 1, 3 ** 5), 3 ** 5)
        direct = mass(right, "w", IntervalQ(a, b), 200)
        mirror = mass(left, "w", IntervalQ(1 - b, 1 - a), 200)
        assert direct.lo == mirror.lo and direct.hi == mirror.hi
    alternating = model(placement="alternating")
    for which in ("w", "sigma"):
        total = mass(right, which, UNIT).lo
        assert mass(left, which, UNIT).lo == total
        assert mass(alternating, which, UNIT).lo == total


def test_smallest_carrier():
    m = model()
    carrier, gen, core, placed = smallest_carrier(m, IntervalQ(Q(4, 9), Q(5, 9)))
    assert carrier.address == "11" and gen == 1
    carrier, gen, _, _ = smallest_carrier(m, IntervalQ(Q(1, 9), Q(7, 9)))
    assert carrier.address == "" and gen == 0


def test_smallest_carrier_past_4300_digits():
    # a generation-395 carrier at k = 11 has depth 4345, past Python's
    # 4300-digit limit on int(str, 3), which base-3 strings ran into
    m = model(k=11, depth=1)
    deep = m.kcell(395, 7)
    carrier, gen, core, placed = smallest_carrier(m, deep.interval())
    assert (carrier, gen) == (deep, 395)
    assert core.ancestor(core.depth - 1) == carrier and cell_contains(carrier, placed)
    assert placed.depth == 396 * 11 and placed.interval().length == Q(1, 3 ** 4356)


def _case_of(m, iv):
    carrier, gen, core, placed = smallest_carrier(m, iv)
    meets_core = iv.intersect(core.interval()) is not None
    meets_support = iv.intersect(placed.interval()) is not None
    return carrier, gen, core, placed, meets_core, meets_support


def test_comparison_cases_over_random_intervals():
    """Average comparisons for random intervals, by case, across k."""
    case_b_constants = {}
    case_c_constants = {}
    for k in (2, 3, 4, 5, 6):
        m = model(k=k, depth=2)
        rng = random.Random(100 + k)
        cb, cc = 0.0, 0.0
        for _ in range(150):
            den = 3 ** rng.randint(2, min(3 * k, 12)) * 2 ** rng.randint(0, 4)
            a = Q(rng.randint(0, den - 2), den)
            b = Q(rng.randint(int(a * den) + 1, den), den)
            iv = IntervalQ(a, b)
            carrier, gen, core, placed, mc, ms = _case_of(m, iv)
            aw = average(m, "w", iv, 240)
            asig = average(m, "sigma", iv, 240)
            wval = m.w_value(gen + 1)
            sval = m.sigma_value(gen + 1).lo
            if not mc:
                assert aw.hi <= wval
                assert asig.hi <= sval
            elif mc and not ms:
                cb = max(cb, float(aw.hi) / float(m.w_value(gen)))
            else:
                ratio = float(asig.hi) * float(iv.length) / \
                    (float(placed.length) * float(sval))
                cc = max(cc, ratio)
        case_b_constants[k] = cb
        case_c_constants[k] = cc
    for consts in (case_b_constants, case_c_constants):
        vals = [v for v in consts.values() if v > 0]
        assert vals and max(vals) / min(vals) <= 2


def test_endpoint_comparison_monotone():
    """Nested intervals sharing a carrier endpoint have comparable averages."""
    constants = {}
    for k in (2, 3, 4, 5):
        m = model(k=k, depth=2)
        rng = random.Random(77 + k)
        worst = 0.0
        for _ in range(60):
            den = 3 ** rng.randint(1, 8) * 2 ** rng.randint(0, 3)
            b1 = Q(rng.randint(2, den), den)
            b2 = Q(rng.randint(1, int(b1 * den) - 1), den)
            big = average(m, "w", IntervalQ(Q(0), b1), 240)
            small = average(m, "w", IntervalQ(Q(0), b2), 240)
            if big.lo > 0:
                worst = max(worst, float(small.hi) / float(big.lo))
        constants[k] = worst
    vals = list(constants.values())
    assert max(vals) / min(vals) <= 2


def _reference_mass(model: WeightModel, which: str, a: Q, b: Q,
                    gen: int, carrier_left: Q, max_depth: int) -> Enclosure:
    """The recursion `mass` used before its flat loop, kept as an oracle."""
    k = model.k
    length = Q(1, 3 ** (gen * k))
    cl, cr = carrier_left, carrier_left + length
    a, b = max(a, cl), min(b, cr)
    if a >= b:
        return Enclosure.exact(0)
    if a == cl and b == cr:
        return _carrier_mass(model, which, gen)
    third = Q(1, 3 ** (gen * k + 1))
    core_l = cl + third
    core_r = core_l + third
    # support cells of the next generation are 1/den long
    den = 3 ** ((gen + 1) * k)
    slen = Q(1, den)
    sl = cl + Q(model.support_offset(gen + 1), den)
    sr = sl + slen
    total = Enclosure.exact(0)
    ov_l, ov_r = max(a, sl), min(b, sr)
    if ov_l < ov_r:
        total = total + _value(model, which, gen + 1) * (ov_r - ov_l)
    ja, jb = max(a, core_l), min(b, core_r)
    if ja < jb:
        tau = slen
        lo_off, hi_off = ja - core_l, jb - core_l
        i_lo = -math.floor(-lo_off / tau)
        i_hi = math.floor(hi_off / tau)
        if i_hi > i_lo:
            total = total + _carrier_mass(model, which, gen + 1) * (i_hi - i_lo)
        fragments = []
        if i_hi < i_lo:
            fragments.append((ja, jb, math.floor(lo_off / tau)))
        else:
            lo_aligned = core_l + i_lo * tau
            if ja < lo_aligned:
                fragments.append((ja, lo_aligned, i_lo - 1))
            hi_aligned = core_l + i_hi * tau
            if jb > hi_aligned:
                fragments.append((hi_aligned, jb, i_hi))
        for fa, fb, tile in fragments:
            if (gen + 1) * k <= max_depth:
                total = total + _reference_mass(model, which, fa, fb, gen + 1,
                                                core_l + tile * tau, max_depth)
            else:
                total = total + Enclosure(Q(0), _carrier_mass(model, which, gen + 1).hi)
    return total


def _chain_address(rng, k: int, depth: int) -> str:
    """Random address that mostly follows a carrier chain (core digit 1 first)."""
    out = ""
    while len(out) < depth:
        lead = "1" if rng.random() < 0.8 else rng.choice("012")
        out += lead + "".join(rng.choice("012") for _ in range(k - 1))
    return out[:depth]


def _identity_intervals(rng, m, count: int) -> list[IntervalQ]:
    k, u = m.k, m.u
    s = m.support_offset(1)
    unit = 3 ** (k + 1)
    out = [UNIT, IntervalQ(Q(1, 3), Q(2, 3)),
           IntervalQ(Q(1, 2) - Q(1, 10 ** 9), Q(1, 2) + Q(1, 10 ** 9)),
           # from the left end of a unit to inside it: the support cell, a core tile
           IntervalQ(Q(s, 3 ** k), Q(3 * s + 1, unit)),
           IntervalQ(Q(u, 3 ** k), Q(3 * u + 1, unit)),
           # both ends inside the support cell
           IntervalQ(Q(3 * s + 1, unit), Q(3 * s + 2, unit))]
    while len(out) < count:
        kind = rng.randrange(3)
        if kind == 0:
            depth = rng.randint(1, 4 * k)
            out.append(cell_from_index(depth, int(_chain_address(rng, k, depth), 3)).interval())
        elif kind == 1:
            x, y = sorted(rng.sample(range(10 ** 6 + 1), 2))
            out.append(IntervalQ(Q(x, 10 ** 6), Q(y, 10 ** 6)))
        else:
            depth = rng.randint(0, 4) * k
            cell = cell_from_index(depth, int(_chain_address(rng, k, depth) or "0", 3))
            start = cell.left + cell.length * Q(rng.randint(1, 999), 1000)
            out.append(IntervalQ(start, cell.right))
    return out


def test_mass_matches_reference_recursion():
    """The flat loop gives the recursion's (lo, hi) exactly, inexact enclosures included."""
    rng = random.Random(2019)
    queries = 0
    for k in range(2, 7):
        for placement in ("right", "left", "alternating"):
            for p in (2, 3, Q(5, 2)):
                m = model(k=k, p=p, depth=1, placement=placement)
                for iv in _identity_intervals(rng, m, 21):
                    for which in ("w", "sigma", "wTilde"):
                        for depth in (0, k, 2 * k + 1, 60, 400):
                            got = mass(m, which, iv, depth)
                            want = _reference_mass(m, which, iv.left, iv.right,
                                                   0, Q(0), depth)
                            assert (got.lo, got.hi) == (want.lo, want.hi), \
                                (k, placement, p, which, depth, iv)
                            queries += 1
    assert queries == 14175


_PROPERTY_MODELS = {(k, p): model(k=k, p=p, depth=1)
                    for k in (2, 3, 4) for p in (2, Q(5, 2))}

_points = st.one_of(
    st.builds(lambda n, e: Q(n % 3 ** e, 3 ** e), st.integers(0, 3 ** 12), st.integers(1, 12)),
    st.builds(lambda n, e: Q(n % 10 ** e, 10 ** e), st.integers(0, 10 ** 6), st.integers(1, 6)))


@given(st.sampled_from(list(_PROPERTY_MODELS)), st.sampled_from(("w", "sigma", "wTilde")),
       st.lists(_points, min_size=3, max_size=3, unique=True),
       st.sampled_from(("0", "k", "3k", "60")))
@settings(max_examples=150, deadline=None)
def test_mass_is_additive_and_refines(key, which, ends, max_depth):
    """mass[a,c) lies in mass[a,b) + mass[b,c) (equal when all are exact), and
    the enclosure at max_depth d contains the one at d + 1."""
    m = _PROPERTY_MODELS[key]
    a, b, c = sorted(ends)
    depth = {"0": 0, "k": m.k, "3k": 3 * m.k, "60": 60}[max_depth]
    whole = mass(m, which, IntervalQ(a, c), depth)
    parts = (mass(m, which, IntervalQ(a, b), depth)
             + mass(m, which, IntervalQ(b, c), depth))
    assert parts.encloses(whole)
    if whole.is_exact and parts.is_exact:
        assert whole.lo == parts.lo
    for iv in (IntervalQ(a, b), IntervalQ(b, c), IntervalQ(a, c)):
        coarse = mass(m, which, iv, depth)
        assert coarse.encloses(mass(m, which, iv, depth + 1))
