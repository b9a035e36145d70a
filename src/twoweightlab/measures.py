"""Exact masses and averages of w, sigma, wtilde over rational intervals.

Triadic-aligned queries resolve to closed forms in O(depth).  Interval
endpoints that never hit a triadic boundary descend until the depth budget
runs out; each partially cut frontier cell then contributes [0, full mass],
which keeps every enclosure sound and shrinking under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enclosure import Enclosure, Q, enclosure_sum, pow_enclosure
from .triadic import IntervalQ, TriadicCell, UNIT, cell_from_index
from .weights import CompositeWeight, WeightModel, _carrier_mass, _check_which, _value

DEFAULT_MAX_DEPTH = 60


@dataclass(frozen=True)
class MeasureQuery:
    which: str
    interval: IntervalQ
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        _check_which(self.which)
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


def mass(model, query: MeasureQuery) -> Enclosure:
    """Enclosure of the `which`-mass of the query interval."""
    if isinstance(model, CompositeWeight):
        return _composite_mass(model, query)
    iv = query.interval
    if not UNIT.contains(iv):
        raise ValueError(f"interval {iv} outside the model domain [0,1)")
    return _mass_rec(model, query.which, iv.left, iv.right, 0, Q(0), query.max_depth)


def average(model, query: MeasureQuery) -> Enclosure:
    return mass(model, query) * (1 / query.interval.length)


def ap_product(model: WeightModel, interval: IntervalQ, direction: str = "forward",
               max_depth: int = DEFAULT_MAX_DEPTH) -> Enclosure:
    """Two-weight Muckenhoupt product <w>^(p-1)<sigma> (or its dual) on an interval."""
    if direction not in ("forward", "dual"):
        raise ValueError(f"direction must be forward|dual, got {direction!r}")
    p = model.params.p
    aw = average(model, MeasureQuery("w", interval, max_depth))
    asig = average(model, MeasureQuery("sigma", interval, max_depth))
    if direction == "forward":
        return pow_enclosure(aw, p - 1) * asig
    return pow_enclosure(asig, model.params.p_prime - 1) * aw


def carrier_generation(model: WeightModel, cell: TriadicCell) -> int:
    """Generation of a carrier cell; raises if the cell is not a carrier."""
    k = model.k
    if cell.depth % k != 0:
        raise ValueError(f"{cell} is not a carrier cell (depth not a multiple of {k})")
    gen = cell.depth // k
    for level in range(gen):
        block = cell.address[level * k:(level + 1) * k]
        if block[0] != "1":
            raise ValueError(f"{cell} is not a carrier cell (level {level + 1} off-core)")
    return gen


def packing_sum(model: WeightModel, carrier: TriadicCell, which: str = "w") -> Enclosure:
    """Sum of `which`-masses over all carrier cells inside `carrier` (itself included).

    The full geometric series has a closed form, so the enclosure is exact.
    """
    _check_which(which)
    gen = carrier_generation(model, carrier)
    if which == "w":
        return Enclosure.exact((model.u + 1) * model.carrier_w_mass(gen))
    if which == "sigma":
        one = Enclosure.exact(1)
        return model.carrier_sigma_mass(gen) / (one - model.a)
    return model.scale * ((model.u + 1) * model.carrier_w_mass(gen))


def packing_partial(model: WeightModel, gen: int, upto_gen: int, which: str = "w") -> Enclosure:
    """Truncated packing sum over generations gen..upto_gen (test oracle surface)."""
    terms = []
    for g in range(gen, upto_gen + 1):
        count = 3 ** ((g - gen) * (model.k - 1))
        terms.append(_carrier_mass(model, which, g) * count)
    return enclosure_sum(terms)


def smallest_carrier(model: WeightModel, interval: IntervalQ):
    """Smallest carrier cell containing the interval, with its core and support."""
    carrier = TriadicCell("")
    gen = 0
    k = model.k
    while True:
        core = carrier.middle_child()
        if core.interval().contains(interval):
            # the core's tiles are the next generation's carriers
            depth = (gen + 1) * k
            tile = cell_from_index(depth, math.floor(interval.left * 3 ** depth))
            if interval.right <= tile.right:
                carrier = tile
                gen += 1
                continue
        placed, _ = model.place_core(core, gen + 1)
        return carrier, gen, core, placed


def _mass_rec(model: WeightModel, which: str, a: Fraction, b: Fraction,
              gen: int, carrier_left: Fraction, max_depth: int) -> Enclosure:
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
                total = total + _mass_rec(model, which, fa, fb, gen + 1,
                                          core_l + tile * tau, max_depth)
            else:
                total = total + Enclosure(Q(0), _carrier_mass(model, which, gen + 1).hi)
    return total


def _composite_mass(comp: CompositeWeight, query: MeasureQuery) -> Enclosure:
    if query.which == "w":
        raise ValueError("composite weights expose wTilde and sigma only")
    total = Enclosure.exact(0)
    iv = query.interval
    for copy in comp.copies:
        lo = max(iv.left, Q(copy.shift))
        hi = min(iv.right, Q(copy.shift + 1))
        if lo >= hi:
            continue
        local = IntervalQ(lo - copy.shift, hi - copy.shift)
        total = total + mass(copy.model, MeasureQuery(query.which, local, query.max_depth))
    return total

