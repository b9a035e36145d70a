"""Exact masses and averages of w, sigma, wtilde over rational intervals.

Triadic-aligned queries resolve to closed forms in O(depth).  Interval
endpoints that never hit a triadic boundary descend until the depth budget
runs out; each partially cut frontier cell then contributes [0, full mass],
which keeps every enclosure sound and shrinking under refinement.
"""

from __future__ import annotations

from fractions import Fraction

from .enclosure import Enclosure, Q, enclosure_sum, pow_enclosure
from .triadic import IntervalQ, TriadicCell, UNIT
from .weights import WeightModel, _carrier_mass, _check_which, _value

DEFAULT_MAX_DEPTH = 60


def mass(model: WeightModel, which: str, interval: IntervalQ,
         max_depth: int = DEFAULT_MAX_DEPTH) -> Enclosure:
    """Enclosure of the `which`-mass of the interval."""
    _check_which(which)
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not UNIT.contains(interval):
        raise ValueError(f"interval {interval} outside the model domain [0,1)")
    return _interval_mass(model, which, interval.left, interval.right, max_depth)


def average(model: WeightModel, which: str, interval: IntervalQ,
            max_depth: int = DEFAULT_MAX_DEPTH) -> Enclosure:
    return mass(model, which, interval, max_depth) * (1 / interval.length)


def ap_product(model: WeightModel, interval: IntervalQ, direction: str = "forward",
               max_depth: int = DEFAULT_MAX_DEPTH) -> Enclosure:
    """Two-weight Muckenhoupt product <w>^(p-1)<sigma> (or its dual) on an interval."""
    if direction not in ("forward", "dual"):
        raise ValueError(f"direction must be forward|dual, got {direction!r}")
    p = model.params.p
    aw = average(model, "w", interval, max_depth)
    asig = average(model, "sigma", interval, max_depth)
    if direction == "forward":
        return pow_enclosure(aw, p - 1) * asig
    return pow_enclosure(asig, model.params.p_prime - 1) * aw


def carrier_generation(model: WeightModel, cell: TriadicCell) -> int:
    """Generation of a carrier cell; raises if the cell is not a carrier."""
    gen = len(model.carriers_holding(cell.left, cell.right)) - 1
    if cell.depth != gen * model.k:
        raise ValueError(f"{cell} is not a carrier cell")
    return gen


def packing_sum(model: WeightModel, carrier: TriadicCell, which: str = "w") -> Enclosure:
    """Sum of `which`-masses over all carrier cells inside `carrier` (itself included).

    The full geometric series has a closed form, so the enclosure is exact.
    """
    _check_which(which)
    gen = carrier_generation(model, carrier)
    if which == "sigma":
        return _carrier_mass(model, which, gen) / (Enclosure.exact(1) - model.a)
    return _carrier_mass(model, which, gen) * (model.u + 1)


def packing_partial(model: WeightModel, gen: int, upto_gen: int) -> Enclosure:
    """Truncated packing sum of w's carrier masses over generations
    gen..upto_gen (test oracle surface)."""
    return Enclosure.exact(sum((model.carrier_w_mass(g) * 3 ** ((g - gen) * (model.k - 1))
                                for g in range(gen, upto_gen + 1)), Q(0)))


def _interval_mass(model: WeightModel, which: str, a: Fraction, b: Fraction,
                   max_depth: int) -> Enclosure:
    """Mass of [a, b) by one pass down the carrier chains of its two ends.

    A piece is a carrier (gen, c) that an end of [a, b) falls inside.  Its
    units are the tiles of length 3^-((gen+1)k): the carrier spans units
    [c*3^k, (c+1)*3^k), its core the u units from c*3^k + u, and its support
    cell is unit c*3^k + support_offset(gen+1).  Units wholly inside [a, b)
    count in full.  A unit that an end cuts adds its exact overlap if it is
    the support cell; if it is a core tile it becomes the next piece, or
    [0, its mass] once the depth budget is spent.
    """
    k, u, step = model.k, model.u, 3 ** model.k
    terms = []
    pieces = [(0, 0)]
    while pieces:
        gen, carrier = pieces.pop()
        child = gen + 1
        scale = step ** child
        core = carrier * step + u
        support = carrier * step + model.support_offset(child)
        qa, ra = divmod(a.numerator * scale, a.denominator)
        qb, rb = divmod(b.numerator * scale, b.denominator)
        lo, hi = qa + (ra > 0), qb  # the units wholly inside [a, b)
        whole = min(hi, core + u) - max(lo, core)
        if whole > 0:
            terms.append(_carrier_mass(model, which, child) * whole)
        cut = {q for q, r in ((qa, ra), (qb, rb)) if r}
        if lo <= support < hi:
            terms.append(_value(model, which, child) * Q(1, scale))
        elif support in cut:
            overlap = min(b, Q(support + 1, scale)) - max(a, Q(support, scale))
            terms.append(_value(model, which, child) * overlap)
        for tile in cut:
            if core <= tile < core + u:
                if child * k <= max_depth:
                    pieces.append((child, tile))
                else:
                    terms.append(Enclosure(Q(0), _carrier_mass(model, which, child).hi))
    return enclosure_sum(terms)


def _w_prefix(model: WeightModel, t: int, den: int, max_depth: int):
    """w-mass of [0, t/den) by one descent of its end's carrier chain.

    Units are `_interval_mass`'s; a generation-g unit weighs (u+1)^-g, core
    tile or support cell.  Returns (G, tile): G/(den*(u+1)^L) is the exact
    mass up to the core tile that t/den cuts at generation L = max_depth//k
    + 1, where the budget runs out (a tile that weighs den on this scale),
    and tile is its index, or None if the descent ends first.
    """
    k, u, step = model.k, model.u, 3 ** model.k
    last = max_depth // k + 1
    total, carrier, scale = 0, 0, 1
    for child in range(1, last + 1):
        scale *= step
        core = carrier * step + u
        support = carrier * step + model.support_offset(child)
        q, r = divmod(t * scale, den)
        units = den * (min(max(q - core, 0), u) + (support < q)) + (r if support == q else 0)
        total += units * (u + 1) ** (last - child)
        if not r or not core <= q < core + u:
            return total, None
        carrier = q
    return total, carrier


def w_slabs(model: WeightModel, ends: list[int], den: int, max_depth: int):
    """`mass`'s w enclosures of the slabs between sorted cuts ends[i]/den, as
    integer (lo, hi) over one returned denominator: [G(b) - G(a) - m_a,
    G(b) - G(a) + m_b] with m the mass of the frontier tile an end cuts (0 if
    none), or [0, m] when both ends cut the same tile.  Only w's masses are
    exact, so only for w do prefix differences not widen the enclosures.
    """
    cuts = [_w_prefix(model, t, den, max_depth) for t in ends]
    slabs = [(0, den) if ta is not None and ta == tb
             else (gb - ga - (ta is not None) * den, gb - ga + (tb is not None) * den)
             for (ga, ta), (gb, tb) in zip(cuts, cuts[1:])]
    return slabs, den * (model.u + 1) ** (max_depth // model.k + 1)
