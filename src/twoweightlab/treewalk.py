"""Walks over the implicit carrier tree that enclose the Hilbert field of w
on a support cell S.

Both walks start from one descent of S's carrier chain (`_descend`): the
chain's support cells, and runs of core tiles that keep their mass clear of
S, with the core tile next to S as a carrier of its own.  Each then expands
the pending block that is least certain, so precision is budget-driven and
never requires enumerating a generation.  A block has one bracket, second
order, from the exact mass, centroid and variance of a carrier's mass
(`WeightModel.carrier_moments`).  `walk` encloses Hw at one point x of S:
the support cells add their exact log terms and each pending block an
interval.  `CellField` encloses Hw on all of S: it builds a certified power
series for all mass outside S, with the same brackets per coefficient: a
carrier's from `_cell_series`, a run's from `_run_series` and a support
cell's, exact at its density, from `_support_series`, each one flat loop
over j.  A point then comes as bounds on its u and on S's own indicator,
and Horner's rule picks each product's ends by the signs of u and of the
bounds, with the four products of `mul_bounds` only at u = 0.

All coordinates are Python ints on a per-generation scale and all pending
bounds are outward-rounded float pairs.  A generation's float bounds do
not depend on the point, and a support cell's constants depend only on its
depth, so the model keeps both (`_model_constants`); a walk builds only
the integer parts for its point's denominator.
"""

from __future__ import annotations

import heapq
from copy import copy
from fractions import Fraction
from math import fsum, nextafter

from .enclosure import (FloatInterval, add_bounds, log_ratio_bounds, mul_bounds,
                        ratio_bounds)
from .triadic import TriadicCell
from .weights import BoundaryError, WeightModel

_INF = float("inf")
_MAX_EXPANSIONS = 20000  # of either walk


def _indicator_bounds(a: int, b: int, x: int) -> tuple[float, float]:
    """Log-kernel bounds for [a, b] at x, all three integers on one scale."""
    if x == a or x == b:
        raise BoundaryError("evaluation point is a kernel endpoint")
    return log_ratio_bounds(abs(x - a), abs(x - b))


def _model_constants(model: WeightModel) -> dict:
    """The walks' per-model constants, held in the model's own namespace so
    that they live as long as the model does (as `carrier_moments` keeps
    `_moments`): generation gen's float bounds under gen, and a support-cell
    depth's `_CellConstants` under (gen, xd)."""
    return vars(model).setdefault("_walk_constants", {})


def _gen_floats(model: WeightModel, gen: int):
    """(density, w_next, moments) of `_GenConstants`, which no point changes."""
    cache = _model_constants(model)
    floats = cache.get(gen)
    if floats is None:
        w_value = model.w_value(gen)
        density = FloatInterval.from_fraction(w_value)
        w_next = FloatInterval.from_fraction(model.w_value(gen + 1))
        _centroid, variance = model.carrier_moments(gen)
        u = model.u
        # var/L^2 is the same on every scale: L is 3u tiles
        moments = (_bounds(w_value * variance / (9 * u * u)), _bounds(w_value / 12))
        floats = cache[gen] = ((density.lo, density.hi), (w_next.lo, w_next.hi), moments)
    return floats


class _GenConstants:
    """One generation of the walks for points of denominator xd, in integer
    units.

    Every block end, core third and support sliver of generation `gen` is a
    multiple of 3^-((gen+1)k), so coordinates are stored multiplied by
    den = xd * 3^((gen+1)k).  In these units a cell, its third and the
    sliver have the same lengths at every generation.  Float constants are
    (lo, hi) bounds; they do not depend on xd and come from the model's
    cache.  `at` places the point x = xn/xd on the scale.

    The second-order brackets read a carrier's centroid and variance
    (`WeightModel.carrier_moments`).  Offsets that need not be integers are
    kept exactly, over the common denominator q, which makes L*q even.
    `offsets[side]` holds, measured from the end of a cell nearest to x (so
    that distances from x grow with the offset): the centroid, the near end
    of the cell of length L centred on it, and the two ends of the region
    that this shifted cell and the mass hull span together.  `moments`
    bounds rho * var/L^2 and rho/12, with rho the generation's density and
    var the carrier's variance.
    """

    __slots__ = ("den", "x", "length", "third", "slen", "sliver", "hull",
                 "mass_num", "mass_den", "density", "w_next",
                 "q", "offsets", "moments")

    def __init__(self, model: WeightModel, gen: int, xd: int):
        self.den = xd * 3 ** ((gen + 1) * model.k)
        self.slen = xd
        u = model.u
        self.third = xd * u
        self.length = length = 3 * self.third
        # mass / (x - c) == mass_num / (mass_den * (X - C)), all integers
        scaled = model.carrier_w_mass(gen) * self.den
        self.mass_num, self.mass_den = scaled.numerator, scaled.denominator
        # a carrier's mass over its length is the generation's w value
        self.density, self.w_next, self.moments = _gen_floats(model, gen)
        # offsets from a cell's left end, where the core spans [u, 2u) slivers:
        # the support sliver, and the hull of core plus sliver where all of
        # the cell's mass lives
        off = model.support_offset(gen + 1)
        self.sliver = off * xd
        self.hull = (min(u, off) * xd, max(2 * u, off + 1) * xd)
        centroid, _variance = model.carrier_moments(gen)
        cen = centroid * xd  # a tile is xd long
        self.q = q = cen.denominator * (1 + length * cen.denominator % 2)
        lq = length * q
        c = cen.numerator * (q // cen.denominator)
        shift = c - lq // 2
        r0, r1 = min(self.hull[0] * q, shift), max(self.hull[1] * q, shift + lq)
        self.offsets = {1: (c, shift, r0, r1), -1: (lq - c, -shift, lq - r1, lq - r0)}

    def at(self, xn: int) -> "_GenConstants":
        """Place x = xn/xd on the generation's scale, and return self.
        `CellField` places a copy, so that its cells of one depth share the
        rest."""
        self.x = xn * (self.den // self.slen)
        return self


def _bounds(x: Fraction) -> tuple[float, float]:
    return ratio_bounds(x.numerator, x.denominator)


def _cube(lo: float, hi: float) -> tuple[float, float]:
    """Bounds on t^3 for 0 <= lo <= t <= hi."""
    return (nextafter(nextafter(lo * lo, -_INF) * lo, -_INF),
            nextafter(nextafter(hi * hi, _INF) * hi, _INF))


def _mass_span(gc: _GenConstants, left: int, count: int) -> tuple[int, int]:
    """Where the mass of a carrier or a run lies."""
    if count == 1:
        return left + gc.hull[0], left + gc.hull[1]
    return left, left + count * gc.length


def _distances(gc: _GenConstants, lo: int, hi: int) -> tuple[int, int, int]:
    """Side of x (-1 or 1), nearest and farthest distance of [lo, hi] from x."""
    if hi <= gc.x:
        return -1, gc.x - hi, gc.x - lo
    return 1, lo - gc.x, hi - gc.x


def _near_first(gc: _GenConstants, side: int, left: int, count: int):
    """(base, offsets) for a block on `side` of x (1 if right of it): a point
    at offset o of `gc.offsets[side]` in the block's cell i, counted from the
    one nearest to x, lies at distance (base + o + i*L*q)/q from x."""
    if side == 1:
        return (left - gc.x) * gc.q, gc.offsets[1]
    return (gc.x - left - count * gc.length) * gc.q, gc.offsets[-1]


def _run_points(gc: _GenConstants, side: int, left: int, count: int):
    """Distances from x, times q, of the shifted run's ends a < b and of its
    regions' near ends p_0 and p_(n-1) and far ends q_0 and q_(n-1) + L."""
    base, (_cen, shift, r0, r1) = _near_first(gc, side, left, count)
    lq = gc.length * gc.q
    a = base + shift
    return (a, a + count * lq), (base + r0, base + r0 + (count - 1) * lq,
                                 base + r1, base + r1 + count * lq)


def _open_block(gc: _GenConstants, gen: int, left: int, count: int, u: int):
    """Split a pending block of generation gen: halve a run, or open a
    carrier into its support cell and its core's u = 3^(k-1) tiles, a run
    of the next generation's carriers.  Returns the support cell as (gen,
    left), None for a run, and the new runs as (gen, left, count)."""
    if count > 1:
        # the x-side half concentrates the kernel range, so widths decay
        # geometrically under repeated splitting
        cut = count // 2
        return None, ((gen, left, cut), (gen, left + cut * gc.length, count - cut))
    return (gen, left + gc.sliver), ((gen + 1, (left + gc.third) * 3 * u, u),)


def _descend(model: WeightModel, chain: list[int], xd: int):
    """Split the mass of the carrier chain of a support cell S, root first,
    on the scale of the denominator xd.

    Returns the runs as (gen, left, count) and the support cells as (gen,
    left), on each generation's scale.  Each chain carrier's core tiles
    are cut at the next chain carrier, and the last one's at the core
    tile next to S, which comes last as a run of its own; the support
    cells are those of every chain carrier but the last, whose support
    cell is S.  No run's mass, nor a region of its second-order bracket,
    comes within |S|/2 of S's centre (see `CellField`).
    """
    up, u = 3 ** model.k, model.u
    last = len(chain) - 1
    near = chain[-1] * up + min(max(model.support_offset(last + 1), u), 2 * u - 1)
    runs, slivers = [], []
    for gen, (carrier, cut) in enumerate(zip(chain, chain[1:] + [near])):
        if gen < last:
            slivers.append((gen, (carrier * up + model.support_offset(gen + 1)) * xd))
        first, end = carrier * up + u, carrier * up + 2 * u
        if cut > first:
            runs.append((gen + 1, first * up * xd, cut - first))
        if end > cut + 1:
            runs.append((gen + 1, (cut + 1) * up * xd, end - cut - 1))
    runs.append((last + 1, near * up * xd, 1))
    return runs, slivers


def _enclose_block(gc: _GenConstants, left: int, count: int) -> tuple[float, float]:
    """Bounds (lo, hi) on the block's kernel integral at x.

    With d = |x - t|, the kernel integral of the mass is -side times its
    integral of 1/d, so the brackets below are on the latter.  They are
    second order, from the carriers' exact mass M, centroid and variance.

    A carrier, about its centroid at d_bar: the dipole term vanishes, so
    the integral is M/d_bar + M * var * 1/d^3 at a point of the hull where
    its mass lives, between M * var * [1/d_far^3, 1/d_near^3].

    A run of n equal carriers at density rho: shift each cell so it is
    centred on its carrier's centroid; the shifted run spans a < b and a
    carrier differs from uniform mass on its shifted cell by
    M * (var * G(eta_i) - L^2/12 * G(xi_i)), G = 1/d^3, at points of the
    region that the shifted cell and the hull span.  G falls with the
    distance, so over the regions' near ends p_i and far ends q_i
        sum G(p_i) <= G(p_0) + (1/p_0^2 - 1/p_(n-1)^2) / (2L) = U,
        sum G(q_i) >= (1/q_0^2 - 1/(q_(n-1) + L)^2) / (2L) = D,
    and the run lies in rho * ln(b/a) + M * [var * D - L^2/12 * U,
    var * U - L^2/12 * D].  With e = L/d, M * var * U = rho * var/L^2 *
    (e_p0^3 + (e_p0^2 - e_pl^2)/2), and so on.  The shifted cells may reach
    past the run, and e_p0^3 grows without bound as a region nears x; but
    the runs of `_descend`, and every run cut from them, keep their regions
    clear of x's support cell.  All integers are on the walk's scale.
    """
    side, d_near, d_far = _distances(gc, *_mass_span(gc, left, count))
    (v_lo, v_hi), (l_lo, l_hi) = gc.moments  # rho * var/L^2, rho * (L^2/12)/L^2
    if count == 1:
        base, (cen, *_ends) = _near_first(gc, side, left, 1)
        c_lo, c_hi = ratio_bounds(gc.mass_num * gc.q, gc.mass_den * (base + cen))
        t_lo = _cube(*ratio_bounds(gc.length, d_far))[0]
        t_hi = _cube(*ratio_bounds(gc.length, d_near))[1]
        lo = nextafter(c_lo + nextafter(v_lo * t_lo, -_INF), -_INF)
        hi = nextafter(c_hi + nextafter(v_hi * t_hi, _INF), _INF)
    else:
        (a, b), (p0, pl, q0, qe) = _run_points(gc, side, left, count)
        lq = gc.length * gc.q
        s_lo, s_hi = mul_bounds(*log_ratio_bounds(b, a), *gc.density)
        ep0 = ratio_bounds(lq, p0)[1]
        epl, eq0, eqe = ratio_bounds(lq, pl)[0], ratio_bounds(lq, q0)[0], ratio_bounds(lq, qe)[1]
        # U and D times L^3, from above and below
        sq_p0 = nextafter(ep0 * ep0, _INF)
        up = nextafter(sq_p0 - nextafter(epl * epl, -_INF), _INF)
        up = nextafter(nextafter(sq_p0 * ep0, _INF) + 0.5 * up, _INF)
        down = max(0.0, 0.5 * nextafter(nextafter(eq0 * eq0, -_INF)
                                        - nextafter(eqe * eqe, _INF), -_INF))
        r_lo = nextafter(nextafter(v_lo * down, -_INF) - nextafter(l_hi * up, _INF), -_INF)
        r_hi = nextafter(nextafter(v_hi * up, _INF) - nextafter(l_lo * down, -_INF), _INF)
        lo, hi = nextafter(s_lo + r_lo, -_INF), nextafter(s_hi + r_hi, _INF)
    return (-hi, -lo) if side == 1 else (lo, hi)


def walk(model: WeightModel, xn: int, xd: int, tail_budget: float):
    """Adaptive bounds (lo, hi) on Hw at x = xn/xd, and the number of
    expansions, each carrier of x's chain counting as one; ValueError
    unless a support cell holds x (`WeightModel.support_chain`)."""
    chain, index = model.support_chain(Fraction(xn, xd))
    gcs = [_GenConstants(model, gen, xd).at(xn) for gen in range(len(chain) + 1)]
    runs, slivers = _descend(model, chain, xd)
    slivers.append((len(chain) - 1, index * xd))
    acc_lo = acc_hi = 0.0
    # pending blocks: (-width, push index, gen, left, count, (lo, hi))
    heap: list[tuple] = []
    pushed = 0
    pending_width = 0.0
    expansions = len(chain)
    # each step adds the exact log terms of `slivers` and pushes `runs`,
    # then pops and expands the widest block; all state is local to this
    # loop, so nothing refers back to it and the pending blocks are freed as
    # soon as the call returns
    while True:
        for gen, left in slivers:
            gc = gcs[gen]
            i_lo, i_hi = _indicator_bounds(left, left + gc.slen, gc.x)
            acc_lo, acc_hi = add_bounds(acc_lo, acc_hi, *mul_bounds(i_lo, i_hi, *gc.w_next))
        for gen, left, count in runs:
            enc = _enclose_block(gcs[gen], left, count)
            width = enc[1] - enc[0]
            pending_width = nextafter(pending_width + width, _INF)
            heapq.heappush(heap, (-width, pushed, gen, left, count, enc))
            pushed += 1
        capped = expansions >= _MAX_EXPANSIONS or not heap
        if capped or (acc_hi - acc_lo) + pending_width <= tail_budget:
            # fsum is correctly rounded, so one ulp outward encloses the exact
            # sum, whatever the heap layout; if that leaves it a few ulps
            # wider than the running sum that fit, the walk goes on
            bounds = [(acc_lo, acc_hi)] + [enc for *_block, enc in heap]
            lo = nextafter(fsum(lo for lo, _hi in bounds), -_INF)
            hi = nextafter(fsum(hi for _lo, hi in bounds), _INF)
            if capped or hi - lo <= tail_budget:
                return (lo, hi), expansions
        neg_width, _ident, gen, left, count, _enc = heapq.heappop(heap)
        pending_width = nextafter(pending_width + neg_width, _INF)
        sliver, runs = _open_block(gcs[gen], gen, left, count, model.u)
        slivers = () if sliver is None else (sliver,)
        if sliver is not None and gen + 1 == len(gcs):
            gcs.append(_GenConstants(model, gen + 1, xd).at(xn))
        expansions += 1


# ---------------------------------------------------------------------------
# The field on one support cell: one power series for all mass outside it.

_TAIL_SHARE = 1 / 16  # of the walk's budget, for the cut power series
_MAX_DEGREE = 60
_PAD = nextafter(0.0, _INF)  # the least float, which pads a support cell's terms and tail


def _tail_divisor(e_hi: float) -> float:
    """1 - e_hi from below, as top * (1 + e + e^2 + ...) <= top / (1 - e_hi)."""
    if not e_hi < 1.0:
        raise ValueError(f"series ratio bound {e_hi} is not below 1")
    return nextafter(1.0 - e_hi, -_INF)


class _CellConstants(_GenConstants):
    """`_GenConstants` plus what `CellField`'s series read, for the support
    cells of one depth, whose centres c all have the denominator xd.

    On the generation's scale R = r and a carrier has length L, mass M and
    variance var about its centroid.  The bounds are on M/R,
    mv = (M/R) * var/(2R^2), mw = (M/R) * L^2/(24R^2), mv - mw and R/L.
    """

    __slots__ = ("r", "mass_r", "mv", "mw", "mvw", "mu")

    def __init__(self, model: WeightModel, gen: int, xd: int):
        super().__init__(model, gen, xd)
        self.r = r = self.den // xd
        length = self.length
        mass_r = Fraction(self.mass_num, self.mass_den * r)
        self.mass_r = _bounds(mass_r)
        _centroid, variance = model.carrier_moments(gen)
        mv = mass_r * variance * xd * xd / (2 * r * r)
        mw = mass_r * Fraction(length * length, 24 * r * r)
        self.mv, self.mw, self.mvw = _bounds(mv), _bounds(mw), _bounds(mv - mw)
        self.mu = ratio_bounds(r, length)


def _cell_series(acc_lo: list, acc_hi: list, mass_r: tuple[float, float],
                 e_near: tuple[float, float], e_far: tuple[float, float],
                 mv: tuple[float, float], e_bar: tuple[float, float], tol: float) -> float:
    """Add (1/R) * integral of e^(j+1) dmu for one carrier to acc[j], j = 0..,
    and return the bound on the rest once it is below `tol`.

    The mass M lies where e runs from e_far to e_near, e_bar = R/d at the
    mass's centroid and mv = (M/R) * var/(2R^2).  Taylor's theorem about
    the centroid puts term j in
        (M/R) * e_bar^(j+1) + mv * (j+1)(j+2) * [e_far^(j+3), e_near^(j+3)],
    because the second derivative (j+1)(j+2)/R^2 * e^(j+3) of e^(j+1) falls
    with the distance.  The bracket is centred on the estimate at e_bar,
    with the half-width that covers both ends.  Term j is at most
    (M/R) * e_near^(j+1), which bounds the rest by a geometric tail.
    """
    nxt, up, down = nextafter, _INF, -_INF
    m_lo, m_hi = mass_r
    f_lo, n_hi = e_far[0], e_near[1]
    (mv_lo, mv_hi), (b_lo, b_hi) = mv, e_bar
    div = _tail_divisor(n_hi)
    # e_far^(j+1) from below, e_near^(j+1) from above and e_bar^(j+1)
    p_lo, p_hi, e_lo, e_hi = f_lo, n_hi, b_lo, b_hi
    n2, f2 = nxt(n_hi * n_hi, up), nxt(f_lo * f_lo, down)
    b2_lo, b2_hi = nxt(b_lo * b_lo, down), nxt(b_hi * b_hi, up)
    size, j = len(acc_lo), 0
    while True:
        c = (j + 1) * (j + 2)
        c_lo, c_hi = nxt(mv_lo * c, down), nxt(mv_hi * c, up)
        q_lo = nxt(c_lo * nxt(e_lo * b2_lo, down), down)
        q_hi = nxt(c_hi * nxt(e_hi * b2_hi, up), up)
        q_near = nxt(c_hi * nxt(p_hi * n2, up), up)
        q_far = nxt(c_lo * nxt(p_lo * f2, down), down)
        half = nxt(max(q_near - q_lo, q_hi - q_far), up)
        lo = nxt(nxt(nxt(m_lo * e_lo, down) + q_lo, down) - half, down)
        hi = nxt(nxt(nxt(m_hi * e_hi, up) + q_hi, up) + half, up)
        if j >= size:
            acc_lo.append(0.0)
            acc_hi.append(0.0)
        acc_lo[j], acc_hi[j] = nxt(acc_lo[j] + lo, down), nxt(acc_hi[j] + hi, up)
        e_lo, e_hi = nxt(e_lo * b_lo, down), nxt(e_hi * b_hi, up)
        p_hi = nxt(p_hi * n_hi, up)
        tail = nxt(nxt(m_hi * p_hi, up) / div, up)
        if tail <= tol or j == _MAX_DEGREE:
            return tail
        p_lo = nxt(p_lo * f_lo, down)
        j += 1


def _support_series(acc_lo: list, acc_hi: list, density: tuple[float, float],
                    d_near: int, d_far: int, e_near: tuple[float, float],
                    e_far: tuple[float, float], tol: float) -> float:
    """As `_cell_series`, for a support cell: mass at `density` between the
    distances d_near < d_far from c (e = R/d).  Term j is density/j *
    (e_near^j - e_far^j), and density * ln(d_far/d_near) for j = 0; it is
    at most density/j * e_near^j, which bounds the rest."""
    nxt, up, down = nextafter, _INF, -_INF
    d_lo, d_hi = density
    (a_lo, a_hi), (b_lo, b_hi) = e_near, e_far
    ea_lo, ea_hi, eb_lo, eb_hi = a_lo, a_hi, b_lo, b_hi
    l_lo, l_hi = log_ratio_bounds(d_far, d_near)
    part_lo, part_hi = nxt(d_lo * l_lo, down), nxt(d_hi * l_hi, up)
    div, n_hi = _tail_divisor(ea_hi), ea_hi  # n_hi: e_near^(j+1), for the tail
    size, j = len(acc_lo), 0
    while True:
        lo, hi = nxt(part_lo - _PAD, down), nxt(part_hi + _PAD, up)
        if j >= size:
            acc_lo.append(0.0)
            acc_hi.append(0.0)
        acc_lo[j], acc_hi[j] = nxt(acc_lo[j] + lo, down), nxt(acc_hi[j] + hi, up)
        j += 1
        top = nxt(nxt(d_hi * n_hi, up) / j, up)
        n_hi = nxt(n_hi * ea_hi, up)
        tail = nxt(nxt(top + _PAD, up) / div, up)
        if tail <= tol or j > _MAX_DEGREE:
            return tail
        diff_lo, diff_hi = max(0.0, nxt(a_lo - b_hi, down)), nxt(a_hi - b_lo, up)
        part_lo = nxt(nxt(d_lo * diff_lo, down) / j, down)
        part_hi = nxt(nxt(d_hi * diff_hi, up) / j, up)
        a_lo, a_hi = nxt(a_lo * ea_lo, down), nxt(a_hi * ea_hi, up)
        b_lo, b_hi = nxt(b_lo * eb_lo, down), nxt(b_hi * eb_hi, up)


def _run_series(acc_lo: list, acc_hi: list, gc: _CellConstants, en_hi: float,
                points, tol: float) -> float:
    """As `_cell_series`, for a run of gc's carriers (mass M, length L,
    variance var, density rho) with `_run_points` `points`; en_hi bounds R/d
    at its near end.  As in `_enclose_block`, with g = e^(j+1)/R, a carrier
    differs from uniform mass on its cell shifted onto the centroid by
    (M/2) * (var - L^2/12) * g'' at points of the cell's region, and
        sum g''(p_i) <= g''(p_0) + (|g'(p_0)| - |g'(p_(n-1))|) / L = U,
        sum g''(q_i) >= (|g'(q_0)| - |g'(q_(n-1) + L)|) / L = D
    bracket I = (|g'(a)| - |g'(b)|) / L.  So term j is the uniform term at
    a, b plus (M/2) * (var - L^2/12) * I, to within (M/2) *
    max(var(U - I) + L^2/12 (I - D), var(I - D) + L^2/12 (U - I)), and at
    most rho/j * e_near^j + (M/R) * e_near^(j+1), which bounds the rest.
    """
    nxt, up, down = nextafter, _INF, -_INF
    (a, b), (p0_d, pl_d, q0_d, qe_d) = points
    rq, (d_lo, d_hi), (w_lo, w_hi), (mu_lo, mu_hi) = gc.r * gc.q, gc.density, gc.mvw, gc.mu
    m_hi, mv_hi, mw_hi = gc.mass_r[1], gc.mv[1], gc.mw[1]
    (ea_lo, ea_hi), (eb_lo, eb_hi) = ratio_bounds(rq, a), ratio_bounds(rq, b)
    l_lo, l_hi = log_ratio_bounds(b, a)
    # e^(j+2) at p_0 (above), p_(n-1) and q_0 (below) and q_(n-1) + L (above)
    p0_e, pl_e = nxt(rq / p0_d, up), nxt(rq / pl_d, down)
    q0_e, qe_e = nxt(rq / q0_d, down), nxt(rq / qe_d, up)
    p0, pl = nxt(p0_e * p0_e, up), nxt(pl_e * pl_e, down)
    q0, qe = nxt(q0_e * q0_e, down), nxt(qe_e * qe_e, up)
    # the uniform term j, and e^(j+1) at the shifted run's near and far ends
    part_lo, part_hi = nxt(d_lo * l_lo, down), nxt(d_hi * l_hi, up)
    a_lo, a_hi, b_lo, b_hi = ea_lo, ea_hi, eb_lo, eb_hi
    div, n_hi = _tail_divisor(en_hi), en_hi  # n_hi: e_near^(j+1), for the tail
    size, j = len(acc_lo), 0
    while True:
        # R^2 |g'|/L = (j+1) (R/L) e^(j+2) and R^2 g'' = (j+1)(j+2) e^(j+3)
        jm_lo, jm_hi = nxt((j + 1) * mu_lo, down), nxt((j + 1) * mu_hi, up)
        i_lo = nxt(nxt(jm_lo * nxt(a_lo * ea_lo, down), down)
                   - nxt(jm_hi * nxt(b_hi * eb_hi, up), up), down)
        i_hi = nxt(nxt(jm_hi * nxt(a_hi * ea_hi, up), up)
                   - nxt(jm_lo * nxt(b_lo * eb_lo, down), down), up)
        u_hi = nxt(nxt((j + 1) * (j + 2) * p0, up) * p0_e, up)
        u_hi = nxt(u_hi + nxt(jm_hi * p0, up), up)
        u_hi = nxt(u_hi - nxt(jm_lo * pl, down), up)
        dq_lo = nxt(nxt(jm_lo * q0, down) - nxt(jm_hi * qe, up), down)
        ga, gb = nxt(u_hi - i_lo, up), nxt(i_hi - dq_lo, up)
        half = max(nxt(nxt(mv_hi * ga, up) + nxt(mw_hi * gb, up), up),
                   nxt(nxt(mv_hi * gb, up) + nxt(mw_hi * ga, up), up))
        # (mv - mw) * I, as `mul_bounds`
        c1, c2, c3, c4 = w_lo * i_lo, w_lo * i_hi, w_hi * i_lo, w_hi * i_hi
        lo = nxt(nxt(part_lo + nxt(min(c1, c2, c3, c4), down), down) - half, down)
        hi = nxt(nxt(part_hi + nxt(max(c1, c2, c3, c4), up), up) + half, up)
        p0, pl = nxt(p0 * p0_e, up), nxt(pl * pl_e, down)
        q0, qe = nxt(q0 * q0_e, down), nxt(qe * qe_e, up)
        if j >= size:
            acc_lo.append(0.0)
            acc_hi.append(0.0)
        acc_lo[j], acc_hi[j] = nxt(acc_lo[j] + lo, down), nxt(acc_hi[j] + hi, up)
        j += 1
        top = nxt(nxt(d_hi * n_hi, up) / j, up)
        n_hi = nxt(n_hi * en_hi, up)
        tail = nxt(nxt(top + nxt(m_hi * n_hi, up), up) / div, up)
        if tail <= tol or j > _MAX_DEGREE:
            return tail
        diff_lo, diff_hi = max(0.0, nxt(a_lo - b_hi, down)), nxt(a_hi - b_lo, up)
        part_lo = nxt(nxt(d_lo * diff_lo, down) / j, down)
        part_hi = nxt(nxt(d_hi * diff_hi, up) / j, up)
        a_lo, a_hi = nxt(a_lo * ea_lo, down), nxt(a_hi * ea_hi, up)
        b_lo, b_hi = nxt(b_lo * eb_lo, down), nxt(b_hi * eb_hi, up)


class CellField:
    """Enclosures of Hw on a support cell S = [a, b), one point at a time.

    S is the support cell of the last carrier in its chain, and it sits at
    least two of its own lengths (u - 1 >= 2) from both ends of every carrier
    that holds it.  With c the centre of S and R = |S|/2, every t in mass
    outside S has e = R/|c - t| <= 1/2, except in the core tile next to S,
    whose mass lies in its middle third and sliver, at e <= 1/(5/3 - 2/3^k):
    0.692 for k = 2 and 0.601 for k = 6.  So at x = c + R*u in S the field
    of that mass is the power series
        sum over j of u^j * (-1)^j/R * integral of (R/(c - t))^(j+1) dmu(t).
    A walk with S in place of the point x expands the block whose field is
    least certain over S until the width fits budget / (1 + `_TAIL_SHARE`),
    then sums certified coefficients over the frontier, each series cut once
    its geometric tail is below an equal share of the rest.  A block's
    coefficients are bracketed to second order, from the exact mass,
    centroid and variance of a carrier's mass; only a support cell takes the
    first-order kernel range.  `enclose_u` evaluates the polynomial and S's own
    indicator exactly.

    No run comes within R of c, where its second-order bracket would fail
    (see `_enclose_block`).  A carrier's hull lies inside it, and its
    centroid lies within (2u/3 + 5/6)/(u + 1) < 1 support-cell length t of
    its centre, by the recursion in `WeightModel.carrier_moments` with the
    next generation's centroid in its hull.  So a run's regions reach less
    than its cells' t past them.  A run is core tiles of one carrier K:
      - K does not hold S: the core is K's middle third, |K|/3 from S, and
        t = |K|/9^k;
      - K is a chain carrier, the next one is T long and not the last: S lies
        in its middle third, at least T/3 from the run, and t = T/3^k;
      - the next one is the last: S is at least (u - 1)|S| from its ends,
        t = |S| and u - 1 >= 2;
      - K is the last chain carrier: the near tile, |S| long, lies between
        the run and S, and t = |S|/3^k.
    Halving a run keeps a subset of its regions.
    """

    def __init__(self, model: WeightModel, cell: TriadicCell, budget: float):
        self.model = model
        # c = xn/xd, so u = (x - c)/R = xd*x - xn; on generation gen's scale
        # den = xd * 3^((gen+1)k), the centre of S and R = den // xd are integers
        self.xn, self.xd = 2 * cell.index + 1, 2 * 3 ** cell.depth
        self._gcs: dict[int, _CellConstants] = {}
        self.chain, index = model.support_chain(cell.left)
        gen = len(self.chain) - 1
        if (cell.depth, cell.index) != ((gen + 1) * model.k, index):
            raise ValueError("not a support cell of the model")
        # w on S, which is a support cell of generation gen + 1
        self.w = self._consts(gen).w_next
        runs, slivers = _descend(model, self.chain, self.xd)
        walk_budget = budget / (1 + _TAIL_SHARE)
        frontier, self.expansions = self._expand(runs, slivers, walk_budget)
        self.coeffs, self.tail = self._sum_series(frontier, slivers, walk_budget)

    def _consts(self, gen: int) -> _CellConstants:
        gc = self._gcs.get(gen)
        if gc is None:
            cache = _model_constants(self.model)
            if (gen, self.xd) not in cache:
                cache[gen, self.xd] = _CellConstants(self.model, gen, self.xd)
            gc = self._gcs[gen] = copy(cache[gen, self.xd]).at(self.xn)
        return gc

    def _width(self, gc: _CellConstants, left: int, count: int):
        """Width over S of a carrier's or run's bracket (its coefficients'
        widths summed over j), and its geometry: side of c, nearest and
        farthest distance of its mass from c, and a run's `_run_points`.

        With z = R/(d - R) = sum over j of e^(j+1), (j+1)(j+2) e^(j+3) sums
        to 2z^3 and (j+1) e^(j+2) to z^2, and a centred bracket is at most
        twice as wide as the one it centres: 4 mv (z_near^3 - z_far^3) for a
        carrier over its hull, and 2 (mv + mw) (2 z_p0^3 + (R/L) (z_p0^2 -
        z_pl^2 - z_q0^2 + z_qe^2)) for a run, whose regions stay farther
        than R from c.
        """
        r = gc.r
        side, d_near, d_far = _distances(gc, *_mass_span(gc, left, count))
        if count == 1:
            z_near, z_far = r / (d_near - r), r / (d_far - r)
            return 4 * gc.mv[1] * (z_near ** 3 - z_far ** 3), (side, d_near, d_far, None)
        rq = r * gc.q
        points = _run_points(gc, side, left, count)
        z0, zl, zq, ze = (rq / (p - rq) for p in points[1])
        width = 2 * (gc.mv[1] + gc.mw[1]) * (
            2 * z0 ** 3 + gc.mu[1] * (z0 * z0 - zl * zl - zq * zq + ze * ze))
        return width, (side, d_near, d_far, points)

    def _block_series(self, sums: dict, gc: _CellConstants, left: int, count: int,
                      geometry, tol: float) -> float:
        """Add a carrier's or run's coefficient magnitudes to `sums[side]`
        and return the tail of its cut series; `_width` gives `geometry`."""
        r, (side, d_near, d_far, points) = gc.r, geometry
        if count == 1:
            base, (cen, *_rest) = _near_first(gc, side, left, 1)
            return _cell_series(*sums[side], gc.mass_r, ratio_bounds(r, d_near),
                                ratio_bounds(r, d_far), gc.mv,
                                ratio_bounds(r * gc.q, base + cen), tol)
        return _run_series(*sums[side], gc, ratio_bounds(r, d_near)[1], points, tol)

    def _expand(self, runs, slivers, budget: float):
        """Expand the block that is least certain over S until the sum fits
        `budget`; returns the frontier, as heap entries (-width, push index,
        gen, left, count, geometry), and the expansion count.

        A block's width is `_width`, which bounds the sum of its
        coefficients' widths, so the frontier's widths bound the field's
        over S; the geometry it returns goes on to `_sum_series`.  Expanded
        carriers leave their support cells in `slivers`.
        """
        u = self.model.u
        heap: list[tuple] = []
        pending = 0.0
        pushed = expansions = 0
        while True:
            for gen, left, count in runs:
                width, geometry = self._width(self._consts(gen), left, count)
                pending += width
                heapq.heappush(heap, (-width, pushed, gen, left, count, geometry))
                pushed += 1
            if pending <= budget or not heap or expansions >= _MAX_EXPANSIONS:
                return heap, expansions
            neg_width, _ident, gen, left, count, _geometry = heapq.heappop(heap)
            pending += neg_width
            sliver, runs = _open_block(self._consts(gen), gen, left, count, u)
            if sliver is not None:
                slivers.append(sliver)
            expansions += 1

    def _sum_series(self, frontier, slivers, budget: float):
        """Certified coefficients (lo, hi) of the field's series in u and
        a bound on what the cut series leave out, for |u| <= 1."""
        tol = _TAIL_SHARE * budget / (2 * max(1, len(frontier) + len(slivers)))
        # magnitudes of the terms left and right of c: left of c, term j
        # enters with sign (-1)^j, right of c with sign -1
        sums = {-1: ([], []), 1: ([], [])}
        tail = 0.0
        for *_key, gen, left, count, geometry in frontier:
            block_tail = self._block_series(sums, self._consts(gen), left, count, geometry, tol)
            tail = nextafter(tail + block_tail, _INF)
        for gen, left in slivers:  # expanded carriers' support cells
            gc = self._consts(gen)
            side, d_near, d_far = _distances(gc, left, left + gc.slen)
            block_tail = _support_series(*sums[side], gc.w_next, d_near, d_far,
                                         ratio_bounds(gc.r, d_near), ratio_bounds(gc.r, d_far), tol)
            tail = nextafter(tail + block_tail, _INF)
        (l_lo, l_hi), (r_lo, r_hi) = sums[-1], sums[1]
        size = max(len(l_lo), len(r_lo), 1)
        # pad the shorter side with zero terms: negated, a 0.0 term adds as
        # the 0.0 it stands for would, once rounded outward
        for acc in (l_lo, l_hi, r_lo, r_hi):
            acc += [0.0] * (size - len(acc))
        return [add_bounds(*((-l_hi[j], -l_lo[j]) if j % 2 else (l_lo[j], l_hi[j])),
                           -r_hi[j], -r_lo[j]) for j in range(size)], tail

    def enclose_u(self, point: tuple[float, float, float, float]) -> tuple[float, float]:
        """Bounds (lo, hi) on Hw(x) at the point u = (x - c)/R of S, given as
        bounds (u_lo, u_hi, i_lo, i_hi) on u and on S's indicator kernel
        ln|(u + 1)/(u - 1)|, within the budget unless the walk reached its
        expansion cap or a series its degree cap.

        Horner's rule on the coefficients.  A step multiplies [lo, hi] by
        [u_lo, u_hi] and rounds outward.  Where u has one sign, the sign of
        each end picks the products that `mul_bounds` would pick from its
        four candidates, so the bounds are the same; only at u = 0, the
        centre of S, do the bounds on u straddle 0 and take all four.
        """
        nxt, up, down = nextafter, _INF, -_INF
        u_lo, u_hi, i_lo, i_hi = point
        coeffs = self.coeffs
        lo, hi = coeffs[-1]
        if u_lo > 0:
            for c_lo, c_hi in coeffs[-2::-1]:
                lo = nxt(nxt(lo * (u_lo if lo >= 0 else u_hi), down) + c_lo, down)
                hi = nxt(nxt(hi * (u_hi if hi >= 0 else u_lo), up) + c_hi, up)
        elif u_hi < 0:
            for c_lo, c_hi in coeffs[-2::-1]:
                lo, hi = (nxt(nxt(hi * (u_lo if hi >= 0 else u_hi), down) + c_lo, down),
                          nxt(nxt(lo * (u_hi if lo >= 0 else u_lo), up) + c_hi, up))
        else:
            for c_lo, c_hi in coeffs[-2::-1]:
                lo, hi = add_bounds(*mul_bounds(lo, hi, u_lo, u_hi), c_lo, c_hi)
        lo, hi = add_bounds(lo, hi, -self.tail, self.tail)
        return add_bounds(lo, hi, *mul_bounds(i_lo, i_hi, *self.w))
