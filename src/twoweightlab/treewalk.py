"""Walks over the implicit carrier tree that enclose the Hilbert field of w.

`walk` encloses Hw at one point: it keeps whole subtrees as interval
contributions (mass times kernel range, or a Riemann pair over equal-mass
tile runs) and always expands the widest pending block, so precision is
budget-driven and never requires enumerating a generation.  `CellField`
encloses Hw on one support cell: one walk with the cell in place of the
point builds a certified power series for the far mass, and each point then
walks only the few blocks near the cell.  All coordinates are Python ints on
a per-generation scale and all pending bounds are outward-rounded float pairs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import nextafter
from operator import itemgetter

from .enclosure import (FloatInterval, Q, add_bounds, log_ratio_bounds, mul_bounds,
                        ratio_bounds)
from .triadic import TriadicCell
from .weights import WeightModel

_INF = float("inf")


class BoundaryError(ValueError):
    """Evaluation point sits on a support-cell endpoint (log singularity)."""


def _indicator_bounds(a: int, b: int, x: int) -> tuple[float, float]:
    """Log-kernel bounds for [a, b] at x, all three integers on one scale."""
    if x == a or x == b:
        raise BoundaryError("evaluation point is a kernel endpoint")
    return log_ratio_bounds(abs(x - a), abs(x - b))


class _GenConstants:
    """One generation of the walk for one point x = xn/xd, in integer units.

    Every block end, core third and support sliver of generation `gen` is a
    multiple of 3^-((gen+1)k), so coordinates are stored multiplied by
    den = xd * 3^((gen+1)k).  In these units a cell, its third and the
    sliver have the same lengths at every generation.  Float constants are
    (lo, hi) bounds.
    """

    __slots__ = ("den", "x", "length", "third", "slen", "sliver", "hull",
                 "mass_num", "mass_den", "mass_f", "density", "w_next")

    def __init__(self, model: WeightModel, gen: int, xn: int, xd: int):
        scale = 3 ** ((gen + 1) * model.k)
        self.den = xd * scale
        self.x = xn * scale
        self.slen = xd
        u = model.u
        self.third = xd * u
        self.length = 3 * self.third
        cell_mass = model.carrier_w_mass(gen)
        # mass / (x - c) == mass_num / (mass_den * (X - C)), all integers
        scaled = cell_mass * self.den
        self.mass_num, self.mass_den = scaled.numerator, scaled.denominator
        self.mass_f = float(cell_mass)
        # a carrier's mass over its length is the generation's w value
        density = FloatInterval.from_fraction(model.w_value(gen))
        self.density = (density.lo, density.hi)
        w_next = FloatInterval.from_fraction(model.w_value(gen + 1))
        self.w_next = (w_next.lo, w_next.hi)
        # offsets from a cell's left end, where the core spans [u, 2u) slivers:
        # the support sliver, and the hull of core plus sliver where all of
        # the cell's mass lives
        off = model.support_offset(gen + 1)
        self.sliver = off * xd
        self.hull = (min(u, off) * xd, max(2 * u, off + 1) * xd)


def _split_at_x(gc: _GenConstants, left: int, count: int) -> list[tuple[int, int]]:
    """The run as (left, count) pieces to push: split around the cell whose
    closure holds x when x lies strictly inside the run."""
    x, length = gc.x, gc.length
    if count == 1 or not left < x < left + count * length:
        return [(left, count)]
    t = min(count - 1, (x - left) // length)
    pieces = [(left, t)] if t > 0 else []
    pieces.append((left + t * length, 1))
    if t + 1 < count:
        pieces.append((left + (t + 1) * length, count - t - 1))
    return pieces


def _enclose_block(gc: _GenConstants, left: int, count: int) -> tuple[float, float] | None:
    """Bounds (lo, hi) on the block's kernel integral; None forces expansion.

    For a single cell the kernel range `mass * [min 1/(x-t), max 1/(x-t)]` is
    sound however the mass sits inside (tightened to the middle-third hull
    where all of it actually lives).  For a run of equal-mass cells the
    lower/upper Riemann pair around the exact log integral is tighter: the
    per-cell granularity costs at most mass * (kernel range over the run).
    """
    x = gc.x
    hi = left + count * gc.length
    if left <= x <= hi:
        return None
    if count == 1:
        a_lo, a_hi = ratio_bounds(gc.mass_num, gc.mass_den * (x - (left + gc.hull[0])))
        b_lo, b_hi = ratio_bounds(gc.mass_num, gc.mass_den * (x - (left + gc.hull[1])))
        return min(a_lo, b_lo), max(a_hi, b_hi)
    # x lies outside [left, hi], so neither end is a kernel endpoint
    i_lo, i_hi = log_ratio_bounds(abs(x - left), abs(x - hi))
    base_lo, base_hi = mul_bounds(i_lo, i_hi, *gc.density)
    # upper bound on the kernel range suffices; floats with a pad are sound
    # because the exact differences below are positive and well separated
    dl, dh = (x - left) / gc.den, (x - hi) / gc.den
    slack = gc.mass_f * abs(1.0 / dl - 1.0 / dh) * (1 + 1e-9) + 1e-300
    return base_lo - slack, base_hi + slack


def walk(model: WeightModel, xn: int, xd: int, start, tail_budget: float,
          max_expansions: int) -> tuple[tuple[float, float] | None, int]:
    """Adaptive bounds (lo, hi) on the field at x = xn/xd of the carrier runs
    in `start`, and the number of expansions; None if a block holding x is
    left pending.

    `start` lists (gen, left, count): `count` generation-`gen` carriers from
    `left`, which is in units of a generation-(gen+1) support cell.
    """
    if not start:
        return (0.0, 0.0), 0
    up, children = 3 ** model.k, 3 ** (model.k - 1)
    acc_lo = acc_hi = 0.0
    # pending blocks: (-width, push index, gen, left, count, (lo, hi) or None)
    heap: list[tuple] = []
    pushed = 0
    pending_width = 0.0
    unresolved = 0
    # constants of each generation from the first one in `start` on
    gens = [gen for gen, _left, _count in start]
    gcs: list[_GenConstants | None] = [None] * min(gens)
    gcs += [_GenConstants(model, gen, xn, xd) for gen in range(min(gens), max(gens) + 1)]
    # each step pushes `runs` of generation `gen` (the first steps push
    # `start`), then pops and expands the widest block; all state is local to
    # this loop, so nothing refers back to it and the pending blocks are
    # freed as soon as the call returns
    steps = [(gen, ((left * xd, count),)) for gen, left, count in reversed(start)]
    gen, runs = steps.pop()
    expansions = 0
    while True:
        gc = gcs[gen]
        for run_left, run_count in runs:
            for left, count in _split_at_x(gc, run_left, run_count):
                enc = _enclose_block(gc, left, count)
                if enc is None:
                    unresolved += 1
                    width = _INF
                else:
                    width = enc[1] - enc[0]
                    pending_width += width
                heapq.heappush(heap, (-width, pushed, gen, left, count, enc))
                pushed += 1
        if steps:
            gen, runs = steps.pop()
            continue
        if expansions >= max_expansions or not heap:
            break
        if not unresolved and (acc_hi - acc_lo) + pending_width <= tail_budget:
            break
        neg_width, _ident, gen, left, count, enc = heapq.heappop(heap)
        if enc is None:
            unresolved -= 1
        else:
            pending_width += neg_width
        gc = gcs[gen]
        if count > 1:
            # halve the run; the x-side half concentrates the kernel range,
            # so widths decay geometrically under repeated splitting
            cut = count // 2
            runs = ((left, cut), (left + cut * gc.length, count - cut))
        else:
            sl = left + gc.sliver
            i_lo, i_hi = _indicator_bounds(sl, sl + gc.slen, gc.x)
            t_lo, t_hi = mul_bounds(i_lo, i_hi, *gc.w_next)
            acc_lo, acc_hi = add_bounds(acc_lo, acc_hi, t_lo, t_hi)
            # the core's tiles are the next generation's carriers
            gen += 1
            if gen == len(gcs):
                gcs.append(_GenConstants(model, gen, xn, xd))
            runs = (((left + gc.third) * up, children),)
        expansions += 1
    # sum in push order, so the float total does not depend on heap layout
    for *_block, enc in sorted(heap, key=itemgetter(1)):
        if enc is None:
            return None, expansions
        acc_lo, acc_hi = add_bounds(acc_lo, acc_hi, *enc)
    return (acc_lo, acc_hi), expansions

# ---------------------------------------------------------------------------
# The field on one support cell: a far-field power series plus near walks.

_FAR_SHARE = 0.5      # of a point's budget, for the far field over the whole cell
_TAIL_SHARE = 1 / 16  # of the far share, for the cut power series
_MAX_DEGREE = 60
_MAX_EXPANSIONS = 20000  # for the far walk and for each near walk, as in hilbert_weight


def _split_around(gc: _GenConstants, left: int, count: int, lo: int,
                  hi: int) -> list[tuple[int, int]]:
    """The run as (left, count) pieces, each cell meeting (lo, hi) on its own."""
    length = gc.length
    first = max(0, (lo - left) // length)
    last = min(count, -((left - hi) // length))
    if first >= last:
        return [(left, count)]
    pieces = [(left, first)] if first else []
    pieces += [(left + i * length, 1) for i in range(first, last)]
    if last < count:
        pieces.append((left + last * length, count - last))
    return pieces


def _geometric_tail(e_hi: float, top: float) -> float:
    """Upper bound on top * (1 + e + e^2 + ...) for 0 <= e <= e_hi < 1."""
    return nextafter(top / nextafter(1.0 - e_hi, -_INF), _INF)


def _add_at(acc_lo: list, acc_hi: list, j: int, lo: float, hi: float) -> None:
    if j == len(acc_lo):
        acc_lo.append(0.0)
        acc_hi.append(0.0)
    acc_lo[j] = nextafter(acc_lo[j] + lo, -_INF)
    acc_hi[j] = nextafter(acc_hi[j] + hi, _INF)


def _cell_series(acc_lo: list, acc_hi: list, mass_r: tuple[float, float],
                 e_near: tuple[float, float], e_far: tuple[float, float],
                 tol: float) -> float:
    """Add (1/R) * integral of e^(j+1) dmu for one carrier to acc[j], j = 0..,
    and return the bound on the rest once it is below `tol`.

    The mass M lies where e runs from e_far to e_near, so term j lies in
    (M/R) * [e_far^(j+1), e_near^(j+1)].
    """
    m_lo, m_hi = mass_r
    f_lo, n_hi = e_far[0], e_near[1]
    p_lo, p_hi = f_lo, n_hi
    j = 0
    while True:
        _add_at(acc_lo, acc_hi, j, nextafter(m_lo * p_lo, -_INF), nextafter(m_hi * p_hi, _INF))
        p_hi = nextafter(p_hi * n_hi, _INF)
        tail = _geometric_tail(n_hi, nextafter(m_hi * p_hi, _INF))
        if tail <= tol or j == _MAX_DEGREE:
            return tail
        p_lo = nextafter(p_lo * f_lo, -_INF)
        j += 1


def _density_series(acc_lo: list, acc_hi: list, density: tuple[float, float],
                    slack_r: float, d_near: int, d_far: int,
                    e_near: tuple[float, float], e_far: tuple[float, float],
                    tol: float) -> float:
    """As `_cell_series`, for mass spread at `density` between the distances
    d_near < d_far from c (e = R/d), widened by `slack_r` * (e_near^(j+1) -
    e_far^(j+1)) for a run of equal cells whose mass need not be uniform.

    Term j is density/j * (e_near^j - e_far^j), and density * ln(d_far/d_near)
    for j = 0; a cell of mass m moves it by at most (m/R) * the range of
    e^(j+1) over the cell, which sums to the slack over the run.
    """
    d_lo, d_hi = density
    l_lo, l_hi = log_ratio_bounds(d_far, d_near)
    part_lo, part_hi = nextafter(d_lo * l_lo, -_INF), nextafter(d_hi * l_hi, _INF)
    (en_lo, en_hi), (ef_lo, ef_hi) = e_near, e_far
    # bounds on e_near^(j+1) and e_far^(j+1)
    n_lo, n_hi, f_lo, f_hi = en_lo, en_hi, ef_lo, ef_hi
    j = 0
    while True:
        diff_hi = nextafter(n_hi - f_lo, _INF)
        slack = nextafter(slack_r * diff_hi, _INF)
        _add_at(acc_lo, acc_hi, j, nextafter(part_lo - slack, -_INF),
                nextafter(part_hi + slack, _INF))
        j += 1
        top = nextafter(nextafter(d_hi * n_hi, _INF) / j, _INF)
        top = nextafter(top + nextafter(slack_r * nextafter(n_hi * en_hi, _INF), _INF), _INF)
        tail = _geometric_tail(en_hi, top)
        if tail <= tol or j > _MAX_DEGREE:
            return tail
        diff_lo = max(0.0, nextafter(n_lo - f_hi, -_INF))
        part_lo = nextafter(nextafter(d_lo * diff_lo, -_INF) / j, -_INF)
        part_hi = nextafter(nextafter(d_hi * diff_hi, _INF) / j, _INF)
        n_lo, n_hi = nextafter(n_lo * en_lo, -_INF), nextafter(n_hi * en_hi, _INF)
        f_lo, f_hi = nextafter(f_lo * ef_lo, -_INF), nextafter(f_hi * ef_hi, _INF)


class CellField:
    """Enclosures of Hw on a support cell S = [a, b), one point at a time.

    One walk over the carrier tree, with S in place of the point x, sorts the
    mass outside S.  A block at distance >= |S|/2 from S is far: with c the
    centre of S and R = |S|/2, every t in it has e = R/|c - t| <= 1/2, so at
    x = c + R*u in S its field is the power series
        sum over j of u^j * (-1)^j/R * integral of (R/(c - t))^(j+1) dmu(t).
    The walk expands the far block whose field is least certain over S until
    the far width fits `_FAR_SHARE` of the budget, then sums certified
    coefficients over the frontier, each series cut once its geometric tail
    is below an equal share of `_TAIL_SHARE`.  Blocks closer than |S|/2 form
    the near list, which `enclose` walks at each point as `hilbert_weight`
    would.  S's own indicator, and that of any near support cell, is
    evaluated exactly at each point.
    """

    def __init__(self, model: WeightModel, cell: TriadicCell, budget: float):
        self.model = model
        self.budget = budget
        # c = xn/xd, so u = (x - c)/R = xd*x - xn; on generation gen's scale
        # den = xd * 3^((gen+1)k), the centre of S and R = den // xd are integers
        self.xn, self.xd = 2 * cell.index + 1, 2 * 3 ** cell.depth
        self._gcs: dict[int, _GenConstants] = {}
        # S's own indicator and those of near support cells: (a, b, w bounds)
        self.exact: list[tuple[Fraction, Fraction, tuple[float, float]]] = []
        near, far, slivers = self._descend()
        self.near = tuple(near)
        far_budget = _FAR_SHARE * budget
        frontier, self.expansions = self._expand_far(far, slivers, far_budget)
        self.coeffs, self.tail = self._sum_series(frontier, slivers, far_budget)

    def _consts(self, gen: int) -> _GenConstants:
        gc = self._gcs.get(gen)
        if gc is None:
            gc = self._gcs[gen] = _GenConstants(self.model, gen, self.xn, self.xd)
        return gc

    def _place(self, gc: _GenConstants, lo: int, hi: int) -> int | None:
        """-1 or 1 if mass in [lo, hi] is far to the left or right of S, 0 if
        [lo, hi] overlaps S, None if it is near."""
        r = gc.den // self.xd
        if hi <= gc.x - 2 * r:
            return -1
        if lo >= gc.x + 2 * r:
            return 1
        return 0 if lo < gc.x + r and hi > gc.x - r else None

    @staticmethod
    def _mass_span(gc: _GenConstants, left: int, count: int) -> tuple[int, int]:
        if count == 1:
            return left + gc.hull[0], left + gc.hull[1]
        return left, left + count * gc.length

    @staticmethod
    def _distances(gc: _GenConstants, lo: int, hi: int) -> tuple[int, int, int]:
        """Side of c (-1 or 1), nearest and farthest distance of [lo, hi] from c."""
        if hi <= gc.x:
            return -1, gc.x - hi, gc.x - lo
        return 1, lo - gc.x, hi - gc.x

    def _descend(self):
        """Expand the carriers that hold S, from the root down to S's own.

        Returns the near blocks as (gen, left in support-cell units, count),
        the far blocks as (gen, left, count) and the far support cells as
        (gen, left), on each generation's scale.
        """
        up, children = 3 ** self.model.k, 3 ** (self.model.k - 1)
        near, far, slivers = [], [], []
        gen, left = 0, 0
        while True:
            gc = self._consts(gen)
            sl = left + gc.sliver
            side = self._place(gc, sl, sl + gc.slen)
            r = gc.den // self.xd
            if side == 0 and (sl, sl + gc.slen) != (gc.x - r, gc.x + r):
                raise ValueError("not a support cell of the model")
            if side is None or side == 0:
                self.exact.append((Q(sl, gc.den), Q(sl + gc.slen, gc.den), gc.w_next))
            else:
                slivers.append((gen, sl))
            run_left, gen, left = (left + gc.third) * up, gen + 1, None
            gc = self._consts(gen)
            r2 = 2 * (gc.den // self.xd)
            for piece in _split_around(gc, run_left, children, gc.x - r2, gc.x + r2):
                piece_side = self._place(gc, *self._mass_span(gc, *piece))
                if piece_side is None:
                    near.append((gen, piece[0] // self.xd, piece[1]))
                elif piece_side == 0:
                    left = piece[0]
                else:
                    far.append((gen, *piece))
            if side == 0:
                return near, far, slivers
            if left is None:
                raise ValueError("not a support cell of the model")

    def _expand_far(self, far, slivers, far_budget: float):
        """Expand the far block that is least certain over S until the sum
        fits `far_budget`; returns the frontier, as heap entries
        (-width, push index, gen, left, count), and the expansion count.

        A block's width is its kernel range at the end of S nearest to it,
        mass * (1/(d_near - R) - 1/(d_far - R)), which is the sum of its
        coefficients' widths; a run's is twice that of one cell's mass.
        Expanded carriers leave their support cells in `slivers`.
        """
        up, children = 3 ** self.model.k, 3 ** (self.model.k - 1)
        heap: list[tuple] = []
        pending = 0.0
        pushed = expansions = 0
        runs = far
        while True:
            for gen, left, count in runs:
                gc = self._consts(gen)
                r = gc.den // self.xd
                _side, d_near, d_far = self._distances(gc, *self._mass_span(gc, left, count))
                width = ((1 if count == 1 else 2) * gc.mass_num * (d_far - d_near)
                         / (gc.mass_den * (d_near - r) * (d_far - r)))
                pending += width
                heapq.heappush(heap, (-width, pushed, gen, left, count))
                pushed += 1
            if pending <= far_budget or not heap or expansions >= _MAX_EXPANSIONS:
                return heap, expansions
            neg_width, _ident, gen, left, count = heapq.heappop(heap)
            pending += neg_width
            gc = self._consts(gen)
            if count > 1:
                cut = count // 2
                runs = ((gen, left, cut), (gen, left + cut * gc.length, count - cut))
            else:
                slivers.append((gen, left + gc.sliver))
                runs = ((gen + 1, (left + gc.third) * up, children),)
            expansions += 1

    def _sum_series(self, frontier, slivers, far_budget: float):
        """Certified coefficients (lo, hi) of the far field's series in u and
        a bound on what the cut series leave out, for |u| <= 1."""
        tol = _TAIL_SHARE * far_budget / (2 * max(1, len(frontier) + len(slivers)))
        # magnitudes of the terms left and right of c: left of c, term j
        # enters with sign (-1)^j, right of c with sign -1
        sums = {-1: ([], []), 1: ([], [])}
        tail = 0.0

        def items():
            """(constants, count, mass span) of each block, count 0 for a
            support cell."""
            for *_key, gen, left, count in frontier:
                gc = self._consts(gen)
                yield (gc, count, *self._mass_span(gc, left, count))
            for gen, sl in slivers:
                gc = self._consts(gen)
                yield gc, 0, sl, sl + gc.slen

        for gc, count, lo, hi in items():
            r = gc.den // self.xd
            side, d_near, d_far = self._distances(gc, lo, hi)
            e_near, e_far = ratio_bounds(r, d_near), ratio_bounds(r, d_far)
            acc_lo, acc_hi = sums[side]
            if count == 0:
                # an expanded carrier's support cell, at its own density
                t = _density_series(acc_lo, acc_hi, gc.w_next, 0.0, d_near, d_far,
                                    e_near, e_far, tol)
            else:
                mass_r = ratio_bounds(gc.mass_num, gc.mass_den * r)
                if count == 1:
                    t = _cell_series(acc_lo, acc_hi, mass_r, e_near, e_far, tol)
                else:
                    # a run at the carriers' mean density, off by one cell's mass
                    t = _density_series(acc_lo, acc_hi, gc.density, mass_r[1],
                                        d_near, d_far, e_near, e_far, tol)
            tail = nextafter(tail + t, _INF)
        (l_lo, l_hi), (r_lo, r_hi) = sums[-1], sums[1]
        coeffs = []
        for j in range(max(len(l_lo), len(r_lo), 1)):
            left = (l_lo[j], l_hi[j]) if j < len(l_lo) else (0.0, 0.0)
            if j % 2:
                left = (-left[1], -left[0])
            right = (-r_hi[j], -r_lo[j]) if j < len(r_lo) else (0.0, 0.0)
            coeffs.append(add_bounds(*left, *right))
        return coeffs, tail

    def enclose(self, x: Fraction) -> tuple[float, float]:
        """Bounds (lo, hi) on Hw(x) for x inside S, within the budget unless
        the near walk reaches its expansion cap."""
        xn, xd = x.numerator, x.denominator
        u_lo, u_hi = ratio_bounds(self.xd * xn - self.xn * xd, xd)
        lo, hi = self.coeffs[-1]
        for c_lo, c_hi in reversed(self.coeffs[:-1]):
            lo, hi = add_bounds(*mul_bounds(lo, hi, u_lo, u_hi), c_lo, c_hi)
        lo, hi = add_bounds(lo, hi, -self.tail, self.tail)
        for a, b, w in self.exact:
            if x == a or x == b:
                raise BoundaryError("evaluation point is a kernel endpoint")
            dl, dr = x - a, x - b
            i_lo, i_hi = log_ratio_bounds(abs(dl.numerator * dr.denominator),
                                          abs(dl.denominator * dr.numerator))
            lo, hi = add_bounds(lo, hi, *mul_bounds(i_lo, i_hi, *w))
        near, expansions = walk(self.model, xn, xd, self.near, self.budget - (hi - lo),
                                _MAX_EXPANSIONS)
        self.expansions += expansions
        if near is None:
            return -_INF, _INF
        return add_bounds(lo, hi, *near)
