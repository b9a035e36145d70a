"""Walks over the implicit carrier tree that enclose the Hilbert field of w.

`walk` encloses Hw at one point: it keeps whole subtrees as interval
contributions (mass times kernel range, or a Riemann pair over equal-mass
tile runs) and always expands the widest pending block, so precision is
budget-driven and never requires enumerating a generation.  `CellField`
encloses Hw on one support cell: one walk with the cell in place of the
point builds a certified power series for all mass outside the cell, and
each point then evaluates that polynomial and the cell's own indicator.  All
coordinates are Python ints on a per-generation scale and all pending bounds
are outward-rounded float pairs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import nextafter
from operator import itemgetter

from .enclosure import (FloatInterval, add_bounds, log_ratio_bounds, mul_bounds,
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


def walk(model: WeightModel, xn: int, xd: int, tail_budget: float,
         max_expansions: int) -> tuple[tuple[float, float] | None, int]:
    """Adaptive bounds (lo, hi) on Hw at x = xn/xd, and the number of
    expansions; None if a block holding x is left pending."""
    up, children = 3 ** model.k, 3 ** (model.k - 1)
    acc_lo = acc_hi = 0.0
    # pending blocks: (-width, push index, gen, left, count, (lo, hi) or None)
    heap: list[tuple] = []
    pushed = 0
    pending_width = 0.0
    unresolved = 0
    gen = 0
    gcs = [_GenConstants(model, gen, xn, xd)]  # indexed by generation
    # each step pushes `runs` of generation `gen` (the first pushes the root
    # carrier), then pops and expands the widest block; all state is local to
    # this loop, so nothing refers back to it and the pending blocks are
    # freed as soon as the call returns
    runs = ((0, 1),)
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
# The field on one support cell: one power series for all mass outside it.

_TAIL_SHARE = 1 / 16  # of the walk's budget, for the cut power series
_MAX_DEGREE = 60
_MAX_EXPANSIONS = 20000  # as in hilbert_weight


def _geometric_tail(e_hi: float, top: float) -> float:
    """Upper bound on top * (1 + e + e^2 + ...) for 0 <= e <= e_hi < 1."""
    if not e_hi < 1.0:
        raise ValueError(f"series ratio bound {e_hi} is not below 1")
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
    its geometric tail is below an equal share of the rest.  `enclose`
    evaluates the polynomial and S's own indicator exactly.
    """

    def __init__(self, model: WeightModel, cell: TriadicCell, budget: float):
        self.model = model
        # c = xn/xd, so u = (x - c)/R = xd*x - xn; on generation gen's scale
        # den = xd * 3^((gen+1)k), the centre of S and R = den // xd are integers
        self.xn, self.xd = 2 * cell.index + 1, 2 * 3 ** cell.depth
        self._gcs: dict[int, _GenConstants] = {}
        self.chain = model.carriers_holding(cell.left, cell.right)
        gen = len(self.chain) - 1
        if (cell.depth, cell.index) != ((gen + 1) * model.k, self.chain[-1] * 3 ** model.k
                                        + model.support_offset(gen + 1)):
            raise ValueError("not a support cell of the model")
        # w on S, which is a support cell of generation gen + 1
        self.w = self._consts(gen).w_next
        runs, slivers = self._descend()
        walk_budget = budget / (1 + _TAIL_SHARE)
        frontier, self.expansions = self._expand(runs, slivers, walk_budget)
        self.coeffs, self.tail = self._sum_series(frontier, slivers, walk_budget)

    def _consts(self, gen: int) -> _GenConstants:
        gc = self._gcs.get(gen)
        if gc is None:
            gc = self._gcs[gen] = _GenConstants(self.model, gen, self.xn, self.xd)
        return gc

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
        """Split the mass of S's carrier chain, root first.

        Returns the runs as (gen, left, count) and the support cells as (gen,
        left), on each generation's scale.  Each chain carrier's core tiles
        are cut at the next chain carrier, and the last one's at the core
        tile next to S, which comes last as a run of its own; the support
        cells are those of every chain carrier but the last, whose support
        cell is S.
        """
        model, xd = self.model, self.xd
        up, u = 3 ** model.k, model.u
        last = len(self.chain) - 1
        near = self.chain[-1] * up + min(max(model.support_offset(last + 1), u), 2 * u - 1)
        runs, slivers = [], []
        for gen, (carrier, cut) in enumerate(zip(self.chain, self.chain[1:] + [near])):
            if gen < last:
                slivers.append((gen, (carrier * up + model.support_offset(gen + 1)) * xd))
            first, end = carrier * up + u, carrier * up + 2 * u
            if cut > first:
                runs.append((gen + 1, first * up * xd, cut - first))
            if end > cut + 1:
                runs.append((gen + 1, (cut + 1) * up * xd, end - cut - 1))
        runs.append((last + 1, near * up * xd, 1))
        return runs, slivers

    def _expand(self, runs, slivers, budget: float):
        """Expand the block that is least certain over S until the sum fits
        `budget`; returns the frontier, as heap entries (-width, push index,
        gen, left, count), and the expansion count.

        A block's width is its kernel range at the end of S nearest to it,
        mass * (1/(d_near - R) - 1/(d_far - R)), which is the sum of its
        coefficients' widths; a run's is twice that of one cell's mass.
        Expanded carriers leave their support cells in `slivers`.
        """
        up, children = 3 ** self.model.k, 3 ** (self.model.k - 1)
        heap: list[tuple] = []
        pending = 0.0
        pushed = expansions = 0
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
            if pending <= budget or not heap or expansions >= _MAX_EXPANSIONS:
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

    def _sum_series(self, frontier, slivers, budget: float):
        """Certified coefficients (lo, hi) of the field's series in u and
        a bound on what the cut series leave out, for |u| <= 1."""
        tol = _TAIL_SHARE * budget / (2 * max(1, len(frontier) + len(slivers)))
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
        the walk reached its expansion cap or a series its degree cap."""
        xn, xd = x.numerator, x.denominator
        # u = d/xd; over xd * self.xd, x - a and x - b are d + xd and d - xd
        d = self.xd * xn - self.xn * xd
        u_lo, u_hi = ratio_bounds(d, xd)
        lo, hi = self.coeffs[-1]
        for c_lo, c_hi in reversed(self.coeffs[:-1]):
            lo, hi = add_bounds(*mul_bounds(lo, hi, u_lo, u_hi), c_lo, c_hi)
        lo, hi = add_bounds(lo, hi, -self.tail, self.tail)
        i_lo, i_hi = _indicator_bounds(-xd, xd, d)
        return add_bounds(lo, hi, *mul_bounds(i_lo, i_hi, *self.w))
