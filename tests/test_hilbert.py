"""Log-kernel transform and maximal function: identities and enclosures."""

import gc
import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q

import pytest

from twoweightlab import hilbert, treewalk
from twoweightlab.enclosure import (FloatInterval, log_abs_ratio_interval,
                                    ratio_bounds, ratio_interval)
from twoweightlab.hilbert import (BoundaryError, hilbert_indicator, hilbert_weight,
                                  hilbert_pointwise_report, maximal_at,
                                  maximal_report, probe_points)
from twoweightlab.weights import ConstructionParams, build_construction


def model(k=4, depth=2, placement="right"):
    return build_construction(
        ConstructionParams(k=k, depth=depth, placement=placement))


def test_indicator_closed_forms():
    assert abs(hilbert_indicator(0, 1, 2) - math.log(2)) < 1e-12
    assert hilbert_indicator(Q(1, 4), Q(3, 4), Q(1, 2)) == 0.0
    assert abs(hilbert_indicator(0, 1, Q(1, 3)) + math.log(2)) < 1e-12


def test_indicator_endpoint_rejection():
    with pytest.raises(BoundaryError):
        hilbert_indicator(0, 1, 1)
    with pytest.raises(BoundaryError):
        hilbert_indicator(0, 1, 0)


def test_indicator_additivity():
    a, b, c, x = Q(0), Q(2, 7), Q(1), Q(5, 3)
    whole = hilbert_indicator(a, c, x)
    parts = hilbert_indicator(a, b, x) + hilbert_indicator(b, c, x)
    assert abs(whole - parts) < 1e-12


def test_far_field_enclosure():
    m = model()
    hv = hilbert_weight(m, Q(2), tail_budget=0.4)
    # total mass 1 and kernel between 1/2 and 1 on [0,1)
    assert 0.5 <= hv.value.lo and hv.value.hi <= 1.0
    far = hilbert_weight(m, Q(11), tail_budget=1e-3)
    assert far.value.hi <= 1 / 10


def test_boundary_point_rejected():
    m = model(k=2)
    support = m.support_cells(1)[0].cell
    with pytest.raises(BoundaryError):
        hilbert_weight(m, support.left, tail_budget=1e-3)


def test_gen1_ratio_matches_harmonic_sum():
    """At a generation-1 probe midpoint the own-core tiles dominate and give
    roughly the harmonic sum over 3^(k-1) tiles."""
    m = model(k=4)
    (probe, x) = probe_points(m, 1, 1, 1, 0)[0]
    hv = hilbert_weight(m, x, tail_budget=1e-3)
    ratio = hv.value.mid / float(m.w_value(1))
    harmonic = sum(1 / j for j in range(1, 3 ** 3 + 1))
    assert abs(ratio - harmonic) < 0.35
    assert hv.converged


def test_reflection_antisymmetry():
    right = model(k=3)
    left = model(k=3, placement="left")
    for x in (Q(7, 10), Q(13, 16), Q(2)):
        a = hilbert_weight(right, x, tail_budget=1e-4)
        b = hilbert_weight(left, 1 - x, tail_budget=1e-4)
        assert abs(a.value.mid + b.value.mid) < 3e-4


def test_probe_points_deterministic_and_inside():
    m = model(k=6)
    pts = probe_points(m, 2, 5, 2, seed=9)
    again = probe_points(m, 2, 5, 2, seed=9)
    assert [(c.address, x) for c, x in pts] == [(c.address, x) for c, x in again]
    for cell, x in pts:
        assert cell.contains_point(x)


def test_pointwise_report_widths_and_values():
    m = model(k=6)
    rep = hilbert_pointwise_report(m, 2, cells_per_gen=4, seed=3)
    assert rep["max_rel_width"] <= 0.01
    for row in rep["rows"]:
        assert row["w"] == m.w_value(row["gen"])
        assert row["converged"]
    assert rep["min_ratio"] > 1


def test_pointwise_report_depth_guard():
    m = model(k=4, depth=1)
    with pytest.raises(ValueError):
        hilbert_pointwise_report(m, 2)


@pytest.mark.parametrize("report", [hilbert_pointwise_report, maximal_report])
def test_reports_reject_an_empty_probe_set(report):
    m = model(k=4, depth=1)
    for generations in (0, -1):
        with pytest.raises(ValueError, match="generations must be >= 1"):
            report(m, generations)
    with pytest.raises(ValueError, match="samples per cell must be >= 1"):
        report(m, 1, samples_per_cell=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"gen_cap": 0}, "gen_cap must be >= 1"),
    ({"gen_cap": -2}, "gen_cap must be >= 1"),
    ({"nodes": 4}, r"nodes must be one of \[2, 3\]"),
    ({"nodes": 5}, r"nodes must be one of \[2, 3\]"),
    ({"edge_levels": -1}, "edge_levels must be >= 0"),
    ({"budget_rel": 0.0}, "budget_rel must be > 0"),
    ({"budget_rel": -1e-3}, "budget_rel must be > 0"),
])
def test_norm_ratio_rejects_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        hilbert.hilbert_norm_ratio(model(k=3, depth=1), cells_per_gen=1, **kwargs)


def test_walk_leaves_no_reference_cycle():
    """A walk's pending blocks are freed by reference counting when it
    returns; none wait for the cyclic collector."""
    m = model(k=6)
    x = probe_points(m, 2, 1, 1, 0)[0][1]
    gc.collect()
    gc.disable()
    try:
        hv = hilbert_weight(m, x, tail_budget=1e-3 * 6 * float(m.w_value(2)))
        assert hv.expansions > 100
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_maximal_basic_bounds():
    m = model(k=4)
    (probe, x) = probe_points(m, 1, 1, 1, 0)[0]
    res = maximal_at(m, x)
    assert res["lower"] >= res["w"]  # averaging over the constancy cell
    assert res["upper"] >= res["lower"]
    deeper = maximal_at(m, x, extra_gens=4)
    assert deeper["lower"] >= res["lower"]
    assert deeper["upper"] <= res["upper"]


def test_maximal_rejects_outside_support():
    m = model(k=3)
    for x in (Q(1, 10), Q(1, 9)):  # both in the vanishing set
        with pytest.raises(ValueError, match="support"):
            maximal_at(m, x)


@pytest.mark.parametrize("k", [2, 8])
def test_maximal_gives_up_on_a_point_no_support_cell_holds(k):
    # 1/2 = 0.111..._3 lies in every core of its chain, so the descent
    # must stop at its generation guard instead of running forever
    with pytest.raises(ValueError) as err:
        maximal_at(model(k=k), Q(1, 2))
    assert "outside the support" not in str(err.value)


def test_maximal_report_within_13():
    m = model(k=5)
    rep = maximal_report(m, 2, cells_per_gen=3, seed=1)
    assert rep["all_within_13"]


# ---------------------------------------------------------------------------
# Reference copy of the adaptive walk on Fraction coordinates.  The library's
# walk runs on integer coordinates and must give bit-identical results.

def _ref_indicator_iv(a, b, x):
    if x == a or x == b:
        raise BoundaryError(f"kernel endpoint hit at x={x}")
    return log_abs_ratio_interval(x - a, x - b)


@dataclass(frozen=True)
class _RefBlock:
    gen: int
    left: Q
    count: int


class _RefGen:
    def __init__(self, m, gen):
        self.length = Q(1, 3 ** (gen * m.k))
        self.mass = m.carrier_w_mass(gen)
        self.density = FloatInterval.from_fraction(self.mass / self.length)
        self.mass_f = float(self.mass)
        self.slen = self.length / 3 ** m.k
        self.side_right = m.side_for(gen + 1) == "right"


def _ref_enclose_block(gc, blk, x):
    length = gc.length
    lo, hi = blk.left, blk.left + blk.count * length
    if lo <= x <= hi:
        return None
    mass = gc.mass
    if blk.count == 1:
        if gc.side_right:
            clo, chi = lo + length / 3, lo + 2 * length / 3 + gc.slen
        else:
            clo, chi = lo + length / 3 - gc.slen, lo + 2 * length / 3
        iv_a = ratio_interval(mass, x - clo)
        iv_b = ratio_interval(mass, x - chi)
        return FloatInterval(min(iv_a.lo, iv_b.lo), max(iv_a.hi, iv_b.hi))
    base = _ref_indicator_iv(lo, hi, x) * gc.density
    dl, dh = float(x - lo), float(x - hi)
    slack = gc.mass_f * abs(1.0 / dl - 1.0 / dh) * (1 + 1e-9) + 1e-300
    return FloatInterval(base.lo - slack, base.hi + slack)


def reference_hilbert_weight(m, x, tail_budget=1e-6, max_expansions=20000):
    x = Q(x)
    acc = FloatInterval(0.0, 0.0)
    blocks = {}
    heap = []
    counter = 0
    pending_width = 0.0
    unresolved = 0
    gcs = {}

    def constants(gen):
        if gen not in gcs:
            gcs[gen] = _RefGen(m, gen)
        return gcs[gen]

    def push(blk):
        nonlocal counter, pending_width, unresolved
        gc = constants(blk.gen)
        if blk.count > 1:
            lo = blk.left
            hi = blk.left + blk.count * gc.length
            if lo < x < hi:
                t = min(blk.count - 1, int((x - lo) / gc.length))
                if t > 0:
                    push(_RefBlock(blk.gen, lo, t))
                push(_RefBlock(blk.gen, lo + t * gc.length, 1))
                if t + 1 < blk.count:
                    push(_RefBlock(blk.gen, lo + (t + 1) * gc.length,
                                   blk.count - t - 1))
                return
        enc = _ref_enclose_block(gc, blk, x)
        blocks[counter] = (blk, enc)
        if enc is None:
            unresolved += 1
            width = math.inf
        else:
            width = enc.width
            pending_width += width
        heapq.heappush(heap, (-width, counter))
        counter += 1

    def expand(blk):
        nonlocal acc
        gc = constants(blk.gen)
        third = gc.length / 3
        core_l = blk.left + third
        core_r = blk.left + 2 * third
        if gc.side_right:
            sl, sr = core_r, core_r + gc.slen
        else:
            sl, sr = core_l - gc.slen, core_l
        value = m.w_value(blk.gen + 1)
        acc = acc + _ref_indicator_iv(sl, sr, x) * FloatInterval.from_fraction(value)
        push(_RefBlock(blk.gen + 1, core_l, 3 ** (m.k - 1)))

    push(_RefBlock(0, Q(0), 1))
    expansions = 0
    while expansions < max_expansions:
        if not unresolved and acc.width + pending_width <= tail_budget:
            break
        if not heap:
            break
        _neg_w, ident = heapq.heappop(heap)
        blk, enc = blocks.pop(ident)
        if enc is None:
            unresolved -= 1
        else:
            pending_width -= enc.width
        if blk.count > 1:
            cut = blk.count // 2
            length = constants(blk.gen).length
            push(_RefBlock(blk.gen, blk.left, cut))
            push(_RefBlock(blk.gen, blk.left + cut * length, blk.count - cut))
        else:
            expand(blk)
        expansions += 1
    total = acc
    for _blk, enc in blocks.values():
        if enc is None:
            return (-math.inf, math.inf, math.inf, expansions, False)
        total = total + enc
    return (total.lo, total.hi, total.width, expansions,
            total.width <= tail_budget * (1 + 1e-9) + 1e-300)


def _as_tuple(hv):
    return (hv.value.lo, hv.value.hi, hv.width, hv.expansions, hv.converged)


def _equivalence_points(m, gen, seed):
    rng = random.Random(f"equiv|{m.k}|{gen}|{seed}")
    pts = [x for _cell, x in probe_points(m, gen, 2, 1, seed)]
    # a point of the support cell off the probe grid, and one anywhere
    support = m.support_cells(gen)[0].cell
    pts.append(support.left + support.length * Q(rng.randrange(1, 97), 97))
    pts.append(Q(rng.randrange(1, 10 ** 6), 10 ** 6))
    return pts


@pytest.mark.parametrize("k", [2, 3, 6, 8, 10, 12])
@pytest.mark.parametrize("placement", ["right", "left", "alternating"])
def test_integer_walk_matches_fraction_reference(k, placement):
    m = model(k=k, placement=placement)
    for gen in (1, 2):
        scale = k * float(m.w_value(gen))
        for x in _equivalence_points(m, gen, seed=gen):
            for rel in (0.05, 0.01, 0.002):
                budget = rel * scale
                assert _as_tuple(hilbert_weight(m, x, tail_budget=budget)) == \
                    reference_hilbert_weight(m, x, tail_budget=budget), (x, rel)


@pytest.mark.parametrize("placement", ["right", "alternating"])
def test_integer_walk_matches_reference_off_the_unit_interval(placement):
    m = model(k=3, placement=placement)
    for x in (Q(2), Q(11), Q(-5, 7)):
        for budget in (0.4, 1e-3, 1e-6):
            assert _as_tuple(hilbert_weight(m, x, tail_budget=budget)) == \
                reference_hilbert_weight(m, x, tail_budget=budget), (x, budget)


def test_integer_walk_matches_reference_when_capped():
    m = model(k=4, placement="alternating")
    x = probe_points(m, 2, 1, 1, 0)[0][1]
    for cap in (0, 1, 5, 40):
        got = hilbert_weight(m, x, tail_budget=1e-9, max_expansions=cap)
        assert _as_tuple(got) == reference_hilbert_weight(m, x, 1e-9, cap)


@pytest.mark.parametrize("placement", ["right", "left"])
def test_integer_walk_rejects_support_cell_endpoints(placement):
    m = model(k=3, placement=placement)
    for gen in (1, 2):
        support = m.support_cells(gen)[0].cell
        for x in (support.left, support.right):
            with pytest.raises(BoundaryError):
                hilbert_weight(m, x, tail_budget=1e-9)
            with pytest.raises(BoundaryError):
                reference_hilbert_weight(m, x, tail_budget=1e-9)


def _reference_cell_integral(m, cell, p, levels, nodes, budget, scale):
    """The three-pass version with one `hilbert_weight` walk per point: inner
    fine panels evaluated a second time.  Also returns the largest |mid|."""
    peak = 0.0

    def panel_sum(panels):
        nonlocal peak
        xs, ws = hilbert._GAUSS[nodes]
        total = 0.0
        worst = 0.0
        for pa, pb in panels:
            half = (pb - pa) / 2
            mid = (pa + pb) / 2
            for xi, wi in zip(xs, ws):
                hv = hilbert.hilbert_weight(m, mid + half * Q(xi), tail_budget=budget)
                worst = max(worst, hv.width / scale)
                peak = max(peak, abs(hv.value.mid))
                total += wi * float(half) * abs(hv.value.mid) ** p
        return total, worst

    fine_panels = hilbert._edge_panels(cell.left, cell.right, levels + 1)
    fine, worst = panel_sum(fine_panels)
    h = (cell.right - cell.left) / 2
    inner_coarse, w2 = panel_sum([(cell.left, cell.left + h * Q(1, 3 ** levels)),
                                  (cell.right - h * Q(1, 3 ** levels), cell.right)])
    inner_fine, w3 = panel_sum(fine_panels[:2] + fine_panels[-2:])
    return fine, fine - inner_fine + inner_coarse, max(worst, w2, w3), peak


@pytest.mark.parametrize("k,levels,nodes", [(3, 0, 2), (4, 1, 3), (6, 2, 3)])
def test_cell_integral_reuses_fine_panels(monkeypatch, k, levels, nodes):
    """The cell model gives the per-point walks' integrals to within what
    the budget lets each point move, and runs no `hilbert_weight` walk."""
    m = model(k=k, placement="alternating")
    cell = m.support_cells(1)[0].cell
    scale = k * float(m.w_value(1))
    budget = 2e-3 * scale
    args = (m, cell, 2, levels, nodes, budget, scale)
    ref_fine, ref_coarse, ref_worst, peak = _reference_cell_integral(*args)

    def no_walk(*a, **kw):
        raise AssertionError("a point walk ran")

    monkeypatch.setattr(hilbert, "hilbert_weight", no_walk)
    fine, coarse, worst, expansions = hilbert._cell_integral(*args)
    # both enclosures hold Hw(x) and are at most `budget` wide, so their
    # midpoints differ by at most `budget`; the panel weights sum to |S| in
    # each of the two sums
    p = 2
    tol = float(cell.length) * ((peak + budget) ** p - peak ** p)
    assert abs(fine - ref_fine) <= tol
    assert abs(coarse - ref_coarse) <= tol
    assert worst <= 1.00001 * budget / scale and ref_worst <= 1.00001 * budget / scale
    assert expansions > 0


@pytest.mark.parametrize("placement", ["right", "left", "alternating"])
@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
def test_cell_field_encloses_hilbert_weight(k, placement):
    """At every quadrature point of a support cell the cell model's
    enclosure meets the point walk's and is no wider than the budget."""
    m = model(k=k, placement=placement)
    for gen in (1, 2):
        cells = m.support_cells(gen)
        cell = cells[len(cells) // 2].cell
        budget = 2e-3 * k * float(m.w_value(gen))
        field = treewalk.CellField(m, cell, budget)
        for pa, pb in hilbert._edge_panels(cell.left, cell.right, 2):
            half, mid = (pb - pa) / 2, (pa + pb) / 2
            for xi in hilbert._GAUSS[2][0]:
                x = mid + half * Q(xi)
                lo, hi = field.enclose(x)
                hv = hilbert_weight(m, x, tail_budget=budget)
                assert lo <= hv.value.hi and hv.value.lo <= hi
                assert hi - lo <= budget * (1 + 1e-9)


# Reference copy of the descent that `CellField` ran before it read S's
# carrier chain from `WeightModel.carriers_holding`: it sorts every block of
# the chain into near, far or overlap.  The library must split the mass the
# same way, block for block and in the same order.

def _reference_split_around(gc, left, count, lo, hi):
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


def _reference_place(field, gc, lo, hi):
    """-1 or 1 if mass in [lo, hi] is far to the left or right of S, 0 if
    [lo, hi] overlaps S, None if it is near."""
    r = gc.den // field.xd
    if hi <= gc.x - 2 * r:
        return -1
    if lo >= gc.x + 2 * r:
        return 1
    return 0 if lo < gc.x + r and hi > gc.x - r else None


def _reference_descend(field):
    """Expand the carriers that hold S, from the root down to S's own.

    Returns the near blocks as (gen, left in support-cell units, count),
    the far blocks as (gen, left, count), the far support cells as
    (gen, left), on each generation's scale, and the exactly evaluated
    support cells as (a, b, w bounds).
    """
    up, children = 3 ** field.model.k, 3 ** (field.model.k - 1)
    near, far, slivers, exact = [], [], [], []
    gen, left = 0, 0
    while True:
        gc = field._consts(gen)
        sl = left + gc.sliver
        side = _reference_place(field, gc, sl, sl + gc.slen)
        r = gc.den // field.xd
        if side == 0 and (sl, sl + gc.slen) != (gc.x - r, gc.x + r):
            raise ValueError("not a support cell of the model")
        if side is None or side == 0:
            exact.append((Q(sl, gc.den), Q(sl + gc.slen, gc.den), gc.w_next))
        else:
            slivers.append((gen, sl))
        run_left, gen, left = (left + gc.third) * up, gen + 1, None
        gc = field._consts(gen)
        r2 = 2 * (gc.den // field.xd)
        for piece in _reference_split_around(gc, run_left, children, gc.x - r2, gc.x + r2):
            piece_side = _reference_place(field, gc, *field._mass_span(gc, *piece))
            if piece_side is None:
                near.append((gen, piece[0] // field.xd, piece[1]))
            elif piece_side == 0:
                left = piece[0]
            else:
                far.append((gen, *piece))
        if side == 0:
            return near, far, slivers, exact
        if left is None:
            raise ValueError("not a support cell of the model")


@pytest.mark.parametrize("placement", ["right", "left", "alternating"])
@pytest.mark.parametrize("k", range(2, 15))
def test_cell_field_descent_matches_reference(k, placement):
    """The near carrier, far runs, far support cells and S's own indicator
    are those of the reference descent, on the first, middle and last
    support cell of each generation."""
    m = model(k=k, depth=1, placement=placement)
    for gen in range(1, 4 if k < 10 else 3):
        count = m.jcell_count(gen)
        for branch in sorted({0, count // 2, count - 1}):
            cell, _side = m.place_core(m.jcell(gen, branch), gen)
            field = treewalk.CellField(m, cell, 2e-3 * k * float(m.w_value(gen)))
            near, far, slivers, exact = _reference_descend(field)
            assert near == [(*field.near, 1)]
            assert field._descend() == (field.near, far, slivers)
            assert exact == [(Q(field.xn - 1, field.xd), Q(field.xn + 1, field.xd), field.w)]
            assert (exact[0][0], exact[0][1]) == (cell.left, cell.right)


def test_cell_field_rejects_a_cell_that_is_not_a_support_cell():
    m = model(k=3)
    support = m.support_cells(1)[0]
    for cell in (support.core, support.cell.parent(), m.support_cells(2)[0].cell.parent()):
        with pytest.raises(ValueError):
            treewalk.CellField(m, cell, 1e-3)


def _inside(value: Q, lo: float, hi: float) -> bool:
    return Q(lo) <= value <= Q(hi)


@pytest.mark.parametrize("d_near,d_far", [(2, 3), (2, 50), (7, 8), (40, 41)])
def test_far_series_hold_exact_terms_and_tails(d_near, d_far):
    """Each series term encloses the exact rational term of a mass laid out
    within its bounds, and the returned tail bounds the terms it leaves out.
    R = 1, so e = 1/d; the tolerance makes the series stop early."""
    e_near, e_far = Q(1, d_near), Q(1, d_far)
    bounds = (ratio_bounds(1, d_near), ratio_bounds(1, d_far))
    mass, mass_r = Q(3, 7), ratio_bounds(3, 7)
    tol = 1e-9

    # one carrier, with its mass at either end or split between them
    lo, hi = [], []
    tail = treewalk._cell_series(lo, hi, mass_r, *bounds, tol)
    assert 0 <= tail <= tol and len(lo) >= 2
    for split in (Q(0), Q(1, 3), Q(1)):
        def term(j):
            return mass * (split * e_near ** (j + 1) + (1 - split) * e_far ** (j + 1))
        for j in range(len(lo)):
            assert _inside(term(j), lo[j], hi[j])
        assert sum(term(j) for j in range(len(lo), len(lo) + 200)) <= Q(tail)

    # uniform density 2 over distances [d_near, d_far]: term j >= 1 is
    # 2/j * (e_near^j - e_far^j), term 0 is 2 * ln(d_far/d_near)
    lo, hi = [], []
    tail = treewalk._density_series(lo, hi, (2.0, 2.0), 0.0, d_near, d_far, *bounds, tol)
    assert 0 <= tail <= tol
    assert lo[0] <= 2 * math.log(d_far / d_near) <= hi[0]

    def uniform(j):
        return Q(2, j) * (e_near ** j - e_far ** j)
    for j in range(1, len(lo)):
        assert _inside(uniform(j), lo[j], hi[j])
    assert sum(uniform(j) for j in range(len(lo), len(lo) + 200)) <= Q(tail)

    # the same mass in d_far - d_near equal cells of mass 2, each gathered at
    # one end of its cell: off the uniform terms by at most the slack
    lo, hi = [], []
    treewalk._density_series(lo, hi, (2.0, 2.0), 2.0, d_near, d_far, *bounds, tol)
    for end in (0, 1):
        def cells(j):
            return sum(2 * Q(1, d) ** (j + 1) for d in range(d_near + end, d_far + end))
        for j in range(len(lo)):
            assert _inside(cells(j), lo[j], hi[j])
