"""Log-kernel transform and maximal function: identities and enclosures."""

import copy
import gc
import heapq
import inspect
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q

import pytest

from twoweightlab import hilbert, treewalk
from twoweightlab.enclosure import (FloatInterval, add_bounds, log_abs_ratio_interval,
                                    mul_bounds, ratio_bounds, ratio_interval)
from twoweightlab.hilbert import (hilbert_weight, hilbert_pointwise_report, maximal_at,
                                  maximal_report, probe_points)
from twoweightlab.measures import mass, w_slabs
from twoweightlab.treewalk import BoundaryError
from twoweightlab.triadic import IntervalQ
from twoweightlab.weights import PLACEMENTS, ConstructionParams, build_construction


def model(k=4, depth=2, placement="right"):
    return build_construction(
        ConstructionParams(k=k, depth=depth, placement=placement))


# the walks' log kernel takes a, b and x as integers on one scale; every
# point of the indicator tests below is a multiple of 1/SCALE
SCALE = 84


def indicator(a, b, x) -> tuple[float, float]:
    """Bounds on log|x - a| - log|x - b| from `treewalk._indicator_bounds`."""
    ints = [Q(v) * SCALE for v in (a, b, x)]
    assert all(v.denominator == 1 for v in ints)
    return treewalk._indicator_bounds(*(v.numerator for v in ints))


def test_indicator_closed_forms():
    for (a, b, x), want in (((0, 1, 2), math.log(2)),
                            ((Q(1, 4), Q(3, 4), Q(1, 2)), 0.0),
                            ((0, 1, Q(1, 3)), -math.log(2))):
        lo, hi = indicator(a, b, x)
        assert lo <= want <= hi and hi - lo < 1e-12, (a, b, x)


def test_indicator_endpoint_rejection():
    with pytest.raises(BoundaryError):
        indicator(0, 1, 1)
    with pytest.raises(BoundaryError):
        indicator(0, 1, 0)


def test_indicator_additivity():
    a, b, c, x = Q(0), Q(2, 7), Q(1), Q(5, 3)
    whole = indicator(a, c, x)
    parts = add_bounds(*indicator(a, b, x), *indicator(b, c, x))
    assert whole[0] <= parts[1] and parts[0] <= whole[1]
    assert whole[1] - whole[0] < 1e-12 and parts[1] - parts[0] < 1e-12


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
    """Points of right-placed support cells mirror into left-placed ones."""
    right = model(k=3)
    left = model(k=3, placement="left")
    deep, shallow = right.support_cells(2)[1].cell, right.support_cells(1)[0].cell
    for x in (Q(7, 10), deep.left + deep.length * Q(2, 7),
              shallow.right - shallow.length * Q(1, 3 ** 8)):
        a = hilbert_weight(right, x, tail_budget=1e-4)
        b = hilbert_weight(left, 1 - x, tail_budget=1e-4)
        assert abs(a.value.mid + b.value.mid) < 3e-4


def test_probe_points_deterministic_and_inside():
    m = model(k=6)
    pts = probe_points(m, 2, 5, 2, seed=9)
    again = probe_points(m, 2, 5, 2, seed=9)
    assert [(c.address, x) for c, x in pts] == [(c.address, x) for c, x in again]
    for cell, x in pts:
        assert cell.left <= x < cell.right


def test_pointwise_report_widths_and_values():
    m = model(k=6)
    rep = hilbert_pointwise_report(m, 2, cells_per_gen=4, seed=3)
    assert rep["max_rel_width"] <= 0.01
    for row in rep["rows"]:
        assert row["w"] == m.w_value(row["gen"])
        assert row["converged"]
    assert rep["min_ratio"] > 1


def test_pointwise_report_walks_a_wide_point_again(monkeypatch):
    """A first walk that converges wider than REL_WIDTH of |mid| is redone
    with the budget 0.8 * REL_WIDTH * |mid|."""
    m = model(k=4)
    real = hilbert.hilbert_weight
    walks = {}  # x -> [(tail_budget, returned value)]

    def first_walk_wide(model_, x, tail_budget=1e-6):
        hv = real(model_, x, tail_budget)
        if x not in walks:
            half = 0.15 * abs(hv.value.mid)
            hv = hilbert.HilbertValue(FloatInterval(hv.value.mid - half, hv.value.mid + half),
                                      2 * half, hv.expansions, True)
        walks.setdefault(x, []).append((tail_budget, hv))
        return hv

    monkeypatch.setattr(hilbert, "hilbert_weight", first_walk_wide)
    rep = hilbert_pointwise_report(m, 2, cells_per_gen=3, seed=5)
    assert len(walks) == len(rep["rows"]) == 4
    assert all(len(calls) == 2 for calls in walks.values())
    for (_, first), (second_budget, _) in walks.values():
        assert first.value.mid != 0 and first.width > hilbert.REL_WIDTH * abs(first.value.mid)
        assert second_budget == 0.8 * hilbert.REL_WIDTH * abs(first.value.mid)
    assert rep["max_rel_width"] <= hilbert.REL_WIDTH


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
        probe_points(m, 1, 1, 0, 0)


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


def test_norm_ratio_takes_the_models_p():
    m = build_construction(ConstructionParams(k=4, p=Q(3), r=Q(5, 4), depth=2))
    with pytest.raises(ValueError, match="differs from the model's p=3"):
        hilbert.hilbert_norm_ratio(m, cells_per_gen=1)


def test_walk_leaves_no_reference_cycle():
    """A walk's pending blocks are freed by reference counting when it
    returns; none wait for the cyclic collector."""
    m = model(k=6)
    x = probe_points(m, 2, 1, 1, 0)[0][1]
    gc.collect()
    gc.disable()
    try:
        hv = hilbert_weight(m, x, tail_budget=1e-6 * 6 * float(m.w_value(2)))
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


@pytest.mark.parametrize("extra_gens", [-1, -3, -4])
def test_maximal_rejects_negative_extra_gens(extra_gens):
    m = model(k=4)
    x = probe_points(m, 1, 1, 1, 0)[0][1]
    with pytest.raises(ValueError, match="extra_gens"):
        maximal_at(m, x, extra_gens)


# ---------------------------------------------------------------------------
# Reference copy of `maximal_at` with one `mass` query per slab and the
# window loop on Fractions.  The library's version reads its slab masses from
# one descent per cut and compares windows on integers; it must give
# bit-identical results.

def _reference_maximal_at(model, x, extra_gens=2):
    x = Q(x)
    chain = model.carriers_holding(x, x)
    home_gen = len(chain)
    k = model.k
    points = {Q(0), Q(1)}
    for gen, index in enumerate(chain):
        den = 3 ** (gen * k)
        core_l, core_r = Q(3 * index + 1, 3 * den), Q(3 * index + 2, 3 * den)
        hl = Q(index * 3 ** k + model.support_offset(gen + 1), den * 3 ** k)
        hr = hl + Q(1, den * 3 ** k)
        points.update({Q(index, den), Q(index + 1, den), core_l, core_r, hl, hr})
    if not hl <= x < hr:
        raise ValueError(f"x={x} lies outside the support of w")
    lam = hr - hl
    d = lam / 16
    while d < 2:
        for cand in (x - d, x + d):
            if 0 < cand < 1:
                points.add(cand)
        d *= 2
    for t_left in (hl - lam, hr):
        if core_l <= t_left and t_left + lam <= core_r:
            points.update({t_left, t_left + lam,
                           t_left + lam / 3, t_left + 2 * lam / 3})
    cuts = sorted(p for p in points if 0 <= p <= 1)
    depth = (home_gen + extra_gens + 2) * model.k
    slabs = []
    for a, b in zip(cuts, cuts[1:]):
        if a >= b:
            continue
        m = mass(model, "w", IntervalQ(a, b), depth)
        slabs.append({"a": a, "b": b, "mass": m})
    idx_x = next(i for i, s in enumerate(slabs) if s["a"] <= x < s["b"])
    n = len(slabs)
    prefix_hi = [Q(0)]
    prefix_lo = [Q(0)]
    for s in slabs:
        prefix_hi.append(prefix_hi[-1] + s["mass"].hi)
        prefix_lo.append(prefix_lo[-1] + s["mass"].lo)
    w_home = model.w_value(home_gen)
    upper = w_home
    lower = w_home
    for i in range(idx_x + 1):
        for j in range(idx_x, n):
            if i == idx_x and j == idx_x:
                continue
            num = prefix_hi[j + 1] - prefix_hi[i]
            lo_pt = x if i == idx_x else slabs[i]["b"]
            hi_pt = x if j == idx_x else slabs[j]["a"]
            denom = hi_pt - lo_pt
            if denom <= 0:
                continue
            upper = max(upper, num / denom)
            num_lo = prefix_lo[j + 1] - prefix_lo[i]
            win = slabs[j]["b"] - slabs[i]["a"]
            if win > 0:
                lower = max(lower, num_lo / win)
    return {"x": x, "gen": home_gen, "w": w_home,
            "lower": lower, "upper": upper,
            "ratio_upper": float(upper / w_home)}


def _maximal_points(m, gen, rng):
    """Probe midpoints, a seeded sample and the left end of a support cell."""
    xs = [x for _, x in probe_points(m, gen, 2, 1, rng.randrange(100))]
    cell = rng.choice(m.support_cells(gen)).cell
    return xs + [cell.left + cell.length * Q(rng.randrange(1, 997), 997), cell.left]


@pytest.mark.parametrize("k", range(2, 9))
def test_maximal_matches_reference(k):
    rng = random.Random(f"maximal|{k}")
    m = model(k=k, placement=PLACEMENTS[k % 3])
    for gen in (1, 2):
        for x in _maximal_points(m, gen, rng):
            for extra_gens in range(4):
                got = maximal_at(m, x, extra_gens)
                want = _reference_maximal_at(m, x, extra_gens)
                assert got == want and repr(got) == repr(want), (gen, x, extra_gens)


def _chain_point(m, gens, rng):
    """A point in a random core tile of a random carrier chain `gens` deep."""
    step, index = 3 ** m.k, 0
    for _ in range(gens):
        index = index * step + m.u + rng.randrange(m.u)
    return (index + Q(rng.randrange(1, 89), 89)) / step ** gens


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_w_slabs_match_mass(k, placement):
    m = model(k=k, placement=placement)
    rng = random.Random(f"slabs|{k}|{placement}")
    for max_depth in (k, 2 * k, 3 * k):
        last = max_depth // k + 1  # where the descents meet their frontier tiles
        inexact = shared = 0
        for _ in range(6):
            cuts = {Q(rng.randrange(1, 10 ** 6), 10 ** 6) for _ in range(6)}
            cuts |= {_chain_point(m, rng.randrange(1, last + 2), rng) for _ in range(8)}
            tile = _chain_point(m, last, rng)  # two cuts inside one frontier tile
            cuts |= {tile, tile + Q(1, 97 * 3 ** (last * k))}
            cuts = sorted(cuts)
            den = math.lcm(*(c.denominator for c in cuts))
            slabs, scale = w_slabs(m, [c.numerator * (den // c.denominator) for c in cuts],
                                   den, max_depth)
            assert len(slabs) == len(cuts) - 1
            for (a, b), (lo, hi) in zip(zip(cuts, cuts[1:]), slabs):
                want = mass(m, "w", IntervalQ(a, b), max_depth)
                assert (Q(lo, scale), Q(hi, scale)) == (want.lo, want.hi), (a, b)
                inexact += lo < hi
                shared += lo == 0 < hi and a >= tile and b <= tile + Q(1, 97 * 3 ** (last * k))
        assert inexact and shared


@pytest.mark.parametrize("k", [2, 3, 4])
def test_maximal_upper_bounds_window_averages(k):
    # independent of the slabs: every window [a, b] that holds x averages at
    # most `upper`, by `mass` at the default depth
    rng = random.Random(f"windows|{k}")
    m = model(k=k)
    for gen in (1, 2):
        for _, x in probe_points(m, gen, 3, 2, k):
            res = maximal_at(m, x)
            assert res["w"] <= res["lower"] <= res["upper"]
            for _ in range(12):
                size = Q(1, 3 ** rng.randrange((gen + 2) * k))
                a = max(Q(0), x - size * Q(rng.randrange(0, 64), 63))
                b = min(Q(1), x + size * Q(rng.randrange(0, 64), 63))
                if a < b:
                    got = mass(m, "w", IntervalQ(a, b))
                    assert got.lo / (b - a) <= res["upper"], (x, a, b)


# ---------------------------------------------------------------------------
# Reference copy of the adaptive walk on Fraction coordinates, with first-order
# brackets only.  The library's walk runs on integer coordinates and adds
# second-order brackets, so it must meet this oracle's enclosures, converge
# wherever it does, and do so in far fewer expansions.

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


def _width(iv: FloatInterval) -> float:
    return iv.hi - iv.lo


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
            width = _width(enc)
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
        if not unresolved and _width(acc) + pending_width <= tail_budget:
            break
        if not heap:
            break
        _neg_w, ident = heapq.heappop(heap)
        blk, enc = blocks.pop(ident)
        if enc is None:
            unresolved -= 1
        else:
            pending_width -= _width(enc)
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
    return (total.lo, total.hi, _width(total), expansions,
            _width(total) <= tail_budget * (1 + 1e-9) + 1e-300)


def _meets(hv, ref) -> bool:
    return hv.value.lo <= ref[1] and ref[0] <= hv.value.hi


def _equivalence_points(m, gen, seed):
    rng = random.Random(f"equiv|{m.k}|{gen}|{seed}")
    pts = [x for _cell, x in probe_points(m, gen, 2, 1, seed)]
    # points of the first and last support cell off the probe grid
    for support in (m.support_cells(gen)[0].cell, m.support_cells(gen)[-1].cell):
        pts.append(support.left + support.length * Q(rng.randrange(1, 97), 97))
    return pts


def _check_against_reference(m, cases):
    """Every enclosure meets the reference's and converges where it does;
    returns the two expansion totals."""
    got_total = ref_total = 0
    for x, budget in cases:
        got = hilbert_weight(m, x, tail_budget=budget)
        ref = reference_hilbert_weight(m, x, tail_budget=budget)
        assert _meets(got, ref), (x, budget)
        assert got.converged or not ref[4], (x, budget)
        got_total += got.expansions
        ref_total += ref[3]
    return got_total, ref_total


@pytest.mark.parametrize("k", [2, 3, 6, 8, 10, 12])
@pytest.mark.parametrize("placement", ["right", "left", "alternating"])
def test_integer_walk_matches_fraction_reference(k, placement):
    m = model(k=k, placement=placement)
    cases = [(x, rel * k * float(m.w_value(gen)))
             for gen in (1, 2) for x in _equivalence_points(m, gen, seed=gen)
             for rel in (0.05, 0.01, 0.002)]
    got, ref = _check_against_reference(m, cases)
    assert 5 * got <= ref, (got, ref)


def test_integer_walk_matches_reference_when_capped(monkeypatch):
    """A capped walk still returns a certified enclosure: it meets the
    reference's at the same cap and one that the reference took 2,000
    expansions for.  The walk counts x's two chain carriers as expansions
    before it checks the cap."""
    m = model(k=4, placement="alternating")
    x = probe_points(m, 2, 1, 1, 0)[0][1]
    assert len(m.carriers_holding(x, x)) == 2
    full = reference_hilbert_weight(m, x, 1e-9, 2000)
    for cap in (0, 1, 5, 40):
        monkeypatch.setattr(treewalk, "_MAX_EXPANSIONS", cap)
        got = hilbert_weight(m, x, tail_budget=1e-9)
        assert got.expansions == max(cap, 2) and not got.converged
        assert _meets(got, reference_hilbert_weight(m, x, 1e-9, cap)), cap
        assert _meets(got, full), cap


def test_walk_converges_where_first_order_brackets_hit_the_cap():
    """At these k = 8 probe points the first-order walk stops at its
    20,000-expansion cap about 4e-3 wide; the budget is 1e-3."""
    m = model(k=8, placement="alternating")
    for _cell, x in probe_points(m, 2, 4, 1, 0):
        hv = hilbert_weight(m, x, tail_budget=1e-3)
        assert hv.converged and hv.expansions < 1000, (x, hv)
    assert _meets(hv, reference_hilbert_weight(m, x, 1e-3, 2000))


def _near_ends(cell, js):
    """Points 3^-j of the cell's length from either end of it."""
    return [x for j in js for x in (cell.left + cell.length * Q(1, 3 ** j),
                                    cell.right - cell.length * Q(1, 3 ** j))]


@pytest.mark.parametrize("k", range(2, 13))
def test_walk_converges_next_to_support_cell_ends(k):
    """Points 3^-3..3^-12 of a support cell's length from either end of it,
    on the first cell of generation 1 and the last of generation 2: the
    core tile next to S is a block of its own and no run nears x, so every
    walk converges down to 1e-9 * k * w_g with second-order brackets alone,
    and meets the reference walk's enclosure."""
    m = model(k=k, placement=PLACEMENTS[k % 3])
    for gen, support in ((1, m.support_cells(1)[0]), (2, m.support_cells(2)[-1])):
        scale = k * float(m.w_value(gen))
        for x in _near_ends(support.cell, range(3, 13)):
            ref = reference_hilbert_weight(m, x, 1e-2 * scale, 400)
            for rel in (1e-3, 1e-6, 1e-9):
                hv = hilbert_weight(m, x, tail_budget=rel * scale)
                assert hv.converged, (x, rel, hv)
                assert _meets(hv, ref), (x, rel)


# An independent 50-digit oracle for whole Hilbert points.  It sums the
# carrier tree directly, with each support cell's log term in interval
# arithmetic, down to carriers whose centre is at least two of their lengths
# from x.  Such a carrier's field is the series
#     M/d * sum over n of C_n * (L/d)^n,    d = x - centre,
# where C_n are the central moments of the carrier's mass on [0, 1], exact
# rationals from the self-similar recursion, and the series after
# `_ORACLE_TERMS` terms is at most M/|d| times a geometric tail in L/(2|d|).

_ORACLE_TERMS = 40


def _oracle_moments(m):
    """Central moments C_n, n < _ORACLE_TERMS, of a carrier of generation g
    rescaled to [0, 1] with unit mass, for each phase g % period.

    The carrier's mass is u + 1 equal parts: the tiles i = u..2u-1, each a
    copy of the next generation's carrier on [i, i+1]/(3u), and the support
    cell [s, s+1]/(3u) at uniform density.  So the raw moments satisfy
        M_n(g) = (sum over tiles and j of C(n,j) i^(n-j) M_j(g+1)
                  + ((s+1)^(n+1) - s^(n+1))/(n+1)) / ((3u)^n (u+1)),
    a contraction in M_n(g+1) whose fixed point over the period is exact."""
    u = m.u
    period = 2 if m.params.placement == "alternating" else 1
    raw = [[] for _ in range(period)]
    for n in range(_ORACLE_TERMS):
        scale = Q(1, (3 * u) ** n * (u + 1))
        alpha = []
        for phase in range(period):
            nxt, s = raw[(phase + 1) % period], m.support_offset(phase + 1)
            tiles = sum(math.comb(n, j) * sum(i ** (n - j) for i in range(u, 2 * u)) * nxt[j]
                        for j in range(n))
            alpha.append(scale * (tiles + Q((s + 1) ** (n + 1) - s ** (n + 1), n + 1)))
        beta = u * scale  # the weight of M_n(g+1)
        # M_n(0) = alpha_0 + beta alpha_1 + ... + beta^period M_n(0)
        first = sum(a * beta ** h for h, a in enumerate(alpha)) / (1 - beta ** period)
        raw[0].append(first)
        if period == 2:
            raw[1].append(alpha[1] + beta * first)
    return [[sum(math.comb(n, j) * ms[j] * Q(-1, 2) ** (n - j) for j in range(n + 1))
             for n in range(_ORACLE_TERMS)] for ms in raw]


def _oracle_hilbert(m, x):
    """Interval (lo, hi) on Hw(x), as mpmath floats, at 50 digits."""
    from mpmath import iv
    iv.dps = 50

    def exact(q):
        return iv.mpf(q.numerator) / q.denominator

    moments = [[exact(c) for c in cs] for cs in _oracle_moments(m)]
    k, total = m.k, iv.mpf(0)
    stack = [(0, 0)]  # carriers as (generation, index at depth g*k)
    while stack:
        g, i = stack.pop()
        length = Q(1, 3 ** (g * k))
        d = x - (i + Q(1, 2)) * length
        if abs(d) >= 2 * length:
            ratio = exact(length / d)
            series = iv.mpf(0)
            for c in reversed(moments[g % len(moments)]):
                series = series * ratio + c
            rho = abs(length / d) / 2
            tail = exact(rho ** _ORACLE_TERMS / (1 - rho))
            total += exact(m.carrier_w_mass(g) / d) * (series + iv.mpf([-1, 1]) * tail)
            continue
        tile = length / 3 ** k
        a = (i * 3 ** k + m.support_offset(g + 1)) * tile
        total += exact(m.w_value(g + 1)) * iv.log(exact(abs(x - a) / abs(x - a - tile)))
        stack.extend((g + 1, (3 * i + 1) * 3 ** (k - 1) + t) for t in range(m.u))
    return total.a, total.b


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_hilbert_weight_contains_a_50_digit_oracle(k, placement):
    """At probe points of generations 1 and 2 and at points 3^-8 of a
    support cell from either end of it, every enclosure for budgets
    1e-3..1e-6 converges and contains the oracle, which is at least 100
    times narrower than the budget."""
    pytest.importorskip("mpmath")
    m = model(k=k, placement=placement)
    support = m.support_cells(2)[0].cell
    points = [x for gen in (1, 2) for _cell, x in probe_points(m, gen, 2, 1, 0)]
    points += _near_ends(support, [8])
    for x in points:
        lo, hi = _oracle_hilbert(m, x)
        for budget in (1e-3, 1e-4, 1e-5, 1e-6):
            assert hi - lo <= budget / 100
            hv = hilbert_weight(m, x, tail_budget=budget)
            assert hv.converged, (x, budget)
            assert hv.value.lo <= lo and hi <= hv.value.hi, (x, budget, float(lo), float(hi))


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


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_walk_names_a_carrier_chain_that_never_ends(k, placement):
    """1/2 and 5/8 lie in nested cores at every generation (but 5/8 at
    k = 3, where it is off the support): the walk raises the ValueError of
    `carriers_holding` instead of overflowing a float hundreds of
    generations down."""
    m = model(k=k, placement=placement)
    for x in (Q(1, 2), Q(5, 8)):
        if (k, x) == (3, Q(5, 8)):
            assert len(m.carriers_holding(x, x)) == 2
            continue  # see test_hilbert_weight_rejects_points_off_the_support
        message = f"the carrier chain at {x} runs past generation 400 without ending"
        with pytest.raises(ValueError, match=message):
            m.carriers_holding(x, x)
        with pytest.raises(ValueError, match=message):
            hilbert_weight(m, x)


def test_hilbert_weight_rejects_points_off_the_support():
    """Off the unit interval, in a gap of the root carrier and at 5/8 for
    k = 3, which lies in a generation-1 carrier but not in its support
    cell."""
    for placement in PLACEMENTS:
        m = model(k=3, placement=placement)
        gap = Q(1, 10)  # in the root carrier's first third
        for x in (Q(2), Q(-5, 7), gap, Q(5, 8)):
            with pytest.raises(ValueError, match="lies outside the support of w"):
                hilbert_weight(m, x, tail_budget=1e-3)


# Outputs pinned bit for bit: (k, placement, x, budget / (k * w_2), and
# hilbert_weight's (lo, hi, expansions)); then (k, placement, gen, tail,
# expansions, coefficients) of the CellField on support cell 1 of generation
# gen at budget 2e-3 * k * w_gen.  The points are probe points and points
# 3^-9 of support cell 1 of generation 2 from either end of it.  A change
# that moves an enclosure on purpose records the new values here.

_PINNED_POINTS = [
    (2, 'right', Q(85, 162), 0.0001, (7.74617957782826, 7.7470853442505625, 13)),
    (2, 'left', Q(77, 162), 0.0001, (-7.747023814140997, -7.746243551333234, 13)),
    (2, 'alternating', Q(77, 162), 0.0001, (-9.222757868489241, -9.221955202000183, 13)),
    (2, 'right', Q(826687, 1594323), 1e-10, (-33.60094466738045, -33.60094466640531, 186)),
    (6, 'right', Q(560845, 1062882), 0.0001, (53.582214676926704, 53.58715999529307, 46)),
    (6, 'left', Q(560357, 1062882), 0.0001, (-51.610319308707474, -51.60508288921317, 45)),
    (6, 'alternating', Q(560357, 1062882), 0.0001, (-51.6401347367626, -51.63489951175275, 45)),
    (6, 'right', Q(3510718928, 10460353203), 1e-10, (120.49575328482953, 120.4957532901758, 1469)),
    (12, 'right', Q(219600632845, 564859072962), 0.0001,
     (107.50730269505614, 107.51769118004249, 67)),
    (12, 'left', Q(219600278549, 564859072962), 0.0001,
     (-117.18926021080031, -117.17936070632395, 66)),
    (12, 'alternating', Q(219600278549, 564859072962), 0.0001,
     (-117.18935396784757, -117.17945446851905, 66)),
    (12, 'right', Q(1853926752796102, 5559060566555523), 1e-10,
     (13.617903646700071, 13.617903657482378, 2185)),
    (2, 'left', Q(767636, 1594323), 1e-06, (33.60093995452627, 33.60094950912337, 36)),
    (6, 'alternating', Q(3505896595, 10460353203), 0.0001,
     (-150.81681496658777, -150.81236336389085, 31)),
    (12, 'alternating', Q(1853923266011699, 5559060566555523), 0.0001,
     (-59.36754713259681, -59.356906918140936, 58)),
]

_PINNED_FIELDS = [
    (3, 'left', 2, 0.00043092801673014355, 14, [
        (-22.558963585662383, -22.547272154335754),
        (-6.087404457524923, -6.083959564253323),
        (-2.4464677644419073, -2.4450852201064843),
        (-1.1891598206674323, -1.1883471275924447),
        (-0.6184708685552212, -0.6178534645164483),
        (-0.33250633747917524, -0.3320058580820091),
        (-0.18229608760858987, -0.18189451918894725),
        (-0.10130170645011839, -0.10098978349841872),
        (-0.056901421647205054, -0.05666509637945599),
        (-0.032227675835135326, -0.03205315576970385),
        (-0.01841042058277102, -0.018284150870722722),
        (-0.01058781253042965, -0.010497981083107791),
        (-0.00612605573304883, -0.006063038412907007),
        (-0.0035639644629948033, -0.0035202785225440496),
        (-0.002083682070826657, -0.0020537029439775195),
        (-0.0012236734934609845, -0.0012032802162887397),
        (-0.0007215186325825313, -0.0007077519950563795),
        (-0.0004269819579989614, -0.00041775120883927883),
        (-0.0002535140703868538, -0.00024736170198171986),
        (-0.00015097064673690394, -0.00014689197107596472),
        (-9.01494658403644e-05, -8.745854795310299e-05),
        (-5.396467243452017e-05, -5.2197067532592964e-05),
        (-2.023992229233409e-05, -2.0239922292333424e-05),
    ]),
    (6, 'alternating', 2, 0.0008716970202665819, 21, [
        (-68.0975307460362, -68.06801886266341),
        (-7.463344118189887, -7.457146713249844),
        (-2.8128904634249925, -2.8113225297185607),
        (-1.3165413376334134, -1.3161907601895282),
        (-0.6614575240507511, -0.6613826126527289),
        (-0.34305989229004114, -0.34305016371069885),
        (-0.1811931131547779, -0.18119308575649318),
        (-0.09691406566204706, -0.09691404422735382),
        (-0.05230964153415571, -0.052309625296999236),
        (-0.02843276057755565, -0.02843274858648887),
        (-0.015574980430136718, -0.015574971752739537),
        (-0.008581555711910754, -0.008581549536780609),
        (-0.004753643282861424, -0.004753638949331726),
        (-0.002645624719909369, -0.0026456217144308052),
        (-0.0014793622756690465, -0.0014793602121987786),
        (-0.0008305908955023404, -0.0008305894911255142),
        (-0.00046807010490885256, -0.0004680691563891143),
        (-0.00026466973904934926, -0.0002646691027267576),
        (-0.0001501201771057693, -0.00015011975277822215),
        (-8.538850781978831e-05, -8.538822637672555e-05),
        (-4.869462968957418e-05, -4.869444391925702e-05),
    ]),
]


@pytest.mark.parametrize("k,placement,x,rel,expected", _PINNED_POINTS)
def test_hilbert_weight_is_pinned(k, placement, x, rel, expected):
    m = model(k=k, placement=placement)
    hv = hilbert_weight(m, x, tail_budget=rel * k * float(m.w_value(2)))
    assert (hv.value.lo, hv.value.hi, hv.expansions) == expected


# hilbert_norm_ratio at the benchmark's task shapes (k, edge_levels, seed),
# one cell per generation, gen_cap 2, budget_rel 2e-3: ratio, indicator,
# per_gen, worst_point_rel_width and expansions, bit for bit.

_PINNED_NORMS = [
    (6, 3, 0, 1.5714397939572615, 0.00024109289324591827,
     [0.16484092154965702, 0.1480660545721504], 0.0010298632298628135, 38),
    (6, 3, 1, 1.714258864568425, 0.00020259042026876035,
     [0.16484092154965702, 0.17633118424857314], 0.0008759114035272172, 37),
    (6, 3, 2, 1.8304325092398614, 0.0001776886148892229,
     [0.16484092154965702, 0.2011352624635698], 0.0007801220567545433, 36),
    (6, 3, 3, 1.7062855374768275, 0.00020448839521526404,
     [0.16484092154965702, 0.17468843278713012], 0.0008808489619960642, 37),
    (12, 1, 0, 1.9461515535439005, 0.0003370080375135832,
     [0.0009335197380631409, 0.0008887637956569756], 0.0009128593802873483, 73),
    (12, 1, 1, 1.989037295973313, 0.00032263008638282626,
     [0.0009335197380631409, 0.0009283655228250774], 0.0009891483600988986, 73),
    (12, 1, 2, 1.9576988423791033, 0.00033304354150384994,
     [0.0009335197380631409, 0.0008993419234853551], 0.0009116911271787892, 73),
    (12, 1, 3, 1.7829220276049287, 0.00040155207432449036,
     [0.0009335197380631409, 0.0007459285823413035], 0.0009068810841703445, 70),
]


@pytest.mark.parametrize("k,levels,seed,ratio,indicator,per_gen,worst,expansions",
                         _PINNED_NORMS)
def test_norm_ratio_is_pinned(k, levels, seed, ratio, indicator, per_gen, worst, expansions):
    m = model(k=k, depth=2)
    res = hilbert.hilbert_norm_ratio(m, p=2, nodes=3, edge_levels=levels, cells_per_gen=1,
                                     gen_cap=2, seed=seed, budget_rel=2e-3)
    assert (res["ratio"], res["indicator"], res["per_gen"], res["worst_point_rel_width"],
            res["expansions"]) == (ratio, indicator, per_gen, worst, expansions)


@pytest.mark.parametrize("gen", range(4))
def test_walk_returns_the_width_it_stopped_on(gen):
    # at 1e-10 * k * w_gen the walk runs at float precision: its stopping sum
    # must bound the pending widths from above and its returned bounds must
    # be no wider, or it comes back unconverged below the expansion cap
    m = model(k=5, placement="alternating")
    budget = 1e-10 * 5 * float(m.w_value(gen))
    support = m.support_cells(2)[1].cell
    hv = hilbert_weight(m, support.left + support.length * Q(380064650, 1000000007),
                        tail_budget=budget)
    assert hv.converged and hv.width <= budget
    assert hv.expansions < 20000


@pytest.mark.parametrize("k,placement,gen,tail,expansions,coeffs", _PINNED_FIELDS)
def test_cell_field_is_pinned(k, placement, gen, tail, expansions, coeffs):
    m = model(k=k, placement=placement)
    field = treewalk.CellField(m, m.support_cells(gen)[1].cell,
                               2e-3 * k * float(m.w_value(gen)))
    assert (field.coeffs, field.tail, field.expansions) == (coeffs, tail, expansions)


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
    the budget lets each point move, and runs no point walk."""
    m = model(k=k, placement="alternating")
    cell = m.support_cells(1)[0].cell
    scale = k * float(m.w_value(1))
    budget = 2e-3 * scale
    args = (m, cell, 2, levels, nodes, budget, scale)
    ref_fine, ref_coarse, ref_worst, peak = _reference_cell_integral(*args)

    def no_walk(*a, **kw):
        raise AssertionError("a point walk ran")

    monkeypatch.setattr(hilbert, "hilbert_weight", no_walk)
    monkeypatch.setattr(treewalk, "walk", no_walk)
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
    """At every quadrature point of the first, middle and last support cell
    of a generation, and at u = +-(1 - 3^-12) next to its ends, the cell
    model's enclosure meets the point walk's and is no wider than the
    budget."""
    m = model(k=k, placement=placement)
    for gen in (1, 2):
        cells = m.support_cells(gen)
        budget = 2e-3 * k * float(m.w_value(gen))
        # the chain's ends are where a shifted run comes closest to S
        ends = [m.place_core(m.jcell(gen, branch), gen)[0]
                for branch in (0, m.jcell_count(gen) - 1)]
        for cell in dict.fromkeys([cells[len(cells) // 2].cell, *ends]):
            field = treewalk.CellField(m, cell, budget)
            half, mid = cell.length / 2, (cell.left + cell.right) / 2
            points = [mid + half * u for u in (Q(1, 3 ** 12) - 1, 1 - Q(1, 3 ** 12))]
            for pa, pb in hilbert._edge_panels(cell.left, cell.right, 2):
                half, mid = (pb - pa) / 2, (pa + pb) / 2
                points += [mid + half * Q(xi) for xi in hilbert._GAUSS[2][0]]
            for x in points:
                # u = (x - c)/R = xd_S * x - xn_S, over x's denominator
                lo, hi = field.enclose_u(_point(field.xd * x.numerator - field.xn * x.denominator,
                                                x.denominator))
                hv = hilbert_weight(m, x, tail_budget=budget)
                assert lo <= hv.value.hi and hv.value.lo <= hi
                assert hi - lo <= budget * (1 + 1e-9)


def _point(un, ud):
    """The bounds `CellField.enclose_u` reads at u = un/ud: on u, and on the
    log kernel of S's indicator, where x - a and x - b are un + ud and
    un - ud over ud."""
    return (*ratio_bounds(un, ud), *treewalk._indicator_bounds(-ud, ud, un))


# Reference copy of the quadrature before its nodes were integers: each node
# a `Fraction` x, and `CellField.enclose_u` as Horner's rule with `mul_bounds`
# and `add_bounds` at every step.  The library must give the same bits.

def _reference_enclose(field, x):
    xn, xd = x.numerator, x.denominator
    # u = d/xd; over xd * field.xd, x - a and x - b are d + xd and d - xd
    d = field.xd * xn - field.xn * xd
    u_lo, u_hi = ratio_bounds(d, xd)
    lo, hi = field.coeffs[-1]
    for c_lo, c_hi in reversed(field.coeffs[:-1]):
        lo, hi = add_bounds(*mul_bounds(lo, hi, u_lo, u_hi), c_lo, c_hi)
    lo, hi = add_bounds(lo, hi, -field.tail, field.tail)
    i_lo, i_hi = treewalk._indicator_bounds(-xd, xd, d)
    return add_bounds(lo, hi, *mul_bounds(i_lo, i_hi, *field.w))


def _reference_panel_sum(field, panels, p, nodes, scale):
    xs, ws = hilbert._GAUSS[nodes]
    terms = []
    worst = 0.0
    for pa, pb in panels:
        half = (pb - pa) / 2
        mid = (pa + pb) / 2
        for xi, wi in zip(xs, ws):
            lo, hi = _reference_enclose(field, mid + half * Q(xi))
            worst = max(worst, (hi - lo) / scale)
            terms.append(wi * float(half) * abs(0.5 * (lo + hi)) ** p)
    return terms, worst


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k,levels", [(6, 3), (12, 1), (8, 2)])
def test_panel_sums_match_fraction_nodes(k, levels, placement):
    """The integer nodes in u give the terms and worst width of the
    `Fraction` nodes in x bit for bit, on the fine panels and on the coarse
    inner ones, on the first and last support cell of generations 1 and 2."""
    m = model(k=k, placement=placement)
    for gen in (1, 2):
        scale = k * float(m.w_value(gen))
        for branch in (0, m.jcell_count(gen) - 1):
            cell = m.place_core(m.jcell(gen, branch), gen)[0]
            field = treewalk.CellField(m, cell, 2e-3 * scale)
            h, edge = cell.length / 2, Q(1, 3 ** levels)
            cases = [hilbert._edge_panels(cell.left, cell.right, levels + 1),
                     [(cell.left, cell.left + h * edge), (cell.right - h * edge, cell.right)]]
            for x_panels, u_panels in zip(cases, hilbert._quadrature_plan(levels, 3)):
                assert (hilbert._panel_sum(field, u_panels, 2, scale)
                        == _reference_panel_sum(field, x_panels, 2, 3, scale))


@pytest.mark.parametrize("nodes", [2, 3])
@pytest.mark.parametrize("levels", range(9))
def test_quadrature_plan_matches_fraction_nodes(levels, nodes):
    """Every node of the plan is the `Fraction` node mid + half * xi of its
    panel, on the fine edge panels of [-1, 1] and on the coarse inner ones,
    with the panel's half-width and the Gauss weight, and carries the
    bounds that `enclose_u` reads there."""
    xs, ws = hilbert._GAUSS[nodes]
    edge = Q(1, 3 ** levels)
    cases = [hilbert._edge_panels(Q(-1), Q(1), levels + 1), [(Q(-1), edge - 1), (1 - edge, Q(1))]]
    plan = hilbert._quadrature_plan(levels, nodes)
    assert len(plan) == len(cases)
    for panels, planned in zip(cases, plan):
        assert len(planned) == len(panels)
        for (pa, pb), (bn, bd, points) in zip(panels, planned):
            half, mid = (pb - pa) / 2, (pa + pb) / 2
            assert Q(bn, bd) == half
            assert [(wi, Q(un, ud)) for wi, un, ud, _bounds in points] == [
                (wi, mid + half * Q(xi)) for xi, wi in zip(xs, ws)]
            for _wi, un, ud, bounds in points:
                assert ud > 0 and bounds == _point(un, ud)
    assert hilbert._quadrature_plan(levels, nodes) is plan


def _horner_points():
    """Points u of S as (un, ud): both signs, the centre, next to both ends,
    and unreduced or negative forms of the same ratios."""
    near_end = 1 - Q(1, 3 ** 12)
    us = [Q(1, 3), Q(-2, 7), Q(0), near_end, -near_end, Q(1, 10 ** 6), Q(-5, 9)]
    points = [(u.numerator, u.denominator) for u in us]
    points += [(6 * n, 6 * d) for n, d in points[:4]]
    points += [(-n, -d) for n, d in points[:4]]
    return points


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 6, 12])
def test_sign_aware_horner_matches_mul_bounds(k, placement):
    """`enclose_u` gives the bits of Horner's rule through `mul_bounds` and
    `add_bounds`: at u > 0, u < 0 and u = 0 (the one point whose bounds on u
    straddle 0), on the field's coefficients and on coefficients of mixed
    signs, where each end of [lo, hi] takes either sign along the way."""
    m = model(k=k, placement=placement)
    cell = m.support_cells(2)[1].cell
    field = treewalk.CellField(m, cell, 2e-3 * k * float(m.w_value(2)))
    rng = random.Random(f"horner|{k}|{placement}")

    def ends(size):
        return tuple(sorted(rng.choice([0.0, -0.0, rng.uniform(-size, size)]) for _end in (0, 1)))

    def with_coeffs(coeffs, tail):
        other = copy.copy(field)
        other.coeffs, other.tail = coeffs, tail
        return other

    # at u = 0 each product is below 1e-323 times [lo, hi], so only huge
    # coefficients, a zero constant term and a zero tail keep the choice
    # among the four products in the result
    fields = (field, with_coeffs([ends(3) for _j in range(25)], field.tail),
              with_coeffs([(0.0, 0.0)] + [ends(1e300) for _j in range(24)], 0.0))
    branches = set()
    for f in fields:
        for un, ud in _horner_points():
            u_lo, u_hi = ratio_bounds(un, ud)
            branches.add(1 if u_lo > 0 else -1 if u_hi < 0 else 0)
            x = Q(f.xn * ud + un, f.xd * ud)
            assert f.enclose_u(_point(un, ud)) == _reference_enclose(f, x), (un, ud)
    assert branches == {-1, 0, 1}
    assert ratio_bounds(0, 7) == (-5e-324, 5e-324)


def test_walk_constants_live_on_the_model():
    """The walks keep a generation's float bounds on the model under gen and
    a support-cell depth's constants under (gen, xd), built on first use;
    point walks at many denominators add no entry keyed on xd."""
    m = model(k=4)
    assert "_walk_constants" not in vars(m)
    probe, _x = probe_points(m, 2, 1, 1, 3)[0]
    for den in range(50, 90):
        hilbert_weight(m, probe.left + probe.length * Q(den // 2, den), tail_budget=1e-3)
    cache = treewalk._model_constants(m)
    assert cache is vars(m)["_walk_constants"]
    assert 3 <= len(cache) <= 6 and all(isinstance(key, int) for key in cache)
    hilbert.hilbert_norm_ratio(m, cells_per_gen=4, gen_cap=2, edge_levels=2, budget_rel=2e-3)
    depths = {key for key in cache if not isinstance(key, int)}
    # the support cells of generations 1 and 2, each walked to a few
    # generations below its own
    assert {xd for _gen, xd in depths} == {2 * 3 ** (4 * g) for g in (1, 2)}
    assert len(cache) <= 15


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", range(2, 13))
def test_cell_field_runs_stay_farther_than_r(k, placement):
    """The two facts behind `CellField`'s second-order runs: a carrier's
    centroid lies within (2u/3 + 5/6)/(u + 1) < 1 support-cell length of its
    centre, and every run of the descent, on the first and last support cell
    of generations 1 and 2, keeps its regions farther than R from c."""
    m = model(k=k, depth=1, placement=placement)
    u = m.u
    for gen in range(4):
        centroid, _variance = m.carrier_moments(gen)
        assert abs(centroid - Q(3 * u, 2)) <= (Q(2 * u, 3) + Q(5, 6)) / (u + 1) < 1
    for gen in (1, 2):
        for branch in (0, m.jcell_count(gen) - 1):
            field = treewalk.CellField(m, m.place_core(m.jcell(gen, branch), gen)[0], 1e-3)
            runs, _slivers = treewalk._descend(m, field.chain, field.xd)
            for run_gen, left, count in runs:
                if count == 1:
                    continue  # a carrier's own bracket, as for the near tile
                consts = field._consts(run_gen)
                side, _near, _far = treewalk._distances(
                    consts, *treewalk._mass_span(consts, left, count))
                (_a, _b), (p0, *_ends) = treewalk._run_points(consts, side, left, count)
                assert p0 > consts.r * consts.q


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
            piece_side = _reference_place(field, gc, *treewalk._mass_span(gc, *piece))
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
    """The runs, support cells and S's own indicator are those of the
    reference descent, on the first, middle and last support cell of each
    generation; its one near block is the last run."""
    m = model(k=k, depth=1, placement=placement)
    for gen in range(1, 4 if k < 10 else 3):
        count = m.jcell_count(gen)
        for branch in sorted({0, count // 2, count - 1}):
            cell, _side = m.place_core(m.jcell(gen, branch), gen)
            field = treewalk.CellField(m, cell, 2e-3 * k * float(m.w_value(gen)))
            near, far, slivers, exact = _reference_descend(field)
            [(near_gen, near_left, near_count)] = near
            assert near_count == 1
            assert treewalk._descend(m, field.chain, field.xd) == (
                far + [(near_gen, near_left * field.xd, 1)], slivers)
            assert exact == [(Q(field.xn - 1, field.xd), Q(field.xn + 1, field.xd), field.w)]
            assert (exact[0][0], exact[0][1]) == (cell.left, cell.right)


def test_cell_field_rejects_a_cell_that_is_not_a_support_cell():
    m = model(k=3)
    support = m.support_cells(1)[0]
    parents = [s.cell.ancestor(s.cell.depth - 1) for s in (support, m.support_cells(2)[0])]
    for cell in (support.core, *parents):
        with pytest.raises(ValueError):
            treewalk.CellField(m, cell, 1e-3)


def _inside(value: Q, lo: float, hi: float) -> bool:
    return Q(lo) <= value <= Q(hi)


# Second-order brackets against discrete measures that have a carrier's
# exact mass, centroid and variance inside its mass hull.

def _three_atoms(h0, cen, h1, var):
    """(position, share) at h0, cen and h1 with centroid cen and variance
    var; the shares are >= 0 because var <= (cen - h0)(h1 - cen)."""
    alpha, beta = cen - h0, h1 - cen
    w0, w1 = var / (alpha * (alpha + beta)), var / (beta * (alpha + beta))
    return [(h0, w0), (cen, 1 - w0 - w1), (h1, w1)]


def _two_atoms(h0, cen, var):
    x, y = cen - h0, var / (cen - h0)
    return [(h0, y / (x + y)), (cen + y, x / (x + y))]


def _carrier_atoms(m, gen, tile, kind):
    """A discrete measure of unit mass with a generation-`gen` carrier's
    centroid and variance, as (offset from its left end, share), where a
    support cell is `tile` long; "parts" is the carrier's u + 1 parts one
    generation down: its core tiles with their own moments and its support
    cell, each with the first two moments of the part."""
    u = m.u

    def hull(g, unit):
        s = m.support_offset(g + 1)
        return min(u, s) * unit, max(2 * u, s + 1) * unit

    centroid, variance = m.carrier_moments(gen)
    (h0, h1), cen, var = hull(gen, tile), centroid * tile, variance * tile ** 2
    if kind == "two":
        return _two_atoms(h0, cen, var)
    if kind == "three":
        return _three_atoms(h0, cen, h1, var)
    sub = tile / (3 * u)
    c1, v1 = m.carrier_moments(gen + 1)
    t0, t1 = hull(gen + 1, sub)
    core = _three_atoms(t0, c1 * sub, t1, v1 * sub ** 2)
    # Simpson's shares give the uniform support cell's variance tile^2/12
    support = [(0, Q(1, 6)), (tile / 2, Q(2, 3)), (tile, Q(1, 6))]
    s, part = m.support_offset(gen + 1) * tile, Q(1, u + 1)
    return ([(i * tile + o, part * w) for i in range(u, 2 * u) for o, w in core]
            + [(s + o, part * w) for o, w in support])


def _exact_terms(atoms, mass_r, r, x, left, count, length, terms, bits=256):
    """Bounds (lo, hi), 2^-bits-close, on term j = (M/R) * the sum over the
    atoms of (R/d)^(j+1), for `count` translates of the carrier `length`
    apart, j < `terms`.  Every quantity is positive, so fixed-point integers
    rounded down and up keep the exact rational between the two."""
    one = 1 << bits
    lo, hi = [0] * terms, [0] * terms
    for i in range(count):
        for o, w in atoms:
            e = Q(r) / abs(left + i * length + o - x)
            lead = mass_r * w * e
            e_lo, e_hi = e.numerator * one // e.denominator, -(-e.numerator * one // e.denominator)
            p_lo = lead.numerator * one // lead.denominator
            p_hi = -(-lead.numerator * one // lead.denominator)
            for j in range(terms):
                lo[j] += p_lo
                hi[j] += p_hi
                p_lo, p_hi = (p_lo * e_lo) >> bits, -((-p_hi * e_hi) >> bits)
    return [(Q(a, one), Q(b, one)) for a, b in zip(lo, hi)]


@pytest.mark.parametrize("placement", ["right", "left", "alternating"])
@pytest.mark.parametrize("kind,count", [("two", 1), ("three", 1), ("parts", 1), ("three", 2),
                                        ("parts", 7), ("two", 40), ("three", 40)])
def test_moment_brackets_hold_exact_coefficients(placement, kind, count):
    """Each coefficient of a carrier or a run of n translated carriers, on
    either side of c, holds the exact coefficient of a discrete measure with
    the carrier's mass, centroid and variance; the tail bounds the rest, the
    widths sum to at most the walk's width, and that width is below the
    first-order one wherever the second-order bracket applies."""
    m = model(k=3, placement=placement)
    field = treewalk.CellField(m, m.support_cells(2)[4].cell, 1e-3)
    g = len(field.chain)  # carriers of generation g are as long as S
    for gen in (g, g + 1):
        gc = field._consts(gen)
        r, length = gc.r, gc.length
        atoms = _carrier_atoms(m, gen, Q(field.xd), kind)
        mass_r = Q(gc.mass_num, gc.mass_den * r)
        for side in (-1, 1):
            # a run next to S would reach e = 1; one a tile away may have
            # regions within R of c, where only the first order applies
            for gap in (0 if count == 1 else field.xd, length, 5 * length):
                left = gc.x + r + gap if side == 1 else gc.x - r - gap - count * length
                sums = {-1: ([], []), 1: ([], [])}
                width, geometry = field._width(gc, left, count)
                tail = field._block_series(sums, gc, left, count, geometry,
                                           1e-12 * float(mass_r))
                lo, hi = sums[side]
                assert not sums[-side][0]
                terms = len(lo) + (120 if kind == "two" else 0)
                exact = _exact_terms(atoms, mass_r, r, gc.x, left, count, length, terms)
                for j in range(len(lo)):
                    assert Q(lo[j]) <= exact[j][0] and exact[j][1] <= Q(hi[j]), (gen, side, gap, j)
                if kind == "two":
                    assert sum(t_hi for _t_lo, t_hi in exact[len(lo):]) <= Q(tail)
                assert sum(h - l for l, h in zip(lo, hi)) <= width * (1 + 1e-9)
                span = treewalk._mass_span(gc, left, count)
                _side, d_near, d_far = treewalk._distances(gc, *span)
                first = (1 if count == 1 else 2) * float(
                    mass_r * (Q(r, d_near - r) - Q(r, d_far - r)))
                if gap >= length:
                    assert width < first / 2


@pytest.mark.parametrize("d_near,d_far", [(2, 3), (2, 50), (7, 8), (40, 41)])
def test_far_series_hold_exact_terms_and_tails(d_near, d_far):
    """Each series term encloses the exact rational term of a mass laid out
    within its bounds, and the returned tail bounds the terms it leaves out.
    R = 1, so e = 1/d; the tolerance makes the series stop early."""
    e_near, e_far = Q(1, d_near), Q(1, d_far)
    bounds = (ratio_bounds(1, d_near), ratio_bounds(1, d_far))
    mass, mass_r = Q(3, 7), ratio_bounds(3, 7)
    tol = 1e-9

    # one carrier, with its mass at either end or split between them; each
    # layout's series reads its exact centroid and variance
    for split in (Q(0), Q(1, 3), Q(1)):
        centroid = split * d_near + (1 - split) * d_far
        mv = mass * split * (1 - split) * (d_far - d_near) ** 2 / 2  # (M/R) * var/(2R^2)
        lo, hi = [], []
        tail = treewalk._cell_series(lo, hi, mass_r, *bounds,
                                     ratio_bounds(mv.numerator, mv.denominator),
                                     ratio_bounds(centroid.denominator, centroid.numerator), tol)
        assert 0 <= tail <= tol and len(lo) >= 2

        def term(j):
            return mass * (split * e_near ** (j + 1) + (1 - split) * e_far ** (j + 1))
        for j in range(len(lo)):
            assert _inside(term(j), lo[j], hi[j]), (split, j)
        assert sum(term(j) for j in range(len(lo), len(lo) + 200)) <= Q(tail)

    # uniform density 2 over distances [d_near, d_far]: term j >= 1 is
    # 2/j * (e_near^j - e_far^j), term 0 is 2 * ln(d_far/d_near)
    lo, hi = [], []
    tail = treewalk._support_series(lo, hi, (2.0, 2.0), d_near, d_far, *bounds, tol)
    assert 0 <= tail <= tol
    assert lo[0] <= 2 * math.log(d_far / d_near) <= hi[0]

    def uniform(j):
        return Q(2, j) * (e_near ** j - e_far ** j)
    for j in range(1, len(lo)):
        assert _inside(uniform(j), lo[j], hi[j])
    assert sum(uniform(j) for j in range(len(lo), len(lo) + 200)) <= Q(tail)


@pytest.mark.parametrize("e_hi", [1.0, 1.5])
def test_series_reject_a_ratio_bound_not_below_one(e_hi):
    """A geometric tail at ratio >= 1 has no finite bound; the series raise
    instead of returning a negative tail.  The carrier's mass sits at e_far,
    so its variance is 0; the run is any run of a field's constants."""
    e_near, e_far = (e_hi, e_hi), (0.25, 0.25)
    with pytest.raises(ValueError, match="not below 1"):
        treewalk._cell_series([], [], (0.5, 0.5), e_near, e_far, (0.0, 0.0), e_far, 1e-9)
    with pytest.raises(ValueError, match="not below 1"):
        treewalk._support_series([], [], (2.0, 2.0), 1, 4, e_near, e_far, 1e-9)
    m = model(k=3)
    gc = treewalk.CellField(m, m.support_cells(2)[4].cell, 1e-3)._consts(2)
    with pytest.raises(ValueError, match="not below 1"):
        treewalk._run_series([], [], gc, e_hi, ((2, 3), (1, 2, 2, 3)), 1e-9)


@pytest.mark.parametrize("k,levels", [(6, 3), (12, 1)])
def test_norm_ratio_default_budget_drift_and_expansions(k, levels):
    """At the default budget the ratio is within 1e-6 of the one at a
    hundredth of it, and at the benchmark's budget a cell takes at most 150
    expansions (first-order brackets alone take several hundred)."""
    m = model(k=k, depth=2)
    args = dict(p=2, nodes=3, edge_levels=levels, cells_per_gen=1, gen_cap=2, seed=1)
    budget = inspect.signature(hilbert.hilbert_norm_ratio).parameters["budget_rel"].default
    ratio = hilbert.hilbert_norm_ratio(m, **args)["ratio"]
    finer = hilbert.hilbert_norm_ratio(m, budget_rel=budget / 100, **args)["ratio"]
    assert abs(ratio - finer) <= 1e-6 * finer
    # one cell per generation
    assert hilbert.hilbert_norm_ratio(m, budget_rel=2e-3, **args)["expansions"] <= 150 * 2
