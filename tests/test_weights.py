"""Construction: family counts, placements, cell classification."""

from fractions import Fraction as Q

import pytest

from twoweightlab.hilbert import maximal_at
from twoweightlab.measures import mass
from twoweightlab.triadic import IntervalQ, cell_from_index
from twoweightlab.weights import PLACEMENTS, ConstructionParams, build_construction

from oracles import cell_contains, cell_from_address, families, smallest_carrier, weight_on_cell


def test_parameter_validation():
    with pytest.raises(ValueError):
        ConstructionParams(k=1)
    with pytest.raises(ValueError):
        ConstructionParams(k=3, p=Q(1))
    with pytest.raises(ValueError):
        ConstructionParams(k=3, p=2, r=Q(2))  # r must be < p' = 2
    with pytest.raises(ValueError):
        ConstructionParams(k=3, placement="sideways")


def test_counts_k2_depth1():
    m = build_construction(ConstructionParams(k=2, depth=1))
    assert m.kcell_count(1) == 3 and m.jcell_count(1) == 1
    assert all(c.length == Q(1, 9) for c in m.kcells[1])


def test_counts_k3_depth2():
    m = build_construction(ConstructionParams(k=3, depth=2))
    assert m.jcell_count(2) == 3 ** (3 - 1) == 9
    cores = [s.core for s in m.support_cells(2)]
    assert len(cores) == 9 and all(c.length == Q(1, 81) for c in cores)


def test_right_placement_k2():
    m = build_construction(ConstructionParams(k=2, depth=1))
    sc = m.support_cells(1)[0]
    assert sc.core.interval() == IntervalQ(Q(1, 3), Q(2, 3))
    assert sc.cell.interval() == IntervalQ(Q(2, 3), Q(7, 9))
    assert m.side_for(sc.gen) == "right"


def test_left_and_alternating_placements():
    left = build_construction(ConstructionParams(k=2, depth=2, placement="left"))
    sc = left.support_cells(1)[0]
    assert sc.cell.interval() == IntervalQ(Q(2, 9), Q(1, 3))
    alt = build_construction(ConstructionParams(k=2, depth=2, placement="alternating"))
    assert alt.side_for(alt.support_cells(1)[0].gen) == "right"
    assert all(alt.side_for(s.gen) == "left" for s in alt.support_cells(2))


def test_adjacency_and_length_invariant():
    for k in (2, 3, 4):
        m = build_construction(ConstructionParams(k=k, depth=2), family_cap=27)
        for sc in m.support:
            assert sc.cell.length == Q(1, 3 ** (k - 1)) * sc.core.length
            touching = (sc.cell.left == sc.core.right
                        or sc.cell.right == sc.core.left)
            assert touching
            assert cell_contains(sc.core.ancestor(sc.core.depth - 1), sc.cell)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_support_geometry_agrees_across_modules(k, placement):
    # place_core, weight_on_cell, mass, the carrier chain, maximal_at and
    # smallest_carrier each locate the support cell; they must agree
    m = build_construction(ConstructionParams(k=k, placement=placement, depth=3))
    for sc in m.support:
        cell, core = sc.cell, sc.core
        assert cell.left == core.right or cell.right == core.left
        carrier = core.ancestor(core.depth - 1)
        assert cell_contains(carrier, cell)
        assert weight_on_cell(m, cell).kind == "const"
        got = mass(m, "w", cell.interval())
        assert got.lo == got.hi == m.w_value(sc.gen) * cell.length
        x = cell.left + cell.length / 2
        chain = m.carriers_holding(x, x)
        assert (len(chain), chain[-1]) == (sc.gen, carrier.index)
        smallest, _, _, placed = smallest_carrier(m, cell.interval())
        assert smallest == carrier and placed == cell
    # maximal_at takes about a millisecond a point, so it sees every sampled
    # support cell up to k = 4 (757 of them); at k = 5 (2,130 cells) it sees
    # every 8th cell of each generation and that generation's last cell
    for gen in range(1, 4):
        cells = m.support_cells(gen)
        for sc in cells if k <= 4 else cells[::8] + cells[-1:]:
            x = sc.cell.left + sc.cell.length / 2
            assert maximal_at(m, x)["gen"] == gen


def test_place_core_rejects_a_core_that_is_not_a_middle_child():
    m = build_construction(ConstructionParams(k=2, depth=1))
    with pytest.raises(ValueError):
        m.place_core(cell_from_address("2"), 1)
    with pytest.raises(ValueError):
        m.place_core(cell_from_address("10"), 1)
    assert m.place_core(cell_from_address("1"), 1)[0] == cell_from_address("20")


def test_support_values():
    m = build_construction(ConstructionParams(k=2, p=2, depth=2))
    sc = m.support_cells(1)[0]
    assert m.w_value(sc.gen) == Q(9, 4)
    assert m.sigma_value(sc.gen).is_exact and m.sigma_value(sc.gen).lo == Q(4, 9)


def test_weight_on_cell_constant_zero_unresolved():
    m = build_construction(ConstructionParams(k=2, p=2, depth=2))
    sc = m.support_cells(1)[0]
    const = weight_on_cell(m, sc.cell, "w")
    assert const.kind == "const" and const.value.lo == Q(9, 4)
    sub = cell_from_address(sc.cell.address + "02")
    assert weight_on_cell(m, sub, "w").kind == "const"
    zero = weight_on_cell(m, cell_from_address("0"), "w")
    assert zero.kind == "zero" and zero.mass.lo == 0
    root = weight_on_cell(m, cell_from_address(""), "w")
    assert root.kind == "unresolved" and root.mass.lo == 1
    sig = weight_on_cell(m, sc.cell, "sigma")
    assert sig.kind == "const" and sig.value.lo == Q(4, 9)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 3])
def test_weight_on_cell_matches_mass_on_every_cell(k, placement):
    # oracle: the interval mass of every triadic cell down to depth 2k+1,
    # which reaches the generation-2 carriers and the cells just below them
    m = build_construction(ConstructionParams(k=k, placement=placement, depth=2))
    for depth in range(2 * k + 2):
        for index in range(3 ** depth):
            cell = cell_from_index(depth, index)
            for which in ("w", "sigma", "wTilde"):
                got = weight_on_cell(m, cell, which)
                want = mass(m, which, cell.interval(), 400)
                assert got.mass == want, (cell, which)
                if got.kind == "const":
                    assert got.value * cell.length == want, (cell, which)


def test_serialization_wire_format():
    m = build_construction(ConstructionParams(k=2, depth=1))
    payload = m.serialize()
    assert payload["params"]["p"] == "2/1"
    assert payload["family_counts"]["K"]["1"] == 3
    entry = payload["support"][0]
    assert entry["cell"] == "20" and entry["w_value"] == "9/4"


def test_implicit_family_indexing_matches_lists():
    m = build_construction(ConstructionParams(k=3, depth=2))
    for gen in range(3):
        for idx, cell in enumerate(m.kcells[gen]):
            assert m.kcell(gen, idx) == cell


def test_families_are_built_on_first_read():
    m = build_construction(ConstructionParams(k=3, depth=2))
    assert "kcells" not in vars(m) and "support" not in vars(m)
    kcells, support = m.kcells, m.support
    assert "kcells" in vars(m) and "support" in vars(m)
    assert m.kcells is kcells and m.support is support


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_families_match_an_independent_enumeration(k, placement, depth):
    for cap in (1, 7, 27, 2048):
        m = build_construction(ConstructionParams(k=k, placement=placement, depth=depth),
                               family_cap=cap)
        kcells, support = families(m)
        assert m.kcells == kcells and m.support == support, cap


@pytest.mark.parametrize("cap", [0, -1])
def test_family_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="family_cap must be >= 1"):
        build_construction(ConstructionParams(k=3), family_cap=cap)


def test_generations_out_of_range_are_rejected():
    m = build_construction(ConstructionParams(k=3, depth=2))
    with pytest.raises(ValueError, match="carrier generations start at 0"):
        m.kcell_count(-1)
    with pytest.raises(ValueError, match="carrier generations start at 0"):
        m.kcell(-1, 0)
    for gen in (0, -1):
        with pytest.raises(ValueError, match="core generations start at 1"):
            m.jcell_count(gen)
        with pytest.raises(ValueError, match="core generations start at 1"):
            m.jcell(gen, 0)
    assert m.kcell(0, 0) == cell_from_address("") and m.jcell(1, 0) == cell_from_address("1")
    assert [m.jcell_count(g) for g in (1, 2, 3)] == [m.kcell_count(g) for g in (0, 1, 2)]


def _brute_moments(m, gen, depth):
    """Bounds on the first and second moments of a generation-`gen`
    carrier's w-mass (unit total, in support-cell lengths from its left
    end), from its parts carried `depth` generations down as explicit
    cells; each carrier left at the bottom puts its mass somewhere in its
    hull."""
    u = m.u
    first = second = Q(0)
    carriers, weight = [Q(0)], Q(1)  # left ends; tile length `tile`, mass `weight` each
    tile = Q(1)
    for g in range(gen, gen + depth):
        s = m.support_offset(g + 1)
        weight /= u + 1
        for left in carriers:
            a = left + s * tile  # the support cell [a, a + tile), uniform
            first += weight * (a + tile / 2)
            second += weight * (a * a + a * tile + tile * tile / 3)
        carriers = [left + i * tile for left in carriers for i in range(u, 2 * u)]
        tile /= 3 * u
    s = m.support_offset(gen + depth + 1)
    h0, h1 = min(u, s) * tile, max(2 * u, s + 1) * tile
    lo = (first + weight * sum(c + h0 for c in carriers),
          second + weight * sum((c + h0) ** 2 for c in carriers))
    hi = (first + weight * sum(c + h1 for c in carriers),
          second + weight * sum((c + h1) ** 2 for c in carriers))
    return lo, hi


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_carrier_moments_match_the_measure(k, placement):
    """The closed-form centroid and variance are those of the carrier's
    mass, enumerated down to several hundred cells, and obey the hull."""
    m = build_construction(ConstructionParams(k=k, depth=1, placement=placement))
    depth = {2: 6, 3: 3}.get(k, 2)
    u = m.u
    for gen in (0, 1):  # both parities of an alternating placement
        centroid, variance = m.carrier_moments(gen)
        (a_lo, b_lo), (a_hi, b_hi) = _brute_moments(m, gen, depth)
        assert a_lo <= centroid <= a_hi
        assert b_lo <= variance + centroid ** 2 <= b_hi
        assert a_hi - a_lo <= Q(3 * u, (3 * u) ** depth)
        s = m.support_offset(gen + 1)
        h0, h1 = min(u, s), max(2 * u, s + 1)
        assert h0 < centroid < h1
        assert 0 < variance <= ((h1 - h0) / 2) ** 2
        # the Bhatia-Davis bound for mass on [h0, h1] with this centroid
        assert variance <= (centroid - h0) * (h1 - centroid)
    if placement != "alternating":
        assert m.carrier_moments(0) == m.carrier_moments(1)
