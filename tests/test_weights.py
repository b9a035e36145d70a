"""Construction: family counts, placements, cell classification, direct sums."""

from fractions import Fraction as Q

import pytest

from twoweightlab.hilbert import _descend_to_support
from twoweightlab.measures import MeasureQuery, mass, smallest_carrier
from twoweightlab.triadic import IntervalQ, TriadicCell
from twoweightlab.weights import (PLACEMENTS, ConstructionParams, build_construction,
                                  direct_sum, weight_on_cell)


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
    assert all(c.length == Q(1, 81) for c in m.jcells[2])


def test_right_placement_k2():
    m = build_construction(ConstructionParams(k=2, depth=1))
    sc = m.support_cells(1)[0]
    assert sc.core.interval() == IntervalQ(Q(1, 3), Q(2, 3))
    assert sc.cell.interval() == IntervalQ(Q(2, 3), Q(7, 9))
    assert sc.side == "right"


def test_left_and_alternating_placements():
    left = build_construction(ConstructionParams(k=2, depth=2, placement="left"))
    sc = left.support_cells(1)[0]
    assert sc.cell.interval() == IntervalQ(Q(2, 9), Q(1, 3))
    alt = build_construction(ConstructionParams(k=2, depth=2, placement="alternating"))
    assert alt.support_cells(1)[0].side == "right"
    assert all(s.side == "left" for s in alt.support_cells(2))


def test_adjacency_and_length_invariant():
    for k in (2, 3, 4):
        m = build_construction(ConstructionParams(k=k, depth=2), family_cap=27)
        for sc in m.support:
            assert sc.cell.length == Q(1, 3 ** (k - 1)) * sc.core.length
            touching = (sc.cell.left == sc.core.right
                        or sc.cell.right == sc.core.left)
            assert touching
            assert sc.core.parent().contains(sc.cell)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_support_geometry_agrees_across_modules(k, placement):
    # place_core, weight_on_cell, mass, the maximal-function descent and
    # smallest_carrier each locate the support cell; they must agree
    m = build_construction(ConstructionParams(k=k, placement=placement, depth=3))
    for sc in m.support:
        cell, core = sc.cell, sc.core
        assert cell.left == core.right or cell.right == core.left
        assert core.parent().contains(cell)
        assert weight_on_cell(m, cell).kind == "const"
        got = mass(m, MeasureQuery("w", cell.interval()))
        assert got.lo == got.hi == m.w_value(sc.gen) * cell.length
        gen, span, _chain = _descend_to_support(m, cell.left + cell.length / 2)
        assert (gen, span) == (sc.gen, (cell.left, cell.right))
        carrier, _, _, placed = smallest_carrier(m, cell.interval())
        assert carrier == core.parent() and placed == cell


def test_place_core_rejects_a_core_that_is_not_a_middle_child():
    m = build_construction(ConstructionParams(k=2, depth=1))
    with pytest.raises(ValueError):
        m.place_core(TriadicCell("2"), 1)
    with pytest.raises(ValueError):
        m.place_core(TriadicCell("10"), 1)
    assert m.place_core(TriadicCell("1"), 1)[0] == TriadicCell("20")


def test_support_values():
    m = build_construction(ConstructionParams(k=2, p=2, depth=2))
    sc = m.support_cells(1)[0]
    assert sc.w_value == Q(9, 4)
    assert sc.sigma_value.is_exact and sc.sigma_value.lo == Q(4, 9)


def test_weight_on_cell_constant_zero_unresolved():
    m = build_construction(ConstructionParams(k=2, p=2, depth=2))
    sc = m.support_cells(1)[0]
    const = weight_on_cell(m, sc.cell, "w")
    assert const.kind == "const" and const.value.lo == Q(9, 4)
    sub = TriadicCell(sc.cell.address + "02")
    assert weight_on_cell(m, sub, "w").kind == "const"
    zero = weight_on_cell(m, TriadicCell("0"), "w")
    assert zero.kind == "zero" and zero.mass.lo == 0
    root = weight_on_cell(m, TriadicCell(""), "w")
    assert root.kind == "unresolved" and root.mass.lo == 1
    sig = weight_on_cell(m, sc.cell, "sigma")
    assert sig.kind == "const" and sig.value.lo == Q(4, 9)


def test_serialization_wire_format():
    m = build_construction(ConstructionParams(k=2, depth=1))
    payload = m.serialize()
    assert payload["params"]["p"] == "2/1"
    assert payload["family_counts"]["K"]["1"] == 3
    entry = payload["support"][0]
    assert entry["cell"] == "20" and entry["w_value"] == "9/4"


def test_direct_sum_shifts_and_validation():
    models = [build_construction(ConstructionParams(k=k, depth=1)) for k in (4, 5)]
    comp = direct_sum(models, (4, 5))
    assert [c.shift for c in comp.copies] == [9 ** 4, 9 ** 5]
    with pytest.raises(ValueError):
        direct_sum(models, (4, 6))
    with pytest.raises(ValueError):
        direct_sum([models[0], models[0]])
    assert direct_sum([], None).copies == ()


def test_implicit_family_indexing_matches_lists():
    m = build_construction(ConstructionParams(k=3, depth=2))
    for gen in range(3):
        for idx, cell in enumerate(m.kcells[gen]):
            assert m.kcell(gen, idx) == cell
