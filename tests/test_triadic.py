"""Triadic lattice: addresses, endpoints, trichotomy."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoweightlab.triadic import AddressError, IntervalQ, TriadicCell, cell_from_index, cell_of

from oracles import cell_contains, cell_from_address

addresses = st.text(alphabet="012", min_size=0, max_size=5)

MAX_DEPTH = 40
cells = st.integers(0, MAX_DEPTH).flatmap(
    lambda d: st.integers(0, 3 ** d - 1).map(lambda i: TriadicCell(d, i)))


def below(cell):
    """Cells inside `cell`, `cell` included, down to MAX_DEPTH."""
    return st.integers(0, MAX_DEPTH - cell.depth).flatmap(
        lambda j: st.integers(0, 3 ** j - 1).map(lambda t: cell.descendant(j, t)))


def related(cell):
    """`cell` with an arbitrary cell, an ancestor or a descendant of it."""
    above = st.integers(0, cell.depth).map(cell.ancestor)
    return st.tuples(st.just(cell), st.one_of(cells, above, below(cell)))


def test_root_cell():
    root = cell_from_address("")
    assert root.left == 0 and root.right == 1 and root.depth == 0


def test_middle_child_of_root():
    assert cell_from_address("1").interval() == IntervalQ(Q(1, 3), Q(2, 3))
    assert cell_from_address("").middle_child().address == "1"


def test_positional_arithmetic():
    cell = cell_from_address("102")
    assert cell.left == Q(11, 27) and cell.right == Q(12, 27)
    assert cell.middle_child().interval() == IntervalQ(Q(34, 81), Q(35, 81))


def test_invalid_digit_reports_position():
    with pytest.raises(AddressError, match="position 2"):
        cell_from_address("103")


def test_cell_from_index_roundtrip():
    for depth in range(5):
        for idx in range(3 ** depth):
            cell = cell_from_index(depth, idx)
            assert cell.depth == depth and cell.index == idx


@given(cells)
def test_address_and_interval_round_trip(cell):
    assert len(cell.address) == cell.depth
    assert cell_from_address(cell.address) == cell
    assert cell_of(cell.interval()) == cell


@given(cells.flatmap(lambda c: st.tuples(st.just(c), below(c))))
def test_descendant_ancestor_round_trip(pair):
    cell, sub = pair
    assert sub.ancestor(cell.depth) == cell and cell_contains(cell, sub)
    assert sub.interval().left >= cell.left and sub.interval().right <= cell.right


@given(cells.flatmap(related))
@settings(max_examples=300)
def test_contains_is_address_prefix(pair):
    a, b = pair
    assert cell_contains(a, b) == b.address.startswith(a.address)
    assert cell_contains(b, a) == a.address.startswith(b.address)


@given(cells)
def test_cell_of_rejects_non_cells(cell):
    left, n = cell.left, cell.length
    assert cell_of(IntervalQ(left, left + n * Q(2, 9))) is None
    assert cell_of(IntervalQ(left + n / 9, left + n / 9 + n / 3)) is None
    assert cell_of(IntervalQ(left + n / 2, left + 3 * n / 2)) is None
    assert cell_of(IntervalQ(left, left + n / 6)) is None


def test_deep_cells_round_trip():
    # past Python's 4300-digit limit on int(str, 3): a generation-400 carrier
    # at k = 11 has depth 4400
    cell = TriadicCell(5000, 3 ** 5000 - 2)
    assert cell.address == "2" * 4999 + "1"
    assert cell_from_address(cell.address) == cell
    assert cell.ancestor(3) == cell_from_address("222")


def test_cell_of_needs_the_unit_interval():
    assert cell_of(IntervalQ(Q(2, 9), Q(4, 9))) is None
    assert cell_of(IntervalQ(Q(1), Q(4, 3))) is None
    assert cell_of(IntervalQ(Q(-1, 3), Q(0))) is None
    assert cell_of(IntervalQ(Q(1, 9), Q(2, 9))) == cell_from_address("01")


def test_out_of_range_cells_raise():
    for depth, index in ((0, 1), (2, 9), (2, -1), (-1, 0)):
        with pytest.raises(AddressError):
            TriadicCell(depth, index)
    with pytest.raises(AddressError):
        cell_from_address("1").descendant(1, 3)
    with pytest.raises(AddressError):
        cell_from_address("1").ancestor(2)


@given(addresses)
def test_length_times_power_is_one(addr):
    cell = cell_from_address(addr)
    assert cell.length * 3 ** cell.depth == 1


def test_trichotomy_exhaustive_to_depth_five():
    cells = [cell_from_index(d, i) for d in range(6) for i in range(3 ** d)]
    intervals = [(c.left, c.right) for c in cells]
    for i, (al, ar) in enumerate(intervals):
        for bl, br in intervals[i:]:
            nested = (al <= bl and br <= ar) or (bl <= al and ar <= br)
            disjoint = ar <= bl or br <= al
            assert nested or disjoint


