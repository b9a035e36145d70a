"""Oracles the tests share: the weight on one triadic cell and the smallest
carrier of an interval, each read from the carrier chain and `place_core`
alone, against which `mass`, the dual testing sum and the support geometry
are checked; the capped families, against which `WeightModel.kcells` and
`support` are checked; the level sets of w and sigma over a carrier,
against which `lorentz.distribution` is checked; and the parser of base-3
addresses with the nesting of cells, against which `TriadicCell.address`
and `ancestor` are checked."""

from dataclasses import dataclass
from fractions import Fraction

from twoweightlab.enclosure import Enclosure
from twoweightlab.triadic import AddressError, IntervalQ, TriadicCell, cell_from_index
from twoweightlab.weights import SupportCell, WeightModel, _carrier_mass, _check_which, _value


@dataclass(frozen=True)
class CellWeight:
    """Result of weight_on_cell: constant value, zero, or non-constant with exact mass."""

    kind: str  # "const" | "zero" | "unresolved"
    value: Enclosure | None
    mass: Enclosure


def weight_on_cell(model: WeightModel, cell: TriadicCell, which: str = "w") -> CellWeight:
    """Classify w (or sigma, wtilde) restricted to a triadic cell.

    Constant exactly when the cell sits inside a support cell; zero on the
    vanishing set; otherwise a marker with the cell's exact mass.
    """
    _check_which(which)
    gen = len(model.carriers_holding(cell.left, cell.right)) - 1
    if cell.depth == gen * model.k:
        return CellWeight("unresolved", None, _carrier_mass(model, which, gen))
    core = cell.ancestor(gen * model.k).middle_child()
    placed, _side = model.place_core(core, gen + 1)
    if cell_contains(placed, cell):
        val = _value(model, which, gen + 1)
        return CellWeight("const", val, val * cell.length)
    if cell_contains(cell, placed):
        return CellWeight("unresolved", None, _value(model, which, gen + 1) * placed.length)
    if cell_contains(core, cell):
        # no tile of the core holds the cell, so it is a union of them
        count = 3 ** ((gen + 1) * model.k - cell.depth)
        return CellWeight("unresolved", None, _carrier_mass(model, which, gen + 1) * count)
    return CellWeight("zero", Enclosure.exact(0), Enclosure.exact(0))


def smallest_carrier(model: WeightModel, interval: IntervalQ):
    """Smallest carrier cell containing the interval, with its core and support."""
    chain = model.carriers_holding(interval.left, interval.right)
    gen = len(chain) - 1
    carrier = cell_from_index(gen * model.k, chain[-1])
    core = carrier.middle_child()
    placed, _ = model.place_core(core, gen + 1)
    return carrier, gen, core, placed


def families(model: WeightModel) -> tuple[list[list[TriadicCell]], list[SupportCell]]:
    """`model.kcells` and `model.support`, enumerated independently.

    Generation g lists its carriers by branch, each from `kcell`, and its
    support cells beside the middle children of generation g-1's carriers,
    each from `place_core`.  A generation of n > cap members keeps the one at
    position i*n // cap for i < cap; these positions rise strictly since
    n/cap > 1.  Only the kept positions are built: generation 3 at k = 5
    alone has 531,441 carriers.
    """
    cap = model.family_cap

    def sample(count, member):
        positions = range(count) if count <= cap else (i * count // cap for i in range(cap))
        return [member(i) for i in positions]

    def support_cell(gen, branch):
        core = model.kcell(gen - 1, branch).middle_child()
        return SupportCell(gen, core, model.place_core(core, gen)[0])

    kcells = [sample(model.kcell_count(g), lambda i, g=g: model.kcell(g, i))
              for g in range(model.depth + 1)]
    support = [s for g in range(1, model.depth + 1)
               for s in sample(model.kcell_count(g - 1), lambda i, g=g: support_cell(g, i))]
    return kcells, support


def carrier_level_set(model: WeightModel, gen: int, which: str, t: Fraction) -> Fraction:
    """N(t): the normalized measure of {v > t} on a generation-`gen` carrier.

    Read from the weight's values alone: the carrier's support cells of
    generation gen+j+1 fill 3^(-k-j) of it and carry v(gen+j+1), with
    v = `w_value` or `sigma_value`.  w rises with the generation, so its
    terms from the first j with v > t on sum to 3^(-k-j)*3/2; sigma falls,
    so its terms stop at the first j with v <= t.
    """
    if which == "w":
        j = 0
        while model.w_value(gen + j + 1) <= t:
            j += 1
        return Fraction(3, 2) / 3 ** (model.k + j)
    total, j = Fraction(0), 0
    while True:
        value = model.sigma_value(gen + j + 1)
        assert value.is_exact
        if value.lo <= t:
            return total
        total += Fraction(1, 3 ** (model.k + j))
        j += 1


def cell_from_address(address: str) -> TriadicCell:
    """The cell with base-3 digits `address`, most significant first.

    The digits are read one by one, since `int(address, 3)` refuses strings
    longer than Python's 4300-digit limit and carriers reach depth 400·k.
    """
    index = 0
    for pos, ch in enumerate(address):
        if ch not in "012":
            raise AddressError(
                f"invalid digit {ch!r} at position {pos} in address {address!r}")
        index = 3 * index + int(ch)
    return TriadicCell(len(address), index)


def cell_contains(outer: TriadicCell, inner: TriadicCell) -> bool:
    """Whether `inner` lies in `outer`: the lattice's nesting, on integers."""
    return (inner.depth >= outer.depth
            and inner.index // 3 ** (inner.depth - outer.depth) == outer.index)
