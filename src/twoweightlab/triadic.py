"""The triadic lattice of [0,1): base-3 addressed cells with exact endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Q = Fraction

_DIGITS = frozenset("012")


class AddressError(ValueError):
    pass


@dataclass(frozen=True)
class IntervalQ:
    """Half-open rational interval [left, right)."""

    left: Fraction
    right: Fraction

    def __post_init__(self):
        object.__setattr__(self, "left", Fraction(self.left))
        object.__setattr__(self, "right", Fraction(self.right))
        if not self.left < self.right:
            raise ValueError(f"empty interval [{self.left}, {self.right})")

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains_point(self, x) -> bool:
        return self.left <= Fraction(x) < self.right

    def contains(self, other: "IntervalQ") -> bool:
        return self.left <= other.left and other.right <= self.right

    def intersect(self, other: "IntervalQ"):
        lo = max(self.left, other.left)
        hi = min(self.right, other.right)
        if lo >= hi:
            return None
        return IntervalQ(lo, hi)

    def is_disjoint(self, other: "IntervalQ") -> bool:
        return self.right <= other.left or other.right <= self.left

    def __str__(self):
        return f"[{self.left}, {self.right})"


@dataclass(frozen=True)
class TriadicCell:
    """Cell [j*3^-n, (j+1)*3^-n) of [0,1), addressed by its base-3 digits.

    The empty address is the root [0,1).  Addresses are strings because
    depths beyond machine-word packing occur routinely here.
    """

    address: str

    def __post_init__(self):
        for pos, ch in enumerate(self.address):
            if ch not in _DIGITS:
                raise AddressError(
                    f"invalid digit {ch!r} at position {pos} in address {self.address!r}")

    @property
    def depth(self) -> int:
        return len(self.address)

    @property
    def index(self) -> int:
        return int(self.address, 3) if self.address else 0

    @property
    def left(self) -> Fraction:
        return Q(self.index, 3 ** self.depth)

    @property
    def right(self) -> Fraction:
        return Q(self.index + 1, 3 ** self.depth)

    @property
    def length(self) -> Fraction:
        return Q(1, 3 ** self.depth)

    def interval(self) -> IntervalQ:
        return IntervalQ(self.left, self.right)

    def child(self, digit: int) -> "TriadicCell":
        if digit not in (0, 1, 2):
            raise AddressError(f"child digit must be 0,1,2, got {digit}")
        return TriadicCell(self.address + str(digit))

    def middle_child(self) -> "TriadicCell":
        return self.child(1)

    def parent(self) -> "TriadicCell":
        if not self.address:
            raise AddressError("root cell has no parent")
        return TriadicCell(self.address[:-1])

    def contains(self, other: "TriadicCell") -> bool:
        return other.address.startswith(self.address)

    def contains_point(self, x) -> bool:
        return self.left <= Fraction(x) < self.right

    def __str__(self):
        return self.address or "<root>"


def cell_from_address(address: str) -> TriadicCell:
    return TriadicCell(address)


def base3_digits(n: int, width: int) -> str:
    """The `width` base-3 digits of 0 <= n < 3^width, most significant first."""
    digits = []
    for _ in range(width):
        n, d = divmod(n, 3)
        digits.append("012"[d])
    return "".join(reversed(digits))


def cell_from_index(depth: int, index: int) -> TriadicCell:
    """Cell at a given depth by position; inverse of TriadicCell.index."""
    if depth < 0 or not 0 <= index < 3 ** depth:
        raise AddressError(f"index {index} out of range at depth {depth}")
    return TriadicCell(base3_digits(index, depth))


def middle_child(cell: TriadicCell) -> TriadicCell:
    return cell.middle_child()


def nested_or_disjoint(a: TriadicCell, b: TriadicCell) -> bool:
    return a.contains(b) or b.contains(a) or a.interval().is_disjoint(b.interval())


UNIT = IntervalQ(Q(0), Q(1))


def triadic_cover(interval: IntervalQ, depth: int) -> list[TriadicCell]:
    """Minimal disjoint cover of `interval` by cells of depth <= `depth`.

    Cells deeper than the coarsest fit appear only where the interval's
    endpoints cut cells; the depth cap forces partial cells to be included
    whole once it is reached.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not UNIT.contains(interval):
        raise ValueError(f"interval {interval} not contained in [0,1)")
    out: list[TriadicCell] = []

    def visit(cell: TriadicCell):
        cv = cell.interval()
        if cv.is_disjoint(interval) or cv.intersect(interval) is None:
            return
        if interval.contains(cv) or cell.depth == depth:
            out.append(cell)
            return
        for d in range(3):
            visit(cell.child(d))

    visit(TriadicCell(""))
    return out
