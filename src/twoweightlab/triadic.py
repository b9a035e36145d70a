"""The triadic lattice of [0,1): cells as (depth, index) with exact endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Q = Fraction

_DIGITS = "012"


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

    def contains(self, other: "IntervalQ") -> bool:
        return self.left <= other.left and other.right <= self.right

    def intersect(self, other: "IntervalQ"):
        lo = max(self.left, other.left)
        hi = min(self.right, other.right)
        if lo >= hi:
            return None
        return IntervalQ(lo, hi)

    def __str__(self):
        return f"[{self.left}, {self.right})"


@dataclass(frozen=True)
class TriadicCell:
    """Cell [index*3^-depth, (index+1)*3^-depth) of [0,1); the root is (0, 0).

    Cells are integer pairs throughout.  Base-3 addresses, the cell's digits
    most significant first (the empty string for the root), exist only where
    cells are printed (`address`).
    """

    depth: int
    index: int

    def __post_init__(self):
        if self.depth < 0 or not 0 <= self.index < 3 ** self.depth:
            raise AddressError(f"index {self.index} out of range at depth {self.depth}")

    @property
    def address(self) -> str:
        digits = []
        n = self.index
        for _ in range(self.depth):
            n, d = divmod(n, 3)
            digits.append(_DIGITS[d])
        return "".join(reversed(digits))

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

    def descendant(self, levels: int, offset: int) -> "TriadicCell":
        """Cell number `offset` of this cell's cells `levels` deeper."""
        if levels < 0 or not 0 <= offset < 3 ** levels:
            raise AddressError(f"offset {offset} out of range {levels} levels down")
        return TriadicCell(self.depth + levels, self.index * 3 ** levels + offset)

    def ancestor(self, depth: int) -> "TriadicCell":
        """The cell of depth `depth` that holds this one."""
        if not 0 <= depth <= self.depth:
            raise AddressError(f"no ancestor at depth {depth} of a depth-{self.depth} cell")
        return TriadicCell(depth, self.index // 3 ** (self.depth - depth))

    def child(self, digit: int) -> "TriadicCell":
        return self.descendant(1, digit)

    def middle_child(self) -> "TriadicCell":
        return self.descendant(1, 1)

    def __str__(self):
        return self.address or "<root>"


def cell_from_index(depth: int, index: int) -> TriadicCell:
    """`TriadicCell(depth, index)`, under the name perfbench's tracer counts."""
    return TriadicCell(depth, index)


def cell_of(interval: IntervalQ) -> TriadicCell | None:
    """The triadic cell equal to a rational interval, or None if there is none."""
    length = interval.length
    if length.numerator != 1:
        return None
    depth, scale = 0, 1
    while scale < length.denominator:
        depth, scale = depth + 1, 3 * scale
    index = interval.left * scale
    if scale != length.denominator or index.denominator != 1 or not 0 <= index < scale:
        return None
    return TriadicCell(depth, index.numerator)


UNIT = IntervalQ(Q(0), Q(1))
