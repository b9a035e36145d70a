"""Middle-third fractal weight pair on [0,1).

Generation by generation, every carrier cell pushes its whole w-mass onto
the union of its middle child (the "core") and one adjacent cell of length
3^(1-k) times the core's (the "support cell"), uniformly.  The dual weight
sigma is w^(1-p) on the support.  Everything about the limit object has a
closed form per generation, so the model is lazy: families are materialized
up to a depth budget (capped lists for huge generations), while masses,
values and averages at any generation come from exact formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .enclosure import Enclosure, Q, pow_enclosure, qstr
from .triadic import IntervalQ, TriadicCell, base3_digits, cell_from_index

PLACEMENTS = ("right", "left", "alternating")

FAMILY_CAP = 2048

MAX_GENERATIONS = 400  # deepest carrier a descent may reach


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of one weight pair: k >= 2, p > 1, r in (max(1,1/(p-1)), p')."""

    k: int
    p: Fraction = Q(2)
    r: Fraction = Q(3, 2)
    placement: str = "right"
    depth: int = 2

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "r", Fraction(self.r))
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k}")
        if self.p <= 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        lo = max(Q(1), 1 / (self.p - 1))
        if not lo < self.r < self.p_prime:
            raise ValueError(
                f"r must lie strictly in ({lo}, {self.p_prime}), got {self.r}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement policy {self.placement!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @property
    def p_prime(self) -> Fraction:
        return self.p / (self.p - 1)


@dataclass(frozen=True)
class SupportCell:
    """One materialized support cell: w == w_value and sigma == sigma_value on it."""

    gen: int
    core: TriadicCell
    cell: TriadicCell
    side: str
    w_value: Fraction
    sigma_value: Enclosure


@dataclass(frozen=True)
class CellWeight:
    """Result of weight_on_cell: constant value, zero, or non-constant with exact mass."""

    kind: str  # "const" | "zero" | "unresolved"
    value: Enclosure | None
    mass: Enclosure


class WeightModel:
    """Immutable handle on one constructed pair (w_k, sigma_k, wtilde_k)."""

    def __init__(self, params: ConstructionParams, family_cap: int = FAMILY_CAP):
        self.params = params
        k = params.k
        self.k = k
        self.u = 3 ** (k - 1)
        self.rho = Q(3 ** k, self.u + 1)          # <w> over a carrier gains rho per generation
        if params.p.denominator == 1:
            self.b = Enclosure.exact(self.rho ** (1 - params.p))
        else:
            self.b = pow_enclosure(Enclosure.exact(self.rho), 1 - params.p)
        self.a = self.b * Q(1, 3)
        self.c = (3 * self.b) / (Enclosure.exact(3) - self.b)
        self.scale = pow_enclosure(Enclosure.exact(Q(k)), -params.r)
        self.depth = params.depth
        self.family_cap = family_cap
        self._materialize()

    # -- counts and closed forms ------------------------------------------

    def kcell_count(self, gen: int) -> int:
        if gen < 0:
            raise ValueError("carrier generations start at 0")
        return 3 ** (gen * (self.k - 1))

    def jcell_count(self, gen: int) -> int:
        """Cores of generation `gen`, one per generation-(gen-1) carrier."""
        if gen < 1:
            raise ValueError("core generations start at 1")
        return self.kcell_count(gen - 1)

    def w_value(self, gen: int) -> Fraction:
        """Constant value of w on generation-`gen` support cells."""
        return self.rho ** gen

    def sigma_value(self, gen: int) -> Enclosure:
        return self.b.pow_int(gen)

    def wtilde_value(self, gen: int) -> Enclosure:
        return self.scale * self.w_value(gen)

    def carrier_w_mass(self, gen: int) -> Fraction:
        return Q(1, (self.u + 1) ** gen)

    def carrier_sigma_mass(self, gen: int) -> Enclosure:
        return self.c * Q(1, 3 ** self.k) * self.b.pow_int(gen) * Q(1, 3 ** (gen * self.k))

    def support_sigma_mass(self, gen: int) -> Enclosure:
        return self.b.pow_int(gen) * Q(1, 3 ** (gen * self.k))

    def avg_w_carrier(self, gen: int) -> Fraction:
        return self.rho ** gen

    def avg_sigma_carrier(self, gen: int) -> Enclosure:
        return self.c * Q(1, 3 ** self.k) * self.b.pow_int(gen)

    # -- implicit family addressing ---------------------------------------

    def kcell(self, gen: int, branch: int) -> TriadicCell:
        """Carrier cell number `branch` (lexicographic) of generation `gen`."""
        if not 0 <= branch < self.kcell_count(gen):
            raise ValueError(f"branch {branch} out of range at generation {gen}")
        # one base-3^(k-1) digit per level, each below that level's core digit 1
        width = self.k - 1
        digits = base3_digits(branch, gen * width)
        return TriadicCell("".join("1" + digits[i:i + width]
                                   for i in range(0, gen * width, width)))

    def jcell(self, gen: int, branch: int) -> TriadicCell:
        """Core number `branch` of generation `gen`: its carrier's middle third."""
        if gen < 1:
            raise ValueError("core generations start at 1")
        return self.kcell(gen - 1, branch).middle_child()

    def place_core(self, core: TriadicCell, gen: int) -> tuple[TriadicCell, str]:
        """Support cell beside a generation-`gen` core, with its side."""
        if not core.address.endswith("1"):
            raise ValueError(f"{core} is not the middle child of a carrier")
        index = core.parent().index * 3 ** self.k + self.support_offset(gen)
        return cell_from_index(core.depth + self.k - 1, index), self.side_for(gen)

    def side_for(self, gen: int) -> str:
        pol = self.params.placement
        if pol == "alternating":
            return "right" if gen % 2 == 1 else "left"
        return pol

    def support_offset(self, gen: int) -> int:
        """Left end of a generation-`gen` support cell, from the left end of
        its carrier, in support-cell lengths.

        The core spans [u, 2u) in these units (u = 3^(k-1)), so the support
        cell starts at 2u on the right of it and at u - 1 on the left.
        """
        return 2 * self.u if self.side_for(gen) == "right" else self.u - 1

    def carriers_holding(self, a, b) -> list[int]:
        """The carriers that hold [a, b) in [0,1), root first; a == b asks for a point.

        Entry g is the index of the generation-g carrier among the cells of
        depth g*k.  The next carrier is the tile of the core that holds a,
        index (3*parent + 1)*3^(k-1) + t, as long as that tile also holds b.
        """
        a, b = Fraction(a), Fraction(b)
        step = 3 ** self.k
        scale = 1
        chain = [0]
        while True:
            scale *= step
            tile = a.numerator * scale // a.denominator
            if (tile // self.u != 3 * chain[-1] + 1
                    or b.numerator * scale > (tile + 1) * b.denominator):
                return chain
            if len(chain) > MAX_GENERATIONS:
                raise ValueError(f"the carrier chain at {a} runs past generation "
                                 f"{MAX_GENERATIONS} without ending")
            chain.append(tile)

    # -- materialization ----------------------------------------------------

    def _materialize(self):
        cap = self.family_cap
        self.kcells: list[list[TriadicCell]] = []
        self.jcells: dict[int, list[TriadicCell]] = {}
        for gen in range(self.depth + 1):
            branches = _even_sample(self.kcell_count(gen), cap)
            self.kcells.append([self.kcell(gen, i) for i in branches])
        self.support: list[SupportCell] = []
        for gen in range(1, self.depth + 1):
            branches = _even_sample(self.jcell_count(gen), cap)
            cells = []
            for i in branches:
                core = self.jcell(gen, i)
                cells.append(core)
                placed, side = self.place_core(core, gen)
                self.support.append(SupportCell(
                    gen=gen, core=core, cell=placed, side=side,
                    w_value=self.w_value(gen), sigma_value=self.sigma_value(gen)))
            self.jcells[gen] = cells

    def support_cells(self, gen: int | None = None) -> list[SupportCell]:
        if gen is None:
            return list(self.support)
        return [s for s in self.support if s.gen == gen]

    # -- serialization ------------------------------------------------------

    def serialize(self) -> dict:
        p = self.params
        return {
            "params": {"k": p.k, "p": qstr(p.p), "r": qstr(p.r),
                       "placement": p.placement, "depth": p.depth},
            "family_counts": {
                "K": {str(g): self.kcell_count(g) for g in range(self.depth + 1)},
                "J": {str(g): self.jcell_count(g) for g in range(1, self.depth + 1)},
            },
            "support": [
                {"gen": s.gen, "core": s.core.address, "cell": s.cell.address,
                 "side": s.side, "w_value": qstr(s.w_value),
                 "sigma_value": [qstr(s.sigma_value.lo), qstr(s.sigma_value.hi)]}
                for s in self.support
            ],
            "unresolved": {
                "generation": self.depth,
                "cell_count": self.kcell_count(self.depth),
                "w_mass_per_cell": qstr(self.carrier_w_mass(self.depth)),
                "sigma_mass_per_cell": [qstr(self.carrier_sigma_mass(self.depth).lo),
                                        qstr(self.carrier_sigma_mass(self.depth).hi)],
            },
        }


def build_construction(params: ConstructionParams, family_cap: int = FAMILY_CAP) -> WeightModel:
    return WeightModel(params, family_cap=family_cap)


def weight_on_cell(model: WeightModel, cell: TriadicCell, which: str = "w") -> CellWeight:
    """Classify w (or sigma, wtilde) restricted to a triadic cell.

    Constant exactly when the cell sits inside a support cell; zero on the
    vanishing set; otherwise a marker with the cell's exact mass.
    """
    _check_which(which)
    gen = len(model.carriers_holding(cell.left, cell.right)) - 1
    if cell.depth == gen * model.k:
        return CellWeight("unresolved", None, _carrier_mass(model, which, gen))
    core = TriadicCell(cell.address[:gen * model.k]).middle_child()
    placed, _side = model.place_core(core, gen + 1)
    if placed.contains(cell):
        val = _value(model, which, gen + 1)
        return CellWeight("const", val, val * cell.length)
    if cell.contains(placed):
        return CellWeight("unresolved", None, _support_mass(model, which, gen + 1))
    if core.contains(cell):
        # no tile of the core holds the cell, so it is a union of them
        count = 3 ** ((gen + 1) * model.k - cell.depth)
        return CellWeight("unresolved", None, _carrier_mass(model, which, gen + 1) * count)
    return CellWeight("zero", Enclosure.exact(0), Enclosure.exact(0))


def _carrier_mass(model, which, gen) -> Enclosure:
    if which == "w":
        return Enclosure.exact(model.carrier_w_mass(gen))
    if which == "sigma":
        return model.carrier_sigma_mass(gen)
    return model.scale * model.carrier_w_mass(gen)


def _support_mass(model, which, gen) -> Enclosure:
    # a support cell carries the w-mass of one carrier of its generation
    if which == "sigma":
        return model.support_sigma_mass(gen)
    return _carrier_mass(model, which, gen)


def _value(model, which, gen) -> Enclosure:
    if which == "w":
        return Enclosure.exact(model.w_value(gen))
    if which == "sigma":
        return model.sigma_value(gen)
    return model.wtilde_value(gen)


def _check_which(which: str):
    if which not in ("w", "sigma", "wTilde"):
        raise ValueError(f"which must be w|sigma|wTilde, got {which!r}")


# ---------------------------------------------------------------------------
# Direct sum of shifted, rescaled copies.

@dataclass(frozen=True)
class CompositeCopy:
    k: int
    shift: int  # 9**k
    model: WeightModel
    scale: Enclosure  # k**(-r)


@dataclass(frozen=True)
class CompositeWeight:
    copies: tuple[CompositeCopy, ...] = field(default_factory=tuple)

    def domain(self) -> list[IntervalQ]:
        return [IntervalQ(Q(c.shift), Q(c.shift + 1)) for c in self.copies]


def direct_sum(models: list[WeightModel], k_range: tuple[int, int] | None = None) -> CompositeWeight:
    """Shifted sum: copy k sits on [9^k, 9^k+1) with w scaled by k^-r."""
    if k_range is not None:
        k0, k1 = k_range
        if k0 < 2 or k1 < k0:
            raise ValueError(f"bad k range [{k0}, {k1}]")
        ks = [m.k for m in models]
        if ks != list(range(k0, k1 + 1)):
            raise ValueError(f"models' k values {ks} do not fill range [{k0}, {k1}]")
    seen = set()
    copies = []
    for m in models:
        shift = 9 ** m.k
        if shift in seen:
            raise ValueError(f"overlapping shift 9^{m.k}")
        seen.add(shift)
        copies.append(CompositeCopy(k=m.k, shift=shift, model=m, scale=m.scale))
    return CompositeWeight(tuple(sorted(copies, key=lambda c: c.k)))


# ---------------------------------------------------------------------------

def _even_sample(total: int, cap: int) -> list[int]:
    """Deterministic evenly spaced branch indices (all of them when small)."""
    if total <= cap:
        return list(range(total))
    return sorted({(i * total) // cap for i in range(cap)})
