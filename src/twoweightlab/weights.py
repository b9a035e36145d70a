"""Middle-third fractal weight pair on [0,1).

Generation by generation, every carrier cell pushes its whole w-mass onto
the union of its middle child (the "core") and one adjacent cell of length
3^(1-k) times the core's (the "support cell"), uniformly.  The dual weight
sigma is w^(1-p) on the support.  Everything about the limit object has a
closed form per generation, so the model is lazy: its families up to a
depth budget (capped lists for huge generations) are built on first read,
while masses, values and averages at any generation come from exact formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .enclosure import Enclosure, Q, pow_enclosure, qstr
from .triadic import TriadicCell, cell_from_index

PLACEMENTS = ("right", "left", "alternating")

FAMILY_CAP = 2048

MAX_GENERATIONS = 400  # deepest carrier a descent may reach


class BoundaryError(ValueError):
    """Evaluation point sits on a support-cell endpoint (log singularity)."""


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
    """One support cell of generation `gen`, beside its core, built on first read;
    w and sigma on it are `WeightModel.w_value(gen)` and `sigma_value(gen)`."""

    gen: int
    core: TriadicCell
    cell: TriadicCell


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
        if family_cap < 1:
            raise ValueError(f"family_cap must be >= 1, got {family_cap}")
        self.family_cap = family_cap
        self._moments: dict[int, tuple[Fraction, Fraction]] = {}

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
        """w on generation-`gen` support cells, which is also w's average
        over a generation-`gen` carrier."""
        return self.rho ** gen

    def sigma_value(self, gen: int) -> Enclosure:
        return self.b.pow_int(gen)

    def carrier_w_mass(self, gen: int) -> Fraction:
        return Q(1, (self.u + 1) ** gen)

    def carrier_moments(self, gen: int) -> tuple[Fraction, Fraction]:
        """Centroid and variance of a generation-`gen` carrier's w-mass, in
        support-cell lengths from the carrier's left end.

        The mass is u + 1 equal parts: the core tiles i = u..2u-1, each a
        next-generation carrier scaled by 3^-k, and the support cell, which
        carries it uniformly.  So the centroid A and second moment B satisfy
            A_g = (s1 + A_(g+1)/3 + s + 1/2) / (u + 1)
            B_g = (s2 + 2*s1*A_(g+1)/(3u) + B_(g+1)/(9u) + s^2 + s + 1/3) / (u + 1)
        with s1, s2 the sums of i and i^2 over the core and s the support
        offset of generation g + 1.  The map contracts and repeats with the
        placement's period (1, or 2 for alternating), whose fixed point is
        the limit measure's.
        """
        period = 2 if self.params.placement == "alternating" else 1
        cached = self._moments.get(gen % period)
        if cached is not None:
            return cached
        u = self.u
        s1 = Fraction(u * (3 * u - 1), 2)
        s2 = Fraction(u * (2 * u - 1) * (7 * u - 1), 6)

        def over_period(a, b):
            # the moments of generation gen from those of generation gen + period
            for h in range(gen + period, gen, -1):
                s = self.support_offset(h)
                a, b = ((s1 + a / 3 + s + Fraction(1, 2)) / (u + 1),
                        (s2 + 2 * s1 * a / (3 * u) + b / (9 * u) + s * s + s
                         + Fraction(1, 3)) / (u + 1))
            return a, b

        # the map is affine, A' = a0 + (a1 - a0) A and B' = b0 + (b1 - b0) A
        # + (b2 - b0) B, so its images of (0, 0), (1, 0) and (0, 1) fix it
        a0, b0 = over_period(Fraction(0), Fraction(0))
        a1, b1 = over_period(Fraction(1), Fraction(0))
        _a, b2 = over_period(Fraction(0), Fraction(1))
        centroid = a0 / (1 - (a1 - a0))
        second = (b0 + (b1 - b0) * centroid) / (1 - (b2 - b0))
        self._moments[gen % period] = cached = (centroid, second - centroid * centroid)
        return cached

    def carrier_sigma_mass(self, gen: int) -> Enclosure:
        return self.c * Q(1, 3 ** self.k) * self.b.pow_int(gen) * Q(1, 3 ** (gen * self.k))

    def avg_sigma_carrier(self, gen: int) -> Enclosure:
        return self.c * Q(1, 3 ** self.k) * self.b.pow_int(gen)

    # -- implicit family addressing ---------------------------------------

    def kcell(self, gen: int, branch: int) -> TriadicCell:
        """Carrier cell number `branch` (lexicographic) of generation `gen`."""
        if not 0 <= branch < self.kcell_count(gen):
            raise ValueError(f"branch {branch} out of range at generation {gen}")
        # one base-3^(k-1) digit t of `branch` per level, the last one first:
        # each carrier is tile u + t of its parent, as in carriers_holding
        index, scale = 0, 1
        for _ in range(gen):
            branch, t = divmod(branch, self.u)
            index += (self.u + t) * scale
            scale *= 3 ** self.k
        return TriadicCell(gen * self.k, index)

    def jcell(self, gen: int, branch: int) -> TriadicCell:
        """Core number `branch` of generation `gen`: its carrier's middle third."""
        if gen < 1:
            raise ValueError("core generations start at 1")
        return self.kcell(gen - 1, branch).middle_child()

    def place_core(self, core: TriadicCell, gen: int) -> tuple[TriadicCell, str]:
        """Support cell beside a generation-`gen` core, with its side."""
        if core.index % 3 != 1:
            raise ValueError(f"{core} is not the middle child of a carrier")
        index = core.index // 3 * 3 ** self.k + self.support_offset(gen)
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

    def support_chain(self, x) -> tuple[list[int], int]:
        """`carriers_holding(x, x)` and the index of its last carrier's
        support cell S among the cells of depth len(chain)*k; ValueError
        unless S holds x.  A support cell's right end, off the support,
        raises `BoundaryError`: S's, or a left-placed one's of the carrier
        before, where the first tile of its core starts the chain's last.
        """
        x = Fraction(x)
        chain = self.carriers_holding(x, x)
        step, gen = 3 ** self.k, len(chain)
        index = chain[-1] * step + self.support_offset(gen)
        at = x * step ** gen  # in lengths of S
        if index <= at < index + 1:
            return chain, index
        message = f"x={x} lies outside the support of w"
        if at == index + 1 or gen > 1 and at == (
                chain[-2] * step + self.support_offset(gen - 1) + 1) * step:
            raise BoundaryError(message + ", at a support cell's right end")
        raise ValueError(message)

    # -- families, built on first read --------------------------------------

    @cached_property
    def kcells(self) -> list[list[TriadicCell]]:
        """Carrier cells of generations 0..depth, up to `family_cap` each."""
        return [[self.kcell(gen, i) for i in _even_sample(self.kcell_count(gen), self.family_cap)]
                for gen in range(self.depth + 1)]

    @cached_property
    def support(self) -> list[SupportCell]:
        """Support cells of generations 1..depth, up to `family_cap` each."""
        cells = []
        for gen in range(1, self.depth + 1):
            for i in _even_sample(self.jcell_count(gen), self.family_cap):
                core = self.jcell(gen, i)
                cells.append(SupportCell(gen, core, self.place_core(core, gen)[0]))
        return cells

    def support_cells(self, gen: int) -> list[SupportCell]:
        return [s for s in self.support if s.gen == gen]

    # -- serialization ------------------------------------------------------

    def serialize(self) -> dict:
        p = self.params
        values = {}  # a generation's support cells share its side and values
        for gen in range(1, self.depth + 1):
            sigma = self.sigma_value(gen)
            values[gen] = {"side": self.side_for(gen), "w_value": qstr(self.w_value(gen)),
                           "sigma_value": [qstr(sigma.lo), qstr(sigma.hi)]}
        return {
            "params": {"k": p.k, "p": qstr(p.p), "r": qstr(p.r),
                       "placement": p.placement, "depth": p.depth},
            "family_counts": {
                "K": {str(g): self.kcell_count(g) for g in range(self.depth + 1)},
                "J": {str(g): self.jcell_count(g) for g in range(1, self.depth + 1)},
            },
            "support": [
                {"gen": s.gen, "core": s.core.address, "cell": s.cell.address,
                 **values[s.gen]}
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


def _carrier_mass(model, which, gen) -> Enclosure:
    if which == "w":
        return Enclosure.exact(model.carrier_w_mass(gen))
    if which == "sigma":
        return model.carrier_sigma_mass(gen)
    return model.scale * model.carrier_w_mass(gen)


def _value(model, which, gen) -> Enclosure:
    if which == "w":
        return Enclosure.exact(model.w_value(gen))
    if which == "sigma":
        return model.sigma_value(gen)
    return model.scale * model.w_value(gen)


def _check_which(which: str):
    if which not in ("w", "sigma", "wTilde"):
        raise ValueError(f"which must be w|sigma|wTilde, got {which!r}")


# ---------------------------------------------------------------------------

def _even_sample(total: int, cap: int) -> list[int]:
    """Deterministic evenly spaced branch indices (all of them when small)."""
    if total <= cap:
        return list(range(total))
    return sorted({(i * total) // cap for i in range(cap)})
