"""Sparse interval families: validation, generation, testing sums, embedding.

Families are finite tuples of half-open rational intervals.  Every family
is martingale sparse: its members satisfy nested-or-disjoint trichotomy
plus the child-measure bound, under which the maximal strict members below
any member R carry total length at most eps*|R|.  All checks run in exact
rationals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .enclosure import Enclosure, Q, enclosure_sum, pow_enclosure, qstr
from .measures import average, carrier_generation, mass
from .triadic import IntervalQ, TriadicCell, cell_from_index, cell_of
from .weights import WeightModel


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class SparseFamily:
    """A martingale family with sparseness eps in (0, 1)."""

    members: tuple[IntervalQ, ...]
    sparseness: Fraction

    def __post_init__(self):
        if not 0 < self.sparseness < 1:
            raise FamilyError(f"sparseness must lie in (0,1), got {self.sparseness}")
        if len(set(self.members)) != len(self.members):
            raise FamilyError("duplicate members")

    def serialize(self) -> dict:
        return {
            "kind": "martingale",  # the wire format keeps the one kind there is
            "sparseness": qstr(self.sparseness),
            "members": [[qstr(i.left), qstr(i.right)] for i in self.members],
        }


def family_from_cells(cells, sparseness) -> SparseFamily:
    return SparseFamily(tuple(c.interval() for c in cells), Fraction(sparseness))


def transplant_family(family: SparseFamily, cell: TriadicCell) -> SparseFamily:
    """Affine copy of a triadic-grid family inside a target triadic cell.

    Sparseness is scale-invariant, so the child-measure bound carries over.
    """
    members = []
    for m in family.members:
        sub = cell_of(m)
        if sub is None:
            raise FamilyError("transplant needs triadic members")
        members.append(cell.descendant(sub.depth, sub.index).interval())
    return SparseFamily(tuple(members), family.sparseness)


# ---------------------------------------------------------------------------
# Validators.

def children_map(members) -> dict[IntervalQ, list[IntervalQ]]:
    """Forest structure: maximal strict members below each member.

    One pass in (left, -right) order; FamilyError if two members overlap
    without nesting.
    """
    out: dict[IntervalQ, list[IntervalQ]] = {m: [] for m in members}
    stack: list[IntervalQ] = []  # nested members, innermost last
    for child in sorted(members, key=lambda i: (i.left, -i.right)):
        while stack and stack[-1].right <= child.left:
            stack.pop()
        if stack:
            parent = stack[-1]
            if child.right > parent.right:
                raise FamilyError(f"members {parent} and {child} overlap without nesting")
            out[parent].append(child)
        stack.append(child)
    return out


def is_martingale_sparse(family: SparseFamily) -> tuple[bool, dict]:
    """Child-measure validation; raises on trichotomy violations.

    Returns (ok, report); on failure the report names the parent and the
    exact excess above eps*|R|.
    """
    eps = family.sparseness
    for parent, kids in children_map(family.members).items():
        load = sum((k.length for k in kids), Q(0))
        if load > eps * parent.length:
            return False, {"parent": parent, "children_measure": load,
                           "budget": eps * parent.length,
                           "excess": load - eps * parent.length}
    return True, {"parents": len(family.members)}


# ---------------------------------------------------------------------------
# Generators.

def gen_random_martingale(grid_depth: int, eps, seed: int,
                          max_members: int = 48) -> SparseFamily:
    """Seeded martingale family inside the triadic grid, valid by construction."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise FamilyError("eps must lie in (0,1)")
    rng = random.Random(f"martingale|{grid_depth}|{eps}|{seed}")
    members: list[TriadicCell] = []

    def walk(cell: TriadicCell):
        if len(members) >= max_members:
            return
        members.append(cell)
        room = grid_depth - cell.depth
        if room <= 0:
            return
        j = rng.randint(1, min(3, room))
        budget = math.floor(eps * 3 ** j)
        if budget <= 0:
            return
        take = rng.randint(0, min(budget, 4))
        if take == 0:
            return
        picks = rng.sample(range(3 ** j), take)
        for t in sorted(picks):
            walk(cell.descendant(j, t))

    if grid_depth >= 0 and rng.random() < 0.95:
        walk(TriadicCell(0, 0))
    fam = family_from_cells(members, eps)
    if members:
        ok, report = is_martingale_sparse(fam)
        if not ok:
            raise FamilyError(f"generator postcondition failed: {report}")
    return fam


ADVERSARIAL_KINDS = ("chainToward_IJ", "S1", "S2", "S3", "S4", "boundaryChain")


def gen_adversarial(model: WeightModel, kind: str, carrier: TriadicCell,
                    eps) -> SparseFamily:
    """Extremal families around one carrier's core/support boundary."""
    eps = Fraction(eps)
    if kind not in ADVERSARIAL_KINDS:
        raise FamilyError(f"unknown adversarial kind {kind!r}")
    gen = carrier_generation(model, carrier)
    core = carrier.middle_child()
    placed, side = model.place_core(core, gen + 1)
    if kind == "chainToward_IJ":
        cells = _thin_chain(_ancestor_chain(carrier, placed), eps)
        return family_from_cells(cells, eps)
    if kind == "S1":
        path = [core.descendant(t, 0) for t in range(model.k - 1)]
        return family_from_cells(_thin_chain(path, eps), eps)
    if kind == "S2":
        chain = _ancestor_chain(carrier, placed)[1:]  # strictly inside the side child
        return family_from_cells(_thin_chain(chain, eps), eps)
    if kind in ("S3", "S4"):
        return SparseFamily(tuple(_boundary_chain(model, carrier, core, placed,
                                                  side, eps, kind)), eps)
    # boundaryChain: the carrier plus straddling chains in disjoint sibling tiles
    members: list[IntervalQ] = [carrier.interval()]
    tiles = _sample_tiles(model, core)
    for tile in tiles:
        tgen = gen + 1
        tcore = tile.middle_child()
        tplaced, tside = model.place_core(tcore, tgen + 1)
        members.extend(_boundary_chain(model, tile, tcore, tplaced, tside, eps, "S3"))
    fam = SparseFamily(tuple(members), eps)
    ok, report = is_martingale_sparse(fam)
    if not ok:
        raise FamilyError(f"boundary chain postcondition failed: {report}")
    return fam


def _ancestor_chain(carrier: TriadicCell, placed: TriadicCell) -> list[TriadicCell]:
    return [placed.ancestor(d) for d in range(carrier.depth, placed.depth + 1)]


def _thin_chain(cells: list[TriadicCell], eps: Fraction) -> list[TriadicCell]:
    if eps >= Q(1, 3):
        return cells
    step = math.ceil(math.log(float(1 / eps)) / math.log(3.0))
    return cells[::step]


def _boundary_chain(model, carrier, core, placed, side, eps, kind) -> list[IntervalQ]:
    """Nested intervals through the shared endpoint of core and support cell."""
    lam = placed.length
    if side == "right":
        e = core.right
        into_core, into_support = Q(2, 3), Q(1, 3)
    else:
        e = core.left
        into_core, into_support = -Q(2, 3), -Q(1, 3)
    out = []
    if kind == "S3":
        length = carrier.length * eps
        floor_len = 2 * lam
    else:
        length = 2 * lam * eps
        floor_len = min(2 * lam * eps ** 12, Q(1, 3 ** 40))
    while length >= floor_len:
        a = e - into_core * length
        b = e + into_support * length
        lo, hi = min(a, b), max(a, b)
        out.append(IntervalQ(lo, hi))
        length *= eps
        if kind == "S4" and len(out) >= 12:
            break
    return out


def _sample_tiles(model: WeightModel, core: TriadicCell) -> list[TriadicCell]:
    width = model.k - 1
    total = 3 ** width
    picks = sorted({0, total // 3, (2 * total) // 3, total - 1})
    return [core.descendant(width, t) for t in picks]


# ---------------------------------------------------------------------------
# Testing sums and reports.

def testing_sum(model, family: SparseFamily, L: IntervalQ, direction: str = "forward",
                max_depth: int = 60) -> Enclosure:
    """Sawyer-type sum over members inside L of <w>^p <sigma> |I| (or its dual)."""
    if direction not in ("forward", "dual"):
        raise FamilyError("direction must be forward|dual")
    terms = []
    for member in family.members:
        if not L.contains(member):
            continue
        aw = average(model, "w", member, max_depth)
        asig = average(model, "sigma", member, max_depth)
        if direction == "forward":
            term = pow_enclosure(aw, model.params.p) * asig
        else:
            term = pow_enclosure(asig, model.params.p_prime) * aw
        terms.append(term * member.length)
    return enclosure_sum(terms) if terms else Enclosure.exact(0)


@dataclass(frozen=True)
class TestingReport:
    sum: Enclosure
    bound: Enclosure
    ratio: float
    kfree_ratio: float | None


def testing_report(model: WeightModel, family: SparseFamily, L: IntervalQ,
                   direction: str = "forward", max_depth: int = 60,
                   rescaled: bool = False) -> TestingReport:
    """Ratio of the testing sum against k*w(L)/(1-eps), reported, not judged."""
    eps = family.sparseness
    s = testing_sum(model, family, L, direction, max_depth=max_depth)
    which = "w" if direction == "forward" else "sigma"
    wl = mass(model, which, L, max_depth)
    if wl.hi == 0:
        # a member inside a massless L has no mass either, so the sum is 0 too
        return TestingReport(s, wl, 0.0, 0.0)
    k = model.k
    bound = wl * Q(k) * (1 / (1 - eps))
    ratio = float(s.mid) * float(1 - eps) / (k * float(wl.mid))
    kfree = None
    if cell_of(L) is not None and all(cell_of(m) is not None for m in family.members):
        kfree = float(s.mid) * float(1 - eps) / float(wl.mid)
    if rescaled:
        # forward sums gain scale^p while w(L) gains scale; dual sums gain one
        # scale factor against an unchanged sigma(L)
        sc = float(model.scale.mid)
        factor = sc ** (float(model.params.p) - 1) if direction == "forward" else sc
        ratio *= factor
        if kfree is not None:
            kfree *= factor
    return TestingReport(s, bound, ratio, kfree)


# ---------------------------------------------------------------------------
# Exact packing and chain inequalities.

def sparse_packing_check(family: SparseFamily, L: IntervalQ) -> dict:
    """Sum over members inside L of |Q| against |L|/(1-eps), exact."""
    lhs = sum((m.length for m in family.members if L.contains(m)), Q(0))
    rhs = L.length / (1 - family.sparseness)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs}


def chain_decay_check(chain: list[IntervalQ], floor_len, p: int, eps) -> dict:
    """For a containment chain with |Q| >= floor_len: sum 1/|Q|^p <= 1/(c^p (1-eps))."""
    members = sorted(chain, key=lambda i: i.length)
    eps, c = Fraction(eps), Fraction(floor_len)
    for small, big in zip(members, members[1:]):
        if not big.contains(small):
            raise FamilyError("not a containment chain")
    if members and members[0].length < c:
        raise FamilyError("chain member below the stated floor")
    lhs = sum((1 / m.length ** p for m in members), Q(0))
    rhs = 1 / (c ** p * (1 - eps))
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs}


def restricted_packing_check(family: SparseFamily, pieces: list[IntervalQ],
                             L: IntervalQ, p: int) -> dict:
    """Sum (|Q ∩ E|/|Q|)^(p+1) |Q| against |L ∩ E|/(1-eps), constant measured."""
    eps = family.sparseness
    lhs = Q(0)
    for member in family.members:
        if not L.contains(member):
            continue
        inter = _pieces_overlap(pieces, member)
        if inter > 0:
            lhs += (inter / member.length) ** (p + 1) * member.length
    le = _pieces_overlap(pieces, L)
    rhs = le / (1 - eps) if le > 0 else Q(0)
    measured = float(lhs / rhs) if rhs > 0 else 0.0
    cap = Fraction((p + 1), p) ** (p + 1) / (1 - eps)
    return {"lhs": lhs, "rhs": rhs, "measured_constant": measured,
            "ok": lhs <= cap * le if le > 0 else lhs == 0}


def _pieces_overlap(pieces: list[IntervalQ], window: IntervalQ) -> Fraction:
    total = Q(0)
    for p in pieces:
        iv = p.intersect(window)
        if iv is not None:
            total += iv.length
    return total


# ---------------------------------------------------------------------------
# Carleson embedding on the triadic grid.

def carleson_check(depth: int, coeffs: dict[TriadicCell, Fraction], f_leaves: list,
                   p: int, A) -> dict:
    """Exact Carleson embedding check over the depth-`depth` triadic grid.

    `coeffs` maps triadic cells to nonnegative a_Q; `f_leaves` gives f on the
    depth-level cells, which carry Lebesgue measure.
    The packing precondition is validated first and failures name the cell
    by its address.  A cell deeper than `depth` raises ValueError.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError("integer p >= 2 required for the exact check")
    A = Fraction(A)
    n = 3 ** depth
    if len(f_leaves) != n:
        raise ValueError(f"need {n} leaf values")
    f = [Fraction(v) for v in f_leaves]
    if any(v < 0 for v in f):
        raise ValueError("f must be nonnegative")
    # a depth-d cell has measure 3^-d, so only f's sums over cells vary
    sums = [f]
    while len(sums[-1]) > 1:
        prev = sums[-1]
        sums.append([sum(prev[3 * i:3 * i + 3], Q(0)) for i in range(len(prev) // 3)])
    sums.reverse()
    a = {}
    for cell, value in coeffs.items():
        if cell.depth > depth:
            raise ValueError(f"coefficient cell {cell.address!r} lies below depth {depth}")
        a[cell.depth, cell.index] = Fraction(value)

    packing = [[Q(0)] * len(level) for level in sums]
    for d in range(depth, -1, -1):
        mu = Q(1, 3 ** d)
        for i in range(3 ** d):
            own = a.get((d, i), 0) * mu
            if own < 0:
                raise ValueError("coefficients must be nonnegative")
            below = sum(packing[d + 1][3 * i:3 * i + 3], Q(0)) if d < depth else Q(0)
            packing[d][i] = own + below
            if packing[d][i] > A * mu:
                return {"ok": False, "stage": "precondition",
                        "cell": cell_from_index(d, i).address,
                        "lhs": packing[d][i], "rhs": A * mu}
    lhs = Q(0)
    for (d, i), aq in a.items():
        if aq != 0:
            lhs += (sums[d][i] / 3 ** (depth - d)) ** p * aq * Q(1, 3 ** d)
    p_prime = Fraction(p, p - 1)
    rhs = p_prime ** p * A * sum((fv ** p for fv in f), Q(0)) / n
    return {"ok": lhs <= rhs, "stage": "embedding", "lhs": lhs, "rhs": rhs}
