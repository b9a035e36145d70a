"""The four benchmark workloads: seeded inputs, one task per library call.

A workload builds its models once (set-up) and then yields rounds.  A round
is a fixed list of task kinds whose inputs are drawn from a random stream
keyed on the workload, the seed and the round number, so the same seed gives
the same tasks.  Models are shared across tasks, as the criteria share them,
but each task draws its own cell, point, family or step function, so a cache
keyed on a whole query almost never hits.  The runner executes whole rounds,
which keeps the mix of cheap and costly tasks the same in every run whatever
its length.

Each task is a `Task`: a label naming its inputs, a call into the library's
public functions, and an `observe` function that turns the output into
comparable records (see `checks`) plus a list of broken invariants.  The
invariants hold for every seed; the records are compared with a reference
only where one was recorded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from twoweightlab import hilbert, lorentz, measures, sparse, triadic, weights

import checks

Q = Fraction
R = Q(3, 2)  # the midpoint of the admissible r window at p = 2, as in C14
UNIT = triadic.IntervalQ(Q(0), Q(1))


@dataclass
class Task:
    label: str
    call: Callable[[], object]
    observe: Callable[[object], tuple[list, list[str]]]


def _model(k: int, depth: int, cap: int) -> weights.WeightModel:
    params = weights.ConstructionParams(k=k, p=Q(2), r=R, depth=depth)
    return weights.build_construction(params, family_cap=cap)


def _carrier(rng: random.Random, model: weights.WeightModel, gens) -> triadic.TriadicCell:
    gen = rng.choice(gens)
    return model.kcell(gen, rng.randrange(model.kcell_count(gen)))


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


class Workload:
    name = ""
    trace_rounds = 1       # rounds of the traced run
    reference_rounds = 1   # rounds recorded per seed in the reference file

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Task]:
        return self.make_round(random.Random(f"{self.name}|{self.seed}|{r}"), r)

    def make_round(self, rng: random.Random, r: int) -> list[Task]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

def _observe_norm_ratio(res: dict) -> tuple[list, list[str]]:
    problems = []
    ratio, indicator = res["ratio"], res["indicator"]
    if not indicator < 1e-3:
        problems.append(f"indicator {indicator!r} is not below 1e-3")
    if not (math.isfinite(ratio) and ratio > 0):
        problems.append(f"ratio {ratio!r} is not a positive number")
    return [checks.norm_ratio(ratio, indicator)], problems


class HilbertNorm(Workload):
    """One `hilbert_norm_ratio` per task, as in C10 but on one cell per generation.

    `edge_levels` per model is the smallest value whose indicator stays below
    1e-3 with a margin of about 3x, so a task takes seconds.
    """

    name = "hilbert-norm"
    trace_rounds = 1
    reference_rounds = 2
    PLAN = ((6, 3), (12, 1))          # (k, edge_levels)
    TINY_PLAN = ((12, 0),)

    def __init__(self, seed, tiny):
        super().__init__(seed)
        self.plan = self.TINY_PLAN if tiny else self.PLAN
        self.gen_cap = 1 if tiny else 2
        self.models = {k: _model(k, 2, weights.FAMILY_CAP) for k, _ in self.plan}

    def make_round(self, rng, r):
        tasks = []
        for k, levels in self.plan:
            model, s = self.models[k], _seed(rng)

            def call(model=model, levels=levels, s=s):
                return hilbert.hilbert_norm_ratio(model, p=2, nodes=3, edge_levels=levels,
                                                  cells_per_gen=1, gen_cap=self.gen_cap,
                                                  seed=s, budget_rel=2e-3)

            tasks.append(Task(f"hilbert_norm_ratio k={k} edge_levels={levels} "
                              f"gen_cap={self.gen_cap} seed={s}", call, _observe_norm_ratio))
        return tasks


# ---------------------------------------------------------------------------

REL_WIDTH = 0.01  # C9's relative width


def _pointwise(model: weights.WeightModel, gen: int, x: Fraction) -> hilbert.HilbertValue:
    """C9's procedure for one probe point: budgeted call, tightened once if needed."""
    scale = model.k * float(model.w_value(gen))
    hv = hilbert.hilbert_weight(model, x, tail_budget=0.5 * REL_WIDTH * scale)
    if hv.value.mid != 0 and hv.width > REL_WIDTH * abs(hv.value.mid):
        hv = hilbert.hilbert_weight(model, x, tail_budget=0.8 * REL_WIDTH * abs(hv.value.mid))
    return hv


def _observe_hilbert(hv: hilbert.HilbertValue) -> tuple[list, list[str]]:
    problems = []
    if not hv.converged:
        problems.append("enclosure did not converge")
    if not hv.width <= REL_WIDTH * abs(hv.value.mid):
        problems.append(f"width {hv.width!r} exceeds {REL_WIDTH} of |{hv.value.mid!r}|")
    return [checks.enclosure(hv.value.lo, hv.value.hi)], problems


def _observe_maximal(res: dict) -> tuple[list, list[str]]:
    problems = []
    if not res["w"] <= res["lower"] <= res["upper"]:
        problems.append("bounds are not ordered w <= lower <= upper")
    return [checks.exact(res["lower"]), checks.exact(res["upper"])], problems


class PointProbe(Workload):
    """Single-point queries: C9's `hilbert_weight` enclosures and C11's `maximal_at`."""

    name = "point-probe"
    trace_rounds = 10
    reference_rounds = 6
    HILBERT_KS = (6, 8, 10, 12)
    MAXIMAL_KS = (4, 5, 6, 7, 8)
    # three generation-2 points per k: the median task is then a ~50 ms
    # generation-2 point (~470 expansions), not one of the cheaper queries
    HILBERT_GENS = (1, 2, 2, 2)
    SAMPLES = 729  # sample positions per probe cell, as probe_points spaces them

    def __init__(self, seed, tiny):
        super().__init__(seed)
        self.hilbert_ks = (12,) if tiny else self.HILBERT_KS
        self.maximal_ks = (4,) if tiny else self.MAXIMAL_KS
        self.models = {k: _model(k, 2, weights.FAMILY_CAP)
                       for k in sorted(set(self.hilbert_ks) | set(self.maximal_ks))}
        # generation 1 has a single probe cell, so its points differ only by
        # sample position: walk a seeded permutation of them, one per round
        self.positions = random.Random(f"{self.name}|{seed}").sample(
            range(self.SAMPLES), self.SAMPLES)

    def _point(self, rng, model, gen, r) -> Fraction:
        """A probe_points sample: position (2j+1)/(2*SAMPLES) of a seeded probe cell."""
        probe, _mid = hilbert.probe_points(model, gen, 1, 1, _seed(rng))[0]
        j = self.positions[r % self.SAMPLES] if gen == 1 else rng.randrange(self.SAMPLES)
        return probe.left + probe.length * Q(2 * j + 1, 2 * self.SAMPLES)

    def make_round(self, rng, r):
        tasks = []
        for k in self.hilbert_ks:
            model = self.models[k]
            for gen in self.HILBERT_GENS:
                x = self._point(rng, model, gen, r)
                tasks.append(Task(f"hilbert_weight k={k} gen={gen} x={x}",
                                  lambda model=model, gen=gen, x=x: _pointwise(model, gen, x),
                                  _observe_hilbert))
        for k in self.maximal_ks:
            model = self.models[k]
            for gen in (1, 2):
                x = self._point(rng, model, gen, r)
                tasks.append(Task(f"maximal_at k={k} gen={gen} x={x}",
                                  lambda model=model, x=x: hilbert.maximal_at(model, x, 2),
                                  _observe_maximal))
        return tasks


# ---------------------------------------------------------------------------

EPSILONS = (Q(1, 3), Q(1, 2), Q(2, 3))


def _observe_sum(rep, exact_expected: bool) -> tuple[list, list[str]]:
    s = rep.sum
    problems = []
    if s.lo < 0:
        problems.append(f"testing sum {s} is negative")
    if exact_expected and not s.is_exact:
        problems.append(f"testing sum over triadic members is not exact: {s}")
    return [checks.enclosure(s.lo, s.hi)], problems


def _observe_random_family(out) -> tuple[list, list[str]]:
    fam, root, local = out
    records = [checks.structure(fam.serialize())]
    problems = []
    for rep in (root, local):
        recs, probs = _observe_sum(rep, exact_expected=True)
        records += recs
        problems += probs
    return records, problems


def _observe_adversarial(out) -> tuple[list, list[str]]:
    fam, rep = out
    records, problems = _observe_sum(rep, exact_expected=False)
    return [checks.structure(fam.serialize())] + records, problems


def _observe_ap(prod) -> tuple[list, list[str]]:
    problems = []
    if not prod.is_exact:
        problems.append(f"product on a triadic cell is not exact: {prod}")
    if prod.lo < 0:
        problems.append(f"product {prod} is negative")
    return [checks.enclosure(prod.lo, prod.hi)], problems


def _random_family_task(model, eps, s, support):
    fam = sparse.gen_random_martingale(6, eps, s)
    root = sparse.testing_report(model, fam, UNIT, max_depth=400)
    local = sparse.transplant_family(fam, support)
    return fam, root, sparse.testing_report(model, local, support.interval(), max_depth=400)


def _adversarial_task(model, kind, carrier, eps, max_depth):
    fam = sparse.gen_adversarial(model, kind, carrier, eps)
    return fam, sparse.testing_report(model, fam, carrier.interval(), max_depth=max_depth)


class SparseTesting(Workload):
    """Many small exact-rational calls: C5's families, C6's chains, C4's products."""

    name = "sparse-testing"
    trace_rounds = 20
    reference_rounds = 3
    KS = (2, 3, 4, 5, 6)          # random and adversarial families, as in C5
    CHAIN_KS = (7, 8, 9, 10, 11, 12)  # S3 chains only, as in C6
    AP_KS = (2, 3, 4, 5, 6, 7, 8)     # ap_product, as in C4

    def __init__(self, seed, tiny):
        super().__init__(seed)
        self.ks = (2, 3) if tiny else self.KS
        self.chain_ks = (7,) if tiny else self.CHAIN_KS
        self.ap_ks = (2, 3) if tiny else self.AP_KS
        ks = set(self.ks) | set(self.chain_ks) | set(self.ap_ks)
        # C5 builds depth 2 (cap 32) and C6 depth 1 (cap 16); C4's products do
        # not depend on the depth, so each k has one model
        self.models = {k: _model(k, 2, 32) if k <= 6 else _model(k, 1, 16)
                       for k in sorted(ks)}

    def make_round(self, rng, r):
        tasks = []
        for k in self.ks:
            model = self.models[k]
            for eps in EPSILONS:
                s, support = _seed(rng), rng.choice(model.support).cell
                tasks.append(Task(
                    f"random_martingale k={k} eps={eps} seed={s} support={support.address}",
                    lambda model=model, eps=eps, s=s, support=support:
                        _random_family_task(model, eps, s, support),
                    _observe_random_family))
            for kind in ("chainToward_IJ", "S1", "S2", "S3", "boundaryChain"):
                # C6 and C7 run S3 and boundaryChain at eps = 1/3
                eps = rng.choice(EPSILONS) if kind in ("chainToward_IJ", "S1", "S2") else Q(1, 3)
                depth = 400 if kind in ("chainToward_IJ", "S1", "S2") else 2 * k + 60
                tasks.append(self._adversarial(rng, model, kind, eps, depth))
        for k in self.chain_ks:
            tasks.append(self._adversarial(rng, self.models[k], "S3", Q(1, 3), 2 * k + 60))
        for k in self.ap_ks:
            d = rng.randint(k + 1, 3 * k)
            cell = triadic.cell_from_index(d, rng.randrange(3 ** d))
            model = self.models[k]
            tasks.append(Task(f"ap_product k={k} cell={cell.address}",
                              lambda model=model, cell=cell: measures.ap_product(
                                  model, cell.interval(), "forward", max_depth=400),
                              _observe_ap))
        return tasks

    def _adversarial(self, rng, model, kind, eps, depth) -> Task:
        carrier = _carrier(rng, model, (0, 1, 2) if model.k <= 6 else (0, 1))
        return Task(f"{kind} k={model.k} eps={eps} carrier={carrier.address or 'root'}",
                    lambda: _adversarial_task(model, kind, carrier, eps, depth),
                    _observe_adversarial)


# ---------------------------------------------------------------------------

def _observe_norm(enc) -> tuple[list, list[str]]:
    problems = []
    if not (0 < enc.lo and math.isfinite(enc.hi)):
        problems.append(f"norm enclosure {enc} is not positive and finite")
    return [checks.enclosure(enc.lo, enc.hi)], problems


def _observe_luxemburg(atoms, young):
    def observe(lam: float) -> tuple[list, list[str]]:
        # the norm is the least lambda with sum m * Phi(v / lambda) <= 1
        modular = sum(float(m) * young(float(v) / lam) for v, m in atoms)
        problems = []
        if not (lam > 0 and modular <= 1 + 1e-9):
            problems.append(f"modular {modular!r} exceeds 1 at lambda {lam!r}")
        return [checks.estimate(lam, 1e-9)], problems
    return observe


def _step_function(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Seeded nonnegative step function on [0, 1) as (value, measure) atoms (as in C17)."""
    while True:
        cuts = sorted(rng.sample(range(1, 64), rng.randint(1, 6)))
        bounds = [Q(0)] + [Q(c, 64) for c in cuts] + [Q(1)]
        atoms = []
        for a, b in zip(bounds, bounds[1:]):
            value = Q(rng.randint(0, 40), rng.randint(1, 8))
            if value > 0:
                atoms.append((value, b - a))
        if atoms:
            return atoms


class LorentzTails(Workload):
    """Lorentz norms, bump products and Luxemburg norms, as in C13, C14 and C17.

    Only the psi gauge on a w distribution sums its tail term by term
    (~3^(k-1) terms); every other task closes its tail in closed form.
    """

    name = "lorentz-tails"
    trace_rounds = 4
    reference_rounds = 2
    KS = (2, 3, 4, 5, 6, 7, 8, 9)  # C14's range plus k = 9
    # C14's carrier generations; a distribution depends on the generation
    # only, so a cache keyed on (k, generation) can gain but one keyed on the
    # whole query (which names the carrier) cannot
    GENS = (0, 1, 2)
    # half the tasks of a round cost under 1 ms or over 2 ms, so the median
    # lands inside the ~1.8 ms sigma-distribution tasks, not between groups
    LUXEMBURG_PER_ROUND = 4

    def __init__(self, seed, tiny):
        super().__init__(seed)
        self.ks = (2, 3, 4) if tiny else self.KS
        self.luxemburg_per_round = 2 if tiny else self.LUXEMBURG_PER_ROUND
        self.models = {k: _model(k, 2, 8) for k in self.ks}
        self.psi = lorentz.psi(R)
        self.phi0 = lorentz.phi0()
        self.youngs = (lorentz.phi_r_young(R), lorentz.llogl_young())

    def _norm(self, rng, model, which, gauge, rel_tol) -> Task:
        cell = _carrier(rng, model, self.GENS)
        return Task(f"lorentz_norm k={model.k} {which} gauge={gauge.name} "
                    f"carrier={cell.address or 'root'}",
                    lambda: lorentz.lorentz_norm(lorentz.distribution(model, cell, which),
                                                 gauge, rel_tol=rel_tol),
                    _observe_norm)

    def _bump(self, rng, model, norm, direction) -> Task:
        cell = _carrier(rng, model, self.GENS)
        return Task(f"bump_product k={model.k} {norm} {direction} "
                    f"carrier={cell.address or 'root'}",
                    lambda: lorentz.bump_product(model, cell, norm, direction),
                    _observe_norm)

    def make_round(self, rng, r):
        tasks = []
        for k in self.ks:
            model = self.models[k]
            flip = (k + r) % 2
            tasks.append(self._norm(rng, model, "w", self.psi, 1e-7))
            tasks.append(self._norm(rng, model, "sigma", self.psi, 1e-7))
            tasks.append(self._norm(rng, model, ("w", "sigma")[flip], self.phi0, 1e-9))
            tasks.append(self._bump(rng, model, "entropyPhi0", ("forward", "dual")[flip]))
            # the forward psi product sums the w tail; keep it where that costs ms
            tasks.append(self._bump(rng, model, "lorentzPsi",
                                    "forward" if k <= 4 else "dual"))
        for i in range(self.luxemburg_per_round):
            atoms = _step_function(rng)
            young = self.youngs[i % 2]
            tasks.append(Task(f"luxemburg_norm {young.name} "
                              f"atoms={[(str(v), str(m)) for v, m in atoms]}",
                              lambda atoms=atoms, young=young:
                                  lorentz.luxemburg_norm(atoms, young),
                              _observe_luxemburg(atoms, young)))
        return tasks


WORKLOADS = {w.name: w for w in (HilbertNorm, PointProbe, SparseTesting, LorentzTails)}
