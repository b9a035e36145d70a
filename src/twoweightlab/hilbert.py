"""Hilbert transform of the fractal weight and maximal-function bounds.

The kernel convention is Hf(x) = p.v. integral of f(t)/(x-t) dt, without a
1/pi; every reported inequality is scale-free so the convention only fixes
units.  Piecewise-constant parts integrate in closed form through the log
kernel.  The rest of the mass is enclosed adaptively by the walks over the
carrier tree in `treewalk`: at single points for `hilbert_weight`, and over
whole support cells for the norm-ratio quadrature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .enclosure import FloatInterval, Q, log_abs_ratio_interval
from .measures import MeasureQuery, mass
from .treewalk import BoundaryError, CellField, walk
from .triadic import IntervalQ, TriadicCell
from .weights import WeightModel

_INF = float("inf")


def hilbert_indicator(a, b, x) -> float:
    """H of the indicator of [a, b) at x: log|x-a| - log|x-b| (p.v. inside)."""
    a, b, x = Fraction(a), Fraction(b), Fraction(x)
    if not a < b:
        raise ValueError("need a < b")
    if x == a or x == b:
        raise BoundaryError("evaluation point is a kernel endpoint")
    return log_abs_ratio_interval(x - a, x - b).mid


@dataclass
class HilbertValue:
    value: FloatInterval
    width: float
    expansions: int
    converged: bool

    @property
    def mid(self) -> float:
        return self.value.mid


def hilbert_weight(model: WeightModel, x, tail_budget: float = 1e-6,
                   max_expansions: int = 20000) -> HilbertValue:
    """Adaptive enclosure of Hw(x); reports the achieved width if the budget
    cannot be met within the expansion cap."""
    x = Fraction(x)
    bounds, expansions = walk(model, x.numerator, x.denominator, 0, 0,
                              tail_budget, max_expansions)
    if bounds is None:
        return HilbertValue(FloatInterval(-_INF, _INF), _INF, expansions, False)
    width = bounds[1] - bounds[0]
    return HilbertValue(FloatInterval(*bounds), width, expansions,
                        width <= tail_budget * (1 + 1e-9) + 1e-300)


# ---------------------------------------------------------------------------
# Pointwise growth report over the probe set.

def probe_points(model: WeightModel, gen: int, cells: int, samples_per_cell: int,
                 seed: int) -> list[tuple[TriadicCell, Fraction]]:
    """Deterministic sample of probe-cell points at one generation."""
    if cells < 1:
        raise ValueError(f"cells per generation must be >= 1, got {cells}")
    if samples_per_cell < 1:
        raise ValueError(f"samples per cell must be >= 1, got {samples_per_cell}")
    total = model.jcell_count(gen)
    rng = random.Random(f"probe|{model.k}|{gen}|{cells}|{samples_per_cell}|{seed}")
    if total <= cells:
        branches = list(range(total))
    else:
        branches = sorted(rng.sample(range(total), cells))
    out = []
    for br in branches:
        core = model.jcell(gen, br)
        placed, _ = model.place_core(core, gen)
        probe = placed.middle_child()
        for j in range(samples_per_cell):
            frac = Q(2 * j + 1, 2 * samples_per_cell)
            out.append((probe, probe.left + probe.length * frac))
    return out


def hilbert_pointwise_report(model: WeightModel, generations: int,
                             samples_per_cell: int = 1, seed: int = 0,
                             cells_per_gen: int = 12,
                             rel_width: float = 0.01) -> dict:
    """Ratios |Hw(x)|/w(x) over probe samples at generations <= `generations`."""
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    if generations > model.depth:
        raise ValueError("generations exceed the materialized depth")
    rows = []
    for gen in range(1, generations + 1):
        w_val = model.w_value(gen)
        scale = model.k * float(w_val)
        for probe, x in probe_points(model, gen, cells_per_gen, samples_per_cell, seed):
            hv = hilbert_weight(model, x, tail_budget=0.5 * rel_width * scale)
            if hv.value.mid != 0 and hv.width > rel_width * abs(hv.value.mid):
                hv = hilbert_weight(model, x, tail_budget=0.8 * rel_width * abs(hv.value.mid))
            ratio_iv = hv.value.abs() * FloatInterval.from_fraction(1 / w_val)
            rows.append({
                "k": model.k, "policy": model.params.placement, "gen": gen,
                "x": x, "w": w_val, "h_lo": hv.value.lo, "h_hi": hv.value.hi,
                "ratio": ratio_iv.mid, "ratio_lo": ratio_iv.lo, "ratio_hi": ratio_iv.hi,
                "rel_width": hv.width / abs(hv.value.mid) if hv.value.mid else _INF,
                "converged": hv.converged,
            })
    ratios = sorted(r["ratio"] for r in rows)
    return {
        "k": model.k,
        "rows": rows,
        "min_ratio": ratios[0],
        "median_ratio": ratios[len(ratios) // 2],
        "max_ratio": ratios[-1],
        "max_rel_width": max(r["rel_width"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Norm-ratio estimate with edge-refined quadrature.

_GAUSS = {
    2: ((-0.5773502691896257, 0.5773502691896257), (1.0, 1.0)),
    3: ((-0.7745966692414834, 0.0, 0.7745966692414834),
        (5 / 9, 8 / 9, 5 / 9)),
}


def _edge_panels(a: Fraction, b: Fraction, levels: int) -> list[tuple[Fraction, Fraction]]:
    """Panels of [a,b] refined geometrically toward both endpoints."""
    h = (b - a) / 2
    left = [(a, a + h * Q(1, 3 ** levels))]
    for j in range(levels, 0, -1):
        left.append((a + h * Q(1, 3 ** j), a + h * Q(1, 3 ** (j - 1))))
    right = sorted((b - (bb - a), b - (aa - a)) for aa, bb in left)
    return left + right


def _panel_sum(field: CellField, panels, p: float, nodes: int,
               scale: float) -> tuple[list[float], float]:
    """Gauss terms of |Hw|^p over `panels` and the worst width/scale."""
    xs, ws = _GAUSS[nodes]
    terms = []
    worst = 0.0
    for pa, pb in panels:
        half = (pb - pa) / 2
        mid = (pa + pb) / 2
        for xi, wi in zip(xs, ws):
            lo, hi = field.enclose(mid + half * Q(xi))
            worst = max(worst, (hi - lo) / scale)
            terms.append(wi * float(half) * abs(0.5 * (lo + hi)) ** p)
    return terms, worst


def _running_sum(terms) -> float:
    """Left-to-right float sum (builtin sum() may compensate)."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _cell_integral(model: WeightModel, cell: TriadicCell, p: float,
                   levels: int, nodes: int, budget: float,
                   scale: float) -> tuple[float, float, float, int]:
    """Integral of |Hw|^p over a support cell at two edge refinements.

    Returns (fine, coarse, worst width/scale, expansions): `fine` uses
    levels+1 geometric edge panels, `coarse` merges the two innermost panels
    per side, so the pair differs exactly by the extra refinement next to the
    log singularity.  Every point is enclosed within `budget` by one
    `CellField` of the cell.
    """
    field = CellField(model, cell, budget)
    fine_panels = _edge_panels(cell.left, cell.right, levels + 1)
    terms, worst = _panel_sum(field, fine_panels, p, nodes, scale)
    h = (cell.right - cell.left) / 2
    coarse_inner = [(cell.left, cell.left + h * Q(1, 3 ** levels)),
                    (cell.right - h * Q(1, 3 ** levels), cell.right)]
    coarse_terms, w2 = _panel_sum(field, coarse_inner, p, nodes, scale)
    # the two innermost fine panels at each edge merge into the coarse ones;
    # their terms are reused from the fine pass
    edge = 2 * nodes
    fine = _running_sum(terms)
    inner_fine = _running_sum(terms[:edge] + terms[-edge:])
    coarse = fine - inner_fine + _running_sum(coarse_terms)
    return fine, coarse, max(worst, w2), field.expansions


def hilbert_norm_ratio(model: WeightModel, p: int = 2, nodes: int = 3,
                       edge_levels: int = 8, cells_per_gen: int = 24,
                       gen_cap: int = 2, seed: int = 0,
                       budget_rel: float = 2e-3) -> dict:
    """Estimate of ||H wtilde||_{L^p(sigma)} / ||1||_{L^p(wtilde)}.

    Generations above `gen_cap` repeat the deepest computed one with the
    exact per-generation factor q = rho/3, which the computed generations
    are checked against (reported as `decay_observed` vs `decay_exact`).
    """
    if not model.b.is_exact:
        raise ValueError("norm ratio requires integer p (exact dual weight)")
    if cells_per_gen < 1:
        raise ValueError(f"cells per generation must be >= 1, got {cells_per_gen}")
    if gen_cap < 1:
        raise ValueError(f"gen_cap must be >= 1, got {gen_cap}")
    if nodes not in _GAUSS:
        raise ValueError(f"nodes must be one of {sorted(_GAUSS)}, got {nodes}")
    if edge_levels < 0:
        raise ValueError(f"edge_levels must be >= 0, got {edge_levels}")
    if not budget_rel > 0:
        raise ValueError(f"budget_rel must be > 0, got {budget_rel}")
    gen_cap = min(gen_cap, model.depth)
    rng = random.Random(f"norm|{model.k}|{cells_per_gen}|{seed}")
    worst_rel = 0.0
    expansions = 0
    ests_hi: list[float] = []
    ests_lo: list[float] = []
    for gen in range(1, gen_cap + 1):
        total_cells = model.jcell_count(gen)
        if total_cells <= cells_per_gen:
            branches = list(range(total_cells))
        else:
            branches = sorted(rng.sample(range(total_cells), cells_per_gen))
        sig_val = float(model.sigma_value(gen).lo)
        scale = model.k * float(model.w_value(gen))
        acc_fine = acc_coarse = 0.0
        for br in branches:
            core = model.jcell(gen, br)
            placed, _ = model.place_core(core, gen)
            fine, coarse, w, used = _cell_integral(model, placed, p, edge_levels, nodes,
                                                   budget_rel * scale, scale)
            worst_rel = max(worst_rel, w)
            expansions += used
            acc_fine += fine
            acc_coarse += coarse
        factor = sig_val * (total_cells / len(branches))
        ests_hi.append(factor * acc_fine)
        ests_lo.append(factor * acc_coarse)

    q = float(model.rho / 3)
    tail_factor = float(model.u)  # sum of q^j for j >= 1

    def ratio_from(ests: list[float]) -> float:
        total = sum(ests) + ests[-1] * tail_factor
        # total of |Hw|^p sigma over all generations; rescale to wtilde
        sc = float(model.scale.mid)
        norm_h = sc * total ** (1.0 / p)
        denom = sc ** (1.0 / p)  # ||1||_{L^p(wtilde)} = (k^-r)^(1/p)
        return norm_h / denom

    r_hi = ratio_from(ests_hi)
    r_lo = ratio_from(ests_lo)
    indicator = abs(r_hi - r_lo) / r_hi if r_hi else _INF
    decay = (ests_hi[1] / ests_hi[0]) if len(ests_hi) > 1 and ests_hi[0] else None
    return {
        "k": model.k,
        "ratio": r_hi,
        "indicator": indicator,
        "per_gen": ests_hi,
        "decay_observed": decay,
        "decay_exact": q,
        "tail_factor": tail_factor,
        "worst_point_rel_width": worst_rel,
        "expansions": expansions,
        "converged": indicator < 1e-3,
    }


# ---------------------------------------------------------------------------
# Hardy--Littlewood maximal function on the support.

def maximal_at(model: WeightModel, x, extra_gens: int = 2) -> dict:
    """Enclosure of Mw(x) for x in a support cell.

    The upper bound maximizes full-slab masses over shrunken windows against
    breakpoint candidates; the lower bound averages exact slab masses over
    realized windows.  Both use the measures module, so frontier cells below
    the refinement depth enter adversarially as [0, full mass].
    """
    x = Fraction(x)
    chain = model.carriers_holding(x, x)
    home_gen = len(chain)
    k = model.k
    # every carrier of the chain contributes its ends, its core's and those
    # of the support cell beside its core
    points = {Q(0), Q(1)}
    for gen, index in enumerate(chain):
        den = 3 ** (gen * k)
        core_l, core_r = Q(3 * index + 1, 3 * den), Q(3 * index + 2, 3 * den)
        hl = Q(index * 3 ** k + model.support_offset(gen + 1), den * 3 ** k)
        hr = hl + Q(1, den * 3 ** k)
        points.update({Q(index, den), Q(index + 1, den), core_l, core_r, hl, hr})
    if not hl <= x < hr:
        raise ValueError(f"x={x} lies outside the support of w")
    lam = hr - hl
    # geometric breakpoints around x keep every window's end slab short
    # relative to its distance, so full-slab numerators stay proportionate
    d = lam / 16
    while d < 2:
        for cand in (x - d, x + d):
            if 0 < cand < 1:
                points.add(cand)
        d *= 2
    # split off the core tiles flanking the home support cell; their middle
    # thirds (where any deeper mass lives) become their own slabs
    for t_left in (hl - lam, hr):
        if core_l <= t_left and t_left + lam <= core_r:
            points.update({t_left, t_left + lam,
                           t_left + lam / 3, t_left + 2 * lam / 3})
    cuts = sorted(p for p in points if 0 <= p <= 1)
    depth = (home_gen + extra_gens + 2) * model.k
    slabs = []
    for a, b in zip(cuts, cuts[1:]):
        if a >= b:
            continue
        m = mass(model, MeasureQuery("w", IntervalQ(a, b), depth))
        slabs.append({"a": a, "b": b, "mass": m})
    idx_x = next(i for i, s in enumerate(slabs) if s["a"] <= x < s["b"])
    n = len(slabs)
    prefix_hi = [Q(0)]
    prefix_lo = [Q(0)]
    for s in slabs:
        prefix_hi.append(prefix_hi[-1] + s["mass"].hi)
        prefix_lo.append(prefix_lo[-1] + s["mass"].lo)
    w_home = model.w_value(home_gen)
    upper = w_home
    lower = w_home
    for i in range(idx_x + 1):
        for j in range(idx_x, n):
            if i == idx_x and j == idx_x:
                continue
            num = prefix_hi[j + 1] - prefix_hi[i]
            lo_pt = x if i == idx_x else slabs[i]["b"]
            hi_pt = x if j == idx_x else slabs[j]["a"]
            denom = hi_pt - lo_pt
            if denom <= 0:
                continue
            upper = max(upper, num / denom)
            num_lo = prefix_lo[j + 1] - prefix_lo[i]
            win = slabs[j]["b"] - slabs[i]["a"]
            if win > 0:
                lower = max(lower, num_lo / win)
    return {"x": x, "gen": home_gen, "w": w_home,
            "lower": lower, "upper": upper,
            "ratio_upper": float(upper / w_home)}


def maximal_report(model: WeightModel, generations: int, cells_per_gen: int = 8,
                   samples_per_cell: int = 1, seed: int = 0,
                   extra_gens: int = 2) -> dict:
    """Worst Mw/w over probe samples; the classical bound is 13."""
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    rows = []
    for gen in range(1, generations + 1):
        for probe, x in probe_points(model, gen, cells_per_gen, samples_per_cell, seed):
            res = maximal_at(model, x, extra_gens)
            rows.append({"k": model.k, "gen": gen, "x": x, "w": res["w"],
                         "m_lo": res["lower"], "m_hi": res["upper"],
                         "ratio_upper": res["ratio_upper"]})
    return {"k": model.k, "rows": rows,
            "worst_ratio": max(r["ratio_upper"] for r in rows),
            "all_within_13": all(r["ratio_upper"] <= 13 for r in rows)}
