"""Hilbert transform of the fractal weight and maximal-function bounds.

The kernel convention is Hf(x) = p.v. integral of f(t)/(x-t) dt, without a
1/pi; every reported inequality is scale-free so the convention only fixes
units.  Piecewise-constant parts integrate in closed form through the log
kernel.  The rest of the mass is enclosed adaptively by the walks over the
carrier tree in `treewalk`: at single points for `hilbert_weight`, and over
whole support cells for the norm-ratio quadrature.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .enclosure import FloatInterval, Q, ratio_bounds
from .measures import w_slabs
from .treewalk import CellField, _indicator_bounds, walk
from .triadic import TriadicCell
from .weights import WeightModel

_INF = float("inf")
REL_WIDTH = 0.01  # relative width of each point of `hilbert_pointwise_report`


@dataclass
class HilbertValue:
    value: FloatInterval
    width: float
    expansions: int
    converged: bool


def hilbert_weight(model: WeightModel, x, tail_budget: float = 1e-6) -> HilbertValue:
    """Adaptive enclosure of Hw(x) for x in a support cell; reports the
    achieved width if the budget cannot be met within the expansion cap.
    Raises ValueError off the support, as `maximal_at` does."""
    x = Fraction(x)
    (lo, hi), expansions = walk(model, x.numerator, x.denominator, tail_budget)
    return HilbertValue(FloatInterval(lo, hi), hi - lo, expansions,
                        hi - lo <= tail_budget * (1 + 1e-9) + 1e-300)


# ---------------------------------------------------------------------------
# Pointwise growth report over the probe set.

def _support_sample(model: WeightModel, gen: int, cells: int,
                    rng: random.Random) -> list[TriadicCell]:
    """The generation-`gen` support cells, or `cells` of them drawn by `rng`."""
    total = model.jcell_count(gen)
    branches = range(total) if total <= cells else sorted(rng.sample(range(total), cells))
    return [model.place_core(model.jcell(gen, br), gen)[0] for br in branches]


def probe_points(model: WeightModel, gen: int, cells: int, samples_per_cell: int,
                 seed: int) -> list[tuple[TriadicCell, Fraction]]:
    """Deterministic sample of probe-cell points at one generation."""
    if cells < 1:
        raise ValueError(f"cells per generation must be >= 1, got {cells}")
    if samples_per_cell < 1:
        raise ValueError(f"samples per cell must be >= 1, got {samples_per_cell}")
    rng = random.Random(f"probe|{model.k}|{gen}|{cells}|{samples_per_cell}|{seed}")
    out = []
    for placed in _support_sample(model, gen, cells, rng):
        probe = placed.middle_child()
        for j in range(samples_per_cell):
            frac = Q(2 * j + 1, 2 * samples_per_cell)
            out.append((probe, probe.left + probe.length * frac))
    return out


def hilbert_pointwise_report(model: WeightModel, generations: int, seed: int = 0,
                             cells_per_gen: int = 12) -> dict:
    """Ratios |Hw(x)|/w(x) over probe samples at generations <= `generations`."""
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    if generations > model.depth:
        raise ValueError("generations exceed the model's depth")
    rows = []
    for gen in range(1, generations + 1):
        w_val = model.w_value(gen)
        scale = model.k * float(w_val)
        for probe, x in probe_points(model, gen, cells_per_gen, 1, seed):
            hv = hilbert_weight(model, x, tail_budget=0.5 * REL_WIDTH * scale)
            if hv.value.mid != 0 and hv.width > REL_WIDTH * abs(hv.value.mid):
                hv = hilbert_weight(model, x, tail_budget=0.8 * REL_WIDTH * abs(hv.value.mid))
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


@lru_cache(maxsize=16)
def _quadrature_plan(levels: int, nodes: int):
    """The fine panels of [-1, 1] (levels+1 geometric edge panels per side)
    and the coarse inner ones (the two innermost fine panels per side,
    merged), built once and shared by every field.  A panel is (bn, bd,
    points), B = bn/bd its half-width, and per Gauss node (weight, un, ud,
    point): u = un/ud and the bounds there that `CellField.enclose_u` reads.
    """
    xs, ws = _GAUSS[nodes]
    edge = Q(1, 3 ** levels)
    plan = []
    for panels in (_edge_panels(Q(-1), Q(1), levels + 1), [(Q(-1), edge - 1), (1 - edge, Q(1))]):
        part = []
        for pa, pb in panels:
            # with midpoint A = an/ad, node xi = nn/nd lies at u = un/ud
            (an, ad), (bn, bd) = Q(pa + pb, 2).as_integer_ratio(), Q(pb - pa, 2).as_integer_ratio()
            points = []
            for wi, (nn, nd) in zip(ws, (xi.as_integer_ratio() for xi in xs)):
                un, ud = an * bd * nd + bn * ad * nn, ad * bd * nd
                # over ud, x - a and x - b are un + ud and un - ud
                bounds = (*ratio_bounds(un, ud), *_indicator_bounds(-ud, ud, un))
                points.append((wi, un, ud, bounds))
            part.append((bn, bd, tuple(points)))
        plan.append(tuple(part))
    return tuple(plan)


def _panel_sum(field: CellField, panels, p: float,
               scale: float) -> tuple[list[float], float]:
    """Gauss terms of |Hw|^p over panels of `_quadrature_plan`, which are in
    the field's coordinate u = (x - c)/R, and the worst width/scale.  A
    panel's weight in x is B*R = bn/(bd*xd)."""
    enclose, xd = field.enclose_u, field.xd
    terms = []
    worst = 0.0
    for bn, bd, points in panels:
        width = bn / (bd * xd)
        for wi, _un, _ud, point in points:
            lo, hi = enclose(point)
            worst = max(worst, (hi - lo) / scale)
            terms.append(wi * width * abs(0.5 * (lo + hi)) ** p)
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
    fine_panels, coarse_inner = _quadrature_plan(levels, nodes)
    terms, worst = _panel_sum(field, fine_panels, p, scale)
    coarse_terms, w2 = _panel_sum(field, coarse_inner, p, scale)
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
                       budget_rel: float = 2e-4) -> dict:
    """Estimate of ||H wtilde||_{L^p(sigma)} / ||1||_{L^p(wtilde)}.

    Generations above `gen_cap` repeat the deepest computed one with the
    exact per-generation factor q = rho/3, which the computed generations
    are checked against (reported as `decay_observed` vs `decay_exact`).
    `p` must be the model's own exponent.
    """
    if not model.b.is_exact:
        raise ValueError("norm ratio requires integer p (exact dual weight)")
    if p != model.params.p:
        raise ValueError(f"p={p} differs from the model's p={model.params.p}")
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
        cells = _support_sample(model, gen, cells_per_gen, rng)
        sig_val = float(model.sigma_value(gen).lo)
        scale = model.k * float(model.w_value(gen))
        acc_fine = acc_coarse = 0.0
        for placed in cells:
            fine, coarse, w, used = _cell_integral(model, placed, p, edge_levels, nodes,
                                                   budget_rel * scale, scale)
            worst_rel = max(worst_rel, w)
            expansions += used
            acc_fine += fine
            acc_coarse += coarse
        factor = sig_val * (model.jcell_count(gen) / len(cells))
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
    realized windows.  `measures.w_slabs` gives the slab masses, one descent
    per cut, with frontier cells below the refinement depth as [0, full
    mass].  Cuts, x and masses live on integer scales, and each bound is
    one Fraction at the end.
    """
    if extra_gens < 0:
        raise ValueError(f"extra_gens must be >= 0, got {extra_gens}")
    x = Fraction(x)
    chain, _index = model.support_chain(x)
    home_gen = len(chain)
    k = model.k
    # one integer scale for x and every cut: a home support cell spans
    # den / 3^(home_gen*k) units, a multiple of 48, so lam/16 and lam/3 are whole
    den = math.lcm(x.denominator, 16 * 3 ** (home_gen * k + 1))
    at_x = x.numerator * (den // x.denominator)
    # every carrier of the chain contributes its ends, its core's and those
    # of the support cell beside its core
    points = {0, den}
    for gen, index in enumerate(chain):
        size = den // 3 ** (gen * k)
        lam = size // 3 ** k
        core_l, core_r = (3 * index + 1) * size // 3, (3 * index + 2) * size // 3
        hl = (index * 3 ** k + model.support_offset(gen + 1)) * lam
        points.update({index * size, (index + 1) * size, core_l, core_r, hl, hl + lam})
    hr = hl + lam
    # geometric breakpoints around x keep every window's end slab short
    # relative to its distance, so full-slab numerators stay proportionate
    d = lam // 16
    while d < 2 * den:
        points.update(c for c in (at_x - d, at_x + d) if 0 < c < den)
        d *= 2
    # split off the core tiles flanking the home support cell; their middle
    # thirds (where any deeper mass lives) become their own slabs
    for t_left in (hl - lam, hr):
        if core_l <= t_left and t_left + lam <= core_r:
            points.update({t_left, t_left + lam,
                           t_left + lam // 3, t_left + 2 * lam // 3})
    ends = sorted(points)
    slabs, scale = w_slabs(model, ends, den, (home_gen + extra_gens + 2) * k)
    idx_x = bisect_right(ends, at_x) - 1
    prefix_lo = [0, *accumulate(lo for lo, _ in slabs)]
    prefix_hi = [0, *accumulate(hi for _, hi in slabs)]
    # the window of slabs i..j: full masses over the span from the end of
    # slab i (or x) to the start of slab j (or x), exact masses over all of it
    lefts = ends[1:idx_x + 1] + [at_x]
    tails = list(zip([at_x] + ends[idx_x + 1:-1], prefix_hi[idx_x + 1:],
                     prefix_lo[idx_x + 1:], ends[idx_x + 1:]))
    best_up, best_lo = (0, 1), (0, 1)  # numerator and length of the best window
    for lo_pt, h0, l0, a in zip(lefts, prefix_hi, prefix_lo, ends):
        for hi_pt, h1, l1, b in tails:
            span = hi_pt - lo_pt
            if span <= 0:
                continue
            if (h1 - h0) * best_up[1] > best_up[0] * span:
                best_up = (h1 - h0, span)
            if (l1 - l0) * best_lo[1] > best_lo[0] * (b - a):
                best_lo = (l1 - l0, b - a)
    w_home = model.w_value(home_gen)
    upper = max(w_home, Q(best_up[0] * den, best_up[1] * scale))
    lower = max(w_home, Q(best_lo[0] * den, best_lo[1] * scale))
    return {"x": x, "gen": home_gen, "w": w_home,
            "lower": lower, "upper": upper,
            "ratio_upper": float(upper / w_home)}


def maximal_report(model: WeightModel, generations: int, cells_per_gen: int = 8,
                   seed: int = 0) -> dict:
    """Worst Mw/w over probe samples; the classical bound is 13."""
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    rows = []
    for gen in range(1, generations + 1):
        for probe, x in probe_points(model, gen, cells_per_gen, 1, seed):
            res = maximal_at(model, x)
            rows.append({"k": model.k, "gen": gen, "x": x, "w": res["w"],
                         "m_lo": res["lower"], "m_hi": res["upper"],
                         "ratio_upper": res["ratio_upper"]})
    return {"k": model.k, "rows": rows,
            "worst_ratio": max(r["ratio_upper"] for r in rows),
            "all_within_13": all(r["ratio_upper"] <= 13 for r in rows)}
