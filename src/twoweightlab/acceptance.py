"""Acceptance criteria, one runner per numbered check.

Each check is declared once, with `criterion`, and returns
(passed, details, rows).  Paper-scale constants are never asserted; each
check pins the exact oracle or the trend stated for desk scale.  The CLI
scenarios and the acceptance test module both dispatch through
`run_criterion`.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction

from .enclosure import Enclosure, Q, qstr
from .hilbert import REL_WIDTH, hilbert_norm_ratio, hilbert_pointwise_report, maximal_report
from .lorentz import (blowup_suite, distribution, entropy_ratio, fundamental_compare,
                      llogl_young, lorentz_norm, luxemburg_norm, phi0, phi_r_young,
                      psi, series_ratio, step_function_distribution, fundamental_of)
from .measures import ap_product, mass, packing_partial, packing_sum
from .report import fit_loglog_slope, fit_slope, logspace
from .sparse import (carleson_check, chain_decay_check, gen_adversarial,
                     gen_random_martingale, restricted_packing_check,
                     sparse_packing_check, testing_report, transplant_family)
from .triadic import UNIT, IntervalQ, TriadicCell, cell_from_index, cell_of
from .weights import ConstructionParams, build_construction


CRITERIA: dict = {}  # id -> runner, in declaration order
CRITERION_SCENARIOS: dict[str, tuple[str, ...]] = {}  # CLI scenario -> ids


def criterion(cid: str, name: str, scenario: str):
    """Register a check as criterion `cid` of the CLI scenario `scenario`.

    The registered runner times the check and returns the record
    {"id", "name", "passed", "elapsed", "details", "rows"}.
    """
    def register(check):
        @functools.wraps(check)
        def run(*args, **overrides) -> dict:
            t0 = time.monotonic()
            passed, details, rows = check(*args, **overrides)
            return {"id": cid, "name": name, "passed": passed,
                    "elapsed": time.monotonic() - t0, "details": details, "rows": rows}
        CRITERIA[cid] = run
        CRITERION_SCENARIOS[scenario] = CRITERION_SCENARIOS.get(scenario, ()) + (cid,)
        return run
    return register


def _model(k, p=2, r=None, depth=2, cap=2048):
    p = Fraction(p)
    if r is None:
        # midpoint of the admissible window (max(1, 1/(p-1)), p')
        lo = max(Q(1), 1 / (p - 1))
        r = (lo + p / (p - 1)) / 2
    return build_construction(
        ConstructionParams(k=k, p=p, r=Fraction(r), depth=depth), family_cap=cap)


def _partition_average(model, cell: TriadicCell, which: str) -> Enclosure:
    """Average over a cell computed from its three children (independent route)."""
    total = Enclosure.exact(0)
    for d in range(3):
        child = cell.child(d)
        total = total + mass(model, which, child.interval(), 400)
    return total * (1 / cell.length)


@criterion("C1", "exact averages", "averages-exact")
def c01_exact_averages(ks=(2, 3, 4), ps=(2, 3), depth=4, cap=120):
    rows = []
    ok = True
    for k in ks:
        for p in ps:
            m = _model(k, p=p, depth=depth, cap=cap)
            a = m.a
            if not (a.is_exact and Q(1, 3 ** p) < a.lo < Q(1, 3)):
                ok = False
                rows.append({"k": k, "p": p, "check": "a-range", "passed": False})
            for gen in range(depth + 1):
                want_w = Enclosure.exact(m.w_value(gen))
                want_s = m.avg_sigma_carrier(gen)
                for cell in m.kcells[gen]:
                    got_w = _partition_average(m, cell, "w")
                    got_s = _partition_average(m, cell, "sigma")
                    good = (got_w.is_exact and got_w.lo == want_w.lo
                            and got_s.is_exact and want_s.is_exact
                            and got_s.lo == want_s.lo)
                    if not good:
                        ok = False
                        rows.append({"k": k, "p": p, "gen": gen,
                                     "cell": cell.address, "passed": False,
                                     "got_w": qstr(got_w.lo), "want_w": qstr(want_w.lo)})
            rows.append({"k": k, "p": p, "check": "all-materialized-cells",
                         "cells": sum(len(m.kcells[g]) for g in range(depth + 1)),
                         "passed": True})
    return ok, {"runtime_limit_s": 10}, rows


@criterion("C2", "mass conservation", "averages-exact")
def c02_mass_conservation(ks=(2, 3, 4), depths=(1, 2, 3, 4)):
    rows = []
    ok = True
    for k in ks:
        for depth in depths:
            m = _model(k, depth=depth, cap=64)
            total = mass(m, "w", UNIT, 400)
            # independent route: materialized support masses plus the frontier
            support = sum((Q(1, (m.u + 1) ** g) * m.jcell_count(g)
                           for g in range(1, depth + 1)), Q(0))
            frontier = m.carrier_w_mass(depth) * m.kcell_count(depth)
            split = support + frontier
            good = total.is_exact and total.lo == 1 and split == 1
            ok = ok and good
            rows.append({"k": k, "depth": depth, "mass": qstr(total.lo),
                         "support_plus_frontier": qstr(split), "passed": good})
    return ok, {}, rows


@criterion("C3", "packing sums", "packing")
def c03_packing(ks=range(2, 9)):
    rows = []
    ok = True
    for k in ks:
        m = _model(k, depth=1, cap=16)
        for carrier in (TriadicCell(0, 0), m.kcell(1, 0)):
            gen = carrier.depth // m.k
            full = packing_sum(m, carrier, "w")
            closed = (m.u + 1) * m.carrier_w_mass(gen)
            ratio = full.lo / (3 ** k * m.carrier_w_mass(gen))
            partial = packing_partial(m, gen, gen + 30)
            tail = m.carrier_w_mass(gen) * Q(m.u, m.u + 1) ** 31 * (m.u + 1)
            converged = partial.lo < closed and partial.lo + tail == closed
            good = (full.is_exact and full.lo == closed
                    and Q(1, 3) < ratio <= Q(4, 9) and converged)
            sp = packing_sum(m, carrier, "sigma")
            sig_good = sp.encloses(m.carrier_sigma_mass(gen) * (1 / (Enclosure.exact(1) - m.a)))
            ok = ok and good and sig_good
            rows.append({"k": k, "gen": gen, "packing": qstr(full.lo),
                         "ratio_to_3k_mass": qstr(ratio), "sigma_ok": sig_good,
                         "passed": good})
    return ok, {}, rows


@criterion("C4", "two-weight product uniformity", "ap-uniformity")
def c04_ap_uniformity(ks=range(2, 9), seed=7, random_cells=40):
    rows = []
    ok = True
    bound = Q(2)
    for k in ks:
        m = _model(k, depth=2, cap=64)
        cells = [c for gen_cells in m.kcells for c in gen_cells]
        cells += [s.cell for s in m.support] + [s.core for s in m.support]
        cells += [s.cell.middle_child() for s in m.support]
        rng = random.Random(f"ap|{k}|{seed}")
        for _ in range(random_cells):
            d = rng.randint(1, 3 * k)
            cells.append(cell_from_index(d, rng.randrange(3 ** d)))
        sup = Q(0)
        attained_one = False
        for cell in cells:
            prod = ap_product(m, cell.interval(), "forward", max_depth=400)
            if not prod.is_exact:
                ok = False
            sup = max(sup, prod.hi)
            if prod.lo == 1:
                attained_one = True
        support_exact = all(
            ap_product(m, s.cell.interval(), "forward", max_depth=400).lo == 1
            for s in m.support[:8])
        good = sup <= bound and attained_one and support_exact
        ok = ok and good
        rows.append({"k": k, "sup": qstr(sup), "attains_one_on_support": attained_one,
                     "cells_checked": len(cells), "passed": good})
    return ok, {"bound": "2"}, rows


@criterion("C5", "triadic testing uniformity", "testing-triadic")
def c05_testing_triadic(ks=(2, 3, 4, 5, 6), epsilons=(Q(1, 3), Q(1, 2), Q(2, 3)),
                        families_per_eps=100, grid_depth=6, seed0=1000):
    """Per k: random families at the root plus families transplanted into a
    support cell (where the localized bound saturates k-independently)."""
    per_k = {}
    rows = []
    for k in ks:
        m = _model(k, depth=2, cap=32)
        support = m.support_cells(1)[0].cell
        support_l = support.interval()
        worst = 0.0
        for eps in epsilons:
            for s in range(families_per_eps):
                fam = gen_random_martingale(grid_depth, eps, seed0 + s)
                if not fam.members:
                    continue
                rep = testing_report(m, fam, UNIT, max_depth=400)
                if rep.kfree_ratio is not None:
                    worst = max(worst, rep.kfree_ratio)
                local = transplant_family(fam, support)
                rep = testing_report(m, local, support_l, max_depth=400)
                if rep.kfree_ratio is not None:
                    worst = max(worst, rep.kfree_ratio)
            for kind in ("chainToward_IJ", "S1", "S2"):
                fam = gen_adversarial(m, kind, TriadicCell(0, 0), eps)
                if not fam.members:
                    continue
                rep = testing_report(m, fam, UNIT, max_depth=400)
                if rep.kfree_ratio is not None:
                    worst = max(worst, rep.kfree_ratio)
        per_k[k] = worst
        rows.append({"k": k, "max_kfree_ratio": worst})
    spread = max(per_k.values()) / min(per_k.values())
    return spread <= 1.5, {"cross_k_spread": spread, "limit": 1.5,
                           "runtime_limit_s": 60}, rows


def _chain_length_oracle(k: int, eps: Fraction) -> int:
    n = 0
    length = eps  # first chain member has length eps * |K|
    floor_len = 2 * Q(1, 3 ** k)
    while length >= floor_len:
        n += 1
        length *= eps
    return n


@criterion("C6", "general testing linear in k", "testing-adversarial")
def c06_testing_linear(ks=range(4, 13), eps=Q(1, 3)):
    rows = []
    ratios = {}
    ok = True
    for k in ks:
        m = _model(k, depth=1, cap=16)
        fam = gen_adversarial(m, "S3", TriadicCell(0, 0), eps)
        n_expected = _chain_length_oracle(k, eps)
        n_bound = (k * math.log(3) - math.log(2)) / math.log(1 / float(eps)) + 1
        if not (len(fam.members) == n_expected and len(fam.members) <= n_bound):
            ok = False
        rep = testing_report(m, fam, UNIT, max_depth=2 * k + 60)
        ratios[k] = rep.ratio * m.k  # sum (1-eps) / w(L), without the k division
        rows.append({"k": k, "chain_len": len(fam.members),
                     "len_bound": n_bound, "ratio": ratios[k]})
    slope = fit_loglog_slope(list(ks), [ratios[k] for k in ks])
    ok = ok and slope <= 1.1
    return ok, {"loglog_slope": slope, "limit": 1.1}, rows


@criterion("C7", "rescaled testing non-increasing", "testing-rescaled")
def c07_rescaled_trend(ks=range(4, 13), eps=Q(1, 3), seeds=(1, 2, 3)):
    rows = []
    ok = True
    per_k = {}
    for k in ks:
        m = _model(k, depth=1, cap=16)
        worst = 0.0
        fams = [gen_adversarial(m, "S3", TriadicCell(0, 0), eps),
                gen_adversarial(m, "boundaryChain", TriadicCell(0, 0), eps)]
        fams += [gen_random_martingale(6, eps, s) for s in seeds]
        for fam in fams:
            if not fam.members:
                continue
            rep = testing_report(m, fam, UNIT, max_depth=2 * k + 60, rescaled=True)
            worst = max(worst, rep.ratio * m.k)
        per_k[k] = worst
        rows.append({"k": k, "max_rescaled_ratio": worst})
    slope = fit_slope(list(map(float, ks)), [per_k[k] for k in ks])
    ok = slope <= 0
    return ok, {"fitted_slope": slope, "limit": 0.0}, rows


@criterion("C8", "packing/chain/embedding exactness", "sparse-exactness")
def c08_exact_inequalities(seeds=200, eps=Q(1, 2), p=2, depth=4):
    violations = []
    cp_measured = 0.0
    for s in range(seeds):
        fam = gen_random_martingale(depth, eps, 5000 + s, max_members=24)
        if not fam.members:
            continue
        pk = sparse_packing_check(fam, UNIT)
        if not pk["ok"]:
            violations.append(("packing", s))
        rng = random.Random(f"c08|{s}")
        # containment chain with geometric lengths for the chain inequality
        chain = []
        left, length = Q(0), Q(1)
        while length >= Q(1, 3 ** 8):
            chain.append(IntervalQ(left, left + length))
            length = length * eps
        ck = chain_decay_check(chain, Q(1, 3 ** 8), p, eps)
        if not ck["ok"]:
            violations.append(("chain", s))
        pieces = []
        for _ in range(rng.randint(1, 6)):
            d = rng.randint(2, depth)
            cell = cell_from_index(d, rng.randrange(3 ** d))
            pieces.append(cell.interval())
        rk = restricted_packing_check(fam, pieces, UNIT, p)
        if not rk["ok"]:
            violations.append(("restricted-packing", s))
        cp_measured = max(cp_measured, rk["measured_constant"])
        coeffs = {cell_of(member): Q(1) for member in fam.members}
        f_leaves = [Q(rng.randint(0, 5)) for _ in range(3 ** depth)]
        res = carleson_check(depth, coeffs, f_leaves, p, 1 / (1 - eps))
        if not res["ok"]:
            violations.append(("carleson", s))
    ok = not violations
    return ok, {"seeds": seeds, "violations": violations[:10],
                "restricted_packing_constant": cp_measured}, []


@criterion("C9", "pointwise Hilbert growth", "hilbert-pointwise")
def c09_hilbert_growth(ks=(6, 8, 10, 12), cells_per_gen=8, seed=0):
    rows = []
    medians = []
    ok = True
    for k in ks:
        m = _model(k, depth=2)
        rep = hilbert_pointwise_report(m, generations=2, cells_per_gen=cells_per_gen,
                                       seed=seed)
        medians.append(rep["median_ratio"])
        if rep["max_rel_width"] > REL_WIDTH:
            ok = False
        rows.append({"k": k, "median": rep["median_ratio"],
                     "min": rep["min_ratio"], "max": rep["max_ratio"],
                     "max_rel_width": rep["max_rel_width"]})
    ok = ok and all(b > a for a, b in zip(medians, medians[1:]))
    return ok, {"medians": medians}, rows


@criterion("C10", "rescaled norm growth exponent", "hilbert-norm")
def c10_norm_exponent(ks=tuple(range(6, 15)), cells_per_gen=8, edge_levels=6,
                      seed=0):
    rows = []
    ratios = []
    ok = True
    for k in ks:
        m = _model(k, depth=2)
        res = hilbert_norm_ratio(m, cells_per_gen=cells_per_gen,
                                 edge_levels=edge_levels, seed=seed)
        ratios.append(res["ratio"])
        if res["indicator"] >= 1e-3:
            ok = False
        rows.append({"k": k, "ratio": res["ratio"], "indicator": res["indicator"],
                     "decay_observed": res["decay_observed"],
                     "decay_exact": res["decay_exact"]})
    slope = fit_loglog_slope(list(map(float, ks)), ratios)
    ok = ok and 0.1 <= slope <= 0.5
    return ok, {"slope": slope, "band": [0.1, 0.5], "theoretical": 0.25}, rows


@criterion("C11", "maximal function bound", "maximal")
def c11_maximal_bound(ks=(4, 5, 6, 7, 8), cells_per_gen=4, seed=0):
    rows = []
    ok = True
    for k in ks:
        m = _model(k, depth=2)
        rep = maximal_report(m, generations=2, cells_per_gen=cells_per_gen, seed=seed)
        ok = ok and rep["all_within_13"]
        rows.append({"k": k, "worst_ratio": rep["worst_ratio"],
                     "within_13": rep["all_within_13"]})
    return ok, {"bound": 13}, rows


@criterion("C12", "entropy-norm window", "entropy")
def c12_entropy_window(ks=(3, 4, 5, 6, 7, 8)):
    rows = []
    vals = []
    for k in ks:
        m = _model(k, depth=1, cap=8)
        er = entropy_ratio(m)
        vals.append(float(er.mid))
        rows.append({"k": k, "entropy_ratio": float(er.mid),
                     "width": float(er.width)})
    window = max(vals) / min(vals)
    ok = window <= 4
    return ok, {"window": window, "limit": 4}, rows


@criterion("C13", "entropy-bump blow-up", "blowup")
def c13_blowup(ks=range(6, 13)):
    models = [_model(k, depth=1, cap=8) for k in ks]
    suite = blowup_suite(models)
    bs = [float(r["B_k"].mid) for r in suite]
    ap_ok = all(Q(1, 2) <= r["ap_R"].lo and r["ap_R"].hi <= 2 for r in suite)
    halving_ok = all(r["halving_ok"] for r in suite)
    mono = all(b > a for a, b in zip(bs, bs[1:]))
    growth = bs[-1] / bs[0]
    ok = mono and growth >= 2 and ap_ok and halving_ok
    rows = [{"k": r["k"], "B_k": float(r["B_k"].mid),
             "ap_R": float(r["ap_R"].mid), "halving_ok": r["halving_ok"]}
            for r in suite]
    return ok, {"B_last_over_B_first": growth, "monotone": mono,
                "ap_in_band": ap_ok}, rows


@criterion("C14", "triadic psi-bump finiteness", "psi-bump")
def c14_psi_bump(ks=(2, 3, 4, 5, 6, 7, 8), r=Q(3, 2), dual_constant=16):
    gauge = psi(r)
    forward = {}
    dual = {}
    rows = []
    for k in ks:
        m = _model(k, p=2, r=r, depth=2, cap=8)
        per_gen = []
        per_gen_dual = []
        for gen in range(3):
            cell = m.kcell(gen, 0)
            nw = lorentz_norm(distribution(m, cell, "w"), gauge, rel_tol=1e-7)
            fwd = float((nw * m.avg_sigma_carrier(gen)).mid) / float(k) ** float(r)
            per_gen.append(fwd)
            ns = lorentz_norm(distribution(m, cell, "sigma"), gauge, rel_tol=1e-7)
            per_gen_dual.append(float(ns.mid) * float(m.w_value(gen)))
        forward[k] = max(per_gen)
        dual[k] = max(per_gen_dual)
        rows.append({"k": k, "forward_sup": forward[k], "dual_sup": dual[k],
                     "gen_spread": max(per_gen) / min(per_gen)})
    spread = max(forward.values()) / min(forward.values())
    stable_tail = max(forward[k] for k in ks if k >= 4) / \
        min(forward[k] for k in ks if k >= 4)
    dual_ok = max(dual.values()) <= dual_constant
    ok = spread <= 2 and dual_ok
    return ok, {"forward_cross_k_spread": spread, "limit": 2,
                "spread_k_ge_4": stable_tail, "dual_max": max(dual.values()),
                "dual_constant": dual_constant}, rows


@criterion("C15", "fundamental-function window", "fundamental")
def c15_fundamental(r=Q(3, 2), grid_points=49):
    young = phi_r_young(r)
    gauge = psi(r)
    res = fundamental_compare(young, gauge, logspace(1e-12, 1.0, grid_points))
    ok = (1 / 64 <= res["min"] and res["max"] <= 64
          and res["max_residual"] < 1e-10)
    rows = [{"s": row["s"], "product": row["product"], "residual": row["residual"]}
            for row in res["rows"]]
    return ok, {"min": res["min"], "max": res["max"],
                "max_residual": res["max_residual"]}, rows


@criterion("C16", "series majorant ratios", "series")
def c16_series(r=Q(3, 2), xs=(0.9, 0.99, 0.999), tol=1e-9):
    rows = []
    ok = True
    for x in xs:
        for mode in ("first", "second"):
            res = series_ratio(r, x, mode, tol=tol)
            good = res["ratio"] <= 10 and res["tail_bound"] < tol
            ok = ok and good
            rows.append({"x": x, "mode": mode, "ratio": res["ratio"],
                         "tail": res["tail_bound"], "terms": res["terms"],
                         "passed": good})
    return ok, {"limit": 10}, rows


def _random_step_function(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    n = rng.randint(1, 6)
    cuts = sorted(rng.sample(range(1, 64), n))
    bounds = [Q(0)] + [Q(c, 64) for c in cuts] + [Q(1)]
    atoms = []
    for a, b in zip(bounds, bounds[1:]):
        value = Q(rng.randint(0, 40), rng.randint(1, 8))
        if value > 0:
            atoms.append((value, b - a))
    return atoms


@criterion("C17", "Orlicz dominated by Lorentz", "orlicz-domination")
def c17_orlicz_domination(r=Q(3, 2), samples=100, seed=4242):
    young = phi_r_young(r)
    gauge = fundamental_of(young)
    llogl = llogl_young()
    entropy = phi0()
    rng = random.Random(f"orlicz|{seed}")
    rows = []
    ok = True
    ll_ratios = []
    for i in range(samples):
        atoms = _random_step_function(rng)
        if not atoms:
            continue
        dist = step_function_distribution(atoms)
        lux = luxemburg_norm(atoms, young)
        lor = lorentz_norm(dist, gauge)
        good = lux <= 2 * float(lor.hi) * (1 + 1e-9)
        ok = ok and good
        ll = luxemburg_norm(atoms, llogl)
        ent = float(lorentz_norm(dist, entropy).mid)
        if ent > 0 and ll > 0:
            ll_ratios.append(ll / ent)
        if not good or i < 5:
            rows.append({"sample": i, "luxemburg": lux, "lorentz": float(lor.mid),
                         "ratio": lux / float(lor.mid) if lor.mid else 0.0,
                         "passed": good})
    window = (min(ll_ratios), max(ll_ratios))
    stable = window[1] / window[0] <= 8 and Q(1, 8) <= Q(window[0]) and window[1] <= 8
    ok = ok and stable
    return ok, {"llogl_window": list(window), "samples": samples}, rows


def run_criterion(cid: str, **overrides) -> dict:
    if cid not in CRITERIA:
        raise KeyError(f"unknown criterion {cid}")
    return CRITERIA[cid](**overrides)
