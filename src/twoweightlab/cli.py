"""Command-line interface: constructions, reports, and acceptance scenarios.

Exit codes: 0 all checks passed, 1 at least one hard criterion failed,
2 usage or configuration error.  Scenario outputs are deterministic given
the configuration (no timestamps anywhere in the bodies).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from .acceptance import CRITERIA, run_criterion
from .enclosure import parse_q, qstr
from .hilbert import hilbert_norm_ratio, hilbert_pointwise_report, maximal_report
from .lorentz import blowup_suite, distribution, lorentz_norm, phi0, psi
from .measures import MeasureQuery, average, mass
from .report import write_csv, write_json
from .sparse import gen_adversarial, gen_random_martingale, testing_report
from .triadic import IntervalQ, TriadicCell
from .weights import PLACEMENTS, ConstructionParams, build_construction

SCENARIOS = {
    "averages-exact": ("C1", "C2"),
    "packing": ("C3",),
    "ap-uniformity": ("C4",),
    "testing-triadic": ("C5",),
    "testing-adversarial": ("C6",),
    "testing-rescaled": ("C7",),
    "sparse-exactness": ("C8",),
    "hilbert-pointwise": ("C9",),
    "hilbert-norm": ("C10",),
    "maximal": ("C11",),
    "entropy": ("C12",),
    "blowup": ("C13",),
    "psi-bump": ("C14",),
    "fundamental": ("C15",),
    "series": ("C16",),
    "orlicz-domination": ("C17",),
    "counterexample": ("C5", "C9", "C13"),
    "all": tuple(CRITERIA),
}


def _run_one(args):
    cid, overrides = args
    return run_criterion(cid, **overrides)


def run_scenario(config: dict, out_dir: Path, threads: int = 1,
                 fmt: str = "csv") -> dict:
    """Execute a scenario; returns the summary (also written to disk)."""
    name = config.get("scenario")
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; pick one of {sorted(SCENARIOS)}")
    cids = config.get("criteria_list")
    if cids is None:
        cids = list(SCENARIOS[name])
    unknown = [c for c in cids if c not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}")
    overrides = config.get("criteria", {})
    jobs = [(cid, overrides.get(cid, {})) for cid in cids]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]
    results.sort(key=lambda r: int(r["id"][1:]))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "scenario": name,
        "config": config,
        "criteria": [
            {"id": r["id"], "name": r["name"], "passed": r["passed"],
             "details": r["details"]}
            for r in results
        ],
        "passed": all(r["passed"] for r in results),
    }
    for r in results:
        if fmt == "csv" and r["rows"]:
            write_csv(out_dir / f"{r['id']}.csv", r["rows"])
        elif fmt == "json" and r["rows"]:
            write_json(out_dir / f"{r['id']}.json", {"rows": r["rows"]})
    write_json(out_dir / "summary.json", summary)
    return summary


def _load_config(args) -> dict:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    if getattr(args, "name", None):
        config["scenario"] = args.name
    if args.seed is not None:
        config.setdefault("criteria", {})
        for cid in SCENARIOS.get(config.get("scenario", ""), ()):
            config["criteria"].setdefault(cid, {})
            if "seed" in inspect.signature(CRITERIA[cid]).parameters:
                config["criteria"][cid]["seed"] = args.seed
    return config


def _params_from_args(args) -> ConstructionParams:
    return ConstructionParams(k=args.k, p=parse_q(args.p), r=parse_q(args.r),
                              placement=args.placement, depth=args.depth)


def _add_model_args(sp):
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--r", default="3/2")
    sp.add_argument("--placement", default="right", choices=PLACEMENTS)
    sp.add_argument("--depth", type=int, default=2)


def _emit(rows, out: str | None, fmt: str, stem: str) -> None:
    if out:
        path = Path(out) / f"{stem}.{fmt}"
        if fmt == "csv":
            write_csv(path, rows)
        else:
            write_json(path, {"rows": rows})
        print(path)
    else:
        for row in rows:
            print(row)


def cmd_construct(args) -> int:
    model = build_construction(_params_from_args(args))
    payload = model.serialize()
    if args.out:
        path = Path(args.out) / "construction.json"
        write_json(path, payload)
        print(path)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_averages(args) -> int:
    model = build_construction(_params_from_args(args))
    rows = []
    for gen in range(args.depth + 1):
        cell = model.kcell(gen, 0)
        for which in ("w", "sigma"):
            enc = average(model, MeasureQuery(which, cell.interval(), 400))
            rows.append({"gen": gen, "cell": cell.address, "which": which,
                         "lo": qstr(enc.lo), "hi": qstr(enc.hi)})
    if args.interval:
        lo, hi = (parse_q(t) for t in args.interval.split(","))
        for which in ("w", "sigma", "wTilde"):
            enc = mass(model, MeasureQuery(which, IntervalQ(lo, hi), args.max_depth))
            rows.append({"gen": "", "cell": f"[{lo},{hi})", "which": which,
                         "lo": qstr(enc.lo), "hi": qstr(enc.hi)})
    _emit(rows, args.out, args.format, "averages")
    return 0


def cmd_sparse_test(args) -> int:
    model = build_construction(_params_from_args(args))
    eps = parse_q(args.eps)
    rows = []
    unit = IntervalQ(Fraction(0), Fraction(1))
    for s in range(args.families):
        if args.kind == "random":
            fam = gen_random_martingale(args.grid_depth, eps, (args.seed or 0) + s)
        else:
            fam = gen_adversarial(model, args.kind, TriadicCell(""), eps)
        if not fam.members:
            continue
        rep = testing_report(model, fam, unit, max_depth=2 * model.k + 60)
        rows.append({"k": model.k, "p": qstr(model.params.p), "eps": qstr(eps),
                     "family": s, "members": len(fam.members),
                     "sum_lo": qstr(rep.sum.lo), "sum_hi": qstr(rep.sum.hi),
                     "bound_lo": qstr(rep.bound.lo), "bound_hi": qstr(rep.bound.hi),
                     "ratio": rep.ratio, "kfree_ratio": rep.kfree_ratio})
        if args.kind != "random":
            break
    _emit(rows, args.out, args.format, "sparse-test")
    return 0


def cmd_hilbert(args) -> int:
    model = build_construction(_params_from_args(args))
    if args.mode == "pointwise":
        rep = hilbert_pointwise_report(model, generations=min(2, args.depth),
                                       cells_per_gen=args.cells, seed=args.seed or 0)
        rows = [{k: v for k, v in row.items()} for row in rep["rows"]]
    elif args.mode == "norm":
        res = hilbert_norm_ratio(model, cells_per_gen=args.cells,
                                 seed=args.seed or 0)
        rows = [{"k": res["k"], "ratio": res["ratio"],
                 "indicator": res["indicator"],
                 "decay_observed": res["decay_observed"],
                 "decay_exact": res["decay_exact"]}]
    else:
        rep = maximal_report(model, generations=min(2, args.depth),
                             cells_per_gen=args.cells, seed=args.seed or 0)
        rows = rep["rows"]
    _emit(rows, args.out, args.format, f"hilbert-{args.mode}")
    return 0


def cmd_lorentz(args) -> int:
    model = build_construction(_params_from_args(args))
    gauge = phi0() if args.norm == "entropyPhi0" else psi(model.params.r)
    rows = []
    for gen in range(args.depth + 1):
        cell = model.kcell(gen, 0)
        for which in ("w", "sigma"):
            enc = lorentz_norm(distribution(model, cell, which), gauge)
            rows.append({"gen": gen, "which": which, "norm_lo": enc.lo,
                         "norm_hi": enc.hi})
    _emit(rows, args.out, args.format, "lorentz")
    return 0


def cmd_bumps(args) -> int:
    ks = range(args.k_min, args.k_max + 1)
    models = [build_construction(ConstructionParams(
        k=k, p=parse_q(args.p), r=parse_q(args.r), placement=args.placement,
        depth=1)) for k in ks]
    rows = []
    for r in blowup_suite(models):
        rows.append({"k": r["k"], "B_k": float(r["B_k"].mid),
                     "norm_R_lo": float(r["norm_R"].lo),
                     "norm_R_hi": float(r["norm_R"].hi),
                     "avg_w_R": qstr(r["avg_w_R"]),
                     "ap_R": float(r["ap_R"].mid),
                     "halving_ok": r["halving_ok"]})
    _emit(rows, args.out, args.format, "bumps")
    return 0


def cmd_scenario(args) -> int:
    try:
        config = _load_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not config.get("scenario"):
        print("no scenario given (use --name or a config file)", file=sys.stderr)
        return 2
    try:
        summary = run_scenario(config, Path(args.out or "reports"),
                               threads=args.threads, fmt=args.format)
    except (ValueError, KeyError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    for entry in summary["criteria"]:
        state = "PASS" if entry["passed"] else "FAIL"
        print(f"{entry['id']:>4}  {state}  {entry['name']}")
    print("overall:", "PASS" if summary["passed"] else "FAIL")
    return 0 if summary["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoweightlab",
        description="Exact-arithmetic checks for the fractal two-weight pair")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--format", default="csv", choices=("csv", "json"))

    sp = sub.add_parser("construct", help="build and serialize one weight pair")
    _add_model_args(sp)
    common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("averages", help="carrier averages and interval masses")
    _add_model_args(sp)
    sp.add_argument("--interval", default=None, help='rational pair "a/b,c/d"')
    sp.add_argument("--max-depth", type=int, default=60)
    common(sp)
    sp.set_defaults(func=cmd_averages)

    sp = sub.add_parser("sparse-test", help="testing sums over sparse families")
    _add_model_args(sp)
    sp.add_argument("--eps", default="1/3")
    sp.add_argument("--kind", default="random",
                    choices=("random", "chainToward_IJ", "S1", "S2", "S3", "S4",
                             "boundaryChain"))
    sp.add_argument("--families", type=int, default=20)
    sp.add_argument("--grid-depth", type=int, default=6)
    sp.add_argument("--seed", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_sparse_test)

    sp = sub.add_parser("hilbert", help="pointwise/norm/maximal reports")
    _add_model_args(sp)
    sp.add_argument("--mode", default="pointwise",
                    choices=("pointwise", "norm", "maximal"))
    sp.add_argument("--cells", type=int, default=8)
    sp.add_argument("--seed", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("lorentz", help="Lorentz norms over carrier cells")
    _add_model_args(sp)
    sp.add_argument("--norm", default="entropyPhi0",
                    choices=("entropyPhi0", "lorentzPsi"))
    common(sp)
    sp.set_defaults(func=cmd_lorentz)

    sp = sub.add_parser("bumps", help="blow-up suite over a k range")
    sp.add_argument("--k-min", type=int, default=6)
    sp.add_argument("--k-max", type=int, default=12)
    sp.add_argument("--p", default="2")
    sp.add_argument("--r", default="3/2")
    sp.add_argument("--placement", default="right", choices=PLACEMENTS)
    common(sp)
    sp.set_defaults(func=cmd_bumps)

    sp = sub.add_parser("scenario", help="run an acceptance scenario")
    sp.add_argument("--name", default=None, help=f"one of {sorted(SCENARIOS)}")
    sp.add_argument("--config", default=None, help="JSON config path")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes for the criteria")
    common(sp)
    sp.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
