"""Record the reference outputs that benchmark runs are checked against.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py --seeds 1-10 [--workload point-probe ...]

For each workload and seed this runs the workload's first `reference_rounds`
rounds, exactly as a benchmark run starts, and stores every task's output
records (see `checks.py`) in `perfbench/reference/<workload>.json`.  Seeds
already in the file are replaced; others are kept.  Nothing is written for a
workload if any of its tasks fails an invariant.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--workload", action="append",
                        help="workload to record (default: all); repeatable")
    args = parser.parse_args(argv)
    workloads = run._import_library()
    names = args.workload or list(workloads.WORKLOADS)
    status = 0
    for name in names:
        cls = workloads.WORKLOADS[name]
        path = run.HERE / "reference" / f"{name}.json"
        data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
        failed = False
        for seed in parse_seeds(args.seeds):
            loop = run.Loop(cls(seed, False), None)
            loop.run(rounds=cls.reference_rounds)
            for index, label, problems in loop.failures:
                print(f"{name} seed {seed} task {index}: {label}: {'; '.join(problems)}",
                      file=sys.stderr)
                failed = True
            data["seeds"][str(seed)] = loop.records
            print(f"{name} seed {seed}: {loop.attempted} tasks in {loop.rounds} rounds")
        if failed:
            print(f"{name}: not written, tasks failed", file=sys.stderr)
            status = 1
            continue
        data["rounds"] = cls.reference_rounds
        data["git_revision"] = run.git_revision()
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        path.parent.mkdir(exist_ok=True)
        path.write_text(dump(data))
    return status


def dump(data: dict) -> str:
    """JSON with one task's records per line."""
    seeds = []
    for seed, tasks in data["seeds"].items():
        rows = ",\n".join("  " + json.dumps(t, separators=(",", ":")) for t in tasks)
        seeds.append(f" {json.dumps(seed)}: [\n{rows}\n ]")
    head = {k: v for k, v in data.items() if k != "seeds"}
    return (json.dumps(head)[:-1] + ', "seeds": {\n' + ",\n".join(seeds) + "\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
