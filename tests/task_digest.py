"""Per-workload digest of every benchmark task's output, for bit-identity checks.

Usage, from the root of a checkout:

    python3 tests/task_digest.py --seeds 1 2 --rounds 20
    python3 tests/task_digest.py --root ../other-checkout --seeds 1 --rounds 5

For each workload of `perfbench/workloads.py` and each seed, the script runs
rounds 0 to N-1 in order and feeds the sha256 of the workload the label and
`repr` of every task's output (or of the exception it raised).  It prints one
line per workload: its name, its task count and the hex digest.  Two checkouts
that print the same lines gave the same outputs, bit for bit, on those tasks.

`--root` names the checkout whose `src/` and `perfbench/` are imported; it
defaults to the one holding this script.  Nothing is written to either tree.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no bytecode cache in the checkout read

import argparse
import hashlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads(root: Path) -> dict:
    """`perfbench/workloads.py`'s WORKLOADS, with the library from root's `src/`."""
    src, bench = root / "src", root / "perfbench"
    if not (src / "twoweightlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {src / 'twoweightlab'}")
    sys.path[:0] = [str(src), str(bench)]
    import twoweightlab
    import workloads
    if Path(twoweightlab.__file__).resolve().parent != src.resolve() / "twoweightlab":
        raise SystemExit(f"error: twoweightlab imported from {twoweightlab.__file__}")
    return workloads.WORKLOADS


def digest(workload_cls, seeds: list[int], rounds: int) -> tuple[int, str]:
    """(task count, sha256 hex) over every task of the given seeds and rounds."""
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        workload = workload_cls(seed, False)
        for r in range(rounds):
            for task in workload.round(r):
                try:
                    out = repr(task.call())
                except Exception as exc:  # a raising task is an output too
                    out = f"raised {type(exc).__name__}: {exc}"
                h.update(f"{task.label}\n{out}\n".encode())
                count += 1
    return count, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to import (default: this one)")
    args = parser.parse_args(argv)
    for name, workload_cls in load_workloads(args.root.resolve()).items():
        count, hexdigest = digest(workload_cls, args.seeds, args.rounds)
        print(f"{name} seeds={','.join(map(str, args.seeds))} rounds={args.rounds} "
              f"tasks={count} sha256={hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
