"""Which lines of the library does real traffic reach?

Traces every line of `src/twoweightlab` that runs under the traffic a user
or the benchmark sends, and prints, module by module, the executable lines
that never ran.  The traffic is:

- the CLI lines of README.md, one by one;
- every subcommand, mode and kind, at each placement, at p = 2, 3/2 and
  7/5 (each with an admissible r), in both output formats, with sparse
  families at eps = 1/3 and 1/5; and each of them once more printing to
  stdout instead of `--out`;
- `scenario --name all` and `scenario --name counterexample --seed 3`;
- every round-0..5 task of each perfbench workload at seeds 1 and 2.

Outputs go to a temporary directory and no bytecode is cached, so a run
writes nothing into the checkout.  pytest does not collect this file; run
it from the root of a checkout (a few minutes on 2 CPUs):

    PYTHONPATH=src python tests/reachability.py

A line that only the tests reach is a candidate for deletion.  Input
checks, error reporting, criterion failure branches and `__main__` are
expected in the list.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twoweightlab"


def line_tracer(hits: dict[str, set[int]]):
    """A `sys.settrace` function that adds each line run in a file named in
    `hits` to that file's set, and traces no other file."""

    def tracer(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    return tracer


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some instruction of the module's code maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for *_span, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


README_LINES = [
    "construct --k 3 --depth 2",
    "averages --k 2 --interval 0,1/2",
    "sparse-test --k 4 --eps 1/3 --kind S3",
    "hilbert --k 8 --mode pointwise",
    "lorentz --k 4 --norm lorentzPsi",
    "bumps --k-min 6 --k-max 12",
    "scenario --name counterexample",
    "scenario --config {tmp}/cfg.json --threads 4",
]
README_CONFIG = {"scenario": "blowup", "criteria": {"C13": {"ks": [6, 7, 8, 9, 10, 11, 12]}}}

MODELS = [("2", "3/2"), ("3/2", "5/2"), ("7/5", "3")]  # (p, r), r inside its window
SUBCOMMANDS = (
    ["construct --k 3 --depth 2", "averages --k 3 --interval 1/5,7/9"]
    + [f"sparse-test --k 3 --kind {kind} --eps {eps} --families 3 --grid-depth 4 --seed 1"
       for kind in ("random", "chainToward_IJ", "S1", "S2", "S3", "S4", "boundaryChain")
       for eps in ("1/3", "1/5")]
    + [f"hilbert --k 3 --mode {mode} --cells 2 --seed 1"
       for mode in ("pointwise", "norm", "maximal")]
    + [f"lorentz --k 3 --norm {norm}" for norm in ("entropyPhi0", "lorentzPsi")]
    + ["bumps --k-min 2 --k-max 4"])


def cli_traffic():
    """(command line, whether it writes to `--out` rather than stdout)."""
    for line in README_LINES:
        yield line, True
    for placement in ("right", "left", "alternating"):
        for p, r in MODELS:
            for fmt in ("csv", "json"):
                for line in SUBCOMMANDS:
                    yield f"{line} --placement {placement} --p {p} --r {r} --format {fmt}", True
    for line in SUBCOMMANDS:
        yield line, False
    yield "scenario --name all", True
    yield "scenario --name counterexample --seed 3", True


def run_traffic() -> None:
    from twoweightlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cfg.json").write_text(json.dumps(README_CONFIG))
        for n, (line, to_out) in enumerate(cli_traffic()):
            argv = line.format(tmp=tmp).split() + (["--out", f"{tmp}/run{n}"] if to_out else [])
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            print(f"exit {code}: {line}", file=sys.stderr)

    import workloads
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2):
            bench = workload(seed, tiny=False)
            for r in range(6):
                for task in bench.round(r):
                    task.observe(task.call())
            print(f"perfbench {name} seed {seed}: rounds 0-5", file=sys.stderr)


def _ranges(lines: list[int]):
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line != prev + 1:
            yield start, prev
            if line is not None:
                start = line
        prev = line


def report(hits: dict[str, set[int]]) -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unreached = sorted(executable_lines(path) - hits[str(path)])
        total += len(unreached)
        print(f"{path.relative_to(ROOT)}: {len(unreached)} unreached lines")
        if not unreached:
            continue
        text = path.read_text().splitlines()
        for lo, hi in _ranges(unreached):
            span = str(lo) if lo == hi else f"{lo}-{hi}"
            print(f"    {span:<9} {text[lo - 1].strip()}")
    print(f"total: {total} unreached lines")


def main() -> None:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    hits = {str(p): set() for p in PACKAGE.glob("*.py")}
    sys.settrace(line_tracer(hits))  # before the library is first imported
    try:
        run_traffic()
    finally:
        sys.settrace(None)
    report(hits)


if __name__ == "__main__":
    main()
