"""Benchmark of the twoweightlab library: one process, one thread, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point-probe --seed 1 --seconds 20 --trace 0

Workloads: hilbert-norm, point-probe, sparse-testing and lorentz-tails (see
`workloads.py` and BENCHMARK.json for what each one stresses); `--workload
all` runs each of them in a fresh process and relays the four reports.
One caller runs the workload's rounds of tasks back to back, each task
starting when the previous one returns, until the summed task time reaches
`--seconds`; the round in progress then completes.  Every task's output is
checked: against the reference recorded in `reference/` where the seed has
one, and against the workload's invariants always.

`--trace 0` prints the end-to-end metrics, with timings scaled to a
reference host speed (see `host_probe`) and the wall-clock value of each
printed beside it.  `--trace 1` runs a fixed number
of rounds with spans around the library's public functions, runs the same
rounds again untraced, and prints the per-layer metrics with
trace.overhead_ratio.  `--tiny` shrinks every workload for the self-test.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A fuller
record, with the run's environment, goes to `perfbench/out/`.
"""

from __future__ import annotations

import sys
import time

sys.dont_write_bytecode = True  # every set-up compiles the sources, so set-ups compare

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
P90_MIN_TASKS = 100  # so that at least ten samples lie beyond the 90th percentile
LOAD = "1 process, 1 thread, closed loop with 1 caller"
RELOADED = ("twoweightlab", "workloads")
PROBE_REF_S = 4e-3    # the host probe's time on the reference host
PROBE_EVERY_S = 0.25  # busy seconds between two host probes

# task_p90_ms is undefined on runs of fewer than 100 tasks and failed_ratio is
# 0 on a healthy run, so both are printed but kept out of the final JSON line,
# whose metrics must exist and be nonzero on every workload
GATED = ("setup_s", "tasks_per_s", "task_p50_ms", "peak_rss_mb")


def _import_library():
    """Import the library from this checkout's `src/`, never from elsewhere.

    Modules imported before are dropped first, so each call imports (and,
    without bytecode caches, compiles) the library and the workloads anew.
    """
    if not (SRC / "twoweightlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {SRC / 'twoweightlab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] in RELOADED]:
        del sys.modules[name]
    import twoweightlab
    if Path(twoweightlab.__file__).resolve().parent != SRC / "twoweightlab":
        raise SystemExit(f"error: twoweightlab imported from {twoweightlab.__file__}")
    import workloads
    return workloads


def git_revision() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return f"unknown ({name})"


def load_reference(workload: str, seed: int, tiny: bool) -> list | None:
    path = HERE / "reference" / f"{workload}.json"
    if tiny or not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def host_probe() -> float:
    """Seconds taken by a fixed mix of Fraction and float work (stdlib only).

    The 2-CPU host this benchmark was tuned on changes speed by up to 2x over
    minutes: this probe took 2.7 ms in fast spells and 5.2 ms in slow ones,
    and the library's tasks slowed with it (their ratio to the probe moved by
    about 10%, their wall time by 80%).  Timings are therefore reported at
    the reference host speed, scaled by the probe's median over the run; the
    library cannot change what the probe costs.
    """
    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, 3 * i + 1)
    x = 0.0
    for i in range(1, 15000):
        x += math.log(i)
    return time.perf_counter() - t


class Loop:
    """Runs rounds of tasks, times each call and checks each output."""

    def __init__(self, workload, reference: list | None, tracer=None):
        self.workload = workload
        self.reference = reference
        self.tracer = tracer
        self.latencies: list[float] = []
        self.round_starts: list[int] = []  # index of each round's first task
        self.probes: list[float] = []  # host_probe() times, taken between tasks
        self.failures: list[tuple[int, str, list[str]]] = []
        self.records: list[list] = []
        self.checked_against_reference = 0

    def run(self, *, seconds: float | None = None, rounds: int | None = None):
        tracer = self.tracer
        busy = 0.0
        probed_at = -PROBE_EVERY_S
        r = 0
        while (busy < seconds) if rounds is None else (r < rounds):
            tasks = self.workload.round(r)
            self.round_starts.append(len(self.latencies))
            for task in tasks:
                index = len(self.latencies)
                if tracer is not None:
                    tracer.task = index
                t = time.perf_counter()
                try:
                    out = task.call()
                except Exception as exc:  # a raising task is a failed task
                    dt = time.perf_counter() - t
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                    records = None
                else:
                    dt = time.perf_counter() - t
                    if tracer is not None:
                        tracer.active = False  # checks are not part of the trace
                    records, problems = task.observe(out)
                    problems = problems + self._against_reference(index, records)
                    if tracer is not None:
                        tracer.active = True
                busy += dt
                if busy - probed_at >= PROBE_EVERY_S:
                    self.probes.append(host_probe())
                    probed_at = busy
                self.latencies.append(dt)
                self.records.append(records)
                if problems:
                    self.failures.append((index, task.label, problems))
                if tracer is not None:
                    tracer.task = tracer.SETUP_TASK
            r += 1
        self.busy = busy
        self.rounds = r

    def _against_reference(self, index: int, records: list) -> list[str]:
        if self.reference is None or index >= len(self.reference):
            return []
        self.checked_against_reference += 1
        return checks.compare_all(records, self.reference[index])

    def per_round(self) -> list[tuple[float, int, list[float]]]:
        """(busy seconds, passed tasks, latencies) of each round."""
        failed = {i for i, _, _ in self.failures}
        bounds = self.round_starts + [len(self.latencies)]
        out = []
        for a, b in zip(bounds, bounds[1:]):
            lat = self.latencies[a:b]
            out.append((sum(lat), sum(1 for i in range(a, b) if i not in failed), lat))
        return out

    @property
    def host_slowdown(self) -> float:
        """Median probe time over the reference: 2 on a host twice as slow."""
        return statistics.median(self.probes) / PROBE_REF_S

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures)


def end_to_end(loop: Loop, setup_s: float, setup_slowdown: float) -> dict[str, dict]:
    """End-to-end metrics of an untraced run, at the reference host speed.

    Each timing is divided by the host's slowdown (see `host_probe`) measured
    around it, and keeps its wall-clock value under "wall".  The rate is
    taken per round (every round has the same mix of task kinds) and the
    median over rounds is reported, so a slow spell moves a few rounds, not
    the result.
    """
    lat = loop.latencies
    n = len(lat)
    rounds = loop.per_round()
    slow = loop.host_slowdown

    def timing(wall: float, unit: str, slowdown: float, **extra) -> dict:
        scaled = wall * slowdown if unit == "1/s" else wall / slowdown
        return {"value": scaled, "unit": unit, "wall": wall, **extra}

    metrics = {
        "setup_s": timing(setup_s, "s", setup_slowdown, samples=SETUP_REPEATS),
        "tasks_per_s": timing(statistics.median(p / b for b, p, _ in rounds), "1/s", slow,
                              samples=n, rounds=len(rounds), timed_s=loop.busy),
        "task_p50_ms": timing(statistics.median(lat) * 1e3, "ms", slow, samples=n),
    }
    if n >= P90_MIN_TASKS:
        metrics["task_p90_ms"] = timing(statistics.quantiles(lat, n=10)[8] * 1e3, "ms",
                                        slow, samples=n)
    metrics["failed_ratio"] = {"value": len(loop.failures) / n, "unit": "ratio",
                               "samples": n}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB", "samples": 1}
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(),
            "load": LOAD}


def print_report(env: dict, metrics: dict, loop: Loop, notes: list[str]):
    print(f"# perfbench {env['workload']} seed={env['seed']} trace={env['trace']}"
          f"{' tiny' if env['tiny'] else ''}")
    print(f"# python {env['python']}, nproc {env['nproc']}, git {env['git_revision']}")
    print(f"# load: {env['load']}")
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        if "rounds" in m:
            samples += f"  (median of {m['rounds']} rounds)"
        if "wall" in m:
            samples += f"  [wall clock {m['wall']:.6g}]"
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}{samples}")
    for note in notes:
        print(f"# {note}")
    print(f"# checked: {loop.attempted} tasks in {loop.rounds} rounds, "
          f"{loop.checked_against_reference} of them against the reference")
    for index, label, problems in loop.failures:
        print(f"FAILED task {index}: {label}: {'; '.join(problems)}")


def run_untraced(args):
    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workloads = _import_library()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
        setups.append(time.perf_counter() - t)
        probes.append(host_probe())
    setup_s = statistics.median(setups)
    loop = Loop(workload, load_reference(args.workload, args.seed, args.tiny))
    loop.run(seconds=args.seconds)
    metrics = end_to_end(loop, setup_s, statistics.median(probes) / PROBE_REF_S)
    if "task_p90_ms" not in metrics:
        notes = [f"task_p90_ms not reported: {loop.attempted} tasks, fewer than "
                 f"{P90_MIN_TASKS}"]
    else:
        notes = []
    notes.append(f"setup_s: median of {SETUP_REPEATS} imports of the library with "
                 f"model builds, {[round(t, 4) for t in setups]} s wall clock")
    notes.append(f"timings at the reference host speed: host probe median "
                 f"{statistics.median(loop.probes) * 1e3:.3f} ms over {len(loop.probes)} "
                 f"probes, reference {PROBE_REF_S * 1e3:g} ms")
    gated = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in GATED}
    return loop, metrics, notes, gated


def run_traced(args):
    workloads = _import_library()
    import tracing
    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    workload = cls(args.seed, args.tiny)
    rounds = 1 if args.tiny else cls.trace_rounds
    reference = load_reference(args.workload, args.seed, args.tiny)
    traced = Loop(workload, reference, tracer)
    traced.run(rounds=rounds)
    tracer.active = False
    tracer.uninstall()
    untraced = Loop(workload, reference)
    untraced.run(rounds=rounds)
    layer = tracer.layer_metrics()
    # the same tasks both times, so the ratio of rates is the ratio of busy
    # times, each at the reference host speed
    layer["trace.overhead_ratio"] = ((traced.busy / traced.host_slowdown)
                                     / (untraced.busy / untraced.host_slowdown))
    units = dict(tracing.PER_LAYER)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans)
    notes = [f"traced {traced.attempted} tasks ({rounds} rounds), then the same "
             f"tasks untraced; {len(tracer.col_start)} spans written to "
             f"{spans.relative_to(ROOT)}"]
    traced.failures += [(i + traced.attempted, label, p) for i, label, p in untraced.failures]
    traced.latencies += untraced.latencies
    traced.checked_against_reference += untraced.checked_against_reference
    traced.rounds += untraced.rounds
    return traced, metrics, notes, metrics


def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh process, one after the other; reports relayed."""
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    metrics = {f"{name}.{metric}": value for name, res in results.items()
               for metric, value in res["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a smoke-test size")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    names = list(_import_library().WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(names)}")
    if args.trace:
        loop, metrics, notes, final = run_traced(args)
    else:
        loop, metrics, notes, final = run_untraced(args)
    env = environment(args)
    print_report(env, metrics, loop, notes)
    OUT.mkdir(exist_ok=True)
    record = dict(env, metrics=metrics, notes=notes, attempted=loop.attempted,
                  failures=[{"task": i, "inputs": label, "problems": p}
                            for i, label, p in loop.failures])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
