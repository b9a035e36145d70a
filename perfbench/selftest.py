"""Smoke self-test of the benchmark: every workload at `--tiny` size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs the benchmark untraced and twice traced, and
asserts that:

- the run exits 0 and its last line is the result object with exactly the
  keys correct, attempted, failed and metrics, and no task failed;
- the result holds every metric BENCHMARK.json names for that mode, with its
  unit, and the report prints each of them with its unit;
- the report prints failed_ratio with its sample count, and task_p90_ms
  exactly when the run holds at least 100 tasks;
- the exact counts of the traced run repeat between the two traced runs.

Last, it runs the benchmark in a directory that holds only BENCHMARK.json and
the benchmark, and asserts that it fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_SUFFIXES = (".calls", "_per_call", ".errors")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(proc, wanted: dict[str, str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, "\n".join(lines[:-1])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(wanted), set(metrics) ^ set(wanted)
    report = {line.split()[0]: line.split() for line in lines[:-1]
              if line and not line.startswith(("#", "FAILED"))}
    for name, unit in wanted.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), (name, metrics[name])
        assert report[name][2] == unit, report.get(name)
    return {"result": result, "report": report}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        common = ("--workload", workload, "--seed", "1", "--seconds", "0.5", "--tiny")
        run = check_run(bench(ROOT, *common, "--trace", "0"), end_to_end)
        report, attempted = run["report"], run["result"]["attempted"]
        assert report["failed_ratio"][1:] == ["0", "ratio", f"(n={attempted})"], \
            report["failed_ratio"]
        assert ("task_p90_ms" in report) == (attempted >= 100), attempted
        traced = [check_run(bench(ROOT, *common, "--trace", "1"), per_layer)["result"]
                  for _ in range(2)]
        for name in per_layer:
            if name.endswith(EXACT_SUFFIXES):
                a, b = (t["metrics"][name]["value"] for t in traced)
                assert a == b, (workload, name, a, b)
        print(f"ok  {workload}: {attempted} tasks untraced, "
              f"{traced[0]['attempted']} traced and untraced")
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench(bare, "--workload", "sparse-testing", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("ok  without the library sources the benchmark exits "
          f"{proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
