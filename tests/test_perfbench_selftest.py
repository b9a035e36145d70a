"""The benchmark's own smoke test, so that a change to a function the
benchmark calls or traces by name fails here rather than in a bench run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_task_digest_prints_one_line_per_workload():
    proc = subprocess.run([sys.executable, "tests/task_digest.py", "--seeds", "1", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[0] for line in lines] == ["hilbert-norm", "point-probe", "sparse-testing",
                                           "lorentz-tails"]
    for _, seeds, rounds, tasks, sha in lines:
        assert (seeds, rounds) == ("seeds=1", "rounds=1")
        assert int(tasks.removeprefix("tasks=")) > 0 and len(sha) == len("sha256=") + 64
