"""The benchmark's quick mode runs every workload on a tiny slice and
checks each op's answer, including the recorded model counts of the
sweeps, so the harness and the evaluator cannot drift apart unnoticed."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_quick_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
