"""The benchmark's own output checks, run end to end in tier 1.

``perfbench/run.py`` checks what the program writes against independent
oracles (prep, brute-force ranks, the gradient probe, the sweep's test HR@10,
byte-identical repeats) and, when traced, cross-checks its call counts
against the work the inputs fix. One sample per phase (``--seconds 0``) of
each workload takes a few seconds, so a change that breaks any of those
checks fails here and not only in a benchmark run. Every workload is
traced: ``train_ml1m_duo`` for its two layers (``c5_sweep`` has one, so only
it checks the op counts of a layer that is not the last), and
``offline_ml1m`` for the eval path, where each layer pass makes one ``gelu``
under ``no_grad`` and each diagnose two Jacobi solves.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [("c5_sweep", "1"), ("offline_ml1m", "1"),
                                             ("train_ml1m_duo", "1")])
def test_benchmark_checks_pass(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(lines[-1])["correct"] is True
    bad = [line for line in lines if "FAILED" in line or "cross-check failed" in line]
    assert not bad, bad
