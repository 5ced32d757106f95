"""The determinism contract as a gate: every report and output file that
``tools/identity_digests.py`` digests is byte-identical to the committed
lines, under one BLAS thread and under two.

The committed lines are keyed by the benchmark's ``platform_key()`` (numpy,
its BLAS and the SIMD extensions they dispatch to), since summation order
may differ elsewhere; on a platform with no key the test skips and names
both keys. A change that means to alter report bytes regenerates the file:

    python3 tools/identity_digests.py

and stores its lines under this platform's key in ``identity_digests.json``.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
TOOL = os.path.join(ROOT, "tools", "identity_digests.py")
EXPECTED = os.path.join(ROOT, "tests", "identity_digests.json")


def test_reports_match_the_committed_digests_under_one_and_two_blas_threads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    key = importlib.import_module("worker").platform_key()
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    if key not in expected:
        pytest.skip(f"no committed digests for platform {key!r}; committed: {sorted(expected)}")
    runs = {threads: subprocess.Popen(
        [sys.executable, TOOL], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")}
    results = {threads: (run.communicate(), run.returncode) for threads, run in runs.items()}
    for threads, ((out, err), code) in results.items():
        assert code == 0, err
        assert out.splitlines() == expected[key], f"OPENBLAS_NUM_THREADS={threads}"
