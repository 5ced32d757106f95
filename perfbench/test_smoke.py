"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    table = "\n".join(lines[:-1])
    names = run.E2E_UNITS if not trace else {m["name"]: m["unit"] for m in specs}
    for name, unit in names.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]), name
    assert "provenance" in table and "git_sha" in table


def _corrupt(target):
    """after_op hook that damages one output of operation ``target``: a
    duplicated selected id in an AL report, a wrong entropy score from the CLI."""
    def hook(index, outcome):
        if index != target:
            return
        outputs = outcome.outputs
        if "report.json" in outputs:
            report = json.loads(outputs["report.json"])
            report["selected_ids"][1] = report["selected_ids"][0]
            outputs["report.json"] = json.dumps(report, sort_keys=True).encode()
        else:
            lines = outputs["entropy.csv"].decode().splitlines()
            lines[1] = lines[1].split(",")[0] + ",0.5"
            outputs["entropy.csv"] = ("\n".join(lines) + "\n").encode()
    return hook


@pytest.mark.parametrize("target", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counts_in_failed_frac(tmp_path, workload, target):
    state = workloads.setup(workload, 5, "tiny", str(tmp_path))
    checker = worker.Checker(state, expected=None)
    result = worker.measure(state, 1.0, False, checker, after_op=_corrupt(target))
    assert result["attempted"] >= 3
    assert len(result["failures"]) == 1, result["failures"]
    assert result["failures"][0].startswith(f"op {target}:")
    assert len(result["ops"]) == result["attempted"] - 1


def test_stored_digest_is_enforced(tmp_path):
    state = workloads.setup("al_uncertainty", worker.DEFAULT_SEED, "tiny", str(tmp_path))
    expected = worker.load_expected("al_uncertainty", "tiny", worker.DEFAULT_SEED)
    assert expected is not None
    good = worker.measure(state, 0.2, False, worker.Checker(state, expected))
    assert good["failures"] == []
    bad = worker.measure(state, 0.2, False, worker.Checker(state, "0" * 64))
    assert bad["failures"] and not bad["ops"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "al_kcenters", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
