"""Time every (task, method) pair end to end through ``execute_config``.

Each pair in ``harness.METHODS`` runs on Gaussian blobs with n=4000 training
rows, d=32 and 10 classes (separation 0.35, noise 1.0, 1000 test rows):
active learning to a 0.3 budget with a logistic proxy (5 epochs), core-set
selection of a 0.3 subset with an MLP proxy of 64 hidden units (5 epochs),
both with an MLP target of 64 hidden units (20 epochs) and the baseline
pass measured. A method that names the same scorer as an earlier one (the
``confidence`` alias of ``least_confidence``) runs once, under its first
name. The repeats alternate: each round runs every pair once, in order.

For each pair the script prints the median over the repeats of:

- ``op_s``: the wall time of one ``execute_config`` call, data generation
  included;
- ``selection_s`` and ``baseline_s``: the report's selection and baseline
  seconds;
- ``speedup``: the report's baseline / selection ratio;

and the first 16 hex digits of the SHA-256 of the report's
``deterministic_dict()`` JSON. It exits 1 if one pair's digest differs
between repeats. BLAS is pinned to one thread unless
``OPENBLAS_NUM_THREADS`` is set.

Usage, from the repository root:

    python3 tools/pair_times.py [repeats]    # 3 repeats by default

Run it at two commits: equal digests mean equal reports.
"""

import hashlib
import json
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from svp import scoring  # noqa: E402
from svp.harness import METHODS, execute_config  # noqa: E402

DATA = {"synthetic": {"classes": 10, "dim": 32, "separation": 0.35, "noise": 1.0,
                      "n_train": 4000, "n_test": 1000, "seed": 7}}


def learner(kind, epochs, seed):
    spec = {"kind": kind, "epochs": epochs, "learning_rate": 0.1, "batch_size": 32,
            "seed": seed}
    return {**spec, "hidden_units": 64} if kind == "mlp" else spec


PROXY = {"al": learner("logistic", 5, 1), "coreset": learner("mlp", 5, 1)}
TARGET = learner("mlp", 20, 2)
FRACTION = {"al": "budget_fraction", "coreset": "subset_fraction"}


def pairs():
    """Every (task, method) pair, an alias of an earlier scorer left out."""
    for task, methods in METHODS.items():
        seen = set()
        for method in methods:
            scorer = scoring.SCORERS.get(method, method)
            if scorer not in seen:
                seen.add(scorer)
                yield task, method


def config(task, method):
    return {"task": task, "method": method, "seed": 3, FRACTION[task]: 0.3,
            "measure_baseline": True, "proxy": PROXY[task], "target": TARGET,
            "data": DATA}


def main(argv):
    repeats = int(argv[1]) if len(argv) > 1 else 3
    runs = {pair: [] for pair in pairs()}
    for _ in range(repeats):
        for task, method in runs:
            t0 = time.perf_counter()
            report, _ = execute_config(config(task, method))
            op_s = time.perf_counter() - t0
            doc = json.dumps(report.deterministic_dict(), sort_keys=True)
            runs[task, method].append((op_s, report.selection_seconds, report.baseline_seconds,
                                       report.speedup, hashlib.sha256(doc.encode()).hexdigest()))
    print(f"{'task':8} {'method':17} {'op_s':>7} {'selection_s':>11} {'baseline_s':>10} "
          f"{'speedup':>7}  digest")
    stable = True
    for (task, method), rows in runs.items():
        op_s, selection_s, baseline_s, ratio = (statistics.median(col) for col in
                                                list(zip(*rows))[:4])
        digests = {row[4] for row in rows}
        stable &= len(digests) == 1
        print(f"{task:8} {method:17} {op_s:7.3f} {selection_s:11.3f} {baseline_s:10.3f} "
              f"{ratio:7.2f}  {'/'.join(sorted(d[:16] for d in digests))}")
    if not stable:
        print("error: a pair's report changed between repeats", file=sys.stderr)
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
