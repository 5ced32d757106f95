"""Print the peak resident set size of two runs at n=100k, each in a fresh
Python process, to track the memory that inference and data generation hold
at scale.

- ``al``: ``svp al`` with ``least_confidence`` on synthetic data (100000
  training rows, d=32, 10 classes, 5000 test rows), budget 0.1 (one round
  after the initial pool), a logistic proxy and an MLP target with 128
  hidden units. ``measure_baseline`` is on, so the baseline pass scores the
  98000 unlabeled rows with the MLP: a 98000x128 hidden layer.
- ``synth``: ``svp synth`` writing the same 100000 x 32 training set and
  5000 test rows to SVPT and CSV files.

Each run prints ``<name> <peak RSS in MiB>``, read from ``ru_maxrss`` of the
run's own process (in KiB on Linux), which includes the interpreter and
numpy. BLAS is pinned to one thread unless ``OPENBLAS_NUM_THREADS`` is set.

Usage, from the repository root:

    python3 tools/peak_rss.py [--repeat N]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SYNTH = {"classes": 10, "dim": 32, "separation": 0.35, "noise": 1.0,
         "n_train": 100_000, "n_test": 5_000, "seed": 1}
CONFIG = {
    "task": "al", "method": "least_confidence", "seed": 1, "budget_fraction": 0.1,
    "measure_baseline": True, "data": {"synthetic": SYNTH},
    "proxy": {"kind": "logistic", "epochs": 1, "learning_rate": 0.5, "batch_size": 32,
              "seed": 1},
    "target": {"kind": "mlp", "epochs": 1, "learning_rate": 0.3, "batch_size": 32,
               "seed": 2, "hidden_units": 128},
}


def argv_for(name: str, d: str) -> list:
    """The ``svp`` command line of run ``name``, with its files in ``d``."""
    if name == "al":
        path = os.path.join(d, "config.json")
        with open(path, "w") as fh:
            json.dump(CONFIG, fh)
        return ["al", "--config", path]
    flags = {"classes": "--classes", "dim": "--dim", "separation": "--separation",
             "noise": "--noise", "n_train": "--n-train", "n_test": "--n-test", "seed": "--seed"}
    argv = ["synth"]
    for key, flag in flags.items():
        argv += [flag, str(SYNTH[key])]
    for out in ("features", "labels", "test-features", "test-labels"):
        ext = "svpt" if out.endswith("features") else "csv"
        argv += [f"--out-{out}", os.path.join(d, f"{out}.{ext}")]
    return argv


def child(name: str) -> None:
    sys.path.insert(0, SRC)
    from svp.cli import main

    with tempfile.TemporaryDirectory() as d, open(os.devnull, "w") as null:
        stdout, sys.stdout = sys.stdout, null
        try:
            code = main(argv_for(name, d))
        finally:
            sys.stdout = stdout
    if code != 0:
        sys.exit(f"{name}: svp exited {code}")
    print(f"{name} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs of each kind")
    parser.add_argument("--child", choices=["al", "synth"], help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return
    env = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}
    for _ in range(args.repeat):
        for name in ("al", "synth"):
            subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                           env=env, check=True)
            sys.stdout.flush()


if __name__ == "__main__":
    main()
