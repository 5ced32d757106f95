"""Print the peak resident set size of five runs at n=100k, each in a fresh
Python process, to track the memory that inference, training, data
generation and file inputs hold at scale.

- ``al``: ``svp al`` with ``least_confidence`` on synthetic data (100000
  training rows, d=32, 10 classes, 5000 test rows), budget 0.1 (one round
  after the initial pool), a logistic proxy and an MLP target with 128
  hidden units. ``measure_baseline`` is on, so the baseline pass scores the
  98000 unlabeled rows with the MLP: a 98000x128 hidden layer.
- ``synth``: ``svp synth`` writing the same 100000 x 32 training set and
  5000 test rows to SVPT and CSV files.
- ``al-file``: the ``al`` run on that data read from SVPT and CSV files.
- ``kcenters``: ``svp kcenters --initial-size 1 --budget 100`` on the
  training features file.
- ``coreset-file``: ``svp coreset`` with ``least_confidence`` on the same
  files, a 0.1 subset, and the ``al`` run's learners with the baseline
  measured: the proxy and the baseline's MLP are each fitted on all 100000
  rows, the path whose shuffle buffer holds a float64 copy of the data.

The files of the file runs are written once, by ``svp synth`` in a
separate process, before any measured run starts. Each run
prints ``<name> <peak RSS in MiB>``, read from ``ru_maxrss`` of the run's
own process (in KiB on Linux), which includes the interpreter and numpy.
BLAS is pinned to one thread unless ``OPENBLAS_NUM_THREADS`` is set.

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
RUNS = ("al", "synth", "al-file", "kcenters", "coreset-file")
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
FILES = {"features": "features.svpt", "labels": "labels.csv",
         "test_features": "test-features.svpt", "test_labels": "test-labels.csv"}


def synth_argv(d: str) -> list:
    """``svp synth`` writing the SYNTH data set into directory ``d``."""
    argv = ["synth"]
    for key, value in SYNTH.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    for key, name in FILES.items():
        argv += [f"--out-{key.replace('_', '-')}", os.path.join(d, name)]
    return argv


def argv_for(name: str, d: str, data: str) -> list:
    """The ``svp`` command line of run ``name``: its own files in ``d``, the
    files written by the preparing ``svp synth`` in ``data``."""
    if name in ("al", "al-file", "coreset-file"):
        config = CONFIG if name == "al" else {
            **CONFIG, "data": {key: os.path.join(data, f) for key, f in FILES.items()}}
        if name == "coreset-file":
            del config["budget_fraction"]
            config.update(task="coreset", subset_fraction=0.1)
        path = os.path.join(d, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return [config["task"], "--config", path]
    if name == "kcenters":
        return ["kcenters", "--features", os.path.join(data, FILES["features"]),
                "--initial-size", "1", "--budget", "100", "--seed", "1",
                "--out", os.path.join(d, "order.csv")]
    return synth_argv(d)


def child(name: str, data: str) -> None:
    """Run ``name`` in this process and print its peak RSS; ``prepare``
    writes the input files into ``data`` and prints nothing."""
    sys.path.insert(0, SRC)
    from svp.cli import main

    with tempfile.TemporaryDirectory() as d, open(os.devnull, "w") as null:
        stdout, sys.stdout = sys.stdout, null
        try:
            code = main(synth_argv(data) if name == "prepare" else argv_for(name, d, data))
        finally:
            sys.stdout = stdout
    if code != 0:
        sys.exit(f"{name}: svp exited {code}")
    if name != "prepare":
        print(f"{name} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs of each kind")
    parser.add_argument("--child", choices=("prepare",) + RUNS, help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.data)
        return
    env = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}
    with tempfile.TemporaryDirectory() as data:
        for name in ("prepare",) + RUNS * args.repeat:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name,
                            "--data", data], env=env, check=True)
            sys.stdout.flush()


if __name__ == "__main__":
    main()
