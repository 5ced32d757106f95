"""Print one SHA-256 digest per selection run, to check that a change keeps
every report byte-identical.

Runs every accepted (task, method) pair for seeds 5 and 17, once with a
logistic proxy and once with an MLP proxy (16 hidden units), on synthetic
data with n=803 training rows, so the proxy's batch of 32 and the target's
batch of 24 both end in a partial batch. The target is an MLP and the
baseline pass is measured. Each digest covers the ``deterministic_dict()``
JSON and the rounds CSV with its seconds column dropped; timing is left out.

Usage, from the repository root:

    python3 tools/identity_digests.py > digests.txt

Run it at two commits and diff the outputs: equal lines mean equal reports.
``tests/test_identity_digests.py`` compares its output under one and two
BLAS threads with the lines committed in ``tests/identity_digests.json``.

A second section, lines starting with ``cli``, drives ``svp.cli.main`` on
fixed-seed input files written to a temporary directory: SVPT probabilities
and features, label CSVs, and one training log as SVPL, as a row-major CSV
and as a row-shuffled CSV. Each line digests one command's exit code,
standard output and output file. The core-set report is digested without
its config (which holds the temporary paths) and timing, and its rounds CSV
without the seconds column.

A third section, lines starting with ``edge``, runs the branches the first
one misses: an active-learning budget equal to the initial fraction (no
rounds, so no speedup), a core-set of the whole pool with
``include_full_data_error`` (the full-data fit repeats the subset's), a
core-set with neither flag, and an active-learning run whose real-valued
fields are JSON integers (the proxy's ``learning_rate``, the synthetic
``separation`` and ``noise``), which the config dataclasses convert to
floats. These lines also say whether the report has a speedup.

A last section digests the files the library writes: a ``file <name>`` line
for each input above written by ``write_tensor``, ``write_train_log`` or
``write_labels_csv``, and a ``cli synth`` line for one ``svp synth`` call
(exit code, standard output and its four output files).

The scale section, lines starting with ``scale``, runs each method once at
benchmark scale (an alias of an earlier scorer, ``confidence``, left out):
n=4000, d=32, 10 classes, seed 3, a 0.3 budget or subset, a logistic (AL)
or MLP h=64 (core-set) proxy for 5 epochs, an MLP h=64 target for 20 epochs,
the baseline measured. Each run prints its ``op_s``, ``selection_s``,
``baseline_s`` and ``speedup`` on standard error, which the gate ignores.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from svp import scoring  # noqa: E402
from svp.cli import main as cli_main  # noqa: E402
from svp.harness import METHODS, execute_config, rounds_csv  # noqa: E402
from svp.learner import SynthParams, make_synthetic  # noqa: E402
from svp.rng import SplitMix64  # noqa: E402
from svp.tensor_io import write_labels_csv, write_tensor, write_train_log  # noqa: E402

DATA = {"synthetic": {"classes": 4, "dim": 8, "separation": 0.8, "noise": 1.2,
                      "n_train": 803, "n_test": 301, "seed": 3}}
PROXIES = {
    "logistic": {"kind": "logistic", "epochs": 3, "learning_rate": 0.5, "batch_size": 32, "seed": 1},
    "mlp16": {"kind": "mlp", "epochs": 3, "learning_rate": 0.3, "batch_size": 32, "seed": 1,
              "hidden_units": 16},
}
TARGET = {"kind": "mlp", "epochs": 4, "learning_rate": 0.3, "batch_size": 24, "seed": 2,
          "hidden_units": 16}
SCALE_TARGET = {"kind": "mlp", "epochs": 20, "learning_rate": 0.1, "batch_size": 32, "seed": 2,
                "hidden_units": 64}
SCALE_PROXIES = {"coreset": {**SCALE_TARGET, "epochs": 5, "seed": 1}, "al": {
    "kind": "logistic", "epochs": 5, "learning_rate": 0.1, "batch_size": 32, "seed": 1}}
SCALE_DATA = {"synthetic": {"classes": 10, "dim": 32, "separation": 0.35, "noise": 1.0,
                            "n_train": 4000, "n_test": 1000, "seed": 7}}


def configs():
    pairs = [(task, m) for task in ("al", "coreset") for m in METHODS[task]]
    for task, method in pairs:
        for seed in (5, 17):
            for proxy_name, proxy in PROXIES.items():
                config = {"task": task, "method": method, "seed": seed, "proxy": proxy,
                          "target": TARGET, "data": DATA, "measure_baseline": True}
                if task == "al":
                    config["budget_fraction"] = 0.3
                else:
                    config["subset_fraction"] = 0.3
                    config["include_full_data_error"] = True
                yield f"{task} {method} seed={seed} proxy={proxy_name}", config


def edge_configs():
    base = {"seed": 5, "proxy": PROXIES["logistic"], "target": TARGET, "data": DATA}
    yield "edge al random budget=initial", {
        **base, "task": "al", "method": "random", "budget_fraction": 0.02,
        "measure_baseline": True}
    yield "edge coreset kcenters subset=1.0", {
        **base, "task": "coreset", "method": "kcenters", "subset_fraction": 1.0,
        "include_full_data_error": True, "measure_baseline": True}
    yield "edge coreset entropy no flags", {
        **base, "task": "coreset", "method": "entropy", "subset_fraction": 0.3}
    yield "edge al least_confidence integer reals", {
        **base, "task": "al", "method": "least_confidence", "budget_fraction": 0.3,
        "measure_baseline": True, "proxy": {**PROXIES["logistic"], "learning_rate": 1},
        "data": {"synthetic": {**DATA["synthetic"], "separation": 2, "noise": 1}}}


def scale_configs():
    for task, methods in METHODS.items():
        first = {}  # each scorer under the first method that names it
        for method in methods:
            first.setdefault(scoring.SCORERS.get(method, method), method)
        for method in first.values():
            yield f"scale {task} {method}", {
                "task": task, "method": method, "seed": 3, "measure_baseline": True,
                ("budget_fraction" if task == "al" else "subset_fraction"): 0.3,
                "proxy": SCALE_PROXIES[task], "target": SCALE_TARGET, "data": SCALE_DATA}


def digest(report) -> str:
    doc = json.dumps(report.deterministic_dict(), sort_keys=True)
    rows = [line.rsplit(",", 1)[0] for line in rounds_csv(report).splitlines()]
    return hashlib.sha256((doc + "\n" + "\n".join(rows)).encode()).hexdigest()


def write_cli_inputs(d):
    """Fixed-seed input files in directory ``d``; returns their paths."""
    n, classes, epochs = 1203, 7, 6
    path = {name: os.path.join(d, name) for name in (
        "probs_a.svpt", "probs_b.svpt", "log.svpl", "log.csv", "log_shuffled.csv",
        "features.svpt", "labels.csv", "test_features.svpt", "test_labels.csv",
        "coreset.json", "coreset_out.json")}
    logits = 2.0 * SplitMix64(11).normals((n, classes))
    for name, shift in (("probs_a.svpt", 0.0), ("probs_b.svpt", 1.0)):
        z = logits + shift * SplitMix64(12).normals((n, classes))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        write_tensor(e / e.sum(axis=1, keepdims=True), path[name])
    learn_rate = 0.1 + 0.85 * SplitMix64(13).doubles(n)
    log = SplitMix64(14).doubles(n * epochs).reshape(n, epochs) < learn_rate[:, None]
    write_train_log(log, path["log.svpl"])
    rows = [f"{k // epochs},{k % epochs},{int(v)}" for k, v in enumerate(log.ravel())]
    header = "example_id,epoch,correct\n"
    with open(path["log.csv"], "w") as fh:
        fh.write(header + "\n".join(rows) + "\n")
    with open(path["log_shuffled.csv"], "w") as fh:
        fh.write(header + "\n".join(rows[k] for k in SplitMix64(15).permutation(len(rows))) + "\n")
    ds = make_synthetic(SynthParams(4, 8, 0.8, 1.2, n, 301, 3))
    write_tensor(ds.features, path["features.svpt"])
    write_labels_csv(ds.labels, path["labels.csv"])
    write_tensor(ds.test_features, path["test_features.svpt"])
    write_labels_csv(ds.test_labels, path["test_labels.csv"])
    data = {key: path[key + ext] for key, ext in (
        ("features", ".svpt"), ("labels", ".csv"),
        ("test_features", ".svpt"), ("test_labels", ".csv"))}
    coreset = {"task": "coreset", "method": "forgetting", "seed": 5, "subset_fraction": 0.3,
               "measure_baseline": True, "proxy": PROXIES["logistic"], "target": TARGET,
               "data": data, "output": path["coreset_out.json"]}
    with open(path["coreset.json"], "w") as fh:
        json.dump(coreset, fh)
    return path


def cli_commands(path, d):
    """(name, argv, output file or None) for each command, in run order."""
    out = {name: os.path.join(d, name + ".csv") for name in (
        "entropy", "margin", "least_confidence", "kcenters", "forget_svpl", "forget_csv",
        "forget_shuffled")}
    commands = [(f"score {m}", ["score", "--method", m, "--probs", path[probs], "--out", out[m]],
                 out[m])
                for m, probs in (("entropy", "probs_a.svpt"), ("least_confidence", "probs_a.svpt"),
                                 ("margin", "probs_b.svpt"))]
    commands += [
        ("correlate", ["correlate", "--a", out["entropy"], "--b", out["margin"]], None),
        ("kcenters", ["kcenters", "--features", path["features.svpt"], "--initial-size", "3",
                      "--seed", "4", "--budget", "40", "--out", out["kcenters"]], out["kcenters"]),
        ("correlate --ranks", ["correlate", "--ranks", "--a", out["entropy"],
                               "--b", out["least_confidence"]], None),
    ]
    for name, log in (("forget_svpl", "log.svpl"), ("forget_csv", "log.csv"),
                      ("forget_shuffled", "log_shuffled.csv")):
        commands.append((f"forget {log}", ["forget", "--log", path[log], "--out", out[name],
                                           "--select", "50"], out[name]))
    commands.append(("coreset", ["coreset", "--config", path["coreset.json"]],
                     path["coreset_out.json"]))
    return commands


def output_bytes(name, out_path):
    with open(out_path, "rb") as fh:
        data = fh.read()
    if name != "coreset":
        return data
    report = json.loads(data)["report"]
    report.pop("timing")
    with open(out_path[:-5] + ".rounds.csv") as fh:
        rows = [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]
    return (json.dumps(report, sort_keys=True) + "\n" + "\n".join(rows)).encode()


LIBRARY_INPUTS = ("probs_a.svpt", "probs_b.svpt", "log.svpl", "features.svpt", "labels.csv",
                  "test_features.svpt", "test_labels.csv")
SYNTH_OUTPUTS = ("features.svpt", "labels.csv", "test_features.svpt", "test_labels.csv")


def file_digests():
    with tempfile.TemporaryDirectory() as d:
        path = write_cli_inputs(d)
        for name in LIBRARY_INPUTS:
            with open(path[name], "rb") as fh:
                yield f"file {name} {hashlib.sha256(fh.read()).hexdigest()}"
    with tempfile.TemporaryDirectory() as d:
        out = [os.path.join(d, "synth_" + name) for name in SYNTH_OUTPUTS]
        argv = ["synth", "--classes", "5", "--dim", "6", "--separation", "1.5", "--noise", "0.9",
                "--n-train", "407", "--n-test", "133", "--seed", "21"]
        for flag, out_path in zip(("--out-features", "--out-labels", "--out-test-features",
                                   "--out-test-labels"), out):
            argv += [flag, out_path]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        blob = f"{code}\n{stdout.getvalue()}".encode()
        for out_path in out:
            with open(out_path, "rb") as fh:
                blob += fh.read()
        yield f"cli synth {hashlib.sha256(blob).hexdigest()}"


def cli_digests():
    with tempfile.TemporaryDirectory() as d:
        path = write_cli_inputs(d)
        for name, argv, out_path in cli_commands(path, d):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(argv)
            blob = f"{code}\n{stdout.getvalue()}".encode()
            if out_path is not None:
                blob += output_bytes(name, out_path)
            yield f"cli {name} {hashlib.sha256(blob).hexdigest()}"


def main():
    for name, config in configs():
        report, _ = execute_config(config)
        print(f"{name} {digest(report)}", flush=True)
    for line in cli_digests():
        print(line, flush=True)
    for name, config in edge_configs():
        report, _ = execute_config(config)
        ratio = "null" if report.speedup is None else "set"
        print(f"{name} speedup={ratio} {digest(report)}", flush=True)
    for line in file_digests():
        print(line, flush=True)
    for name, config in scale_configs():
        start = time.perf_counter()
        report, _ = execute_config(config)
        op_s = time.perf_counter() - start
        print(f"{name} {digest(report)}", flush=True)
        print(f"{name} op_s={op_s:.3f} selection_s={report.selection_seconds:.3f} "
              f"baseline_s={report.baseline_seconds:.3f} speedup={report.speedup:.2f}",
              file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
