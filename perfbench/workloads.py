"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Every workload uses Gaussian blobs with 10 classes, d=32, separation 0.35
and noise 1.0, hard enough that the target's test error sits near 0.43. The
class means are one fixed draw (``GEOMETRY``); the seed draws the points. A
fresh draw of means per seed changes how separable the classes are, which
spread the target error over seeds by about 8% against 3% with fixed means.
Set-up writes the points as SVPT features and label CSVs, and every
operation reads them back through ``svp``.

* ``al_kcenters`` - AL with greedy k-centers, the known hot spot. About half
  of its distance passes re-fold the labeled set each round.
* ``al_uncertainty`` - AL with least confidence. Selection is dominated by
  SGD fits and makes no k-centers call, so a k-centers change leaves it flat.
* ``external_cli`` - features, probabilities and training logs from an
  outside model, driven through ``svp.cli.main``. The only workload where
  the file formats, forgetting and rank diagnostics do real work.

An operation returns its deterministic outputs as ``{name: bytes}`` (timing
fields removed) plus its timings, raw and scaled to reference host speed by
the calibration kernel timed around each run of the program (each CLI command
separately); :func:`check` validates those bytes with independent
recomputations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import calibration
import svp.cli
import svp.harness
from svp.learner import SynthParams, make_synthetic
from svp.tensor_io import write_labels_csv, write_tensor, write_train_log

CLASSES = 10
DIM = 32
SEPARATION = 0.35
NOISE = 1.0
GEOMETRY = SEPARATION * np.random.default_rng(2019).standard_normal((CLASSES, DIM))

SCALES = {
    "full": {
        "al_kcenters": {"n_train": 4000, "n_test": 5000, "budget": 0.3,
                        "proxy_epochs": 5, "hidden": 64, "target_epochs": 20},
        "al_uncertainty": {"n_train": 10000, "n_test": 5000, "budget": 0.5,
                           "proxy_epochs": 5, "hidden": 128, "target_epochs": 20},
        "external_cli": {"n": 50_000, "n_test": 5000, "log_epochs": 10,
                         "select": 1000, "kcenters_budget": 100},
    },
    "tiny": {
        "al_kcenters": {"n_train": 400, "n_test": 200, "budget": 0.3,
                        "proxy_epochs": 2, "hidden": 8, "target_epochs": 2},
        "al_uncertainty": {"n_train": 400, "n_test": 200, "budget": 0.5,
                           "proxy_epochs": 2, "hidden": 8, "target_epochs": 2},
        "external_cli": {"n": 600, "n_test": 200, "log_epochs": 4,
                         "select": 20, "kcenters_budget": 10},
    },
}

WORKLOADS = tuple(SCALES["full"])

# Where each timed program run spends its time, by calibration part, from
# the traced profiles: an AL operation per workload, a CLI command by name.
# greedy_kcenters is ~89% of al_kcenters; SGD steps are ~90% of
# al_uncertainty, the permutation shuffle ~12% of that. The CLI commands
# are dominated by CSV formatting and parsing (score, correlate, forget),
# SGD fits and their shuffles (coreset), and distance passes (kcenters).
CALIBRATION_WEIGHTS = {
    "al_kcenters": {"stream": 0.9, "matmul": 0.1},
    "al_uncertainty": {"matmul": 0.8, "interp": 0.2},
    "score": {"interp": 0.7, "stream": 0.3},
    "correlate": {"interp": 1.0},
    "forget": {"interp": 0.9, "stream": 0.1},
    "coreset": {"matmul": 0.65, "interp": 0.35},
    "kcenters": {"stream": 1.0},
}


class CheckError(Exception):
    """An operation's outputs failed a correctness check."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


class CountingClock:
    """The clock injected into ``execute_config``; counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return time.perf_counter()


@dataclass
class Outcome:
    outputs: dict  # name -> deterministic bytes
    wall_s: float  # raw wall time of the operation
    scaled_wall_s: float  # the same at reference host speed
    selection_s: float  # raw, from the report
    baseline_s: float
    report_factor: float  # host-speed factor around the run that made the report
    target_test_error: float
    speedup: float
    rounds: int
    clock_calls: int = -1


@dataclass
class State:
    workload: str
    seed: int
    params: dict
    workdir: str
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # arrays kept for the checks


def _learner(kind, epochs, batch_size, seed, hidden=None):
    spec = {"kind": kind, "epochs": epochs, "learning_rate": 0.1,
            "batch_size": batch_size, "seed": seed}
    if hidden is not None:
        spec["hidden_units"] = hidden
    return spec


def _report_bytes(report_dict):
    return json.dumps(report_dict, sort_keys=True).encode()


# --------------------------------------------------------------------------
# Set-up

def setup(workload, seed, scale, workdir):
    """Generate and write the inputs of one workload."""
    params = SCALES[scale][workload]
    state = State(workload, seed, params, workdir)
    os.makedirs(workdir, exist_ok=True)
    if workload == "external_cli":
        _setup_external(state)
    else:
        method = "kcenters" if workload == "al_kcenters" else "least_confidence"
        data, _ = _write_blobs(state, params["n_train"], params["n_test"])
        state.config = {
            "task": "al", "method": method, "seed": seed,
            "budget_fraction": params["budget"], "measure_baseline": True,
            "proxy": _learner("logistic", params["proxy_epochs"], 32, seed + 1),
            "target": _learner("mlp", params["target_epochs"], 32, seed + 2, params["hidden"]),
            "data": data,
        }
    return state


def _write_blobs(state, n_train, n_test):
    """Write train/test blobs; returns (config data section, dataset)."""
    ds = make_synthetic(SynthParams(CLASSES, DIM, SEPARATION, NOISE, n_train, n_test, state.seed),
                        means=GEOMETRY)
    data = {key: os.path.join(state.workdir, key + ext) for key, ext in (
        ("features", ".svpt"), ("labels", ".csv"),
        ("test_features", ".svpt"), ("test_labels", ".csv"))}
    write_tensor(ds.features, data["features"])
    write_labels_csv(ds.labels, data["labels"])
    write_tensor(ds.test_features, data["test_features"])
    write_labels_csv(ds.test_labels, data["test_labels"])
    return data, ds


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _setup_external(state):
    p, d = state.params, state.workdir
    n, epochs = p["n"], p["log_epochs"]
    rng = np.random.default_rng(state.seed)
    path = {name: os.path.join(d, name) for name in (
        "probs_a.svpt", "probs_b.svpt", "log.svpl", "log.csv", "coreset.json", "out")}
    os.makedirs(path["out"], exist_ok=True)

    logits = 2.0 * rng.standard_normal((n, CLASSES))
    probs_a = _softmax(logits)
    probs_b = _softmax(logits + rng.standard_normal((n, CLASSES)))
    write_tensor(probs_a, path["probs_a.svpt"])
    write_tensor(probs_b, path["probs_b.svpt"])

    learn_rate = rng.uniform(0.1, 0.95, size=n)
    log = rng.random((n, epochs)) < learn_rate[:, None]
    write_train_log(log, path["log.svpl"])
    cells = log.astype(np.int8).ravel().tolist()
    with open(path["log.csv"], "w") as fh:
        fh.write("example_id,epoch,correct\n")
        fh.write("".join(f"{k // epochs},{k % epochs},{v}\n" for k, v in enumerate(cells)))

    data, ds = _write_blobs(state, n, p["n_test"])

    coreset = {
        "task": "coreset", "method": "forgetting", "seed": state.seed,
        "subset_fraction": 0.1, "measure_baseline": True,
        "proxy": _learner("logistic", 2, 64, state.seed + 1),
        "target": _learner("mlp", 4, 64, state.seed + 2, 64),
        "data": data,
        "output": os.path.join(path["out"], "coreset.json"),
    }
    with open(path["coreset.json"], "w") as fh:
        json.dump(coreset, fh)

    out = path["out"]
    state.config = {"commands": [
        ("entropy.csv", ["score", "--method", "entropy", "--probs", path["probs_a.svpt"],
                         "--out", os.path.join(out, "entropy.csv")]),
        ("margin.csv", ["score", "--method", "margin", "--probs", path["probs_b.svpt"],
                        "--out", os.path.join(out, "margin.csv")]),
        ("correlate.stdout", ["correlate", "--a", os.path.join(out, "entropy.csv"),
                              "--b", os.path.join(out, "margin.csv")]),
        ("forget_svpl.csv", ["forget", "--log", path["log.svpl"],
                             "--out", os.path.join(out, "forget_svpl.csv")]),
        ("forget_csv.csv", ["forget", "--log", path["log.csv"],
                            "--out", os.path.join(out, "forget_csv.csv"),
                            "--select", str(p["select"])]),
        ("coreset.json", ["coreset", "--config", path["coreset.json"]]),
        ("kcenters.csv", ["kcenters", "--features", data["features"],
                          "--initial-size", "1", "--budget", str(p["kcenters_budget"]),
                          "--seed", str(state.seed),
                          "--out", os.path.join(out, "kcenters.csv")]),
    ], "out": out}
    # Kept as the files hold them (float32), for the independent checks.
    state.inputs = {"probs_a": probs_a.astype(np.float32), "probs_b": probs_b.astype(np.float32),
                    "log": log, "features": ds.features.astype(np.float32)}


# --------------------------------------------------------------------------
# One operation

def run_op(state):
    """One operation: an ``execute_config`` call, or one pass of the CLI
    command sequence."""
    if state.workload == "external_cli":
        return _op_external(state)
    clock = CountingClock()
    before = calibration.sample()
    start = time.perf_counter()
    report, _ = svp.harness.execute_config(state.config, clock=clock)
    wall = time.perf_counter() - start
    factor = calibration.scale(before + calibration.sample(), CALIBRATION_WEIGHTS[state.workload])
    return Outcome(
        outputs={"report.json": _report_bytes(report.deterministic_dict())},
        wall_s=wall, scaled_wall_s=wall * factor,
        selection_s=report.selection_seconds, baseline_s=report.baseline_seconds,
        report_factor=factor, target_test_error=report.target_test_error,
        speedup=report.speedup, rounds=len(report.round_sizes) - 1, clock_calls=clock.calls,
    )


def _op_external(state):
    out = state.config["out"]
    for name in os.listdir(out):  # so no output can survive from an earlier operation
        os.unlink(os.path.join(out, name))
    captured = {}
    wall = scaled = 0.0
    around = calibration.sample()
    for name, argv in state.config["commands"]:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = svp.cli.main(argv)
        seconds = time.perf_counter() - start
        after = calibration.sample()
        factor = calibration.scale(around + after, CALIBRATION_WEIGHTS[argv[0]])
        around = after
        if code != 0:
            raise CheckError(f"svp {argv[0]} exited {code}")
        captured[name] = buf.getvalue()
        wall += seconds
        scaled += seconds * factor
        if argv[0] == "coreset":
            report_factor = factor

    outputs = {}
    for name in ("entropy.csv", "margin.csv", "forget_svpl.csv", "forget_csv.csv", "kcenters.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            outputs[name] = fh.read()
    outputs["correlate.stdout"] = captured["correlate.stdout"].encode()
    outputs["forget_select.stdout"] = captured["forget_csv.csv"].encode()
    with open(os.path.join(out, "coreset.json")) as fh:
        doc = json.load(fh)
    timing = doc["report"].pop("timing")
    outputs["coreset.json"] = _report_bytes(doc["report"])
    with open(os.path.join(out, "coreset.rounds.csv")) as fh:
        rows = [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]
    outputs["coreset.rounds.csv"] = "\n".join(rows).encode()
    return Outcome(
        outputs=outputs, wall_s=wall, scaled_wall_s=scaled,
        selection_s=timing["selection_seconds"], baseline_s=timing["baseline_seconds"],
        report_factor=report_factor, target_test_error=doc["report"]["target_test_error"],
        speedup=timing["speedup"], rounds=len(doc["report"]["round_sizes"]),
    )


def digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + hashlib.sha256(outputs[name]).digest())
    return h.hexdigest()


# --------------------------------------------------------------------------
# Checks

def check(state, outcome):
    """Independent checks of one operation's outputs; raises CheckError."""
    _require(outcome.selection_s > 0 and outcome.baseline_s > 0, "selection times must be positive")
    if state.workload == "external_cli":
        _check_external(state, outcome.outputs)
        return
    report = json.loads(outcome.outputs["report.json"])
    _check_selection(report)
    # Two clock() calls bracket each round, for the proxy pass and the baseline pass.
    _require(outcome.clock_calls == 4 * outcome.rounds,
             f"clock called {outcome.clock_calls} times for {outcome.rounds} rounds")


def _check_selection(report):
    ids = report["selected_ids"]
    _require(len(set(ids)) == len(ids), "selected_ids are not unique")
    _require(len(ids) == report["round_sizes"][-1], "selected_ids length != final round size")
    _require(ids == sorted(ids), "selected_ids are not ascending")
    _require(0.0 <= report["target_test_error"] <= 1.0, "target error outside [0, 1]")


def _parse_csv(data, types):
    lines = data.decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return lines[0], [tuple(t(v) for t, v in zip(types, row)) for row in rows]


def _check_external(state, outputs):
    p = state.params
    n = p["n"]
    probs_a = state.inputs["probs_a"].astype(np.float64)
    probs_b = state.inputs["probs_b"].astype(np.float64)

    # Scores recomputed from the probabilities with plain numpy.
    header, rows = _parse_csv(outputs["entropy.csv"], (int, float))
    _require(header == "example_id,score" and [r[0] for r in rows] == list(range(n)),
             "entropy.csv ids")
    entropy = np.array([r[1] for r in rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = -np.where(probs_a > 0, probs_a * np.log(probs_a), 0.0).sum(axis=1)
    _require(np.allclose(entropy, expected, rtol=1e-12, atol=1e-12), "entropy scores disagree")
    header, rows = _parse_csv(outputs["margin.csv"], (int, float))
    margin = np.array([r[1] for r in rows])
    top = np.sort(probs_b, axis=1)
    _require(np.allclose(margin, 1.0 - (top[:, -1] - top[:, -2]), rtol=1e-12, atol=1e-12),
             "margin scores disagree")

    m = re.fullmatch(r"spearman=(\S+) pearson=(\S+) n=(\d+)\n",
                     outputs["correlate.stdout"].decode())
    _require(m is not None, "correlate output malformed")
    spearman, pearson, count = float(m[1]), float(m[2]), int(m[3])
    _require(count == n, "correlate n")
    _require(abs(pearson - np.corrcoef(entropy, margin)[0, 1]) < 2e-6, "pearson disagrees")
    ranks = [np.argsort(np.argsort(-v, kind="stable")) for v in (entropy, margin)]
    _require(abs(spearman - np.corrcoef(*ranks)[0, 1]) < 1e-4, "spearman disagrees")

    # Forgetting: both log routes agree; counts recomputed naively on a sample.
    _require(outputs["forget_svpl.csv"] == outputs["forget_csv.csv"], "SVPL and CSV routes differ")
    header, rows = _parse_csv(outputs["forget_csv.csv"], (int, int, int))
    _require(header == "example_id,never_learned,count" and len(rows) == n, "forgetting csv")
    log = state.inputs["log"]
    sample = np.random.default_rng(state.seed).choice(n, size=min(n, 500), replace=False)
    for i in sample.tolist():
        prev, events = False, 0
        for correct in log[i].tolist():
            events += prev and not correct
            prev = correct
        _require(rows[i] == (i, int(not log[i].any()), events), f"forgetting row {i}")
    never = np.array([r[1] for r in rows], dtype=bool)
    counts = np.array([r[2] for r in rows])
    order = np.lexsort((np.arange(n), -counts, ~never))[: p["select"]]
    chosen = [int(v) for v in outputs["forget_select.stdout"].decode().split()]
    _require(chosen == order.tolist(), "forget --select order")

    # Core-set report.
    report = json.loads(outputs["coreset.json"])
    _check_selection(report)
    _require(report["round_sizes"] == [math.ceil(0.1 * n)], "coreset size")
    _require(outputs["coreset.rounds.csv"].decode().splitlines()[0]
             == "round,labeled_size,proxy_test_error", "rounds csv header")

    # k-centers: picked distances recomputed exactly, nonincreasing, disjoint.
    header, rows = _parse_csv(outputs["kcenters.csv"], (int, int, float))
    budget = p["kcenters_budget"]
    _require([r[0] for r in rows] == list(range(1, budget + 1)), "kcenters ranks")
    order = [r[1] for r in rows]
    picked = np.array([r[2] for r in rows])
    initial = svp.harness.random_select(np.arange(n), 1, state.seed).tolist()
    _require(len(set(order)) == budget and not set(order) & set(initial), "kcenters order")
    _require((np.diff(picked) <= 0).all(), "kcenters picked distances increase")
    x = state.inputs["features"].astype(np.float64)
    centers = list(initial)
    for u, dist in zip(order, picked):
        expected = np.sqrt(((x[centers] - x[u]) ** 2).sum(axis=1).min())
        _require(abs(expected - dist) <= 1e-9 * max(1.0, expected), "kcenters distance")
        centers.append(u)
