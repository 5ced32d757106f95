"""The benchmark's per-layer trace patches svp functions by name. A rename
or a removed name would silently drop that layer from the trace, a shuffle
inlined out of ``SplitMix64.permutation`` would drop its work from
``rng.permuted_elems``, and a k-centers call that bypassed
``harness.greedy_kcenters`` would drop its distance passes from the
``kcenters`` counters, and a feature read that bypassed
``harness.read_tensor``, or called it with more than the path its counter
takes, would blind or break every traced run on file data, and a report or
rounds CSV written through a by-name import of ``atomic_write_bytes`` would
drop from ``tensor_io.write`` and its bytes, and a CSV written block by
block whose ``len()`` missed a block would undercount those bytes; these
tests make all six fail here instead."""

import importlib
import os

import numpy as np

import svp.cli as cli
import svp.harness as harness
import svp.tensor_io as tensor_io
from svp.learner import SynthParams, make_synthetic
from svp.tensor_io import write_labels_csv, write_tensor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

TINY_AL = {
    "task": "al", "method": "random", "seed": 4, "budget_fraction": 0.5,
    "measure_baseline": True,
    "proxy": {"kind": "logistic", "epochs": 2, "learning_rate": 0.5, "batch_size": 16, "seed": 1},
    "target": {"kind": "mlp", "epochs": 3, "learning_rate": 0.3, "batch_size": 16, "seed": 2,
               "hidden_units": 4},
    "data": {"synthetic": {"classes": 3, "dim": 4, "separation": 2.0, "noise": 1.0,
                           "n_train": 90, "n_test": 30, "seed": 11}},
}


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_every_traced_name_exists(monkeypatch, capsys):
    tracing = _tracing(monkeypatch)
    with tracing.instrument(tracing.Tracer()):
        pass
    assert "trace: not found" not in capsys.readouterr().err


def test_fit_shuffles_are_attributed_to_the_permutation_layer(monkeypatch, capsys):
    tracing = _tracing(monkeypatch)
    fits, draws = [], []
    fit, random_select = harness.fit, harness.random_select

    def recording_fit(spec, features, labels, n_classes=None):
        fits.append(spec.epochs * len(features))
        return fit(spec, features, labels, n_classes=n_classes)

    def recording_random_select(pool, m, seed):
        draws.append(len(pool))
        return random_select(pool, m, seed)

    monkeypatch.setattr(harness, "fit", recording_fit)
    monkeypatch.setattr(harness, "random_select", recording_random_select)
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    with tracing.instrument(tracer):
        harness.execute_config(TINY_AL)
    assert "trace: not found" not in capsys.readouterr().err

    names = [span[3] for span in tracer.spans]
    assert names.count("learner.fit") == len(fits) > 0
    assert len(draws) > 1
    assert tracer.counts[0]["rng.permuted_elems"] == sum(fits) + sum(draws)


def test_kcenters_counters_match_the_calls_made(monkeypatch, capsys):
    tracing = _tracing(monkeypatch)
    calls = []
    greedy = harness.greedy_kcenters

    def recording_greedy(features, initial, budget):
        calls.append((len(features), len(initial), budget))
        return greedy(features, initial, budget)

    monkeypatch.setattr(harness, "greedy_kcenters", recording_greedy)
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    with tracing.instrument(tracer):
        report, _ = harness.execute_config({**TINY_AL, "method": "kcenters"})
    assert "trace: not found" not in capsys.readouterr().err

    rounds = len(report.round_sizes) - 1
    assert rounds > 1
    assert len(calls) == 1 + rounds  # one for the logistic proxy, one per baseline round
    counts = tracer.counts[0]
    assert counts["kcenters.calls"] == len(calls)
    assert counts["kcenters.distance_evals"] == sum((i + b) * n for n, i, b in calls)


def test_file_data_is_read_through_the_traced_names(monkeypatch, capsys, tmp_path):
    tracing = _tracing(monkeypatch)
    ds = make_synthetic(SynthParams(**TINY_AL["data"]["synthetic"]))
    files = {key: str(tmp_path / name) for key, name in (
        ("features", "x.svpt"), ("labels", "y.csv"),
        ("test_features", "xt.svpt"), ("test_labels", "yt.csv"))}
    write_tensor(ds.features, files["features"])
    write_labels_csv(ds.labels, files["labels"])
    write_tensor(ds.test_features, files["test_features"])
    write_labels_csv(ds.test_labels, files["test_labels"])
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    with tracing.instrument(tracer):
        harness.execute_config({**TINY_AL, "data": files})
    assert "trace: not found" not in capsys.readouterr().err

    names = [span[3] for span in tracer.spans]
    assert names.count("tensor_io.binary_read") == 2
    assert names.count("tensor_io.csv_read") == 2
    # The counter adds each file's size: the two SVPT reads and the two CSV reads.
    sizes = {key: os.path.getsize(path) for key, path in files.items()}
    assert tracer.counts[0]["tensor_io.bytes_read"] == sum(sizes.values())
    assert sizes["features"] + sizes["test_features"] == 24 * 2 + 4 * (
        ds.features.size + ds.test_features.size)


def test_run_outputs_are_written_through_the_traced_name(monkeypatch, capsys, tmp_path):
    tracing = _tracing(monkeypatch)
    output = tmp_path / "run.json"
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    with tracing.instrument(tracer):
        harness.execute_config({**TINY_AL, "output": str(output)})
    assert "trace: not found" not in capsys.readouterr().err

    names = [span[3] for span in tracer.spans]
    assert names.count("tensor_io.write") == 2
    written = output.stat().st_size + (tmp_path / "run.rounds.csv").stat().st_size
    assert tracer.counts[0]["tensor_io.bytes_written"] == written


def test_a_csv_written_in_blocks_counts_every_byte(monkeypatch, capsys, tmp_path):
    tracing = _tracing(monkeypatch)
    n = 3000
    assert 2 * n > tensor_io._CSV_BLOCK  # two cells a row: more than one block
    z = np.random.default_rng(5).standard_normal((n, 4))
    probs, out = tmp_path / "probs.svpt", tmp_path / "scores.csv"
    write_tensor(np.exp(z) / np.exp(z).sum(axis=1, keepdims=True), str(probs))
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    with tracing.instrument(tracer):
        assert cli.main(["score", "--method", "entropy", "--probs", str(probs),
                         "--out", str(out)]) == 0
    assert "trace: not found" not in capsys.readouterr().err

    assert tracer.counts[0]["tensor_io.bytes_written"] == out.stat().st_size > 0
