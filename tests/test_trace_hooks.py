"""The benchmark's per-layer trace patches svp functions by name. A rename
or a removed name would silently drop that layer from the trace, a shuffle
inlined out of ``SplitMix64.permutation`` would drop its work from
``rng.permuted_elems``, and a k-centers call that bypassed
``harness.greedy_kcenters`` would drop its distance passes from the
``kcenters`` counters; these tests make all three fail here instead."""

import importlib
import os

import svp.harness as harness

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
