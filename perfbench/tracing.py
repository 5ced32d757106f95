"""Spans and work counters for the traced benchmark run.

The program is traced from outside: for the duration of one traced
operation, :func:`instrument` replaces names that ``svp.harness`` and
``svp.cli`` bound at import (and a few names those reach through a module
attribute) with wrappers that record a span and, where the work can be
computed from the call's inputs or result, a counter. Nothing under ``src/``
is edited. Untraced operations run the original functions.

Span names are ``<layer>.<part>``; a span's self time is its duration minus
the durations of its direct children, and ``<name>_s`` is the per-operation
sum of self times of spans with that name. Three harness metrics are
inclusive phase times instead (see :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Keeps finished spans and counters in memory until :meth:`write`."""

    def __init__(self):
        self.spans = []  # (op_id, span_id, parent_id, name, start, end)
        self.counts = {}  # op_id -> {counter name: amount}
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._pass_calls = 0

    def begin_op(self, op_id):
        self.op_id = op_id
        self.counts[op_id] = {}
        self._pass_calls = 0

    def count(self, name, amount):
        counts = self.counts[self.op_id]
        counts[name] = counts.get(name, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op_id, span_id, parent, name, start, end))

    def next_pass_name(self):
        """The first selection pass of an operation selects with the proxy;
        the second is the baseline pass with the target in the proxy slot."""
        self._pass_calls += 1
        return "harness.selection_pass" if self._pass_calls == 1 else "harness.baseline_pass"

    def write(self, path):
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _rows(x):
    return int(getattr(x, "shape", (len(x),))[0])


def _fit_counts(model, spec, features, *args, **kwargs):
    n = _rows(features)
    return [("learner.fit_calls", 1),
            ("learner.sgd_steps", spec.epochs * math.ceil(n / spec.batch_size)),
            ("learner.examples_seen", spec.epochs * n)]


def _predict_counts(result, model, features, *args, **kwargs):
    return [("learner.rows_predicted", _rows(features))]


def _kcenters_counts(result, features, initial, budget):
    n, d = features.shape
    init = len(initial)
    evals = (init + budget) * n
    return [("kcenters.calls", 1), ("kcenters.init_points", init),
            ("kcenters.points", init + budget), ("kcenters.distance_evals", evals),
            ("kcenters.bytes_computed", evals * d * 8)]


def _score_counts(result, p, *args, **kwargs):
    return [("scoring.rows_scored", _rows(p))]


def _log_counts(result, log):
    return [("forgetting.log_cells", int(log.size))]


def _binary_read_counts(result, path):
    return [("tensor_io.bytes_read", os.path.getsize(path))]


def _csv_read_counts(result, path):
    return [("tensor_io.bytes_read", os.path.getsize(path)),
            ("tensor_io.csv_rows_read", int(result.size))]


def _write_counts(result, path, data):
    return [("tensor_io.bytes_written", len(data))]


def _permutation_counts(result, generator, n):
    return [("rng.permuted_elems", n)]


def _corr_counts(result, a, b, *args, **kwargs):
    return [("ranking_diag.rows", _rows(a))]


def _cli_counts(result, *args, **kwargs):
    return [("cli.commands", 1), ("cli.exit_nonzero", int(result != 0))]


def _wrap(tracer, name, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if counter is not None:
            for key, amount in counter(result, *args, **kwargs):
                tracer.count(key, amount)
        return result
    return wrapper


def _wrap_pass(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(tracer.next_pass_name(), fn, *args, **kwargs)
    return wrapper


@contextmanager
def instrument(tracer):
    """Route calls into each layer through span-recording wrappers."""
    import svp.cli as cli
    import svp.harness as harness
    import svp.scoring as scoring
    import svp.tensor_io as tensor_io
    from svp.rng import SplitMix64

    saved = []
    missing = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def span(owner, attr, name, counter=None):
        if not hasattr(owner, attr):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        patch(owner, attr, _wrap(tracer, name, getattr(owner, attr), counter))

    for owner in (harness, cli):
        span(owner, "greedy_kcenters", "kcenters.greedy", _kcenters_counts)
        span(owner, "process_log", "forgetting.process_log", _log_counts)
        span(owner, "select_most_forgotten", "forgetting.select")
        span(owner, "read_tensor", "tensor_io.binary_read", _binary_read_counts)

    span(harness, "fit", "learner.fit", _fit_counts)
    for attr in ("predict_proba", "embed", "error_rate"):
        span(harness, attr, "learner.predict", _predict_counts)
    span(harness, "read_labels_csv", "tensor_io.csv_read", _csv_read_counts)
    for attr in ("execute_config", "load_data_section", "random_select",
                 "report_json", "rounds_csv"):
        span(harness, attr, "harness.other")
    for attr in ("run_active_learning", "run_coreset"):
        span(harness, attr, "harness.run")
    for attr in ("_al_selection_pass", "_coreset_select"):
        if hasattr(harness, attr):
            patch(harness, attr, _wrap_pass(tracer, getattr(harness, attr)))
        else:
            missing.append(f"svp.harness.{attr}")

    span(cli, "main", "cli.main", _cli_counts)
    span(cli, "read_train_log", "tensor_io.binary_read", _binary_read_counts)
    span(cli, "read_train_log_csv", "tensor_io.csv_read", _csv_read_counts)
    span(cli, "read_scores_csv", "tensor_io.csv_read", _csv_read_counts)
    for attr in ("write_scores_csv", "write_labels_csv", "write_tensor"):
        span(cli, attr, "tensor_io.write")
    span(cli, "write_forgetting_csv", "forgetting.write")
    span(cli, "write_order_csv", "kcenters.write")
    for attr in ("pearson", "spearman", "scores_to_ranks"):
        span(cli, attr, "ranking_diag.corr", _corr_counts if attr != "scores_to_ranks" else None)

    for attr in ("least_confidence", "entropy", "margin"):
        span(scoring, attr, "scoring.score", _score_counts)
    span(scoring, "top_m", "scoring.top_m")
    for key, fn in list(scoring.SCORERS.items()):
        saved.append((scoring.SCORERS, key, fn))
        scoring.SCORERS[key] = _wrap(tracer, "scoring.score", fn, _score_counts)
    span(SplitMix64, "permutation", "rng.permutation", _permutation_counts)
    span(tensor_io, "atomic_write_bytes", "tensor_io.write", _write_counts)

    if missing:
        print(f"trace: not found, so not traced: {', '.join(missing)}", file=sys.stderr)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# Per-layer metrics: name -> unit. Counters marked "computed" in COMPUTED are
# derived from call inputs and results, so they repeat exactly run to run.
SELF_TIME_METRICS = (
    "kcenters.greedy_s", "kcenters.write_s",
    "learner.fit_s", "learner.predict_s",
    "rng.permutation_s",
    "scoring.score_s", "scoring.top_m_s",
    "forgetting.process_log_s", "forgetting.select_s", "forgetting.write_s",
    "tensor_io.binary_read_s", "tensor_io.csv_read_s", "tensor_io.write_s",
    "ranking_diag.corr_s",
)
COMPUTED = {
    "kcenters.calls": "count",
    "kcenters.distance_evals": "count",
    "kcenters.fold_share": "fraction",
    "kcenters.bytes_computed": "B",
    "learner.fit_calls": "count",
    "learner.sgd_steps": "count",
    "learner.examples_seen": "count",
    "learner.rows_predicted": "count",
    "rng.permuted_elems": "count",
    "scoring.rows_scored": "count",
    "forgetting.log_cells": "count",
    "tensor_io.bytes_read": "B",
    "tensor_io.bytes_written": "B",
    "tensor_io.csv_rows_read": "count",
    "ranking_diag.rows": "count",
    "harness.rounds": "count",
    "cli.commands": "count",
    "trace.spans": "count",
}
PHASE_METRICS = ("harness.selection_pass_s", "harness.baseline_pass_s", "harness.target_fit_s")
MEASURED = {
    "harness.self_s": "s",
    "harness.speedup": "ratio",
    "cli.self_s": "s",
    "cli.exit_nonzero": "count",
    "trace.op_s": "s",
    "trace.overhead_frac": "fraction",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: "s" for name in PHASE_METRICS},
    **COMPUTED,
    **MEASURED,
}


def layer_metrics(tracer, op_id, rounds):
    """Per-layer values of one traced operation.

    ``*_s`` values are self times, except the three harness phase metrics:
    ``selection_pass_s`` and ``baseline_pass_s`` are the inclusive durations
    of the proxy and baseline selection passes, and ``target_fit_s`` is the
    inclusive duration of the fits the harness makes outside any selection
    pass (the target fit). The ``rounds`` count comes from the report.
    """
    spans = [s for s in tracer.spans if s[0] == op_id]
    by_id = {s[1]: s for s in spans}
    child_time = {}
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for _, span_id, parent, name, start, end in spans:
        duration = end - start
        self_time = duration - child_time.get(span_id, 0.0)
        layer = name.split(".", 1)[0]
        if layer == "harness":
            out["harness.self_s"] += self_time
            if name in ("harness.selection_pass", "harness.baseline_pass"):
                out[name + "_s"] += duration
        elif name == "cli.main":
            out["cli.self_s"] += self_time
        elif name + "_s" in out:
            out[name + "_s"] += self_time
        if name == "learner.fit" and parent is not None and by_id[parent][3] == "harness.run":
            out["harness.target_fit_s"] += duration

    counts = tracer.counts.get(op_id, {})
    for key in COMPUTED:
        if key in counts:
            out[key] = counts[key]
    out["cli.exit_nonzero"] = counts.get("cli.exit_nonzero", 0)
    points = counts.get("kcenters.points", 0)
    out["kcenters.fold_share"] = counts.get("kcenters.init_points", 0) / points if points else 0.0
    out["harness.rounds"] = rounds
    out["trace.spans"] = len(spans)
    return out
