#!/usr/bin/env python3
"""Summarise or compare result sets written by ``run.py --out``.

    python3 perfbench/compare.py SET.jsonl            # spread of one set
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is a JSON-lines file with one record per run. For each
(workload, metric) the one-set form prints the median, the quartiles and the
spread (interquartile distance as a share of the median) across runs, and
flags a spread wider than a third of the metric's bound. The two-set form
prints both sides and the pairwise win share (run i of one side against run
i of the other, ties counting for neither) and gives a verdict:

* ``unresolved`` - the parent's spread exceeds the bound, unless every run of
  the change reads better than every run of the parent (then ``better``);
* ``worse`` - the change's median is worse by more than the bound;
* ``better`` - the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile distance;
* ``unchanged`` - otherwise.

Per-layer metrics have no bound; for them only ``better``/``worse`` by the
win-share rule, or ``unchanged``, is given.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_metric_specs():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def samples(records):
    """{(workload, metric): [per-run value, in run order]}."""
    out = {}
    for r in records:
        values = r.get("per_layer") or {k: v["median"] for k, v in r.get("end_to_end", {}).items()}
        for name, value in values.items():
            out.setdefault((r["workload"], name), []).append(value)
    return out


def verdict(parent, change, spec):
    lower = spec.get("better", "lower") == "lower"

    def gain(a, b):  # how much b improves on a, in the metric's direction
        return a - b if lower else b - a

    q1, med_a, q3 = stats.quartiles(parent)
    med_b = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    all_better = all(gain(a, b) > 0 for a in parent for b in change)
    bound = spec.get("bound")
    if bound is not None:
        if stats.relative_spread(parent) > bound and not all_better:
            return "unresolved", win_share
        if -gain(med_a, med_b) > bound * abs(med_a):
            return "worse", win_share
    if win_share >= 0.9 and abs(med_b - med_a) > (q3 - q1):
        return "better", win_share
    losses = sum(1 for a, b in pairs if gain(a, b) < 0)
    if bound is None and pairs and losses / len(pairs) >= 0.9 and abs(med_b - med_a) > (q3 - q1):
        return "worse", win_share
    return "unchanged", win_share


def fmt(values):
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def summarise(path, specs):
    print(f"{'workload':<15} {'metric':<26} {'n':>3} {'median [q1, q3]':<36} spread  bound")
    for (workload, name), values in sorted(samples(load_records(path)).items()):
        spec = specs.get(name, {})
        bound = spec.get("bound")
        spread = stats.relative_spread(values) if any(values) else 0.0
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  WIDE (> bound/3)"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:<15} {name:<26} {len(values):>3} {fmt(values):<36} "
              f"{spread:6.3f}  {bound_text}{flag}")


def compare(path_a, path_b, specs):
    a, b = samples(load_records(path_a)), samples(load_records(path_b))
    print(f"{'workload':<15} {'metric':<26} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} wins  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        v, share = verdict(a[key], b[key], specs.get(name, {}))
        print(f"{workload:<15} {name:<26} {fmt(a[key]):<34} {fmt(b[key]):<34} "
              f"{share:4.2f}  {v}")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = load_metric_specs()
    if len(args) == 1:
        summarise(args[0], specs)
    else:
        compare(args[0], args[1], specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
