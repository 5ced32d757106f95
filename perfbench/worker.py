"""One workload in one process: set up, signal ready, run operations, report.

Started by ``run.py``; not meant to be run by hand. The process prints
``READY`` on standard output once set-up is done, then ``CALIB <factor>``,
the host-speed factor measured right after set-up (see ``calibration.py``),
and ``RESULT <json>`` as its last line. Load is a closed loop: one
client, each operation starting when the previous one (and its checks) ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402  (after the BLAS environment run.py sets)

import calibration  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = os.path.join(HERE, "expected_digests.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def platform_key():
    """What the output bytes may depend on: numpy, its BLAS, and the SIMD
    extensions they dispatch to. Stored digests apply only where it matches."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (KeyError, TypeError, ValueError):
        simd = []
    return f"numpy {np.__version__}; {blas_info()}; simd {','.join(simd)}"


def provenance():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _read_digests():
    if not os.path.exists(DIGESTS):
        return {"platform": platform_key(), "digests": {}}
    with open(DIGESTS) as fh:
        return json.load(fh)


def load_expected(workload, scale, seed):
    """The stored output digest for the default seed, or None."""
    table = _read_digests()
    if seed != DEFAULT_SEED:
        return None
    if table["platform"] != platform_key():
        print(f"note: stored digests were recorded on {table['platform']!r}; not compared here",
              file=sys.stderr)
        return None
    return table["digests"].get(workload, {}).get(scale)


def record_expected(workload, scale, value):
    table = _read_digests()
    if table["platform"] != platform_key():
        table = {"platform": platform_key(), "digests": {}}
    table["digests"].setdefault(workload, {})[scale] = value
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Checker:
    """Decides whether each operation's outputs are correct.

    The first operation whose outputs pass the independent checks (and, for
    the default seed, match the stored digest) becomes the run's reference;
    every later operation must produce byte-identical outputs.
    """

    def __init__(self, state, expected):
        self.state = state
        self.expected = expected
        self.reference = None

    def __call__(self, outcome):
        value = workloads.digest(outcome.outputs)
        if self.reference is not None:
            if value != self.reference:
                raise workloads.CheckError("outputs differ from the run's first operation")
            return value
        workloads.check(self.state, outcome)
        if self.expected is not None and value != self.expected:
            raise workloads.CheckError(f"digest {value[:12]} != stored {self.expected[:12]}")
        self.reference = value
        return value


def measure(state, seconds, trace, checker, after_op=None):
    """Run operations until ``seconds`` have passed; returns the run summary.

    With ``trace`` the operations alternate untraced and traced, at least
    one of each. ``after_op(index, outcome)`` runs before the checks; the
    smoke test uses it to corrupt an output.
    """
    tracer = tracing.Tracer() if trace else None
    ops, traced_ops, failures = [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            if traced:
                tracer.begin_op(attempted)
                with tracing.instrument(tracer):
                    outcome = tracer.call("op", workloads.run_op, state)
            else:
                outcome = workloads.run_op(state)
            if after_op is not None:
                after_op(attempted, outcome)
            checker(outcome)
            outcome.outputs = None  # checked; keeping them would grow the worker's RSS per op
        except Exception as exc:  # any failure of one operation counts, and the loop goes on
            failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
        else:
            (traced_ops if traced else ops).append((attempted, outcome))
        if time.perf_counter() >= deadline and (not trace or attempted >= 2):
            break
    return {"attempted": attempted, "failures": failures, "ops": ops,
            "traced_ops": traced_ops, "tracer": tracer}


def summary(values):
    return {"median": statistics.median(values), "n": len(values), "tail": stats.tail(values),
            "samples": values}


def end_to_end(run):
    """Timings scaled to reference host speed, their raw wall-clock values
    (``*_raw``), the target error, and the per-op speed factors."""
    ops = [o for _, o in run["ops"]]
    if not ops:
        return {}
    return {
        "op_s": summary([o.scaled_wall_s for o in ops]),
        "selection_s": summary([o.selection_s * o.report_factor for o in ops]),
        "baseline_s": summary([o.baseline_s * o.report_factor for o in ops]),
        "target_test_error": summary([o.target_test_error for o in ops]),
        "op_s_raw": summary([o.wall_s for o in ops]),
        "selection_s_raw": summary([o.selection_s for o in ops]),
        "baseline_s_raw": summary([o.baseline_s for o in ops]),
        "host_factor": summary([o.scaled_wall_s / o.wall_s for o in ops]),
    }


def per_layer(run):
    tracer = run["tracer"]
    rows = [tracing.layer_metrics(tracer, op_id, o.rounds) for op_id, o in run["traced_ops"]]
    for row, (_, o) in zip(rows, run["traced_ops"]):
        row["harness.speedup"] = o.speedup
        row["trace.op_s"] = o.wall_s
    out = {name: statistics.median([r[name] for r in rows]) for name in tracing.PER_LAYER_UNITS
           if name != "trace.overhead_frac"} if rows else {}
    untraced = [o.wall_s for _, o in run["ops"]]
    if rows and untraced:
        base = statistics.median(untraced)
        out["trace.overhead_frac"] = (out["trace.op_s"] - base) / base
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        state = workloads.setup(args.workload, args.seed, args.scale, workdir)
        # Warm-up: one untimed operation at the smallest scale.
        warm = workloads.setup(args.workload, args.seed, "tiny", os.path.join(workdir, "warm"))
        workloads.run_op(warm)
        print("READY", flush=True)
        print(f"CALIB {calibration.scale(calibration.sample(4))!r}", flush=True)
        if args.setup_only:
            return 0

        expected = None if args.record_digests else load_expected(args.workload, args.scale, args.seed)
        checker = Checker(state, expected)
        run = measure(state, args.seconds, bool(args.trace), checker)
        if args.record_digests and checker.reference is not None:
            record_expected(args.workload, args.scale, checker.reference)

        result = {
            "attempted": run["attempted"],
            "failures": run["failures"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "provenance": provenance(),
        }
        if args.trace:
            result["per_layer"] = per_layer(run)
            trace_path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            run["tracer"].write(trace_path)
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            result["end_to_end"] = end_to_end(run)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
