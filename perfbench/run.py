#!/usr/bin/env python3
"""svp benchmark: run one workload and print every metric by name and unit.

    python3 perfbench/run.py --workload al_kcenters --seed 1 --seconds 30 --trace 0

``--workload`` is one of al_kcenters, al_uncertainty, external_cli, or
``all`` to run the three in turn. With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics from a
traced run. Lines before it are the human-readable table, the provenance,
and any failed operation. ``--out FILE`` appends the full record (samples,
tails, provenance) as one JSON line, the input of ``compare.py``.

Run from the root of a checkout: the program under test is ``src/svp`` of
that checkout. Each workload runs in a fresh worker process; set-up is
repeated ``SETUP_REPEATS`` times, each in its own process, and ``setup_s``
is the median time from spawning a worker to the end of its set-up.

Timings are scaled to a reference host speed with a calibration kernel timed
next to each of them (see ``calibration.py``); ``*_raw`` lines in the table
give the unscaled wall-clock medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracing  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("al_kcenters", "al_uncertainty", "external_cli")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # one workload, all processes included
BLAS_THREADS = "1"  # at most nproc; one thread keeps timings off the other core


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(ROOT, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class WorkerError(Exception):
    pass


def spawn(args, deadline, setup_only):
    """Run one worker; returns (seconds from spawn to READY scaled to
    reference speed, the same unscaled, result or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    if setup_only:
        cmd.append("--setup-only")
    if args.record_digests:
        cmd.append("--record-digests")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready != "READY\n":
            raise WorkerError(f"{args.workload}: worker ended during set-up")
        calib = proc.stdout.readline()
        if not calib.startswith("CALIB "):
            raise WorkerError(f"{args.workload}: worker ended during calibration")
        factor = float(calib[len("CALIB "):])
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{args.workload}: worker exceeded the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"{args.workload}: worker exited {proc.returncode}")
    if setup_only:
        return setup_s * factor, setup_s, None
    lines = rest.splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        raise WorkerError(f"{args.workload}: worker printed no result")
    return setup_s * factor, setup_s, json.loads(lines[-1][len("RESULT "):])


def run_workload(args):
    """Run one workload; returns its record."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = []
    for _ in range(0 if args.trace else SETUP_REPEATS - 1):
        setups.append(spawn(args, deadline, setup_only=True)[:2])
    *setup, result = spawn(args, deadline, setup_only=False)
    setups.append(tuple(setup))

    attempted = result["attempted"]
    failed = len(result["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "attempted": attempted, "failed": failed, "failures": result["failures"],
        "provenance": {"git_sha": git_sha(), "seed": args.seed, "nproc": nproc(),
                       "ops_attempted": attempted, **result["provenance"]},
    }
    if args.trace:
        record["per_layer"] = result["per_layer"]
        record["trace_file"] = result["trace_file"]
    else:
        e2e = result["end_to_end"]
        for key, values in (("setup_s", [s for s, _ in setups]), ("setup_s_raw", [r for _, r in setups])):
            e2e[key] = {"median": statistics.median(values), "n": len(values),
                        "tail": stats.tail(values), "samples": values}
        e2e["peak_rss_mb"] = {"median": result["peak_rss_mb"], "n": 1, "tail": None}
        e2e["failed_frac"] = {"median": failed / attempted, "n": attempted, "tail": None}
        record["end_to_end"] = e2e
    return record


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def gated_metrics(record, bench):
    """The metrics the last output line carries, in BENCHMARK.json order."""
    if record["trace"]:
        return {m["name"]: {"value": record["per_layer"][m["name"]], "unit": m["unit"]}
                for m in bench["per_layer"]}
    return {m["name"]: {"value": record["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
            for m in bench["end_to_end"]}


E2E_UNITS = {"op_s": "s", "selection_s": "s", "baseline_s": "s", "target_test_error": "fraction",
             "setup_s": "s", "peak_rss_mb": "MiB", "failed_frac": "fraction",
             "op_s_raw": "s", "selection_s_raw": "s", "baseline_s_raw": "s", "setup_s_raw": "s",
             "host_factor": "ratio"}


def print_table(record):
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  "
          f"trace={record['trace']}  ops attempted={record['attempted']}  failed={record['failed']}")
    if record["trace"]:
        for name, value in record["per_layer"].items():
            unit = tracing.PER_LAYER_UNITS[name]
            tag = "  (computed)" if name in tracing.COMPUTED else ""
            print(f"  {name:<28} {value:>16.6g} {unit}{tag}")
        print(f"  spans written to {record['trace_file']}")
    else:
        for name, unit in E2E_UNITS.items():
            s = record["end_to_end"].get(name)
            if s is None:
                print(f"  {name:<20} {'n/a':>12} {unit}  (no successful operation)")
                continue
            tail = s["tail"]
            tail_text = f"p{tail[0]:.1f}={tail[1]:.6g}" if tail else "no tail (n <= 10)"
            print(f"  {name:<20} {s['median']:>12.6g} {unit:<8} median of n={s['n']}; {tail_text}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description="svp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--out", help="append the full record as one JSON line")
    parser.add_argument("--record-digests", action="store_true",
                        help="store the first operation's output digest as the expected one")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "svp", "__init__.py")):
        print("error: src/svp not found; run from the root of an svp checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(argparse.Namespace(**{**vars(args), "workload": name})))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_table(record)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    try:
        if len(records) == 1:
            metrics = gated_metrics(records[0], bench)
        else:
            metrics = {f"{r['workload']}.{k}": v
                       for r in records for k, v in gated_metrics(r, bench).items()}
    except KeyError as exc:
        print(f"error: no successful operation measured {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
