"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (bad file contents, impossible
request), 2 usage error (unknown subcommand, missing or malformed flags).
Diagnostics go to standard error; results go to files or standard output,
never interleaved with logs. Every output file is written atomically, and
a command checks its request and stages all its outputs before it renames
any into place, so a failing invocation leaves no output behind.

A seeded command takes its seed from ``--seed`` only, so its argv and input
files fix its output. Every integer flag is spelled as an index line is.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import stat
import sys

import numpy as np

from . import harness, scoring
from .forgetting import process_log, select_most_forgotten, write_forgetting_csv
from .kcenters import greedy_kcenters, write_order_csv
from .learner import SynthParams, make_synthetic
# No command calls scores_to_ranks: the name stays because the benchmark's
# tracer wraps it here.
from .ranking_diag import DegenerateInputError, pearson, scores_to_ranks, spearman  # noqa: F401
from .tensor_io import (
    LOG_MAGIC,
    ORDER_CSV,
    SCORES_CSV,
    TENSOR_MAGIC,
    InvalidValueError,
    ProbMatrixError,
    _check_finite,
    _check_utf8,
    _split_fields,
    check_count,
    check_indices,
    read_csv,
    read_scores_csv,
    read_tensor,
    read_train_log,
    read_train_log_csv,
    staged_writes,
    write_labels_csv,
    write_scores_csv,
    write_tensor,
)


class UsageError(Exception):
    """Flag combinations argparse cannot express (e.g. ``--initial-size``
    without ``--seed``)."""


# An integer as a CSV integer column takes it once stripped: int() alone
# would also take "1_0" and non-ASCII digits such as "\u0663".
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """An integer flag's value, by the index-line rule."""
    if not _INTEGER.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _read_index_file(path: str) -> np.ndarray:
    """One integer index per line; blank lines ignored."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    _check_utf8(path, data)
    indices = []
    for lineno, line in enumerate(data.decode().split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if not _INTEGER.fullmatch(line):
            raise InvalidValueError(f"{path}:{lineno}: not an integer: {line!r}")
        index = int(line)
        if not -(2**63) <= index < 2**63:
            raise InvalidValueError(f"{path}:{lineno}: index outside the int64 range: {line!r}")
        indices.append(index)
    if not indices:
        raise InvalidValueError(f"{path}: no indices found")
    return np.asarray(indices, dtype=np.int64)


def _first_line(path: str, limit: int = -1) -> bytes:
    """Up to ``limit`` bytes of the first line of ``path``, read to choose the
    reader that then reads the whole file. Only a regular file can be read
    twice, so anything else, such as a pipe, is refused."""
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise InvalidValueError(f"{path}: not a regular file; this command reads it twice")
        return fh.readline(limit)


def _load_train_log(path: str) -> np.ndarray:
    """Accept either SVPL binary or the CSV import form. A file that starts
    with a binary magic is read as SVPL, so an SVPT file fails on its magic."""
    if _first_line(path, 4) in (LOG_MAGIC, TENSOR_MAGIC):
        return read_train_log(path)
    return read_train_log_csv(path)


def _load_score_series(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load scores keyed by example id from either CSV layout, as (ids,
    scores) in ascending id order.

    ``example_id,score`` is used as-is. A k-centers order file
    (``rank,example_id,min_dist``) is converted to scores as negated rank,
    so earlier-added points score higher. A non-finite score or rank is
    reported with the first line that holds one.
    """
    line = _first_line(path).split(b"\r", 1)[0].rstrip(b"\n")
    _check_utf8(path, line)
    header = _split_fields(line.decode()) if line else None
    if header == list(SCORES_CSV.names):
        scores = read_scores_csv(path)
        return np.arange(scores.shape[0], dtype=np.int64), scores
    if header == list(ORDER_CSV.names):
        rows = read_csv(path, ORDER_CSV)
        _check_finite(path, rows, "rank")
        order = np.argsort(rows["example_id"], kind="stable")
        ids = rows["example_id"][order]
        if (ids[1:] == ids[:-1]).any():
            raise InvalidValueError(f"{path}: duplicate example ids")
        return ids, -rows["rank"][order]
    raise InvalidValueError(f"{path}: unrecognized header {header}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svp",
        description="Data selection: uncertainty scoring, k-centers, forgetting, and proxy-driven selection runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score a probability tensor")
    p.add_argument("--method", required=True, choices=sorted(scoring.SCORERS))
    p.add_argument("--probs", required=True, help="SVPT file of class probabilities")
    p.add_argument("--out", required=True, help="output CSV (example_id,score)")

    p = sub.add_parser("kcenters", help="greedy k-centers selection order")
    p.add_argument("--features", required=True, help="SVPT file of features")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--initial", help="file of initial indices, one per line")
    group.add_argument("--initial-size", type=_integer,
                       help="number of seeded-random initial indices")
    p.add_argument("--budget", required=True, type=_integer)
    p.add_argument("--out", required=True, help="output CSV (rank,example_id,min_dist)")
    p.add_argument("--seed", type=_integer, default=None)

    p = sub.add_parser("forget", help="forgetting events from a training log")
    p.add_argument("--log", required=True, help="SVPL file or CSV (example_id,epoch,correct)")
    p.add_argument("--out", required=True, help="output CSV (example_id,never_learned,count)")
    p.add_argument("--select", type=_integer, default=None, metavar="M",
                   help="also print the M most-forgotten example ids")

    p = sub.add_parser("correlate", help="rank correlation between two score files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("al", help="run batch active learning from a JSON config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("coreset", help="run core-set selection from a JSON config")
    p.add_argument("--config", required=True)

    # One flag per generator parameter, typed as the field.
    p = sub.add_parser("synth", help="generate a synthetic blob dataset")
    for field in dataclasses.fields(SynthParams):
        p.add_argument("--" + field.name.replace("_", "-"), required=True,
                       type={"int": _integer, "float": float}[field.type])
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--out-test-features", default=None)
    p.add_argument("--out-test-labels", default=None)

    return parser


def _cmd_score(args) -> None:
    probs = read_tensor(args.probs)
    try:
        scores = scoring.SCORERS[args.method](probs)
    except ProbMatrixError as exc:  # a fault of the file's values: name the file
        raise ProbMatrixError(f"{args.probs}: {exc}") from None
    write_scores_csv(scores, args.out)


def _cmd_kcenters(args) -> None:
    # greedy_kcenters works in float64; converting first holds one copy.
    features = read_tensor(args.features).astype(np.float64)
    n = features.shape[0]
    if args.initial is not None:
        initial = check_indices(_read_index_file(args.initial), n, f"{args.initial}: initial set")
    else:
        if args.initial_size < 1:
            raise UsageError("--initial-size must be at least 1")
        if args.seed is None:
            raise UsageError("--initial-size needs --seed")
        check_count(args.initial_size, n, "--initial-size")
        initial = harness.random_select(np.arange(n), args.initial_size, args.seed)
    check_count(args.budget, n - initial.size, "--budget")
    write_order_csv(greedy_kcenters(features, initial, args.budget), args.out)


def _cmd_forget(args) -> None:
    log = _load_train_log(args.log)
    scores = process_log(log)
    # Select first: an impossible M must fail before the CSV is written.
    if args.select is not None:
        check_count(args.select, scores.counts.size, "--select")
    chosen = [] if args.select is None else select_most_forgotten(scores, args.select)
    write_forgetting_csv(scores, args.out)
    sys.stdout.write("".join(f"{int(i)}\n" for i in chosen))


def _cmd_correlate(args) -> None:
    ids_a, a = _load_score_series(args.a)
    ids_b, b = _load_score_series(args.b)
    if ids_a.shape != ids_b.shape or (ids_a != ids_b).any():
        raise ValueError("inputs cover different example ids; cannot correlate")
    for path, v in ((args.a, a), (args.b, b)):
        if v.min() == v.max():  # a one-row file too
            raise DegenerateInputError(f"{path}: every value is equal, so there is nothing to correlate")
    sys.stdout.write(f"spearman={spearman(a, b):.6f} pearson={pearson(a, b):.6f} n={a.shape[0]}\n")


def _cmd_run(args) -> None:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{args.config}: {exc}") from exc
    report, output = harness.execute_config(config, task=args.command)
    if output is None:
        sys.stdout.write(harness.report_json(config, report))


def _cmd_synth(args) -> None:
    if (args.out_test_features is None) != (args.out_test_labels is None):
        raise UsageError("--out-test-features and --out-test-labels go together")
    params = (getattr(args, field.name) for field in dataclasses.fields(SynthParams))
    ds = make_synthetic(SynthParams(*params))
    with staged_writes():
        write_tensor(ds.features, args.out_features)
        write_labels_csv(ds.labels, args.out_labels)
        if args.out_test_features is not None:
            write_tensor(ds.test_features, args.out_test_features)
            write_labels_csv(ds.test_labels, args.out_test_labels)


_COMMANDS = {
    "score": _cmd_score,
    "kcenters": _cmd_kcenters,
    "forget": _cmd_forget,
    "correlate": _cmd_correlate,
    "al": _cmd_run,
    "coreset": _cmd_run,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
