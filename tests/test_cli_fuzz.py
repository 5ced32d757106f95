"""A fuzz gate for the CLI: tiny valid inputs, mutated byte by byte or
value by value, must each end in exit 0, 1 or 2 with no traceback; a failed
command prints one ``error:`` line (or argparse's usage text for exit 2)
and leaves no output behind, and no command leaves a ``.svp-tmp-*`` file.

Each example runs in a fresh directory that is the working directory while
``main`` runs, and every path the command names is relative to it, so a
mutated config ``output`` stays inside it and "no output behind" is "the
directory holds only the inputs". The examples are derandomized, so a
failure reproduces on every run."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svp.cli import main
from svp.tensor_io import write_scores_csv, write_tensor, write_train_log

# What a mutation inserts: separators, signs, quotes, non-finite spellings,
# line ends and bytes that are not UTF-8.
TOKENS = (b"\n", b",", b'"', b"-", b"nan", b"1e999", b"\r", b"\x00", b"\xff")
# What a config value becomes: every JSON kind, out-of-range and non-finite
# numbers, and the integer one past int64.
VALUES = (None, True, False, -1, 0, 1, 0.5, 1.5, 2**63, 10**400, float("inf"), float("nan"),
          "x", [], {})
SPEC = {"kind": "logistic", "epochs": 2, "learning_rate": 0.5, "batch_size": 8, "seed": 1}
CONFIG = {
    "method": "least_confidence",
    "proxy": SPEC,
    "target": {**SPEC, "kind": "mlp", "hidden_units": 4, "seed": 2},
    "seed": 5,
    "data": {"synthetic": {"classes": 3, "dim": 3, "separation": 2.0, "noise": 1.0,
                           "n_train": 24, "n_test": 12, "seed": 11}},
    "output": "run.json",
}
ORDER = b"rank,example_id,min_dist\n1,2,5.0\n2,0,3.0\n3,1,1.0\n4,3,0.5\n"
CSV_LOG = b"example_id,epoch,correct\n" + b"".join(
    b"%d,%d,%d\n" % (i, e, (i + e) % 2) for i in range(4) for e in range(3))


def written(writer, value) -> bytes:
    """The bytes ``writer`` puts in a file for ``value``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f")
        writer(value, path)
        with open(path, "rb") as fh:
            return fh.read()


def config(task, **fields) -> bytes:
    return json.dumps({"task": task, **CONFIG, **fields}).encode()


PROBS = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]],
                 dtype=np.float32)
SCORES = written(write_scores_csv, np.array([0.5, 0.25, 0.75, 0.1]))
FEATURES = written(write_tensor, np.arange(12, dtype=np.float32).reshape(6, 2))
KCENTERS = ["kcenters", "--features", "x.svpt", "--budget", "2", "--out", "out.csv"]
FORGET = ["forget", "--out", "out.csv", "--select", "1", "--log"]
CORRELATE = ["correlate", "--a", "a.csv", "--b", "b.csv"]

# Each shape: its valid input files, the one a mutation changes, and the argv.
SHAPES = {
    "score": ({"p.svpt": written(write_tensor, PROBS)}, "p.svpt",
              ["score", "--method", "entropy", "--probs", "p.svpt", "--out", "out.csv"]),
    "kcenters-features": ({"x.svpt": FEATURES}, "x.svpt",
                          KCENTERS + ["--initial-size", "2", "--seed", "1"]),
    "kcenters-initial": ({"x.svpt": FEATURES, "init.txt": b"0\n3\n"}, "init.txt",
                         KCENTERS + ["--initial", "init.txt"]),
    "forget-svpl": ({"log.svpl": written(write_train_log, np.array(
        [[1, 0, 1], [1, 1, 1], [0, 0, 1], [0, 1, 0]], dtype=bool))}, "log.svpl",
        FORGET + ["log.svpl"]),
    "forget-csv": ({"log.csv": CSV_LOG}, "log.csv", FORGET + ["log.csv"]),
    "correlate-scores": ({"a.csv": SCORES, "b.csv": ORDER}, "a.csv", CORRELATE),
    "correlate-order": ({"a.csv": SCORES, "b.csv": ORDER}, "b.csv", CORRELATE),
    "coreset": ({"c.json": config("coreset", subset_fraction=0.5)}, "c.json",
                ["coreset", "--config", "c.json"]),
    "al": ({"c.json": config("al", budget_fraction=0.5,
                             schedule={"initial": 0.25, "first": 0.125, "subsequent": 0.125})},
           "c.json", ["al", "--config", "c.json"]),
}
USAGE = re.compile(r"usage: svp [^\n]*\n(.*\n)*svp[^\n]*: error: [^\n]*\n")


@st.composite
def mutated_bytes(draw, data: bytes) -> bytes:
    """``data`` after one to three flips, deletions or insertions."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("flip", "delete", "insert")))
        if kind == "insert":
            data[at:at] = draw(st.sampled_from(TOKENS))
        elif at < len(data):
            if kind == "delete":
                del data[at]
            else:
                data[at] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


def slots(doc: dict) -> list:
    """Every (object, key) pair of the config, nested objects included."""
    out = []
    for key, value in doc.items():
        out.append((doc, key))
        if isinstance(value, dict):
            out += slots(value)
    return out


@st.composite
def mutated_config(draw, data: bytes) -> bytes:
    """The config with one field deleted or set to one of ``VALUES``."""
    doc = json.loads(data)
    obj, key = draw(st.sampled_from(slots(doc)))
    value = draw(st.sampled_from((..., *VALUES)))
    if value is ...:
        del obj[key]
    else:
        obj[key] = value
    return json.dumps(doc).encode()


def run(inputs: dict, argv: list) -> tuple:
    """``main(argv)`` in a fresh directory holding ``inputs``: the exit
    code, stdout, stderr, and the names the directory holds afterwards."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, data in inputs.items():
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(d)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        names = sorted(os.path.relpath(os.path.join(root, f), d)
                       for root, _, files in os.walk(d) for f in files)
    return code, out.getvalue(), err.getvalue(), names


@pytest.mark.parametrize("shape", SHAPES)
def test_valid_input_succeeds(shape):
    inputs, _, argv = SHAPES[shape]
    code, out, err, names = run(inputs, argv)
    assert (code, err) == (0, "")
    assert out or len(names) > len(inputs)  # every shape prints or writes something


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_fails_cleanly(shape, data):
    inputs, target, argv = SHAPES[shape]
    strategy = mutated_bytes(inputs[target])
    if target.endswith(".json"):
        strategy = st.one_of(strategy, mutated_config(inputs[target]))
    code, _, err, names = run({**inputs, target: data.draw(strategy)}, argv)
    assert code in (0, 1, 2)
    assert [n for n in names if os.path.basename(n).startswith(".svp-tmp-")] == []
    if code != 0:
        assert re.fullmatch(r"error: [^\n]*\n", err) or (code == 2 and USAGE.fullmatch(err)), err
        assert names == sorted(inputs)
