"""A run checks its train and test data once, before any fit: every case
below raises the documented ValueError naming ``train`` or ``test`` with no
fit made, through both protocols and through the CLI's file configs. The
learner's public entry points check their own inputs the same way, and
every integer argument of the Python API (a count, an index set, a pool, a
class count, a random stream size) is checked, never coerced."""

import json

import numpy as np
import pytest

from helpers import next_raw, spec_dict
from svp import harness
from svp.cli import main
from svp.forgetting import process_log, select_most_forgotten
from svp.harness import DEFAULT_SCHEDULE, ALConfig, random_select, run_active_learning, run_coreset
from svp.kcenters import greedy_kcenters
from svp.learner import LearnerSpec, SynthParams, embed, error_rate, fit, make_synthetic, predict_proba
from svp.rng import SplitMix64
from svp.scoring import top_m
from svp.tensor_io import write_labels_csv, write_tensor

PROXY = LearnerSpec(kind="logistic", epochs=2, learning_rate=0.5, batch_size=16, seed=1)
TARGET = LearnerSpec(kind="mlp", epochs=2, learning_rate=0.3, batch_size=16, seed=2, hidden_units=4)
DATA = SynthParams(classes=3, dim=4, separation=2.0, noise=1.0, n_train=60, n_test=30, seed=11)
UNPICKED = 0  # a row the AL run below never picks (checked by test_unedited_data_runs)


def _data():
    ds = make_synthetic(DATA)
    return [ds.features, ds.labels, ds.test_features, ds.test_labels]


def _set(array, index, value):
    array = array.astype(np.float64) if isinstance(value, float) else array.copy()
    array[index] = value
    return array


# (case, data edit on [x, y, xt, yt], message). Each edit is one of the
# inputs the run must refuse before it plans or fits anything.
CASES = [
    ("nan-test-features", lambda d: {2: _set(d[2], (3, 1), np.nan)},
     "non-finite values in test features"),
    ("inf-test-features", lambda d: {2: _set(d[2], (0, 0), -np.inf)},
     "non-finite values in test features"),
    ("inf-train-features", lambda d: {0: _set(d[0], (UNPICKED, 2), np.inf)},
     "non-finite values in train features"),
    ("empty-train", lambda d: {0: d[0][:0], 1: d[1][:0]},
     "train features must be nonempty, got shape (0, 4)"),
    ("empty-test", lambda d: {2: d[2][:0], 3: d[3][:0]},
     "test features must be nonempty, got shape (0, 4)"),
    ("test-wider", lambda d: {2: np.hstack([d[2], d[2][:, :1]])},
     "test features have 5 columns, train features 4"),
    ("test-narrower", lambda d: {2: d[2][:, :3]},
     "test features have 3 columns, train features 4"),
    ("1-d-train-features", lambda d: {0: d[0][:, 0]},
     "train features must be a 2-D matrix, got ndim=1"),
    ("negative-unpicked-label", lambda d: {1: _set(d[1], UNPICKED, -1)},
     "train labels must be nonnegative integers"),
    ("fractional-unpicked-label", lambda d: {1: _set(d[1], UNPICKED, 1.5)},
     "train labels must be nonnegative integers"),
    ("fractional-labels", lambda d: {1: d[1] + 0.7},
     "train labels must be nonnegative integers"),
    ("negative-test-label", lambda d: {3: _set(d[3], 0, -1)},
     "test labels must be nonnegative integers"),
    ("nan-test-label", lambda d: {3: _set(d[3], 4, np.nan)},
     "test labels must be nonnegative integers"),
    ("train-labels-short", lambda d: {1: d[1][:-1]},
     "train labels must be one per feature row, got 59 for 60"),
    ("test-labels-long", lambda d: {3: np.append(d[3], 0)},
     "test labels must be one per feature row, got 31 for 30"),
    ("2-d-test-labels", lambda d: {3: d[3][:, None]},
     "test labels must be 1-D, got ndim=2"),
    # Models are sized by the largest label: one stray id would otherwise
    # fit 20001 output units for 3 classes.
    ("stray-train-label", lambda d: {1: _set(d[1], UNPICKED, 20000)},
     "class ids below the largest label 20000 appear in neither the train nor the test "
     "labels: 3, 4, 5, 6, 7, ..."),
    ("stray-test-label", lambda d: {3: _set(d[3], 0, 5)},
     "class ids below the largest label 5 appear in neither the train nor the test "
     "labels: 3, 4"),
    # More than the 90 labels could cover: the gap is found without an array
    # as long as the label.
    ("huge-train-label", lambda d: {1: _set(d[1], UNPICKED, 2**62)},
     f"class ids below the largest label {2**62} appear in neither the train nor the "
     "test labels: 3, 4, 5, 6, 7, ..."),
]


def _run(route, x, y, xt, yt):
    if route == "al":
        cfg = ALConfig(proxy=PROXY, target=TARGET, method="random", budget_fraction=0.2,
                       schedule=DEFAULT_SCHEDULE, seed=7)
        return run_active_learning(cfg, (x, y), (xt, yt), measure_baseline=True)
    return run_coreset(PROXY, TARGET, "random", 0.5, (x, y), (xt, yt), seed=5,
                       include_full_data_error=True, measure_baseline=True)


@pytest.fixture
def fits(monkeypatch):
    """The fits a run makes, each still carried out."""
    calls = []

    def recording_fit(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(harness, "fit", recording_fit)
    return calls


@pytest.mark.parametrize("route", ["al", "coreset"])
@pytest.mark.parametrize("edit, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_run_refuses_bad_data_before_any_fit(fits, route, edit, message):
    data = _data()
    for i, array in edit(data).items():
        data[i] = array
    with pytest.raises(ValueError) as exc:
        _run(route, *data)
    assert str(exc.value) == message
    assert fits == []


def test_unedited_data_runs(fits):
    assert UNPICKED not in _run("al", *_data()).selected_ids
    _run("coreset", *_data())
    assert fits


def _write_files(tmp_path, x, y, xt, yt):
    paths = {name: str(tmp_path / name) for name in
             ("features.svpt", "labels.csv", "test_features.svpt", "test_labels.csv")}
    write_tensor(x, paths["features.svpt"])
    write_labels_csv(y, paths["labels.csv"])
    write_tensor(xt, paths["test_features.svpt"])
    write_labels_csv(yt, paths["test_labels.csv"])
    return {"features": paths["features.svpt"], "labels": paths["labels.csv"],
            "test_features": paths["test_features.svpt"], "test_labels": paths["test_labels.csv"]}


# The cases a file config can carry: SVPT and the label CSV reader already
# refuse non-finite values and negative labels, but not shapes that disagree
# or class ids that leave gaps.
FILE_CASES = [c for c in CASES if c[0] in
              ("test-wider", "test-narrower", "train-labels-short", "test-labels-long",
     "stray-train-label", "stray-test-label")]


@pytest.mark.parametrize("task", ["al", "coreset"])
@pytest.mark.parametrize("edit, message", [c[1:] for c in FILE_CASES],
                         ids=[c[0] for c in FILE_CASES])
def test_cli_refuses_bad_data_files_before_any_fit(tmp_path, capsys, fits, task, edit, message):
    data = _data()
    for i, array in edit(data).items():
        data[i] = array
    size = {"al": {"budget_fraction": 0.2}, "coreset": {"subset_fraction": 0.5}}[task]
    cfg = {"task": task, "method": "random", "seed": 3, "proxy": spec_dict(PROXY),
           "target": spec_dict(TARGET), "data": _write_files(tmp_path, *data), **size}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([task, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert fits == []


@pytest.fixture(scope="module")
def model():
    x, y, _, _ = _data()
    return fit(PROXY, x, y)


@pytest.mark.parametrize("call, message", [
    (lambda m, x, y: error_rate(m, x, y[:1]), "labels must be one per feature row, got 1 for 60"),
    (lambda m, x, y: error_rate(m, x, y - 1), "labels must be nonnegative integers"),
    (lambda m, x, y: error_rate(m, x, y + 0.5), "labels must be nonnegative integers"),
    (lambda m, x, y: predict_proba(m, _set(x, (7, 0), np.nan)), "non-finite values in features"),
    (lambda m, x, y: embed(m, _set(x, (0, 3), np.inf)), "non-finite values in features"),
    (lambda m, x, y: predict_proba(m, x[:0]), "features must be nonempty, got shape (0, 4)"),
    (lambda m, x, y: embed(m, x[0]), "features must be a 2-D matrix, got ndim=1"),
    (lambda m, x, y: fit(PROXY, x, y[:-1]), "labels must be one per feature row, got 59 for 60"),
    (lambda m, x, y: fit(PROXY, x, y * 0.5), "labels must be nonnegative integers"),
    (lambda m, x, y: fit(PROXY, x[:3], [0, 1, 2], n_classes=2), "label 2 outside [0, 2)"),
], ids=["error-rate-one-label", "error-rate-negative", "error-rate-fractional",
        "predict-proba-nan", "embed-inf", "predict-proba-empty", "embed-1-d",
        "fit-labels-short", "fit-fractional", "fit-label-beyond-n-classes"])
def test_learner_entry_points_check_their_inputs(model, call, message):
    x, y, _, _ = _data()
    with pytest.raises(ValueError) as exc:
        call(model, x, y)
    assert str(exc.value) == message


X = np.array([[0.0], [1.0], [3.0], [7.0]])
SCORES = np.array([0.5, 0.1, 0.9, 0.3])
LOG_SCORES = process_log(np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=bool))

# (case, call, message). Each call once ran on a coerced value (a truncated
# float, a boolean taken as 1, a string parsed as an integer) or raised
# TypeError; each must raise ValueError naming its argument.
INTEGER_CASES = [
    ("kcenters-real-index", lambda: greedy_kcenters(X, [0.7], 2),
     "initial set must be nonnegative integers"),
    ("kcenters-boolean-mask", lambda: greedy_kcenters(X, [True], 2),
     "initial set must be integer indices, not a boolean mask"),
    ("kcenters-string-index", lambda: greedy_kcenters(X, ["1"], 2),
     "initial set must be nonnegative integers"),
    ("kcenters-real-budget", lambda: greedy_kcenters(X, [0], 2.5),
     "budget must be an integer, got 2.5"),
    ("random-real-pool", lambda: random_select([1.5, 2.9, 3.2], 2, 1),
     "pool must be nonnegative integers"),
    ("random-boolean-pool", lambda: random_select(np.array([True, False, True]), 1, 0),
     "pool must be integer indices, not a boolean mask"),
    ("random-real-m", lambda: random_select(np.arange(4), 1.5, 0),
     "m must be an integer, got 1.5"),
    ("forgotten-boolean-m", lambda: select_most_forgotten(LOG_SCORES, True),
     "m must be an integer, got True"),
    ("top-m-real-m", lambda: top_m(SCORES, 2.0), "m must be an integer, got 2.0"),
    ("fit-real-n-classes", lambda: fit(PROXY, X, [0, 1, 0, 1], n_classes=2.7),
     "n_classes must be an integer, got 2.7"),
    ("fit-string-n-classes", lambda: fit(PROXY, X, [0, 1, 0, 1], n_classes="3"),
     "n_classes must be an integer, got '3'"),
    ("raw-block-real-size", lambda: SplitMix64(1).raw_block(2.5),
     "n must be an integer, got 2.5"),
    ("permutation-negative-size", lambda: SplitMix64(1).permutation(-3),
     "n must be nonnegative, got -3"),
    ("doubles-real-size", lambda: SplitMix64(1).doubles(2.5), "n must be an integer, got 2.5"),
    ("doubles-negative-size", lambda: SplitMix64(1).doubles(-1), "n must be nonnegative, got -1"),
    ("normals-boolean-size", lambda: SplitMix64(1).normals(True),
     "shape must be an integer, got True"),
    ("normals-real-dimension", lambda: SplitMix64(1).normals((2, 1.5)),
     "shape must be an integer, got 1.5"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in INTEGER_CASES],
                         ids=[c[0] for c in INTEGER_CASES])
def test_integer_arguments_are_checked_not_coerced(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_refused_stream_size_leaves_the_stream_in_place():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.raw_block(2.5)
    assert rng.raw_block(3).tolist() == SplitMix64(1).raw_block(3).tolist()


@pytest.mark.parametrize("draw", [
    lambda rng: rng.doubles(2.5), lambda rng: rng.doubles(-1), lambda rng: rng.normals(True),
    lambda rng: rng.normals((2, 1.5)), lambda rng: rng.normals((3, -2)),
], ids=["doubles-real", "doubles-negative", "normals-boolean", "normals-real-dim",
        "normals-negative-dim"])
def test_refused_draw_shape_leaves_the_stream_in_place(draw):
    rng = SplitMix64(1)
    rng.raw_block(2)
    with pytest.raises(ValueError):
        draw(rng)
    assert rng.raw_block(3).tolist() == SplitMix64(1).raw_block(5)[2:].tolist()


def test_numpy_integer_sizes_and_counts_are_integers():
    rng = SplitMix64(1)
    rng.raw_block(np.int64(3))
    assert next_raw(rng) == int(SplitMix64(1).raw_block(4)[3])
    assert top_m(SCORES, np.int64(2)).tolist() == top_m(SCORES, 2).tolist()
    assert greedy_kcenters(X, np.array([0.0]), 2).order.tolist() == [3, 2]


def test_cli_names_the_bad_svpt_file_of_a_config(tmp_path, capsys, fits):
    files = _write_files(tmp_path, *_data())
    bad = files["test_features"]
    with open(bad, "r+b") as fh:
        fh.truncate(10)
    cfg = {"task": "al", "method": "random", "seed": 3, "proxy": spec_dict(PROXY),
           "target": spec_dict(TARGET), "data": files, "budget_fraction": 0.2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["al", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: file is 10 bytes, header needs 24\n"
    assert fits == []
