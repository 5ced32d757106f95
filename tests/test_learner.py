import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    draw_gradient_case,
    fit_oracle,
    forward_oracle,
    max_gradient_mismatch,
    softmax_oracle,
    spec_dict,
    traced_peak,
)
from svp import learner
from svp.harness import _from_object
from svp.learner import (
    KINDS,
    LearnerSpec,
    SynthParams,
    TrainedModel,
    embed,
    error_rate,
    fit,
    init_params,
    make_synthetic,
    predict_proba,
)
from svp.rng import SplitMix64, derive_seed

LOGISTIC = LearnerSpec(kind="logistic", epochs=30, learning_rate=0.5, batch_size=16, seed=1)
MLP = LearnerSpec(kind="mlp", epochs=30, learning_rate=0.3, batch_size=16, seed=2, hidden_units=12)

EASY = SynthParams(classes=2, dim=5, separation=10.0, noise=1.0, n_train=80, n_test=40, seed=3)


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LearnerSpec(kind="tree", epochs=1, learning_rate=0.1, batch_size=1, seed=0)
        with pytest.raises(ValueError):
            LearnerSpec(kind="logistic", epochs=-1, learning_rate=0.1, batch_size=1, seed=0)
        with pytest.raises(ValueError):
            LearnerSpec(kind="logistic", epochs=1, learning_rate=0.0, batch_size=1, seed=0)
        with pytest.raises(ValueError):
            LearnerSpec(kind="logistic", epochs=1, learning_rate=0.1, batch_size=0, seed=0)
        with pytest.raises(ValueError):
            LearnerSpec(kind="mlp", epochs=1, learning_rate=0.1, batch_size=1, seed=0)
        with pytest.raises(ValueError):
            LearnerSpec(kind="logistic", epochs=1, learning_rate=0.1, batch_size=1, seed=0, hidden_units=4)

    def test_dict_round_trip(self):
        for spec in (LOGISTIC, MLP):
            assert _from_object(LearnerSpec, spec_dict(spec), "learner") == spec
        with pytest.raises(ValueError):
            _from_object(LearnerSpec, {**spec_dict(LOGISTIC), "momentum": 0.9}, "learner")

    def test_integer_learning_rate_is_held_as_float(self):
        # From Python and from JSON alike, the spec holds the converted value,
        # so the two fit bit-equal.
        direct = dataclasses.replace(MLP, learning_rate=1, epochs=3)
        text = json.dumps({**spec_dict(MLP), "learning_rate": 1, "epochs": 3})
        assert '"learning_rate": 1,' in text
        decoded = _from_object(LearnerSpec, json.loads(text), "learner")
        for spec in (direct, decoded):
            assert type(spec.learning_rate) is float and spec.learning_rate == 1.0
        ds = make_synthetic(EASY)
        a, b = (fit(spec, ds.features, ds.labels) for spec in (direct, decoded))
        for key in a.params:
            assert a.params[key].tobytes() == b.params[key].tobytes()
        assert np.array_equal(a.train_log, b.train_log)


class TestFitBasics:
    def test_zero_epochs_logistic_is_exactly_uniform(self):
        ds = make_synthetic(EASY)
        spec = dataclasses.replace(LOGISTIC, epochs=0)
        model = fit(spec, ds.features, ds.labels, n_classes=2)
        probs = predict_proba(model, ds.test_features)
        assert (probs == 0.5).all()
        assert model.train_log is None

    def test_separable_reaches_perfect_training_accuracy(self):
        ds = make_synthetic(EASY)
        model = fit(dataclasses.replace(LOGISTIC, epochs=50), ds.features, ds.labels)
        assert error_rate(model, ds.features, ds.labels) == 0.0

    def test_determinism(self):
        ds = make_synthetic(EASY)
        a = fit(LOGISTIC, ds.features, ds.labels)
        b = fit(LOGISTIC, ds.features, ds.labels)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert np.array_equal(a.train_log, b.train_log)

    def test_seed_changes_mlp_fit(self):
        ds = make_synthetic(EASY)
        a = fit(MLP, ds.features, ds.labels)
        b = fit(dataclasses.replace(MLP, seed=99), ds.features, ds.labels)
        assert not np.array_equal(a.params["W1"], b.params["W1"])

    def test_train_log_shape_and_timing(self):
        ds = make_synthetic(EASY)
        model = fit(LOGISTIC, ds.features, ds.labels)
        assert model.train_log.shape == (80, 30)
        assert model.train_log.dtype == np.bool_
        # Zero-init logistic predicts class 0 for everyone before the first
        # update, so in epoch 0 each class-1 example seen before any update
        # in its batch cannot all be correct; at least the very first batch
        # records pre-update accuracy.
        assert not model.train_log[:, 0].all()

    def test_loss_decreases_on_separable_data(self):
        # The oracle's losses are those of fit's trajectory: its parameters
        # are bit-equal to fit's (TestInPlaceLoopOracle).
        ds = make_synthetic(EASY)
        for spec in (LOGISTIC, MLP):
            _, losses = fit_oracle(spec, ds.features, ds.labels)
            assert losses[-1] < losses[0], spec.kind

    @pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
    def test_batch_beyond_int64_is_one_whole_batch(self, spec):
        ds = make_synthetic(EASY)
        n = ds.features.shape[0]
        whole = fit(dataclasses.replace(spec, batch_size=n), ds.features, ds.labels)
        huge = fit(dataclasses.replace(spec, batch_size=2**63), ds.features, ds.labels)
        for key in whole.params:
            assert huge.params[key].tobytes() == whole.params[key].tobytes(), key
        assert huge.train_log.tobytes() == whole.train_log.tobytes()

    def test_fit_errors(self):
        ds = make_synthetic(EASY)
        with pytest.raises(ValueError):
            fit(LOGISTIC, ds.features[:0], ds.labels[:0])
        with pytest.raises(ValueError):
            fit(LOGISTIC, ds.features, ds.labels[:-1])
        with pytest.raises(ValueError):
            fit(LOGISTIC, ds.features, ds.labels, n_classes=1)
        with pytest.raises(ValueError):
            fit(LOGISTIC, ds.features, np.zeros(80, dtype=int))  # single class, no n_classes
        fit(LOGISTIC, ds.features, np.zeros(80, dtype=int), n_classes=2)  # ok when c given

    @pytest.mark.parametrize("spec,scale", [(LOGISTIC, 1e200), (MLP, 1.0)])
    def test_diverged_fit_raises_without_warnings(self, spec, scale):
        ds = make_synthetic(EASY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^training diverged at epoch 0: non-finite parameters$"):
                fit(dataclasses.replace(spec, learning_rate=1e300), scale * ds.features, ds.labels)

    def test_infinite_loss_with_finite_parameters_passes(self):
        # The first step moves W to lr * x * [0.5, -0.5]; the second example,
        # equal features and the other label, then has logits of +-5e5, so
        # its class probability underflows to 0 and the loss is inf.
        x = np.array([[1000.0], [1000.0]])
        spec = LearnerSpec(kind="logistic", epochs=1, learning_rate=1.0, batch_size=1, seed=0)
        model = fit(spec, x, np.array([0, 1]))
        with np.errstate(divide="ignore"):
            _, losses = fit_oracle(spec, x, np.array([0, 1]))
        assert np.isinf(losses).all()
        assert all(np.isfinite(p).all() for p in model.params.values())


def _training_set(kind, n, d, c, batch_size, epochs, seed, distinct=None, grid=False, lr=0.5):
    """Rows drawn from ``distinct`` distinct rows, on an integer grid or
    standard normal; with an odd seed, copies of a row share its label."""
    rng = np.random.default_rng(seed)
    distinct = n if distinct is None else distinct
    base = (rng.integers(-3, 4, size=(distinct, d)).astype(np.float64) if grid
            else rng.standard_normal((distinct, d)))
    pick = rng.integers(0, distinct, size=n)
    y = rng.integers(0, c, size=distinct)[pick] if seed % 2 else rng.integers(0, c, size=n)
    spec = LearnerSpec(kind=kind, epochs=epochs, learning_rate=lr, batch_size=batch_size,
                       seed=seed, hidden_units=1 + seed % 8 if kind == "mlp" else None)
    return spec, base[pick], y, c


@st.composite
def training_sets(draw):
    n = draw(st.integers(1, 70))
    return _training_set(
        kind=draw(st.sampled_from(KINDS)), n=n, d=draw(st.integers(1, 6)),
        c=draw(st.integers(2, 5)), batch_size=draw(st.integers(1, n + 8)),
        epochs=draw(st.integers(0, 4)), seed=draw(st.integers(0, 2**32 - 1)),
        distinct=draw(st.integers(1, n)), grid=draw(st.booleans()),
        lr=draw(st.sampled_from([0.05, 0.5, 2.0])))


def assert_fit_bit_equal(spec, x, y, c):
    with np.errstate(all="ignore"):
        expected, _ = fit_oracle(spec, x, y, n_classes=c)
    got = fit(spec, x, y, n_classes=c)
    assert got.params.keys() == expected.params.keys()
    for key in expected.params:
        assert got.params[key].tobytes() == expected.params[key].tobytes(), key
    if expected.train_log is None:
        assert got.train_log is None
    else:
        assert got.train_log.tobytes() == expected.train_log.tobytes()


class TestFloat32Features:
    """``fit`` keeps float32 features and converts only the rows it gathers
    into its float64 shuffle buffer, so it trains as on their conversion."""

    @pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
    def test_fit_equals_fit_on_the_float64_conversion(self, spec):
        n, d = 5003, 8
        rows_per_block = learner._GATHER_BLOCK // d
        assert n > rows_per_block and n % rows_per_block and n % spec.batch_size
        spec = dataclasses.replace(spec, epochs=2)
        rng = np.random.default_rng(8)
        x32 = rng.standard_normal((n, d)).astype(np.float32)
        y = rng.integers(0, 3, size=n)
        a, b = fit(spec, x32, y), fit(spec, x32.astype(np.float64), y)
        assert a.params.keys() == b.params.keys()
        for key in a.params:
            assert a.params[key].tobytes() == b.params[key].tobytes()
        assert a.train_log.tobytes() == b.train_log.tobytes()

    def test_full_data_fit_holds_no_float64_copy_beyond_its_shuffle_buffer(self):
        n, d = 20000, 32
        rng = np.random.default_rng(9)
        x32 = rng.standard_normal((n, d)).astype(np.float32)
        y = rng.integers(0, 3, size=n)
        spec = dataclasses.replace(LOGISTIC, epochs=1)
        fit(spec, x32[:50], y[:50])  # first-call allocations are not the fit's
        assert traced_peak(fit, spec, x32, y) < 1.5 * n * d * 8

    def test_many_class_mlp_fit_holds_no_label_sized_buffer(self):
        # Labels are subtracted by flat index and the log is compared per
        # epoch, so a fit holds O(n) label state: an n-by-c one-hot, even
        # of bools (0.78 of the shuffle buffer here), would break the bound.
        n, d, c = 20000, 32, 200
        rng = np.random.default_rng(10)
        x32 = rng.standard_normal((n, d)).astype(np.float32)
        y = rng.integers(0, c, size=n)
        spec = dataclasses.replace(MLP, epochs=1)
        fit(spec, x32[:50], y[:50], n_classes=c)
        assert traced_peak(fit, spec, x32, y, c) < 1.5 * n * d * 8


class TestInPlaceLoopOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case", [
        dict(n=1, d=3, c=2, batch_size=1, epochs=3, seed=1),
        dict(n=1, d=3, c=3, batch_size=5, epochs=2, seed=2),
        dict(n=30, d=4, c=3, batch_size=7, epochs=0, seed=3),
        dict(n=50, d=4, c=4, batch_size=7, epochs=3, seed=4),  # 7 does not divide 50
        dict(n=20, d=5, c=3, batch_size=64, epochs=3, seed=5),  # batch larger than n
        dict(n=60, d=3, c=3, batch_size=8, epochs=3, seed=7, distinct=4),  # duplicated rows
        dict(n=60, d=3, c=4, batch_size=9, epochs=3, seed=9, distinct=10, grid=True),
    ])
    def test_bit_equal_on_named_cases(self, kind, case):
        assert_fit_bit_equal(*_training_set(kind, **case))

    @pytest.mark.parametrize("kind,hidden", [("logistic", None), ("mlp", 64), ("mlp", 128)])
    @pytest.mark.parametrize("batch_size", [32, 64])
    def test_bit_equal_at_benchmark_shapes(self, kind, hidden, batch_size):
        # The benchmark's learner shapes, where BLAS runs its full-size
        # kernels; 1003 rows leave a partial last batch.
        n, d, c = 1003, 32, 10
        rng = np.random.default_rng(batch_size + (hidden or 0))
        x32 = rng.standard_normal((n, d)).astype(np.float32)
        y = rng.integers(0, c, size=n)
        spec = LearnerSpec(kind=kind, epochs=2, learning_rate=0.1, batch_size=batch_size,
                           seed=11, hidden_units=hidden)
        assert_fit_bit_equal(spec, x32, y, c)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(training_sets())
    def test_bit_equal_to_oracle(self, instance):
        assert_fit_bit_equal(*instance)


class TestPredictAndEmbed:
    def test_rows_sum_to_one(self):
        ds = make_synthetic(EASY)
        for spec in (LOGISTIC, MLP):
            model = fit(spec, ds.features, ds.labels)
            probs = predict_proba(model, ds.test_features)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
            assert (probs >= 0).all()

    def test_trained_model_confident_on_correct_class(self):
        ds = make_synthetic(EASY)
        model = fit(LOGISTIC, ds.features, ds.labels)
        probs = predict_proba(model, ds.features)
        correct = probs[np.arange(80), ds.labels]
        assert correct.mean() > 0.5

    def test_embed_logistic_identity(self):
        ds = make_synthetic(EASY)
        model = fit(LOGISTIC, ds.features, ds.labels)
        np.testing.assert_array_equal(embed(model, ds.test_features), ds.test_features)

    def test_embed_mlp_shape_and_nonnegative(self):
        ds = make_synthetic(EASY)
        model = fit(MLP, ds.features, ds.labels)
        h = embed(model, ds.test_features)
        assert h.shape == (40, 12)
        assert (h >= 0).all()

    def test_dimension_mismatch(self):
        # Width 12 is the MLP's hidden width, the input width of its W.
        ds = make_synthetic(EASY)
        for spec in (LOGISTIC, MLP):
            model = fit(spec, ds.features, ds.labels)
            for width in (3, 12):
                x = np.resize(ds.features, (ds.features.shape[0], width))
                message = f"feature dim {width} != model dim 5"
                with pytest.raises(ValueError, match=message):
                    predict_proba(model, x)
                with pytest.raises(ValueError, match=message):
                    embed(model, x)
                with pytest.raises(ValueError, match=message):
                    error_rate(model, x, ds.labels)


def _inference_case(kind, n, d, c, h, seed, scale):
    """A model with standard normal parameters and features, both times
    ``scale``, and random labels; a large scale drives softmax entries to 0."""
    rng = np.random.default_rng(seed)
    spec = LearnerSpec(kind=kind, epochs=0, learning_rate=0.5, batch_size=4, seed=seed,
                       hidden_units=h if kind == "mlp" else None)
    params = {key: scale * rng.standard_normal(p.shape)
              for key, p in init_params(spec, d, c).items()}
    model = TrainedModel(params=params, train_log=None)
    return model, scale * rng.standard_normal((n, d)), rng.integers(0, c, size=n)


@st.composite
def inference_cases(draw):
    return _inference_case(
        kind=draw(st.sampled_from(KINDS)), n=draw(st.integers(1, 60)), d=draw(st.integers(1, 7)),
        c=draw(st.integers(2, 6)), h=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32 - 1)), scale=draw(st.sampled_from([0.1, 1.0, 30.0])))


class TestInPlaceInference:
    """``predict_proba``, ``embed`` and ``error_rate`` build each array in
    place, with the float operations of the textbook out-of-place pass."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(inference_cases())
    @example(_inference_case("logistic", n=1, d=3, c=2, h=None, seed=1, scale=1.0))
    @example(_inference_case("mlp", n=1, d=3, c=2, h=5, seed=2, scale=30.0))
    @example(_inference_case("mlp", n=3000, d=32, c=10, h=64, seed=3, scale=1.0))
    def test_bit_equal_to_textbook_pass(self, case):
        model, x, y = case
        before = x.copy()
        kind = "mlp" if "W1" in model.params else "logistic"
        hidden, logits = forward_oracle(kind, model.params, x)
        assert predict_proba(model, x).tobytes() == softmax_oracle(logits).tobytes()
        assert embed(model, x).tobytes() == hidden.tobytes()
        assert error_rate(model, x, y) == float(np.mean(logits.argmax(axis=1) != y))
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("infer", [predict_proba, embed])
    def test_mlp_inference_holds_one_hidden_sized_array(self, infer):
        n, h = 20000, 64
        model, x, _ = _inference_case("mlp", n=n, d=8, c=10, h=h, seed=4, scale=1.0)
        assert traced_peak(infer, model, x) < 1.5 * n * h * 8


class TestGradients:
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_analytic_matches_numeric(self, kind):
        rng = SplitMix64(404)
        done = 0
        for _ in range(100):
            case = draw_gradient_case(rng, kind)
            if case is None:
                continue
            params, x, y = case
            assert max_gradient_mismatch(kind, params, x, y) < 1e-4
            done += 1
            if done == 5:
                break
        assert done == 5


class TestSynthetic:
    def test_byte_identical_per_seed(self):
        a = make_synthetic(EASY)
        b = make_synthetic(EASY)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.test_features.tobytes() == b.test_features.tobytes()
        assert np.array_equal(a.labels, b.labels)
        c = make_synthetic(dataclasses.replace(EASY, seed=4))
        assert a.features.tobytes() != c.features.tobytes()

    @pytest.mark.parametrize("n_train", [1, 6, 7, 50])
    def test_equals_textbook_recipe(self, n_train):
        params = SynthParams(classes=7, dim=3, separation=2.0, noise=0.5, n_train=n_train,
                             n_test=13, seed=9)
        ds = make_synthetic(params)
        rng = SplitMix64(derive_seed(9, "synth"))
        means = 2.0 * rng.normals((7, 3))
        for n, x in ((n_train, ds.features), (13, ds.test_features)):
            y = np.arange(n) % 7
            assert x.tobytes() == (means[y] + 0.5 * rng.normals((n, 3))).tobytes()

    def test_round_robin_balance(self):
        params = SynthParams(classes=3, dim=2, separation=1.0, noise=1.0, n_train=100, n_test=10, seed=1)
        ds = make_synthetic(params)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_wide_separation_trains_accurately(self):
        errs = []
        for seed in range(10):
            params = SynthParams(classes=2, dim=5, separation=10.0, noise=1.0, n_train=100, n_test=60, seed=seed)
            ds = make_synthetic(params)
            model = fit(LOGISTIC, ds.features, ds.labels, n_classes=2)
            errs.append(error_rate(model, ds.test_features, ds.test_labels))
        assert all(e < 0.05 for e in errs)

    def test_means_override(self):
        params = SynthParams(classes=2, dim=2, separation=1.0, noise=0.1, n_train=40, n_test=10, seed=5)
        means = np.array([[0.0, 0.0], [100.0, 0.0]])
        ds = make_synthetic(params, means=means)
        cls1 = ds.features[ds.labels == 1]
        assert (np.abs(cls1[:, 0] - 100.0) < 1.0).all()
        with pytest.raises(ValueError):
            make_synthetic(params, means=np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_means_are_rejected(self, bad):
        params = SynthParams(classes=2, dim=2, separation=1.0, noise=0.1, n_train=40, n_test=10, seed=5)
        with pytest.raises(ValueError, match="non-finite values in means"):
            make_synthetic(params, means=np.array([[0.0, 0.0], [bad, 0.0]]))

    @pytest.mark.parametrize("separation, noise", [(1e308, 1.0), (1.0, 1e308)])
    def test_overflowing_features_are_rejected(self, separation, noise):
        params = SynthParams(3, 4, separation, noise, 30, 6, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="synthetic features overflow float64"):
                make_synthetic(params)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SynthParams(classes=1, dim=2, separation=1.0, noise=1.0, n_train=10, n_test=5, seed=0)
        with pytest.raises(ValueError):
            SynthParams(classes=2, dim=0, separation=1.0, noise=1.0, n_train=10, n_test=5, seed=0)
        with pytest.raises(ValueError):
            SynthParams(classes=2, dim=2, separation=1.0, noise=1.0, n_train=0, n_test=5, seed=0)
        with pytest.raises(ValueError):
            SynthParams(classes=2, dim=2, separation=-1.0, noise=1.0, n_train=10, n_test=5, seed=0)
