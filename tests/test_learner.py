import dataclasses

import numpy as np
import pytest

from helpers import draw_gradient_case, max_gradient_mismatch
from svp.learner import (
    LearnerSpec,
    SynthParams,
    embed,
    error_rate,
    fit,
    make_synthetic,
    predict_proba,
)
from svp.rng import SplitMix64

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
            assert LearnerSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            LearnerSpec.from_dict({**LOGISTIC.to_dict(), "momentum": 0.9})


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
        assert np.array_equal(a.loss_history, b.loss_history)

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
        ds = make_synthetic(EASY)
        model = fit(LOGISTIC, ds.features, ds.labels)
        assert model.loss_history[-1] < model.loss_history[0]
        mlp = fit(MLP, ds.features, ds.labels)
        assert mlp.loss_history[-1] < mlp.loss_history[0]

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
        ds = make_synthetic(EASY)
        model = fit(LOGISTIC, ds.features, ds.labels)
        with pytest.raises(ValueError):
            predict_proba(model, ds.features[:, :3])
        with pytest.raises(ValueError):
            embed(model, ds.features[:, :3])


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
        assert np.array_equal(ds.means, means)
        cls1 = ds.features[ds.labels == 1]
        assert (np.abs(cls1[:, 0] - 100.0) < 1.0).all()
        with pytest.raises(ValueError):
            make_synthetic(params, means=np.zeros((3, 2)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SynthParams(classes=1, dim=2, separation=1.0, noise=1.0, n_train=10, n_test=5, seed=0)
        with pytest.raises(ValueError):
            SynthParams(classes=2, dim=0, separation=1.0, noise=1.0, n_train=10, n_test=5, seed=0)
        with pytest.raises(ValueError):
            SynthParams(classes=2, dim=2, separation=1.0, noise=1.0, n_train=0, n_test=5, seed=0)
        with pytest.raises(ValueError):
            SynthParams(classes=2, dim=2, separation=-1.0, noise=1.0, n_train=10, n_test=5, seed=0)
