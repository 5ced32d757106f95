import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import svp
from helpers import ScriptClock, al_kcenters_pass_oracle, spec_dict, three_blob
from svp.forgetting import process_log, select_most_forgotten
from svp.harness import (
    DEFAULT_SCHEDULE,
    RunReport,
    Schedule,
    ScheduleError,
    _csv_path_for,
    _seeded,
    ceil_count,
    execute_config,
    load_data_section,
    nearest_count,
    plan_schedule,
    random_select,
    report_json,
    rounds_csv,
    run_active_learning,
    run_coreset,
    speedup,
)
from svp.kcenters import greedy_kcenters
from svp.learner import (
    LearnerSpec,
    SynthParams,
    embed,
    error_rate,
    fit,
    make_synthetic,
    predict_proba,
)
from svp.rng import SplitMix64, derive_seed
from svp.scoring import entropy, top_m
from svp.tensor_io import (read_labels_csv, read_tensor, staged_writes, write_labels_csv,
                           write_tensor)

PROXY = LearnerSpec(kind="logistic", epochs=5, learning_rate=0.5, batch_size=16, seed=1)
TARGET = LearnerSpec(kind="mlp", epochs=5, learning_rate=0.3, batch_size=16, seed=2, hidden_units=8)
DATA_PARAMS = SynthParams(classes=3, dim=4, separation=2.0, noise=1.0, n_train=200, n_test=100, seed=11)


def small_data():
    ds = make_synthetic(DATA_PARAMS)
    return (ds.features, ds.labels), (ds.test_features, ds.test_labels)


class TestCounts:
    def test_nearest_count(self):
        assert nearest_count(0.02, 2000) == 40
        assert nearest_count(0.025, 100) == 3  # halves round up
        assert nearest_count(0.1, 5) == 1
        assert nearest_count(1.0, 7) == 7

    def test_ceil_count(self):
        assert ceil_count(0.5, 5) == 3
        assert ceil_count(0.15, 10) == 2
        assert ceil_count(1.0, 7) == 7
        # 0.1 * 2000 is 200.00000000000003 in floats; the slack keeps the
        # exact-integer intent from bumping up to 201.
        assert ceil_count(0.1, 2000) == 200
        assert ceil_count(0.3, 10) == 3


class TestPlanSchedule:
    def test_default_ladder(self):
        assert plan_schedule(1000, 0.5, DEFAULT_SCHEDULE) == [20, 100, 200, 300, 400, 500]
        assert plan_schedule(2000, 0.3, DEFAULT_SCHEDULE) == [40, 200, 400, 600]
        assert plan_schedule(2000, 0.1, DEFAULT_SCHEDULE) == [40, 200]

    def test_budget_equal_to_initial(self):
        assert plan_schedule(2000, 0.02, DEFAULT_SCHEDULE) == [40]

    def test_unreachable_budgets(self):
        with pytest.raises(ScheduleError):
            plan_schedule(1000, 0.01, DEFAULT_SCHEDULE)  # below initial
        with pytest.raises(ScheduleError):
            plan_schedule(1000, 0.05, DEFAULT_SCHEDULE)  # inside first increment
        with pytest.raises(ScheduleError):
            plan_schedule(1000, 0.55, DEFAULT_SCHEDULE)  # between rungs
        with pytest.raises(ScheduleError):
            plan_schedule(10, 0.5, DEFAULT_SCHEDULE)  # initial rounds to zero
        with pytest.raises(ScheduleError):
            plan_schedule(100, 0.102, Schedule(0.02, 0.08, 0.001))  # quota collapses

    def test_last_size_comes_from_the_cumulative_fraction(self):
        # 0.9 / 0.30000009 + 1 lies within 1e-6 of 4 rounds, but the last
        # cumulative fraction, 0.1 + 3 * 0.30000009, passes the whole pool.
        with pytest.raises(ScheduleError, match=r"^schedule overruns the pool: 2000001 > 2000000$"):
            plan_schedule(2_000_000, 1.0, Schedule(0.02, 0.08, 0.30000009))

    def test_sizes_strictly_increase(self):
        for n in (100, 537, 2000):
            sizes = plan_schedule(n, 1.0, DEFAULT_SCHEDULE)
            assert sizes[-1] == n
            assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            Schedule(0.1, 1.5, 0.1)


class TestRandomSelect:
    def test_deterministic_and_seed_sensitive(self):
        pool = np.arange(100)
        a = random_select(pool, 10, 42)
        b = random_select(pool, 10, 42)
        c = random_select(pool, 10, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_subset_without_replacement(self):
        pool = np.arange(50, 90)
        got = random_select(pool, 15, 7)
        assert np.unique(got).size == 15
        assert np.isin(got, pool).all()

    def test_full_draw_is_permutation(self):
        pool = np.arange(30)
        got = random_select(pool, 30, 3)
        assert np.array_equal(np.sort(got), pool)

    def test_single_draw_frequencies(self):
        # 10000 seeds drawing 1 of 10: expect 1000 each, sigma = 30, allow 5 sigma.
        pool = np.arange(10)
        picks = np.array([random_select(pool, 1, s)[0] for s in range(10000)])
        counts = np.bincount(picks, minlength=10)
        assert (np.abs(counts - 1000) <= 150).all()

    def test_errors(self):
        with pytest.raises(ValueError):
            random_select(np.arange(5), -1, 0)
        with pytest.raises(ValueError):
            random_select(np.arange(5), 6, 0)


class TestSpeedup:
    def test_exact_ratio(self):
        assert speedup(100.0, 25.0) == 4.0

    def test_published_ballpark(self):
        assert abs(speedup(240.0, 34.3) - 7.0) < 0.05

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, -2.0)


def _build(field, value):
    if field == "budget_fraction":
        train, test = small_data()
        return run_active_learning(PROXY, TARGET, "random", value, train, test, seed=7)
    if field == "subset_fraction":
        train, test = small_data()
        return run_coreset(PROXY, TARGET, "random", value, train, test, seed=5)
    return LearnerSpec(**{**dataclasses.asdict(TARGET), field: value})


class TestDirectConstruction:
    # Built from Python rather than from a config, the numbers still pass
    # through check_number, so a wrong type or an oversized real is the
    # documented ValueError, never a TypeError or a silent truncation.
    @pytest.mark.parametrize("field, value, match", [
        ("learning_rate", 10**400, "is too large"),
        ("learning_rate", "0.1", "must be a number"),
        ("batch_size", "a", "must be an integer"),
        ("epochs", "2", "must be an integer"),
        ("epochs", 1.5, "must be an integer"),
        ("epochs", True, "must be an integer"),
        ("hidden_units", 2.5, "must be an integer"),
        ("seed", None, "must be an integer"),
        ("budget_fraction", 10**400, "is too large"),
        ("budget_fraction", "0.2", "must be a number"),
        ("subset_fraction", 10**400, "is too large"),
        ("subset_fraction", "0.3", "must be a number"),
    ], ids=lambda v: "10**400" if v == 10**400 else None)
    def test_bad_number_is_value_error(self, monkeypatch, field, value, match):
        fits = []
        monkeypatch.setattr(svp.harness, "fit", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(ValueError, match=f"^{field} {match}"):
            _build(field, value)
        assert fits == []

    def test_subset_of_no_rows_is_refused(self):
        ds = make_synthetic(dataclasses.replace(DATA_PARAMS, n_train=30))
        train, test = (ds.features, ds.labels), (ds.test_features, ds.test_labels)
        with pytest.raises(ValueError, match="^subset is empty$"):
            run_coreset(PROXY, TARGET, "random", 1e-12, train, test, seed=5)

    # The run seed and baseline time are checked by the run both protocols
    # share, before any fit.
    @pytest.mark.parametrize("route", ["al", "coreset"])
    @pytest.mark.parametrize("field, value, match", [
        ("seed", "7", "must be an integer"),
        ("seed", None, "must be an integer"),
        ("seed", 1.5, "must be an integer"),
        ("seed", True, "must be an integer"),
        ("baseline_seconds", "x", "must be a number"),
        ("baseline_seconds", [1.0], "must be a number"),
    ])
    def test_bad_run_number_is_value_error(self, monkeypatch, route, field, value, match):
        fits = []
        monkeypatch.setattr(svp.harness, "fit", lambda *args, **kwargs: fits.append(args))
        train, test = small_data()
        run = {"seed": 7, "baseline_seconds": None, field: value}
        with pytest.raises(ValueError, match=f"^{field} {match}"):
            if route == "al":
                run_active_learning(PROXY, TARGET, "random", 0.1, train, test, seed=run["seed"],
                                    baseline_seconds=run["baseline_seconds"])
            else:
                run_coreset(PROXY, TARGET, "random", 0.5, train, test, seed=run["seed"],
                            baseline_seconds=run["baseline_seconds"])
        assert fits == []


class TestActiveLearning:
    def test_report_shape(self):
        train, test = small_data()
        report = run_active_learning(PROXY, TARGET, "least_confidence", 0.2, train, test, seed=7)
        assert report.task == "al"
        assert report.round_sizes == [4, 20, 40]
        assert len(report.selected_ids) == 40
        ids = np.array(report.selected_ids)
        assert (np.diff(ids) > 0).all()
        assert len(report.round_proxy_errors) == 2
        assert all(0.0 <= e <= 1.0 for e in report.round_proxy_errors)
        assert 0.0 <= report.target_test_error <= 1.0
        assert report.full_data_error is None
        assert report.speedup is None

    @pytest.mark.parametrize("method", ["least_confidence", "kcenters", "random",
                                        "entropy", "margin"])
    def test_every_method_is_deterministic(self, method):
        train, test = small_data()
        a = run_active_learning(PROXY, TARGET, method, 0.1, train, test, seed=21)
        b = run_active_learning(PROXY, TARGET, method, 0.1, train, test, seed=21)
        assert a.deterministic_dict() == b.deterministic_dict()
        assert len(a.selected_ids) == 20

    def test_all_tied_scores_pick_the_lowest_unlabeled_ids(self, monkeypatch):
        # A logistic proxy fitted for no epoch predicts exactly uniform
        # probabilities, so every least-confidence score ties.
        ds = make_synthetic(dataclasses.replace(DATA_PARAMS, n_train=2000))
        select = svp.harness.SELECTORS["least_confidence"]
        rounds = []

        def recording(proxy, x, pool, quota, *rest):
            rounds.append((pool.copy(), select(proxy, x, pool, quota, *rest)))
            return rounds[-1][1]

        monkeypatch.setitem(svp.harness.SELECTORS, "least_confidence", recording)
        report = run_active_learning(dataclasses.replace(PROXY, epochs=0), TARGET,
                                     "least_confidence", 0.2, (ds.features, ds.labels),
                                     (ds.test_features, ds.test_labels), seed=7)
        assert report.round_sizes == [40, 200, 400]
        assert [picked.size for _, picked in rounds] == [160, 200]
        for pool, picked in rounds:
            assert picked.tolist() == pool[: picked.size].tolist()
        initial = random_select(np.arange(2000), 40, derive_seed(7, "initial-pool"))
        unlabeled = np.setdiff1d(np.arange(2000), initial)
        assert report.selected_ids == np.union1d(initial, unlabeled[:360]).tolist()

    def test_run_seed_changes_selection(self):
        train, test = small_data()
        a = run_active_learning(PROXY, TARGET, "least_confidence", 0.1, train, test, seed=1)
        b = run_active_learning(PROXY, TARGET, "least_confidence", 0.1, train, test, seed=2)
        assert a.selected_ids != b.selected_ids

    def test_zero_round_budget_matches_direct_fit(self):
        (x, y), (xt, yt) = small_data()
        report = run_active_learning(PROXY, TARGET, "random", 0.02, (x, y), (xt, yt), seed=7,
                                     baseline_seconds=100.0)
        assert report.round_sizes == [4]
        assert report.round_proxy_errors == []
        assert report.round_seconds == []
        assert report.selection_seconds == 0.0
        assert report.speedup is None  # nothing was timed, no ratio to report

        labeled = np.sort(random_select(np.arange(200), 4, derive_seed(7, "initial-pool")))
        assert report.selected_ids == [int(i) for i in labeled]
        spec = _seeded(TARGET, 7, "target-fit")
        model = fit(spec, x[labeled], y[labeled], n_classes=3)
        assert report.target_test_error == error_rate(model, xt, yt)

    def test_timing_bracket_two_calls_per_round(self):
        train, test = small_data()
        clock = ScriptClock([0.0, 3.0, 10.0, 14.0])
        report = run_active_learning(PROXY, TARGET, "least_confidence", 0.2, train, test, seed=7,
                                     clock=clock)
        assert clock.calls == 4
        assert report.round_seconds == [3.0, 4.0]
        assert report.selection_seconds == 7.0

    def test_supplied_baseline_gives_exact_speedup(self):
        train, test = small_data()
        report = run_active_learning(PROXY, TARGET, "least_confidence", 0.1, train, test, seed=7,
                                     clock=ScriptClock([0.0, 25.0]), baseline_seconds=100.0)
        assert report.selection_seconds == 25.0
        assert report.speedup == 4.0

    def test_measured_baseline(self):
        train, test = small_data()
        clock = ScriptClock([0.0, 25.0, 30.0, 130.0])
        report = run_active_learning(PROXY, TARGET, "least_confidence", 0.1, train, test, seed=7,
                                     clock=clock, measure_baseline=True)
        assert clock.calls == 4
        assert report.baseline_seconds == 100.0
        assert report.speedup == 4.0

    def test_proxy_equal_to_target_is_self_selection(self):
        train, test = small_data()
        a = run_active_learning(TARGET, TARGET, "least_confidence", 0.1, train, test, seed=9)
        b = run_active_learning(TARGET, TARGET, "least_confidence", 0.1, train, test, seed=9)
        assert a.deterministic_dict() == b.deterministic_dict()


class TestKCentersLookAhead:
    """With a linear proxy the k-centers embedding is the features in every
    round, so one traversal from the initial pool serves the whole pass."""

    @pytest.mark.parametrize("proxy", [PROXY, TARGET], ids=["logistic", "mlp"])
    @pytest.mark.parametrize("budget", [0.1, 0.3, 1.0])
    def test_report_equals_per_round_oracle(self, monkeypatch, proxy, budget):
        train, test = small_data()
        report = run_active_learning(proxy, TARGET, "kcenters", budget, train, test, seed=13)
        monkeypatch.setattr(svp.harness, "_al_selection_pass", al_kcenters_pass_oracle)
        oracle = run_active_learning(proxy, TARGET, "kcenters", budget, train, test, seed=13)
        assert report.deterministic_dict() == oracle.deterministic_dict()
        assert len(report.round_sizes) == {0.1: 2, 0.3: 4, 1.0: 11}[budget]

    def test_one_call_per_pass_for_linear_proxy_one_per_round_for_mlp(self, monkeypatch):
        calls = []
        greedy = svp.harness.greedy_kcenters

        def counting(features, initial, budget):
            calls.append((len(initial), budget))
            return greedy(features, initial, budget)

        monkeypatch.setattr(svp.harness, "greedy_kcenters", counting)
        train, test = small_data()
        clock = ScriptClock(range(12))
        report = run_active_learning(PROXY, TARGET, "kcenters", 0.3, train, test, seed=13,
                                     clock=clock, measure_baseline=True)
        sizes = report.round_sizes
        assert sizes == [4, 20, 40, 60]
        per_round = [(sizes[k - 1], sizes[k] - sizes[k - 1]) for k in range(1, 4)]
        assert calls == [(4, 56)] + per_round
        assert clock.calls == 12


class TestCoreset:
    @pytest.mark.parametrize("method", ["entropy", "kcenters", "forgetting", "random",
                                        "least_confidence", "margin"])
    def test_methods_produce_valid_subsets(self, method):
        train, test = small_data()
        a = run_coreset(PROXY, TARGET, method, 0.3, train, test, seed=5)
        b = run_coreset(PROXY, TARGET, method, 0.3, train, test, seed=5)
        assert a.task == "coreset"
        assert a.round_sizes == [60]
        ids = np.array(a.selected_ids)
        assert ids.size == 60
        assert (np.diff(ids) > 0).all()
        assert ids.min() >= 0 and ids.max() < 200
        assert a.deterministic_dict() == b.deterministic_dict()

    def test_entropy_subset_matches_manual_scoring(self):
        (x, y), (xt, yt) = small_data()
        report = run_coreset(PROXY, TARGET, "entropy", 0.3, (x, y), (xt, yt), seed=5)
        spec = _seeded(PROXY, 5, "proxy-fit")
        proxy = fit(spec, x, y, n_classes=3)
        expected = np.sort(top_m(entropy(predict_proba(proxy, x)), 60))
        assert report.selected_ids == [int(i) for i in expected]
        assert report.round_proxy_errors == [error_rate(proxy, xt, yt)]

    def test_kcenters_subset_contains_seed_point(self):
        (x, y), (xt, yt) = small_data()
        report = run_coreset(PROXY, TARGET, "kcenters", 0.3, (x, y), (xt, yt), seed=5)
        start = random_select(np.arange(200), 1, derive_seed(5, "kcenters-start"))
        assert int(start[0]) in report.selected_ids

    def test_full_fraction_is_identity(self):
        train, test = small_data()
        report = run_coreset(PROXY, TARGET, "random", 1.0, train, test, seed=5,
                             include_full_data_error=True)
        assert report.selected_ids == list(range(200))
        assert report.full_data_error == report.target_test_error

    def test_full_data_error_uses_same_target_seed(self):
        (x, y), (xt, yt) = small_data()
        report = run_coreset(PROXY, TARGET, "random", 0.5, (x, y), (xt, yt), seed=5,
                             include_full_data_error=True)
        spec = _seeded(TARGET, 5, "target-fit")
        full = fit(spec, x, y, n_classes=3)
        assert report.full_data_error == error_rate(full, xt, yt)

    def test_forgetting_needs_training_epochs(self):
        train, test = small_data()
        lazy = dataclasses.replace(PROXY, epochs=0)
        with pytest.raises(ValueError):
            run_coreset(lazy, TARGET, "forgetting", 0.3, train, test, seed=5)

    def test_fraction_resolution(self):
        (x, y), (xt, yt) = small_data()
        report = run_coreset(PROXY, TARGET, "random", 0.5, (x[:5], y[:5]), (xt, yt), seed=5)
        assert report.round_sizes == [3]  # ceil(0.5 * 5)

    def test_rejects_bad_arguments(self):
        train, test = small_data()
        with pytest.raises(ValueError):
            run_coreset(PROXY, TARGET, "bogus", 0.3, train, test, seed=5)
        with pytest.raises(ValueError):
            run_coreset(PROXY, TARGET, "entropy", 0.0, train, test, seed=5)
        with pytest.raises(ValueError):
            run_coreset(PROXY, TARGET, "entropy", 1.5, train, test, seed=5)

    def test_scripted_clock_speedup(self):
        train, test = small_data()
        report = run_coreset(PROXY, TARGET, "entropy", 0.3, train, test, seed=5,
                             clock=ScriptClock([10.0, 35.0]), baseline_seconds=100.0)
        assert report.selection_seconds == 25.0
        assert report.speedup == 4.0

    def test_measured_baseline_of_zero_seconds_leaves_speedup_null(self):
        train, test = small_data()
        clock = ScriptClock([0.0, 1.0, 5.0, 5.0])  # the baseline pass takes no time
        report = run_coreset(PROXY, TARGET, "entropy", 0.3, train, test, seed=5,
                             clock=clock, measure_baseline=True)
        assert clock.calls == 4
        assert report.selection_seconds == 1.0
        assert report.baseline_seconds == 0.0
        assert report.speedup is None

    def test_bad_supplied_baseline_fails_before_timed_work(self):
        train, test = small_data()
        with pytest.raises(ValueError, match="baseline_seconds must be finite and positive"):
            run_coreset(PROXY, TARGET, "entropy", 0.3, train, test, seed=5,
                        clock=ScriptClock([]), baseline_seconds=-1.0)


class TestSeedSalts:
    """The named salts are part of the determinism contract: changing one
    changes every report that draws with it."""

    def test_al_random_round_salt(self):
        train, test = small_data()
        report = run_active_learning(PROXY, TARGET, "random", 0.2, train, test, seed=7)
        sizes = report.round_sizes
        assert len(sizes) == 3
        mask = np.zeros(200, dtype=bool)
        mask[random_select(np.arange(200), sizes[0], derive_seed(7, "initial-pool"))] = True
        for k in range(1, len(sizes)):
            unlabeled = np.flatnonzero(~mask)
            quota = sizes[k] - sizes[k - 1]
            mask[random_select(unlabeled, quota, derive_seed(7, f"random-round-{k}"))] = True
        assert report.selected_ids == np.flatnonzero(mask).tolist()

    def test_coreset_random_subset_salt(self):
        train, test = small_data()
        report = run_coreset(PROXY, TARGET, "random", 0.3, train, test, seed=5)
        expected = random_select(np.arange(200), 60, derive_seed(5, "random-subset"))
        assert report.selected_ids == np.sort(expected).tolist()

    def test_coreset_kcenters_start_salt(self):
        (x, y), (xt, yt) = small_data()
        report = run_coreset(PROXY, TARGET, "kcenters", 0.3, (x, y), (xt, yt), seed=5)
        spec = _seeded(PROXY, 5, "proxy-fit")
        proxy = fit(spec, x, y, n_classes=3)
        start = random_select(np.arange(200), 1, derive_seed(5, "kcenters-start"))
        order = greedy_kcenters(embed(proxy, x), start, 59).order
        assert report.selected_ids == np.sort(np.concatenate([start, order])).tolist()


class TestNumpyIntegerSeeds:
    """Seeds given as numpy integers (as read from an array) give the report
    the same Python integers give, byte for byte."""

    @staticmethod
    def report_bytes(report):
        return json.dumps(report.deterministic_dict(), sort_keys=True) + rounds_csv(report)

    @pytest.mark.parametrize("method", ["random", "kcenters", "entropy"])
    def test_al_report(self, method):
        train, test = small_data()

        def run(as_int):
            proxy = dataclasses.replace(PROXY, seed=as_int(PROXY.seed))
            target = dataclasses.replace(TARGET, seed=as_int(TARGET.seed))
            return run_active_learning(proxy, target, method, 0.2, train, test, seed=as_int(7),
                                       clock=ScriptClock([0.0, 1.0] * 2))

        assert self.report_bytes(run(np.int64)) == self.report_bytes(run(int))

    @pytest.mark.parametrize("method", ["random", "kcenters", "forgetting"])
    def test_coreset_report(self, method):
        train, test = small_data()

        def run(as_int, seed):
            proxy = dataclasses.replace(PROXY, seed=as_int(PROXY.seed))
            target = dataclasses.replace(TARGET, seed=as_int(TARGET.seed))
            return run_coreset(proxy, target, method, 0.3, train, test, seed=as_int(seed),
                               clock=ScriptClock([0.0, 1.0]))

        assert self.report_bytes(run(np.int64, 5)) == self.report_bytes(run(int, 5))
        top = 2**64 - 1
        assert self.report_bytes(run(np.uint64, top)) == self.report_bytes(run(int, top))


class TestForgettingKeepsHardRegion:
    def test_removed_points_come_from_easy_blob(self):
        # Heavy well-separated blob (class 2, 60% of points) against two
        # overlapping blobs. Keeping the most-forgotten half should discard
        # mostly easy-blob points.
        spec = LearnerSpec(kind="logistic", epochs=40, learning_rate=0.5, batch_size=32, seed=1)
        for seed in (300, 301):
            (x, y), _ = three_blob(n=2000, n_test=10, d=10, delta=1.2,
                                   big_radius=6.0, noise=1.0, seed=seed)
            model = fit(spec, x, y, n_classes=3)
            kept = select_most_forgotten(process_log(model.train_log), 1000)
            removed = np.setdiff1d(np.arange(2000), kept)
            easy_fraction = float((y[removed] == 2).mean())
            assert easy_fraction >= 0.70, f"seed {seed}: easy fraction {easy_fraction}"


class TestReportsAndConfig:
    def test_rounds_csv_al_layout(self):
        report = RunReport(task="al", method="least_confidence", n_train=100,
                           round_sizes=[2, 10, 20], round_proxy_errors=[0.5, 0.25],
                           selected_ids=[1, 2], target_test_error=0.1, full_data_error=None,
                           round_seconds=[1.5, 2.5], selection_seconds=4.0,
                           baseline_seconds=None, speedup=None)
        assert rounds_csv(report) == (
            "round,labeled_size,proxy_test_error,seconds\n"
            "0,2,,\n"
            "1,10,0.5,1.5\n"
            "2,20,0.25,2.5\n"
        )

    def test_rounds_csv_coreset_layout(self):
        report = RunReport(task="coreset", method="entropy", n_train=50,
                           round_sizes=[25], round_proxy_errors=[0.125],
                           selected_ids=[0], target_test_error=0.2, full_data_error=0.3,
                           round_seconds=[2.0], selection_seconds=2.0,
                           baseline_seconds=8.0, speedup=4.0)
        assert rounds_csv(report) == (
            "round,labeled_size,proxy_test_error,seconds\n"
            "1,25,0.125,2.0\n"
        )

    def test_report_json_stable_formatting(self):
        train, test = small_data()
        report = run_coreset(PROXY, TARGET, "random", 0.3, train, test, seed=5)
        text = report_json({"task": "coreset"}, report)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"config", "report"}
        assert "timing" in doc["report"]
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text

    def test_timing_segregated_from_deterministic_fields(self):
        train, test = small_data()
        report = run_coreset(PROXY, TARGET, "random", 0.3, train, test, seed=5)
        d = report.to_dict()
        assert set(d["timing"]) == {"round_seconds", "selection_seconds",
                                    "baseline_seconds", "speedup"}
        assert set(report.deterministic_dict()) & set(d["timing"]) == set()
        for field in dataclasses.fields(RunReport):
            assert (field.name in report.deterministic_dict()) + (field.name in d["timing"]) == 1

    def test_csv_path_for(self):
        assert _csv_path_for("out.json") == "out.rounds.csv"
        assert _csv_path_for("out") == "out.rounds.csv"
        assert _csv_path_for("a/b/run.json") == "a/b/run.rounds.csv"

    def test_execute_config_synthetic_coreset(self, tmp_path):
        out = tmp_path / "core.json"
        cfg = {
            "task": "coreset",
            "method": "entropy",
            "proxy": spec_dict(PROXY),
            "target": spec_dict(TARGET),
            "subset_fraction": 0.3,
            "seed": 5,
            "data": {"synthetic": dataclasses.asdict(DATA_PARAMS)},
            "include_full_data_error": True,
            "output": str(out),
        }
        report1, path = execute_config(cfg)
        assert path == str(out)
        doc = json.loads(out.read_text())
        assert doc["config"]["method"] == "entropy"
        assert doc["report"]["round_sizes"] == [60]
        assert doc["report"]["full_data_error"] is not None
        csv_text = (tmp_path / "core.rounds.csv").read_text()
        assert csv_text.startswith("round,labeled_size,proxy_test_error,seconds\n")

        report2, _ = execute_config(cfg)
        assert report1.deterministic_dict() == report2.deterministic_dict()

    def test_execute_config_joins_a_callers_staged_block(self, tmp_path):
        cfg = {
            "task": "coreset",
            "method": "random",
            "proxy": spec_dict(PROXY),
            "target": spec_dict(TARGET),
            "subset_fraction": 0.3,
            "seed": 5,
            "data": {"synthetic": dataclasses.asdict(DATA_PARAMS)},
            "output": str(tmp_path / "run.json"),
        }
        with staged_writes():
            write_labels_csv(np.array([0, 1]), str(tmp_path / "y.csv"))
            execute_config(cfg)
            assert list(tmp_path.iterdir()) != []
            assert not any((tmp_path / name).exists()
                           for name in ("y.csv", "run.json", "run.rounds.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.json", "run.rounds.csv", "y.csv"]

    def test_two_runs_to_one_output_in_a_callers_block_fail(self, tmp_path):
        cfg = {
            "task": "coreset",
            "method": "random",
            "proxy": spec_dict(PROXY),
            "target": spec_dict(TARGET),
            "subset_fraction": 0.3,
            "seed": 5,
            "data": {"synthetic": dataclasses.asdict(DATA_PARAMS)},
            "output": str(tmp_path / "run.json"),
        }
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{tmp_path / 'run.json'}: two outputs of one write go to this file") + "$"):
            with staged_writes():
                execute_config(cfg)
                execute_config({**cfg, "seed": 6})
        assert list(tmp_path.iterdir()) == []

    def test_threads_running_side_by_side_each_get_their_outputs(self, tmp_path):
        # Two threads, 100 tiny runs each: every run's two files exist when
        # its call returns, and none of the 400 is lost to the other thread.
        data = dataclasses.replace(DATA_PARAMS, n_train=30, n_test=10)
        spec = dataclasses.replace(PROXY, epochs=1)
        faults = []

        def runs(thread):
            for i in range(100):
                output = tmp_path / f"{thread}-{i}.json"
                execute_config({
                    "task": "coreset", "method": "random", "proxy": spec_dict(spec),
                    "target": spec_dict(spec), "subset_fraction": 0.5, "seed": i,
                    "data": {"synthetic": dataclasses.asdict(data)}, "output": str(output)})
                faults.extend(path.name for path in (output, output.with_suffix(".rounds.csv"))
                              if not path.exists())

        threads = [threading.Thread(target=runs, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert faults == []
        assert len(list(tmp_path.iterdir())) == 400

    def test_execute_config_al_from_files(self, tmp_path):
        (x, y), (xt, yt) = small_data()
        paths = {
            "features": str(tmp_path / "x.svpt"),
            "labels": str(tmp_path / "y.csv"),
            "test_features": str(tmp_path / "xt.svpt"),
            "test_labels": str(tmp_path / "yt.csv"),
        }
        write_tensor(x, paths["features"])
        write_labels_csv(y, paths["labels"])
        write_tensor(xt, paths["test_features"])
        write_labels_csv(yt, paths["test_labels"])
        cfg = {
            "task": "al",
            "method": "random",
            "proxy": spec_dict(PROXY),
            "target": spec_dict(TARGET),
            "budget_fraction": 0.1,
            "seed": 3,
            "data": paths,
        }
        report, path = execute_config(cfg)
        assert path is None
        assert report.round_sizes == [4, 20]
        assert len(report.selected_ids) == 20
        typo = {**paths, "test_lables": paths["test_labels"]}
        with pytest.raises(ValueError, match=r"unknown data fields: \['test_lables'\]"):
            execute_config({**cfg, "data": typo})

    def test_execute_config_runs_the_configs_schedule(self):
        cfg = {
            "task": "al",
            "method": "least_confidence",
            "proxy": spec_dict(PROXY),
            "target": spec_dict(TARGET),
            "budget_fraction": 0.3,
            "schedule": {"initial": 0.05, "first": 0.05, "subsequent": 0.1},
            "seed": 3,
            "data": {"synthetic": dataclasses.asdict(DATA_PARAMS)},
        }
        report, _ = execute_config(cfg)
        assert report.round_sizes == [10, 20, 40, 60]  # 0.05n, 0.1n, 0.2n and 0.3n of 200 rows
        train, test = small_data()
        expected = run_active_learning(PROXY, TARGET, "least_confidence", 0.3, train, test,
                                       seed=3, schedule=Schedule(0.05, 0.05, 0.1))
        assert report.deterministic_dict() == expected.deterministic_dict()

    def test_execute_config_rejections(self):
        good = {
            "task": "coreset",
            "method": "entropy",
            "proxy": spec_dict(PROXY),
            "target": spec_dict(TARGET),
            "subset_fraction": 0.3,
            "seed": 5,
            "data": {"synthetic": dataclasses.asdict(DATA_PARAMS)},
        }
        with pytest.raises(ValueError):
            execute_config({**good, "task": "ranking"})
        with pytest.raises(ValueError):
            execute_config({k: v for k, v in good.items() if k != "proxy"})
        with pytest.raises(ValueError):
            execute_config({k: v for k, v in good.items() if k != "subset_fraction"})
        with pytest.raises(ValueError):
            execute_config({**good, "task": "al"})  # al needs budget_fraction
        with pytest.raises(ValueError):
            execute_config({**good, "data": {"features": "x.svpt"}})
        with pytest.raises(ValueError, match=r"unknown data fields: \['features'\]"):
            execute_config({**good, "data": {**good["data"], "features": "x.svpt"}})
        with pytest.raises(ValueError, match="config must be a JSON object"):
            execute_config([good])
        with pytest.raises(ValueError, match="config task is 'coreset', expected 'al'"):
            execute_config(good, task="al")


_BLAS_DATA = {"synthetic": {"classes": 5, "dim": 24, "separation": 0.5, "noise": 1.0,
                             "n_train": 3000, "n_test": 500, "seed": 9}}
_BLAS_MLP = {"kind": "mlp", "epochs": 2, "learning_rate": 0.3,
             "batch_size": 32, "seed": 2, "hidden_units": 32}


def _write_file_data(tmp_path, n=20000, n_test=2000, d=16):
    """A 3-class data section of SVPT features and label CSVs in ``tmp_path``."""
    rng = SplitMix64(7)
    files = {key: str(tmp_path / name) for key, name in (
        ("features", "x.svpt"), ("labels", "y.csv"),
        ("test_features", "xt.svpt"), ("test_labels", "yt.csv"))}
    write_tensor(rng.normals((n, d)), files["features"])
    write_labels_csv(np.arange(n) % 3, files["labels"])
    write_tensor(rng.normals((n_test, d)), files["test_features"])
    write_labels_csv(np.arange(n_test) % 3, files["test_labels"])
    return files


class TestFileDataIsHeldOnce:
    """A run on file data holds each feature matrix once, as the float32 the
    file holds; layers convert to float64 only the rows they compute on."""

    def test_features_load_as_the_file_float32(self, tmp_path):
        files = _write_file_data(tmp_path)
        (x, y), (xt, yt) = load_data_section(files)
        for got, key in ((x, "features"), (xt, "test_features")):
            assert got.dtype == np.float32
            assert got.tobytes() == read_tensor(files[key]).tobytes()
        assert np.array_equal(y, read_labels_csv(files["labels"]))
        assert np.array_equal(yt, read_labels_csv(files["test_labels"]))

    def test_no_float64_copy_is_held_through_the_run_checks(self, tmp_path, monkeypatch):
        files = _write_file_data(tmp_path)
        load_data_section(files)  # first-call imports are not the data's memory
        held = []

        class Checked(Exception):
            pass

        def plan_after_checks(n, budget_fraction, schedule):
            held.append(tracemalloc.get_traced_memory()[0])
            raise Checked

        monkeypatch.setattr(svp.harness, "plan_schedule", plan_after_checks)
        tracemalloc.start()
        try:
            train, test = load_data_section(files)
            with pytest.raises(Checked):
                run_active_learning(PROXY, TARGET, "random", 0.5, train, test, 1)
        finally:
            tracemalloc.stop()
        payloads = (train[0].size + test[0].size) * 4
        assert held[0] - train[1].nbytes - test[1].nbytes <= 1.05 * payloads


def _float32_data(tmp_path):
    """A data section of SVPT and CSV files, and the same values as float64
    arrays: 1203 rows of 40 columns, so a float32 gather of every row takes
    several blocks, the last one partial."""
    files = _write_file_data(tmp_path, n=1203, n_test=300, d=40)
    (x, y), (xt, yt) = load_data_section(files)
    return files, ((x.astype(np.float64), y), (xt.astype(np.float64), yt))


def _without_seconds(rounds):
    return [line.rsplit(",", 1)[0] for line in rounds.splitlines()]


class TestFloat32FeaturesReportAsFloat64:
    """float32 features convert to float64 exactly, so a run that keeps them
    float32 reports byte for byte what a run on their conversion reports."""

    @pytest.mark.parametrize("task, method", [
        (task, method) for task in ("al", "coreset")
        for method in svp.harness.METHODS[task]])
    def test_file_run_equals_float64_array_run(self, tmp_path, task, method):
        files, (train, test) = _float32_data(tmp_path)
        config = {"task": task, "method": method, "seed": 6, "measure_baseline": True,
                  "target": spec_dict(TARGET), "data": files,
                  "output": str(tmp_path / "run.json")}
        if task == "al":
            config.update(proxy=spec_dict(PROXY), budget_fraction=0.3)
            expected = run_active_learning(PROXY, TARGET, method, 0.3, train, test, 6,
                                           measure_baseline=True)
        else:
            config.update(proxy=spec_dict(TARGET), subset_fraction=0.3,
                          include_full_data_error=True)
            expected = run_coreset(TARGET, TARGET, method, 0.3, train, test, 6,
                                   include_full_data_error=True, measure_baseline=True)
        report, _ = execute_config(config)
        assert report.deterministic_dict() == expected.deterministic_dict()
        rounds = (tmp_path / "run.rounds.csv").read_text()
        assert _without_seconds(rounds) == _without_seconds(rounds_csv(expected))

    def test_linear_proxy_traversal_is_banked_for_float32_features(self, tmp_path, monkeypatch):
        calls = []
        greedy = svp.harness.greedy_kcenters

        def counting(features, initial, budget):
            calls.append((len(initial), budget))
            return greedy(features, initial, budget)

        monkeypatch.setattr(svp.harness, "greedy_kcenters", counting)
        files, _ = _float32_data(tmp_path)
        train, test = load_data_section(files)
        assert train[0].dtype == np.float32
        report = run_active_learning(PROXY, PROXY, "kcenters", 0.3, train, test, seed=13,
                                     measure_baseline=True)
        sizes = report.round_sizes
        assert len(sizes) == 4
        assert calls == [(sizes[0], sizes[-1] - sizes[0])] * 2  # the proxy pass, the baseline


class TestBlasThreadDeterminism:
    # BLAS results can depend on the thread count (how the work, and so the
    # summation, is split); k-centers screens points with GEMM output and
    # the learners train with matmul. The report bytes must not depend on it.
    # AL with a logistic proxy screens the raw features and folds the initial
    # pool and its picks in many GEMM blocks; the core-set run screens an
    # MLP proxy's ReLU embedding over a 1499-step traversal, run as blocks
    # of certified picks, and its baseline pass runs the traversal again on
    # the target's embedding.
    CONFIGS = {
        "al-logistic": {
            "task": "al",
            "method": "kcenters",
            "seed": 5,
            "budget_fraction": 0.2,
            "proxy": {"kind": "logistic", "epochs": 2, "learning_rate": 0.3,
                      "batch_size": 32, "seed": 1},
            "target": _BLAS_MLP,
            "data": _BLAS_DATA,
        },
        "coreset-mlp": {
            "task": "coreset",
            "method": "kcenters",
            "seed": 5,
            "subset_fraction": 0.5,
            "measure_baseline": True,
            "proxy": {"kind": "mlp", "epochs": 2, "learning_rate": 0.3,
                      "batch_size": 32, "seed": 1, "hidden_units": 16},
            "target": _BLAS_MLP,
            "data": _BLAS_DATA,
        },
    }
    SCRIPT = (
        "import json, sys\n"
        "from svp.harness import execute_config\n"
        "report, _ = execute_config(json.loads(sys.argv[1]))\n"
        "sys.stdout.write(json.dumps(report.deterministic_dict(), sort_keys=True))\n"
    )

    def run_with_threads(self, config, threads):
        src = os.path.dirname(os.path.dirname(os.path.abspath(svp.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(config)],
            env=env, capture_output=True, timeout=300, check=True,
        )
        return done.stdout

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_report_bytes_equal_for_one_and_two_threads(self, case):
        config = self.CONFIGS[case]
        one = self.run_with_threads(config, 1)
        assert json.loads(one)["method"] == "kcenters"
        assert one == self.run_with_threads(config, 2)
