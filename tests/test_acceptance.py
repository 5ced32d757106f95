"""End-to-end acceptance checks for the selection engine.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible even under output capture) before asserting.
"""

import dataclasses
import itertools
import json
import struct
import time

import numpy as np
import pytest

from helpers import (
    ForgettingState,
    ScriptClock,
    draw_gradient_case,
    finalize,
    kcenter_radius,
    max_gradient_mismatch,
    next_below,
    next_raw,
    spec_dict,
    streaming_update,
    three_blob,
)
from svp.forgetting import process_log
from svp.harness import (
    execute_config,
    random_select,
    run_active_learning,
    run_coreset,
    speedup,
)
from svp.kcenters import greedy_kcenters
from svp.learner import (
    LearnerSpec,
    SynthParams,
    fit,
    make_synthetic,
    predict_proba,
)
from svp.ranking_diag import pearson, spearman
from svp.rng import SplitMix64, derive_seed
from svp.scoring import entropy, least_confidence, margin
from svp.tensor_io import (
    BadMagicError,
    FormatError,
    InvalidHeaderError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
    read_tensor,
    read_train_log,
    write_tensor,
    write_train_log,
)

PROXY = LearnerSpec(kind="logistic", epochs=30, learning_rate=0.5, batch_size=32, seed=1)
TARGET = LearnerSpec(kind="mlp", epochs=40, learning_rate=0.3, batch_size=32, seed=2, hidden_units=32)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _mixture_data(seed):
    ds = make_synthetic(SynthParams(classes=4, dim=10, separation=1.0, noise=1.0,
                                    n_train=2000, n_test=1000, seed=seed))
    return (ds.features, ds.labels), (ds.test_features, ds.test_labels)


def _sq_to(x, j):
    diff = x - x[j]
    return np.einsum("ij,ij->i", diff, diff)


def _stepwise_oracle(x, init, budget):
    """Recompute the farthest point from scratch at every step."""
    centers = list(int(i) for i in init)
    order = []
    for _ in range(budget):
        min_sq = np.full(x.shape[0], np.inf)
        for c in centers:
            min_sq = np.minimum(min_sq, _sq_to(x, c))
        min_sq[centers] = -np.inf
        u = int(np.argmax(min_sq))
        order.append(u)
        centers.append(u)
    return np.asarray(order, dtype=np.int64)


def test_criterion_01_kcenters_matches_stepwise_oracle(capsys):
    start = time.perf_counter()
    rng = SplitMix64(1001)
    mismatches = 0
    for _ in range(200):
        n = 2 + next_below(rng, 63)
        d = 1 + next_below(rng, 8)
        x = rng.normals((n, d))
        k0 = 1 + next_below(rng, min(3, n - 1))
        init = SplitMix64(next_raw(rng)).permutation(n)[:k0]
        budget = next_below(rng, min(16, n - k0) + 1)
        got = greedy_kcenters(x, init, budget).order
        want = _stepwise_oracle(x, init, budget)
        if not np.array_equal(got, want):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(capsys, 1, ok,
            f"greedy order == step-wise oracle on 200 instances "
            f"(mismatches={mismatches}, {elapsed:.1f}s)")


def test_criterion_02_kcenters_two_approximation(capsys):
    start = time.perf_counter()
    rng = SplitMix64(1002)
    violations = 0
    for _ in range(100):
        n = 4 + next_below(rng, 9)
        d = 1 + next_below(rng, 3)
        x = rng.normals((n, d))
        budget = 1 + next_below(rng, min(4, n - 1))
        init = [int(np.argmin(x[:, 0]))]
        result = greedy_kcenters(x, init, budget)
        centers = np.concatenate([np.asarray(init), result.order])
        greedy_r = kcenter_radius(x, centers)
        best = min(kcenter_radius(x, list(combo))
                   for combo in itertools.combinations(range(n), centers.size))
        if greedy_r > 2.0 * best + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(capsys, 2, ok,
            f"greedy radius <= 2x exhaustive optimum on 100 instances "
            f"(violations={violations}, {elapsed:.1f}s)")


def test_criterion_03_forgetting_routes_agree_exhaustively(capsys):
    start = time.perf_counter()
    rows = 0
    ok = True
    for steps in range(1, 13):
        patterns = np.arange(2 ** steps, dtype=np.uint64)
        shifts = np.arange(steps, dtype=np.uint64)[::-1]
        log = ((patterns[:, None] >> shifts) & np.uint64(1)).astype(bool)
        scores = process_log(log)
        stream_counts = np.empty(log.shape[0], dtype=np.int64)
        stream_never = np.empty(log.shape[0], dtype=bool)
        oracle_counts = np.empty(log.shape[0], dtype=np.int64)
        oracle_never = np.empty(log.shape[0], dtype=bool)
        for r in range(log.shape[0]):
            state = ForgettingState()
            for v in log[r]:
                state = streaming_update(state, bool(v))
            stream_never[r], stream_counts[r] = finalize(state)
            s = "".join("1" if v else "0" for v in log[r])
            oracle_counts[r] = s.count("10")
            oracle_never[r] = "1" not in s
        rows += log.shape[0]
        ok = ok and np.array_equal(scores.counts, stream_counts)
        ok = ok and np.array_equal(scores.counts, oracle_counts)
        ok = ok and np.array_equal(scores.never_learned, stream_never)
        ok = ok and np.array_equal(scores.never_learned, oracle_never)
        ok = ok and np.array_equal(scores.never_learned, ~log.any(axis=1))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(capsys, 3, ok,
            f"vectorized == streaming == substring oracle on {rows} rows, "
            f"all-zero rows flagged ({elapsed:.1f}s)")


def test_criterion_04_correlation_closed_forms(capsys):
    checks = []
    a = np.array([1.0, 2.0, 3.0])
    checks.append(pearson(a, np.array([10.0, 20.0, 30.0])) == 1.0)
    checks.append(pearson(a, np.array([-1.0, -2.0, -3.0])) == -1.0)
    checks.append(abs(spearman(np.array([1.0, 3.0, 2.0]), a) - 0.5) < 1e-12)
    r = pearson(a, np.array([1.0, 2.0, 4.0]))
    checks.append(abs(r - 3.0 / np.sqrt(28.0 / 3.0)) < 1e-12)
    checks.append(round(r, 6) == 0.981981)

    rng = SplitMix64(1004)
    invariant = True
    for _ in range(100):
        n = 3 + next_below(rng, 30)
        x = rng.normals(n)
        y = rng.normals(n)
        base = spearman(x, y)
        invariant = invariant and spearman(np.exp(x), y) == base
        invariant = invariant and spearman(x ** 3, y) == base
        invariant = invariant and spearman(3.0 * x + 2.0, y) == base
        invariant = invariant and spearman(x, np.exp(x)) == 1.0
        invariant = invariant and spearman(x, -x) == -1.0
    ok = all(checks) and invariant
    _report(capsys, 4, ok,
            "endpoints, 0.5 and 0.981981 cases within 1e-12; "
            "monotone invariance exact on 100 vectors")


def test_criterion_05_binary_class_metric_agreement(capsys):
    rng = SplitMix64(1005)
    checked = 0
    ok = True
    for _ in range(100):
        n = 5 + next_below(rng, 46)
        top = 0.5 + 0.5 * rng.doubles(n)
        probs = np.column_stack([top, 1.0 - top])
        conf = least_confidence(probs)
        if np.unique(conf).size < 2:
            continue
        checked += 1
        ok = ok and spearman(conf, entropy(probs)) == 1.0
        ok = ok and spearman(conf, margin(probs)) == 1.0
    ok = ok and checked >= 95
    _report(capsys, 5, ok,
            f"confidence/entropy and confidence/margin Spearman == 1.0 "
            f"on {checked} binary matrices")


def test_criterion_06_gradient_checks(capsys):
    rng = SplitMix64(1006)
    max_rel = 0.0
    instances = 0
    for kind in ("logistic", "mlp"):
        done = 0
        for _ in range(200):
            case = draw_gradient_case(rng, kind)
            if case is None:
                continue
            params, x, y = case
            max_rel = max(max_rel, max_gradient_mismatch(kind, params, x, y))
            done += 1
            if done == 10:
                break
        instances += done
    ok = instances == 20 and max_rel < 1e-4
    _report(capsys, 6, ok,
            f"analytic vs central-difference gradients on {instances} instances, "
            f"max relative error {max_rel:.2e}")


def test_criterion_07_al_beats_random(capsys):
    start = time.perf_counter()
    svp_errors, random_errors = [], []
    for i in range(10):
        train, test = _mixture_data(100 + i)
        svp = run_active_learning(PROXY, TARGET, "least_confidence", 0.3, train, test,
                                  seed=500 + i)
        rnd = run_active_learning(PROXY, TARGET, "random", 0.3, train, test, seed=500 + i)
        svp_errors.append(svp.target_test_error)
        random_errors.append(rnd.target_test_error)
    wins = sum(s < r for s, r in zip(svp_errors, random_errors))
    elapsed = time.perf_counter() - start
    ok = float(np.mean(svp_errors)) < float(np.mean(random_errors)) and wins >= 8 and elapsed < 120.0
    _report(capsys, 7, ok,
            f"least-confidence mean error {np.mean(svp_errors):.4f} < "
            f"random {np.mean(random_errors):.4f}, wins {wins}/10 ({elapsed:.0f}s)")


def test_criterion_08_proxy_fidelity(capsys):
    svp_errors, self_errors = [], []
    for i in range(10):
        train, test = _mixture_data(100 + i)
        svp = run_active_learning(PROXY, TARGET, "least_confidence", 0.5, train, test,
                                  seed=500 + i)
        own = run_active_learning(TARGET, TARGET, "least_confidence", 0.5, train, test,
                                  seed=500 + i)
        svp_errors.append(svp.target_test_error)
        self_errors.append(own.target_test_error)
    gap = abs(float(np.mean(svp_errors)) - float(np.mean(self_errors)))

    proxy_target, rerun = [], []
    for i in range(10):
        (x, y), _ = _mixture_data(100 + i)
        half = random_select(np.arange(2000), 1000, derive_seed(700 + i, "half"))
        pool = np.setdiff1d(np.arange(2000), half)
        proxy = fit(dataclasses.replace(PROXY, seed=derive_seed(800 + i, 1)),
                    x[half], y[half], n_classes=4)
        target_a = fit(dataclasses.replace(TARGET, seed=derive_seed(800 + i, 2)),
                       x[half], y[half], n_classes=4)
        target_b = fit(dataclasses.replace(TARGET, seed=derive_seed(800 + i, 3)),
                       x[half], y[half], n_classes=4)
        ent_p = entropy(predict_proba(proxy, x[pool]))
        ent_a = entropy(predict_proba(target_a, x[pool]))
        ent_b = entropy(predict_proba(target_b, x[pool]))
        proxy_target.append(spearman(ent_p, ent_a))
        rerun.append(spearman(ent_a, ent_b))
    mean_pt = float(np.mean(proxy_target))
    mean_rr = float(np.mean(rerun))
    ok = gap <= 0.01 and mean_pt > 0.0 and mean_pt >= 0.8 * mean_rr
    _report(capsys, 8, ok,
            f"|svp - self-selection| = {gap:.4f} <= 0.01; proxy-target Spearman "
            f"{mean_pt:.3f} >= 0.8 x rerun {mean_rr:.3f}")


def test_criterion_09_forgetting_coreset(capsys):
    proxy = LearnerSpec(kind="logistic", epochs=30, learning_rate=0.2, batch_size=32, seed=1)
    target = LearnerSpec(kind="mlp", epochs=20, learning_rate=0.15, batch_size=64, seed=2,
                         hidden_units=16)
    forget_errors, random_errors, full_errors = [], [], []
    for i in range(10):
        train, test = three_blob(n=2000, n_test=1000, d=10, delta=2.5,
                                 big_radius=6.0, noise=1.0, seed=300 + i)
        kept = run_coreset(proxy, target, "forgetting", 0.5, train, test,
                           seed=900 + i, include_full_data_error=True)
        rnd = run_coreset(proxy, target, "random", 0.5, train, test, seed=900 + i)
        forget_errors.append(kept.target_test_error)
        random_errors.append(rnd.target_test_error)
        full_errors.append(kept.full_data_error)
    mean_f = float(np.mean(forget_errors))
    mean_r = float(np.mean(random_errors))
    mean_full = float(np.mean(full_errors))
    ok = mean_f <= mean_r and mean_f <= mean_full + 0.01
    _report(capsys, 9, ok,
            f"forgetting 50% subset {mean_f:.4f} <= random {mean_r:.4f} "
            f"and <= full {mean_full:.4f} + 0.01")


def test_criterion_10_degenerate_proxy_is_baseline(capsys):
    ds = make_synthetic(SynthParams(classes=3, dim=6, separation=1.5, noise=1.0,
                                    n_train=400, n_test=200, seed=42))
    train = (ds.features, ds.labels)
    test = (ds.test_features, ds.test_labels)
    spec = LearnerSpec(kind="mlp", epochs=10, learning_rate=0.3, batch_size=32, seed=2,
                       hidden_units=8)
    svp_bytes = json.dumps(run_active_learning(spec, spec, "least_confidence", 0.2, train, test,
                                               seed=77).deterministic_dict(),
                           sort_keys=True).encode()
    base_bytes = json.dumps(run_active_learning(dataclasses.replace(spec), spec,
                                                "least_confidence", 0.2, train, test,
                                                seed=77).deterministic_dict(),
                            sort_keys=True).encode()
    core_a = json.dumps(run_coreset(spec, spec, "entropy", 0.5, train, test,
                                    seed=77).deterministic_dict(), sort_keys=True).encode()
    core_b = json.dumps(run_coreset(dataclasses.replace(spec), spec, "entropy", 0.5, train,
                                    test, seed=77).deterministic_dict(), sort_keys=True).encode()
    ok = svp_bytes == base_bytes and core_a == core_b
    _report(capsys, 10, ok,
            "proxy spec == target spec reproduces the self-selection report byte for byte")


def test_criterion_11_speedup_accounting(capsys):
    ok = speedup(100.0, 25.0) == 4.0

    ds = make_synthetic(SynthParams(classes=3, dim=4, separation=2.0, noise=1.0,
                                    n_train=200, n_test=100, seed=11))
    train = (ds.features, ds.labels)
    test = (ds.test_features, ds.test_labels)
    small_proxy = LearnerSpec(kind="logistic", epochs=5, learning_rate=0.5, batch_size=16, seed=1)
    small_target = LearnerSpec(kind="mlp", epochs=5, learning_rate=0.3, batch_size=16, seed=2,
                               hidden_units=8)
    run = (small_proxy, small_target, "least_confidence", 0.1, train, test, 7)
    scripted = run_active_learning(*run, clock=ScriptClock([0.0, 25.0]), baseline_seconds=100.0)
    ok = ok and scripted.speedup == 4.0
    measured = run_active_learning(*run, clock=ScriptClock([0.0, 25.0, 30.0, 130.0]),
                                   measure_baseline=True)
    ok = ok and measured.speedup == 4.0

    real_cfg = {
        "task": "coreset",
        "method": "entropy",
        "proxy": spec_dict(LearnerSpec(kind="logistic", epochs=10, learning_rate=0.5,
                                       batch_size=64, seed=1)),
        "target": spec_dict(LearnerSpec(kind="mlp", epochs=10, learning_rate=0.3,
                                        batch_size=64, seed=2, hidden_units=32)),
        "subset_fraction": 0.1,
        "seed": 3,
        "data": {"synthetic": {"classes": 4, "dim": 10, "separation": 1.0, "noise": 1.0,
                               "n_train": 2000, "n_test": 200, "seed": 100}},
        "measure_baseline": True,
    }
    report, _ = execute_config(real_cfg)
    ok = ok and report.baseline_seconds is not None and report.selection_seconds > 0.0
    ok = ok and report.speedup == pytest.approx(
        report.baseline_seconds / report.selection_seconds, rel=1e-9)
    _report(capsys, 11, ok,
            f"fake timers give exactly 4.0x; real-timer ratio matches recorded phases "
            f"({report.speedup:.2f}x measured)")


def _tensor_bytes(magic=b"SVPT", version=1, dtype=0, reserved=0, rows=1, cols=1,
                  payload=None):
    if payload is None:
        payload = struct.pack("<f", 1.0) * (rows * cols)
    return struct.Struct("<4sHBBQQ").pack(magic, version, dtype, reserved, rows, cols) + payload


def _log_bytes(magic=b"SVPL", version=1, reserved=0, n=1, steps=1, payload=None):
    if payload is None:
        payload = b"\x01" * (n * steps)
    return struct.Struct("<4sHHQQ").pack(magic, version, reserved, n, steps) + payload


def test_criterion_12_format_round_trips(capsys, tmp_path):
    rng = SplitMix64(1012)
    path = str(tmp_path / "file.bin")
    exact = 0
    for _ in range(100):
        n = 1 + next_below(rng, 20)
        d = 1 + next_below(rng, 10)
        tensor = rng.normals((n, d)).astype(np.float32)
        write_tensor(tensor, path)
        back = read_tensor(path)
        if back.tobytes() == tensor.tobytes() and back.shape == tensor.shape:
            exact += 1
    for _ in range(100):
        n = 1 + next_below(rng, 20)
        steps = 1 + next_below(rng, 15)
        log = rng.normals((n, steps)) > 0.0
        write_train_log(log, path)
        if np.array_equal(read_train_log(path), log):
            exact += 1

    malformed = [
        (_tensor_bytes(magic=b"XXXX"), BadMagicError, read_tensor),
        (_tensor_bytes(version=2), UnsupportedVersionError, read_tensor),
        (_tensor_bytes(dtype=1), UnsupportedDtypeError, read_tensor),
        (_tensor_bytes(reserved=9), InvalidHeaderError, read_tensor),
        (_tensor_bytes(rows=0), InvalidHeaderError, read_tensor),
        (_tensor_bytes(rows=2, payload=struct.pack("<f", 1.0)), TruncatedPayloadError, read_tensor),
        (_tensor_bytes()[:10], TruncatedPayloadError, read_tensor),
        (_tensor_bytes() + b"\x00", FormatError, read_tensor),
        (_log_bytes(magic=b"XXXX"), BadMagicError, read_train_log),
        (_log_bytes(version=3), UnsupportedVersionError, read_train_log),
        (_log_bytes(reserved=1), InvalidHeaderError, read_train_log),
        (_log_bytes(steps=0), InvalidHeaderError, read_train_log),
        (_log_bytes(n=4, payload=b"\x01\x00"), TruncatedPayloadError, read_train_log),
        (_log_bytes()[:7], TruncatedPayloadError, read_train_log),
    ]
    rejected = 0
    for blob, err_class, reader in malformed:
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            reader(path)
        except err_class:
            rejected += 1
        except Exception:
            pass
    ok = exact == 200 and rejected == len(malformed)
    _report(capsys, 12, ok,
            f"{exact}/200 bit-exact round-trips; "
            f"{rejected}/{len(malformed)} malformed headers rejected with the right class")
