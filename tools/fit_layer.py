"""Time the fit, forgetting and scoring layers alone, and digest what they compute.

Five tables, each on data from fixed seeds:

- ``fit``: logistic and MLP (h=64) fits with batch 64 and 2 epochs, as
  external_cli's core-set proxy and target train, on float32 Gaussian blobs
  (d=32, 10 classes, separation 0.35, noise 1.0) at n = 4000, 50000 and
  200000. ``epoch_ms`` is the median over 3 fits of the fit's wall time per
  epoch. The set-up an epoch makes before its steps is timed apart, with
  the operations ``learner.fit`` makes: ``perm_ms`` the epoch's
  ``SplitMix64(...).permutation(n)``, ``gather_ms`` one ``np.take`` of the
  rows (in the features' dtype) and one of the labels, ``log_ms`` the
  epoch's column of the training log. ``step_us`` is what is left of an
  epoch per SGD step.
- ``permutation``: median ms of ``permutation(n)`` and its ``tracemalloc``
  peak over the 8n bytes of its int64 result.
- ``forgetting``: median ms of ``process_log`` on (n, E) logs whose rows
  are learned with probabilities spread over [0, 1], and of
  ``select_most_forgotten`` on its scores for 10% of the rows; (10, 10**5)
  is a log with n < E.
- ``memory``: the ``tracemalloc`` peak of one full-data logistic fit
  (1 epoch) on 20000x32 features, float32 and float64, at batch 16 and at
  batch n, over the 8nd bytes of a float64 copy of them.
- ``scoring``: one al_uncertainty scoring round, at its shapes: 10000
  float32 blob rows, a logistic and an MLP (h=128) proxy fitted for 2
  epochs on the rows outside a pool of 9800 or 6000, and a quota of 1000.
  Median ms over 21 calls of each step the round makes: ``take_rows`` of
  the pool, ``predict_proba`` on it, ``least_confidence`` of that and
  ``top_m`` of the scores.

The ``digest`` line is a sha256 over every fitted model's parameters and
training log, every permutation and every forgetting result, and the
``scoring digest`` line one over each scoring round's probabilities,
scores and picks, so two checkouts can be compared: equal digests mean
equal outputs. BLAS is pinned to one thread unless ``OPENBLAS_NUM_THREADS``
is set.

Usage, from the repository root:

    python3 tools/fit_layer.py
"""

import hashlib
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from helpers import traced_peak  # noqa: E402
from svp.forgetting import process_log, select_most_forgotten  # noqa: E402
from svp.learner import LearnerSpec, fit, predict_proba, take_rows  # noqa: E402
from svp.rng import SplitMix64, derive_seed  # noqa: E402
from svp.scoring import least_confidence, top_m  # noqa: E402

EPOCHS = 2
SPECS = (LearnerSpec("logistic", EPOCHS, 0.1, 64, 11),
         LearnerSpec("mlp", EPOCHS, 0.1, 64, 12, hidden_units=64))


def median_ms(fn, repeats):
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return 1e3 * statistics.median(seconds)


def blobs(n, seed):
    rng = np.random.default_rng(seed)
    means = 0.35 * rng.standard_normal((10, 32))
    y = rng.integers(0, 10, n)
    return (means[y] + rng.standard_normal((n, 32))).astype(np.float32), y


def fit_table(digest):
    print(f"{'fit':8s} {'n':>7s} {'epoch_ms':>9s} {'perm_ms':>8s} {'gather_ms':>9s} "
          f"{'log_ms':>7s} {'setup%':>6s} {'step_us':>8s}")
    for n in (4000, 50000, 200000):
        x, y = blobs(n, n)
        for spec in SPECS:
            model = fit(spec, x, y)
            for p in model.params.values():
                digest.update(p.tobytes())
            digest.update(model.train_log.tobytes())
            epoch = median_ms(lambda: fit(spec, x, y), 3) / EPOCHS
            seed = derive_seed(spec.seed, "shuffle-0")
            perm = SplitMix64(seed).permutation(n)
            xp, yp = np.empty_like(x), np.empty_like(y)
            log = np.zeros((n, EPOCHS), dtype=np.bool_)
            perm_ms = median_ms(lambda: SplitMix64(seed).permutation(n), 5)
            gather_ms = median_ms(lambda: (np.take(x, perm, axis=0, out=xp, mode="clip"),
                                           np.take(y, perm, out=yp, mode="clip")), 5)
            log_ms = median_ms(lambda: log.__setitem__((perm, 0), yp == y), 5)
            setup = perm_ms + gather_ms + log_ms
            steps = -(-n // spec.batch_size)
            print(f"{spec.kind:8s} {n:7d} {epoch:9.2f} {perm_ms:8.2f} {gather_ms:9.2f} "
                  f"{log_ms:7.2f} {100 * setup / epoch:6.1f} "
                  f"{1e3 * (epoch - setup) / steps:8.1f}", flush=True)


def permutation_table(digest):
    print(f"{'permutation':11s} {'n':>7s} {'ms':>8s} {'peak/8n':>7s}")
    for n in (80, 5000, 50000, 70000, 10**6):
        digest.update(SplitMix64(n).permutation(n).tobytes())
        ms = median_ms(lambda: SplitMix64(n).permutation(n), 5 if n == 10**6 else 30)
        peak = traced_peak(lambda: SplitMix64(n).permutation(n))
        print(f"{'':11s} {n:7d} {ms:8.3f} {peak / (8 * n):7.2f}", flush=True)


def forgetting_table(digest):
    print(f"{'forgetting':10s} {'n':>7s} {'E':>6s} {'process_ms':>10s} {'select_ms':>9s}")
    for n, epochs in ((50000, 2), (50000, 10), (10**6, 5), (20000, 64), (20000, 128),
                      (3000, 3000), (10, 10**5)):
        rng = np.random.default_rng(n + epochs)
        log = rng.random((n, epochs)) < rng.random((n, 1))
        scores = process_log(log)
        m = max(1, n // 10)
        picked = select_most_forgotten(scores, m)
        for a in (scores.never_learned, scores.counts, picked):
            digest.update(a.tobytes())
        process_ms = median_ms(lambda: process_log(log), 5)
        select_ms = median_ms(lambda: select_most_forgotten(scores, m), 5)
        print(f"{'':10s} {n:7d} {epochs:6d} {process_ms:10.3f} {select_ms:9.3f}", flush=True)


def memory_lines():
    n, d = 20000, 32
    rng = np.random.default_rng(9)
    x32 = rng.standard_normal((n, d)).astype(np.float32)
    y = rng.integers(0, 3, size=n)
    for x in (x32, x32.astype(np.float64)):
        for batch in (16, n):
            spec = LearnerSpec("logistic", 1, 0.5, batch, 1)
            fit(spec, x[:50], y[:50])  # first-call allocations are not the fit's
            peak = traced_peak(lambda: fit(spec, x, y))
            print(f"memory   {x.dtype} fit peak / (n*d*8) = {peak / (n * d * 8):.3f} "
                  f"(n={n}, d={d}, batch {batch})")


def scoring_table(digest):
    print(f"{'scoring':8s} {'pool':>5s} {'take_ms':>8s} {'proba_ms':>8s} {'score_ms':>8s} "
          f"{'top_m_ms':>8s}")
    n, quota = 10000, 1000
    x, y = blobs(n, 36)
    for spec in (LearnerSpec("logistic", 2, 0.1, 32, 13),
                 LearnerSpec("mlp", 2, 0.1, 32, 14, hidden_units=128)):
        for size in (9800, 6000):
            pool = np.sort(np.random.default_rng(size).permutation(n)[:size])
            labeled = np.setdiff1d(np.arange(n), pool)
            proxy = fit(spec, x[labeled], y[labeled], n_classes=10)
            xp = take_rows(x, pool)
            p = predict_proba(proxy, xp)
            s = least_confidence(p)
            for a in (p, s, top_m(s, quota)):
                digest.update(a.tobytes())
            times = [median_ms(fn, 21) for fn in (lambda: take_rows(x, pool),
                                                  lambda: predict_proba(proxy, xp),
                                                  lambda: least_confidence(p),
                                                  lambda: top_m(s, quota))]
            print(f"{spec.kind:8s} {size:5d} " + " ".join(f"{t:8.3f}" for t in times),
                  flush=True)


def main():
    digest = hashlib.sha256()
    fit_table(digest)
    permutation_table(digest)
    forgetting_table(digest)
    memory_lines()
    print(f"digest {digest.hexdigest()}")
    scoring = hashlib.sha256()
    scoring_table(scoring)
    print(f"scoring digest {scoring.hexdigest()}")


if __name__ == "__main__":
    main()
