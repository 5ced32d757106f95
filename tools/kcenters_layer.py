"""Time greedy k-centers alone on the shapes it meets, and count its work.

Each shape is built from synthetic data with fixed seeds:

- ``al_proxy``, ``al_base80``, ``al_base400``, ``al_base800``: the four
  calls of one active-learning ``kcenters`` run at the benchmark's scale.
  Gaussian blobs (n=4000, d=32, 10 classes, separation 0.35, noise 1.0) from
  80 initial rows with 1120 picks, as the logistic proxy embeds them; then a
  random ReLU layer of 64 units over the same blobs (about half of its
  entries are zero, as in a fitted MLP's hidden layer) from 80, 400 and 800
  labeled rows with 320, 400 and 400 picks, as the baseline pass's rounds.
- ``cli``: blobs at n=50000, d=32, from 1 row with 100 picks, as
  ``svp kcenters --initial-size 1 --budget 100``.
- ``coreset``: the ReLU layer over blobs at n=20000, from 1 row with 3000
  picks, as core-set selection with an MLP proxy.
- ``d2``: Gaussian rows at n=20000, d=2, from 1 row with 2000 picks.
- ``tight``: 10 clusters 1e4 apart with noise 1e-3, n=20000, d=32, from 1
  row with 2000 picks; the screen's tolerance hides every distance within a
  cluster.

For each shape the script checks ``order`` and ``picked_dists`` byte for byte
against the difference-form oracle of the tests (one pass per center), then
prints the median wall time of 5 calls, the ``work`` the checked call
returns and the ``tracemalloc`` peak of one call. ``work`` counts the rounds
of picks, the rows whose exact distances were refreshed, the refreshes'
GEMMs (one per refresh) and the screen entries they compute, and the exact
pairs evaluated in refreshes and pool tables. BLAS is pinned to one thread
unless ``OPENBLAS_NUM_THREADS`` is set.

Usage, from the repository root:

    python3 tools/kcenters_layer.py
"""

import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from helpers import kcenters_oracle, traced_peak  # noqa: E402
from svp import kcenters  # noqa: E402

REPEATS = 5


def blobs(n, seed):
    rng = np.random.default_rng(seed)
    means = 0.35 * rng.standard_normal((10, 32))
    return means[rng.integers(0, 10, n)] + rng.standard_normal((n, 32))


def relu_layer(x, seed):
    w = np.random.default_rng(seed).standard_normal((x.shape[1], 64)) / np.sqrt(x.shape[1])
    return np.maximum(x @ w, 0.0)


def shapes():
    """(name, features, initial, budget) of every shape, in print order."""
    al = blobs(4000, 1)
    labeled = np.random.default_rng(3).permutation(4000)
    yield "al_proxy", al, labeled[:80], 1120
    hidden = relu_layer(al, 2)
    for size, budget in ((80, 320), (400, 400), (800, 400)):
        yield f"al_base{size}", hidden, labeled[:size], budget
    yield "cli", blobs(50000, 4), [0], 100
    yield "coreset", relu_layer(blobs(20000, 5), 6), [0], 3000
    yield "d2", np.random.default_rng(7).standard_normal((20000, 2)), [0], 2000
    rng = np.random.default_rng(8)
    means = 1e4 * rng.standard_normal((10, 32))
    tight = means[rng.integers(0, 10, 20000)] + 1e-3 * rng.standard_normal((20000, 32))
    yield "tight", tight, [0], 2000


def main():
    print(f"{'shape':10s} {'n':>6s} {'d':>3s} {'init':>5s} {'picks':>5s} {'ms':>8s} "
          f"{'rounds':>6s} {'refreshed':>9s} {'gemms':>5s} {'screen':>9s} {'pairs':>8s} "
          f"{'peak_MiB':>8s}")
    for name, x, initial, budget in shapes():
        result = kcenters.greedy_kcenters(x, initial, budget)
        order, picked, _ = kcenters_oracle(x, initial, budget)
        if result.order.tobytes() != order.tobytes() or (
                result.picked_dists.tobytes() != picked.tobytes()):
            raise SystemExit(f"{name}: greedy_kcenters differs from the oracle")
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kcenters.greedy_kcenters(x, initial, budget)
            seconds.append(time.perf_counter() - start)
        peak = traced_peak(kcenters.greedy_kcenters, x, initial, budget)
        c = result.work
        print(f"{name:10s} {x.shape[0]:6d} {x.shape[1]:3d} {len(initial):5d} {budget:5d} "
              f"{1e3 * statistics.median(seconds):8.1f} {c['rounds']:6d} {c['refreshed']:9d} "
              f"{c['gemms']:5d} {c['screen']:9d} {c['pairs']:8d} {peak / 2**20:8.1f}",
              flush=True)


if __name__ == "__main__":
    main()
