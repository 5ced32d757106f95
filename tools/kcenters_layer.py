"""Time greedy k-centers alone on the calls it meets, and count its work.

The active-learning shapes are the library's own calls: the script wraps
``svp.harness.greedy_kcenters`` during one ``execute_config`` of the
identity gate's ``scale al kcenters`` config (``scale_configs`` in
``tools/identity_digests.py``: Gaussian blobs with n=4000, d=32, 10
classes, a 0.3 budget in three rounds, a logistic proxy, an MLP h=64
target, the baseline measured) and keeps the arguments of each call.

- ``al_proxy``: the proxy pass's one call, on the features themselves, from
  80 labeled rows with 1120 picks (a proxy with no hidden layer takes the
  later rounds' picks from the same traversal).
- ``al_base80``, ``al_base400``, ``al_base800``: the baseline pass's three
  calls, one per round, on the fitted target's 64-unit hidden layer, from
  80, 400 and 800 labeled rows with 320, 400 and 400 picks.
- ``al_mlp``: the three calls of the same config with the identity gate's
  MLP h=64 core-set proxy in the proxy slot and no baseline, one per round
  on that round's fitted hidden layer. Its row gives the first call's
  labeled rows and the three calls' picks, time and work summed, and the
  largest of their peaks.
- ``cli``: blobs at n=50000, d=32, from 1 row with 100 picks, as
  ``svp kcenters --initial-size 1 --budget 100``.
- ``coreset``: a random ReLU layer of 64 units over blobs at n=20000 (about
  half of its entries are zero, as in a fitted MLP's hidden layer), from 1
  row with 3000 picks, as core-set selection with an MLP proxy.
- ``d2``: Gaussian rows at n=20000, d=2, from 1 row with 2000 picks.
- ``tight``: 10 clusters 1e4 apart with noise 1e-3, n=20000, d=32, from 1
  row with 2000 picks; the screen's tolerance hides every distance within a
  cluster.

For each shape the script checks ``order`` and ``picked_dists`` of every
call byte for byte against the difference-form oracle of the tests (one
pass per center), then prints the median wall time of 5 repeats, the
``work`` the checked calls return and the ``tracemalloc`` peak of one call.
``work`` counts the rounds of picks, the rows whose exact distances were
refreshed, the refreshes' GEMMs (one per refresh) and the screen entries
they compute, and the exact pairs evaluated in refreshes and pool tables.
BLAS is pinned to one thread unless ``OPENBLAS_NUM_THREADS`` is set.

Usage, from the repository root:

    python3 tools/kcenters_layer.py
"""

import os
import statistics
import sys
import time
from collections import Counter
from unittest import mock

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from helpers import kcenters_oracle, traced_peak  # noqa: E402
from identity_digests import scale_configs  # noqa: E402
from svp import harness, kcenters  # noqa: E402

REPEATS = 5


def blobs(n, seed):
    rng = np.random.default_rng(seed)
    means = 0.35 * rng.standard_normal((10, 32))
    return means[rng.integers(0, 10, n)] + rng.standard_normal((n, 32))


def relu_layer(x, seed):
    w = np.random.default_rng(seed).standard_normal((x.shape[1], 64)) / np.sqrt(x.shape[1])
    return np.maximum(x @ w, 0.0)


def run_calls(config):
    """(features, initial, budget) of each ``greedy_kcenters`` call of one run."""
    with mock.patch.object(harness, "greedy_kcenters", wraps=kcenters.greedy_kcenters) as spy:
        harness.execute_config(config)
    return [call.args for call in spy.call_args_list]


def shapes():
    """(name, calls) of every shape in print order, each call (features,
    initial, budget)."""
    scale = dict(scale_configs())
    config = scale["scale al kcenters"]
    names = ("al_proxy", "al_base80", "al_base400", "al_base800")
    for name, call in zip(names, run_calls(config), strict=True):
        yield name, [call]
    mlp = scale["scale coreset kcenters"]["proxy"]
    yield "al_mlp", run_calls({**config, "proxy": mlp, "measure_baseline": False})
    yield "cli", [(blobs(50000, 4), [0], 100)]
    yield "coreset", [(relu_layer(blobs(20000, 5), 6), [0], 3000)]
    yield "d2", [(np.random.default_rng(7).standard_normal((20000, 2)), [0], 2000)]
    rng = np.random.default_rng(8)
    means = 1e4 * rng.standard_normal((10, 32))
    tight = means[rng.integers(0, 10, 20000)] + 1e-3 * rng.standard_normal((20000, 32))
    yield "tight", [(tight, [0], 2000)]


def main():
    print(f"{'shape':10s} {'n':>6s} {'d':>3s} {'init':>5s} {'picks':>5s} {'ms':>8s} "
          f"{'rounds':>6s} {'refreshed':>9s} {'gemms':>5s} {'screen':>9s} {'pairs':>8s} "
          f"{'peak_MiB':>8s}")
    for name, calls in shapes():
        work = Counter()
        for x, initial, budget in calls:
            result = kcenters.greedy_kcenters(x, initial, budget)
            order, picked, _ = kcenters_oracle(x, initial, budget)
            if result.order.tobytes() != order.tobytes() or (
                    result.picked_dists.tobytes() != picked.tobytes()):
                raise SystemExit(f"{name}: greedy_kcenters differs from the oracle")
            work.update(result.work)
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for call in calls:
                kcenters.greedy_kcenters(*call)
            seconds.append(time.perf_counter() - start)
        peak = max(traced_peak(kcenters.greedy_kcenters, *call) for call in calls)
        (x, initial, _), picks = calls[0], sum(call[2] for call in calls)
        print(f"{name:10s} {x.shape[0]:6d} {x.shape[1]:3d} {len(initial):5d} {picks:5d} "
              f"{1e3 * statistics.median(seconds):8.1f} {work['rounds']:6d} "
              f"{work['refreshed']:9d} {work['gemms']:5d} {work['screen']:9d} "
              f"{work['pairs']:8d} {peak / 2**20:8.1f}", flush=True)


if __name__ == "__main__":
    main()
