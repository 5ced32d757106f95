"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark was built on a 2-vCPU VM whose speed drifts with other
tenants' load by up to 1.6x, over stretches from seconds to minutes. Whole
runs land in a slow or a fast stretch, so raw medians of ten runs spread by
0.1-0.4 of their median whatever a run measures.

The kernel touches no ``svp`` code. It has three parts, because the load
slows kinds of work unequally: small matmuls (SGD steps), memory-streaming
distance passes (k-centers), and an interpreter loop (CSV parsing, the
shuffle). Each timing t is reported as ``t * factor``, where ``factor`` is
the weighted mean over the parts of ``REFERENCE_S[part] / k[part]``. Here
k is the part's median time measured next to t, and the weights follow the
traced profile of what t measures. The result is seconds at the host speed
where each part takes its reference time. A change to the program moves t
and not k, so it shows in full. Raw wall-clock medians are reported beside
the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The parts' typical times on the host the benchmark was defined on. Fixed
# constants, so scaled values compare across commits.
REFERENCE_S = {"matmul": 0.0045, "stream": 0.0050, "interp": 0.0035}
MIXED = {"matmul": 1 / 3, "stream": 1 / 3, "interp": 1 / 3}

_rng = np.random.default_rng(0)
_POOL = _rng.standard_normal((4000, 32))
_BATCH = _rng.standard_normal((32, 32))
_W1 = 0.1 * _rng.standard_normal((32, 64))
_W2 = 0.1 * _rng.standard_normal((64, 10))


def _matmul():
    for _ in range(120):
        hidden = np.maximum(_BATCH @ _W1, 0.0)
        logits = hidden @ _W2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        hidden.T @ (e / e.sum(axis=1, keepdims=True))


def _stream():
    for j in range(10):
        diff = _POOL - _POOL[j]
        np.einsum("ij,ij->i", diff, diff)


def _interp():
    acc = 0
    for i in range(45000):
        acc += i * i


_PARTS = {"matmul": _matmul, "stream": _stream, "interp": _interp}


def kernel_seconds():
    """One run of the kernel: {part: seconds}."""
    out = {}
    for name, part in _PARTS.items():
        start = time.perf_counter()
        part()
        out[name] = time.perf_counter() - start
    return out


def sample(runs=2):
    return [kernel_seconds() for _ in range(runs)]


def scale(samples, weights=MIXED):
    """Factor that converts a timing taken next to ``samples`` to
    reference-speed seconds, for work whose mix of parts is ``weights``."""
    return sum(w * REFERENCE_S[name] / statistics.median(s[name] for s in samples)
               for name, w in weights.items())
