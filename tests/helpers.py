"""Shared test utilities: the generator's pure-Python raw stream, its
scalar draws and one-shot uniform and normal recipes, a tracemalloc peak
probe, learner-spec JSON, scripted clocks, geometry builders, the
textbook forward pass and softmax, gradient probes, the per-batch SGD
oracle with its per-epoch losses, the difference-form k-centers oracle,
the per-round active-learning k-centers oracle, the streaming forgetting
oracle, the line-list CSV reader, the per-row CSV writer and the
copy-then-concatenate binary file writers."""

import dataclasses
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np

from svp.forgetting import ForgettingScores
from svp.harness import _seeded, random_select
from svp.kcenters import greedy_kcenters
from svp.learner import LearnerSpec, TrainedModel, embed, fit, init_params
from svp.rng import SplitMix64, derive_seed
from svp.tensor_io import _LOADTXT_AT, InvalidValueError, _split_fields, atomic_write_bytes


_MASK64 = (1 << 64) - 1


def mix64_oracle(z: int) -> int:
    """The SplitMix64 finalizer on one Python integer."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def raw_oracle(seed: int, start: int, n: int) -> list:
    """Raw outputs ``start + 1 .. start + n`` of the stream for ``seed``, one
    Python integer each: ``mix64(seed + k * GAMMA) mod 2**64``."""
    return [mix64_oracle((seed + k * 0x9E3779B97F4A7C15) & _MASK64)
            for k in range(start + 1, start + n + 1)]


def next_raw(rng: SplitMix64) -> int:
    """The stream's next raw output as a Python integer."""
    return int(rng.raw_block(1)[0])


def next_double(rng: SplitMix64) -> float:
    """Uniform double in [0, 1) from one raw draw r: ``(r >> 11) * 2**-53``."""
    return (next_raw(rng) >> 11) * 2.0**-53


def next_below(rng: SplitMix64, n: int) -> int:
    """Integer in [0, n) from one raw draw r: ``r % n``."""
    if n <= 0:
        raise ValueError("bound must be positive")
    return next_raw(rng) % n


def spec_dict(spec: LearnerSpec) -> dict:
    """The config JSON object that ``execute_config`` decodes back to ``spec``."""
    d = dataclasses.asdict(spec)
    if d["hidden_units"] is None:
        del d["hidden_units"]
    return d


class ScriptClock:
    """Callable returning pre-scripted instants, one per call, in order."""

    def __init__(self, times):
        self.times = [float(t) for t in times]
        self.calls = 0

    def __call__(self) -> float:
        value = self.times[self.calls]
        self.calls += 1
        return value


def three_blob(n, n_test, d, delta, big_radius, noise, seed, pattern=(0, 1, 2, 2, 2)):
    """Two nearby blobs plus one distant heavy blob.

    Class 0 sits at the origin, class 1 at distance ``delta`` along the first
    axis, class 2 far away at (big_radius, big_radius, 0, ...). Labels cycle
    through ``pattern``, so the far blob can be given the majority of points.
    Returns ((x, y), (x_test, y_test)).
    """
    means = np.zeros((3, d))
    means[1, 0] = delta
    means[2, 0] = big_radius
    means[2, 1] = big_radius
    pattern = np.asarray(pattern, dtype=np.int64)
    y = pattern[np.arange(n) % pattern.size]
    x = means[y] + noise * SplitMix64(derive_seed(seed, "train")).normals((n, d))
    y_test = pattern[np.arange(n_test) % pattern.size]
    x_test = means[y_test] + noise * SplitMix64(derive_seed(seed, "test")).normals((n_test, d))
    return (x, y), (x_test, y_test)


def softmax_oracle(logits):
    """Textbook row-wise softmax into fresh arrays; ``logits`` is left as is."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward_oracle(kind, params, x):
    """Textbook out-of-place forward pass: (representation, logits), where
    the representation is ``x`` for the logistic learner and the ReLU
    hidden layer for the mlp. The reference for ``svp.learner``'s in-place
    inference."""
    if kind == "logistic":
        return x, x @ params["W"] + params["b"]
    hidden = np.maximum(x @ params["W1"] + params["b1"], 0.0)
    return hidden, hidden @ params["W"] + params["b"]


def loss_and_grads(kind, params, x, y):
    """Mean cross-entropy, its parameter gradients, and the batch logits."""
    m = x.shape[0]
    hidden, logits = forward_oracle(kind, params, x)
    probs = softmax_oracle(logits)
    loss = -np.mean(np.log(probs[np.arange(m), y]))
    dlogits = probs.copy()
    dlogits[np.arange(m), y] -= 1.0
    dlogits /= m
    if kind == "logistic":
        return float(loss), {"W": x.T @ dlogits, "b": dlogits.sum(axis=0)}, logits
    dz1 = (dlogits @ params["W"].T) * (hidden > 0.0)
    grads = {
        "W1": x.T @ dz1,
        "b1": dz1.sum(axis=0),
        "W": hidden.T @ dlogits,
        "b": dlogits.sum(axis=0),
    }
    return float(loss), grads, logits


def fit_oracle(spec, features, labels, n_classes=None):
    """``svp.learner.fit`` as one ``loss_and_grads`` call per batch; returns
    the model and its mean cross-entropy per epoch.

    The reference for the in-place loop: each batch is gathered by fancy
    index from the epoch's permutation, its pre-update accuracy is scattered
    into the log, and every parameter is updated by ``p -= lr * grad``. No
    divergence check.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    c = int(y.max()) + 1 if n_classes is None else n_classes
    n = x.shape[0]
    params = init_params(spec, x.shape[1], c)
    train_log = np.zeros((n, spec.epochs), dtype=np.bool_) if spec.epochs > 0 else None
    losses = np.zeros(spec.epochs)
    for epoch in range(spec.epochs):
        perm = SplitMix64(derive_seed(spec.seed, f"shuffle-{epoch}")).permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            loss, grads, logits = loss_and_grads(spec.kind, params, x[idx], y[idx])
            train_log[idx, epoch] = logits.argmax(axis=1) == y[idx]
            for key, grad in grads.items():
                params[key] -= spec.learning_rate * grad
            epoch_loss += loss * idx.shape[0]
        losses[epoch] = epoch_loss / n
    return TrainedModel(params=params, train_log=train_log), losses


def doubles_oracle(rng: SplitMix64, n: int) -> np.ndarray:
    """``SplitMix64.doubles`` by the one-shot recipe: one raw block for all n."""
    return (rng.raw_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normals_oracle(rng: SplitMix64, shape) -> np.ndarray:
    """``SplitMix64.normals`` by the one-shot recipe: one raw block for all
    values, then Box-Muller into fresh arrays."""
    size = int(np.prod(shape))
    raw = rng.raw_block(2 * size)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    out = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return out.reshape(shape)


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw_gradient_case(rng, kind, warmup_steps=3, kink_margin=1e-2):
    """Random small instance with warmed-up parameters, safe for numeric probes.

    Returns (params, x, y), or None for rejected instances. MLP instances
    where any hidden pre-activation lies within ``kink_margin`` of zero are
    rejected: a central difference with step 1e-4 would straddle the ReLU
    kink there and measure neither one-sided slope.
    """
    n = 5 + next_below(rng, 4)
    d = 2 + next_below(rng, 3)
    c = 2 + next_below(rng, 2)
    hidden = 4 + next_below(rng, 4) if kind == "mlp" else None
    spec = LearnerSpec(kind=kind, epochs=1, learning_rate=0.3, batch_size=4,
                       seed=next_raw(rng), hidden_units=hidden)
    x = rng.normals((n, d))
    y = np.array([next_below(rng, c) for _ in range(n)], dtype=np.int64)
    params = init_params(spec, d, c)
    for _ in range(warmup_steps):
        _, grads, _ = loss_and_grads(kind, params, x, y)
        for key in grads:
            params[key] -= 0.3 * grads[key]
    if kind == "mlp":
        z1 = x @ params["W1"] + params["b1"]
        if np.abs(z1).min() < kink_margin:
            return None
    return params, x, y


def central_difference(kind, params, x, y, key, idx, h=1e-4):
    def loss_at(v):
        p = {k: arr.copy() for k, arr in params.items()}
        p[key].flat[idx] = v
        return loss_and_grads(kind, p, x, y)[0]

    v0 = params[key].flat[idx]
    return (loss_at(v0 + h) - loss_at(v0 - h)) / (2 * h)


def max_gradient_mismatch(kind, params, x, y):
    """Worst relative gap between analytic and numeric gradient entries."""
    _, grads, _ = loss_and_grads(kind, params, x, y)
    worst = 0.0
    for key, grad in grads.items():
        for idx in range(grad.size):
            numeric = central_difference(kind, params, x, y, key, idx)
            analytic = grad.flat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, rel)
    return worst


def _sq_dists_to(x, center_row):
    diff = x - center_row
    return np.einsum("ij,ij->i", diff, diff)


def kcenters_oracle(features, initial, budget):
    """Greedy k-centers by one difference-form pass per center.

    The reference for ``svp.kcenters.greedy_kcenters``: folds each center in
    with ``sum((x - c)^2)`` and takes the first argmax (lowest index on
    ties). Returns (order, picked_dists, min_dists).
    """
    x = np.asarray(features, dtype=np.float64)
    init = np.asarray(initial, dtype=np.int64).reshape(-1)
    if init.size == 0:
        raise ValueError("initial set must be nonempty")
    min_sq = np.full(x.shape[0], np.inf)
    for j in init:
        min_sq = np.minimum(min_sq, _sq_dists_to(x, x[j]))
    in_set = np.zeros(x.shape[0], dtype=bool)
    in_set[init] = True
    order = np.empty(budget, dtype=np.int64)
    picked = np.empty(budget, dtype=np.float64)
    for t in range(budget):
        masked = np.where(in_set, -np.inf, min_sq)
        u = int(np.argmax(masked))
        order[t] = u
        picked[t] = np.sqrt(min_sq[u])
        in_set[u] = True
        min_sq = np.minimum(min_sq, _sq_dists_to(x, x[u]))
    return order, picked, np.sqrt(min_sq)


def kcenter_radius(features, centers):
    """Max over examples of distance to the nearest center."""
    return float(kcenters_oracle(features, centers, 0)[2].max())


def kcenters_full_ranking(features, initial):
    """Rank all non-initial points by greedy addition order (earliest first)."""
    n = np.asarray(features).shape[0]
    return greedy_kcenters(features, initial, n - np.asarray(initial).size).order


def al_kcenters_pass_oracle(method, seed, x, y, c, sizes, proxy_spec, clock):
    """``svp.harness._al_selection_pass`` for k-centers as one traversal per
    round, each from the whole labeled set in the round's proxy embedding.

    The reference for the single traversal the pass runs when the embedding
    is the features; same signature and return value as the pass.
    """
    n = x.shape[0]
    labeled = np.sort(random_select(np.arange(n), sizes[0], derive_seed(seed, "initial-pool")))
    proxies, round_seconds = [], []
    for k in range(1, len(sizes)):
        t0 = clock()
        proxy = fit(_seeded(proxy_spec, seed, f"proxy-round-{k}"), x[labeled], y[labeled],
                    n_classes=c)
        picked = greedy_kcenters(embed(proxy, x), labeled, sizes[k] - sizes[k - 1]).order
        round_seconds.append(clock() - t0)
        proxies.append(proxy)
        labeled = np.union1d(labeled, picked)
    return labeled, proxies, round_seconds


@dataclass(frozen=True)
class ForgettingState:
    """Streaming per-example accumulator: last observed accuracy and count."""

    prev: bool = False
    count: int = 0


def streaming_update(state, acc):
    """Fold one observation into the state; accuracy observed pre-update."""
    acc = bool(acc)
    return ForgettingState(prev=acc, count=state.count + (1 if state.prev and not acc else 0))


def finalize(state):
    """(never_learned, count) for a fully folded row.

    A row containing any 1 that is later followed by a 0 must contain an
    adjacent 1->0 pair, so count == 0 with prev == 0 happens only for
    all-zero rows; the two-field state suffices.
    """
    return (state.count == 0 and not state.prev, state.count)


def scores_as_reals(scores: ForgettingScores) -> np.ndarray:
    """Real-valued view for rank diagnostics: never_learned above any count.

    Maps count k to k and never_learned examples to (max observed count) + 1,
    preserving the total order among distinct scores.
    """
    top = float(scores.counts.max()) + 1.0
    return np.where(scores.never_learned, top, scores.counts.astype(np.float64))


def _fields_per_line(lines: list) -> tuple[np.ndarray, np.ndarray]:
    """Per line: the field count (one more than the commas outside double
    quotes, 0 for an empty line) and whether its quotes are unbalanced."""
    raw = np.frombuffer(("\n".join(lines) + "\n").encode(), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    commas = np.flatnonzero(raw == ord(","))
    quotes = np.flatnonzero(raw == ord('"'))
    quotes_before = np.searchsorted(quotes, ends)
    line_start_quotes = np.concatenate(([0], quotes_before[:-1]))
    # A comma after an odd number of its own line's quotes is quoted.
    line = np.searchsorted(ends, commas)
    unquoted = (np.searchsorted(quotes, commas) - line_start_quotes[line]) % 2 == 0
    counts = np.bincount(line[unquoted], minlength=ends.size) + 1
    counts[np.diff(ends, prepend=-1) == 1] = 0
    return counts, (quotes_before - line_start_quotes) % 2 == 1


def read_csv_oracle(path: str, columns: np.dtype) -> np.ndarray:
    """Read a CSV file into a structured array typed by ``columns``.

    The first line must name exactly the fields of ``columns``, in order.
    Every later line is a data row with one field per column; a blank line
    is a row with no fields and is rejected. Lines may end in LF, CRLF or
    CR, a field may be double-quoted within its line, and numbers may carry
    surrounding spaces. Integer columns take integers only. Errors name the
    file and, for a bad row, its line; of several faulty lines the first is
    reported.

    The reference for ``svp.tensor_io.read_csv``: the file as a list of
    lines, a comma scan for the field counts, then np.loadtxt on the lines
    before the first line the scan rejects.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    names = list(columns.names)
    header = _split_fields(lines[0]) if lines and lines[0] else None
    if header != names:
        raise InvalidValueError(f"{path}: expected header {','.join(names)}, got {header}")
    body = lines[1:]
    if not body:
        raise InvalidValueError(f"{path}: CSV holds no data rows")
    counts, open_quote = _fields_per_line(body)
    bad = np.flatnonzero((counts != len(names)) | open_quote)
    end = int(bad[0]) if bad.size else len(body)
    try:
        if end:
            rows = np.loadtxt(body[:end], dtype=columns, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
    except ValueError as exc:
        at = _LOADTXT_AT.search(str(exc))
        if at is None:
            raise InvalidValueError(f"{path}: malformed row ({exc})") from exc
        column = names[int(at[2]) - 1]
        kind = "non-integer" if columns[column].kind == "i" else "non-numeric"
        raise InvalidValueError(
            f"{path}: line {int(at[1]) + 2}: malformed row, {kind} field {column}"
        ) from exc
    if end == len(body):
        return rows
    if open_quote[end]:
        raise InvalidValueError(f"{path}: line {end + 2}: unterminated quoted field")
    raise InvalidValueError(f"{path}: line {end + 2}: expected {len(names)} fields, got {counts[end]}")


def write_csv_oracle(path: str, names, *columns) -> None:
    """The reference for ``svp.tensor_io.write_csv``: each row joined from the
    repr of every column's ``.tolist()`` cell."""
    rows = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    atomic_write_bytes(path, ("\n".join([",".join(names), *rows]) + "\n").encode())


def pack_frame_oracle(magic: bytes, flags: tuple, rows: int, cols: int, payload: bytes) -> bytes:
    """A binary file's bytes: the packed header, then the payload's bytes."""
    return struct.pack("<4sHBBQQ", magic, 1, *flags, rows, cols) + payload


def tensor_file_oracle(matrix) -> bytes:
    """The reference for ``svp.tensor_io.write_tensor`` on a finite matrix
    within float32 range: a ``<f4`` copy, its bytes, then the frame."""
    payload = np.ascontiguousarray(matrix, dtype="<f4")
    return pack_frame_oracle(b"SVPT", (0, 0), *payload.shape, payload.tobytes())


def train_log_file_oracle(log) -> bytes:
    """The reference for ``svp.tensor_io.write_train_log`` on a boolean log."""
    return pack_frame_oracle(b"SVPL", (0, 0), *log.shape, log.astype(np.uint8).tobytes())
