"""Desk-scale trainable models sharing one contract: fit, predict_proba, embed.

One network: a softmax over ``r @ W + b``, where the representation ``r``
is the features themselves for ``logistic`` (multinomial logistic
regression, no hidden layer) or the ReLU layer ``max(x @ W1 + b1, 0)`` for
``mlp``. Of the passes, only ``init_params`` reads the kind; the rest read
the parameters alone. Training is mini-batch SGD on mean cross-entropy at a
fixed learning rate, shuffling with a seeded permutation each epoch, and
records a per-epoch correctness log with accuracy observed on the forward
pass of each gradient step, before the parameter update. All training math
runs in float64. ``fit`` keeps float32 features as they are (every float32
value converts to float64 exactly): its shuffle buffer is in the features'
own dtype, and each step converts its own slice. ``take_rows`` converts the
rows it gathers a block at a time; ``predict_proba``, ``embed`` and
``error_rate`` convert features of any dtype but float64 as a whole.

Every check here is ``tensor_io``'s: each public entry point checks features
with ``check_matrix`` (``fit`` through ``check_features``), labels with
``check_labels`` and a given class count with ``check_number``, and the
config dataclasses check each number with ``check_number``; ``fit`` (the
training log and the parameters) and ``SynthParams`` (each float64 matrix)
name a size numpy cannot allocate with ``check_nbytes``. The learner adds
only the model's feature count and that the class count covers the labels.

Determinism contract: fit is a pure function of (spec, features, labels,
n_classes). The logistic learner initializes at zero, so with epochs=0 its
predictions are exactly uniform. The mlp initializes weights uniformly in
[-1/sqrt(fan_in), +1/sqrt(fan_in)] from the seeded stream (W1 row-major,
then W row-major) and biases at zero.

Inference works in place on fresh arrays: the hidden layer is ``x @ W1``,
then ``+= b1`` and a ReLU into itself, and the softmax overwrites the
logits. So ``predict_proba`` and ``error_rate`` hold one n-by-h and one
n-by-c array beside their float64 features, ``embed`` the representation
alone (without a hidden layer, the float64 features themselves), and the
caller's features are never written.
The float operations are those of the textbook out-of-place pass, so
values are bit-equal to it; products are never split into row blocks,
which would not be. The softmax takes its row maximum with
``scoring.row_max``, one ``np.maximum.reduceat`` over the flat logits: a
maximum is exact, so it equals ``max(axis=1)``, at about half the cost
over few classes.

The SGD loop works in place, but each step makes the same float operations
in the same order as a textbook step that gathers its batch by fancy index,
computes the softmax and gradients into fresh arrays and updates each
parameter by ``p -= lr * grad``; parameters and log are bit-equal to that
reference. Each epoch gathers the shuffled rows once with one ``np.take``,
so a batch is a contiguous slice, and each step converts its own slice to
float64: a float64 slice is itself, any other a fresh C-contiguous copy, so
every product gets the float64 operand the reference's fancy index makes.
Parameters and gradients each live in one flat buffer, so the update is two
vector operations. Beyond its products, a step's cost is numpy call
overhead, so it makes as few calls as the reference's operations allow:

- Each epoch turns the shuffled labels into flat indices into the batch
  logits, ``(i mod batch_size) * c + y[perm[i]]`` for shuffled row ``i``,
  and a step subtracts 1 at its labels with one flat fancy subtraction:
  the reference's ``p[rows, y] -= 1``, on the same entries, without its
  2-D index. The indices take O(n) memory; a one-hot would take n-by-c.
- Each step writes its rows' argmax classes into a per-epoch buffer, and
  the epoch's log column is set by one comparison with the shuffled labels.
  The reference compares batch by batch, but comparing integers is exact,
  so the log is the same.
- The products are ``np.dot`` calls, which dispatch faster than ``@`` and
  agree with it bit for bit on every shape the oracle tests try, and the
  row sums call ``np.add.reduce`` directly.

An epoch that ends with a non-finite parameter raises ValueError instead of
returning a diverged model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import SplitMix64, derive_seed
from .scoring import row_max
from .tensor_io import check_features, check_labels, check_matrix, check_nbytes, check_number

KINDS = ("logistic", "mlp")
_GATHER_BLOCK = 1 << 14  # values take_rows gathers at a time


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    epochs: int
    learning_rate: float
    batch_size: int
    seed: int
    hidden_units: Optional[int] = None

    def __post_init__(self):
        for name in ("epochs", "learning_rate", "batch_size", "seed", "hidden_units"):
            value = getattr(self, name)
            if value is not None or name != "hidden_units":
                object.__setattr__(self, name, check_number(value, name, name != "learning_rate"))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.kind == "mlp":
            if self.hidden_units is None or self.hidden_units < 1:
                raise ValueError("mlp requires hidden_units >= 1")
        elif self.hidden_units is not None:
            raise ValueError("hidden_units applies only to mlp")


@dataclass
class TrainedModel:
    params: dict
    train_log: Optional[np.ndarray]  # (n, epochs) bool; None when epochs == 0


def _check_xy(features, labels, n_classes: Optional[int]) -> tuple[np.ndarray, np.ndarray, int]:
    x = check_features(features)
    y = check_labels(labels, x.shape[0])
    c = int(y.max()) + 1 if n_classes is None else check_number(n_classes, "n_classes", True)
    if c < 2:
        raise ValueError(f"need at least 2 classes, got {c} (n_classes sets the count)")
    if (y >= c).any():  # only a given n_classes can be exceeded
        raise ValueError(f"label {int(y.max())} outside [0, {c})")
    return x, y, c


def init_params(spec: LearnerSpec, n_features: int, n_classes: int) -> dict:
    """The zero-hidden-layer network for ``logistic``, with ``W`` at zero;
    ``W1, b1`` ahead of the output layer ``W, b`` for ``mlp``."""
    if spec.kind == "logistic":
        return {"W": np.zeros((n_features, n_classes)), "b": np.zeros(n_classes)}
    h = spec.hidden_units
    rng = SplitMix64(derive_seed(spec.seed, "init"))
    w1 = (rng.doubles(n_features * h) * 2.0 - 1.0) * (1.0 / math.sqrt(n_features))
    w = (rng.doubles(h * n_classes) * 2.0 - 1.0) * (1.0 / math.sqrt(h))
    return {
        "W1": w1.reshape(n_features, h),
        "b1": np.zeros(h),
        "W": w.reshape(h, n_classes),
        "b": np.zeros(n_classes),
    }


def _represent(params: dict, x: np.ndarray) -> np.ndarray:
    """The input to the output layer: ``x`` itself without a hidden layer,
    else the ReLU layer ``max(x @ W1 + b1, 0)`` built in one fresh array."""
    if "W1" not in params:
        return x
    r = x @ params["W1"]
    r += params["b1"]
    np.maximum(r, 0.0, out=r)
    return r


def _logits(params: dict, r: np.ndarray) -> np.ndarray:
    """Fresh logits ``r @ W + b`` of the representation ``r``."""
    z = r @ params["W"]
    z += params["b"]
    return z


def _sgd_grads(params: tuple, grads: tuple, xb: np.ndarray, flat_labels: np.ndarray,
               tops: np.ndarray, rows: np.ndarray) -> None:
    """Forward and backward pass of one mini-batch: writes each row's
    pre-update argmax class into ``tops`` and the gradients into ``grads``.

    ``params`` is ``(W1, b1, W, b, W.T)`` and ``grads`` ``(W1, b1, W, b)``,
    with None for the hidden layer the logistic learner lacks;
    ``flat_labels`` holds each row's label as a flat index into the batch's
    logits.
    """
    w1, b1, w, b, wt = params
    r = xb
    if w1 is not None:
        r = np.dot(xb, w1)
        r += b1
        np.maximum(r, 0.0, out=r)
    z = np.dot(r, w)
    z += b
    top = z.argmax(axis=1, out=tops)
    z -= z[rows, top][:, None]  # the row maximum, read at its argmax
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    z.reshape(-1)[flat_labels] -= 1.0
    z /= z.shape[0]  # the gradient of the mean cross-entropy in the logits
    if w1 is not None:
        dr = np.dot(z, wt)
        np.multiply(dr, r > 0.0, out=dr)  # r > 0 exactly where x @ W1 + b1 > 0
        np.dot(xb.T, dr, out=grads[0])
        np.add.reduce(dr, axis=0, out=grads[1])
    np.dot(r.T, z, out=grads[2])
    np.add.reduce(z, axis=0, out=grads[3])


def take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x[rows]`` as a fresh float64 array.

    ``rows`` must lie in range: mode="clip" gathers without the copy that
    "raise" would buffer. ``np.take`` cannot cast into its output, so rows
    of every dtype, float64 too, pass through one scratch block of at most
    ``_GATHER_BLOCK`` values in ``x``'s dtype, and no full-size temporary is
    made.
    """
    out = np.empty((rows.size, x.shape[1]))
    step = max(1, _GATHER_BLOCK // x.shape[1])
    scratch = np.empty((min(step, rows.size), x.shape[1]), dtype=x.dtype)
    for start in range(0, rows.size, step):
        part = rows[start : start + step]
        out[start : start + part.size] = np.take(x, part, axis=0, out=scratch[: part.size],
                                                 mode="clip")
    return out


def _views(buf: np.ndarray, shapes: dict) -> dict:
    """Consecutive reshaped slices of the flat ``buf``, one per shape."""
    out, at = {}, 0
    for key, shape in shapes.items():
        size = int(np.prod(shape))
        out[key] = buf[at : at + size].reshape(shape)
        at += size
    return out


def fit(spec: LearnerSpec, features, labels, n_classes: Optional[int] = None) -> TrainedModel:
    """Train from scratch; deterministic given (spec, data, n_classes).

    Raises ValueError when an epoch (counted from 0) ends with a non-finite
    parameter.
    """
    x, y, c = _check_xy(features, labels, n_classes)
    (n, d), h = x.shape, int(spec.hidden_units or 0)
    # The log holds n x epochs bools, the flat parameters (d + c + 1) x h + c doubles.
    e, hu = spec.epochs, spec.hidden_units
    check_nbytes(n * int(e), f"epochs={e}: a training log of {n} x {e}")
    check_nbytes(8 * ((d + c + 1) * h + c), f"hidden_units={hu}: a weight matrix of {d} x {hu}")
    init = init_params(spec, d, c)
    shapes = {key: p.shape for key, p in init.items()}
    flat = np.concatenate([p.ravel() for p in init.values()])
    flat_grad = np.empty_like(flat)
    params, grads = _views(flat, shapes), _views(flat_grad, shapes)
    # A batch of n or more rows is the whole set, so bs is at most n.
    bs, lr = min(spec.batch_size, n), spec.learning_rate

    train_log = np.zeros((n, spec.epochs), dtype=np.bool_) if spec.epochs > 0 else None
    # One shuffle buffer per fit in the features' dtype, refilled each
    # epoch; ``perm`` is always in range, so the gathers take mode="clip".
    # Each step converts its own slice to float64. Each shuffled row's label
    # is also held as its flat index into its batch's logits, and each step
    # writes its argmax classes into ``tops``.
    xp, yp = np.empty(x.shape, x.dtype), np.empty_like(y)
    offsets = np.arange(n) % bs * c
    flat_labels, tops = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    rows = np.arange(bs)
    weights = (params.get("W1"), params.get("b1"), params["W"], params["b"], params["W"].T)
    slots = (grads.get("W1"), grads.get("b1"), grads["W"], grads["b"])

    with np.errstate(all="ignore"):
        for epoch in range(spec.epochs):
            perm = SplitMix64(derive_seed(spec.seed, f"shuffle-{epoch}")).permutation(n)
            np.take(x, perm, axis=0, out=xp, mode="clip")
            np.take(y, perm, out=yp, mode="clip")
            np.add(offsets, yp, out=flat_labels)
            for start in range(0, n, bs):
                stop = min(start + bs, n)
                _sgd_grads(weights, slots, xp[start:stop].astype(np.float64, copy=False),
                           flat_labels[start:stop], tops[start:stop], rows[: stop - start])
                flat_grad *= lr
                flat -= flat_grad
            train_log[perm, epoch] = tops == yp
            if not np.isfinite(flat).all():
                raise ValueError(f"training diverged at epoch {epoch}: non-finite parameters")

    return TrainedModel(params=params, train_log=train_log)


def _check_dims(model: TrainedModel, features) -> np.ndarray:
    x = check_matrix(features, "features", np.float64)
    d = model.params.get("W1", model.params["W"]).shape[0]  # the first layer's input width
    if x.shape[1] != d:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {d}")
    return x


def predict_proba(model: TrainedModel, features) -> np.ndarray:
    """Softmax class probabilities, rows summing to 1."""
    x = _check_dims(model, features)
    z = _logits(model.params, _represent(model.params, x))
    z -= row_max(z)[:, None]
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def embed(model: TrainedModel, features) -> np.ndarray:
    """Final-hidden-layer representation. For the linear model it is the
    features as float64: the caller's array itself only when that is float64."""
    return _represent(model.params, _check_dims(model, features))


def error_rate(model: TrainedModel, features, labels) -> float:
    """Fraction of rows whose arg-max class differs from the label."""
    x = _check_dims(model, features)
    y = check_labels(labels, x.shape[0])
    return float(np.mean(_logits(model.params, _represent(model.params, x)).argmax(axis=1) != y))


@dataclass(frozen=True)
class SynthParams:
    classes: int
    dim: int
    separation: float
    noise: float
    n_train: int
    n_test: int
    seed: int

    def __post_init__(self):
        for name in ("classes", "dim", "n_train", "n_test", "seed", "separation", "noise"):
            integer = name not in ("separation", "noise")
            object.__setattr__(self, name, check_number(getattr(self, name), name, integer))
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("train and test sizes must be positive")
        # The means and both feature sets are float64 matrices of dim columns.
        for name, rows in [(k, getattr(self, k)) for k in ("classes", "n_train", "n_test")]:
            check_nbytes(8 * int(rows) * int(self.dim), f"{name}={rows}, dim={self.dim}: "
                         f"a {rows} x {self.dim} float64 matrix")
        if not (np.isfinite(self.separation) and np.isfinite(self.noise)):
            raise ValueError("separation and noise must be finite")
        if self.noise < 0 or self.separation < 0:
            raise ValueError("separation and noise must be nonnegative")


@dataclass
class SyntheticDataset:
    features: np.ndarray  # (n_train, dim) float64
    labels: np.ndarray  # (n_train,) int64
    test_features: np.ndarray
    test_labels: np.ndarray


def make_synthetic(params: SynthParams, means: Optional[np.ndarray] = None) -> SyntheticDataset:
    """Gaussian blobs with round-robin labels; byte-identical per seed.

    One stream seeded from (seed, "synth") supplies, in order: blob means
    (skipped when explicit means are given, which must be a finite
    ``(classes, dim)`` matrix), train noise, test noise.
    Labels are round-robin (i mod classes), so class counts are balanced
    within 1. Raises ValueError when a feature overflows float64, which
    finite but huge ``separation``, ``noise`` or means can make happen.
    """
    rng = SplitMix64(derive_seed(params.seed, "synth"))
    if means is not None:
        means = check_matrix(means, "means", np.float64)
        if means.shape != (params.classes, params.dim):
            raise ValueError(f"means must be {(params.classes, params.dim)}, got {means.shape}")

    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        y = np.arange(n, dtype=np.int64) % params.classes
        x = rng.normals((n, params.dim))
        x *= params.noise
        # Each run of ``classes`` rows holds the classes in order, so the
        # means add by broadcast, with no n-by-d gather of means[y].
        whole = n - n % params.classes
        runs = x[:whole].reshape(-1, params.classes, params.dim)
        runs += means
        x[whole:] += means[: n - whole]
        return x, y

    try:
        with np.errstate(over="raise"):
            if means is None:
                means = params.separation * rng.normals((params.classes, params.dim))
            x_train, y_train = split(params.n_train)
            x_test, y_test = split(params.n_test)
    except FloatingPointError:
        raise ValueError(f"synthetic features overflow float64 (separation {params.separation!r},"
                         f" noise {params.noise!r})") from None
    return SyntheticDataset(
        features=x_train,
        labels=y_train,
        test_features=x_test,
        test_labels=y_test,
    )
