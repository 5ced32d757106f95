"""End-to-end selection protocols: batch active learning and core-set runs.

Both protocols share one shape: a cheap selection model (the proxy) computes
the metric that picks training points; the expensive target model trains only
on the picked points. Substituting the target spec into the proxy slot
degenerates to the classical self-selecting run, and with equal seeds the two
reports are identical apart from wall-clock fields.

Both run through one skeleton: decode the data, plan the cumulative
selected-set sizes, run the protocol's selection pass with the proxy, rerun
it with the target in the proxy slot when the baseline is measured, fit the
target on the selected ids and build the report. Active learning plans
``[initial, after round 1, ..., budget]`` from its schedule and its pass runs
one timed round per step; core-set selection plans ``[m]`` and its pass is
one timed stage. ``execute_config`` checks a config's top-level fields
against one table per task (``CONFIG_FIELDS``); flags must be JSON booleans.
Numbers are checked once, where they are held: by ``Schedule``, by
``run_active_learning`` (``budget_fraction``), by ``run_coreset``
(``subset_fraction``) and by the run (seed, baseline).
The run checks its method against ``METHODS[task]`` before any fit, and
``execute_config`` checks it before any data file is read. Before it plans
or fits anything, the run checks every row of its train and test data with
``check_features`` and ``check_labels``, and the test width against the
train width; each message names ``train`` or ``test``.

Features stay in the dtype the run checked them to: float32 as given (as
``load_data_section`` reads SVPT files), anything else converted to float64
once. Every layer computes in float64 on the rows it takes: ``fit`` fills
its shuffle buffer from them, scoring gathers the pool straight to float64,
and ``embed`` and ``error_rate`` convert whole matrices. float32 to float64
is exact, so a run on float32 features reports what a run on their float64
conversion reports, byte for byte, and holds no float64 copy of its data.

Timing contract: each selection round is bracketed by exactly two clock()
calls covering the proxy fit, scoring, and selection. Proxy evaluation on the
test set, bookkeeping, and the final target fit are outside the bracket.
With a proxy without a hidden layer (the logistic learner), whose
embedding is the features themselves, active-learning k-centers runs one
farthest-first traversal for all rounds, so that traversal's time falls in
round 1's bracket and later brackets hold the proxy fit and the banked
picks. ``selection_seconds`` is the sum of round times; ``speedup`` is
baseline_seconds / selection_seconds when a baseline is supplied (finite
and positive, checked before any fit) or measured, and null when either
total is 0: no round was timed (an active-learning budget equal to the
initial fraction), or the clock did not advance over a pass. The clock is
injectable for testing.

Determinism contract: every field of a RunReport except the timing block is a
pure function of (config, data). All randomness flows from the run seed and
the learner-spec seeds through documented sub-seed derivations; every fit
takes its spec from ``_seeded``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import scoring, tensor_io
from .forgetting import process_log, select_most_forgotten
from .kcenters import greedy_kcenters
from .learner import (
    LearnerSpec,
    SynthParams,
    embed,
    error_rate,
    fit,
    make_synthetic,
    predict_proba,
    take_rows,
)
from .rng import SplitMix64, derive_seed
from .tensor_io import (check_count, check_features, check_indices, check_labels, check_number,
                        read_labels_csv, read_tensor, staged_writes)


class ScheduleError(ValueError):
    """Budget not reachable by the configured round schedule."""


def _fraction(value, name: str) -> float:
    """A config fraction: a number in (0, 1], as a float."""
    v = check_number(value, name)
    if not 0.0 < v <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {v!r}")
    return v


@dataclass(frozen=True)
class Schedule:
    initial: float
    first: float
    subsequent: float

    def __post_init__(self):
        for name in ("initial", "first", "subsequent"):
            object.__setattr__(self, name, _fraction(getattr(self, name), f"schedule {name}"))


DEFAULT_SCHEDULE = Schedule(initial=0.02, first=0.08, subsequent=0.10)


# The timing block: wall-clock fields, the only ones deterministic_dict() leaves out.
_TIMING = ("round_seconds", "selection_seconds", "baseline_seconds", "speedup")


@dataclass
class RunReport:
    task: str
    method: str
    n_train: int
    round_sizes: list  # cumulative selected-set size, initial stage included
    round_proxy_errors: list  # proxy test error per selection round
    selected_ids: list  # final selected/labeled ids, ascending
    target_test_error: float
    full_data_error: Optional[float]
    round_seconds: list
    selection_seconds: float
    baseline_seconds: Optional[float]
    speedup: Optional[float]

    def deterministic_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name not in _TIMING}

    def to_dict(self) -> dict:
        return {**self.deterministic_dict(), "timing": {k: getattr(self, k) for k in _TIMING}}


def nearest_count(fraction: float, n: int) -> int:
    """Resolve fraction * n to a count once, rounding halves up."""
    return int(np.floor(fraction * n + 0.5))


def ceil_count(fraction: float, n: int) -> int:
    """ceil(fraction * n) with slack so representation error in the product
    cannot bump an exact integer up by one."""
    return int(np.ceil(fraction * n - 1e-9))


def plan_schedule(n: int, budget_fraction: float, schedule: Schedule) -> list:
    """Cumulative labeled sizes [initial, after round 1, ..., budget].

    The schedule fractions are fractions of the total pool size n. A budget
    within 1e-9 of the initial fraction gives no rounds. Otherwise the
    number of rounds, (budget - initial - first) / subsequent + 1, must be
    a whole k >= 1 to within 1e-6; anything else is a configuration error,
    not silent truncation. Round j's size is ``nearest_count`` of the
    cumulative fraction initial + first + (j - 1) * subsequent, the last
    one too, not of the budget, so a last size past n raises.
    """
    s0 = nearest_count(schedule.initial, n)
    if s0 < 1:
        raise ScheduleError(f"initial fraction {schedule.initial} selects nothing from n={n}")
    if budget_fraction < schedule.initial - 1e-9:
        raise ScheduleError("budget_fraction below the initial fraction")
    if abs(budget_fraction - schedule.initial) <= 1e-9:
        return [s0]
    remaining = budget_fraction - schedule.initial - schedule.first
    if remaining < -1e-9:
        raise ScheduleError("budget_fraction falls inside the first round increment")
    k_real = remaining / schedule.subsequent + 1.0
    k = int(round(k_real))
    if k < 1 or abs(k_real - k) > 1e-6:
        raise ScheduleError(
            f"budget {budget_fraction} not reachable: initial {schedule.initial} "
            f"+ first {schedule.first} + k*{schedule.subsequent} never lands on it"
        )
    sizes = [s0]
    for j in range(1, k + 1):
        frac = schedule.initial + schedule.first + (j - 1) * schedule.subsequent
        sizes.append(nearest_count(frac, n))
    if sizes[-1] > n:
        raise ScheduleError(f"schedule overruns the pool: {sizes[-1]} > {n}")
    for a, b in zip(sizes, sizes[1:]):
        if b <= a:
            raise ScheduleError(f"round quota collapses to zero at size {a} (n too small)")
    return sizes


def random_select(pool, m: int, seed: int) -> np.ndarray:
    """Seeded uniform sample of m pool entries without replacement."""
    pool = check_indices(pool, None, "pool")
    check_count(m, pool.shape[0])
    perm = SplitMix64(seed).permutation(pool.shape[0])
    return pool[perm[:m]]


def speedup(baseline_time: float, svp_time: float) -> float:
    """baseline_time / svp_time; both must be positive."""
    if not (baseline_time > 0.0 and svp_time > 0.0):
        raise ValueError("times must be positive")
    return baseline_time / svp_time


def _seeded(spec: LearnerSpec, run_seed: int, salt: str) -> LearnerSpec:
    """``spec`` with the seed of the fit named ``salt`` in the run seeded
    ``run_seed``: ``derive_seed(derive_seed(run_seed, salt), spec.seed)``."""
    return dataclasses.replace(spec, seed=derive_seed(derive_seed(run_seed, salt), spec.seed))


def check_object(d, what: str, fields=None, required=()) -> dict:
    """A decoded JSON value that must be an object holding every key in
    ``required`` and, when ``fields`` is given, no key outside it."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(fields) if fields is not None else set()
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ValueError(f"{what} is missing {sorted(missing)}")
    return d


def _from_object(cls, d, what: str):
    """``cls`` built from a decoded JSON object holding each of its fields,
    those with a default optionally, and no other key."""
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    return cls(**check_object(d, what, [f.name for f in fields], required))


def _scorer_selector(name: str):
    def select(proxy, x, pool, quota, seed, stage, ahead):
        # Gathered straight to float64: no copy of the pool in the features'
        # own dtype is alive beside the hidden layer.
        scores = scoring.SCORERS[name](predict_proba(proxy, take_rows(x, pool)))
        return pool[scoring.top_m(scores, quota)]

    return select


def _kcenters_selector(proxy, x, pool, quota, seed, stage, ahead):
    if "W1" not in proxy.params:
        # The traversal depends on nothing but the center set, so without a
        # hidden layer, when the embedding is the features, the later rounds'
        # picks are its next steps.
        quota += ahead
    z = embed(proxy, x)
    # Every pool holds each id once.
    centers = np.setdiff1d(np.arange(x.shape[0]), pool, assume_unique=True)
    if centers.size:
        return greedy_kcenters(z, centers, quota).order
    start = random_select(pool, 1, derive_seed(seed, "kcenters-start"))
    return np.concatenate([start, greedy_kcenters(z, start, quota - 1).order])


def _forgetting_selector(proxy, x, pool, quota, seed, stage, ahead):
    if proxy.train_log is None:
        raise ValueError("forgetting selection needs a proxy trained for >= 1 epoch")
    return select_most_forgotten(process_log(proxy.train_log), quota)


def _random_selector(proxy, x, pool, quota, seed, stage, ahead):
    return random_select(pool, quota, derive_seed(seed, f"random-{stage}"))


# One table of selection methods for both protocols:
# SELECTORS[method](proxy, x, pool, quota, seed, stage, ahead) picks ``quota``
# ids from ``pool`` with the fitted proxy, in pick order. ``ahead`` is how
# many ids the pass will still pick after this round (0 in core-set
# selection). A selector whose later picks cannot depend on later proxies may
# instead return all ``quota + ahead`` ids: the surplus is exactly what it
# would pick in the following rounds, and the AL pass spends it, in order,
# before it calls the selector again. k-centers does so when the proxy has
# no hidden layer, so that its embedding is the features themselves. Random
# draws are salted from the run ``seed`` and ``stage`` ("round-<k>" in active
# learning, "subset" in core-set selection). k-centers starts from the rows
# outside the pool, or from one seeded random row when the pool is every row.
# Forgetting ranks the rows of the proxy's training log, so the proxy must
# have been fitted on the pool.
SELECTORS = {
    **{name: _scorer_selector(name) for name in scoring.SCORERS},
    "kcenters": _kcenters_selector,
    "forgetting": _forgetting_selector,
    "random": _random_selector,
}

# The methods each task takes: every selector, except that forgetting needs
# a proxy log of every pool row, and an AL proxy is fitted on the labeled
# rows only.
METHODS = {
    "coreset": tuple(SELECTORS),
    "al": tuple(m for m in SELECTORS if m != "forgetting"),
}


def _check_method(task: str, method) -> None:
    """Raise ValueError unless ``method`` is one that ``task`` accepts."""
    if method not in METHODS[task]:
        raise ValueError(f"{task} method must be one of {METHODS[task]}, got {method!r}")


def _al_selection_pass(method: str, seed: int, x: np.ndarray, y: np.ndarray, c: int,
                       sizes: list, proxy_spec: LearnerSpec, clock: Callable[[], float]):
    """Run the selection rounds; returns (labeled ids, round proxies, round seconds)."""
    n = x.shape[0]
    labeled = np.sort(random_select(np.arange(n), sizes[0], derive_seed(seed, "initial-pool")))
    mask = np.zeros(n, dtype=bool)
    mask[labeled] = True

    proxies = []
    round_seconds = []
    banked = labeled[:0]  # picks a selector made ahead for later rounds
    for k in range(1, len(sizes)):
        quota = sizes[k] - sizes[k - 1]
        unlabeled = np.flatnonzero(~mask)
        t0 = clock()
        proxy = fit(_seeded(proxy_spec, seed, f"proxy-round-{k}"), x[labeled], y[labeled], n_classes=c)
        if not banked.size:
            banked = SELECTORS[method](proxy, x, unlabeled, quota, seed, f"round-{k}",
                                       sizes[-1] - sizes[k])
        picked, banked = banked[:quota], banked[quota:]
        t1 = clock()
        round_seconds.append(t1 - t0)
        proxies.append(proxy)
        mask[picked] = True
        labeled = np.flatnonzero(mask)
    return labeled, proxies, round_seconds


def _coreset_select(method: str, seed: int, x: np.ndarray, y: np.ndarray, c: int,
                    sizes: list, proxy_spec: LearnerSpec, clock: Callable[[], float]):
    """One timed pass picking ``sizes[0]`` ids; returns (subset ids, [proxy], [seconds])."""
    t0 = clock()
    proxy = fit(_seeded(proxy_spec, seed, "proxy-fit"), x, y, n_classes=c)
    subset = SELECTORS[method](proxy, x, np.arange(x.shape[0]), sizes[0], seed, "subset", 0)
    t1 = clock()
    return np.sort(subset), [proxy], [t1 - t0]


def _run(task: str, method: str, seed: int, proxy: LearnerSpec, target: LearnerSpec,
         data, test_data, plan: Callable[[int], list], clock: Callable[[], float],
         baseline_seconds: Optional[float], measure_baseline: bool,
         include_full_data_error: bool = False) -> RunReport:
    """The run both protocols share: ``plan(n)`` gives the cumulative
    selected-set sizes, and the task's selection pass (``_al_selection_pass``
    or ``_coreset_select``, both called as
    ``(method, seed, x, y, c, sizes, spec, clock)``) returns (selected ids,
    fitted proxy per round, seconds per round) with ``spec`` in the proxy
    slot. The pass runs with the proxy, then (for a measured baseline) with
    the target; the target is fitted on the ids. The run ``seed`` and a
    supplied ``baseline_seconds`` are checked first."""
    _check_method(task, method)
    check_number(seed, "seed", integer=True)
    if baseline_seconds is not None:
        baseline_seconds = check_number(baseline_seconds, "baseline_seconds")
        if not 0.0 < baseline_seconds < np.inf:
            raise ValueError(
                f"baseline_seconds must be finite and positive, got {baseline_seconds!r}")
    (x, y), (xt, yt) = data, test_data
    x = check_features(x, "train features")
    y = check_labels(y, x.shape[0], "train labels")
    xt = check_features(xt, "test features")
    yt = check_labels(yt, xt.shape[0], "test labels")
    if xt.shape[1] != x.shape[1]:
        raise ValueError(f"test features have {xt.shape[1]} columns, train features {x.shape[1]}")
    n = x.shape[0]
    top = int(max(y.max(), yt.max()))
    # Models are sized by the largest label, so every id below it must occur.
    # At most y.size + yt.size ids occur, so a larger label leaves a gap below.
    present = np.zeros(min(top + 1, y.size + yt.size), dtype=bool)
    for labels in (y, yt):
        present[labels[labels < present.size]] = True
    missing = np.flatnonzero(~present)
    if missing.size:
        shown = ", ".join(str(int(i)) for i in missing[:5])
        more = ", ..." if missing.size > 5 or present.size <= top else ""
        raise ValueError(f"class ids below the largest label {top} appear in neither the train "
                         f"nor the test labels: {shown}{more}")
    c = max(2, top + 1)
    sizes = plan(n)
    # Looked up when called, so a tracer's wrapper on either pass is seen.
    select = _al_selection_pass if task == "al" else _coreset_select

    ids, proxies, round_seconds = select(method, seed, x, y, c, sizes, proxy, clock)
    proxy_errors = [error_rate(model, xt, yt) for model in proxies]
    selection_seconds = float(sum(round_seconds))
    if measure_baseline and baseline_seconds is None:
        baseline_seconds = float(sum(select(method, seed, x, y, c, sizes, target, clock)[2]))

    target_spec = _seeded(target, seed, "target-fit")
    test_error = error_rate(fit(target_spec, x[ids], y[ids], n_classes=c), xt, yt)
    full_error = (error_rate(fit(target_spec, x, y, n_classes=c), xt, yt)
                  if include_full_data_error else None)

    ratio = None
    if baseline_seconds is not None and baseline_seconds > 0.0 and selection_seconds > 0.0:
        ratio = speedup(baseline_seconds, selection_seconds)
    return RunReport(
        task=task,
        method=method,
        n_train=n,
        round_sizes=[int(s) for s in sizes],
        round_proxy_errors=proxy_errors,
        selected_ids=[int(i) for i in ids],
        target_test_error=test_error,
        full_data_error=full_error,
        round_seconds=round_seconds,
        selection_seconds=selection_seconds,
        baseline_seconds=baseline_seconds,
        speedup=ratio,
    )


def run_active_learning(
    proxy: LearnerSpec,
    target: LearnerSpec,
    method: str,
    budget_fraction: float,
    data,
    test_data,
    seed: int,
    schedule: Schedule = DEFAULT_SCHEDULE,
    clock: Callable[[], float] = time.perf_counter,
    baseline_seconds: Optional[float] = None,
    measure_baseline: bool = False,
) -> RunReport:
    """Pool-based batch active learning with a proxy selection model.

    Seeds the initial pool uniformly at random, then each round refits the
    proxy from scratch on the labeled set, selects the round quota from the
    unlabeled pool by the configured method, and finally trains the target
    from scratch on the full labeled set. k-centers with a proxy whose
    embedding is the features picks every round's quota in round 1, as one
    traversal from the initial pool; the proxy is still refitted each round
    for ``round_proxy_errors``. When ``measure_baseline`` is set,
    the selection pass is rerun with the target spec in the proxy slot purely
    to record the classical self-selection wall-clock.
    """
    budget_fraction = _fraction(budget_fraction, "budget_fraction")
    return _run("al", method, seed, proxy, target, data, test_data,
                lambda n: plan_schedule(n, budget_fraction, schedule),
                clock, baseline_seconds, measure_baseline)


def run_coreset(
    proxy: LearnerSpec,
    target: LearnerSpec,
    method: str,
    subset_fraction: float,
    data,
    test_data,
    seed: int,
    include_full_data_error: bool = False,
    clock: Callable[[], float] = time.perf_counter,
    baseline_seconds: Optional[float] = None,
    measure_baseline: bool = False,
) -> RunReport:
    """Select a core-set with the proxy, train the target on it.

    m = ceil(subset_fraction * n) points are kept. With fraction 1.0 the
    subset is the identity and the target fit equals full-data training
    exactly, seed for seed.
    """
    subset_fraction = _fraction(subset_fraction, "subset_fraction")

    def plan(n):
        m = ceil_count(subset_fraction, n)
        if m < 1:
            raise ValueError("subset is empty")
        return [m]

    return _run("coreset", method, seed, proxy, target, data, test_data,
                plan, clock, baseline_seconds, measure_baseline, include_full_data_error)


_DATA_FILES = ("features", "labels", "test_features", "test_labels")


def load_data_section(section: dict):
    """Resolve the config ``data`` block to (train, test) array pairs, with
    int64 labels and features as float64 (synthetic) or as the float32 the
    SVPT files hold, unconverted.

    Either {"synthetic": {...generator params...}} or file paths
    {"features", "labels", "test_features", "test_labels"} with SVPT tensors
    and ``example_id,label`` CSVs, and no other key: an unknown key, or a
    file path beside ``synthetic``, is an error.
    """
    fields = ("synthetic",) if "synthetic" in check_object(section, "data") else _DATA_FILES
    check_object(section, "data", fields, fields)
    if "synthetic" in section:
        ds = make_synthetic(_from_object(SynthParams, section["synthetic"], "data.synthetic"))
        return (ds.features, ds.labels), (ds.test_features, ds.test_labels)
    not_paths = [k for k in _DATA_FILES if not isinstance(section[k], str)]
    if not_paths:
        raise ValueError(f"data file paths must be strings: {not_paths}")
    train = read_tensor(section["features"]), read_labels_csv(section["labels"])
    test = read_tensor(section["test_features"]), read_labels_csv(section["test_labels"])
    return train, test


def report_json(config: dict, report: RunReport) -> str:
    doc = {"config": config, "report": report.to_dict()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def rounds_csv(report: RunReport) -> str:
    """Flat per-round rows; the initial stage has no fit or timing."""
    lines = ["round,labeled_size,proxy_test_error,seconds"]
    sizes = report.round_sizes
    if report.task == "al":
        lines.append(f"0,{sizes[0]},,")
        sizes = sizes[1:]
    stages = zip(sizes, report.round_proxy_errors, report.round_seconds)
    for k, (size, err, sec) in enumerate(stages, start=1):
        lines.append(f"{k},{size},{err!r},{sec!r}")
    return "\n".join(lines) + "\n"


def _csv_path_for(output: str) -> str:
    base = output[:-5] if output.endswith(".json") else output
    return base + ".rounds.csv"


# Top-level config fields per task: (required, optional). Every optional
# field has a default when absent and must be valid when present.
_REQUIRED = ("task", "method", "proxy", "target", "seed", "data")
_OPTIONAL = ("measure_baseline", "baseline_seconds", "output")
CONFIG_FIELDS = {
    "al": (_REQUIRED + ("budget_fraction",), _OPTIONAL + ("schedule",)),
    "coreset": (_REQUIRED + ("subset_fraction",), _OPTIONAL + ("include_full_data_error",)),
}


def _flag(config: dict, name: str) -> bool:
    value = config.get(name, False)
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def execute_config(
    config: dict,
    clock: Callable[[], float] = time.perf_counter,
    task: Optional[str] = None,
) -> tuple[RunReport, Optional[str]]:
    """Run the task described by a config dict; write outputs if requested.

    When ``task`` is given, the config's task must be that one. Returns the
    report and the JSON output path (None when no ``output``).
    """
    check_object(config, "config")
    if task is not None and config.get("task") != task:
        raise ValueError(f"config task is {config.get('task')!r}, expected {task!r}")
    task = config.get("task")
    if task not in CONFIG_FIELDS:
        raise ValueError(f"task must be 'al' or 'coreset', got {task!r}")
    required, optional = CONFIG_FIELDS[task]
    check_object(config, "config", required + optional, required)
    _check_method(task, config["method"])
    output = config.get("output")
    if "output" in config and not isinstance(output, str):
        raise ValueError(f"output must be a path string, got {output!r}")
    proxy = _from_object(LearnerSpec, config["proxy"], "learner")
    target = _from_object(LearnerSpec, config["target"], "learner")
    measure = _flag(config, "measure_baseline")
    full_data_error = _flag(config, "include_full_data_error")
    baseline_seconds = config.get("baseline_seconds")
    if "baseline_seconds" in config and baseline_seconds is None:
        raise ValueError("baseline_seconds must be a number, got None")  # null is not absence
    train, test = load_data_section(config["data"])

    if task == "al":
        protocol, fraction = run_active_learning, config["budget_fraction"]
        options = {"schedule": (_from_object(Schedule, config["schedule"], "schedule")
                                if "schedule" in config else DEFAULT_SCHEDULE)}
    else:
        protocol, fraction = run_coreset, config["subset_fraction"]
        options = {"include_full_data_error": full_data_error}
    report = protocol(proxy, target, config["method"], fraction, train, test, config["seed"],
                      clock=clock, baseline_seconds=baseline_seconds, measure_baseline=measure,
                      **options)

    if output is not None:
        # Looked up on tensor_io when called, so the benchmark's tracer sees both writes.
        with staged_writes():
            tensor_io.atomic_write_bytes(output, report_json(config, report).encode())
            tensor_io.atomic_write_bytes(_csv_path_for(output), rounds_csv(report).encode())
    return report, output
