"""Data-selection engine: uncertainty sampling, greedy k-centers, forgetting
events, rank diagnostics, and proxy-driven selection protocols with
desk-scale learners."""

from .forgetting import ForgettingScores, process_log, select_most_forgotten
from .harness import (
    RunReport,
    Schedule,
    execute_config,
    plan_schedule,
    random_select,
    run_active_learning,
    run_coreset,
    speedup,
)
from .kcenters import KCentersResult, greedy_kcenters
from .learner import (
    LearnerSpec,
    SynthParams,
    SyntheticDataset,
    TrainedModel,
    embed,
    error_rate,
    fit,
    make_synthetic,
    predict_proba,
)
from .ranking_diag import DegenerateInputError, pearson, scores_to_ranks, spearman
from .rng import SplitMix64, derive_seed
from .scoring import entropy, least_confidence, margin, top_m
from .tensor_io import (
    BadMagicError,
    FormatError,
    InvalidHeaderError,
    InvalidValueError,
    ProbMatrixError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
    read_tensor,
    read_train_log,
    read_train_log_csv,
    validate_prob_matrix,
    write_tensor,
    write_train_log,
)

__version__ = "0.1.0"
