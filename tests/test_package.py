"""The names the top-level ``svp`` package binds."""

import svp

# Every name the package listed in its hand-kept ``__all__``.
PUBLIC = (
    "ALConfig", "BadMagicError", "DegenerateInputError", "ForgettingScores", "FormatError",
    "InvalidHeaderError", "InvalidValueError", "KCentersResult", "LearnerSpec",
    "ProbMatrixError", "RunReport", "Schedule", "SplitMix64", "SynthParams",
    "SyntheticDataset", "TrainedModel", "TruncatedPayloadError", "UnsupportedDtypeError",
    "UnsupportedVersionError", "derive_seed", "embed", "entropy", "error_rate",
    "execute_config", "fit", "greedy_kcenters", "least_confidence", "make_synthetic",
    "margin", "pearson", "plan_schedule", "predict_proba", "process_log", "random_select",
    "read_tensor", "read_train_log", "read_train_log_csv", "run_active_learning",
    "run_coreset", "scores_to_ranks", "select_most_forgotten", "spearman", "speedup",
    "top_m", "validate_prob_matrix", "write_tensor", "write_train_log",
)


def test_every_public_name_is_an_attribute():
    assert [name for name in PUBLIC if not hasattr(svp, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from svp import *", namespace)
    assert [name for name in PUBLIC if name not in namespace] == []
