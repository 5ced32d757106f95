"""The names the top-level ``svp`` package binds, and the package's size."""

import importlib.util
import os

import svp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Code lines of src/svp as tools/src_lines.py counts them: a feature that
# adds code pays for it by deleting code elsewhere.
CODE_LINE_CAP = 1678

# Every name the package listed in its hand-kept ``__all__``.
PUBLIC = (
    "BadMagicError", "DegenerateInputError", "ForgettingScores", "FormatError",
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


def test_code_lines_stay_under_the_cap():
    spec = importlib.util.spec_from_file_location(
        "src_lines", os.path.join(ROOT, "tools", "src_lines.py"))
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    package = os.path.dirname(svp.__file__)
    code = sum(src_lines.line_kinds(os.path.join(package, name)).count("code")
               for name in os.listdir(package) if name.endswith(".py"))
    assert code <= CODE_LINE_CAP
