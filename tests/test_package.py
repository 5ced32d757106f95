"""The names the top-level ``svp`` package binds, the modules its k-centers
runs load, the package's size, and the tools that import it."""

import glob
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

import svp
from svp.tensor_io import write_tensor

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


def test_kcenters_runs_load_no_masked_arrays(tmp_path):
    # np.unique with no index or count outputs (and so np.union1d) imports
    # numpy.ma, about 10 ms in a fresh process; k-centers runs need neither.
    write_tensor(np.random.default_rng(1).standard_normal((40, 3)), tmp_path / "x.svpt")
    config = {
        "task": "al", "method": "kcenters", "seed": 5, "budget_fraction": 0.3,
        "measure_baseline": True,
        "proxy": {"kind": "logistic", "epochs": 2, "learning_rate": 0.3, "batch_size": 16,
                  "seed": 1},
        "target": {"kind": "mlp", "epochs": 2, "learning_rate": 0.3, "batch_size": 16,
                   "seed": 2, "hidden_units": 8},
        "data": {"synthetic": {"classes": 3, "dim": 4, "separation": 1.0, "noise": 1.0,
                               "n_train": 200, "n_test": 50, "seed": 3}},
    }
    (tmp_path / "al.json").write_text(json.dumps(config))
    script = ("import sys\nfrom svp.cli import main\n"
              "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)\n")
    for argv in (["kcenters", "--features", str(tmp_path / "x.svpt"), "--initial-size", "2",
                  "--budget", "5", "--seed", "1", "--out", str(tmp_path / "order.csv")],
                 ["al", "--config", str(tmp_path / "al.json")]):
        run = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
        assert run.stdout.splitlines()[-1:] == ["0 False"], (argv[0], run.stderr)


def test_code_lines_stay_under_the_cap():
    spec = importlib.util.spec_from_file_location(
        "src_lines", os.path.join(ROOT, "tools", "src_lines.py"))
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    package = os.path.dirname(svp.__file__)
    code = sum(src_lines.line_kinds(os.path.join(package, name)).count("code")
               for name in os.listdir(package) if name.endswith(".py"))
    assert code <= CODE_LINE_CAP


def test_every_tool_module_loads():
    # Each tool's module body, not its ``main``, in one fresh interpreter: a
    # renamed library or test-helper name that a tool imports fails here.
    tools = sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    run = subprocess.run(
        [sys.executable, "-c", "import runpy, sys\nfor path in sys.argv[1:]: runpy.run_path(path)",
         *tools], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert tools and run.returncode == 0, run.stderr
