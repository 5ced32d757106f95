import contextlib
import errno
import json
import os
import threading
import warnings

import numpy as np
import pytest

from helpers import spec_dict
from svp import cli, harness, ranking_diag, scoring, tensor_io
from svp.cli import main
from svp.forgetting import process_log, write_forgetting_csv
from svp.harness import METHODS
from svp.learner import LearnerSpec, SynthParams
from svp.ranking_diag import scores_to_ranks
from svp.tensor_io import (
    LABELS_CSV,
    InvalidValueError,
    read_csv,
    read_labels_csv,
    read_scores_csv,
    read_tensor,
    write_scores_csv,
    write_tensor,
    write_train_log,
)

PROBS = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
LOG = np.array([[1, 0], [1, 1], [0, 0]], dtype=bool)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SVP_SEED", raising=False)


@contextlib.contextmanager
def pipe_path(data: bytes):
    """The path a shell's ``<(cat file)`` gives: ``/dev/fd/N`` for the read
    end of a pipe that a writer thread fills with ``data``. The writer ignores
    ``BrokenPipeError``, since a reader may close the pipe unread."""
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with open(write_fd, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join(timeout=10)
    assert not writer.is_alive()


def refused_pipe(path: str) -> str:
    return f"error: {path}: not a regular file; this command reads it twice\n"


def coreset_config(tmp_path, drop=(), **overrides):
    cfg = {
        "task": "coreset",
        "method": "entropy",
        "proxy": spec_dict(LearnerSpec(kind="logistic", epochs=3, learning_rate=0.5,
                                       batch_size=16, seed=1)),
        "target": spec_dict(LearnerSpec(kind="mlp", epochs=3, learning_rate=0.3,
                                        batch_size=16, seed=2, hidden_units=8)),
        "subset_fraction": 0.5,
        "seed": 5,
        "data": {"synthetic": {"classes": 3, "dim": 4, "separation": 2.0, "noise": 1.0,
                               "n_train": 60, "n_test": 30, "seed": 11}},
    }
    for key in drop:
        del cfg[key]
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestScore:
    def test_writes_expected_scores(self, tmp_path):
        probs_path = tmp_path / "p.svpt"
        out = tmp_path / "scores.csv"
        write_tensor(PROBS, probs_path)
        assert main(["score", "--method", "entropy", "--probs", str(probs_path),
                     "--out", str(out)]) == 0
        got = read_scores_csv(out)
        expected = scoring.entropy(read_tensor(probs_path))
        assert np.array_equal(got, expected)

    def test_byte_identical_reruns(self, tmp_path):
        probs_path = tmp_path / "p.svpt"
        write_tensor(PROBS, probs_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["score", "--method", "confidence", "--probs", str(probs_path),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_least_confidence_and_alias_agree(self, tmp_path):
        probs_path = tmp_path / "p.svpt"
        write_tensor(PROBS, probs_path)
        outs = []
        for method in ("least_confidence", "confidence"):
            out = tmp_path / f"{method}.csv"
            assert main(["score", "--method", method, "--probs", str(probs_path),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert np.array_equal(read_scores_csv(tmp_path / "least_confidence.csv"),
                              scoring.least_confidence(PROBS))

    def test_unknown_method_is_usage_error(self, tmp_path):
        assert main(["score", "--method", "softmax", "--probs", "p", "--out", "o"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["score", "--method", "entropy", "--probs", str(tmp_path / "no.svpt"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_invalid_rows_leave_no_output(self, tmp_path, capsys):
        probs_path = tmp_path / "p.svpt"
        out = tmp_path / "scores.csv"
        write_tensor(np.array([[0.2, 0.2]]), probs_path)
        assert main(["score", "--method", "entropy", "--probs", str(probs_path),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_corrupt_tensor(self, tmp_path):
        bad = tmp_path / "bad.svpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        assert main(["score", "--method", "entropy", "--probs", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_probability_fault_names_the_file(self, tmp_path, capsys):
        probs_path = tmp_path / "p.svpt"
        write_tensor(np.array([[0.5, 0.5], [1.5, -0.5]]), probs_path)
        assert main(["score", "--method", "entropy", "--probs", str(probs_path),
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {probs_path}: row 1 has an entry outside [0, 1]\n")

    def test_row_sum_fault_prints_the_sum_as_a_number(self, tmp_path, capsys):
        probs_path = tmp_path / "p.svpt"
        write_tensor(np.array([[0.5, 0.5], [0.5, 0.6]], dtype=np.float32), probs_path)
        assert main(["score", "--method", "entropy", "--probs", str(probs_path),
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {probs_path}: row 1 sums to 1.1, expected 1 within 1e-05\n")


class TestKCenters:
    def features_file(self, tmp_path):
        path = tmp_path / "x.svpt"
        write_tensor(np.array([[0.0], [1.0], [10.0]]), path)
        return path

    def test_initial_file(self, tmp_path):
        feats = self.features_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_text("0\n")
        out = tmp_path / "order.csv"
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--budget", "2", "--out", str(out)]) == 0
        assert out.read_text() == "rank,example_id,min_dist\n1,2,10.0\n2,1,1.0\n"

    def test_initial_size_with_seed(self, tmp_path):
        feats = self.features_file(tmp_path)
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["kcenters", "--features", str(feats), "--initial-size", "1",
                         "--budget", "2", "--out", str(out), "--seed", "9"]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        feats = self.features_file(tmp_path)
        flag_out = tmp_path / "flag.csv"
        env_out = tmp_path / "env.csv"
        assert main(["kcenters", "--features", str(feats), "--initial-size", "1",
                     "--budget", "2", "--out", str(flag_out), "--seed", "9"]) == 0
        monkeypatch.setenv("SVP_SEED", "9")
        assert main(["kcenters", "--features", str(feats), "--initial-size", "1",
                     "--budget", "2", "--out", str(env_out)]) == 0
        assert flag_out.read_text() == env_out.read_text()

    def test_missing_seed(self, tmp_path, capsys):
        feats = self.features_file(tmp_path)
        assert main(["kcenters", "--features", str(feats), "--initial-size", "1",
                     "--budget", "2", "--out", str(tmp_path / "o.csv")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_seed_env(self, tmp_path, monkeypatch):
        feats = self.features_file(tmp_path)
        monkeypatch.setenv("SVP_SEED", "not-a-number")
        assert main(["kcenters", "--features", str(feats), "--initial-size", "1",
                     "--budget", "2", "--out", str(tmp_path / "o.csv")]) == 2

    def test_out_in_missing_directory_names_the_target(self, tmp_path, capsys, monkeypatch):
        feats = self.features_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["kcenters", "--features", str(feats), "--initial-size", "1", "--seed", "0",
                     "--budget", "1", "--out", "nodir/x.csv"]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'nodir/x.csv'\n")
        assert [p.name for p in tmp_path.rglob(".svp-tmp-*")] == []

    def test_bad_features_file_is_named(self, tmp_path, capsys):
        feats = tmp_path / "bad.svpt"
        feats.write_bytes(b"SVPT\x01\x00")
        assert main(["kcenters", "--features", str(feats), "--initial-size", "1", "--seed", "0",
                     "--budget", "1", "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {feats}: file is 6 bytes, header needs 24\n"

    def test_initial_flags_are_exclusive(self, tmp_path):
        feats = self.features_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_text("0\n")
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--initial-size", "1", "--budget", "1",
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_zero_initial_size(self, tmp_path):
        feats = self.features_file(tmp_path)
        assert main(["kcenters", "--features", str(feats), "--initial-size", "0",
                     "--budget", "1", "--out", str(tmp_path / "o.csv"),
                     "--seed", "1"]) == 2

    def test_initial_size_beyond_the_rows_names_the_flag(self, tmp_path, capsys):
        feats = tmp_path / "x.svpt"
        write_tensor(np.arange(50.0)[:, None], feats)
        out = tmp_path / "o.csv"
        assert main(["kcenters", "--features", str(feats), "--initial-size", "60",
                     "--budget", "0", "--out", str(out), "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: --initial-size=60 exceeds the 50 candidates\n"
        assert not out.exists()

    @pytest.mark.parametrize("initial, budget, message", [
        (None, "30", "--budget=30 exceeds the 15 candidates"),
        (None, "-1", "--budget must be nonnegative, got -1"),
        ("0\n3\n0\n", "1", "{init}: initial set holds duplicate indices"),
        ("0\n99\n", "1", "{init}: initial set must be nonempty, with every index in [0, 20)"),
    ], ids=["budget-beyond", "budget-negative", "initial-repeat", "initial-beyond"])
    def test_count_and_index_errors_name_the_flag_or_file(self, tmp_path, capsys, initial,
                                                          budget, message):
        feats = tmp_path / "x.svpt"
        write_tensor(np.arange(20.0)[:, None], feats)
        init = tmp_path / "init.txt"
        if initial is None:
            start = ["--initial-size", "5", "--seed", "1"]
        else:
            init.write_text(initial)
            start = ["--initial", str(init)]
        out = tmp_path / "o.csv"
        assert main(["kcenters", "--features", str(feats), *start, "--budget", budget,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(init=init)}\n"
        assert not out.exists()

    def test_budget_too_large_leaves_no_output(self, tmp_path):
        feats = self.features_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_text("0\n")
        out = tmp_path / "o.csv"
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--budget", "5", "--out", str(out)]) == 1
        assert not out.exists()

    def test_initial_file_of_blank_lines(self, tmp_path, capsys):
        feats = self.features_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_text("\n  \n\n")
        out = tmp_path / "o.csv"
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--budget", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {init}: no indices found\n"
        assert not out.exists()

    def test_malformed_initial_file(self, tmp_path):
        feats = self.features_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_text("zero\n")
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--budget", "1", "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("index", [2**63, -(2**63) - 1])
    def test_initial_index_beyond_int64_names_file_and_line(self, tmp_path, capsys, index):
        feats = self.features_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_text(f"0\n{index}\n")
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--budget", "1", "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {init}:2: index outside the int64 range: '{index}'\n")

    @pytest.mark.parametrize("line", ["1_0", "\u0663"])
    def test_initial_index_spelled_otherwise_fails(self, tmp_path, capsys, line):
        feats = tmp_path / "x.svpt"
        write_tensor(np.arange(12.0)[:, None], feats)
        init = tmp_path / "init.txt"
        init.write_text(f"0\n{line}\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--budget", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {init}:2: not an integer: {line!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", ["+3", " 5 ", "07", "-0", "\t7", "1_0", "\u0663",
                                      "\uff13", "- 3", "3.0", "+-3", "0x3", "1e3"])
    def test_initial_index_takes_what_a_csv_integer_column_takes(self, tmp_path, line):
        init, table = tmp_path / "init.txt", tmp_path / "labels.csv"
        init.write_text(f"{line}\n", encoding="utf-8")
        table.write_text(f"example_id,label\n0,{line}\n", encoding="utf-8")
        try:
            expected = read_csv(str(table), LABELS_CSV)["label"].tolist()
        except InvalidValueError:
            with pytest.raises(InvalidValueError, match="not an integer"):
                cli._read_index_file(str(init))
        else:
            assert cli._read_index_file(str(init)).tolist() == expected

    def test_non_utf8_initial_file_names_file_and_line(self, tmp_path, capsys):
        feats = self.features_file(tmp_path)
        init = tmp_path / "init.txt"
        init.write_bytes(b"1\n2\xff\n")
        assert main(["kcenters", "--features", str(feats), "--initial", str(init),
                     "--budget", "1", "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {init}: line 2: malformed row ('utf-8' codec can't decode byte 0xff "
            f"in position 1: invalid start byte)\n")


class TestForget:
    def expected_csv(self, tmp_path):
        ref = tmp_path / "ref.csv"
        write_forgetting_csv(process_log(LOG), ref)
        return ref.read_text()

    def test_binary_log(self, tmp_path):
        log_path = tmp_path / "run.svpl"
        out = tmp_path / "forget.csv"
        write_train_log(LOG, log_path)
        assert main(["forget", "--log", str(log_path), "--out", str(out)]) == 0
        assert out.read_text() == self.expected_csv(tmp_path)

    def test_csv_log(self, tmp_path):
        log_path = tmp_path / "run.csv"
        rows = ["example_id,epoch,correct"]
        for i in range(LOG.shape[0]):
            for e in range(LOG.shape[1]):
                rows.append(f"{i},{e},{int(LOG[i, e])}")
        log_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "forget.csv"
        assert main(["forget", "--log", str(log_path), "--out", str(out)]) == 0
        assert out.read_text() == self.expected_csv(tmp_path)

    def test_select_prints_ids(self, tmp_path, capsys):
        log_path = tmp_path / "run.svpl"
        write_train_log(LOG, log_path)
        assert main(["forget", "--log", str(log_path), "--out", str(tmp_path / "f.csv"),
                     "--select", "2"]) == 0
        # Example 2 was never learned, example 0 has one forgetting event.
        assert capsys.readouterr().out == "2\n0\n"

    def test_select_zero_prints_nothing(self, tmp_path, capsys):
        log_path = tmp_path / "run.svpl"
        write_train_log(LOG, log_path)
        out = tmp_path / "f.csv"
        assert main(["forget", "--log", str(log_path), "--out", str(out), "--select", "0"]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == self.expected_csv(tmp_path)

    @pytest.mark.parametrize("m", ["11", "-1"])
    def test_impossible_select_leaves_no_output(self, tmp_path, capsys, m):
        log_path = tmp_path / "log.svpl"
        write_train_log(np.tile(LOG, (4, 1))[:10], log_path)
        out = tmp_path / "f.csv"
        assert main(["forget", "--log", str(log_path), "--out", str(out),
                     "--select", m]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.svpl"]

    @pytest.mark.parametrize("m, message", [
        ("30", "--select=30 exceeds the 20 candidates"),
        ("-1", "--select must be nonnegative, got -1"),
    ])
    def test_select_error_names_the_flag(self, tmp_path, capsys, m, message):
        log_path = tmp_path / "log.svpl"
        write_train_log(np.tile(LOG, (7, 1))[:20], log_path)
        out = tmp_path / "f.csv"
        assert main(["forget", "--log", str(log_path), "--out", str(out), "--select", m]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_truncated_binary(self, tmp_path):
        log_path = tmp_path / "run.svpl"
        write_train_log(LOG, log_path)
        log_path.write_bytes(log_path.read_bytes()[:-2])
        assert main(["forget", "--log", str(log_path), "--out", str(tmp_path / "f.csv")]) == 1

    def test_tensor_file_fails_on_its_magic(self, tmp_path, capsys):
        path = tmp_path / "train.svpt"
        write_tensor(PROBS, path)
        assert main(["forget", "--log", str(path), "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == f"error: {path}: bad magic b'SVPT', expected b'SVPL'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["train.svpt"]

    def test_malformed_csv(self, tmp_path):
        log_path = tmp_path / "run.csv"
        log_path.write_text("example_id,epoch,correct\n0,0,maybe\n")
        assert main(["forget", "--log", str(log_path), "--out", str(tmp_path / "f.csv")]) == 1

    @pytest.mark.parametrize("name", ["run.svpl", "run.csv"])
    def test_pipe_is_refused(self, tmp_path, capsys, name):
        # The log is read once to choose its reader and again by that reader.
        log_path = tmp_path / name
        if name.endswith(".svpl"):
            write_train_log(LOG, log_path)
        else:
            cells = [f"{i},{e},{int(LOG[i, e])}" for i in range(3) for e in range(2)]
            log_path.write_text("\n".join(["example_id,epoch,correct", *cells]) + "\n")
        out = tmp_path / "f.csv"
        with pipe_path(log_path.read_bytes()) as pipe:
            assert main(["forget", "--log", pipe, "--out", str(out), "--select", "1"]) == 1
        assert capsys.readouterr() == ("", refused_pipe(pipe))
        assert not out.exists()


class TestCorrelate:
    def scores_file(self, tmp_path, name, values):
        path = tmp_path / name
        write_scores_csv(np.asarray(values, dtype=np.float64), path)
        return path

    def test_perfectly_aligned(self, tmp_path, capsys):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0])
        b = self.scores_file(tmp_path, "b.csv", [10.0, 20.0, 30.0])
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 0
        assert capsys.readouterr().out == "spearman=1.000000 pearson=1.000000 n=3\n"

    def test_accepts_kcenters_order_file(self, tmp_path, capsys):
        a = self.scores_file(tmp_path, "a.csv", [0.5, 0.25, 0.75])
        b = tmp_path / "order.csv"
        b.write_text("rank,example_id,min_dist\n1,2,5.0\n2,0,3.0\n3,1,1.0\n")
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("spearman=1.000000 ")
        assert out.endswith(" n=3\n")

    def test_ranks_flag_makes_pearson_match_spearman(self, tmp_path, capsys):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 5.0, 2.0, 4.0])
        b = self.scores_file(tmp_path, "b.csv", [100.0, 3.0, 2.5, 7.0])
        assert main(["correlate", "--a", str(a), "--b", str(b), "--ranks"]) == 0
        out = capsys.readouterr().out
        fields = dict(part.split("=") for part in out.split())
        assert fields["spearman"] == fields["pearson"]

    @pytest.mark.parametrize("ranks", [False, True])
    def test_each_series_is_ranked_once(self, tmp_path, monkeypatch, ranks):
        # --ranks correlates the ranks directly; ranking them again only
        # reverses both series and leaves the correlation unchanged.
        calls = []

        def counted(scores):
            calls.append(len(scores))
            return scores_to_ranks(scores)

        monkeypatch.setattr(cli, "scores_to_ranks", counted)
        monkeypatch.setattr(ranking_diag, "scores_to_ranks", counted)
        a = self.scores_file(tmp_path, "a.csv", [1.0, 5.0, 2.0, 4.0])
        b = self.scores_file(tmp_path, "b.csv", [100.0, 3.0, 2.5, 7.0])
        assert main(["correlate", "--a", str(a), "--b", str(b)] + ["--ranks"] * ranks) == 0
        assert calls == [4, 4]

    def test_mismatched_ids(self, tmp_path):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0])
        b = tmp_path / "order.csv"
        b.write_text("rank,example_id,min_dist\n1,5,5.0\n2,0,3.0\n3,1,1.0\n")
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1

    def test_order_file_with_a_repeated_id(self, tmp_path, capsys):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0])
        b = tmp_path / "order.csv"
        b.write_text("rank,example_id,min_dist\n1,2,5.0\n2,0,3.0\n3,2,1.0\n")
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1
        assert capsys.readouterr().err == f"error: {b}: duplicate example ids\n"

    def test_each_score_file_is_parsed_once(self, tmp_path, capsys, monkeypatch):
        # A non-finite score is found by line from the one parse the reader
        # makes, not from a second read of the file.
        parsed = []

        def counted(path, columns):
            parsed.append(str(path))
            return read_csv(path, columns)

        monkeypatch.setattr(tensor_io, "read_csv", counted)
        monkeypatch.setattr(cli, "read_csv", counted)
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0])
        b = tmp_path / "b.csv"
        b.write_text("example_id,score\n2,3.0\n0,nan\n1,1.0\n")
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1
        assert capsys.readouterr().err == f"error: {b}: line 3: score must be finite, got nan\n"
        assert parsed == [str(a), str(b)]

    def test_unrecognized_header(self, tmp_path):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0])
        b = tmp_path / "b.csv"
        b.write_text("id,value\n0,1.0\n1,2.0\n")
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1

    @pytest.mark.parametrize(
        "data,line,position",
        [(b"example_id,sc\xffore\n0,1.0\n1,2.0\n", 1, 13),
         (b"example_id,score\n0,1.0\n1,\xff2.0\n", 3, 2)],
        ids=["header", "body"],
    )
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys, data, line, position):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0])
        b = tmp_path / "b.csv"
        b.write_bytes(data)
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1
        assert capsys.readouterr().err == (
            f"error: {b}: line {line}: malformed row ('utf-8' codec can't decode byte 0xff "
            f"in position {position}: invalid start byte)\n")

    @pytest.mark.parametrize("ranks", [False, True], ids=["scores", "ranks"])
    def test_nan_score_names_file_and_line(self, tmp_path, capsys, ranks):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0])
        b = tmp_path / "b.csv"
        b.write_text("example_id,score\n2,3.0\n0,nan\n1,inf\n")
        argv = ["correlate", "--a", str(a), "--b", str(b)] + ["--ranks"] * ranks
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {b}: line 3: score must be finite, got nan\n"

    def test_infinite_rank_names_file_and_line(self, tmp_path, capsys):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0])
        b = tmp_path / "order.csv"
        b.write_text("rank,example_id,min_dist\n1,2,5.0\n2,0,3.0\ninf,1,1.0\n")
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1
        assert capsys.readouterr().err == f"error: {b}: line 4: rank must be finite, got inf\n"

    @pytest.mark.parametrize("layout", ["scores", "order"])
    def test_pipe_is_refused(self, tmp_path, capsys, layout):
        # The header is read to choose the reader, which reads the file again.
        a = self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0])
        data = (a.read_bytes() if layout == "scores"
                else b"rank,example_id,min_dist\n1,2,5.0\n2,0,3.0\n3,1,1.0\n")
        with pipe_path(data) as pipe:
            assert main(["correlate", "--a", pipe, "--b", str(a)]) == 1
        assert capsys.readouterr() == ("", refused_pipe(pipe))

    def test_constant_input_fails_cleanly(self, tmp_path, capsys):
        a = self.scores_file(tmp_path, "a.csv", [1.0, 1.0, 1.0])
        b = self.scores_file(tmp_path, "b.csv", [1.0, 2.0, 3.0])
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("ranks", [False, True], ids=["scores", "ranks"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_constant_side_names_its_file(self, tmp_path, capsys, side, ranks):
        files = {"a": self.scores_file(tmp_path, "a.csv", [1.0, 2.0, 3.0]),
                 "b": self.scores_file(tmp_path, "b.csv", [3.0, 1.0, 2.0])}
        files[side] = self.scores_file(tmp_path, "flat.csv", [0.5, 0.5, 0.5])
        argv = ["correlate", "--a", str(files["a"]), "--b", str(files["b"])] + ["--ranks"] * ranks
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: {files[side]}: every value is equal, so there is nothing to correlate\n")

    def test_one_row_files_name_the_first_file(self, tmp_path, capsys):
        a = self.scores_file(tmp_path, "a.csv", [1.0])
        b = self.scores_file(tmp_path, "b.csv", [2.0])
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 1
        assert capsys.readouterr().err == (
            f"error: {a}: every value is equal, so there is nothing to correlate\n")


class TestRunCommands:
    def test_coreset_to_stdout(self, tmp_path, capsys):
        cfg = coreset_config(tmp_path)
        assert main(["coreset", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["round_sizes"] == [30]
        assert doc["config"]["task"] == "coreset"

    def test_coreset_output_files_and_idempotence(self, tmp_path):
        def stripped(run_dir):
            run_dir.mkdir()
            cfg = coreset_config(run_dir, output=str(run_dir / "run.json"))
            assert main(["coreset", "--config", str(cfg)]) == 0
            doc = json.loads((run_dir / "run.json").read_text())
            doc["report"].pop("timing")
            doc["config"].pop("output")
            rounds = (run_dir / "run.rounds.csv").read_text().splitlines()
            rounds = [",".join(line.split(",")[:3]) for line in rounds]
            return doc, rounds

        first = stripped(tmp_path / "one")
        second = stripped(tmp_path / "two")
        assert first == second

    def test_failed_rounds_csv_leaves_no_report(self, tmp_path, capsys, monkeypatch):
        cfg = coreset_config(tmp_path, output=str(tmp_path / "run.json"))
        real_open = os.open
        calls = []

        def open_failing_second_temp_file(path, *args, **kwargs):
            if os.path.basename(path).startswith(".svp-tmp-"):
                calls.append(path)
                if len(calls) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", open_failing_second_temp_file)
        assert main(["coreset", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            f"'{tmp_path / 'run.rounds.csv'}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_directory_at_rounds_csv_leaves_no_report(self, tmp_path, capsys):
        rounds = tmp_path / "run.rounds.csv"
        rounds.mkdir()
        cfg = coreset_config(tmp_path, output=str(tmp_path / "run.json"))
        assert main(["coreset", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{rounds}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run.rounds.csv"]
        assert list(rounds.iterdir()) == []

    def test_task_mismatch(self, tmp_path):
        cfg = coreset_config(tmp_path)
        assert main(["al", "--config", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["coreset", "--config", str(tmp_path / "absent.json")]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert main(["coreset", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n")

    def test_non_utf8_config_names_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"task": "al\xff"}')
        assert main(["al", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 12: "
            "invalid start byte\n")

    def test_deeply_nested_config_names_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["al", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_al_run(self, tmp_path, capsys):
        cfg = coreset_config(
            tmp_path,
            drop=("subset_fraction",),
            task="al",
            method="least_confidence",
            budget_fraction=0.1,
            data={"synthetic": {"classes": 3, "dim": 4, "separation": 2.0, "noise": 1.0,
                                "n_train": 200, "n_test": 50, "seed": 11}},
        )
        assert main(["al", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["round_sizes"] == [4, 20]

    def test_al_run_with_batch_beyond_int64(self, tmp_path, capsys):
        # A batch of 2**63 rows is the whole labeled set, as one of n_train
        # rows is, so both runs report the same.
        reports = []
        for batch_size in (2**63, 200):
            cfg = coreset_config(
                tmp_path,
                drop=("subset_fraction",),
                task="al",
                method="least_confidence",
                budget_fraction=0.1,
                proxy={**SPEC, "batch_size": batch_size},
                target={**SPEC, "batch_size": batch_size, "seed": 2},
                data={"synthetic": SYNTH},
            )
            assert main(["al", "--config", str(cfg)]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            report = json.loads(out)["report"]
            report.pop("timing")
            reports.append(report)
        assert reports[0] == reports[1]


SYNTH = {"classes": 3, "dim": 4, "separation": 2.0, "noise": 1.0,
         "n_train": 200, "n_test": 50, "seed": 11}
SPEC = {"kind": "logistic", "epochs": 1, "learning_rate": 0.5, "batch_size": 16, "seed": 1}
SCHEDULE = {"initial": 0.02, "first": 0.08, "subsequent": 0.1}


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"proxy": [SPEC]}, "learner must be a JSON object"),
        ({"proxy": {**SPEC, "epochs": None}}, "epochs must be an integer"),
        ({"proxy": {**SPEC, "epochs": 2.9}}, "epochs must be an integer, got 2.9"),
        ({"proxy": {**SPEC, "batch_size": "16"}}, "batch_size must be an integer, got '16'"),
        ({"proxy": {**SPEC, "learning_rate": "0.5"}}, "learning_rate must be a number"),
        ({"target": {k: v for k, v in SPEC.items() if k != "seed"}}, "learner is missing ['seed']"),
        ({"seed": None}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": [5]}, "seed must be an integer"),
        ({"seed": float("inf")}, "seed must be an integer"),
        ({"budget_fraction": None}, "budget_fraction must be a number"),
        ({"budget_fraction": "0.1"}, "budget_fraction must be a number"),
        ({"baseline_seconds": [1.0]}, "baseline_seconds must be a number"),
        ({"data": 5}, "data must be a JSON object"),
        ({"data": {"synthetic": 5}}, "data.synthetic must be a JSON object"),
        ({"data": {"synthetic": {k: v for k, v in SYNTH.items() if k != "dim"}}},
         "data.synthetic is missing ['dim']"),
        ({"data": {"synthetic": {**SYNTH, "classes": "3"}}}, "classes must be an integer"),
        ({"data": {"synthetic": {**SYNTH, "noise": None}}}, "noise must be a number"),
        ({"data": {"synthetic": {**SYNTH, "classes": True}}}, "classes must be an integer"),
        ({"data": {"features": 5, "labels": 6, "test_features": 7, "test_labels": 8}},
         "data file paths must be strings"),
        ({"schedule": {"initial": 0.02, "first": 0.08, "subsequent": 0.1, "extra": 1}},
         "unknown schedule fields: ['extra']"),
        ({"schedule": {"initial": 0.02, "first": None, "subsequent": 0.1}},
         "schedule first must be a number"),
        ({"schedule": {"initial": 0.02, "first": "0.08", "subsequent": 0.1}},
         "schedule first must be a number"),
        ({"schedule": {"initial": 0.02, "first": 0.08}}, "schedule is missing ['subsequent']"),
        ({"schedule": [0.02]}, "schedule must be a JSON object"),
        ({"output": 5}, "output must be a path string"),
        *[({"task": task, **case}, fragment) for task in ("al", "coreset") for case, fragment in [
            ({"mesure_baseline": True}, "unknown config fields: ['mesure_baseline']"),
            ({"measure_baseline": "no"}, "measure_baseline must be true or false, got 'no'"),
            ({"measure_baseline": 0}, "measure_baseline must be true or false, got 0"),
            ({"measure_baseline": None}, "measure_baseline must be true or false, got None"),
            ({"baseline_seconds": None}, "baseline_seconds must be a number, got None"),
            ({"output": None}, "output must be a path string, got None"),
        ]],
        ({"subset_fraction": 0.5}, "unknown config fields: ['subset_fraction']"),
        ({"include_full_data_error": True}, "unknown config fields: ['include_full_data_error']"),
        ({"task": "coreset", "budget_fraction": 0.1}, "unknown config fields: ['budget_fraction']"),
        ({"task": "coreset", "schedule": {"initial": 0.02, "first": 0.08, "subsequent": 0.1}},
         "unknown config fields: ['schedule']"),
        ({"task": "coreset", "include_full_data_error": 1},
         "include_full_data_error must be true or false, got 1"),
        ({"schedule": {}}, "schedule is missing ['first', 'initial', 'subsequent']"),
        ({"schedule": None}, "schedule must be a JSON object, got NoneType"),
        *[({"task": task, "baseline_seconds": value}, "baseline_seconds must be finite and positive")
          for task in ("al", "coreset") for value in (-5, 0, float("nan"), float("inf"))],
        ({"method": "forgetting"}, f"al method must be one of {METHODS['al']}, got 'forgetting'"),
        *[({"task": task, "method": "bogus"}, f"{task} method must be one of {METHODS[task]}")
          for task in ("al", "coreset")],
        *[(case, f"{field} is too large for a float64") for case, field in [
            ({"proxy": {**SPEC, "learning_rate": 10**400}}, "learning_rate"),
            ({"budget_fraction": 10**400}, "budget_fraction"),
            ({"task": "coreset", "subset_fraction": 10**400}, "subset_fraction"),
            ({"baseline_seconds": 10**400}, "baseline_seconds"),
            *[({"schedule": {**SCHEDULE, name: 10**400}}, f"schedule {name}")
              for name in SCHEDULE],
            *[({"data": {"synthetic": {**SYNTH, name: 10**400}}}, name)
              for name in ("separation", "noise")],
        ]],
        ({"proxy": {**SPEC, "kind": "bogus", "epochs": None}}, "epochs must be an integer"),
        ({"data": {"synthetic": SYNTH, "test_lables": "y.csv"}},
         "unknown data fields: ['test_lables']"),
        ({"data": {"synthetic": SYNTH, "features": "x.svpt", "labels": "y.csv"}},
         "unknown data fields: ['features', 'labels']"),
        ({"data": {"features": "x.svpt", "labels": "y.csv", "test_features": "xt.svpt",
                   "test_labels": "yt.csv", "test_lables": "yt.csv"}},
         "unknown data fields: ['test_lables']"),
        ({"data": {}}, "data is missing ['features', 'labels', 'test_features', 'test_labels']"),
        *[({"data": {"synthetic": {**SYNTH, name: 1e308, "seed": 1}}},
           "synthetic features overflow float64") for name in ("separation", "noise")],
    ],
)
def test_malformed_config_is_one_line_error(tmp_path, capsys, monkeypatch, overrides, fragment):
    fits = []
    monkeypatch.setattr(harness, "fit", lambda *args, **kwargs: fits.append(args))
    task = overrides.get("task", "al")
    size = {"al": {"budget_fraction": 0.1}, "coreset": {"subset_fraction": 0.5}}[task]
    base = {"task": task, "method": "random", **size, "data": {"synthetic": SYNTH}}
    cfg = coreset_config(tmp_path, drop=("subset_fraction",), **{**base, **overrides})
    assert main([task, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err
    assert fits == []


@pytest.mark.parametrize("task", ["al", "coreset"])
def test_bad_method_is_reported_before_any_data_file_is_read(tmp_path, capsys, monkeypatch, task):
    reads = []
    monkeypatch.setattr(harness, "read_tensor", lambda *args, **kwargs: reads.append(args))
    size = {"al": {"budget_fraction": 0.1}, "coreset": {"subset_fraction": 0.5}}[task]
    files = {"features": "nope.svpt", "labels": "nope.csv",
             "test_features": "nope-test.svpt", "test_labels": "nope-test.csv"}
    data = {key: str(tmp_path / name) for key, name in files.items()}
    cfg = coreset_config(tmp_path, drop=("subset_fraction",), task=task, method="bogus",
                         data=data, **size)
    assert main([task, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {task} method must be one of {METHODS[task]}, got 'bogus'\n"
    assert reads == []


def test_top_level_list_config_is_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[]")
    assert main(["al", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "config must be a JSON object" in err


@pytest.mark.parametrize("role", ["proxy", "target"])
def test_diverged_fit_is_one_line_error(tmp_path, capsys, role):
    spec = {"kind": "mlp", "epochs": 2, "learning_rate": 1e300, "batch_size": 16,
            "seed": 3, "hidden_units": 8}
    cfg = coreset_config(tmp_path, **{role: spec})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["coreset", "--config", str(cfg)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == "error: training diverged at epoch 0: non-finite parameters\n"


@pytest.mark.usefixtures("address_space_cap")
class TestOversizedInputs:
    """Inputs whose arrays cannot be allocated exit 1 with one error line.

    numpy refuses each allocation (tens of TiB) before touching memory, so
    these cases are cheap.
    """

    HUGE = 10**13

    def assert_one_line_error(self, code, capsys):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "Unable to allocate" in err

    def test_synth_n_train(self, tmp_path, capsys):
        code = main(["synth", "--classes", "3", "--dim", "4", "--separation", "2.0",
                     "--noise", "1.0", "--n-train", str(self.HUGE), "--n-test", "8",
                     "--seed", "1", "--out-features", str(tmp_path / "x.svpt"),
                     "--out-labels", str(tmp_path / "y.csv")])
        self.assert_one_line_error(code, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_config_n_train(self, tmp_path, capsys):
        cfg = coreset_config(tmp_path, data={"synthetic": {**SYNTH, "n_train": self.HUGE}})
        self.assert_one_line_error(main(["coreset", "--config", str(cfg)]), capsys)

    def test_config_hidden_units(self, tmp_path, capsys):
        target = {"kind": "mlp", "epochs": 1, "learning_rate": 0.3, "batch_size": 16,
                  "seed": 2, "hidden_units": self.HUGE}
        cfg = coreset_config(tmp_path, target=target)
        self.assert_one_line_error(main(["coreset", "--config", str(cfg)]), capsys)

    @pytest.mark.parametrize("hidden_units", [2**63, 2**64])
    def test_config_hidden_units_beyond_int64(self, tmp_path, capsys, hidden_units):
        target = {"kind": "mlp", "epochs": 1, "learning_rate": 0.3, "batch_size": 16,
                  "seed": 2, "hidden_units": hidden_units}
        cfg = coreset_config(tmp_path, target=target)
        assert main(["coreset", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("field,target", [
    ("epochs", {**SPEC, "epochs": 2**63, "seed": 2}),
    ("hidden_units", {**SPEC, "kind": "mlp", "hidden_units": 2**63, "seed": 2}),
])
def test_learner_field_too_large_for_an_array_is_named(tmp_path, capsys, field, target):
    # The target's training log (n x epochs) or first weight matrix
    # (d x hidden_units) would pass 2**63 - 1 bytes; the run names the field.
    cfg = coreset_config(tmp_path, drop=("subset_fraction",), task="al",
                         method="least_confidence", budget_fraction=0.1, proxy=SPEC,
                         target=target, data={"synthetic": SYNTH})
    assert main(["al", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {field}=9223372036854775808: ")
    assert err.endswith(" is too large for an array\n") and err.count("\n") == 1


def synth_argv(tmp_path, **flags):
    """An ``svp synth`` call writing ``x.svpt`` and ``y.csv`` in ``tmp_path``;
    ``flags`` override the generator flags by name."""
    values = {"classes": "2", "dim": "3", "separation": "1.0", "noise": "1.0",
              "n_train": "20", "n_test": "8", "seed": "7", **flags}
    argv = ["synth"]
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), value]
    return argv + ["--out-features", str(tmp_path / "x.svpt"),
                   "--out-labels", str(tmp_path / "y.csv")]


class TestSynth:
    def test_flags_and_their_types(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        actions = {a.option_strings[0]: a for a in sub.choices["synth"]._actions}
        required = {flag: a.type for flag, a in actions.items() if a.required}
        integer = cli._integer
        assert required == {
            "--classes": integer, "--dim": integer, "--separation": float, "--noise": float,
            "--n-train": integer, "--n-test": integer, "--out-features": None,
            "--out-labels": None,
        }
        assert actions["--seed"].type is integer and actions["--seed"].default is None
        assert set(actions) - set(required) == {
            "-h", "--seed", "--out-test-features", "--out-test-labels"}

    @pytest.mark.parametrize("flag", ["separation", "noise"])
    def test_infinite_real_flag_is_refused(self, tmp_path, capsys, flag):
        assert main(synth_argv(tmp_path, **{flag: "inf"})) == 1
        assert capsys.readouterr().err == "error: separation and noise must be finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["classes", "dim", "n_train", "n_test"])
    def test_size_too_large_for_an_array_is_named(self, tmp_path, capsys, flag):
        assert main(synth_argv(tmp_path, **{flag: str(2**63 - 1)})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{flag}={2**63 - 1}" in err and err.endswith(" is too large for an array\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [("classes", "2.5"), ("n_train", "1e3")])
    def test_integer_flags_refuse_other_numbers(self, tmp_path, flag, value):
        assert main(synth_argv(tmp_path, **{flag: value})) == 2
        assert list(tmp_path.iterdir()) == []

    def test_integral_separation_is_the_float(self, tmp_path):
        blobs = []
        for sub, separation in (("int", "1"), ("float", "1.0")):
            d = tmp_path / sub
            d.mkdir()
            assert main(synth_argv(d, separation=separation)) == 0
            blobs.append(((d / "x.svpt").read_bytes(), (d / "y.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_generates_readable_files(self, tmp_path):
        args = ["synth", "--classes", "3", "--dim", "4", "--separation", "2.0",
                "--noise", "1.0", "--n-train", "30", "--n-test", "12", "--seed", "5",
                "--out-features", str(tmp_path / "x.svpt"),
                "--out-labels", str(tmp_path / "y.csv"),
                "--out-test-features", str(tmp_path / "xt.svpt"),
                "--out-test-labels", str(tmp_path / "yt.csv")]
        assert main(args) == 0
        assert read_tensor(tmp_path / "x.svpt").shape == (30, 4)
        assert read_labels_csv(tmp_path / "y.csv").shape == (30,)
        assert read_tensor(tmp_path / "xt.svpt").shape == (12, 4)
        assert read_labels_csv(tmp_path / "yt.csv").shape == (12,)

    def test_reproducible(self, tmp_path):
        blobs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            assert main(["synth", "--classes", "2", "--dim", "3", "--separation", "1.0",
                         "--noise", "1.0", "--n-train", "20", "--n-test", "8",
                         "--seed", "7",
                         "--out-features", str(d / "x.svpt"),
                         "--out-labels", str(d / "y.csv")]) == 0
            blobs.append((d / "x.svpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_test_outputs_must_pair(self, tmp_path):
        assert main(["synth", "--classes", "2", "--dim", "3", "--separation", "1.0",
                     "--noise", "1.0", "--n-train", "20", "--n-test", "8", "--seed", "7",
                     "--out-features", str(tmp_path / "x.svpt"),
                     "--out-labels", str(tmp_path / "y.csv"),
                     "--out-test-features", str(tmp_path / "xt.svpt")]) == 2

    def test_failed_test_output_leaves_no_output(self, tmp_path, capsys):
        assert main(["synth", "--classes", "2", "--dim", "3", "--separation", "1.0",
                     "--noise", "1.0", "--n-train", "20", "--n-test", "8", "--seed", "7",
                     "--out-features", str(tmp_path / "x.svpt"),
                     "--out-labels", str(tmp_path / "y.csv"),
                     "--out-test-features", str(tmp_path / "missing" / "t.svpt"),
                     "--out-test-labels", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_directory_at_labels_path_leaves_no_output(self, tmp_path, capsys):
        labels = tmp_path / "y.csv"
        labels.mkdir()
        assert main(["synth", "--classes", "2", "--dim", "3", "--separation", "1.0",
                     "--noise", "1.0", "--n-train", "20", "--n-test", "8", "--seed", "7",
                     "--out-features", str(tmp_path / "x.svpt"),
                     "--out-labels", str(labels)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{labels}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["y.csv"]
        assert list(labels.iterdir()) == []

    # The error names the second output as it was given.
    @pytest.mark.parametrize("outputs, second", [
        (("a.svpt", "y.csv", "a.svpt", "t.csv"), "a.svpt"),
        (("x", "x"), "x"),
        (("x", "./x"), "./x"),
    ], ids=["features-and-test-features", "features-and-labels", "one-file-spelled-twice"])
    def test_two_outputs_to_one_file_leave_no_output(self, tmp_path, capsys, outputs, second):
        flags = ("--out-features", "--out-labels", "--out-test-features", "--out-test-labels")
        argv = synth_argv(tmp_path)[:-4]
        for flag, name in zip(flags, outputs):
            argv += [flag, f"{tmp_path}/{name}"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}/{second}: two outputs of one write go to this file\n")
        assert list(tmp_path.iterdir()) == []

    def test_requires_seed(self, tmp_path):
        assert main(["synth", "--classes", "2", "--dim", "3", "--separation", "1.0",
                     "--noise", "1.0", "--n-train", "20", "--n-test", "8",
                     "--out-features", str(tmp_path / "x.svpt"),
                     "--out-labels", str(tmp_path / "y.csv")]) == 2

    @pytest.mark.parametrize("flag", ["separation", "noise"])
    def test_overflowing_features_are_a_one_line_error(self, tmp_path, capsys, flag):
        argv = synth_argv(tmp_path, classes="3", dim="4", n_train="30", n_test="6", seed="1")
        argv[argv.index("--" + flag) + 1] = "1e308"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic features overflow float64") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_params(self, tmp_path):
        assert main(["synth", "--classes", "1", "--dim", "3", "--separation", "1.0",
                     "--noise", "1.0", "--n-train", "20", "--n-test", "8", "--seed", "7",
                     "--out-features", str(tmp_path / "x.svpt"),
                     "--out-labels", str(tmp_path / "y.csv")]) == 1


class TestIntegerFlags:
    """Every integer flag, and ``SVP_SEED``, is spelled as an index line is:
    ASCII digits with an optional sign and surrounding spaces."""

    PLACES = ["--initial-size", "--budget", "--seed", "SVP_SEED", "--select", "--classes",
              "--dim", "--n-train", "--n-test", "synth --seed"]

    def run(self, tmp_path, monkeypatch, place, value):
        """``svp`` with ``value`` at ``place`` in an otherwise valid call whose
        inputs are in ``tmp_path / "in"``; returns the exit code and the
        output files, by name."""
        inputs = tmp_path / "in"
        inputs.mkdir(exist_ok=True)
        write_tensor(np.array([[0.0], [1.0], [10.0]]), inputs / "x.svpt")
        write_train_log(LOG, inputs / "log.svpl")
        kcenters = ["kcenters", "--features", str(inputs / "x.svpt"),
                    "--out", str(tmp_path / "o.csv"), "--initial-size", "1", "--budget", "1"]
        if place == "SVP_SEED":
            monkeypatch.setenv("SVP_SEED", value)
            argv = kcenters
        elif place in ("--initial-size", "--budget", "--seed"):
            argv = kcenters + ["--seed", "0"]
            argv[argv.index(place) + 1] = value
        elif place == "--select":
            argv = ["forget", "--log", str(inputs / "log.svpl"), "--out", str(tmp_path / "o.csv"),
                    "--select", value]
        else:
            argv = synth_argv(tmp_path, **{place.split("--")[1].replace("-", "_"): value})
        code = main(argv)
        return code, {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != inputs}

    @pytest.mark.parametrize("value", ["1_0", "\u0663"])
    @pytest.mark.parametrize("place", PLACES)
    def test_other_spellings_are_usage_errors(self, tmp_path, capsys, monkeypatch, place, value):
        assert self.run(tmp_path, monkeypatch, place, value) == (2, {})
        out, err = capsys.readouterr()
        assert out == ""
        if place == "SVP_SEED":
            assert err == f"error: SVP_SEED must be an integer, got {value!r}\n"
        else:
            assert err.endswith(f"error: argument {place.split()[-1]}: not an integer: {value!r}\n")

    @pytest.mark.parametrize("value", ["+2", " 2 ", "02"])
    @pytest.mark.parametrize("place", PLACES)
    def test_sign_spaces_and_zeros_parse(self, tmp_path, capsys, monkeypatch, place, value):
        code, files = self.run(tmp_path, monkeypatch, place, value)
        out = capsys.readouterr().out
        assert code == 0 and files
        assert self.run(tmp_path, monkeypatch, place, "2") == (0, files)
        assert capsys.readouterr().out == out


class TestDispatch:
    def test_no_subcommand(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["rank-everything"]) == 2
