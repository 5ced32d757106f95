import contextlib
import os
import stat
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svp.tensor_io as tensor_io
from helpers import (
    read_csv_oracle,
    tensor_file_oracle,
    traced_peak,
    train_log_file_oracle,
    write_csv_oracle,
)
from svp.forgetting import process_log, write_forgetting_csv
from svp.kcenters import greedy_kcenters, write_order_csv
from svp.rng import SplitMix64
from svp.tensor_io import (
    FORGETTING_CSV,
    LABELS_CSV,
    LOG_CSV,
    ORDER_CSV,
    SCORES_CSV,
    BadMagicError,
    FormatError,
    InvalidHeaderError,
    InvalidValueError,
    ProbMatrixError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
    read_csv,
    read_labels_csv,
    read_scores_csv,
    read_tensor,
    read_train_log,
    read_train_log_csv,
    staged_writes,
    validate_prob_matrix,
    write_csv,
    write_labels_csv,
    write_scores_csv,
    write_tensor,
    write_train_log,
)

HEADER = struct.Struct("<4sHBBQQ")


def tensor_bytes(magic=b"SVPT", version=1, dtype=0, reserved=0, rows=2, cols=2, payload=None):
    if payload is None:
        payload = np.zeros(rows * cols, dtype="<f4").tobytes()
    return HEADER.pack(magic, version, dtype, reserved, rows, cols) + payload


class TestTensorFormat:
    def test_identity_layout_oracle(self, tmp_path):
        # 24-byte header + 4 f32 = 40 bytes; fields independently unpacked.
        path = str(tmp_path / "t.svpt")
        write_tensor(np.eye(2), path)
        data = open(path, "rb").read()
        assert len(data) == 24 + 16
        magic, version, dtype, reserved, rows, cols = HEADER.unpack_from(data)
        assert (magic, version, dtype, reserved, rows, cols) == (b"SVPT", 1, 0, 0, 2, 2)
        assert struct.unpack("<4f", data[24:]) == (1.0, 0.0, 0.0, 1.0)

    def test_write_is_byte_deterministic(self, tmp_path):
        m = np.arange(6, dtype=np.float32).reshape(2, 3) / 7
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        write_tensor(m, a)
        write_tensor(m, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    @given(
        m=arrays(
            np.float32,
            st.tuples(st.integers(1, 7), st.integers(1, 5)),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    @settings(max_examples=60)
    def test_round_trip_exact(self, m, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rt") / "m.svpt")
        write_tensor(m, path)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.tobytes() == np.ascontiguousarray(m).tobytes()

    def test_write_rejects_invalid(self, tmp_path):
        path = str(tmp_path / "x.svpt")
        with pytest.raises(ValueError):
            write_tensor(np.zeros((0, 3)), path)
        with pytest.raises(ValueError):
            write_tensor(np.array([1.0, 2.0]), path)
        with pytest.raises(ValueError):
            write_tensor(np.array([[np.nan]]), path)
        with pytest.raises(ValueError):
            write_tensor(np.array([[1e39]]), path)  # overflows float32
        assert not path_exists_with_content(path)

    def test_read_error_classes(self, tmp_path):
        cases = [
            (tensor_bytes(magic=b"XXXX"), BadMagicError),
            (tensor_bytes(version=2), UnsupportedVersionError),
            (tensor_bytes(dtype=1), UnsupportedDtypeError),
            # The dtype is checked before the payload length.
            (tensor_bytes(dtype=1, payload=np.zeros(3, "<f4").tobytes()), UnsupportedDtypeError),
            (tensor_bytes(reserved=9), InvalidHeaderError),
            (tensor_bytes(rows=0), InvalidHeaderError),
            (tensor_bytes(cols=0), InvalidHeaderError),
            (tensor_bytes(rows=3, cols=3, payload=np.zeros(8, "<f4").tobytes()), TruncatedPayloadError),
            (tensor_bytes(payload=np.zeros(5, "<f4").tobytes()), FormatError),  # trailing
            (tensor_bytes()[:10], TruncatedPayloadError),
            (b"", TruncatedPayloadError),
        ]
        for i, (blob, err) in enumerate(cases):
            path = str(tmp_path / f"bad{i}.svpt")
            open(path, "wb").write(blob)
            with pytest.raises(err):
                read_tensor(path)

    def test_read_rejects_nonfinite_payload(self, tmp_path):
        payload = np.array([np.inf, 0, 0, 0], "<f4").tobytes()
        path = str(tmp_path / "inf.svpt")
        open(path, "wb").write(tensor_bytes(payload=payload))
        with pytest.raises(InvalidValueError):
            read_tensor(path)

    def test_no_temp_residue(self, tmp_path):
        write_tensor(np.eye(3), str(tmp_path / "ok.svpt"))
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".svp-tmp-")]
        assert leftovers == []


def path_exists_with_content(path):
    import os

    return os.path.exists(path)


class TestProbValidation:
    def test_accepts_valid(self):
        m = validate_prob_matrix(np.array([[0.5, 0.5], [0.1, 0.9]]))
        assert m.shape == (2, 2)

    def test_row_sum_reported(self):
        with pytest.raises(ProbMatrixError) as exc:
            validate_prob_matrix(np.array([[0.5, 0.5], [0.5, 0.6]]))
        assert str(exc.value) == "row 1 sums to 1.1, expected 1 within 1e-05"

    def test_negative_entry_beats_sum_check(self):
        with pytest.raises(ProbMatrixError) as exc:
            validate_prob_matrix(np.array([[1.0 + 5e-6, -5e-6]]))
        assert str(exc.value) == "row 0 has an entry outside [0, 1]"

    def test_tolerance_boundary(self):
        validate_prob_matrix(np.array([[0.5, 0.5 + 9e-6]]))
        with pytest.raises(ProbMatrixError):
            validate_prob_matrix(np.array([[0.5, 0.5 + 2e-5]]))

    def test_first_offending_row(self):
        m = np.full((5, 2), 0.5)
        m[2] = [0.9, 0.9]
        m[4] = [0.9, 0.9]
        with pytest.raises(ProbMatrixError) as exc:
            validate_prob_matrix(m)
        assert str(exc.value).startswith("row 2 sums to 1.8,")

    def test_needs_two_classes(self):
        with pytest.raises(ProbMatrixError):
            validate_prob_matrix(np.ones((3, 1)))


class TestTrainLogFormat:
    def test_single_example_layout(self, tmp_path):
        path = str(tmp_path / "l.svpl")
        write_train_log(np.array([[1, 0, 1]], dtype=bool), path)
        data = open(path, "rb").read()
        assert len(data) == 24 + 3
        magic, version, reserved, n, steps = struct.unpack_from("<4sHHQQ", data)
        assert (magic, version, reserved, n, steps) == (b"SVPL", 1, 0, 1, 3)
        assert data[24:] == bytes([1, 0, 1])

    @given(log=arrays(np.bool_, st.tuples(st.integers(1, 9), st.integers(1, 9))))
    @settings(max_examples=60)
    def test_round_trip(self, log, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("log") / "l.svpl")
        write_train_log(log, path)
        assert np.array_equal(read_train_log(path), log)

    def test_error_classes(self, tmp_path):
        good = struct.pack("<4sHHQQ", b"SVPL", 1, 0, 1, 3) + bytes([1, 0, 1])
        cases = [
            (b"SVPT" + good[4:], BadMagicError),
            (struct.pack("<4sHHQQ", b"SVPL", 3, 0, 1, 3) + bytes(3), UnsupportedVersionError),
            (struct.pack("<4sHHQQ", b"SVPL", 1, 1, 1, 3) + bytes(3), InvalidHeaderError),
            (struct.pack("<4sHHQQ", b"SVPL", 1, 0, 0, 3), InvalidHeaderError),
            (good[:-1], TruncatedPayloadError),
            (good + b"\x00", FormatError),
            (struct.pack("<4sHHQQ", b"SVPL", 1, 0, 1, 3) + bytes([1, 2, 1]), InvalidValueError),
            (good[:12], TruncatedPayloadError),
        ]
        for i, (blob, err) in enumerate(cases):
            path = str(tmp_path / f"bad{i}.svpl")
            open(path, "wb").write(blob)
            with pytest.raises(err):
                read_train_log(path)

    def test_write_rejects_nonbinary(self, tmp_path):
        with pytest.raises(ValueError):
            write_train_log(np.array([[0, 2]]), str(tmp_path / "x.svpl"))


def log_bytes(magic=b"SVPL", version=1, reserved=0, n=1, steps=3, payload=bytes([1, 0, 1])):
    return struct.pack("<4sHHQQ", magic, version, reserved, n, steps) + payload


# Files with two or more faults: each reader reports the first in the order
# length, magic, version, flag bytes, dims, truncation, trailing bytes, values.
MULTI_FAULT = {
    "svpt-short-bad-magic": (read_tensor, tensor_bytes(magic=b"XXXX")[:10],
                             TruncatedPayloadError, "file is 10 bytes, header needs 24"),
    "svpt-magic-version": (read_tensor, tensor_bytes(magic=b"SVPL", version=2),
                           BadMagicError, "bad magic b'SVPL', expected b'SVPT'"),
    "svpt-version-trailing": (read_tensor, tensor_bytes(version=2, payload=bytes(20)),
                              UnsupportedVersionError, "unsupported version 2"),
    "svpt-dtype-truncated": (read_tensor, tensor_bytes(dtype=1, payload=bytes(4)),
                             UnsupportedDtypeError, "unsupported dtype code 1"),
    "svpt-dtype-reserved": (read_tensor, tensor_bytes(dtype=1, reserved=1),
                            UnsupportedDtypeError, "unsupported dtype code 1"),
    "svpt-reserved-zero-dims": (read_tensor, tensor_bytes(reserved=1, rows=0),
                                InvalidHeaderError, "reserved byte must be 0"),
    "svpt-zero-dims-trailing": (read_tensor, tensor_bytes(cols=0, payload=bytes(8)),
                                InvalidHeaderError, "dimensions must be positive, got 2x0"),
    "svpt-truncated-nonfinite": (
        read_tensor, tensor_bytes(payload=np.full(3, np.inf, "<f4").tobytes()),
        TruncatedPayloadError, "payload holds 12 bytes, header promises 16"),
    "svpt-trailing-nonfinite": (
        read_tensor, tensor_bytes(payload=np.full(5, np.nan, "<f4").tobytes()),
        FormatError, "4 trailing bytes after payload"),
    "svpl-short-bad-magic": (read_train_log, b"SVPT" + log_bytes()[4:12],
                             TruncatedPayloadError, "file is 12 bytes, header needs 24"),
    "svpl-magic-reserved": (read_train_log, log_bytes(magic=b"SVPT", reserved=1),
                            BadMagicError, "bad magic b'SVPT', expected b'SVPL'"),
    "svpl-version-trailing": (read_train_log, log_bytes(version=3, payload=bytes(5)),
                              UnsupportedVersionError, "unsupported version 3"),
    "svpl-version-reserved": (read_train_log, log_bytes(version=3, reserved=1),
                              UnsupportedVersionError, "unsupported version 3"),
    "svpl-high-reserved-zero-dims": (read_train_log, log_bytes(reserved=0x100, n=0),
                                     InvalidHeaderError, "reserved bytes must be 0"),
    "svpl-zero-dims-truncated": (read_train_log, log_bytes(steps=0, payload=b""),
                                 InvalidHeaderError, "dimensions must be positive, got 1x0"),
    "svpl-truncated-bad-value": (read_train_log, log_bytes(payload=bytes([2, 1])),
                                 TruncatedPayloadError, "payload holds 2 bytes, header promises 3"),
    "svpl-trailing-bad-value": (read_train_log, log_bytes(payload=bytes([2, 1, 0, 1])),
                                FormatError, "1 trailing bytes after payload"),
}


@pytest.mark.parametrize("case", sorted(MULTI_FAULT))
def test_first_of_several_header_faults_is_reported(tmp_path, case):
    reader, blob, error, message = MULTI_FAULT[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as caught:
        reader(str(path))
    assert type(caught.value) is error
    assert str(caught.value) == f"{path}: {message}"


class TestBinaryReadIsLean:
    """Each binary read holds about one copy of its payload, and checks
    values and lengths the way a whole-file read did."""

    def test_read_tensor_peaks_near_one_payload(self, tmp_path):
        m = SplitMix64(5).normals((20000, 16)).astype(np.float32)
        path = str(tmp_path / "m.svpt")
        write_tensor(m, path)
        read_tensor(path)  # first-call imports are not the read's memory
        assert traced_peak(read_tensor, path) <= 1.1 * m.nbytes
        back = read_tensor(path)
        assert back.dtype == np.float32 and back.tobytes() == m.tobytes()

    def test_read_train_log_peaks_near_one_payload(self, tmp_path):
        log = SplitMix64(6).doubles(20000 * 64).reshape(20000, 64) < 0.3
        path = str(tmp_path / "l.svpl")
        write_train_log(log, path)
        read_train_log(path)
        assert traced_peak(read_train_log, path) <= 1.1 * log.size
        back = read_train_log(path)
        assert back.dtype == np.bool_ and np.array_equal(back, log)

    def test_values_beyond_the_first_block_are_checked(self, tmp_path):
        values = np.zeros(3 * 2**16 + 5, "<f4")
        values[2**16 + 7] = np.nan
        path = tmp_path / "m.svpt"
        path.write_bytes(tensor_bytes(rows=values.size, cols=1, payload=values.tobytes()))
        with pytest.raises(InvalidValueError, match="non-finite"):
            read_tensor(str(path))
        log = np.zeros(2**16 + 9, np.uint8)
        log[-1], path = 7, tmp_path / "l.svpl"
        path.write_bytes(log_bytes(n=log.size, steps=1, payload=log.tobytes()))
        with pytest.raises(InvalidValueError) as caught:
            read_train_log(str(path))
        assert str(caught.value) == f"{path}: log byte must be 0 or 1, found 7"

    def test_fifo_reads_as_a_regular_file(self, tmp_path):
        blob = tensor_bytes(rows=3, cols=2, payload=np.arange(6, dtype="<f4").tobytes())
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        try:
            back = read_tensor(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert back.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_file_shrinking_after_its_length_is_taken(self, tmp_path, monkeypatch):
        path = tmp_path / "m.svpt"
        path.write_bytes(tensor_bytes()[:-4])
        fstat = os.fstat

        def grown(fd):  # the length before the file lost its last value
            st = list(fstat(fd))
            st[stat.ST_SIZE] += 4
            return os.stat_result(st)

        monkeypatch.setattr(tensor_io.os, "fstat", grown)
        with pytest.raises(InvalidValueError) as caught:
            read_tensor(str(path))
        assert str(caught.value) == f"{path}: file changed while it was read"


class TestBinaryWriteIsLean:
    """Each binary write holds about one copy of its payload and writes the
    bytes of the copy-then-concatenate writer in ``helpers``."""

    def test_write_tensor_peaks_near_one_payload(self, tmp_path):
        m = SplitMix64(7).normals((20000, 16))
        path = str(tmp_path / "m.svpt")
        write_tensor(m, path)  # first-call imports are not the write's memory
        assert traced_peak(write_tensor, m, path) <= 1.1 * m.size * 4
        assert open(path, "rb").read() == tensor_file_oracle(m)

    def test_write_train_log_peaks_near_one_payload(self, tmp_path):
        log = SplitMix64(8).doubles(20000 * 64).reshape(20000, 64) < 0.3
        path = str(tmp_path / "l.svpl")
        write_train_log(log, path)
        assert traced_peak(write_train_log, log, path) <= 1.1 * log.size
        assert open(path, "rb").read() == train_log_file_oracle(log)

    @given(
        m=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 9)),
                 elements=st.floats(-3e38, 3e38)),
        log=arrays(np.bool_, st.tuples(st.integers(1, 40), st.integers(1, 9))),
    )
    @example(m=np.array([[0.1]]), log=np.array([[True]]))
    @settings(max_examples=60)
    def test_bytes_equal_the_oracle(self, m, log, tmp_path_factory):
        d = tmp_path_factory.mktemp("w")
        for matrix in (m, m.T):  # C order, and a transposed view in Fortran order
            write_tensor(matrix, str(d / "m.svpt"))
            assert (d / "m.svpt").read_bytes() == tensor_file_oracle(matrix)
        for table in (log, log.T):
            write_train_log(table, str(d / "l.svpl"))
            assert (d / "l.svpl").read_bytes() == train_log_file_oracle(table)

    def test_float32_overflow_past_the_first_block_writes_nothing(self, tmp_path):
        m = np.zeros((3 * 2**16 + 5, 1))
        m[2**16 + 7] = 1e39
        with pytest.raises(ValueError, match="overflow float32"):
            write_tensor(m, str(tmp_path / "m.svpt"))
        with pytest.raises(ValueError, match="overflow float32"):
            write_tensor(np.array([[1e39]]), str(tmp_path / "m.svpt"))
        assert os.listdir(tmp_path) == []


class TestTrainLogCsv:
    def test_valid_import(self, tmp_path):
        path = tmp_path / "log.csv"
        rows = ["example_id,epoch,correct"]
        log = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
        for ex in range(3):
            for ep in range(2):
                rows.append(f"{ex},{ep},{int(log[ex, ep])}")
        path.write_text("\n".join(rows) + "\n")
        assert np.array_equal(read_train_log_csv(str(path)), log)

    def test_order_does_not_matter(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("example_id,epoch,correct\n1,0,1\n0,1,0\n0,0,1\n1,1,1\n")
        assert np.array_equal(read_train_log_csv(str(path)), np.array([[1, 0], [1, 1]], dtype=bool))

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("example_id,epoch,acc\n0,0,1\n", "header"),
            ("example_id,epoch,correct\n0,0,1\n0,0,0\n", "duplicate"),
            ("example_id,epoch,correct\n0,0,1\n1,1,1\n", "missing"),
            ("example_id,epoch,correct\n0,0,2\n", "0 or 1"),
            ("example_id,epoch,correct\n0,0\n", "3 fields"),
            ("example_id,epoch,correct\nx,0,1\n", "non-integer"),
            ("example_id,epoch,correct\n-1,0,1\n", "negative"),
            ("example_id,epoch,correct\n", "no data"),
            ("example_id,epoch,correct\n0,0,1\n\n0,1,1\n", "line 3: expected 3 fields, got 0"),
            ('example_id,epoch,correct\n0,"0,1"\n', "expected 3 fields, got 2"),
            ("example_id,epoch,correct\n0,0,1.0\n", "line 2: malformed row, non-integer field correct"),
            ("example_id,epoch,correct\n0,0,0.7\n", "line 2: malformed row, non-integer field correct"),
            ("example_id,epoch,correct\n0,0,1\n0,1.5,1\n", "line 3: malformed row, non-integer field epoch"),
            ("example_id,epoch,correct\n2.9,0,1\n", "line 2: malformed row, non-integer field example_id"),
            ('example_id,epoch,correct\n0,0,"1\n0,1,0\n', "line 2: unterminated quoted field"),
            ('example_id,epoch,correct\n0,0,1\n0,1,0"\n1,0,1\n1,1,1\n', "line 3: unterminated quoted field"),
        ],
    )
    def test_rejects(self, tmp_path, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(InvalidValueError) as exc:
            read_train_log_csv(str(path))
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "body",
        [
            "example_id,epoch,correct\r\n0,0,1\r\n0,1,0\r\n",
            '"example_id","epoch","correct"\n"0","0","1"\n0,"1",0\n',
            "example_id,epoch,correct\n 0, 0 ,1\n0 ,1, 0 \n",
            "example_id,epoch,correct\n0,1,0\n0,0,1",
        ],
        ids=["crlf", "quoted", "space-padded", "no-final-newline"],
    )
    def test_accepts(self, tmp_path, body):
        path = tmp_path / "log.csv"
        path.write_bytes(body.encode())
        assert read_train_log_csv(str(path)).tolist() == [[True, False]]


BOTH_READERS = pytest.mark.parametrize(
    "reader,header",
    [(read_labels_csv, "example_id,label"), (read_scores_csv, "example_id,score")],
    ids=["labels", "scores"],
)


class TestAtomicWrites:
    @pytest.mark.parametrize("staged", [False, True], ids=["unstaged", "staged"])
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_mode_is_what_a_plain_open_gives(self, tmp_path, umask, staged):
        previous = os.umask(umask)
        try:
            with staged_writes() if staged else contextlib.nullcontext():
                write_labels_csv(np.array([0, 1]), str(tmp_path / "y.csv"))
            with open(tmp_path / "plain.csv", "w"):
                pass
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "y.csv").stat().st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)

    @pytest.mark.parametrize("staged", [False, True], ids=["unstaged", "staged"])
    def test_directory_target_is_refused_before_any_write(self, tmp_path, staged):
        target = tmp_path / "y.csv"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as caught:
            with staged_writes() if staged else contextlib.nullcontext():
                write_labels_csv(np.array([0, 1]), str(target))
        assert caught.value.filename == str(target)
        assert [p.name for p in tmp_path.iterdir()] == ["y.csv"]
        assert list(target.iterdir()) == []

    def test_a_file_the_block_writes_is_refused_before_a_second_temp_file(self, tmp_path):
        target = tmp_path / "y.csv"
        with pytest.raises(ValueError) as caught:
            with staged_writes():
                write_labels_csv(np.array([0, 1]), str(target))
                try:
                    write_scores_csv(np.array([0.5]), f"{tmp_path}/./y.csv")
                finally:
                    assert len(list(tmp_path.iterdir())) == 1  # the first write's temp file
        assert str(caught.value) == f"{tmp_path}/./y.csv: two outputs of one write go to this file"
        assert list(tmp_path.iterdir()) == []
        # Outside a block each write is a block of its own: the later one wins.
        write_labels_csv(np.array([0, 1]), str(target))
        write_labels_csv(np.array([1, 0]), str(target))
        assert read_labels_csv(str(target)).tolist() == [1, 0]

    def test_nested_block_renames_when_the_outermost_ends(self, tmp_path):
        with pytest.raises(ValueError, match="later fault"):
            with staged_writes():
                with staged_writes():
                    write_labels_csv(np.array([0, 1]), str(tmp_path / "y.csv"))
                assert [p.name.startswith(".svp-tmp-") for p in tmp_path.iterdir()] == [True]
                raise ValueError("later fault")
        assert list(tmp_path.iterdir()) == []


class TestThreads:
    """Writes and reads from two threads, ordered by events, not timing."""

    def test_a_block_holds_only_its_own_threads_writes(self, tmp_path):
        staged, release, faults = threading.Event(), threading.Event(), []

        def stage_a():
            try:
                with staged_writes():
                    write_labels_csv(np.array([0, 1]), str(tmp_path / "a.csv"))
                    staged.set()
                    assert release.wait(10)
            except BaseException as exc:
                faults.append(exc)
            finally:
                staged.set()

        thread = threading.Thread(target=stage_a)
        thread.start()
        try:
            assert staged.wait(10)
            write_labels_csv(np.array([1, 0]), str(tmp_path / "b.csv"))
            assert (tmp_path / "b.csv").exists()
            assert not (tmp_path / "a.csv").exists()
        finally:
            release.set()
            thread.join()
        assert faults == []
        assert read_labels_csv(str(tmp_path / "a.csv")).tolist() == [0, 1]

    def test_overlapping_reads_leave_the_warnings_filters_alone(self, tmp_path, monkeypatch):
        # Read a's parse begins, then read b's; a ends while b still parses.
        # A filter saved and restored around each parse would, in this order,
        # leave b's filter in place for the whole process.
        for name in "ab":
            write_scores_csv(np.array([0.5, 1.5]), str(tmp_path / f"{name}.csv"))
        parsing = {name: threading.Event() for name in "ab"}
        a_done, results, faults = threading.Event(), {}, []
        real_loadtxt = np.loadtxt

        def loadtxt(*args, **kwargs):
            if "max_rows" in kwargs:  # the data rows' parse, not the header's split
                name = threading.current_thread().name
                parsing[name].set()
                assert (parsing["b"] if name == "a" else a_done).wait(10)
            return real_loadtxt(*args, **kwargs)

        def read(name):
            try:
                results[name] = read_scores_csv(str(tmp_path / f"{name}.csv")).tolist()
            except BaseException as exc:
                faults.append(exc)
            finally:
                parsing[name].set()
                if name == "a":
                    a_done.set()

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with warnings.catch_warnings():
            before = list(warnings.filters)
            threads = {name: threading.Thread(target=read, args=(name,), name=name)
                       for name in "ab"}
            threads["a"].start()
            assert parsing["a"].wait(10)
            threads["b"].start()
            for thread in threads.values():
                thread.join()
            after = list(warnings.filters)
        assert faults == [] and results == {"a": [0.5, 1.5], "b": [0.5, 1.5]}
        assert after == before


class TestScoreAndLabelCsv:
    def test_scores_round_trip_full_precision(self, tmp_path):
        path = str(tmp_path / "s.csv")
        scores = np.array([0.1, 1 / 3, 7e-300, -2.5])
        write_scores_csv(scores, path)
        assert np.array_equal(read_scores_csv(path), scores)

    def test_scores_header_and_coverage(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("example_id,score\n0,1.0\n2,3.0\n")
        with pytest.raises(InvalidValueError):
            read_scores_csv(str(p))
        p.write_text("id,score\n0,1.0\n")
        with pytest.raises(InvalidValueError):
            read_scores_csv(str(p))

    def test_scores_must_be_finite_by_line(self, tmp_path):
        # The line is the first in file order, not in id order, and a
        # coverage fault is reported before a non-finite score.
        p = tmp_path / "s.csv"
        p.write_text("example_id,score\n2,3.0\n1,nan\n0,-inf\n")
        with pytest.raises(InvalidValueError) as exc:
            read_scores_csv(str(p))
        assert str(exc.value) == f"{p}: line 3: score must be finite, got nan"
        p.write_text("example_id,score\n2,3.0\n1,nan\n3,1.0\n")
        with pytest.raises(InvalidValueError, match="example_id column must cover"):
            read_scores_csv(str(p))

    def test_labels_round_trip(self, tmp_path):
        path = str(tmp_path / "l.csv")
        write_labels_csv(np.array([2, 0, 1, 1]), path)
        assert read_labels_csv(path).tolist() == [2, 0, 1, 1]
        with open(path, "rb") as fh:
            assert fh.read() == b"example_id,label\n0,2\n1,0\n2,1\n3,1\n"
        write_labels_csv(np.array([2.0, 0.0]), path)
        assert read_labels_csv(path).tolist() == [2, 0]

    @pytest.mark.parametrize(
        "labels",
        [[1.7, 0.2], [0, -1], [-1.0], [0.0, np.nan], [np.inf], ["1", "0"], [2**63], [2.0**63]],
        ids=["fractional", "negative-int", "negative-float", "nan", "inf", "strings",
             "uint64-2^63", "float-2^63"],
    )
    def test_write_labels_rejects_what_read_rejects(self, tmp_path, labels):
        path = tmp_path / "l.csv"
        with pytest.raises(ValueError, match="labels must be"):
            write_labels_csv(np.array(labels), str(path))
        assert not path.exists()

    @BOTH_READERS
    @pytest.mark.parametrize(
        "rows,fragment",
        [
            ("0,1\n\n1,0\n", "line 3: expected 2 fields, got 0"),
            ('0,"1,0"\n', "line 2: malformed row"),
            ("0,x\n", "line 2: malformed row"),
            ("", "no data"),
            ("0,1\n1.0,0\n", "line 3: malformed row, non-integer field example_id"),
            ("0.5,1\n", "line 2: malformed row, non-integer field example_id"),
            ('0,"1\n', "line 2: unterminated quoted field"),
        ],
        ids=["blank-line", "quoted-comma", "non-number", "no-rows", "id-1.0", "id-0.5", "open-quote"],
    )
    def test_rejects(self, tmp_path, reader, header, rows, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{rows}")
        with pytest.raises(InvalidValueError) as exc:
            reader(str(path))
        assert fragment in str(exc.value)

    @BOTH_READERS
    def test_accepts_quoted_crlf_and_padding(self, tmp_path, reader, header):
        path = tmp_path / "ok.csv"
        path.write_bytes(f'{header}\r\n"1", 2\r\n0,"3"\r\n'.encode())
        assert reader(str(path)).tolist() == [3, 2]

    @pytest.mark.parametrize("label", ["1.5", "1.0", "1e0"])
    def test_labels_reject_non_integer(self, tmp_path, label):
        path = tmp_path / "l.csv"
        path.write_text(f"example_id,label\n0,1\n1,{label}\n")
        with pytest.raises(InvalidValueError, match="line 3: malformed row, non-integer field label"):
            read_labels_csv(str(path))

    def test_labels_reject_negative_and_gaps(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("example_id,label\n0,-1\n")
        with pytest.raises(InvalidValueError):
            read_labels_csv(str(p))
        p.write_text("example_id,label\n1,0\n")
        with pytest.raises(InvalidValueError):
            read_labels_csv(str(p))


def _write_scores(path):
    scores = np.array([-0.0, 1e-310, 1e300, np.nan, 0.1, -2.5])
    write_scores_csv(scores, path)
    return [np.arange(6), scores]


def _write_labels(path, labels=np.array([2, 0, 1, 1])):
    write_labels_csv(labels, path)
    return [np.arange(labels.size), labels]


def _write_log(path):
    ex, ep = np.divmod(np.arange(12), 3)
    correct = np.array([1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1])
    write_csv(path, LOG_CSV.names, ex, ep, correct)
    return [ex, ep, correct]


def _write_order(path):
    x = SplitMix64(3).normals((40, 3))
    result = greedy_kcenters(x, np.array([5]), 12)
    write_order_csv(result, path)
    return [np.arange(1, 13), result.order, result.picked_dists]


def _write_forgetting(path):
    scores = process_log(SplitMix64(4).doubles(150).reshape(30, 5) < 0.3)
    write_forgetting_csv(scores, path)
    return [np.arange(30), scores.never_learned, scores.counts]


@pytest.mark.parametrize(
    "layout,write",
    [(SCORES_CSV, _write_scores), (LABELS_CSV, _write_labels),
     (LABELS_CSV, lambda path: _write_labels(path, np.array([True, False, True]))),
     (LOG_CSV, _write_log), (ORDER_CSV, _write_order), (FORGETTING_CSV, _write_forgetting)],
    ids=["scores", "labels", "labels-bool", "log", "order", "forgetting"],
)
def test_every_layout_round_trips_bit_equal(tmp_path, layout, write):
    """Each layout's writer, read back by ``read_csv`` with that layout,
    gives every column bit for bit, cast to the layout's type."""
    path = str(tmp_path / "t.csv")
    expected = write(path)
    rows = read_csv(path, layout)
    for name, column in zip(layout.names, expected):
        assert rows[name].tobytes() == np.asarray(column, dtype=layout[name]).tobytes(), name


@st.composite
def _csv_columns(draw):
    """A layout and one column per field: floats with nan, inf and -0.0, or
    ints across the whole int64 range; from zero rows up."""
    layout = draw(st.sampled_from([SCORES_CSV, LABELS_CSV, LOG_CSV, ORDER_CSV, FORGETTING_CSV]))
    n = draw(st.integers(0, 20))
    columns = [draw(arrays(np.float64, n, elements=st.floats())) if layout[name].kind == "f"
               else draw(arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)))
               for name in layout.names]
    return layout, columns


@given(case=_csv_columns())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_writer_bytes_equal_the_per_row_writer(case, tmp_path_factory):
    layout, columns = case
    directory = tmp_path_factory.mktemp("w")
    write_csv(str(directory / "new.csv"), layout.names, *columns)
    write_csv_oracle(str(directory / "old.csv"), layout.names, *columns)
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


@pytest.mark.parametrize("layout", [SCORES_CSV, ORDER_CSV], ids=["two-columns", "three-columns"])
def test_writer_bytes_equal_the_per_row_writer_across_blocks(tmp_path, layout):
    rows_per_block = tensor_io._CSV_BLOCK // len(layout)
    n = 2 * rows_per_block + 7  # two whole blocks and a partial one
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
               if layout[name].kind == "f" else rng.integers(-2**63, 2**63 - 1, n)
               for name in layout.names]
    write_csv(str(tmp_path / "new.csv"), layout.names, *columns)
    write_csv_oracle(str(tmp_path / "old.csv"), layout.names, *columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_scores_writer_holds_a_block_not_the_file(tmp_path):
    scores = np.random.default_rng(4).random(100_000)
    path = str(tmp_path / "s.csv")
    write_scores_csv(scores[:10], path)  # first-call allocations are not the write's
    peak = traced_peak(write_scores_csv, scores, path)
    # The 800 kB of ids is most of it; the whole text would be 2.5 MB.
    assert peak < 0.6 * os.path.getsize(path)


def test_writer_rejects_columns_its_reader_rejects(tmp_path):
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="1-D and of one length"):
        write_scores_csv(np.ones((2, 2)), str(path))
    with pytest.raises(ValueError, match="1-D and of one length"):
        write_csv(str(path), LABELS_CSV.names, np.arange(3), np.arange(2))
    assert list(tmp_path.iterdir()) == []


def _log_csv_rows(log):
    return [f"{ex},{ep},{int(log[ex, ep])}" for ex in range(log.shape[0]) for ep in range(log.shape[1])]


class TestTrainLogCsvOrder:
    """Row-major files skip the sort; any other order goes through it."""

    LOG = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=bool)
    SHUFFLE = [7, 2, 11, 0, 5, 9, 3, 10, 1, 8, 6, 4]

    def write(self, path, rows):
        path.write_text("example_id,epoch,correct\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_shuffled_rows_read_as_row_major(self, tmp_path):
        rows = _log_csv_rows(self.LOG)
        row_major = read_train_log_csv(self.write(tmp_path / "a.csv", rows))
        shuffled = read_train_log_csv(self.write(tmp_path / "b.csv", [rows[k] for k in self.SHUFFLE]))
        assert np.array_equal(row_major, self.LOG)
        assert np.array_equal(shuffled, self.LOG)

    @pytest.mark.parametrize("order", ["row-major", "shuffled"])
    def test_duplicate_and_missing_messages(self, tmp_path, order):
        rows = _log_csv_rows(self.LOG)
        if order == "shuffled":
            rows = [rows[k] for k in self.SHUFFLE]
        # Replacing (2, 0) by a second (1, 2) leaves one duplicate and one gap.
        dup = [("1,2,1" if row.startswith("2,0,") else row) for row in rows]
        with pytest.raises(InvalidValueError) as exc:
            read_train_log_csv(self.write(tmp_path / "dup.csv", dup))
        line = 2 + max(k for k, row in enumerate(dup) if row == "1,2,1")
        assert str(exc.value).endswith(f"line {line}: duplicate cell (1, 2)")
        gap = [row for row in rows if not row.startswith("2,0,")]
        with pytest.raises(InvalidValueError) as exc:
            read_train_log_csv(self.write(tmp_path / "gap.csv", gap))
        assert str(exc.value).endswith("missing cell (example_id=2, epoch=0)")


_CSV_VALUES = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["-3", "1.5", "1e0", "2.0", "nan", "-0.25", "x", "", "1 2"]),
)


@st.composite
def _csv_fields(draw, faulty):
    value = draw(_CSV_VALUES if faulty else st.integers(0, 12).map(str))
    pad = draw(st.sampled_from(["", " "]))
    quote = draw(st.sampled_from(["none", "none", "field", "comma"] if faulty else ["none", "field"]))
    if quote == "comma":
        return f'"{value},{value}"'
    if quote == "field":
        return f'"{pad}{value}{pad}"'
    return f"{pad}{value}{pad}"


@st.composite
def _csv_texts(draw):
    """A CSV text for one of the readers' column sets: a clean file, or one
    with blank and space-only lines, short and long rows, quoted commas,
    stray quotes and fields that do not convert, each line ending in LF,
    CRLF or CR."""
    columns = draw(st.sampled_from([LABELS_CSV, SCORES_CSV, LOG_CSV]))
    faulty = draw(st.integers(0, 3)) > 0
    names = list(columns.names)
    quoted = [f'"{n}"' for n in names]
    header = ",".join(draw(st.sampled_from([names, names, names, quoted, names[::-1]])))
    lines = [header if faulty else ",".join(names)]
    kinds = ["row"] * 5 + (["short", "long", "blank", "spaces", "stray-quote"] if faulty else [])
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "spaces"):
            lines.append("" if kind == "blank" else "  ")
            continue
        width = len(names) + {"short": -1, "long": 1}.get(kind, 0)
        line = ",".join(draw(_csv_fields(faulty)) for _ in range(width))
        if kind == "stray-quote":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + '"' + line[at:]
        lines.append(line)
    text = "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return columns, text


def _read_outcome(reader, path, columns):
    try:
        return "accept", reader(path, columns).tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestReadCsvAgainstLineListOracle:
    """``read_csv`` (one read, one np.loadtxt call) against the reader it
    replaced, which split the file into a list of lines and counted each
    line's fields with a comma scan."""

    @given(case=_csv_texts())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_same_result_or_same_error(self, case, tmp_path_factory):
        columns, text = case
        path = str(tmp_path_factory.mktemp("csv") / "in.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        assert _read_outcome(read_csv, path, columns) == _read_outcome(read_csv_oracle, path, columns)

    def test_first_faulty_line_is_reported(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("example_id,label\n0,x\n1,1\n2\n")
        for reader in (read_csv, read_csv_oracle):
            with pytest.raises(InvalidValueError, match="line 2: malformed row, non-integer field label"):
                reader(str(path), LABELS_CSV)

    def test_quote_after_a_space_is_an_ordinary_character(self, tmp_path):
        # Documented difference: the comma scan took the quote as opening a
        # quoted field and hid the comma inside it; np.loadtxt, like the new
        # reader, splits there.
        path = tmp_path / "l.csv"
        path.write_text('example_id,label\n0, "1,2"\n')
        with pytest.raises(InvalidValueError, match="line 2: expected 2 fields, got 3"):
            read_csv(str(path), LABELS_CSV)
        with pytest.raises(InvalidValueError, match=r"malformed row \(the dtype passed requires 2 columns but 3"):
            read_csv_oracle(str(path), LABELS_CSV)


class TestReadCsvSources:
    """A regular file is checked from one read and parsed from its path; any
    other file is parsed from the buffer it was read into."""

    @pytest.mark.parametrize(
        "data,line,position",
        [(b"example_id,sc\xffore\n0,1.5\n", 1, 13),
         (b"example_id,score\r\n0,1.5\r\n1,2\xff.5\r\n", 3, 3),
         (b"example_id,score\n0,x\n\n1,\xff\n", 4, 2)],
        ids=["header", "body", "after-a-faulty-line"],
    )
    def test_non_utf8_byte_names_its_line_and_position(self, tmp_path, data, line, position):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(InvalidValueError) as exc:
            read_csv(str(path), SCORES_CSV)
        assert str(exc.value) == (f"{path}: line {line}: malformed row ('utf-8' codec can't decode "
                                  f"byte 0xff in position {position}: invalid start byte)")

    @pytest.mark.parametrize(
        "data",
        [b'example_id,label\r\n0, 2\n1,"0"\r2,1\n', b"example_id,label\n0,1\n1,x\n",
         b"example_id,label\n0,1\n1,0\n\n"],
        ids=["valid", "bad-field", "blank-line"],
    )
    def test_fifo_parses_as_a_regular_file(self, tmp_path, data):
        regular, fifo = tmp_path / "l.csv", tmp_path / "l.fifo"
        regular.write_bytes(data)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            from_fifo = _read_outcome(read_csv, str(fifo), LABELS_CSV)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        expected = _read_outcome(read_csv, str(regular), LABELS_CSV)
        if expected[0] != "accept":
            expected = (expected[0], expected[1].replace(str(regular), str(fifo)))
        assert from_fifo == expected

    def test_an_error_np_loadtxt_words_otherwise_is_quoted(self, tmp_path, monkeypatch):
        path = tmp_path / "l.csv"
        path.write_text("example_id,label\n0,1\n1,0\n")
        real_loadtxt = np.loadtxt

        def loadtxt(*args, **kwargs):
            if "max_rows" in kwargs:  # the data rows' parse, not the header's split
                raise ValueError("unrecognised")
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(tensor_io.np, "loadtxt", loadtxt)
        with pytest.raises(InvalidValueError) as exc:
            read_csv(str(path), LABELS_CSV)
        assert str(exc.value) == f"{path}: malformed row (unrecognised)"

    def test_a_new_stamp_after_the_parse_is_refused(self, tmp_path, monkeypatch):
        path, other = tmp_path / "l.csv", tmp_path / "other"
        path.write_text("example_id,label\n0,1\n1,0\n")
        other.write_text("x")
        real_stat = os.stat
        monkeypatch.setattr(tensor_io.os, "stat", lambda p, *args, **kwargs: real_stat(
            other if os.fspath(p) == str(path) else p, *args, **kwargs))
        with pytest.raises(InvalidValueError, match="file changed while it was read"):
            read_csv(str(path), LABELS_CSV)

    def test_a_change_the_stamp_misses_is_caught_by_the_row_count(self, tmp_path, monkeypatch):
        path = tmp_path / "l.csv"
        path.write_text("example_id,label\n0,1\n1,0\n")
        st0 = path.stat()
        split = tensor_io._split_fields

        def rewrite_then_split(line):  # runs between the read and the parse
            path.write_text("example_id,label\n0,11111\n")  # same size, one row
            os.utime(path, ns=(st0.st_atime_ns, st0.st_mtime_ns))
            return split(line)

        monkeypatch.setattr(tensor_io, "_split_fields", rewrite_then_split)
        with pytest.raises(InvalidValueError, match="file changed while it was read"):
            read_csv(str(path), LABELS_CSV)
