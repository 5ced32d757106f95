"""Bit-exact file formats for exchanging tensors and training logs.

Two binary formats, both little-endian and platform-independent:

SVPT tensor file (dense real matrix, float32, row-major)
    bytes 0-3    magic ``SVPT``
    bytes 4-5    version, u16 LE, must be 1
    byte  6      dtype, u8, must be 0 (float32)
    byte  7      reserved, must be 0
    bytes 8-15   rows, u64 LE
    bytes 16-23  cols, u64 LE
    then         rows * cols float32 LE, row-major

SVPL training-log file (per-example per-step correctness)
    bytes 0-3    magic ``SVPL``
    bytes 4-5    version, u16 LE, must be 1
    bytes 6-7    reserved, must be 0
    bytes 8-15   n (examples), u64 LE
    bytes 16-23  E (observation steps), u64 LE
    then         n * E bytes, each 0 or 1, example-major

Each CSV layout is one structured dtype (``SCORES_CSV`` ... ``FORGETTING_CSV``)
naming the header's fields and their types. :func:`write_csv` writes every
layout and :func:`read_csv` reads every layout, with one set of rules: an
exact header, one typed field per column on every data row, no blank lines,
UTF-8 bytes, and the first faulty line reported. It checks a file from one
read into a buffer, then parses it with one np.loadtxt call: a regular file
from its path, which numpy reads in chunks in C, and stamped (device, inode,
size, mtime) so that a change between the two reads is refused; anything
else, such as a pipe, from the buffer. ``read_csv`` takes any float,
``nan`` and ``inf`` included; the readers built on it add their layout's
rules. A scores or labels file must cover example ids 0..n-1 once each, and
every score must be finite, the first line with a non-finite one reported.
A training log may also be imported from CSV (``LOG_CSV``); its (id, epoch)
grid must be complete with no duplicates.
All writes go to a temporary file in the target directory and are renamed
into place, so no partial output survives an error. A binary file's fault
names the file, as a CSV fault does.

A binary read holds about one copy of its payload: the header is read and
checked against the file's ``os.fstat`` length, the payload is read straight
into the result array, and its values are checked a block at a time, so
``read_tensor`` and ``read_train_log`` peak near 1x the payload. A binary
write holds one copy too: the header is packed into one buffer, the values
are cast straight into the payload behind it and checked a block at a
time, and that buffer is what gets written, so ``write_tensor`` and
``write_train_log`` also peak near 1x the payload. A CSV write formats and
writes one block of rows at a time. A run that reads its features from
files keeps the float32 matrices ``read_tensor`` returns
(``check_features`` takes float32 as it is, since float32 to float64 is
exact), and its layers convert only the rows they compute on.
``read_tensor(path)`` takes one argument: the benchmark's tracer wraps
``harness.read_tensor`` and ``cli.read_tensor`` with a counter called as
``(result, path)``, and ``atomic_write_bytes`` with one that takes
``len(data)`` after the write, so a second argument, or a read or write
that bypasses those names, would break or blind every traced run.

The checks of every argument kind live here, one rule each: ``check_matrix``
for feature and probability matrices (``check_features`` for the features a
run holds), ``check_labels`` for labels (its integer test also serves
``check_indices``, for index sets and pools), ``check_vector`` for score
vectors, ``check_number`` for every scalar: config numbers, counts
(through ``check_count``), class counts and random stream sizes, and
``check_nbytes`` for numpy's limit of 2**63 - 1 bytes on the arrays a
config sizes (a training log, a model's parameters, a synthetic matrix).
None of them coerces: a real where an integer belongs, a boolean or a
string is refused with ``ValueError`` naming the argument.
``check_indices`` finds a repeated index by sorting and comparing
neighbours, so no check needs more than numpy's core (``np.unique`` would
import ``numpy.ma``).
"""

from __future__ import annotations

import contextlib
import errno
import io
import numbers
import os
import re
import stat
import struct
import threading
from typing import Optional

import numpy as np

TENSOR_MAGIC = b"SVPT"
LOG_MAGIC = b"SVPL"
FORMAT_VERSION = 1
DTYPE_F32 = 0
PROB_TOL = 1e-5  # how far from 1 a probability row may sum

# The frame both binary formats share: magic, version, two flag bytes (SVPT:
# dtype and reserved; SVPL: reserved), two dims, then the payload.
_FRAME = struct.Struct("<4sHBBQQ")
_CHECK_BLOCK = 1 << 16  # payload values checked at a time, so a check's mask stays small
_CSV_BLOCK = 1 << 12  # CSV cells formatted at a time


class FormatError(ValueError):
    """Base class for file-format violations."""


class BadMagicError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class UnsupportedDtypeError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class InvalidHeaderError(FormatError):
    """Header fields out of range (zero dims, nonzero reserved bytes)."""


class InvalidValueError(FormatError):
    """Payload or CSV cell holds a value the format forbids."""


class ProbMatrixError(ValueError):
    """Matrix failed probability validation; the message names the first offending row."""


# Per thread, the (temp file, target) pairs of its open ``staged_writes`` block.
_local = threading.local()


@contextlib.contextmanager
def staged_writes():
    """Rename every atomic write made inside the block into place together.

    Each file is staged to its temp file as it is written and renamed only
    when the block ends without an error, so a failure part-way (a missing
    directory, an invalid value) leaves none of the block's outputs behind.
    A block inside another joins it: its writes are renamed when the
    outermost block ends. A block holds only its own thread's writes, so
    threads writing side by side each get their files when their own block
    ends, and a write outside any block is renamed before it returns.
    """
    if getattr(_local, "staged", None) is not None:
        yield
        return
    _local.staged = staged = []
    try:
        yield
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        _local.staged = None


def atomic_write_bytes(path: str, data) -> None:
    """Write ``data``, bytes or an iterable of byte blocks, to a new
    ``.svp-tmp-<random hex>`` file in the same directory, then rename it into
    place at the end of the enclosing :func:`staged_writes` block; a write
    outside one is a block of its own. The temp file is created with mode
    0o666, which the kernel lessens by the umask, so the file gets the mode
    ``open(path, "w")`` gives. A directory is refused, and so is a missing
    one, naming ``path``; so is a file the open block already writes (by
    ``os.path.realpath``), which would otherwise lose one of its outputs."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    staged = getattr(_local, "staged", None) or ()
    if os.path.realpath(path) in (os.path.realpath(target) for _, target in staged):
        raise ValueError(f"{path}: two outputs of one write go to this file")
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".svp-tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named after the temp file, which the caller never saw
        raise OSError(exc.errno, exc.strerror, path) from None
    with staged_writes():
        _local.staged.append((tmp, path))  # the block's end removes it if anything fails
        with os.fdopen(fd, "wb") as fh:
            fh.writelines((data,) if isinstance(data, (bytes, bytearray)) else data)


class _Blocks:
    """The byte blocks of the iterator ``blocks``, counted as they are handed
    out, so that ``len()`` of a finished write is its size, as for bytes."""

    def __init__(self, blocks):
        self._blocks, self._size = blocks, 0

    def __iter__(self):
        for block in self._blocks:
            self._size += len(block)
            yield block

    def __len__(self):
        return self._size


def check_matrix(matrix, what: str = "matrix", dtype=None) -> np.ndarray:
    """The matrix as an array of ``dtype``: 2-D, nonempty, finite; errors name ``what``."""
    m = np.asarray(matrix, dtype=dtype)
    if m.ndim != 2:
        raise ValueError(f"{what} must be a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{what} must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"non-finite values in {what}")
    return m


def check_features(features, what: str = "features") -> np.ndarray:
    """A feature matrix checked by :func:`check_matrix`: float32 as it is,
    since every float32 value converts to float64 exactly, and any other
    dtype as float64."""
    x = np.asarray(features)
    return check_matrix(x, what, np.float32 if x.dtype == np.float32 else np.float64)


def check_labels(labels, rows: Optional[int] = None, what: str = "labels") -> np.ndarray:
    """Class labels as int64: a 1-D array of nonnegative integers below
    2**63 (an integral float such as 2.0 is 2), one per feature row when
    ``rows`` is given. Errors name ``what``."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got ndim={y.ndim}")
    if rows is not None and y.shape[0] != rows:
        raise ValueError(f"{what} must be one per feature row, got {y.shape[0]} for {rows}")
    if y.dtype.kind == "b":  # compared with 2**63 below, a bool would overflow
        y = y.astype(np.int64)
    if y.dtype.kind not in "iuf" or not (
        np.isfinite(y) & (y >= 0) & (y == np.round(y)) & (y < 2**63)
    ).all():
        raise ValueError(f"{what} must be nonnegative integers")
    return y.astype(np.int64, copy=False)


def check_indices(indices, n: Optional[int], what: str) -> np.ndarray:
    """Row indices as int64: the integers :func:`check_labels` takes, where a
    boolean array is refused as a mask. Given ``n``, they are an index set
    into ``n`` rows: nonempty, each below ``n``, none repeated; without it, a
    pool to draw from. Errors name ``what``."""
    idx = np.asarray(indices)
    if idx.dtype.kind == "b":
        raise ValueError(f"{what} must be integer indices, not a boolean mask")
    idx = check_labels(idx, what=what)
    if n is not None and (idx.size == 0 or idx.max() >= n):
        raise ValueError(f"{what} must be nonempty, with every index in [0, {n})")
    if n is not None and (np.diff(np.sort(idx)) == 0).any():
        raise ValueError(f"{what} holds duplicate indices")
    return idx


def check_vector(v, what: str) -> np.ndarray:
    """A float64 vector of scores: 1-D and finite. Errors name ``what``."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite values in {what}")
    return v


def check_number(value, name: str, integer: bool = False):
    """A number: an integer, unconverted, where ``integer`` is set, else an
    integer or a real as a float. Booleans, strings and null are rejected,
    never coerced, and so is a real too large for a float64."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is too large for a float64") from exc


def check_count(m: int, n: Optional[int], name: str = "m") -> None:
    """Check a count: an integer ``m >= 0``, and ``m <= n`` picks from ``n``
    candidates unless ``n`` is None."""
    if check_number(m, name, integer=True) < 0:
        raise ValueError(f"{name} must be nonnegative, got {m}")
    if n is not None and m > n:
        raise ValueError(f"{name}={m} exceeds the {n} candidates")


def check_nbytes(nbytes: int, what: str) -> None:
    """Check that an array of ``nbytes`` bytes can exist: numpy refuses one
    past 2**63 - 1 bytes without naming the field that sized it, so the
    error names ``what``."""
    if nbytes > np.iinfo(np.intp).max:
        raise ValueError(f"{what} is too large for an array")


def _read_exactly(src, buf):
    """Fill ``buf`` from ``src``; a short read means the file shrank after
    its length was taken."""
    if src.readinto(buf) != len(buf):
        raise InvalidValueError("file changed while it was read")
    return buf


def _read_frame(path: str, magic: bytes, dtype: np.dtype, check_flags, check_values) -> np.ndarray:
    """The (rows, cols) payload of a binary file framed as ``magic``, read
    straight into an array of ``dtype``. Faults are checked in order: length,
    magic, version, ``check_flags(flag0, flag1)``, dims, truncation, trailing
    bytes, then ``check_values(block)`` on each block of ``_CHECK_BLOCK``
    values. The length is the ``os.fstat`` size, so the array is allocated
    only for a file that holds it, and no copy of the payload is made; a
    file that is not regular, such as a pipe, has no length until it is
    read, so it is read whole first."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        src, size = fh, st.st_size
        if not stat.S_ISREG(st.st_mode):
            data = fh.read()
            src, size = io.BytesIO(data), len(data)
        try:
            if size < _FRAME.size:
                raise TruncatedPayloadError(f"file is {size} bytes, header needs {_FRAME.size}")
            found, version, flag0, flag1, rows, cols = _FRAME.unpack(
                _read_exactly(src, bytearray(_FRAME.size)))
            if found != magic:
                raise BadMagicError(f"bad magic {found!r}, expected {magic!r}")
            if version != FORMAT_VERSION:
                raise UnsupportedVersionError(f"unsupported version {version}")
            check_flags(flag0, flag1)
            if rows < 1 or cols < 1:
                raise InvalidHeaderError(f"dimensions must be positive, got {rows}x{cols}")
            expected = rows * cols * dtype.itemsize
            actual = size - _FRAME.size
            if actual < expected:
                raise TruncatedPayloadError(f"payload holds {actual} bytes, header promises {expected}")
            if actual > expected:
                raise FormatError(f"{actual - expected} trailing bytes after payload")
            out = np.empty((rows, cols), dtype=dtype)
            flat = out.reshape(-1)
            _read_exactly(src, flat.view(np.uint8))
            for start in range(0, flat.size, _CHECK_BLOCK):
                check_values(flat[start:start + _CHECK_BLOCK])
        except FormatError as exc:
            raise type(exc)(f"{path}: {exc}") from None
    return out


def _write_frame(path: str, magic: bytes, flags: tuple, values: np.ndarray, dtype: np.dtype,
                 check_values=None) -> None:
    """Write the 2-D ``values`` as a binary file framed as ``magic`` with
    ``flags``: the header is packed into one buffer and the values are cast
    as ``dtype`` straight into the payload behind it, then, if given,
    ``check_values(block)`` runs on each block of ``_CHECK_BLOCK`` values.
    That buffer is the only copy of the payload the write makes."""
    frame = bytearray(_FRAME.size + values.size * dtype.itemsize)
    _FRAME.pack_into(frame, 0, magic, FORMAT_VERSION, *flags, *values.shape)
    flat = np.frombuffer(frame, dtype=dtype, offset=_FRAME.size)
    with np.errstate(over="ignore"):
        flat.reshape(values.shape)[...] = values
    if check_values is not None:
        for start in range(0, flat.size, _CHECK_BLOCK):
            check_values(flat[start:start + _CHECK_BLOCK])
    atomic_write_bytes(path, frame)


def _check_tensor_flags(dtype: int, reserved: int) -> None:
    if dtype != DTYPE_F32:
        raise UnsupportedDtypeError(f"unsupported dtype code {dtype}")
    if reserved != 0:
        raise InvalidHeaderError("reserved byte must be 0")


def _check_log_flags(reserved0: int, reserved1: int) -> None:
    if reserved0 or reserved1:
        raise InvalidHeaderError("reserved bytes must be 0")


def _check_finite_block(block: np.ndarray) -> None:
    if not np.isfinite(block).all():
        raise InvalidValueError("tensor payload contains non-finite values")


def _check_overflow_block(block: np.ndarray) -> None:
    if not np.isfinite(block).all():  # the matrix was finite before its cast
        raise ValueError("matrix values overflow float32")


def _check_log_block(block: np.ndarray) -> None:
    bad = block > 1
    if bad.any():
        raise InvalidValueError(f"log byte must be 0 or 1, found {block[bad][0]}")


def write_tensor(matrix: np.ndarray, path: str) -> None:
    """Write a matrix as an SVPT file. Values are stored as float32."""
    _write_frame(path, TENSOR_MAGIC, (DTYPE_F32, 0), check_matrix(matrix), np.dtype("<f4"),
                 _check_overflow_block)


def read_tensor(path: str) -> np.ndarray:
    """Read an SVPT file into an (n, d) float32 matrix, the only full-size
    array the read makes."""
    matrix = _read_frame(path, TENSOR_MAGIC, np.dtype("<f4"), _check_tensor_flags,
                         _check_finite_block)
    return matrix.astype(np.float32, copy=False)  # a copy only on a big-endian host


def validate_prob_matrix(matrix: np.ndarray) -> np.ndarray:
    """Accept a matrix as per-row categorical distributions or reject it.

    Every entry must lie in [0, 1] and every row must sum to 1 within ``PROB_TOL``.
    Rejection reports the first offending row (and its sum, for sum failures).
    """
    m = check_matrix(matrix)
    if m.shape[1] < 2:
        raise ProbMatrixError(f"need at least 2 classes, got {m.shape[1]}")
    bad_entry = (m < 0.0) | (m > 1.0)
    if bad_entry.any():
        row = int(np.nonzero(bad_entry.any(axis=1))[0][0])
        raise ProbMatrixError(f"row {row} has an entry outside [0, 1]")
    sums = m.sum(axis=1)
    off = np.abs(sums - 1.0) > PROB_TOL
    if off.any():
        row = int(np.nonzero(off)[0][0])
        raise ProbMatrixError(f"row {row} sums to {sums[row]!s}, expected 1 within {PROB_TOL}")
    return m


def check_train_log(log: np.ndarray) -> np.ndarray:
    log = check_matrix(log)
    if log.dtype != np.bool_ and not np.isin(log, (0, 1)).all():
        raise ValueError("train log values must be 0 or 1")
    return log.astype(np.bool_, copy=False)


def write_train_log(log: np.ndarray, path: str) -> None:
    """Write an (n, E) boolean correctness record as an SVPL file."""
    _write_frame(path, LOG_MAGIC, (0, 0), check_train_log(log), np.dtype(np.uint8))


def read_train_log(path: str) -> np.ndarray:
    """Read an SVPL file into an (n, E) boolean array, the only full-size
    array the read makes."""
    return _read_frame(path, LOG_MAGIC, np.dtype(np.uint8), _check_log_flags,
                       _check_log_block).view(np.bool_)  # every byte is 0 or 1


# Every CSV layout: the header names the fields in order, and each column
# is read as its field's type.
SCORES_CSV = np.dtype([("example_id", "i8"), ("score", "f8")])
LABELS_CSV = np.dtype([("example_id", "i8"), ("label", "i8")])
LOG_CSV = np.dtype([("example_id", "i8"), ("epoch", "i8"), ("correct", "i8")])
ORDER_CSV = np.dtype([("rank", "f8"), ("example_id", "i8"), ("min_dist", "f8")])
FORGETTING_CSV = np.dtype([("example_id", "i8"), ("never_learned", "i8"), ("count", "i8")])

# Where np.loadtxt reports a field it could not convert (0-based data row,
# 1-based column) and a row with the wrong number of fields (fields found,
# 1-based data row).
_LOADTXT_AT = re.compile(r"at row (\d+), column (\d+)")
_LOADTXT_COUNT = re.compile(r"requires \d+ columns but (\d+) were found at row (\d+)")


def _split_fields(line: str) -> list:
    """The fields of one CSV line, split as :func:`read_csv` splits them.

    A nonempty line with no quote, CR, LF or NUL is split at its commas,
    which is what np.loadtxt makes of it at a small part of its cost. Any
    other line goes to np.loadtxt: it reads quoted fields, drops the NULs
    that end a field, finds no field in an empty line and refuses an LF.
    """
    if line and not any(ch in line for ch in '"\r\n\x00'):
        return line.split(",")
    return np.loadtxt([line], dtype=str, delimiter=",", quotechar='"', comments=None,
                      ndmin=1).tolist()


def _check_utf8(path: str, data: bytes) -> None:
    """Reject ``data`` unless it is UTF-8, naming the line of the first bad
    byte and the byte's position in that line."""
    if data.isascii():
        return
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        in_line = UnicodeDecodeError(exc.encoding, data[start:exc.end], exc.start - start,
                                     exc.end - start, exc.reason)
        line = data.count(b"\n", 0, start) + 1
        raise InvalidValueError(f"{path}: line {line}: malformed row ({in_line})") from None


def _first_unparsable_line(body: bytes) -> Optional[tuple[int, bool]]:
    """The first line np.loadtxt would misread: a blank line, which it skips,
    or one with an odd number of double quotes, whose open quoted field it
    would run on into the next line. Returns (line index, whether the line
    has an unbalanced quote), or None."""
    gap = body.find(b"\n\n")
    if body.startswith(b"\n"):
        bad = (0, False)
    elif gap >= 0:
        bad = (body.count(b"\n", 0, gap + 1), False)
    else:
        bad = None
    if b'"' in body:
        raw = np.frombuffer(body, dtype=np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))
        odd = np.flatnonzero(np.bincount(np.searchsorted(ends, np.flatnonzero(raw == ord('"')))) % 2)
        if odd.size and (bad is None or odd[0] < bad[0]):
            bad = (int(odd[0]), True)
    return bad


def _stamp(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _loadtxt(path: str, data: bytes, st: os.stat_result, columns: np.dtype,
             rows: int) -> np.ndarray:
    """The first ``rows`` data rows of the file at ``path``, parsed by
    np.loadtxt into ``columns``: from the path for a regular file, which must
    still carry the stamp of ``st`` once the parse is done, otherwise from
    ``data``, the bytes it was read into. The first row np.loadtxt cannot
    read is reported as that row's fault."""
    regular = stat.S_ISREG(st.st_mode)
    try:
        parsed = np.loadtxt(path if regular else io.BytesIO(data), dtype=columns,
                            delimiter=",", quotechar='"', comments=None, ndmin=1,
                            skiprows=1, max_rows=rows, encoding="utf-8")
    except ValueError as exc:
        parsed, error = None, exc
    else:
        error = None
    if (regular and _stamp(os.stat(path)) != _stamp(st)) or (
            parsed is not None and parsed.size != rows):
        raise InvalidValueError(f"{path}: file changed while it was read")
    if error is None:
        return parsed
    count, at = _LOADTXT_COUNT.search(str(error)), _LOADTXT_AT.search(str(error))
    if count is not None:
        message = f"line {int(count[2]) + 1}: expected {len(columns)} fields, got {count[1]}"
    elif at is not None:
        column = columns.names[int(at[2]) - 1]
        kind = "non-integer" if columns[column].kind == "i" else "non-numeric"
        message = f"line {int(at[1]) + 2}: malformed row, {kind} field {column}"
    else:
        message = f"malformed row ({error})"
    raise InvalidValueError(f"{path}: {message}") from error


def read_csv(path: str, columns: np.dtype) -> np.ndarray:
    """Read a CSV file into a structured array typed by ``columns``.

    The first line must name exactly the fields of ``columns``, in order.
    Every later line is a data row with one field per column; a blank line
    is a row with no fields and is rejected. Lines may end in LF, CRLF or
    CR, a field may be double-quoted within its line, and numbers may carry
    surrounding spaces. Integer columns take integers only. Errors name the
    file and, for a bad row, its line; of several faulty lines the first is
    reported, except that a byte that is not UTF-8 is reported before any
    other fault.

    The file is read once as bytes, and the checks run on that buffer: the
    encoding, the header, and the first line np.loadtxt would misread (a
    blank line or an unbalanced quote). Then one np.loadtxt call splits,
    counts and converts the fields of every data row before that line. For
    a regular file it parses from the path, which numpy reads in chunks in
    C. As the file is then read twice, its device, inode, size and mtime
    are taken when the buffer is read and must be unchanged after the
    parse, with one parsed row per checked line. Any other file, such as a
    pipe, can be read only once, so it is parsed from the buffer.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        data = fh.read()
    if b"\r" in data:  # CRLF and CR end a line, as text mode reads them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    names = list(columns.names)
    _check_utf8(path, data)
    head, _, body = data.partition(b"\n")
    header = _split_fields(head.decode()) if head else None
    if header != names:
        raise InvalidValueError(f"{path}: expected header {','.join(names)}, got {header}")
    if not body:
        raise InvalidValueError(f"{path}: CSV holds no data rows")
    bad = _first_unparsable_line(body)
    rows = body.count(b"\n") + (not body.endswith(b"\n")) if bad is None else bad[0]
    if rows:  # the rows before the first line np.loadtxt would misread, or all of them
        parsed = _loadtxt(path, data, st, columns, rows)
    if bad is None:
        return parsed
    i, open_quote = bad
    if open_quote:
        raise InvalidValueError(f"{path}: line {i + 2}: unterminated quoted field")
    raise InvalidValueError(f"{path}: line {i + 2}: expected {len(names)} fields, got 0")


def _by_example_id(path: str, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` placed at their ``ids``, which must cover 0..n-1 exactly once."""
    n = ids.size
    if ids.min() < 0 or ids.max() >= n or (np.bincount(ids, minlength=n) != 1).any():
        raise InvalidValueError(f"{path}: example_id column must cover 0..n-1 exactly once")
    out = np.empty(n, dtype=values.dtype)
    out[ids] = values
    return out


def _check_finite(path: str, rows: np.ndarray, field: str) -> None:
    """Reject the first CSV data row whose ``field`` is not finite."""
    bad = np.flatnonzero(~np.isfinite(rows[field]))
    if bad.size:
        raise InvalidValueError(
            f"{path}: line {bad[0] + 2}: {field} must be finite, got {rows[field][bad[0]]}")


def read_train_log_csv(path: str) -> np.ndarray:
    """Import a training log from CSV with header ``example_id,epoch,correct``.

    The (example_id, epoch) grid must be complete: ids 0..n-1 and epochs
    0..E-1 with every cell present exactly once.
    """
    rows = read_csv(path, LOG_CSV)
    ex, ep, correct = rows["example_id"], rows["epoch"], rows["correct"]
    bad = np.flatnonzero((ex < 0) | (ep < 0) | (correct < 0) | (correct > 1))
    if bad.size:
        i = int(bad[0])
        if ex[i] < 0 or ep[i] < 0:
            raise InvalidValueError(f"{path}: line {i + 2}: negative example_id or epoch")
        raise InvalidValueError(f"{path}: line {i + 2}: correct must be 0 or 1, got {correct[i]}")
    # Cells in strictly increasing row-major order, as every writer emits
    # them, hold no repeats. Otherwise a stable sort puts them in that order,
    # repeats of a cell in file order. Unlike a count over id * E + epoch,
    # neither can overflow or allocate for one stray huge id.
    if not ((ex[1:] > ex[:-1]) | ((ex[1:] == ex[:-1]) & (ep[1:] > ep[:-1]))).all():
        order = np.lexsort((ep, ex))
        ex, ep, correct = ex[order], ep[order], correct[order]
        repeats = order[1:][(ex[1:] == ex[:-1]) & (ep[1:] == ep[:-1])]
        if repeats.size:
            i = int(repeats.min())
            cell = (int(rows["example_id"][i]), int(rows["epoch"][i]))
            raise InvalidValueError(f"{path}: line {i + 2}: duplicate cell {cell}")
    # Distinct cells inside an n x E box fill it exactly when they number n * E.
    n, steps = int(ex[-1]) + 1, int(ep.max()) + 1
    if n * steps != ex.size:
        want_ex, want_ep = np.divmod(np.arange(ex.size), steps)
        gaps = np.flatnonzero((ex != want_ex) | (ep != want_ep))
        k = int(gaps[0]) if gaps.size else ex.size
        raise InvalidValueError(f"{path}: missing cell (example_id={k // steps}, epoch={k % steps})")
    return (correct == 1).reshape(n, steps)


def write_csv(path: str, names, *columns) -> None:
    """Write a CSV file with header ``names`` and one row per entry of the
    equal-length 1-D ``columns``; each cell is the repr of a ``.tolist()``
    value. Columns of any other shape raise ``ValueError`` and write nothing.
    Rows are formatted and written ``_CSV_BLOCK`` cells at a time, so a write
    holds one block's cells and text, not the file's."""
    if any(np.ndim(c) != 1 for c in columns) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"CSV columns must be 1-D and of one length, got shapes "
                         f"{[np.shape(c) for c in columns]}")
    n, width = len(columns[0]), len(columns)
    step = max(1, _CSV_BLOCK // width)
    row = ",".join(["%r"] * width) + "\n"

    def blocks():
        yield (",".join(names) + "\n").encode()
        for start in range(0, n, step):
            stop = min(start + step, n)
            cells = [None] * (width * (stop - start))
            for j, column in enumerate(columns):
                cells[j::width] = column[start:stop].tolist()
            yield (row * (stop - start) % tuple(cells)).encode()

    atomic_write_bytes(path, _Blocks(blocks()))


def write_scores_csv(scores: np.ndarray, path: str) -> None:
    """Export per-example scores as CSV ``example_id,score``."""
    scores = np.asarray(scores, dtype=np.float64)
    write_csv(path, SCORES_CSV.names, np.arange(scores.size), scores)


def read_scores_csv(path: str) -> np.ndarray:
    """Read a CSV written by :func:`write_scores_csv` back to a float vector
    in example-id order. Every score must be finite: a file whose ids are
    faulty is refused for that first, then one with a non-finite score for
    the first line in file order that holds one."""
    rows = read_csv(path, SCORES_CSV)
    scores = _by_example_id(path, rows["example_id"], rows["score"])
    _check_finite(path, rows, "score")
    return scores


def write_labels_csv(labels: np.ndarray, path: str) -> None:
    """Export class labels as CSV ``example_id,label``. Labels that fail
    :func:`check_labels`, the rule ``read_labels_csv`` applies, raise
    ``ValueError`` and write nothing."""
    labels = check_labels(labels)
    write_csv(path, LABELS_CSV.names, np.arange(labels.size), labels)


def read_labels_csv(path: str) -> np.ndarray:
    rows = read_csv(path, LABELS_CSV)
    labels = _by_example_id(path, rows["example_id"], rows["label"])
    try:
        return check_labels(labels)
    except ValueError as exc:
        raise InvalidValueError(f"{path}: {exc}") from None
