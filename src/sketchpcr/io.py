"""Dataset ingestion: dense CSV and sparse svmlight files.

:func:`_chunks` frames both formats into runs of whole lines of about
``_BLOCK`` characters. One reader per format (:func:`csv_blocks`,
:func:`svmlight_blocks`) parses each run in one numpy pass, and a run
that pass cannot take (it fails, or sees what the per-line rules would
reject or read otherwise) by the per-line rules alone. Those rules
define a valid line, read it with ``float`` and ``int`` and reject a
malformed one with its ``file:line[:col]``. The loaders join the
blocks; ``pcr stream`` takes each block as it comes (an svmlight one as
the CSR matrix of :func:`svmlight_csr`), so besides its
sketch accumulators it holds one run and its block, whatever the row
count. Files are UTF-8; a leading byte-order mark is skipped, and a
byte that is not UTF-8 is rejected with its ``file:line``.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import scipy.sparse as sp


class DataFormatError(ValueError):
    pass


def _parse_float(token, where):
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"{where}: non-finite value {token!r}")
    return value


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _is_header(fields):
    return not any(map(_is_number, fields))


def _parse_row(fields, path, lineno):
    """Floats of one row's fields; a bad field is reported with its column."""
    try:
        values = [float(tok) for tok in fields]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for j, tok in enumerate(fields):
        _parse_float(tok, f"{path}:{lineno}:col {j + 1}")  # raises at the bad field


_BLOCK = 1 << 22  # characters per run of lines, which bound a pass's scratch memory
_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as surrogateescape reads it


def _chunks(path):
    """Yield (lineno, lines): the file's lines in runs of about ``_BLOCK``
    characters, each with the number of its first line. A line holding a
    byte that is not UTF-8 is rejected before its run is yielded."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lineno = 1
        while lines := fh.readlines(_BLOCK):
            if not all(map(str.isascii, lines)):
                for n, line in enumerate(lines, start=lineno):
                    if bad := _UNDECODED.search(line):
                        raise DataFormatError(
                            f"{path}:{n}: byte {ord(bad[0]) - 0xdc00:#04x} is not UTF-8")
            yield lineno, lines
            lineno += len(lines)


def csv_blocks(path):
    """Yield the data rows of a dense CSV as 2-D float arrays, one per run
    of lines that holds any.

    A leading header row is skipped when none of its fields parses as a
    number. Blank lines are ignored. Ragged rows, rows of fewer than
    two fields and NaN/Inf entries are rejected with their location.
    """
    header, width = True, None  # header: no non-blank line seen yet
    for lineno, lines in _chunks(path):
        if header:
            first = next((i for i, line in enumerate(lines) if not line.isspace()), None)
            if first is None:
                continue
            header = False
            if _is_header(lines[first].strip().split(",")):
                lineno, lines = lineno + first + 1, lines[first + 1:]
        block = _bulk_csv(lines, width)
        if block is None:
            block = _csv_rows(lines, lineno, path, width)
        if len(block):
            width = block.shape[1]
            yield block


def _csv_rows(lines, lineno, path, width):
    """The data rows of CSV lines past the header, the first numbered
    ``lineno``, by the per-line rules; ``width`` is the row width set by
    earlier lines, if any."""
    rows = []
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
            if width < 2:
                raise DataFormatError(f"{path}:{lineno}: need at least two columns")
        elif len(fields) != width:
            raise DataFormatError(
                f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {width})"
            )
        rows.append(_parse_row(fields, path, lineno))
    return np.asarray(rows, dtype=float)


# float() keeps these ASCII separators at the edge of a field, where
# np.loadtxt strips them as whitespace.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _loadtxt_lines(lines):
    """The lines for np.loadtxt: blank ones are skipped, as :func:`_csv_rows`
    skips them, and one holding an ASCII separator stops the pass."""
    for line in lines:
        if any(c in line for c in _SEPARATORS):
            raise ValueError("ASCII separator in a field")
        if not line.isspace():
            yield line


def _bulk_csv(lines, width):
    """The data rows of CSV lines past the header, read by one np.loadtxt
    call, or None when that call fails or reads what :func:`_csv_rows`
    would reject: then only the rules can tell where the lines are wrong.

    The other checks cover what np.loadtxt accepts and the rules do not:
    a single column, a width other than ``width`` (set by earlier lines),
    non-finite values and (in :func:`_loadtxt_lines`) ASCII separators;
    anything else either parses the same or fails both.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt only warns on an input without rows
        try:
            arr = np.loadtxt(_loadtxt_lines(lines), delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if arr.shape[1] < 2 or width not in (None, arr.shape[1]) or not np.isfinite(arr).all():
        return None
    return arr


def load_dense_csv(path):
    """Read a dense CSV whose last column is the response: (A, b), views
    of the joined :func:`csv_blocks`."""
    blocks = list(csv_blocks(path))
    if not blocks:
        raise DataFormatError(f"{path}: no data rows")
    arr = np.concatenate(blocks)
    return arr[:, :-1], arr[:, -1]


def svmlight_blocks(path, n_features=None):
    """Yield (labels, data, columns, pairs per line) of the lines of an
    svmlight file, one tuple of arrays per run of lines that holds any.

    Lines read ``label idx:val idx:val ...``; ``#`` starts a comment.
    Indices are 1-based, strictly increasing within a line and, when
    ``n_features`` is given, at most ``n_features``; the yielded columns
    are 0-based.
    """
    if n_features is not None and n_features < 1:
        raise ValueError(f"feature count must be at least 1, got {n_features}")
    for lineno, lines in _chunks(path):
        block = _svmlight_block("".join(lines), n_features)
        if block is None:
            block = _svmlight_rows(lines, lineno, path, n_features)
        if len(block[0]):
            yield block


def _svmlight_rows(lines, lineno, path, n_features):
    """(labels, data, columns, pairs per line) of svmlight lines, the first
    numbered ``lineno``, by the per-line rules."""
    labels, data, cols, counts = [], [], [], []
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        labels.append(_parse_float(parts[0], f"{path}:{lineno}:label"))
        prev = 0
        for tok in parts[1:]:
            where = f"{path}:{lineno}: pair {tok!r}"
            try:
                idx_s, value_s = tok.split(":")
                idx = int(idx_s)
            except ValueError:
                raise DataFormatError(f"{where}: expected index:value") from None
            if idx < 1:
                raise DataFormatError(f"{where}: indices are 1-based")
            if idx <= prev:
                raise DataFormatError(
                    f"{where}: index {idx} not greater than previous {prev}"
                )
            prev = idx
            data.append(_parse_float(value_s, where))
            cols.append(idx - 1)
        if n_features is not None and prev > n_features:
            raise DataFormatError(
                f"{path}:{lineno}: index {prev} exceeds the feature count {n_features}"
            )
        counts.append(len(parts) - 1)
    return (np.asarray(labels, dtype=float), np.asarray(data, dtype=float),
            np.asarray(cols, dtype=np.int64), np.asarray(counts, dtype=np.int64))


_SVM_CHARS = b"0123456789+-.eE: \t\n"  # all a run may hold in the bulk pass
_EXACT = 2.0 ** 53  # every integer below it is exact as a float


def _svmlight_block(text, n_features):
    """(labels, data, columns, pairs per line) of whole svmlight lines
    from one np.fromstring pass over their numbers, or None if the rules
    might read them otherwise.

    Comments are cut first. The pass takes digits, signs, '.', 'e', 'E',
    ':' and blanks only; it checks in bulk that each line is a colon-free
    label followed by ``digits:value`` pairs, that every token is one
    whole number to np.fromstring (so ``1e1:2`` or ``1.5.3`` fall back),
    and every rule of :func:`_svmlight_rows` on the numbers it read.
    """
    if not text.isascii():
        return None
    if "#" in text:
        text = re.sub("#[^\n]*", "", text)
    raw = text.encode("ascii")
    if raw.translate(None, _SVM_CHARS):
        return None
    u = np.frombuffer(raw, dtype=np.uint8)
    starts = np.flatnonzero(np.diff(u > ord(" "), prepend=False, append=False))[::2]
    if not len(starts):  # blank lines only, from which np.fromstring would read a -1
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    line = np.searchsorted(np.flatnonzero(u == ord("\n")), starts)
    first = np.ones(len(starts), dtype=bool)  # the label token of its line
    first[1:] = line[1:] != line[:-1]
    pair = ~first
    colons = np.flatnonzero(u == ord(":"))
    owner = np.searchsorted(starts, colons, side="right") - 1
    if not np.array_equal(np.bincount(owner, minlength=len(starts)), pair):
        return None  # a label with a colon, or a pair without exactly one
    index_span = np.zeros(len(u) + 1, dtype=np.int8)
    index_span[starts[pair]] += 1
    index_span[colons] -= 1
    index_bytes = u[np.cumsum(index_span[:-1], dtype=np.int8).view(bool)]
    if ((index_bytes < ord("0")) | (index_bytes > ord("9"))).any():
        return None  # an index int() would reject, or float() read differently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            nums = np.fromstring(raw.replace(b":", b" "), sep=" ")
        except (ValueError, Warning):
            return None
    if len(nums) != len(starts) + len(colons):
        return None  # some token is not one whole number
    at = np.arange(len(starts)) + np.cumsum(pair) - pair  # each token's first number
    labels, idx, data = nums[at[first]], nums[at[pair]], nums[at[pair] + 1]
    row = np.cumsum(first)[pair] - 1
    largest = idx.max(initial=0.0)
    if (not (np.isfinite(labels).all() and np.isfinite(data).all())
            or idx.min(initial=1.0) < 1 or largest >= _EXACT
            or (n_features is not None and largest > n_features)
            or (np.diff(idx)[row[1:] == row[:-1]] <= 0).any()):
        return None
    return labels, data, (idx - 1).astype(np.int64), np.bincount(row, minlength=len(labels))


def load_svmlight(path, n_features=None):
    """Read an svmlight/libsvm file: the joined :func:`svmlight_blocks`.

    Returns (csr_matrix, labels), the labels as read. The column count is
    ``n_features`` when given (a larger index is an error), else the
    largest index seen, so trailing all-zero columns need ``n_features``
    to survive a round trip.
    """
    blocks = list(svmlight_blocks(path, n_features))
    if not blocks:
        raise DataFormatError(f"{path}: file is empty")
    return svmlight_csr([np.concatenate(arrays) for arrays in zip(*blocks)], n_features)


def svmlight_csr(block, n_features=None):
    """(csr_matrix, labels) of one (labels, data, columns, pairs per line)
    tuple of :func:`svmlight_blocks`, ``n_features`` columns wide when
    given, else as wide as its largest index."""
    labels, data, cols, counts = block
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    width = int(cols.max(initial=-1)) + 1 if n_features is None else n_features
    return sp.csr_matrix((data, cols, indptr), shape=(len(labels), width)), labels
