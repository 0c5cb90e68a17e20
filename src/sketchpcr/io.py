"""Dataset ingestion: dense CSV and sparse svmlight files.

One row iterator per format (:func:`csv_rows`, :func:`svmlight_rows`)
defines what a valid line is and reads it with Python's ``float`` and
``int``. The loaders parse a whole file with numpy instead (svmlight a
block of lines at a time), and re-read it through the iterator only
when that pass fails or sees anything the iterator would reject or
read differently; so the loaded arrays are always the iterator's, and
every malformed input is rejected by the iterator, with its
``file:line[:col]`` in the message. The streaming CLI reads through
the iterators row by row. Files are UTF-8; a leading byte-order mark
is skipped.
"""

from __future__ import annotations

import itertools
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


def csv_rows(path):
    """Yield the values of each data row of a dense CSV.

    A leading header row is skipped when none of its fields parses as a
    number. Blank lines are ignored. Ragged rows, rows of fewer than
    two fields and NaN/Inf entries are rejected with their location.
    """
    first, width = True, None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if first:
                first = False
                if _is_header(fields):
                    continue
            if width is None:
                width = len(fields)
                if width < 2:
                    raise DataFormatError(f"{path}:{lineno}: need at least two columns")
            elif len(fields) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {width})"
                )
            yield _parse_row(fields, path, lineno)


def svmlight_rows(path, n_features=None):
    """Yield (label, columns, values) per svmlight line.

    Lines read ``label idx:val idx:val ...``; ``#`` starts a comment.
    Indices are 1-based, strictly increasing within a line and, when
    ``n_features`` is given, at most ``n_features``; the yielded columns
    are 0-based.
    """
    _check_feature_count(n_features)
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            label = _parse_float(parts[0], f"{path}:{lineno}:label")
            cols, values = [], []
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
                values.append(_parse_float(value_s, where))
                cols.append(idx - 1)
            if n_features is not None and prev > n_features:
                raise DataFormatError(
                    f"{path}:{lineno}: index {prev} exceeds the feature count {n_features}"
                )
            yield label, cols, values


def load_dense_csv(path):
    """Read a dense CSV whose last column is the response.

    Returns (A, b): the rows :func:`csv_rows` yields, parsed in one
    numpy pass by :func:`_bulk_csv` wherever that reads the same.
    """
    arr = _bulk_csv(path)
    if arr is None:
        arr = _iterated_csv(path)
    return arr[:, :-1], arr[:, -1]


def _iterated_csv(path):
    """The data rows of a dense CSV as one array, from :func:`csv_rows`."""
    rows = list(csv_rows(path))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


# float() keeps these ASCII separators at the edge of a field, where
# np.loadtxt strips them as whitespace.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _loadtxt_lines(lines):
    """The lines for np.loadtxt: blank ones are skipped, as :func:`csv_rows`
    skips them, and one holding an ASCII separator stops the pass."""
    for line in lines:
        if any(c in line for c in _SEPARATORS):
            raise ValueError("ASCII separator in a field")
        if not line.isspace():
            yield line


def _bulk_csv(path):
    """The data rows of a dense CSV as one array, read by one np.loadtxt
    call, or None when that call fails or reads what :func:`csv_rows`
    would reject: then only the iterator can tell where the file is wrong.

    The header and blank lines are found by the iterator's rules. The
    other checks cover what np.loadtxt accepts and the iterator does not:
    a single column, non-finite values and (in :func:`_loadtxt_lines`)
    ASCII separators; anything else either parses the same or fails both.
    """
    with open(path, "r", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt only warns on an input without rows
        lines = _loadtxt_lines(fh)
        try:
            first = next(lines, None)
            if first is None:
                return None
            if not _is_header(first.strip().split(",")):
                lines = itertools.chain([first], lines)
            arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if not len(arr) or arr.shape[1] < 2 or not np.isfinite(arr).all():
        return None
    return arr


def _check_feature_count(n_features):
    if n_features is not None and n_features < 1:
        raise ValueError(f"feature count must be at least 1, got {n_features}")


def load_svmlight(path, n_features=None):
    """Read an svmlight/libsvm file: the lines :func:`svmlight_rows`
    yields, parsed with numpy by :func:`_bulk_svmlight` wherever that
    reads the same.

    Returns (csr_matrix, labels), the labels as read. The column count is
    ``n_features`` when given (a larger index is an error), else the
    largest index seen, so trailing all-zero columns need ``n_features``
    to survive a round trip.
    """
    _check_feature_count(n_features)
    parts = _bulk_svmlight(path, n_features)
    if parts is None:
        parts = _iterated_svmlight(path, n_features)
    labels, data, indices, indptr, largest = parts
    x = sp.csr_matrix((data, indices, indptr),
                      shape=(len(labels), largest if n_features is None else n_features))
    return x, labels


def _iterated_svmlight(path, n_features):
    """(labels, data, indices, indptr, largest index) from :func:`svmlight_rows`."""
    labels = []
    data, indices, indptr = [], [], [0]
    largest = 0
    for label, cols, values in svmlight_rows(path, n_features):
        labels.append(label)
        data.extend(values)
        indices.extend(cols)
        indptr.append(len(data))
        if cols:
            largest = max(largest, cols[-1] + 1)
    if not labels:
        raise DataFormatError(f"{path}: file is empty")
    return (np.asarray(labels), np.asarray(data), np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64), largest)


_SVM_CHARS = b"0123456789+-.eE: \t\n"  # all a file may hold in the bulk pass
_SVM_BLOCK = 1 << 22  # characters per step of the bulk pass, which bound its scratch memory
_EXACT = 2.0 ** 53  # every integer below it is exact as a float


def _bulk_svmlight(path, n_features):
    """(labels, data, indices, indptr, largest index) of an svmlight file
    from np.fromstring passes over its numbers, a block of whole lines at
    a time, or None where only :func:`svmlight_rows` can tell how the file
    is wrong (see :func:`_svmlight_block`).
    """
    blocks = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            while text := fh.read(_SVM_BLOCK):
                block = _svmlight_block(text + fh.readline(), n_features)
                if block is None:
                    return None
                blocks.append(block)
        except UnicodeDecodeError:
            return None  # the iterator reports it as it reads
    if not blocks:
        return None
    labels, data, idx, counts = (np.concatenate(arrays) for arrays in zip(*blocks))
    if not len(labels):
        return None
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return labels, data, (idx - 1).astype(np.int64), indptr, int(idx.max(initial=0.0))


def _svmlight_block(text, n_features):
    """(labels, data, indices as floats, pairs per line) of whole svmlight
    lines, or None if the iterator might read them otherwise.

    Comments are cut first. The pass takes digits, signs, '.', 'e', 'E',
    ':' and blanks only; it checks in bulk that each line is a colon-free
    label followed by ``digits:value`` pairs, that every token is one
    whole number to np.fromstring (so ``1e1:2`` or ``1.5.3`` fall back),
    and every rule of the iterator on the numbers it read.
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
        return np.empty(0), np.empty(0), np.empty(0), np.zeros(0, dtype=np.int64)
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
    return labels, data, idx, np.bincount(row, minlength=len(labels))
