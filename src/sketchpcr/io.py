"""Dataset ingestion: dense CSV and sparse svmlight files.

One row iterator per format (:func:`csv_rows`, :func:`svmlight_rows`)
parses and validates each line; the loaders and the streaming CLI both
read through them. Malformed input is rejected with the offending
position in the error message instead of guessing.
"""

from __future__ import annotations

import math

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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if first:
                first = False
                if not any(map(_is_number, fields)):
                    continue  # header row
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
    if n_features is not None and n_features < 1:
        raise ValueError(f"feature count must be at least 1, got {n_features}")
    with open(path, "r", encoding="utf-8") as fh:
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

    Returns (A, b). Rows are read and validated by :func:`csv_rows`.
    """
    rows = list(csv_rows(path))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return arr[:, :-1], arr[:, -1]


def load_svmlight(path, n_features=None):
    """Read an svmlight/libsvm file, validated by :func:`svmlight_rows`.

    Returns (csr_matrix, labels), the labels as read. The column count is
    ``n_features`` when given (a larger index is an error), else the
    largest index seen, so trailing all-zero columns need ``n_features``
    to survive a round trip.
    """
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
    x = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), largest if n_features is None else n_features),
    )
    return x, np.asarray(labels)
