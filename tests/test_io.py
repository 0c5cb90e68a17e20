import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpcr import io as data_io
from sketchpcr.io import (DataFormatError, csv_blocks, load_dense_csv, load_svmlight,
                         svmlight_blocks)
from oracles import write_svmlight


class TestDenseCsv:
    def test_header_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n\n1.5,-2,3\n4,5e-1,6\n")
        a, b = load_dense_csv(path)
        assert np.array_equal(a, [[1.5, -2.0], [4.0, 0.5]])
        assert np.array_equal(b, [3.0, 6.0])

    @pytest.mark.parametrize("text, where", [
        ("1,2,3\n4,x,6\n", ":2:col 2: not a number"),
        ("1,2,3\n4,inf,6\n", ":2:col 2: non-finite"),
        ("1,2,3\n4,5\n", ":2: ragged row"),
        ("1\n2\n", ":1: need at least two columns"),
        ("a,b\n", ": no data rows"),
        ("1.0,2.x,3\n4,5,6\n", ":1:col 2: not a number"),
    ])
    def test_malformed_rejected_with_position(self, tmp_path, text, where):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}{where}"):
            load_dense_csv(path)


class TestSvmlight:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 5))
        dense[rng.random((6, 5)) < 0.5] = 0.0
        dense[:, -1] = 0.0  # a trailing all-zero column is kept by n_features
        b = rng.standard_normal(6)
        path = tmp_path / "d.svm"
        write_svmlight(path, sp.csr_matrix(dense), b)
        x, b_read = load_svmlight(path, n_features=5)
        assert np.array_equal(x.toarray(), dense) and np.array_equal(b_read, b)

    def test_index_past_feature_count_rejected_with_position(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("1 1:1.0 2:1.0\n2 1:1.0 3:2.0\n")
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(str(path))}:2: index 3 exceeds the feature count 2"):
            load_svmlight(path, n_features=2)
        assert load_svmlight(path, n_features=3)[0].shape == (2, 3)

    @pytest.mark.parametrize("line, msg", [
        ("1 0:1.0", "indices are 1-based"),
        ("1 2:1.0 2:3.0", "not greater than previous"),
        ("1 a:1.0", "expected index:value"),
        ("1 3", "expected index:value"),
    ])
    def test_malformed_rejected_with_position(self, tmp_path, line, msg):
        path = tmp_path / "d.svm"
        path.write_text("1 1:1.0 # ok\n" + line + "\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: .*{msg}"):
            load_svmlight(path)


@pytest.mark.parametrize("text", ["1.5,2\r\n3,4\r\n", "x,y\r\n1.5,2\r\n3,4\r\n"],
                         ids=["data-first", "header"])
def test_csv_byte_order_mark_is_skipped(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    assert [block.tolist() for block in csv_blocks(path)] == [[[1.5, 2.0], [3.0, 4.0]]]
    a, b = load_dense_csv(path)
    assert a.tolist() == [[1.5], [3.0]] and b.tolist() == [2.0, 4.0]


def test_svmlight_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "d.svm"
    path.write_bytes("\ufeff1 1:2.5\r\n-1 2:3\r\n".encode("utf-8"))
    assert [[part.tolist() for part in block] for block in svmlight_blocks(path, 2)] == [
        [[1.0, -1.0], [2.5, 3.0], [0, 1], [1, 1]]]
    x, b = load_svmlight(path)
    assert x.toarray().tolist() == [[2.5, 0.0], [0.0, 3.0]] and b.tolist() == [1.0, -1.0]


# Differential tests of the bulk pass. The readers parse each run of lines
# in one numpy pass and fall back to the per-line rules for that run; with
# the pass disabled they are the rules alone, which define the result.
# Every outcome, arrays or error text, must be the same both ways, whatever
# the runs, and a clean file's data lines must all take the bulk pass. The
# pitfalls are malformed inputs, and inputs that numpy reads otherwise than
# float() and int() do.

def _outcome(load, *args):
    try:
        return load(*args)
    except ValueError as exc:  # DataFormatError, a bad feature count, bad UTF-8
        return f"{type(exc).__name__}: {exc}"


def _by_rows(load, *args):
    with mock.patch.object(data_io, "_bulk_csv", return_value=None), \
            mock.patch.object(data_io, "_svmlight_block", return_value=None):
        return _outcome(load, *args)


def _with_rule_lines(load, *args):
    """The loader's outcome, and the lines it handed to the per-line rules."""
    seen = []
    csv_rules, svmlight_rules = data_io._csv_rows, data_io._svmlight_rows
    with mock.patch.object(data_io, "_csv_rows",
                           lambda lines, *rest: seen.extend(lines) or csv_rules(lines, *rest)), \
            mock.patch.object(data_io, "_svmlight_rows",
                              lambda lines, *rest: seen.extend(lines) or svmlight_rules(lines, *rest)):
        return _outcome(load, *args), seen


def _same(x, y):
    """Bit-for-bit equality of loader outcomes, memory layout included."""
    if isinstance(x, tuple) or isinstance(y, tuple):
        return (isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y)
                and all(map(_same, x, y)))
    if sp.issparse(x) or sp.issparse(y):
        return (sp.issparse(x) and sp.issparse(y) and x.shape == y.shape
                and all(_same(getattr(x, k), getattr(y, k)) for k in ("data", "indices", "indptr")))
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and x.dtype == y.dtype
                and x.shape == y.shape and x.strides == y.strides and x.tobytes() == y.tobytes())
    return x == y


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", ".5", "5.", "+1", "1E3", "-2.5e-3", "007"]),
)
CSV_FIELD_PITFALLS = ["", "x", "nan", "inf", "-Infinity", "1e999", "1_0", "1 2", "0x10", '"1"',
                      "\u0661", "\x1c2", "2\x1f", "\x0b5", "5\x0c", "\xa06", "\ufeff1", "#1",
                      "1,2", " 7 ", "\t8"]
CSV_LINE_PITFALLS = ["a,b", "1", "1,2,3,4,5", "\x1c", "\x0b", "\xa0"]
NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    """(text, clean): a CSV, clean when it holds no pitfall."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width), max_size=6))
    lines = [",".join(row) for row in rows]
    clean = True
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            fields = rows[i][:]
            fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(CSV_FIELD_PITFALLS))
            lines[i] = ",".join(fields)
        else:
            lines[i] = draw(st.sampled_from(CSV_LINE_PITFALLS))
        clean = False
    if draw(st.booleans()):
        lines.insert(0, ",".join(["x"] * width))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(NEWLINES))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, clean


LABEL_PITFALLS = ["nan", "inf", "1e999", "x", "1:2", "1.5.3", "1-2", "\u0661"]
PAIR_PITFALLS = ["1e1:2", "3.0:2", "+3:2", "-1:2", "0:2", "00:2", "9007199254740993:1",
                 "1_0:2", "\u0663:2", "3", "3:", ":3", "3::4", "3:4:5", "qid:1", "3:nan",
                 "3:inf", "3:1e999", "3:1.5.3", "3:1-2", "3:0x10", "3:1_0", "3:.", "3:e5"]
SVM_SEPARATORS = [" ", "  ", "\t"]
SVM_SEPARATOR_PITFALLS = ["\x0b", "\x0c", "\x1c", "\xa0", "\u3000"]


@st.composite
def svmlight_texts(draw):
    """(text, clean): an svmlight file, clean when it holds no pitfall."""
    lines, clean = [], True
    for _ in range(draw(st.integers(0, 5))):
        cols = sorted(draw(st.sets(st.integers(1, 12), max_size=5)))
        tokens = [draw(NUMBERS)] + [f"{c}:{draw(NUMBERS)}" for c in cols]
        corrupt = draw(st.integers(0, 5))
        if corrupt == 0:
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i] = draw(st.sampled_from(PAIR_PITFALLS if i else LABEL_PITFALLS))
        elif corrupt == 1 and len(tokens) > 2:
            tokens[1:] = tokens[:0:-1]  # decreasing indices
        separators = SVM_SEPARATORS + (SVM_SEPARATOR_PITFALLS if corrupt == 2 else [])
        line = draw(st.sampled_from(separators)).join(tokens)
        clean = clean and corrupt > 2
        lines.append(line + draw(st.sampled_from(["", " ", " # a note", "#1:2"])))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# only a comment"])))
    newline = draw(st.sampled_from(NEWLINES))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, clean


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@pytest.mark.parametrize("text", [
    *(f"1,{field}\n3,4\n" for field in CSV_FIELD_PITFALLS),
    *(f"1,2\n{line}\n3,4\n" for line in CSV_LINE_PITFALLS),
    "", "x,y\n", "1\n2\n", "1,2\n", "x,y\n\n1,2\r\n3,4", "\n \n1,2\n",
], ids=repr)
def test_csv_pitfalls_read_as_the_row_iterator_reads(text, scratch):
    path = scratch / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _same(_outcome(load_dense_csv, path), _by_rows(load_dense_csv, path))


@pytest.mark.parametrize("text", [
    *(f"{label} 1:2\n" for label in LABEL_PITFALLS),
    *(f"1 {pair}\n" for pair in PAIR_PITFALLS),
    *(f"1 1:2{sep}3:4\n" for sep in SVM_SEPARATOR_PITFALLS + ["\x01", "\x1f"]),
    "", "# only a comment\n", "1\n-1 1:2 # 3:4\n", "1 3:1 2:1\n", "1 2:1 2:1\n",
], ids=repr)
@pytest.mark.parametrize("n_features", [None, 3, 0])
def test_svmlight_pitfalls_read_as_the_row_iterator_reads(text, n_features, scratch):
    path = scratch / "p.svm"
    path.write_bytes(text.encode("utf-8"))
    assert _same(_outcome(load_svmlight, path, n_features),
                 _by_rows(load_svmlight, path, n_features))


@settings(max_examples=300, deadline=None)
@given(case=csv_texts(), block=st.sampled_from([1, 16, data_io._BLOCK]))
def test_csv_bulk_pass_reads_what_the_row_iterator_reads(case, block, scratch):
    text, clean = case
    path = scratch / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _by_rows(load_dense_csv, path)
    with mock.patch.object(data_io, "_BLOCK", block):  # several runs of lines per file
        got, rule_lines = _with_rule_lines(load_dense_csv, path)
    assert _same(got, want)
    if clean and not isinstance(want, str):
        assert not any(map(str.strip, rule_lines))  # only blank lines left to the rules


@settings(max_examples=300, deadline=None)
@given(case=svmlight_texts(), n_features=st.one_of(st.none(), st.integers(0, 14)),
       block=st.sampled_from([1, 16, data_io._BLOCK]))
def test_svmlight_bulk_pass_reads_what_the_row_iterator_reads(case, n_features, block, scratch):
    text, clean = case
    path = scratch / "d.svm"
    path.write_bytes(text.encode("utf-8"))
    want = _by_rows(load_svmlight, path, n_features)
    with mock.patch.object(data_io, "_BLOCK", block):  # several runs of lines per file
        got, rule_lines = _with_rule_lines(load_svmlight, path, n_features)
    assert _same(got, want)
    if clean and not isinstance(want, str):
        assert rule_lines == []


@pytest.mark.parametrize("load, row", [(load_dense_csv, b"1,2\n"), (load_svmlight, b"1 1:2\n")],
                         ids=["csv", "svmlight"])
def test_bad_utf8_reported_as_the_row_iterator_reports(load, row, scratch):
    path = scratch / "utf8"
    path.write_bytes(row * 5000 + b"\xff" + row)  # past the text layer's first chunk
    want = f"DataFormatError: {path}:5001: byte 0xff is not UTF-8"
    assert _by_rows(load, path) == want and _outcome(load, path) == want


@pytest.mark.parametrize("load, line, odd", [
    (load_dense_csv, "{i}.5,{i},-{i}\n", "1_0,2,3\n"),
    (load_svmlight, "{i} 1:{i}.5 3:-{i}\n", "1 1:1_0\n"),
], ids=["csv", "svmlight"])
def test_a_run_the_bulk_pass_cannot_take_alone_goes_to_the_rules(load, line, odd, scratch):
    # A valid line that numpy reads otherwise than float() and int() (a
    # digit separator) sends its own run of lines to the per-line rules,
    # and no other line: the file is not read a second time.
    path = scratch / "odd"
    lines = [line.format(i=i) for i in range(200)]
    lines[150] = odd
    path.write_text("x,y,z\n" * (load is load_dense_csv) + "".join(lines))
    with mock.patch.object(data_io, "_BLOCK", 256):
        runs = [run for _, run in data_io._chunks(path)]
        got, rule_lines = _with_rule_lines(load, path)
    assert len(runs) > 3 and got[0].shape[0] == 200
    assert rule_lines == next(run for run in runs if odd in run)
    assert _same(got, _by_rows(load, path))
