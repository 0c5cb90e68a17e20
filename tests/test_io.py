import re

import numpy as np
import pytest
import scipy.sparse as sp

from sketchpcr.io import DataFormatError, load_dense_csv, load_svmlight
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
