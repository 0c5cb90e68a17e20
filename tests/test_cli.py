import pytest

from sketchpcr.cli import main

STREAM = ["stream", "--k", "1", "--s", "2", "--t", "2"]


def test_verify_passes_with_defaults():
    assert main(["verify"]) == 0


def test_good_svmlight_stream_exits_0(tmp_path):
    path = tmp_path / "good.svm"
    path.write_text("1.0 1:2.0 2:3.0\n2.0 1:1.0 2:4.0\n3.0 2:1.0\n")
    assert main(STREAM + ["--data", str(path), "--dims", "2"]) == 0


@pytest.mark.parametrize("text", [
    "1.0 0:2.0 1:3.0\n",          # index 0: indices are 1-based
    "1.0 1:2.0 9:3.0\n",          # index past --dims
    "1.0 2:2.0 1:3.0\n",          # indices out of order
    "1.0 1-2.0\n",                # not index:value
    "1.0 1:nan\n",                # non-finite value
])
def test_malformed_svmlight_stream_exits_1(tmp_path, capsys, text):
    path = tmp_path / "bad.svm"
    path.write_text("2.0 1:1.0 2:4.0\n" + text)
    assert main(STREAM + ["--data", str(path), "--dims", "2"]) == 1
    assert f"{path}:2" in capsys.readouterr().err


def test_svmlight_stream_needs_dims(tmp_path):
    path = tmp_path / "good.svm"
    path.write_text("1.0 1:2.0\n")
    assert main(STREAM + ["--data", str(path)]) == 1


def test_csv_stream(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("x1,x2,y\n1,2,3\n2,1,0\n0,1,1\n")
    assert main(STREAM + ["--data", str(good)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n2,1\n")
    assert main(STREAM + ["--data", str(bad)]) == 1
    assert f"{bad}:2: ragged row" in capsys.readouterr().err
