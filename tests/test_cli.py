import dataclasses
import json
import math
import time

import numpy as np
import pytest

from sketchpcr import evaluation as ev
from sketchpcr import io as data_io
from sketchpcr import cli, kernel, sketch, solvers, streaming
from sketchpcr.cli import SOLVERS, _parse_synthetic, main
from oracles import write_svmlight

STREAM = ["stream", "--k", "1", "--s", "2", "--t", "2"]


def test_verify_passes_with_defaults(monkeypatch):
    shapes = []
    for name in ("gen_subgaussian", "gen_countsketch"):
        real = getattr(sketch, name)
        monkeypatch.setattr(sketch, name, lambda rows, n, seed, real=real:
                            shapes.append((rows, n)) or real(rows, n, seed))
    assert main(["verify"]) == 0
    # The Gram checks run where sketches compress: to at most a quarter of the rows.
    assert {n for _, n in shapes} == {640, 10_000}
    assert all(4 * rows <= n for rows, n in shapes)


def test_verify_fails_a_risk_bound_whose_prerequisite_fails(monkeypatch, capsys):
    real = ev.pcr_corollary_bound
    monkeypatch.setattr(ev, "pcr_corollary_bound", lambda *args: dataclasses.replace(
        real(*args), prerequisite_ok=False))
    assert main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  risk_pcr_corollary" in out and "prerequisite not met" in out


def test_verify_factors_a_once(tmp_path, monkeypatch):
    real, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *a, **kw: shapes.append(np.shape(m)) or real(m, *a, **kw))
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    assert shapes.count((96, 64)) == 1
    assert all(row["pass"] for row in json.loads(out.read_text())["aggregates"])


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


def test_svmlight_stream_rejects_dims_below_1(tmp_path, capsys):
    path = tmp_path / "good.svm"
    path.write_text("1.0 1:2.0\n")
    assert main(STREAM + ["--data", str(path), "--dims", "0"]) == 1
    assert "feature count must be at least 1" in capsys.readouterr().err


def test_csv_stream(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("x1,x2,y\n1,2,3\n2,1,0\n0,1,1\n")
    assert main(STREAM + ["--data", str(good)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n2,1\n")
    assert main(STREAM + ["--data", str(bad)]) == 1
    assert f"{bad}:2: ragged row" in capsys.readouterr().err


@pytest.mark.parametrize("kind, dims, bad_line, said", [
    ("csv", 5, b"1,2\r\n", "ragged row"),
    ("csv", 5, b"1,2,3,4,5,\xff6\r\n", "byte 0xff is not UTF-8"),
    ("svmlight", 5, b"1 0:2\n", "indices are 1-based"),
    ("svmlight", 5, b"1 1:\xff\n", "byte 0xff is not UTF-8"),
    ("svmlight", 8, b"1 0:2\n", "indices are 1-based"),
], ids=["csv-ragged", "csv-utf8", "svmlight-index", "svmlight-utf8", "svmlight-wide"])
def test_stream_reads_what_the_loaders_read(kind, dims, bad_line, said, tmp_path, monkeypatch,
                                           capsys):
    # svmlight-wide: --dims 8 is wider than the largest index, 5, so three
    # trailing zero columns are streamed.
    rng = np.random.default_rng(8)
    ab = rng.standard_normal((300, 6))
    ab[rng.random(ab.shape) < 0.3] = 0.0
    path = tmp_path / f"ab.{kind}"
    if kind == "csv":  # a header, CRLF line ends and blank lines
        lines = [",".join(map(repr, row)) for row in ab.tolist()]
        lines[100:100] = ["", "  "]
        path.write_bytes(("x1,x2,x3,x4,x5,y\r\n" + "\r\n".join(lines) + "\r\n").encode())
        a, b = data_io.load_dense_csv(path)
        flags = []
    else:
        write_svmlight(path, ab[:, :-1], ab[:, -1])
        a, b = data_io.load_svmlight(path, n_features=dims)
        a = a.toarray()
        flags = ["--dims", str(dims)]
    want = streaming.stream_init(dims, 8, 16, 0)
    for row, b_entry in zip(a, b):
        streaming.stream_update(want, row, b_entry)
    want = streaming.stream_finalize(want, 2).x

    real, got = streaming.stream_finalize, []
    monkeypatch.setattr(streaming, "stream_finalize", lambda st, k: got.append(real(st, k)) or got[-1])
    monkeypatch.setattr(data_io, "_BLOCK", 256)  # many runs of lines per file
    assert len(list(data_io._chunks(path))) > 10
    argv = ["stream", "--data", str(path), *flags, "--k", "2", "--s", "8", "--t", "16"]
    assert main(argv) == 0
    assert got[0].x.tobytes() == want.tobytes()

    lineno = path.read_bytes().count(b"\n") + 1
    with open(path, "ab") as fh:
        fh.write(bad_line)
    capsys.readouterr()
    assert main(argv) == 1
    where = f"{path}:{lineno}"
    err = capsys.readouterr().err
    assert where in err and said in err and len(got) == 1
    for load in ("solve", "kernel"):  # the loaders report it alike
        assert main([load, "--data", str(path), *flags, "--k", "2"]) == 1
        assert capsys.readouterr().err == err


@pytest.mark.parametrize("suffix", ["CSV", "Csv"])
def test_csv_suffix_in_any_case(suffix, tmp_path):
    text = "x1,x2,y\n1,2,3\n2,1,0\n0,1,1\n"
    reports = []
    for name in ("ab.csv", f"ab.{suffix}"):
        (tmp_path / name).write_text(text)
        out = tmp_path / f"{name}.json"
        assert main(["solve", "--data", str(tmp_path / name), "--k", "1", "--out", str(out)]) == 0
        assert main(STREAM + ["--data", str(tmp_path / name)]) == 0
        reports.append(json.loads(out.read_text())["records"][0]["objective_over_b"])
    assert reports[0] == reports[1]


def test_solve_svmlight_honours_dims(tmp_path, capsys):
    path = tmp_path / "d.svm"
    path.write_text("1.0 1:2.0\n2.0 1:1.0 2:4.0\n3.0 2:1.0\n")
    assert main(["solve", "--data", str(path), "--k", "1", "--dims", "3"]) == 0
    assert main(["solve", "--data", str(path), "--k", "1", "--dims", "1"]) == 1
    assert f"{path}:2: index 2 exceeds the feature count 1" in capsys.readouterr().err


def test_solve_svmlight_centers_the_response_when_asked(tmp_path):
    path = tmp_path / "d.svm"
    path.write_text("1.0 1:2.0\n2.0 1:1.0 2:4.0\n3.0 2:1.0 3:0.5\n7.0 1:-1.0 3:3.0\n")
    out = tmp_path / "r.json"
    assert main(["solve", "--data", str(path), "--k", "1", "--dims", "3",
                 "--center-response", "--out", str(out)]) == 0
    a, b = data_io.load_svmlight(path, n_features=3)
    b = b - b.mean()
    sol = solvers.exact_pcr(solvers.PcrProblem(a=a, b=b, k=1))
    got = json.loads(out.read_text())["records"][0]["objective_over_b"]
    assert got == pytest.approx(sol.objective / np.linalg.norm(b), rel=1e-12)
    assert abs(b.mean()) < 1e-15


@pytest.mark.parametrize("kind", ["csv", "synthetic"])
def test_center_response_centers_b_of_every_input(kind, tmp_path):
    spec = "60,6,2,0.5"
    a, b, k = _parse_synthetic(spec, 0)
    source = ["--synthetic", spec]
    if kind == "csv":
        b = b + 3.0   # a response mean that centering must remove
        path = tmp_path / "d.csv"
        np.savetxt(path, np.column_stack([a, b]), delimiter=",", fmt="%.17g")
        source = ["--data", str(path)]
    out = tmp_path / "r.json"
    assert main(["solve", *source, "--k", str(k), "--center-response", "--out", str(out)]) == 0
    b = b - b.mean()
    sol = solvers.exact_pcr(solvers.PcrProblem(a=a, b=b, k=k))
    got = json.loads(out.read_text())["records"][0]["objective_over_b"]
    assert got == pytest.approx(sol.objective / np.linalg.norm(b), rel=1e-12)


@pytest.mark.parametrize("response, code", [
    (np.full(50, 0.1), 1),       # centering leaves only the rounding of the mean
    (np.zeros(50), 1),
    (0.1 + 1e-9 * np.random.default_rng(7).standard_normal(50), 0),
], ids=["constant", "zero", "small"])
def test_a_centered_response_that_is_rounding_is_zero(response, code, tmp_path, capsys):
    path = tmp_path / "ab.csv"
    a = np.random.default_rng(6).standard_normal((50, 3))
    np.savetxt(path, np.column_stack([a, response]), delimiter=",")
    argv = ["solve", "--data", str(path), "--k", "2", "--center-response",
            "--solver", "exact,left", "--ratio", "4", "--out", str(tmp_path / "r.json")]
    assert main(argv) == code
    said = "the response b is zero after --center-response" in capsys.readouterr().err
    assert said == (code == 1)


@pytest.mark.parametrize("response, flags, said", [
    (0.0, [], "the response b is zero:"),
    (2.0, ["--center-response"], "the response b is zero after --center-response:"),
], ids=["zero", "constant-centered"])
def test_a_zero_response_exits_1_before_any_cell(response, flags, said, tmp_path, capsys,
                                                  monkeypatch):
    a = np.random.default_rng(5).standard_normal((40, 5))
    path = tmp_path / "ab.csv"
    np.savetxt(path, np.column_stack([a, np.full(40, response)]), delimiter=",")
    data = ["--data", str(path), "--k", "2"]
    # stream and kernel fit a zero b; they report no ratio to |b|
    assert main(["stream", *data, "--ratio", "4"]) == 0
    assert main(["kernel", *data, *flags]) == 0
    monkeypatch.setattr(cli, "_record_for", lambda *args: pytest.fail("a cell ran"))
    for task in ("solve", "sweep"):
        capsys.readouterr()
        assert main([task, *data, *flags, "--solver", "exact,left", "--ratio", "4"]) == 1
        assert said in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--data", "ab.csv", "--k", "1"],
    STREAM + ["--data", "ab.csv"],
    ["solve", "--synthetic", "60,12,2,0.5"],
    ["kernel", "--synthetic", "60,12,2,0.5", "--k", "2"],
], ids=["solve-csv", "stream-csv", "solve-synthetic", "kernel-synthetic"])
def test_dims_is_rejected_for_input_other_than_svmlight(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ab.csv").write_text("1,2,3\n2,1,0\n0,1,1\n")
    for module, name in ((data_io, "load_dense_csv"), (data_io, "csv_blocks"),
                         (ev, "planted_matrix")):
        monkeypatch.setattr(module, name, lambda *args, **kw: pytest.fail("data was loaded"))
    assert main(argv + ["--dims", "3"]) == 1
    assert "--dims applies to svmlight input only" in capsys.readouterr().err


def test_sketched_kernel_features_computed_once(tmp_path, monkeypatch):
    synthetic, seed, rank, width = "80,4,2,0.5", 3, 2, 64
    a, b, _ = _parse_synthetic(synthetic, seed)
    ts = sketch.gen_tensorsketch(2, a.shape[1], width, seed)
    model = kernel.sketched_kernel_pcr(a, b, rank, ts)
    want = float(np.linalg.norm(model.fitted - b) / math.sqrt(len(b)))

    real, calls = sketch.tensorsketch_fourier, []
    monkeypatch.setattr(kernel, "tensorsketch_fourier",
                        lambda *args: calls.append(1) or real(*args))
    out = tmp_path / "kernel.json"
    assert main(["kernel", "--synthetic", synthetic, "--seed0", str(seed), "--degree", "2",
                 "--k", str(rank), "--sketch-cols", str(width), "--out", str(out)]) == 0
    report, = json.loads(out.read_text())["aggregates"]
    assert (report["mode"], report["sketch_cols"], report["train_rmse"]) == ("sketched", width, want)
    assert len(calls) == 1


def test_exact_kernel_matrix_computed_once(tmp_path, monkeypatch):
    synthetic, rank, spec = "80,4,2,0.5", 2, kernel.KernelSpec(3, 0.5)
    a, b, _ = _parse_synthetic(synthetic, 0)
    model = kernel.fit_exact(a, b, rank, spec)
    want = float(np.linalg.norm(model.fitted - b) / math.sqrt(len(b)))

    real, calls = kernel._kernel_upper, []
    monkeypatch.setattr(kernel, "_kernel_upper", lambda *args: calls.append(1) or real(*args))
    out = tmp_path / "kernel.json"
    assert main(["kernel", "--synthetic", synthetic, "--degree", "3", "--offset", "0.5",
                 "--k", str(rank), "--out", str(out)]) == 0
    report, = json.loads(out.read_text())["aggregates"]
    assert (report["mode"], report["sketch_cols"], report["train_rmse"]) == ("exact", None, want)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", [[], ["--sketch-cols", "16"]])
def test_kernel_rejects_an_overflowed_gram(mode, capsys):
    argv = ["kernel", "--synthetic", "80,4,2,0.5", "--k", "2", "--offset", "10", "--degree", "400"]
    assert main(argv + mode) == 1
    assert "the Gram matrix overflowed float64" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["exact,left", "left,exact"])
def test_sweep_exact_wall_time_includes_the_svd(order, tmp_path, monkeypatch):
    real = solvers.thin_svd

    def slow_thin_svd(m):
        time.sleep(0.05)
        return real(m)

    monkeypatch.setattr(solvers, "thin_svd", slow_thin_svd)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--synthetic", "60,12,2,0.5", "--ratio", "3", "--seeds", "2",
                 "--solver", order, "--out", str(out)]) == 0
    exact, = [e for e in json.loads(out.read_text())["aggregates"] if e["method"] == "exact"]
    assert exact["wall_time"]["min"] >= 0.05


def _sweep_ks(tmp_path):
    """`pcr sweep` over three k on a random 200 x 30 A, whose spectrum has a
    gap at every k."""
    path = tmp_path / "ab.csv"
    np.savetxt(path, np.random.default_rng(5).standard_normal((200, 31)), delimiter=",")
    return ["sweep", "--data", str(path), "--k", "2,3,4", "--solver", "exact,left",
            "--ratio", "4", "--seeds", "2"]


def test_sweep_factors_a_once_for_every_k(tmp_path, monkeypatch):
    args = _sweep_ks(tmp_path)
    real, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *a, **kw: shapes.append(np.shape(m)) or real(m, *a, **kw))
    assert main(args + ["--out", str(tmp_path / "sweep.json")]) == 0
    assert shapes.count((200, 30)) == 1


def _untimed(path):
    payload = json.loads(path.read_text())
    for entry in payload["records"] + payload["aggregates"]:
        entry.pop("wall_time")
    return payload


def test_sweep_report_equals_one_problem_per_k(tmp_path, monkeypatch):
    args = _sweep_ks(tmp_path)
    shared, separate = tmp_path / "shared.json", tmp_path / "separate.json"
    assert main(args + ["--out", str(shared)]) == 0
    monkeypatch.setattr(solvers.PcrProblem, "for_ranks", classmethod(
        lambda cls, a, b, ks: {k: cls(a=a, b=b, k=k) for k in ks}))
    assert main(args + ["--out", str(separate)]) == 0
    assert _untimed(shared) == _untimed(separate)


SYNTH = ["--synthetic", "200,30,3,0.5"]
STREAM_CSV = ["stream", "--data", "ab.csv"]


def _record(path):
    record, = json.loads(path.read_text())["records"]
    record.pop("wall_time")
    return record


@pytest.mark.parametrize("solver, sizes, cells", [
    *((solver, ["--ratio", "4"], 1) for solver in SOLVERS),
    ("left", ["--k", "3,4", "--s", "12,24"], 4),
], ids=[*SOLVERS, "left-k3,4-s12,24"])
def test_solve_records_what_sweep_records(solver, sizes, cells, tmp_path):
    solve, sweep = tmp_path / "solve.json", tmp_path / "sweep.json"
    args = SYNTH + ["--solver", solver] + sizes
    assert main(["solve"] + args + ["--out", str(solve)]) == 0
    assert main(["sweep"] + args + ["--seeds", "1", "--out", str(sweep)]) == 0
    got, want = _untimed(solve), _untimed(sweep)
    assert (got.pop("task"), want.pop("task")) == ("solve", "sweep")
    assert got == want
    assert len(got["records"]) == cells
    for record in got["records"]:
        assert (record["s"] is None) == ("s" not in SOLVERS[solver].axes)


def test_cls_with_more_columns_than_the_planted_rank_exits_0(tmp_path):
    # t = 40 > d = 30: A R has rank 30 at most, and CLS takes its pseudo-inverse.
    out = tmp_path / "solve.json"
    assert main(["solve"] + SYNTH + ["--solver", "cls", "--t", "40", "--k", "5",
                                     "--out", str(out)]) == 0
    assert _record(out)["error"] is None


def test_input_sparsity_wall_time_excludes_the_objective(monkeypatch):
    a, b, k = _parse_synthetic("200,30,3,0.5", 0)
    monkeypatch.setattr(solvers, "input_sparsity_pcp",
                        lambda p, s, t, seed: np.zeros(p.shape[1]))
    real = np.linalg.norm

    def slow_norm(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", slow_norm)
    sol = SOLVERS["input-sparsity"].fn(solvers.PcrProblem(a=a, b=b, k=k), 12, 12, 0)
    assert sol.objective == pytest.approx(real(b))
    assert sol.wall_time < 0.05


def test_input_sparsity_records_the_k_columns_of_r_as_twosided_does():
    # R = G^T V_{D,k} has k columns, like two-sided's R, whatever t is.
    a, b, k = _parse_synthetic("200,30,3,0.5", 0)
    p = solvers.PcrProblem(a=a, b=b, k=k)
    got = SOLVERS["input-sparsity"].fn(p, 12, 16, 0).r_cols
    assert got == SOLVERS["twosided"].fn(p, 12, 16, 0).r_cols == k


def test_input_sparsity_is_certified_as_a_projection(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve"] + SYNTH + ["--solver", "input-sparsity", "--ratio", "4",
                                     "--out", str(out)]) == 0
    a, b, k = _parse_synthetic("200,30,3,0.5", 0)
    p = solvers.PcrProblem(a=a, b=b, k=k)
    y = solvers.input_sparsity_pcp(p, s=12, t=12, seed=0)
    sol = solvers.PcrSolution(x=y, method="input-sparsity", r_cols=12,
                              objective=float(np.linalg.norm(a @ y - b)),
                              constraint_norm=None, wall_time=0.0)
    want = solvers.certify(p, sol, mode="pcp").upsilon_observed
    assert _record(out)["constraint_over_b"] == want
    assert want != solvers.certify(p, sol, mode="pcr").upsilon_observed


@pytest.mark.parametrize("argv, message", [
    (["sweep"] + SYNTH + ["--solver", "exact,lft", "--ratio", "4"], "unknown solver 'lft'"),
    (["solve"] + SYNTH + ["--solver", "input-sparsity"], "input-sparsity needs --s or --ratio"),
    (["solve"] + SYNTH + ["--solver", "right", "--s", "8"], "right needs --t or --ratio"),
    (["sweep"] + SYNTH + ["--solver", "left", "--s", "0"], "--s must be at least 1, got 0"),
    (["solve"] + SYNTH + ["--solver", "left", "--ratio", "0"], "--ratio must be at least 1"),
    (["sweep"] + SYNTH + ["--k", "2,3", "--solver", "exact,left", "--ratio", "4"],
     "--k 2 is below the planted rank k=3"),
    (["sweep"] + SYNTH + ["--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["sweep"] + SYNTH + ["--solver", "exact,exact"], "--solver repeats a value: exact,exact"),
    (["sweep"] + SYNTH + ["--k", "3,4,3"], "--k repeats a value: 3,4,3"),
    (["solve"] + SYNTH + ["--solver", "left", "--s", "8,9,8"], "--s repeats a value: 8,9,8"),
    (["sweep"] + SYNTH + ["--solver", "right", "--t", "8,8"], "--t repeats a value: 8,8"),
    # ab.csv does not exist: reading it first would fail with another message
    (STREAM_CSV + ["--k", "0", "--s", "5", "--t", "5"], "--k must be at least 1, got 0"),
])
def test_configuration_errors_exit_1_before_any_cell_runs(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(solvers, "exact_pcr", lambda p: pytest.fail("a cell ran"))
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_stream_rejects_a_ratio_below_1(tmp_path, capsys):
    path = tmp_path / "good.csv"
    path.write_text("1,2,3\n2,1,0\n0,1,1\n")
    assert main(["stream", "--data", str(path), "--k", "1", "--ratio", "0"]) == 1
    assert "--ratio must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (STREAM_CSV + ["--k", "1,2", "--s", "2", "--t", "2"], "--k"),
    (STREAM_CSV + ["--k", "1", "--s", "2,4", "--t", "2"], "--s"),
    (STREAM_CSV + ["--k", "1", "--s", "2", "--t", "2,4"], "--t"),
    (["kernel", "--synthetic", "80,4,2,0.5", "--k", "2,3"], "--k"),
])
def test_one_cell_subcommands_reject_a_comma_list(argv, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ab.csv").write_text("1,2,3\n2,1,0\n0,1,1\n")
    assert main(argv) == 1
    assert f"runs one cell: {flag} takes one value" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, flag", [(["--s", "2", "--t", "8"], "--s 2"),
                                         (["--s", "8", "--t", "2"], "--t 2")])
def test_stream_rejects_a_sketch_below_k_before_reading_a_row(sizes, flag, capsys, monkeypatch):
    monkeypatch.setattr(data_io, "csv_blocks", lambda path: pytest.fail("a row was read"))
    assert main(STREAM_CSV + ["--k", "3"] + sizes) == 1
    assert f"{flag} is below --k 3" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--sketch-cols", "16"]])
def test_kernel_rejects_a_negative_offset_before_loading(mode, capsys, monkeypatch):
    monkeypatch.setattr(ev, "planted_matrix", lambda *args, **kw: pytest.fail("data was loaded"))
    for offset in ("-1", "nan", "inf"):
        assert main(["kernel"] + SYNTH + ["--k", "2", "--offset", offset] + mode) == 1
        assert "kernel offset must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("cols", ["-5", "0"])
def test_kernel_rejects_a_sketch_width_below_1_before_loading(cols, capsys, monkeypatch):
    monkeypatch.setattr(ev, "planted_matrix", lambda *args, **kw: pytest.fail("data was loaded"))
    argv = ["kernel"] + SYNTH + ["--k", "2", "--sketch-cols", cols]
    assert main(argv) == 1
    assert f"--sketch-cols must be at least 1, got {cols}" in capsys.readouterr().err


@pytest.mark.parametrize("task, lists", [("solve", True), ("sweep", True),
                                         ("stream", False), ("kernel", False)])
def test_only_grid_subcommands_offer_a_comma_list(task, lists, capsys):
    with pytest.raises(SystemExit):
        main([task, "--help"])
    assert ("comma list" in capsys.readouterr().out) == lists


def test_kernel_lapack_non_convergence_exits_1(monkeypatch, capsys):
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert main(["kernel"] + SYNTH + ["--k", "2"]) == 1
    assert "error: eigh failed to converge: Eigenvalues did not converge" in capsys.readouterr().err


def test_degree_1_kernel_pcr_on_ten_equal_singular_values_is_exact_pcr(tmp_path):
    # The planted A has ten equal top singular values: K = A A^T has a
    # top eigenvalue of multiplicity 10 = k, and a degree-1 kernel fit
    # with offset 0 is PCR on A.
    spec, k = "400,60,10,0.3", 10
    out = tmp_path / "k.json"
    assert main(["kernel", "--synthetic", spec, "--k", str(k), "--degree", "1",
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text())["aggregates"][0]["train_rmse"]
    a, b, _ = _parse_synthetic(spec, 0)
    u = np.linalg.svd(a, full_matrices=False)[0][:, :k]
    want = np.linalg.norm(u @ (u.T @ b) - b) / math.sqrt(len(b))
    assert got == pytest.approx(want, rel=1e-10)


def test_kernel_rank_is_not_held_to_the_planted_rank(tmp_path):
    assert main(["kernel"] + SYNTH + ["--k", "2", "--out", str(tmp_path / "k.json")]) == 0


@pytest.mark.parametrize("offset", [[], ["--offset", "0.5"]], ids=["no-offset", "offset"])
@pytest.mark.parametrize("mode", [[], ["--sketch-cols", "64"]], ids=["exact", "sketched"])
def test_kernel_reports_on_svmlight_equal_those_on_the_same_csv(tmp_path, mode, offset):
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((60, 5)), rng.standard_normal(60)
    a[a < -1.0] = 0.0   # entries the svmlight file leaves out
    np.savetxt(tmp_path / "ab.csv", np.column_stack([a, b]), delimiter=",")
    write_svmlight(tmp_path / "ab.svm", a, b)
    reports = []
    for data in (["ab.csv"], ["ab.svm", "--dims", "5"]):
        out = tmp_path / "k.json"
        assert main(["kernel", "--data", str(tmp_path / data[0]), *data[1:], "--k", "2",
                     *mode, *offset, "--out", str(out)]) == 0
        report, = json.loads(out.read_text())["aggregates"]
        del report["wall_time"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_kernel_takes_its_rank_from_k_on_a_data_file(tmp_path):
    path = tmp_path / "f.csv"
    np.savetxt(path, np.random.default_rng(6).standard_normal((40, 5)), delimiter=",")
    assert main(["kernel", "--data", str(path), "--k", "3", "--degree", "2",
                 "--out", str(tmp_path / "k.json")]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--data", "x"],
    ["verify", "--solver", "bogus"],
    ["solve", "--synthetic", "60,12,2,0.5", "--seeds", "5"],
    ["solve", "--synthetic", "60,12,2,0.5", "--degree", "9"],
    ["stream", "--data", "x.csv", "--k", "1", "--synthetic", "60,12,2,0.5"],
    ["kernel", "--synthetic", "60,12,2,0.5", "--rank", "2"],
    ["kernel", "--synthetic", "60,12,2,0.5", "--ratio", "2"],
    ["solve", "--synthetic", "60,12,2,0.5", "--format", "csv"],
    ["sweep", "--synthetic", "60,12,2,0.5", "--format", "csv"],
    ["stream", "--data", "x.csv", "--k", "1", "--format", "csv"],
    ["kernel", "--synthetic", "60,12,2,0.5", "--format", "csv"],
    ["verify", "--format", "csv"],
    ["verify", "--const-c", "8"],
    ["kernel", "--synthetic", "60,12,2,0.5", "--mode", "sketched", "--sketch-cols", "16"],
])
def test_a_flag_the_subcommand_does_not_read_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--data", "x.csv", "--k", "1", "--solver", "right", "--t", "2"],
    ["solve", "--data", "x.csv", "--k", "1", "--solver", "exact"],
    ["sweep", "--synthetic", "60,12,2,0.5"],
    ["stream", "--data", "x.csv", "--k", "1", "--ratio", "2"],
    ["kernel", "--synthetic", "60,12,2,0.5"],
    ["verify"],
], ids=["solve-right", "solve-exact", "sweep", "stream", "kernel", "verify"])
@pytest.mark.parametrize("seed0", ["-1", "x"])
def test_a_bad_seed0_exits_1_before_any_work(argv, seed0, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed0", seed0])
    assert exc.value.code == 1
    assert "--seed0" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("1,10,1,0.5", "k=1 must lie in"),
    ("50,10,2,1.5", "gap_target must lie in (0, 1)"),
])
def test_an_invalid_synthetic_spec_names_the_flag(spec, message, capsys):
    assert main(["solve", "--synthetic", spec]) == 1
    assert f"error: --synthetic '{spec}' is not a valid n,d,k,gap: {message}" \
        in capsys.readouterr().err
