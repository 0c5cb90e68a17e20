"""Tests of the benchmark itself, on reduced sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, leftover_wrappers, package_modules  # noqa: E402

SMALL = {
    "sparse-nnz": dict(n=4000, d=200, k=4, cols_per_topic=6, noise_per_row=2,
                       zipf=1.1, tau=0.12),
    "dense-certified": dict(n=400, d=60, k=4, gap=0.3),
    "stream-rows": dict(n=1000, d=20, k=3, gap=0.3),
    "kernel-poly": dict(n=300, held_out=30, d=8, latent=3, spread=0.15),
}
NAMES = list(SMALL)


def _loaded(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](SMALL[name])
    path, record = inputs.ensure(name, seed, tmp_path, wl.sizes)
    assert wl.load(path) == record["digest"]
    wl.reference()
    return wl


def _bindings():
    return {(m.__name__, attr): value
            for m in package_modules() for attr, value in vars(m).items()}


def test_same_seed_writes_identical_files(tmp_path):
    for name in NAMES:
        a, _ = inputs.ensure(name, 5, tmp_path / "a", SMALL[name])
        b, _ = inputs.ensure(name, 5, tmp_path / "b", SMALL[name])
        c, _ = inputs.ensure(name, 6, tmp_path / "c", SMALL[name])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_traced_op_gives_bit_identical_solutions(name, tmp_path):
    wl = _loaded(name, tmp_path)
    plain = wl.op(11)
    with Tracer(wl.a_shape) as tr:
        tr.op = 0
        traced = wl.op(11)
    assert leftover_wrappers() == []
    assert tr.spans, "the tracer recorded nothing"
    assert [s.name for s in plain] == [s.name for s in traced]
    for p, t in zip(plain, traced):
        assert np.array_equal(p.x, t.x), p.name
    wl.check(traced)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_accuracy(name, tmp_path):
    first, _ = run.measure(name, 2, 0, 0, cache_dir=tmp_path, sizes=SMALL[name])
    second, _ = run.measure(name, 2, 0, 0, cache_dir=tmp_path, sizes=SMALL[name])
    other, _ = run.measure(name, 3, 0, 0, cache_dir=tmp_path, sizes=SMALL[name])
    assert first["correct"] and second["correct"] and other["correct"]
    for key in ("eps_mean", "upsilon_mean"):
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"] > 0
        assert other["metrics"][key]["value"] != first["metrics"][key]["value"]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_exactly_the_listed_metrics(trace, tmp_path):
    result, _ = run.measure("dense-certified", 2, 0, trace, cache_dir=tmp_path,
                            sizes=SMALL["dense-certified"])
    assert result["metrics"].keys() == run.metric_units(trace).keys()
    assert result["attempted"] > result["failed"] == 0


def test_every_wrapper_is_removed_after_tracing():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tr:
            assert leftover_wrappers(), "nothing was wrapped"
            assert tr._patches
            raise RuntimeError("leave the traced block by an error")
    after = _bindings()
    assert leftover_wrappers() == []
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_functions_imported_across_modules_are_wrapped():
    with Tracer():
        solvers = importlib.import_module("sketchpcr.solvers")
        streaming = importlib.import_module("sketchpcr.streaming")
        kernel = importlib.import_module("sketchpcr.kernel")
        for fn in (solvers.thin_svd, solvers.apply_left, streaming.thin_svd,
                   kernel.tensorsketch_apply):
            assert hasattr(fn, "__traced__")


@pytest.mark.parametrize("name, full_a_svds", [("dense-certified", 7), ("sparse-nnz", 0)])
def test_full_a_svd_count_per_op(name, full_a_svds, tmp_path):
    wl = _loaded(name, tmp_path)
    with Tracer(wl.a_shape) as tr:
        tr.op = 0
        wl.op(1)
    assert tr.per_op(0)["linalg.full_a_svds"] == full_a_svds


def test_wrong_solution_counts_as_failed(tmp_path):
    wl = _loaded("dense-certified", tmp_path)
    sols = wl.op(1)
    sols[0].x = sols[0].x * (1 + 1e-6)
    with pytest.raises(workloads.CheckFailed):
        wl.check(sols)
    sols = wl.op(1)
    sols[1].x = np.full_like(sols[1].x, np.nan)
    with pytest.raises(workloads.CheckFailed):
        wl.check(sols)


def test_tail_keeps_ten_ops_above_and_never_drops_below_median():
    assert run.tail(list(range(1, 101))) == (90.0, 90)
    pct, value = run.tail([1.0, 2.0, 3.0, 4.0])
    assert value == 3.0 and pct == 75.0
