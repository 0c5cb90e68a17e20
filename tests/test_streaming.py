import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import sketchpcr
from oracles import countsketch_dense
from sketchpcr.errors import RankDeficiencyError
from sketchpcr.evaluation import planted_matrix
from sketchpcr.sketch import PolyHash, apply_left, gen_countsketch
from sketchpcr.solvers import PcrProblem, build_r_left
from sketchpcr.streaming import (
    STREAM_BLOCK,
    StreamingCountSketch,
    StreamingGaussian,
    stream_finalize,
    stream_init,
    stream_update,
)

N, D, K = 150, 10, 3
SPEC_ORDERS = [("subgaussian", "countsketch"), ("countsketch", "subgaussian")]


def planted_problem(seed=60):
    rng = np.random.default_rng(seed)
    a = planted_matrix(N, D, K, 0.4, seed=seed)
    b = a @ rng.standard_normal(D) + 0.1 * rng.standard_normal(N)
    return a, b


def run_stream(a, b, s_kind, t_kind, seed=61):
    st = stream_init(D, 24, 60, seed, s_kind=s_kind, t_kind=t_kind)
    for row, b_entry in zip(a, b):
        stream_update(st, row, b_entry)
    return st


def explicit_sketch(spec, n):
    """The batch sketch whose column i the stream spec draws for row i."""
    m = spec.block(0, n)
    return m.toarray() if sp.issparse(m) else m


class TestStreaming:
    @pytest.mark.parametrize("s_kind, t_kind", SPEC_ORDERS)
    def test_matches_batch_estimator_on_explicit_sketches(self, s_kind, t_kind):
        a, b = planted_problem()
        st = run_stream(a, b, s_kind, t_kind)
        x = stream_finalize(st, K).x
        s_op = explicit_sketch(st.s_spec, N)
        t_op = explicit_sketch(st.t_spec, N)
        r = build_r_left(PcrProblem(a=a, b=b, k=K), s_op)
        want = r @ np.linalg.lstsq(apply_left(t_op, a) @ r, apply_left(t_op, b[:, None]).ravel(),
                                   rcond=None)[0]
        assert np.allclose(x, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", ["subgaussian", "countsketch"])
    def test_stream_columns_are_the_batch_columns(self, kind):
        a, b = planted_problem()
        st = run_stream(a, b, kind, kind)
        stream_finalize(st, K)   # the accumulators are complete once finalized
        s_mat, t_mat = explicit_sketch(st.s_spec, N), explicit_sketch(st.t_spec, N)
        if kind == "countsketch":
            for spec, mat in ((st.s_spec, s_mat), (st.t_spec, t_mat)):
                assert np.array_equal(mat, gen_countsketch(spec.out_dim, N, spec.seed).toarray())
        else:
            assert np.all(s_mat != 0) and np.all(t_mat != 0)
        assert np.allclose(st.sa, s_mat @ a, rtol=1e-12, atol=1e-12)
        assert np.allclose(st.ta, t_mat @ a, rtol=1e-12, atol=1e-12)
        assert np.allclose(st.tb, t_mat @ b, rtol=1e-12, atol=1e-12)

    def test_replay_is_deterministic(self):
        a, b = planted_problem()
        first = stream_finalize(run_stream(a, b, "subgaussian", "countsketch"), K).x
        second = stream_finalize(run_stream(a, b, "subgaussian", "countsketch"), K).x
        assert np.array_equal(first, second)

    def test_memory_independent_of_rows_seen(self):
        a, b = planted_problem()
        st = stream_init(D, 24, 60, 62, s_kind="subgaussian", t_kind="countsketch")
        sizes = [st.memory_bytes()]
        for row, b_entry in zip(a, b):
            stream_update(st, row, b_entry)
            sizes.append(st.memory_bytes())
        assert set(sizes) == {(24 * D + 60 * D + 60 + STREAM_BLOCK * (D + 1)) * 8}

    def test_fewer_rows_of_t_than_k_raises(self):
        a = planted_matrix(400, 20, 5, 0.4, seed=63)
        b = a @ np.random.default_rng(64).standard_normal(20)
        st = stream_init(20, 40, 3, 0, s_kind="subgaussian")
        for row, b_entry in zip(a, b):
            stream_update(st, row, b_entry)
        with pytest.raises(RankDeficiencyError, match="T A R has rank below k=5"):
            stream_finalize(st, 5)


class TestColumnReplay:
    def test_gaussian_column_is_a_philox_keyed_on_its_index(self):
        out, seed = 24, 987654321
        spec = StreamingGaussian(out, seed)
        for i in (0, 3, 7, 2**33, 7, 3, 7):   # out of order and repeated
            values = spec.block(i, 1)
            want = np.random.Generator(np.random.Philox(key=seed, counter=i << 128))
            assert values.shape == (out, 1)
            assert np.array_equal(values[:, 0], want.standard_normal(out) * (1 / math.sqrt(out)))

    def test_countsketch_columns_across_hash_blocks(self):
        spec = StreamingCountSketch(40, 55)
        batch = gen_countsketch(40, 10_000, 55).tocsc()
        for i in (4095, 4096, 8191, 8192, 9999, 0, 8192):
            col = spec.block(i, 1).tocsc()
            assert col.nnz == 1
            assert batch.indices[batch.indptr[i]] == col.indices[0]
            assert batch.data[batch.indptr[i]] == col.data[0]

    def test_blocks_straddling_4096_are_the_batch_columns(self):
        start, m, out = 4090, 13, 40
        cs = StreamingCountSketch(out, 55)
        batch = gen_countsketch(out, start + m, 55).toarray()
        assert np.array_equal(cs.block(start, m).toarray(), batch[:, start:])
        gs = StreamingGaussian(out, 56)
        for j, col in enumerate(gs.block(start, m).T):
            want = np.random.Generator(np.random.Philox(key=56, counter=(start + j) << 128))
            assert np.array_equal(col, want.standard_normal(out) * (1 / math.sqrt(out)))


BLOCK_EDGES = [1, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1, 2 * STREAM_BLOCK + 7]


def oracle_columns(spec, n):
    """Columns 0..n-1 of the spec's sketch, drawn without the spec: the
    CountSketch from its hash polynomials one key at a time, the Gaussian
    from one fresh Philox generator per column."""
    if spec.kind == "countsketch":
        return countsketch_dense(spec.out_dim, n, spec.seed)
    return np.column_stack([
        np.random.Generator(np.random.Philox(key=spec.seed, counter=i << 128))
        .standard_normal(spec.out_dim) / math.sqrt(spec.out_dim) for i in range(n)])


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestBlockFold:
    @pytest.mark.parametrize("s_kind, t_kind", SPEC_ORDERS)
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_finalized_accumulators_equal_per_row_sums(self, n, s_kind, t_kind):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((n, D)), rng.standard_normal(n)
        st = stream_init(D, 24, 60, 70, s_kind=s_kind, t_kind=t_kind)
        for row, b_entry in zip(a, b):
            stream_update(st, row, b_entry)
        stream_finalize(st, 1)
        s_cols, t_cols = oracle_columns(st.s_spec, n), oracle_columns(st.t_spec, n)
        sa, ta, tb = np.zeros((24, D)), np.zeros((60, D)), np.zeros(60)
        for i in range(n):
            sa += np.multiply.outer(s_cols[:, i], a[i])
            ta += np.multiply.outer(t_cols[:, i], a[i])
            tb += t_cols[:, i] * b[i]
        assert st.rows_seen == n
        assert rel_err(st.sa, sa) <= 1e-12
        assert rel_err(st.ta, ta) <= 1e-12
        assert rel_err(st.tb, tb) <= 1e-12

    @pytest.mark.parametrize("bad", ["wrong-length", "nan-row", "inf-b"])
    @pytest.mark.parametrize("at", [100, STREAM_BLOCK - 1], ids=["mid-block", "filling"])
    def test_rejected_row_leaves_the_stream_as_it_was(self, bad, at):
        n = 2 * STREAM_BLOCK + 7
        a = planted_matrix(n, D, K, 0.4, seed=71)
        b = a @ np.random.default_rng(72).standard_normal(D)
        row, b_entry = {"wrong-length": (np.ones(D + 1), 1.0),
                        "nan-row": (np.full(D, np.nan), 1.0),
                        "inf-b": (np.ones(D), np.inf)}[bad]
        clean = stream_init(D, 24, 60, 73, s_kind="subgaussian")
        st = stream_init(D, 24, 60, 73, s_kind="subgaussian")
        for i in range(n):
            if i == at:
                with pytest.raises(ValueError):
                    stream_update(st, row, b_entry)
                assert st.rows_seen == at
            stream_update(clean, a[i], b[i])
            stream_update(st, a[i], b[i])
        assert np.array_equal(stream_finalize(st, K).x, stream_finalize(clean, K).x)
        with pytest.raises(RuntimeError, match="already finalized"):
            stream_update(st, a[0], b[0])

    @pytest.mark.parametrize("s_kind, t_kind, per_row", [
        ("countsketch", "countsketch", 4), ("subgaussian", "countsketch", 2)])
    def test_a_stream_hashes_two_keys_per_row_per_countsketch(self, s_kind, t_kind, per_row,
                                                             monkeypatch):
        hashed, real = [], PolyHash.values
        monkeypatch.setattr(PolyHash, "values",
                            lambda self, keys: hashed.append(len(keys)) or real(self, keys))
        n = 2 * STREAM_BLOCK + 7
        a = planted_matrix(n, D, K, 0.4, seed=74)
        st = stream_init(D, 24, 60, 75, s_kind=s_kind, t_kind=t_kind)
        for row in a:
            stream_update(st, row, 1.0)
        stream_finalize(st, K)
        assert sum(hashed) == per_row * n


STREAM_SCRIPT = """
import json, sys
import numpy as np
from sketchpcr.evaluation import planted_matrix
from sketchpcr.streaming import STREAM_BLOCK, stream_finalize, stream_init, stream_update
n, d, k = 2 * STREAM_BLOCK + 7, 30, 4
a = planted_matrix(n, d, k, 0.4, seed=80)
b = a @ np.random.default_rng(81).standard_normal(d) + 0.1 * np.random.default_rng(82).standard_normal(n)
st = stream_init(d, 8 * k, 40 * k, 83, s_kind="subgaussian", t_kind="countsketch")
for row, b_entry in zip(a, b):
    stream_update(st, row, b_entry)
json.dump(stream_finalize(st, k).x.tolist(), sys.stdout)
"""


def test_stream_x_does_not_depend_on_the_blas_thread_count():
    src = str(Path(sketchpcr.__file__).resolve().parent.parent)
    xs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", STREAM_SCRIPT], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        xs.append(np.array(json.loads(out)))
    assert rel_err(xs[1], xs[0]) <= 1e-12
