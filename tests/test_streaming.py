import numpy as np
import pytest
import scipy.sparse as sp

from oracles import run_at_blas_threads, sketch_column, sketch_columns
from sketchpcr.errors import RankDeficiencyError
from sketchpcr.evaluation import planted_matrix
from sketchpcr.sketch import PolyHash, apply_left, gen_countsketch, gen_subgaussian
from sketchpcr.solvers import PcrProblem, build_r_left
from sketchpcr.streaming import (
    STREAM_BLOCK,
    SketchSpec,
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


def batch_sketch(kind, out_dim, n, seed):
    """The batch generator's sketch of ``kind``, as a dense array."""
    if kind == "countsketch":
        return gen_countsketch(out_dim, n, seed).toarray()
    return gen_subgaussian(out_dim, n, seed)


def dense_block(spec, start, count):
    """Columns start..start+count-1 of the spec's sketch, the ones the
    stream draws for rows start..start+count-1, as a dense array."""
    m = spec.block(start, count)
    return m.toarray() if sp.issparse(m) else m


class TestStreaming:
    @pytest.mark.parametrize("s_kind, t_kind", SPEC_ORDERS)
    def test_matches_batch_estimator_on_explicit_sketches(self, s_kind, t_kind):
        a, b = planted_problem()
        st = run_stream(a, b, s_kind, t_kind)
        x = stream_finalize(st, K).x
        s_op = dense_block(st.s_spec, 0, N)
        t_op = dense_block(st.t_spec, 0, N)
        r = build_r_left(PcrProblem(a=a, b=b, k=K), s_op)
        want = r @ np.linalg.lstsq(apply_left(t_op, a) @ r, apply_left(t_op, b[:, None]).ravel(),
                                   rcond=None)[0]
        assert np.allclose(x, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", ["subgaussian", "countsketch"])
    def test_stream_columns_are_the_batch_columns(self, kind):
        a, b = planted_problem()
        st = run_stream(a, b, kind, kind)
        stream_finalize(st, K)   # the accumulators are complete once finalized
        s_mat, t_mat = dense_block(st.s_spec, 0, N), dense_block(st.t_spec, 0, N)
        for spec, mat in ((st.s_spec, s_mat), (st.t_spec, t_mat)):
            assert np.array_equal(mat, batch_sketch(kind, spec.out_dim, N, spec.seed))
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


BLOCK_EDGES = [1, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1, 2 * STREAM_BLOCK + 7]
KINDS = ["countsketch", "subgaussian"]


class TestColumnReplay:
    def test_columns_replay_in_any_order_and_at_large_indices(self):
        for kind in KINDS:
            spec = SketchSpec(kind, 24, 987654321)
            for i in (0, 3, 7, 255, 256, 2**33, 7, 2**33 + 300, 3, 7):   # out of order, repeated
                col = dense_block(spec, i, 1)
                assert col.shape == (24, 1)
                assert np.array_equal(col[:, 0], sketch_column(kind, 24, i, 987654321))

    def test_countsketch_columns_across_hash_blocks(self):
        spec = SketchSpec("countsketch", 40, 55)
        batch = gen_countsketch(40, 10_000, 55).tocsc()
        for i in (4095, 4096, 8191, 8192, 9999, 0, 8192):
            col = spec.block(i, 1).tocsc()
            assert col.nnz == 1
            assert batch.indices[batch.indptr[i]] == col.indices[0]
            assert batch.data[batch.indptr[i]] == col.data[0]

    def test_blocks_straddling_4096_are_the_batch_columns(self):
        start, m, out = 4090, 13, 40
        for kind in KINDS:
            block = dense_block(SketchSpec(kind, out, 55), start, m)
            assert np.array_equal(block, batch_sketch(kind, out, start + m, 55)[:, start:])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_stream_folds_are_the_batch_columns(self, n, kind):
        # The folds a stream of n rows reads, the last one empty when n is a
        # multiple of STREAM_BLOCK, are the batch sketch and the oracle's columns.
        spec = SketchSpec(kind, 24, 76)
        folds = [dense_block(spec, start, min(STREAM_BLOCK, n - start))
                 for start in range(0, n + 1, STREAM_BLOCK)]
        assert folds[-1].shape[1] == n % STREAM_BLOCK
        stream = np.hstack(folds)
        assert np.array_equal(stream, batch_sketch(kind, 24, n, 76))
        assert np.array_equal(stream, sketch_columns(kind, 24, n, 76))


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
        s_cols, t_cols = (sketch_columns(spec.kind, spec.out_dim, n, spec.seed)
                          for spec in (st.s_spec, st.t_spec))
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
    xs = [np.array(run_at_blas_threads(STREAM_SCRIPT, threads)) for threads in ("1", "2")]
    assert rel_err(xs[1], xs[0]) <= 1e-12
