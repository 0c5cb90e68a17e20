import math

import numpy as np
import pytest

from sketchpcr.errors import RankDeficiencyError
from sketchpcr.evaluation import planted_matrix
from sketchpcr.sketch import apply_left, gen_countsketch
from sketchpcr.solvers import PcrProblem, build_r_left
from sketchpcr.streaming import (
    StreamingCountSketch,
    StreamingGaussian,
    stream_finalize,
    stream_init,
    stream_update,
)

N, D, K = 150, 10, 3


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
    m = np.zeros((spec.out_dim, n))
    for i in range(n):
        rows, values = spec.column(i)
        m[rows, i] = values
    return m


class TestStreaming:
    @pytest.mark.parametrize("s_kind, t_kind", [("subgaussian", "countsketch"),
                                                ("countsketch", "subgaussian")])
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
        assert set(sizes) == {(24 * D + 60 * D + 60) * 8}

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
            rows, values = spec.column(i)
            want = np.random.Generator(np.random.Philox(key=seed, counter=i << 128))
            assert rows == slice(None)
            assert np.array_equal(values, want.standard_normal(out) * (1 / math.sqrt(out)))

    def test_countsketch_columns_across_hash_blocks(self):
        spec = StreamingCountSketch(40, 55)
        batch = gen_countsketch(40, 10_000, 55).tocsc()
        for i in (4095, 4096, 8191, 8192, 9999, 0, 8192):
            bucket, sign = spec.column(i)
            assert batch.indices[batch.indptr[i]] == bucket
            assert batch.data[batch.indptr[i]] == sign
