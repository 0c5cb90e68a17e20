import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import countsketch_csr_coo, run_at_blas_threads, sketch_column, sketch_columns
from sketchpcr.errors import RankDeficiencyError
from sketchpcr.evaluation import planted_matrix
from sketchpcr.sketch import (
    SKETCH_BLOCK,
    PolyHash,
    _hash_pair,
    apply_left,
    countsketch_columns,
    gen_countsketch,
    gen_subgaussian,
)
from sketchpcr.solvers import PcrProblem, build_r_left
from sketchpcr.streaming import (
    FOLD_BUDGET,
    SketchSpec,
    stream_block,
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
        assert set(sizes) == {(24 * D + 60 * D + 60 + st.fold * (D + 1)) * 8}

    @pytest.mark.parametrize("s_kind, t_kind", SPEC_ORDERS)
    def test_a_csr_block_is_densified_only_into_the_fold_buffer(self, s_kind, t_kind):
        # d = 2000 keeps 256-row folds; a 4 fold + 7-row block after one row
        # fills the buffer four times and leaves 8 rows in it. The buffer is
        # the state's own, so the block's dense rows never take new memory:
        # the peak stays below one fold of them, let alone the whole block.
        d, per_row = 2000, 20
        st = stream_init(d, 24, 60, 78, s_kind=s_kind, t_kind=t_kind)
        m = 4 * st.fold + 7
        rng = np.random.default_rng(79)
        cols = np.sort(np.argsort(rng.random((m, d)), axis=1)[:, :per_row], axis=1)
        blk = sp.csr_matrix((rng.standard_normal(m * per_row), cols.ravel(),
                             np.arange(0, m * per_row + 1, per_row)), shape=(m, d))
        b = rng.standard_normal(m)
        size = st.memory_bytes()
        stream_block(st, blk[:1], b[:1])
        assert st.memory_bytes() == size
        tracemalloc.start()
        try:
            stream_block(st, blk, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert st.rows_seen == m + 1
        assert peak < st.fold * d * 8
        assert st.memory_bytes() == size

    @pytest.mark.parametrize("d, s_kind, t_kind, fold", [
        (300, "countsketch", "countsketch", SKETCH_BLOCK),    # 301 floats a row: too wide for 2
        (250, "subgaussian", "countsketch", SKETCH_BLOCK),    # 251 + 40 floats a row
        (255, "countsketch", "countsketch", 2 * SKETCH_BLOCK),
        (50, "subgaussian", "countsketch", 5 * SKETCH_BLOCK),  # stream-rows' shape
        (50, "subgaussian", "subgaussian", 2 * SKETCH_BLOCK),  # the wider Gaussian block counts
        (5, "countsketch", "countsketch", 85 * SKETCH_BLOCK),
        (1, "countsketch", "countsketch", 256 * SKETCH_BLOCK),
    ])
    def test_fold_size_follows_the_row_width(self, d, s_kind, t_kind, fold):
        st = stream_init(d, 40, 200, 62, s_kind=s_kind, t_kind=t_kind)
        assert st.fold == fold
        gaussian = max([spec.out_dim for spec in (st.s_spec, st.t_spec)
                        if spec.kind == "subgaussian"], default=0)
        if fold > SKETCH_BLOCK:   # narrow rows: buffer and Gaussian block within the budget
            assert fold * (d + 1 + gaussian) <= FOLD_BUDGET
            assert st.buf_a.size + st.buf_b.size <= FOLD_BUDGET
        else:                     # wide rows keep 256-row folds and the 256-row buffer
            assert 2 * SKETCH_BLOCK * (d + 1 + gaussian) > FOLD_BUDGET
            assert st.memory_bytes() == (40 * d + 200 * d + 200 + SKETCH_BLOCK * (d + 1)) * 8

    def test_fewer_rows_of_t_than_k_raises(self):
        a = planted_matrix(400, 20, 5, 0.4, seed=63)
        b = a @ np.random.default_rng(64).standard_normal(20)
        st = stream_init(20, 40, 3, 0, s_kind="subgaussian")
        for row, b_entry in zip(a, b):
            stream_update(st, row, b_entry)
        with pytest.raises(RankDeficiencyError, match="T A R has rank below k=5"):
            stream_finalize(st, 5)


# Stream lengths around the state's fold size f, as (folds, extra rows):
# n = folds * f + extra, that is 1, f-1, f, f+1 and 2f+7. Each is named by
# its length at one generator block per fold, 1 to 519.
BLOCK_EDGES = [(0, 1), (1, -1), (1, 0), (1, 1), (2, 7)]
EDGE_IDS = [str(folds * SKETCH_BLOCK + extra) for folds, extra in BLOCK_EDGES]
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
    @pytest.mark.parametrize("edge", BLOCK_EDGES, ids=EDGE_IDS)
    def test_stream_folds_are_the_batch_columns(self, edge, kind):
        # The folds a stream of n rows reads, the last one empty when n is a
        # multiple of the fold size, are the batch sketch and the oracle's columns.
        st = stream_init(D, 24, 60, 76, s_kind=kind, t_kind="subgaussian")
        spec, fold = st.s_spec, st.fold
        n = edge[0] * fold + edge[1]
        folds = [dense_block(spec, start, min(fold, n - start))
                 for start in range(0, n + 1, fold)]
        assert folds[-1].shape[1] == n % fold
        stream = np.hstack(folds)
        assert np.array_equal(stream, batch_sketch(kind, 24, n, spec.seed))
        assert np.array_equal(stream, sketch_columns(kind, 24, n, spec.seed))


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def uneven_blocks(n, fold):
    """Row ranges of n rows in blocks of 1, fold-5 and fold+300 rows and
    the rest, cut short (some empty) when n is smaller."""
    cuts = np.minimum(np.cumsum([0, 1, fold - 5, fold + 300]), n).tolist() + [n]
    return list(zip(cuts[:-1], cuts[1:]))


class TestBlockFold:
    @pytest.mark.parametrize("s_kind, t_kind", SPEC_ORDERS)
    @pytest.mark.parametrize("edge", BLOCK_EDGES, ids=EDGE_IDS)
    def test_finalized_accumulators_equal_per_row_sums(self, edge, s_kind, t_kind):
        st = stream_init(D, 24, 60, 70, s_kind=s_kind, t_kind=t_kind)
        n = edge[0] * st.fold + edge[1]
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((n, D)), rng.standard_normal(n)
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

    @pytest.mark.parametrize("s_kind, t_kind", SPEC_ORDERS)
    @pytest.mark.parametrize("edge", BLOCK_EDGES, ids=EDGE_IDS)
    def test_blocks_fold_as_the_rows_one_at_a_time(self, edge, s_kind, t_kind):
        # Dense blocks, CSR blocks, blocks mixed with rows on one state, and
        # the whole stream as one dense block all fill the buffer that the
        # rows fill one at a time, so they fold the same groups bit for bit.
        def stream(feed):
            st = stream_init(D, 24, 60, 70, s_kind=s_kind, t_kind=t_kind)
            blocks = [(0, n)] if feed == "one" else uneven_blocks(n, st.fold)
            for j, (lo, hi) in enumerate(blocks):
                how = {"one": "dense", "mixed": ("rows", "dense", "csr")[j % 3]}.get(feed, feed)
                if how == "rows":
                    for i in range(lo, hi):
                        stream_update(st, a[i], b[i])
                else:
                    stream_block(st, a[lo:hi] if how == "dense" else sp.csr_matrix(a[lo:hi]),
                                 b[lo:hi])
            assert st.rows_seen == n
            return st, stream_finalize(st, 1).x

        fold = stream_init(D, 24, 60, 70, s_kind=s_kind, t_kind=t_kind).fold
        n = edge[0] * fold + edge[1]
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((n, D)), rng.standard_normal(n)
        a[rng.random(a.shape) < 0.6] = 0.0
        want, want_x = stream("rows")
        for feed in ("dense", "one", "csr", "mixed"):
            got, x = stream(feed)
            for name in ("sa", "ta", "tb"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert x.tobytes() == want_x.tobytes()

    @pytest.mark.parametrize("bad", ["wrong-length", "nan-row", "inf-row", "inf-b", "str-row",
                                     "str-b", "array-b", "huge-row"])
    @pytest.mark.parametrize("at", ["mid-block", "filling"])
    def test_rejected_row_leaves_the_stream_as_it_was(self, bad, at):
        clean = stream_init(D, 24, 60, 73, s_kind="subgaussian")
        st = stream_init(D, 24, 60, 73, s_kind="subgaussian")
        n = 2 * st.fold + 7
        at = {"mid-block": 100, "filling": st.fold - 1}[at]
        a = planted_matrix(n, D, K, 0.4, seed=71)
        b = a @ np.random.default_rng(72).standard_normal(D)
        inf_row = np.ones(D)
        inf_row[3] = -np.inf
        row, b_entry = {"wrong-length": (np.ones(D + 1), 1.0),
                        "nan-row": (np.full(D, np.nan), 1.0),
                        "inf-row": (inf_row, 1.0),
                        "inf-b": (np.ones(D), np.inf),
                        "str-row": (["1.5"] * D, 1.0),
                        "str-b": (np.ones(D), "2.5"),
                        "array-b": (np.ones(D), np.array([2.5])),
                        # finite, so it is taken; its square would overflow
                        "huge-row": (np.full(D, -1.7976931348623157e308), 1.0)}[bad]
        for i in range(n):
            if i == at:
                if bad == "huge-row":
                    stream_update(clean, row, b_entry)
                    stream_update(st, row, b_entry)
                else:
                    with pytest.raises(ValueError, match="^(a_row|b_entry) "):
                        stream_update(st, row, b_entry)
                assert st.rows_seen == clean.rows_seen
            stream_update(clean, a[i], b[i])
            stream_update(st, a[i], b[i])
        if bad == "huge-row":   # next to it, S A has numerical rank 1
            for s in (st, clean):
                with pytest.raises(RankDeficiencyError, match="S A has rank below"):
                    stream_finalize(s, K)
            for name in ("sa", "ta", "tb"):
                assert np.array_equal(getattr(st, name), getattr(clean, name))
        else:
            assert np.array_equal(stream_finalize(st, K).x, stream_finalize(clean, K).x)
        with pytest.raises(RuntimeError, match="already finalized"):
            stream_update(st, a[0], b[0])

    @pytest.mark.parametrize("bad", ["wrong-width", "nan-dense", "inf-dense", "nan-csr",
                                     "inf-csr", "str-dense", "str-csr", "object-dense",
                                     "object-csr", "b-length", "nan-b", "inf-b"])
    def test_rejected_block_leaves_the_stream_as_it_was(self, bad):
        # Every entry is checked before anything moves: the bad entry is in
        # the block's last row, after two whole folds.
        st = stream_init(D, 24, 60, 73, s_kind="subgaussian")
        a = planted_matrix(3 * st.fold, D, K, 0.4, seed=71)
        b = a @ np.random.default_rng(72).standard_normal(D)
        stream_block(st, a[:100], b[:100])
        blk_a, blk_b = a[100:], b[100:]
        csr = sp.csr_matrix(blk_a)

        def last_is(v, value):
            v = v.copy()
            v.flat[-1] = value
            return v

        def csr_of(data):
            return sp.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)

        rows, entries = {
            "wrong-width": (np.hstack([blk_a, blk_a[:, :1]]), blk_b),
            "nan-dense": (last_is(blk_a, np.nan), blk_b),
            "inf-dense": (last_is(blk_a, -np.inf), blk_b),
            "nan-csr": (csr_of(last_is(csr.data, np.nan)), blk_b),
            "inf-csr": (csr_of(last_is(csr.data, np.inf)), blk_b),
            "str-dense": (blk_a.astype(str), blk_b),
            "str-csr": (csr_of(csr.data.astype(str)), blk_b),
            "object-dense": (blk_a.astype(object), blk_b),
            "object-csr": (csr_of(csr.data.astype(object)), blk_b),
            "b-length": (blk_a, blk_b[1:]),
            "nan-b": (blk_a, last_is(blk_b, np.nan)),
            "inf-b": (blk_a, last_is(blk_b, np.inf)),
        }[bad]
        before = [st.rows_seen] + [getattr(st, m).tobytes()
                                   for m in ("sa", "ta", "tb", "buf_a", "buf_b")]
        with pytest.raises(ValueError, match="^(a_block|b_block) "):
            stream_block(st, rows, entries)
        assert before == [st.rows_seen] + [getattr(st, m).tobytes()
                                           for m in ("sa", "ta", "tb", "buf_a", "buf_b")]
        stream_block(st, blk_a, blk_b)
        clean = stream_block(stream_init(D, 24, 60, 73, s_kind="subgaussian"), a, b)
        assert np.array_equal(stream_finalize(st, K).x, stream_finalize(clean, K).x)
        with pytest.raises(RuntimeError, match="already finalized"):
            stream_block(st, a[:1], b[:1])

    def test_b_entries_of_any_real_type_are_read_as_floats(self):
        values = [2, True, np.int32(-3), np.float32(0.5), np.array(1.25), -0.0, 7.0]
        st, ref = (stream_init(D, 24, 60, 77) for _ in range(2))
        for v in values:
            stream_update(st, np.ones(D), v)
            stream_update(ref, np.ones(D), float(v))
        n = len(values)
        assert np.array_equal(st.buf_b[:n].view(np.int64), ref.buf_b[:n].view(np.int64))

    @pytest.mark.parametrize("s_kind, t_kind, per_row", [
        ("countsketch", "countsketch", 4), ("subgaussian", "countsketch", 2)])
    def test_a_stream_hashes_two_keys_per_row_per_countsketch(self, s_kind, t_kind, per_row,
                                                             monkeypatch):
        hashed, real = [], PolyHash.values
        monkeypatch.setattr(PolyHash, "values",
                            lambda self, keys: hashed.append(len(keys)) or real(self, keys))
        for feed in ("rows", "blocks"):
            hashed.clear()
            st = stream_init(D, 24, 60, 75, s_kind=s_kind, t_kind=t_kind)
            n = 2 * st.fold + 7
            a = planted_matrix(n, D, K, 0.4, seed=74)
            if feed == "rows":
                for row in a:
                    stream_update(st, row, 1.0)
            else:   # a row, then a block with whole folds in it
                stream_block(st, a[:1], np.ones(1))
                stream_block(st, sp.csr_matrix(a[1:]), np.ones(n - 1))
            stream_finalize(st, K)
            assert sum(hashed) == per_row * n


STREAM_SCRIPT = """
import json, sys
import numpy as np
from sketchpcr.evaluation import planted_matrix
from sketchpcr.streaming import stream_finalize, stream_init, stream_update
d, k = 30, 4
st = stream_init(d, 8 * k, 40 * k, 83, s_kind="subgaussian", t_kind="countsketch")
n = 2 * st.fold + 7
a = planted_matrix(n, d, k, 0.4, seed=80)
b = a @ np.random.default_rng(81).standard_normal(d) + 0.1 * np.random.default_rng(82).standard_normal(n)
for row, b_entry in zip(a, b):
    stream_update(st, row, b_entry)
json.dump(stream_finalize(st, k).x.tolist(), sys.stdout)
"""


def test_stream_x_does_not_depend_on_the_blas_thread_count():
    xs = [np.array(run_at_blas_threads(STREAM_SCRIPT, threads)) for threads in ("1", "2")]
    assert rel_err(xs[1], xs[0]) <= 1e-12


@pytest.mark.parametrize("start, count, out_dim", [
    (0, 1, 3), (0, 256, 200), (1234, 3000, 40), (2**33, 1280, 7), (5, 100_000, 500)])
def test_countsketch_block_is_the_coo_built_csr(start, count, out_dim):
    # The CSC-built block is the CSR matrix a COO build gives: the same
    # index arrays and dtypes, with each row's columns in order.
    got = countsketch_columns(out_dim, start, count, _hash_pair(88))
    want = countsketch_csr_coo(out_dim, start, count, 88)
    assert got.shape == want.shape and got.has_sorted_indices
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert np.array_equal(getattr(got, part), getattr(want, part))
