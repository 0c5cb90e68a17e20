import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpcr.kernel import sketched_feature_matrix
from sketchpcr.linalg import PANEL
from sketchpcr.sketch import (
    HASH_DEGREE,
    MERSENNE_P,
    SIGN_DEGREE,
    SKETCH_BLOCK,
    PolyHash,
    apply_left,
    gen_countsketch,
    gen_subgaussian,
    gen_tensorsketch,
    gram_error,
    sketch_rows_for_gram,
    tensorsketch_apply,
)
from oracles import (
    countsketch_apply_loop,
    countsketch_dense,
    countsketch_tables,
    poly,
    poly_feature_vector,
    poly_features,
    sketch_columns,
    tensorsketch_bruteforce,
    tensorsketch_materialize,
    tensorsketch_whole_batch,
)


class TestSubgaussian:
    def test_seed_determinism(self):
        a = gen_subgaussian(4, 4, seed=7)
        b = gen_subgaussian(4, 4, seed=7)
        assert isinstance(a, np.ndarray) and a.shape == (4, 4)
        assert np.array_equal(a, b)

    def test_column_norm_concentration(self):
        op = gen_subgaussian(2000, 50, seed=1)
        norms = np.linalg.norm(op, axis=0)
        assert norms.min() > 0.8 and norms.max() < 1.2

    @pytest.mark.parametrize("out_dim, in_dim", [
        (3, 1), (24, SKETCH_BLOCK), (5, 2 * SKETCH_BLOCK + 7), (700, 4)])
    def test_columns_are_the_oracle_columns(self, out_dim, in_dim):
        op = gen_subgaussian(out_dim, in_dim, seed=8)
        assert np.array_equal(op, sketch_columns("subgaussian", out_dim, in_dim, 8))

    @settings(max_examples=40, deadline=None)
    @given(out_dim=st.integers(1, 30), m=st.integers(1, 3 * SKETCH_BLOCK),
           extra=st.integers(1, 2 * SKETCH_BLOCK), seed=st.integers(0, 2**63 - 1))
    def test_a_narrower_sketch_is_a_prefix_of_a_wider_one(self, out_dim, m, extra, seed):
        wide = gen_subgaussian(out_dim, m + extra, seed)
        assert np.array_equal(gen_subgaussian(out_dim, m, seed), wide[:, :m])

    def test_basis_vector_reproduces_column(self):
        op = gen_subgaussian(6, 5, seed=2)
        e3 = np.zeros((5, 1))
        e3[3] = 1.0
        assert np.allclose(apply_left(op, e3).ravel(), op[:, 3])


# Keys at the edges of the uint64 limbs and of the field 2^61 - 1.
LIMB_EDGES = [0, 2**32 - 1, 2**32, 2**61 - 2, 2**61 - 1, 2**61, 2**62, 2**63 - 1]


class TestPolyHash:
    @pytest.mark.parametrize("degree", [HASH_DEGREE, SIGN_DEGREE])
    def test_limb_edges_match_the_integer_oracle(self, degree):
        # Random coefficients and the largest ones, p - 1, which maximize
        # every partial product.
        for h in (PolyHash.draw(np.random.default_rng(degree), degree),
                  PolyHash([MERSENNE_P - 1] * (degree + 1))):
            got = h.values(np.array(LIMB_EDGES, dtype=np.uint64))
            assert got.dtype == np.uint64
            assert got.tolist() == [poly(h.coeffs, key) for key in LIMB_EDGES]

    @pytest.mark.parametrize("degree", [HASH_DEGREE, SIGN_DEGREE])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           keys=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20))
    def test_values_match_the_integer_oracle(self, degree, seed, keys):
        h = PolyHash.draw(np.random.default_rng(seed), degree)
        got = h.values(np.array(keys, dtype=np.int64))
        assert got.tolist() == [poly(h.coeffs, key) for key in keys]


class TestCountSketch:
    def test_one_nonzero_per_column(self):
        op = gen_countsketch(7, 30, seed=3)
        m = op.toarray()
        assert np.all(np.count_nonzero(m, axis=0) == 1)
        assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(m, countsketch_dense(7, 30, 3))

    def test_is_csr_with_one_hashed_sign_per_column(self):
        op = gen_countsketch(11, 60, seed=31)
        assert sp.issparse(op) and op.format == "csr" and op.shape == (11, 60)
        by_col = op.tocsc()
        assert np.array_equal(np.diff(by_col.indptr), np.ones(60))
        rows, signs = countsketch_tables(11, 60, 31)
        assert np.array_equal(by_col.indices, rows)
        assert np.array_equal(by_col.data, signs)

    def test_row_occupancy_roughly_uniform(self):
        op = gen_countsketch(10, 10000, seed=4)
        counts = np.diff(op.indptr)
        assert counts.sum() == 10000 and counts.max() <= 3 * counts.mean()

    def test_norm_preserved_when_buckets_distinct(self):
        op = gen_countsketch(64, 8, seed=5)
        x = np.zeros(8)
        # restrict support to columns with pairwise-distinct buckets
        seen, support = set(), []
        for i, r in enumerate(countsketch_tables(64, 8, 5)[0]):
            if r not in seen:
                seen.add(r)
                support.append(i)
        rng = np.random.default_rng(0)
        x[support] = rng.standard_normal(len(support))
        sx = apply_left(op, x[:, None]).ravel()
        assert np.linalg.norm(sx) == pytest.approx(np.linalg.norm(x), abs=0)

    def test_determinism(self):
        a = gen_countsketch(9, 40, seed=11)
        b = gen_countsketch(9, 40, seed=11)
        assert np.array_equal(a.toarray(), b.toarray())


class TestApplyLeft:
    def test_signed_permutation(self):
        rng = np.random.default_rng(6)
        perm = rng.permutation(5)
        signs = rng.choice([-1.0, 1.0], size=5)
        op = sp.csr_matrix((signs, (perm, np.arange(5))), shape=(5, 5))
        a = rng.standard_normal((5, 3))
        out = apply_left(op, a)
        want = np.zeros_like(a)
        want[perm] = signs[:, None] * a
        assert np.array_equal(out, want)

    def test_apply_to_identity_materializes(self):
        op = gen_countsketch(6, 9, seed=7)
        assert np.array_equal(apply_left(op, np.eye(9)), countsketch_dense(6, 9, 7))
        dense_op = gen_subgaussian(6, 9, seed=7)
        assert np.allclose(apply_left(dense_op, np.eye(9)), dense_op)

    def test_sparse_dense_equivalence(self):
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((30, 6))
        dense[rng.random((30, 6)) < 0.6] = 0.0
        sparse = sp.csr_matrix(dense)
        for op in (gen_countsketch(12, 30, seed=9), gen_subgaussian(12, 30, seed=9)):
            out_sparse = apply_left(op, sparse)
            out_dense = apply_left(op, dense)
            assert np.allclose(out_sparse, out_dense, atol=1e-12)

    def test_countsketch_bit_exact_against_loop(self):
        rng = np.random.default_rng(10)
        dense = rng.standard_normal((40, 5))
        dense[rng.random((40, 5)) < 0.6] = 0.0
        op = gen_countsketch(8, 40, seed=12)
        want = countsketch_apply_loop(8, 12, dense)
        assert np.array_equal(apply_left(op, dense), want)
        assert np.array_equal(apply_left(op, sp.csr_matrix(dense)), want)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_left(gen_countsketch(4, 10, seed=0), np.eye(9))


class TestGramError:
    def test_identity_embedding_exact(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 3))
        rep = gram_error(sp.identity(8, format="csr"), x, eps=1e-12)
        assert rep.spectral_error < 1e-12 and rep.passed

    def test_single_row_fails_on_rank_two(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        rep = gram_error(gen_subgaussian(1, 3, seed=14), x, eps=0.05)
        assert not rep.passed
        assert rep.normalized_error >= 0.0

    def test_unbiased_countsketch_gram(self):
        # mean of X^T S^T S X over seeds approaches X^T X entrywise
        rng = np.random.default_rng(15)
        x = rng.standard_normal((10, 3))
        trials = 2000
        acc = np.zeros((3, 3))
        acc2 = np.zeros((3, 3))
        for seed in range(trials):
            sx = apply_left(gen_countsketch(6, 10, seed=seed), x)
            g = sx.T @ sx
            acc += g
            acc2 += g * g
        mean = acc / trials
        var = acc2 / trials - mean**2
        se = np.sqrt(var / trials)
        assert np.all(np.abs(mean - x.T @ x) <= 3 * se + 1e-12)


class TestSketchSizing:
    def test_subgaussian_formula(self):
        # 8 (4 + ln 4) / 0.25 = 172.4
        assert sketch_rows_for_gram("subgaussian", 4.0, 0.5, 0.25) == 173

    def test_countsketch_formula(self):
        # 8 * 16 / (0.25 * 0.25)
        assert sketch_rows_for_gram("countsketch", 4.0, 0.5, 0.25) == 2048

    def test_halving_eps_quadruples(self):
        base = sketch_rows_for_gram("subgaussian", 4.0, 0.4, 0.25)
        finer = sketch_rows_for_gram("subgaussian", 4.0, 0.2, 0.25)
        assert finer == pytest.approx(4 * base, abs=2)

    def test_monotone_in_eps_and_delta(self):
        coarse = sketch_rows_for_gram("countsketch", 4.0, 0.4, 0.4)
        fine = sketch_rows_for_gram("countsketch", 4.0, 0.1, 0.1)
        assert fine >= coarse

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            sketch_rows_for_gram("subgaussian", 4.0, 0.6, 0.25)
        with pytest.raises(ValueError):
            sketch_rows_for_gram("subgaussian", 4.0, 0.25, 0.0)
        with pytest.raises(ValueError):
            sketch_rows_for_gram("osnap", 4.0, 0.25, 0.25)


class TestTensorSketch:
    @pytest.mark.parametrize("q", [0, 3.0, 2.5, np.float64(3)])
    def test_a_degree_that_is_not_a_positive_integer_is_rejected(self, q):
        with pytest.raises(ValueError, match="degree must be an integer of at least 1"):
            gen_tensorsketch(q, 4, 16, seed=1)

    def test_seed_determinism(self):
        a = gen_tensorsketch(2, 6, 16, seed=16)
        b = gen_tensorsketch(2, 6, 16, seed=16)
        assert np.array_equal(a.row_tables, b.row_tables)
        assert np.array_equal(a.sign_tables, b.sign_tables)

    def test_degree_one_is_countsketch(self):
        op = gen_tensorsketch(1, 7, 5, seed=17)
        cs = sp.csr_matrix((op.sign_tables[0], (op.row_tables[0], np.arange(7))),
                           shape=(5, 7))
        z = np.random.default_rng(1).standard_normal(7)
        assert np.array_equal(tensorsketch_apply(op, z),
                              apply_left(cs, z[:, None]).ravel())

    def test_materialized_one_nonzero_per_tuple(self):
        op = gen_tensorsketch(2, 3, 5, seed=18)
        r = tensorsketch_materialize(op)
        assert r.shape == (9, 5)
        assert np.all(np.count_nonzero(r, axis=1) == 1)
        assert set(np.unique(np.abs(r))) <= {0.0, 1.0}

    def test_bruteforce_equality(self):
        rng = np.random.default_rng(19)
        op = gen_tensorsketch(2, 4, 8, seed=20)
        z = rng.standard_normal(4)
        want = tensorsketch_bruteforce(op, z)
        got = tensorsketch_apply(op, z)
        assert np.allclose(got, want, atol=1e-8)
        # and via the materialized matrix acting on phi(z)
        phi = poly_feature_vector(z, 2)
        assert np.allclose(tensorsketch_materialize(op).T @ phi, got, atol=1e-8)

    def test_zero_vector(self):
        op = gen_tensorsketch(3, 4, 16, seed=21)
        assert np.array_equal(tensorsketch_apply(op, np.zeros(4)), np.zeros(16))

    def test_fft_and_direct_paths_agree(self):
        # odd and even widths: the circular convolution must wrap correctly
        rng = np.random.default_rng(22)
        z = rng.standard_normal(3)
        for t in (71, 20):
            op = gen_tensorsketch(3, 3, t, seed=23)
            assert np.allclose(tensorsketch_apply(op, z), tensorsketch_bruteforce(op, z),
                               atol=1e-8)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(25)
        z = rng.standard_normal((7, 5))
        for q, t in ((1, 9), (2, 16), (3, 33)):
            op = gen_tensorsketch(q, 5, t, seed=26)
            batch = tensorsketch_apply(op, z)
            assert batch.shape == (7, t)
            for i in range(7):
                assert np.allclose(batch[i], tensorsketch_apply(op, z[i]),
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("t", [129, 1024])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_panels_equal_the_whole_batch_bit_for_bit(self, q, t):
        # Row counts about the panel of PANEL // t points: none, one, one
        # short of a panel, a panel, one over, and two panels and three rows.
        op = gen_tensorsketch(q, 5, t, seed=29)
        panel = PANEL // t
        z = np.random.default_rng(30).standard_normal((2 * panel + 3, 5))
        for n in (0, 1, panel - 1, panel, panel + 1, 2 * panel + 3):
            got = tensorsketch_apply(op, z[:n])
            assert got.shape == (n, t)
            assert np.array_equal(got, tensorsketch_whole_batch(op, z[:n]))
        for i, row in enumerate(got):
            assert np.array_equal(tensorsketch_apply(op, z[i]), row)

    def test_feature_matrix_matches_explicit_features(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((6, 4))
        op = gen_tensorsketch(3, 4, 32, seed=28)
        want = poly_features(a, 3) @ tensorsketch_materialize(op)
        assert np.allclose(sketched_feature_matrix(a, op, 0.0), want, atol=1e-10)

    def test_inner_product_preservation(self):
        # mean over seeds of <Rphi(x), Rphi(z)> approaches (x.z)^2 for q=2
        rng = np.random.default_rng(24)
        x = rng.standard_normal(5)
        z = rng.standard_normal(5)
        want = float(x @ z) ** 2
        trials = 2000
        vals = np.empty(trials)
        for seed in range(trials):
            op = gen_tensorsketch(2, 5, 16, seed=seed)
            vals[seed] = tensorsketch_apply(op, x) @ tensorsketch_apply(op, z)
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - want) <= 3 * se
