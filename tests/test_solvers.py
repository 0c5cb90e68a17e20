import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sketchpcr import solvers
from sketchpcr.errors import ConvergenceError, GapError, RankDeficiencyError
from sketchpcr.evaluation import planted_matrix
from sketchpcr.linalg import RANK_FLOOR, spectral_norm, subspace_distance, thin_svd
from sketchpcr.sketch import gen_countsketch, gen_subgaussian
from sketchpcr.solvers import (
    PcrProblem,
    PcrSolution,
    build_r_left,
    build_r_right,
    build_r_twosided,
    certify,
    cls,
    exact_pcr,
    input_sparsity_pcp,
    precond_iterative_ls,
    sketched_pcr,
)
from oracles import (
    countsketch_dense,
    countsketch_tables,
    jacobi_svd,
    reduced_ls_objective,
    rotated_basis,
    run_at_blas_threads,
)


def eq3_bruteforce(a, r_mat, b, k):
    """x_{R,k} evaluated directly from the definition with dense SVD."""
    ar = a @ r_mat
    _, _, vt = np.linalg.svd(ar, full_matrices=False)
    v_k = vt[:k].T
    return r_mat @ (v_k @ (np.linalg.pinv(ar @ v_k) @ b))


def random_problem(seed, n=40, d=12, k=4):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    b = rng.standard_normal(n)
    return PcrProblem(a=a, b=b, k=k)


class TestExactPcr:
    def test_diagonal(self):
        p = PcrProblem(a=np.diag([3.0, 2.0, 1.0]), b=np.ones(3), k=2)
        sol = exact_pcr(p)
        assert np.allclose(sol.x, [1 / 3, 1 / 2, 0.0], atol=1e-12)

    def test_full_rank_equals_ols(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 6))
        b = rng.standard_normal(20)
        sol = exact_pcr(PcrProblem(a=a, b=b, k=6))
        assert np.allclose(sol.x, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-10)

    def test_matches_reduced_ls_oracle(self):
        p = random_problem(2)
        sol = exact_pcr(p)
        obj_ref, _ = reduced_ls_objective(p.a, p.b, thin_svd(p.a).v[:, :p.k])
        assert abs(sol.objective - obj_ref) <= 1e-9 * max(1.0, obj_ref)

    def test_solution_in_top_subspace(self):
        p = random_problem(3)
        sol = exact_pcr(p)
        v_rest = thin_svd(p.a).v[:, p.k:]
        assert np.linalg.norm(v_rest.T @ sol.x) <= 1e-10 * np.linalg.norm(sol.x)
        assert sol.constraint_norm <= 1e-10 * np.linalg.norm(sol.x)

    def test_gap_is_zero_rejected(self):
        p = PcrProblem(a=np.eye(4), b=np.ones(4), k=2)
        with pytest.raises(GapError):
            exact_pcr(p)


def reference_pcp(p):
    """The exact PCP U_k U_k^T b, from U_k of the problem's cached SVD."""
    u = p.reference.svd.u
    return u @ (u.T @ p.b)


class TestExactPcp:
    def test_b_in_top_range_unchanged(self):
        p = random_problem(4)
        b = thin_svd(p.a).u[:, :p.k] @ np.arange(1.0, p.k + 1)
        p2 = PcrProblem(a=p.a, b=b, k=p.k)
        assert np.allclose(reference_pcp(p2), b, atol=1e-10)

    def test_b_orthogonal_maps_to_zero(self):
        p = random_problem(5)
        u_rest = jacobi_svd(p.a)[0][:, p.k:]
        b = u_rest @ np.arange(1.0, u_rest.shape[1] + 1)
        p2 = PcrProblem(a=p.a, b=b, k=p.k)
        assert np.linalg.norm(reference_pcp(p2)) < 1e-10

    def test_equals_a_times_xk(self):
        p = random_problem(6)
        assert np.allclose(reference_pcp(p), p.a @ exact_pcr(p).x, atol=1e-9)


class TestSketchedPcr:
    def test_r_equals_vk_recovers_exact(self):
        p = random_problem(7)
        sol = sketched_pcr(p, thin_svd(p.a).v[:, :p.k])
        assert np.allclose(sol.x, exact_pcr(p).x, atol=1e-9)

    def test_r_identity_recovers_exact(self):
        p = random_problem(8)
        sol = sketched_pcr(p, np.eye(12))
        assert np.allclose(sol.x, exact_pcr(p).x, atol=1e-9)

    def test_matches_bruteforce_eq3(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        p = PcrProblem(a=a, b=b, k=3)
        g = gen_countsketch(8, 10, seed=10)
        sol = sketched_pcr(p, build_r_right(g))
        want = eq3_bruteforce(a, countsketch_dense(8, 10, 10).T, b, 3)
        assert np.allclose(sol.x, want, atol=1e-9)

    def test_rejects_r_narrower_than_k(self):
        p = random_problem(11)
        with pytest.raises(ValueError):
            sketched_pcr(p, np.eye(12)[:, :2])


class TestCls:
    def test_identity_is_ols(self):
        p = random_problem(12)
        sol = cls(p, np.eye(12))
        assert np.allclose(sol.x, np.linalg.lstsq(p.a, p.b, rcond=None)[0], atol=1e-10)

    def test_rank_deficient_ar_gives_the_minimum_norm_solution(self):
        # A has rank 3 and R has 5 columns, so A R has rank 3: x = R (A R)^+ b.
        rng = np.random.default_rng(16)
        a = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 12))
        b = rng.standard_normal(40)
        r = rng.standard_normal((12, 5))
        sol = cls(PcrProblem(a=a, b=b, k=3), r)
        want = r @ np.linalg.lstsq(a @ r, b, rcond=None)[0]
        assert np.linalg.norm(sol.x - want) <= 1e-10 * np.linalg.norm(want)

    def test_zero_ar_gives_zero_without_a_warning(self):
        a = np.zeros((10, 4))
        a[:, 0] = 1.0                     # A R = 0 for an R that misses column 0
        r = np.eye(4)[:, 1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = cls(PcrProblem(a=a, b=np.ones(10), k=1), r)
        assert np.array_equal(sol.x, np.zeros(4))
        assert np.array_equal(sol.x, r @ np.linalg.lstsq(a @ r, np.ones(10), rcond=None)[0])

    def test_truncates_at_the_rank_floor_as_lstsq_does(self):
        # The cli's CLS on a planted A: A R has a geometric tail of singular
        # values, whose part above rounding numpy's default rcond would keep.
        n, d, k, t = 2000, 200, 10, 80
        a = planted_matrix(n, d, k, 0.5, seed=90)
        b = a @ np.random.default_rng(91).standard_normal(d) \
            + 0.1 * np.random.default_rng(92).standard_normal(n)
        r = build_r_right(gen_subgaussian(t, d, 93))
        s = np.linalg.svd(a @ r, compute_uv=False)
        floor = RANK_FLOOR * s[0]
        kept = np.count_nonzero(s > floor)
        assert kept < t and s[kept - 1] > 1.1 * floor and s[kept] < 0.9 * floor
        x = cls(PcrProblem(a=a, b=b, k=k), r).x
        want = r @ np.linalg.lstsq(a @ r, b, rcond=RANK_FLOOR)[0]
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    def test_coincides_with_sketched_for_k_orthonormal_columns(self):
        p = random_problem(13)
        v = thin_svd(p.a).v
        r = rotated_basis(v[:, :p.k], v[:, p.k:], theta=0.2)
        assert np.allclose(cls(p, r).x, sketched_pcr(p, r).x, atol=1e-10)

    def test_normal_equations_orthogonality(self):
        rng = np.random.default_rng(14)
        p = random_problem(15)
        r = rng.standard_normal((12, 5))
        sol = cls(p, r)
        ar = p.a @ r
        assert np.linalg.norm(ar.T @ (p.a @ sol.x - p.b)) < 1e-8


class TestBuildR:
    def test_left_identity_sketch_gives_vk(self):
        p = random_problem(16)
        r = build_r_left(p, sp.identity(40, format="csr"))
        assert np.allclose(r, thin_svd(p.a).v[:, :p.k], atol=1e-12)

    def test_left_output_orthonormal(self):
        p = random_problem(17)
        r = build_r_left(p, gen_subgaussian(25, 40, seed=18))
        assert np.linalg.norm(r.T @ r - np.eye(p.k)) < 1e-10

    def test_right_countsketch_column_semantics(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((9, 6))
        g = gen_countsketch(4, 6, seed=20)
        ar = a @ build_r_right(g)
        rows, signs = countsketch_tables(4, 6, 20)
        want = np.zeros((9, 4))
        for i in range(6):
            want[:, rows[i]] += signs[i] * a[:, i]
        assert np.allclose(ar, want, atol=0)

    def test_right_identity_gives_a(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((7, 5))
        right = build_r_right(sp.identity(5, format="csr"))
        assert np.allclose(a @ right, a, atol=0)

    def test_right_implicit_matches_materialized(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((15, 9))
        g = gen_countsketch(6, 9, seed=23)
        right = build_r_right(g)
        assert np.allclose(a @ right, a @ countsketch_dense(6, 9, 23).T, atol=1e-12)
        v = rng.standard_normal(6)
        assert np.allclose(right @ v, countsketch_dense(6, 9, 23).T @ v, atol=1e-12)

    def test_right_sparse_input(self):
        rng = np.random.default_rng(24)
        dense = rng.standard_normal((20, 8))
        dense[rng.random((20, 8)) < 0.5] = 0.0
        right = build_r_right(gen_countsketch(5, 8, seed=25))
        assert np.allclose((sp.csr_matrix(dense) @ right).toarray(), dense @ right, atol=1e-12)

    def test_twosided_identity_recovers_top_subspace(self):
        p = random_problem(26)
        r = build_r_twosided(p, sp.identity(40, format="csr"), sp.identity(12, format="csr"))
        # sqrt(1 - sigma_min^2) has a ~1e-8 precision floor near zero distance
        assert subspace_distance(r, thin_svd(p.a).v[:, :p.k]) < 1e-7

    def test_twosided_matches_algorithm_intermediates(self):
        p = random_problem(27)
        s_op = gen_countsketch(20, 40, seed=28)
        g_op = gen_countsketch(8, 12, seed=29)
        r = build_r_twosided(p, s_op, g_op)
        c = p.a @ countsketch_dense(8, 12, 29).T
        d = countsketch_dense(20, 40, 28) @ c
        want = countsketch_dense(8, 12, 29).T @ thin_svd(d).v[:, :p.k]
        assert np.allclose(r, want, atol=1e-9)

    def test_twosided_solution_matches_bruteforce(self):
        p = random_problem(30)
        r = build_r_twosided(p, gen_countsketch(20, 40, seed=31), gen_countsketch(8, 12, seed=32))
        sol = sketched_pcr(p, r)
        want = eq3_bruteforce(p.a, r, p.b, p.k)
        assert np.allclose(sol.x, want, atol=1e-9)


class TestCertify:
    def test_exact_solution_certificate(self):
        p = random_problem(33)
        cert = certify(p, exact_pcr(p), mode="pcr")
        assert cert.eps_observed < 1e-12
        assert cert.upsilon_observed < 1e-10

    def test_ols_has_large_leakage(self):
        rng = np.random.default_rng(34)
        a = planted_matrix(60, 30, 4, 0.5, seed=35)
        x_true = rng.standard_normal(30)
        b = a @ x_true + 0.5 * rng.standard_normal(60)
        p = PcrProblem(a=a, b=b, k=4)
        ols = PcrSolution(x=np.linalg.lstsq(a, b, rcond=None)[0], method="ols", r_cols=0,
                          objective=0.0, constraint_norm=None, wall_time=0.0)
        cert_ols = certify(p, ols, mode="pcr")
        cert_exact = certify(p, exact_pcr(p), mode="pcr")
        assert cert_ols.upsilon_observed > 10 * max(cert_exact.upsilon_observed, 1e-6)

    def test_left_sketched_respects_structural_bounds(self):
        for seed in range(15):
            a = planted_matrix(80, 40, 4, 0.4, seed=100 + seed)
            rng = np.random.default_rng(200 + seed)
            b = a @ rng.standard_normal(40) + 0.2 * rng.standard_normal(80)
            p = PcrProblem(a=a, b=b, k=4)
            f = thin_svd(a)
            r = build_r_left(p, gen_subgaussian(160, 80, seed=300 + seed))
            dist = subspace_distance(r, f.v[:, :4])
            nu = dist / math.sqrt(1.0 - dist**2)
            if nu >= 0.6:
                continue
            cert = certify(p, sketched_pcr(p, r), mode="pcr")
            sk, sk1 = f.sigma[3], f.sigma[4]
            assert cert.eps_observed <= (sk1 / sk) * nu + 1e-8
            ups_cap = nu / ((math.sqrt(1.0 - nu**2) - nu) * sk)
            assert cert.upsilon_observed <= ups_cap + 1e-8

    @pytest.mark.parametrize("n, d", [(50, 100), (100, 50)], ids=["wide", "tall"])
    def test_leakage_is_the_part_outside_the_top_k_of_a_full_svd(self, n, d):
        # Against V_+ and U_+ of np.linalg.svd(full_matrices=True): when d > n,
        # V_+ holds null(A) too, which a thin SVD leaves out.
        rng = np.random.default_rng(60)
        a = planted_matrix(n, d, 3, 0.5, seed=61)
        b = a @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
        p = PcrProblem(a=a, b=b, k=3)
        u, _, vt = np.linalg.svd(a, full_matrices=True)
        u_plus, v_plus = u[:, 3:], vt[3:].T
        nb = np.linalg.norm(b)
        for sol in (sketched_pcr(p, build_r_right(gen_countsketch(20, d, seed=62))),
                    cls(p, build_r_right(gen_subgaussian(20, d, seed=63)))):
            want = np.linalg.norm(v_plus.T @ sol.x) / nb
            got = certify(p, sol, mode="pcr").upsilon_observed
            assert abs(got - want) <= 1e-10 * want
            want = np.linalg.norm(u_plus.T @ (a @ sol.x)) / nb
            got = certify(p, sol, mode="pcp").upsilon_observed
            assert abs(got - want) <= 1e-10 * want
        x_k = exact_pcr(p)
        assert x_k.constraint_norm <= 1e-12 * np.linalg.norm(x_k.x)
        assert np.linalg.norm(v_plus.T @ x_k.x) <= 1e-12 * np.linalg.norm(x_k.x)

    def test_mode_validation(self):
        p = random_problem(36)
        with pytest.raises(ValueError):
            certify(p, exact_pcr(p), mode="other")


class TestExactReference:
    """exact_pcr, certify and the reference's U_k share one cached SVD of A."""

    def test_one_full_svd_for_every_exact_consumer(self, monkeypatch):
        p = random_problem(40)
        real_svd = np.linalg.svd
        shapes = []

        def counting_svd(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return real_svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        sol = exact_pcr(p)
        reference_pcp(p)
        certify(p, sol, mode="pcr")
        certify(p, sol, mode="pcp")
        exact_pcr(p)
        assert shapes == [p.shape]

    def test_cached_results_bit_identical_to_fresh_thin_svd(self):
        p = random_problem(41)
        first, again = exact_pcr(p), exact_pcr(p)
        f = thin_svd(p.a).lead(p.k)
        x = f.v @ ((f.u.T @ p.b) / f.sigma[:p.k])
        assert np.array_equal(first.x, x) and np.array_equal(again.x, x)
        assert first.constraint_norm == float(np.linalg.norm(x - f.v @ (f.v.T @ x)))
        assert np.array_equal(reference_pcp(p), f.u @ (f.u.T @ p.b))
        cert = certify(p, first, mode="pcr")
        assert cert.reference_objective == float(np.linalg.norm(p.b - f.u @ (f.u.T @ p.b)))

    def test_pcp_leakage_matches_jacobi_u_rest(self):
        p = random_problem(42)
        y = np.random.default_rng(43).standard_normal(p.shape[1])
        cand = PcrSolution(x=y, method="y", r_cols=0, objective=None,
                           constraint_norm=None, wall_time=0.0)
        leak = certify(p, cand, mode="pcp").upsilon_observed * np.linalg.norm(p.b)
        u, _, _ = jacobi_svd(p.a)
        want = np.linalg.norm(u[:, p.k:].T @ (p.a @ y))
        assert abs(leak - want) <= 1e-12 * max(1.0, want)

    @pytest.mark.parametrize("a, error", [
        (np.eye(4), GapError),
        (np.diag([1.0, 0.0, 0.0]), RankDeficiencyError),
    ])
    def test_degenerate_a_raises_on_every_call(self, a, error):
        p = PcrProblem(a=a, b=np.ones(a.shape[0]), k=2)
        for _ in range(2):
            with pytest.raises(error):
                exact_pcr(p)
            with pytest.raises(error):
                certify(p, PcrSolution(x=np.zeros(a.shape[1]), method="y", r_cols=0,
                                       objective=None, constraint_norm=None, wall_time=0.0),
                        mode="pcp")

    def test_rank_floor_is_relative_to_sigma_1(self):
        # Rank 2 needs sigma_2 > RANK_FLOOR sigma_1 at any scale of A (the
        # rounding cutoff of a 1000 x 3 A is 2.2e-13 sigma_1); sigma_3 =
        # sigma_2 / 10 leaves a gap at 2 either way.
        rng = np.random.default_rng(50)
        u = np.linalg.qr(rng.standard_normal((1000, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for scale in (1e-100, 1.0, 1e100):
            for factor, kept in ((1.001, True), (0.999, False)):
                s2 = factor * RANK_FLOOR
                p = PcrProblem(a=(u * [scale, scale * s2, scale * s2 / 10]) @ v.T,
                               b=np.ones(1000), k=2)
                if kept:
                    exact_pcr(p)
                else:
                    with pytest.raises(RankDeficiencyError, match="A has rank below k=2"):
                        exact_pcr(p)

    @pytest.mark.parametrize("exact_first", [True, False])
    def test_exact_wall_time_includes_the_svd_in_either_order(self, exact_first, monkeypatch):
        def slow_thin_svd(m):
            time.sleep(0.05)
            return thin_svd(m)

        monkeypatch.setattr(solvers, "thin_svd", slow_thin_svd)
        p = random_problem(46)
        if not exact_first:
            certify(p, sketched_pcr(p, gen_subgaussian(8, p.shape[1], 1).T), mode="pcr")
        sol = exact_pcr(p)
        assert sol.wall_time >= p.reference.seconds >= 0.05

    def test_a_is_read_only(self):
        a = np.random.default_rng(44).standard_normal((10, 4))
        p = PcrProblem(a=a, b=np.ones(10), k=2)
        with pytest.raises(ValueError):
            p.a[0, 0] = 1.0

    def test_sparse_a_gives_the_dense_reference(self):
        p = random_problem(45)
        ps = PcrProblem(a=sp.csr_matrix(p.a), b=p.b, k=p.k)
        assert np.array_equal(exact_pcr(ps).x, exact_pcr(p).x)

    def test_for_ranks_shares_one_svd_computed_on_first_use(self, monkeypatch):
        p = random_problem(47)
        real_svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda m, *a, **kw: shapes.append(np.shape(m)) or real_svd(m, *a, **kw))
        problems = PcrProblem.for_ranks(p.a, p.b, [3, 1, 5])
        assert list(problems) == [3, 1, 5] and shapes == []
        refs = {k: q.reference for k, q in problems.items()}
        assert shapes == [p.shape]
        for k, ref in refs.items():
            fresh = PcrProblem(a=p.a, b=p.b, k=k).reference.svd
            for name in ("u", "sigma", "v"):
                assert np.array_equal(getattr(ref.svd, name), getattr(fresh, name))
                assert getattr(ref.svd, name).flags.c_contiguous
            assert ref.svd.u.shape[1] == ref.svd.v.shape[1] == k
            assert ref.seconds == refs[5].seconds

    def test_single_rank_keeps_u_k_only(self):
        p = random_problem(48)
        f = p.reference.svd
        assert f.u.shape == (p.shape[0], p.k) and f.v.shape == (p.shape[1], p.k)
        assert f.sigma.shape == (min(p.shape),)

    @pytest.mark.parametrize("k", [0, 13])
    def test_rank_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match="out of range"):
            PcrProblem(a=np.ones((40, 12)), b=np.ones(40), k=k)

    def test_svd_from_needs_same_shape_and_a_rank_at_least_k(self):
        p = random_problem(49)
        with pytest.raises(ValueError):
            PcrProblem(a=p.a, b=p.b, k=p.k + 1, svd_from=p)
        with pytest.raises(ValueError):
            PcrProblem(a=p.a[:-1], b=p.b[:-1], k=1, svd_from=p)


class TestPrecondIterativeLs:
    def test_matches_direct_solve(self):
        rng = np.random.default_rng(37)
        c = rng.standard_normal((60, 4))
        b = rng.standard_normal(60)
        got = precond_iterative_ls((c, np.eye(4)), b, eps=1e-14, seed=38)
        want, *_ = np.linalg.lstsq(c, b, rcond=None)
        assert np.allclose(got, want, atol=1e-8)

    def test_orthonormal_converges_in_one_iteration(self):
        products = []

        class Counted(np.ndarray):
            """An array that counts the matrix products it takes part in."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                products.append(ufunc is np.matmul)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        rng = np.random.default_rng(39)
        q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        b = rng.standard_normal(30)
        got = precond_iterative_ls((q.view(Counted), np.eye(3)), b, eps=1e-12, seed=40)
        assert np.allclose(got, q.T @ b, atol=1e-10)
        # 4 k^2 >= n, so one product forms C for the preconditioner; then one
        # before the loop and two per CGLS iteration: at most two iterations.
        assert 1 + 1 <= sum(products) <= 1 + 1 + 2 * 2

    # The metric contract |C (g - g*)|^2 <= eps |C g*|^2 holds with high
    # probability over the preconditioner's CountSketch. Each draw takes an
    # (n, k, condition number, eps) regime and a fresh C, b and sketch seed;
    # n > 4 k^2, so the sketch path runs. A failure is a violation or a
    # ConvergenceError. At a per-draw failure rate of DELTA, more than
    # MAX_FAILURES failures in DRAWS draws has probability below 1e-4 (one-sided
    # binomial tail). 600 such draws gave 0 failures and a worst ratio of 0.012.
    REGIMES = [(2000, 6, 1e6, 1e-6), (1000, 4, 1e8, 1e-4), (600, 8, 1e3, 1e-8)]
    DRAWS, DELTA, MAX_FAILURES = 100, 0.01, 6

    def test_metric_contract_on_ill_conditioned(self, monkeypatch):
        assert scipy.stats.binom.sf(self.MAX_FAILURES, self.DRAWS, self.DELTA) < 1e-4
        real, sketched = solvers.gen_countsketch, []
        monkeypatch.setattr(solvers, "gen_countsketch",
                            lambda *args: sketched.append(1) or real(*args))
        failures = 0
        for i in range(self.DRAWS):
            n, k, cond, eps = self.REGIMES[i % len(self.REGIMES)]
            rng = np.random.default_rng(4100 + i)
            u, _ = np.linalg.qr(rng.standard_normal((n, k)))
            v, _ = np.linalg.qr(rng.standard_normal((k, k)))
            c = (u * np.geomspace(1.0, 1.0 / cond, k)) @ v.T
            b = rng.standard_normal(n)
            want, *_ = np.linalg.lstsq(c, b, rcond=None)
            try:
                got = precond_iterative_ls((c, np.eye(k)), b, eps=eps, seed=9100 + i)
            except ConvergenceError:
                failures += 1
                continue
            failures += np.linalg.norm(c @ (got - want))**2 > eps * np.linalg.norm(c @ want)**2
        assert len(sketched) == self.DRAWS
        assert failures <= self.MAX_FAILURES

    def test_product_operator_never_materialized(self):
        rng = np.random.default_rng(43)
        left = rng.standard_normal((300, 12))
        right_f = rng.standard_normal((12, 3))
        b = rng.standard_normal(300)
        got = precond_iterative_ls((left, right_f), b, eps=1e-12, seed=44)
        want, *_ = np.linalg.lstsq(left @ right_f, b, rcond=None)
        assert np.allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("n, t, k", [(300, 12, 3), (30, 8, 4)])  # sketched, and 4k^2 >= n
    def test_factor_pair_equals_the_formed_product(self, n, t, k):
        rng = np.random.default_rng(n)
        left = rng.standard_normal((n, t))
        right = rng.standard_normal((t, k))
        b = rng.standard_normal(n)
        got = precond_iterative_ls((left, right), b, eps=1e-10, seed=5)
        want = precond_iterative_ls((left @ right, np.eye(k)), b, eps=1e-10, seed=5)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rank_deficiency_signaled(self):
        c = np.zeros((50, 3))
        c[:, 0] = 1.0
        with pytest.raises(RankDeficiencyError):
            precond_iterative_ls((c, np.eye(3)), np.ones(50), eps=1e-6, seed=45)


def _draws_sketches(monkeypatch, s_op, g_op):
    """Make input_sparsity_pcp draw ``s_op`` as its S and ``g_op`` as its G;
    the preconditioner's sketch is drawn as usual."""
    queue, real = [s_op, g_op], solvers.gen_countsketch

    def gen(out_dim, in_dim, seed):
        if not queue:
            return real(out_dim, in_dim, seed)
        op = queue.pop(0)
        assert op.shape == (out_dim, in_dim)
        return op

    monkeypatch.setattr(solvers, "gen_countsketch", gen)


class TestInputSparsityPcp:
    def test_matches_materialized_oracle(self, monkeypatch):
        rng = np.random.default_rng(46)
        a = planted_matrix(50, 40, 3, 0.4, seed=47)
        b = a @ rng.standard_normal(40) + 0.1 * rng.standard_normal(50)
        p = PcrProblem(a=a, b=b, k=3)
        _draws_sketches(monkeypatch, gen_countsketch(30, 50, seed=48),
                        gen_countsketch(20, 40, seed=49))
        y = input_sparsity_pcp(p, 30, 20, eps=1e-10, seed=50)
        # rebuild R = G'^T V_{D,k} exactly as the algorithm does
        g_rows, g_signs = countsketch_tables(20, 40, 49)
        occupied = np.unique(g_rows)
        g_mat = np.zeros((len(occupied), 40))
        g_mat[np.searchsorted(occupied, g_rows), np.arange(40)] = g_signs
        c = a @ g_mat.T
        d_mat = countsketch_dense(30, 50, 48) @ c
        r_mat = g_mat.T @ thin_svd(d_mat).v[:, :3]
        x_r = r_mat @ (np.linalg.pinv(a @ r_mat) @ b)
        assert np.linalg.norm(y - x_r) <= 1e-4 * np.linalg.norm(x_r)

    def test_degenerate_sketches_recover_exact(self, monkeypatch):
        rng = np.random.default_rng(51)
        a = planted_matrix(30, 12, 3, 0.5, seed=52)
        b = a @ rng.standard_normal(12)
        p = PcrProblem(a=a, b=b, k=3)
        perm = rng.permutation(12)
        g_perm = sp.csr_matrix((rng.choice([-1.0, 1.0], size=12), (perm, np.arange(12))),
                               shape=(12, 12))
        _draws_sketches(monkeypatch, sp.identity(30, format="csr"), g_perm)
        y = input_sparsity_pcp(p, 30, 12, eps=1e-12, seed=53)
        assert np.allclose(y, exact_pcr(p).x, atol=1e-8)

    @staticmethod
    def sparse_problem(n, d, nnz, k, seed):
        rng = np.random.default_rng(seed)
        a = sp.csr_matrix((rng.standard_normal(nnz), (rng.integers(0, n, nnz),
                                                      rng.integers(0, d, nnz))), shape=(n, d))
        a.sum_duplicates()
        return PcrProblem(a=a, b=rng.standard_normal(n), k=k)

    def test_csr_and_dense_copies_of_a_give_the_same_y(self):
        p = self.sparse_problem(3000, 200, 20000, 4, seed=54)
        dense = PcrProblem(a=p.a.toarray(), b=p.b, k=p.k)
        y_csr, y_dense = (input_sparsity_pcp(q, 40, 60, seed=55) for q in (p, dense))
        assert np.linalg.norm(y_csr - y_dense) <= 1e-12 * np.linalg.norm(y_dense)
        r_csr, r_dense = (build_r_twosided(q, gen_countsketch(40, 3000, seed=56),
                                           gen_countsketch(60, 200, seed=57)) for q in (p, dense))
        assert np.abs(r_csr - r_dense).max() <= 1e-12

    def test_memory_does_not_grow_with_n_times_t_at_fixed_nnz(self):
        # The solve keeps a few n-vectors (b, CGLS's residual and products),
        # so its peak grows with n, but far from tenfold: a dense n x t copy
        # of A G^T, 32 MB at n = 20000, made it grow about eightfold.
        peaks = []
        for n in (2000, 20000):
            p = self.sparse_problem(n, 400, 100000, 5, seed=58)
            input_sparsity_pcp(p, 40, 200, seed=59)
            tracemalloc.start()
            try:
                input_sparsity_pcp(p, 40, 200, seed=59)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * peaks[0]

    # The contract |y - x_R|^2 <= eps |x_R|^2, for x_R the exact minimizer over
    # the range of R, holds with constant probability. Each draw takes a fresh
    # A, b, S, G and preconditioner seed. At a per-draw
    # failure rate of DELTA, more than MAX_FAILURES failures in DRAWS draws has
    # probability below 1e-4 (one-sided binomial tail). 200 draws gave 0
    # failures and a worst ratio |y - x_R|^2 / |x_R|^2 of 1.7e-7.
    DRAWS, DELTA, MAX_FAILURES = 40, 0.01, 4

    def test_probabilistic_contract_sample(self, monkeypatch):
        assert scipy.stats.binom.sf(self.MAX_FAILURES, self.DRAWS, self.DELTA) < 1e-4
        failures = 0
        for seed in range(self.DRAWS):
            rng = np.random.default_rng(1000 + seed)
            a = planted_matrix(100, 80, 4, 0.4, seed=2000 + seed)
            b = a @ rng.standard_normal(80) + 0.1 * rng.standard_normal(100)
            p = PcrProblem(a=a, b=b, k=4)
            _draws_sketches(monkeypatch, gen_countsketch(48, 100, seed=3000 + seed),
                            gen_countsketch(32, 80, seed=4000 + seed))
            g_rows, g_signs = countsketch_tables(32, 80, 4000 + seed)
            occupied = np.unique(g_rows)
            g_mat = np.zeros((len(occupied), 80))
            g_mat[np.searchsorted(occupied, g_rows), np.arange(80)] = g_signs
            c = a @ g_mat.T
            r_mat = g_mat.T @ thin_svd(countsketch_dense(48, 100, 3000 + seed) @ c).v[:, :4]
            x_r = r_mat @ (np.linalg.pinv(a @ r_mat) @ b)
            try:
                y = input_sparsity_pcp(p, 48, 32, eps=1e-3, seed=5000 + seed)
            except ConvergenceError:
                failures += 1
                continue
            failures += np.linalg.norm(y - x_r) ** 2 > 1e-3 * np.linalg.norm(x_r) ** 2
        assert failures <= self.MAX_FAILURES


class TestDeterministicLemmas:
    def test_lemma_11_bounds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = planted_matrix(30, 20, 3, 0.5, seed=seed)
            f = thin_svd(a)
            theta = float(rng.uniform(0.05, 0.6))
            r = rotated_basis(f.v[:, :3], f.v[:, 3:], theta)
            nu = subspace_distance(r, f.v[:, :3])
            assert spectral_norm(f.v[:, 3:].T @ r) <= nu + 1e-10
            if nu < math.sqrt(0.5):
                smin = np.linalg.svd(a @ r, compute_uv=False)[-1]
                assert smin >= f.sigma[2] * (math.sqrt(1 - nu**2) - nu) - 1e-10

    def test_lemma_14_bound(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            a = planted_matrix(30, 20, 3, 0.5, seed=300 + seed)
            f = thin_svd(a)
            theta = float(rng.uniform(0.05, 0.6))
            r = rotated_basis(f.v[:, :3], f.v[:, 3:], theta)
            nu = math.tan(theta)  # d2(R, V_k) = sin(theta) = nu (1 + nu^2)^{-1/2}
            lhs = subspace_distance(thin_svd(a @ r).u, f.u[:, :3])
            assert lhs <= (f.sigma[3] / f.sigma[2]) * nu + 1e-8

    def test_structural_part1_pcp_certificate(self):
        for seed in range(15):
            rng = np.random.default_rng(200 + seed)
            a = planted_matrix(40, 24, 3, 0.5, seed=400 + seed)
            b = a @ rng.standard_normal(24) + 0.2 * rng.standard_normal(40)
            p = PcrProblem(a=a, b=b, k=3)
            r = rng.standard_normal((24, 6))
            nu = subspace_distance(thin_svd(a @ r).u[:, :3], thin_svd(a).u[:, :3])
            if nu >= 1.0 - 1e-9:
                continue
            cert = certify(p, sketched_pcr(p, r), mode="pcp")
            assert cert.eps_observed <= nu + 1e-8
            assert cert.upsilon_observed <= nu + 1e-8

    def test_davis_kahan_corollary(self):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            k = 3
            base = rng.standard_normal((12, 12))
            sym = base @ base.T  # PSD, generic spectrum
            lam = np.sort(np.linalg.eigvalsh(sym))[::-1]
            pert = rng.standard_normal((12, 12))
            pert = (pert + pert.T) / 2
            pert *= 0.45 * (lam[k - 1] - lam[k]) / spectral_norm(pert)
            lam_tilde = np.sort(np.linalg.eigvalsh(sym + pert))[::-1]
            v1 = thin_svd(sym).v[:, :k]
            v2 = thin_svd(sym + pert).v[:, :k]
            bound = spectral_norm(pert) / (lam[k - 1] - lam_tilde[k])
            assert subspace_distance(v1, v2) <= bound + 1e-8


# ---------------------------------------------------------------------------
# Properties over small random A, with R dense or the CSR transpose of a
# CountSketch, and A dense or its CSR copy.

def _draw(seed, n, d, k, s, density, r_kind):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    b = rng.standard_normal(n)
    if r_kind == "dense":
        r = rng.standard_normal((d, s))
    else:
        r = gen_countsketch(s, d, seed).T.tocsr()
    return a, b, r


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10), n_extra=st.integers(0, 20),
       k=st.integers(1, 9), s_extra=st.integers(0, 10),
       density=st.sampled_from([0.4, 0.7, 1.0]), r_kind=st.sampled_from(["dense", "csr"]),
       solver=st.sampled_from([sketched_pcr, cls]))
def test_solutions_lie_in_span_r_and_ignore_the_layout_of_a(
        seed, d, n_extra, k, s_extra, density, r_kind, solver):
    assume(k < d)
    a, b, r = _draw(seed, d + n_extra, d, k, k + s_extra, density, r_kind)
    try:
        x = solver(PcrProblem(a=a, b=b, k=k), r).x
        x_csr = solver(PcrProblem(a=sp.csr_matrix(a), b=b, k=k), r).x
    except (GapError, RankDeficiencyError):
        assume(False)
    scale = max(np.linalg.norm(x), np.finfo(float).tiny)
    assert np.linalg.norm(x_csr - x) <= 1e-10 * scale
    r_dense = r.toarray() if sp.issparse(r) else r
    assert np.linalg.norm(x - r_dense @ (np.linalg.pinv(r_dense) @ x)) <= 1e-10 * scale


BATCH_SCRIPT = """
import json, sys
import numpy as np
from sketchpcr.cli import SOLVERS
from sketchpcr.evaluation import planted_matrix
from sketchpcr.solvers import PcrProblem
n, d, k = 2000, 200, 10
a = planted_matrix(n, d, k, 0.5, seed=90)
noise = 0.1 * np.random.default_rng(92).standard_normal(n)
b = a @ np.random.default_rng(91).standard_normal(d) + noise
p = PcrProblem(a=a, b=b, k=k)
json.dump({name: entry.fn(p, 8 * k, 8 * k, 93).x.tolist() for name, entry in SOLVERS.items()},
          sys.stdout)
"""


@pytest.fixture(scope="module")
def batch_x_at_1_and_2_threads():
    return [run_at_blas_threads(BATCH_SCRIPT, threads) for threads in ("1", "2")]


@pytest.mark.parametrize("solver", [
    "exact", "left", "right", "twosided", "input-sparsity", "cls",
])
def test_batch_x_does_not_depend_on_the_blas_thread_count(solver, batch_x_at_1_and_2_threads):
    x1, x2 = (np.array(xs[solver]) for xs in batch_x_at_1_and_2_threads)
    assert np.linalg.norm(x2 - x1) <= 1e-12 * np.linalg.norm(x1)
