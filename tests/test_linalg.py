import ctypes
import gc
import math
import sys
import threading
import warnings
import weakref
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpcr import linalg
from sketchpcr.errors import ConvergenceError
from sketchpcr.kernel import augment_offset
from sketchpcr.linalg import (
    as_matrix,
    as_vector,
    numerical_rank,
    qr_svd,
    relative_gap,
    spectral_norm,
    stable_rank,
    subspace_distance,
    thin_svd,
    top_eigenpairs,
    truncated_solve,
)
from oracles import jacobi_svd, subspace_distance_projectors


def haar(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


class TestThinSvd:
    def test_diagonal(self):
        f = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.sigma, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(f.u[:, :2]), np.eye(3)[:, :2])

    def test_identity_ties(self):
        f = thin_svd(np.eye(4))
        assert np.allclose(f.sigma, np.ones(4))

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 4))
        f = thin_svd(a)
        _, s_ref, _ = jacobi_svd(a)
        assert np.allclose(f.sigma, s_ref, atol=1e-10)
        assert np.allclose((f.u * f.sigma) @ f.v.T, a, atol=1e-12)
        assert np.allclose(f.u.T @ f.u, np.eye(4), atol=1e-12)

    def test_invariants_on_random_shapes(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            m = int(rng.integers(2, 65))
            n = int(rng.integers(2, 65))
            a = rng.standard_normal((m, n))
            k = int(rng.integers(1, min(m, n) + 1))
            f = thin_svd(a)
            r = min(m, n)
            assert f.u.shape == (m, r) and f.sigma.shape == (r,) and f.v.shape == (n, r)
            assert np.linalg.norm(f.u.T @ f.u - np.eye(r)) < 1e-10
            assert np.linalg.norm(f.v.T @ f.v - np.eye(r)) < 1e-10
            assert np.all(np.diff(f.sigma) <= 1e-12)
            recon = (f.u * f.sigma) @ f.v.T
            assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-8
            g = f.lead(k)
            assert np.array_equal(g.u, f.u[:, :k]) and np.array_equal(g.v, f.v[:, :k])
            assert np.array_equal(g.sigma, f.sigma)
            assert g.u.flags.c_contiguous and g.v.flags.c_contiguous

    def test_determinism_and_sign_convention(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 5))
        f1, f2 = thin_svd(a), thin_svd(a)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)
        peaks = np.abs(f1.u).argmax(axis=0)
        assert np.all(f1.u[peaks, np.arange(f1.u.shape[1])] > 0)

    def test_rejects_nonfinite(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            thin_svd(a)


def _rank_three(rng, rows, cols):
    return rng.standard_normal((rows, 3)) @ rng.standard_normal((3, cols))


class TestQrSvd:
    @pytest.mark.parametrize("shape, make", [
        ((30, 6), None),            # rows > cols: A R
        ((3, 5), None),             # rows < cols: T A R with t < k
        ((20, 6), _rank_three),     # rank-deficient
    ], ids=["tall", "wide", "rank-deficient"])
    def test_against_jacobi_oracle(self, shape, make):
        rng = np.random.default_rng(sum(shape))
        m = make(rng, *shape) if make else rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        sigma, v, c = qr_svd(m, b)
        u_ref, s_ref, v_ref = jacobi_svd(m)
        p = min(shape)
        assert sigma.shape == (p,) and v.shape == (shape[1], p) and c.shape == (p,)
        assert np.allclose(sigma, s_ref[:p], rtol=0, atol=1e-12 * s_ref[0])
        rank = numerical_rank(sigma, shape)
        assert rank == (3 if make else p)
        for j in range(1, rank + 1):
            want = v_ref[:, :j] @ ((u_ref[:, :j].T @ b) / s_ref[:j])
            got = truncated_solve(v, sigma, c, j)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # At the numerical rank: the minimum-norm least-squares solution.
        want = np.linalg.lstsq(m, b, rcond=None)[0]
        got = truncated_solve(v, sigma, c, rank)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qr_svd(np.eye(3), [1.0, 2.0])


class TestSubspaceDistance:
    def test_equal_bases(self):
        rng = np.random.default_rng(8)
        q = haar(rng, 6, 2)
        assert subspace_distance(q, q) < 1e-12

    def test_orthogonal_axes(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert abs(subspace_distance(e1, e2) - 1.0) < 1e-12

    def test_rotation_angle(self):
        theta = 0.3
        e1 = np.array([[1.0], [0.0]])
        w = np.array([[math.cos(theta)], [math.sin(theta)]])
        assert abs(subspace_distance(e1, w) - math.sin(theta)) < 1e-12
        assert abs(subspace_distance(e1, w) - subspace_distance_projectors(e1, w)) < 1e-12

    def test_matches_projector_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            u = haar(rng, 10, 3)
            w = haar(rng, 10, 3)
            d = subspace_distance(u, w)
            assert abs(d - subspace_distance_projectors(u, w)) < 1e-8
            assert abs(d - subspace_distance(w, u)) < 1e-12

    def test_rejects_column_mismatch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            subspace_distance(haar(rng, 6, 2), haar(rng, 6, 3))


class TestSpectralDiagnostics:
    def test_stable_rank_identity(self):
        assert abs(stable_rank(np.eye(5)) - 5.0) < 1e-12

    def test_stable_rank_rank_one(self):
        u = np.arange(1.0, 5.0)[:, None]
        assert abs(stable_rank(u @ u.T) - 1.0) < 1e-10

    def test_stable_rank_diag(self):
        assert abs(stable_rank(np.diag([2.0, 1.0])) - 5.0 / 4.0) < 1e-12

    def test_stable_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            stable_rank(np.zeros((3, 3)))

    def test_relative_gap_diag(self):
        assert abs(relative_gap([3.0, 2.0, 1.0], 1) - 5.0 / 9.0) < 1e-12

    def test_relative_gap_identity(self):
        assert relative_gap(np.ones(4), 2) == 0.0

    def test_relative_gap_consistent_with_svd(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((7, 5))
        _, s, _ = jacobi_svd(a)
        want = (s[1] ** 2 - s[2] ** 2) / s[0] ** 2
        assert abs(relative_gap(thin_svd(a).sigma, 2) - want) < 1e-12
        assert relative_gap(s, 5) == pytest.approx(s[4] ** 2 / s[0] ** 2, rel=1e-12)

    def test_relative_gap_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                relative_gap([3.0, 2.0, 1.0], k)
        with pytest.raises(ValueError, match="zero matrix"):
            relative_gap(np.zeros(3), 1)


# Entries at the edges of the finiteness test: NaN, +-inf, +-the largest
# double, subnormals and -0.0, beside any double hypothesis draws.
EDGE_ENTRIES = [np.nan, np.inf, -np.inf, 1.7976931348623157e308, -1.7976931348623157e308,
                5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0]
VIEWS = {   # each gives a (possibly empty) 2-D view of a drawn matrix
    "whole": lambda m: m,
    "transposed": lambda m: m.T,
    "every-other-row": lambda m: m[::2],
    "every-other-column": lambda m: m[:, ::2],
    "one-row": lambda m: m[:1],
    "one-column": lambda m: m[:, :1],
}


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestFiniteness:
    @settings(max_examples=300, deadline=None)
    @given(m=hnp.arrays(float, st.tuples(st.integers(0, 5), st.integers(0, 5)),
                        elements=st.one_of(st.sampled_from(EDGE_ENTRIES), st.floats())),
           view=st.sampled_from(sorted(VIEWS)))
    def test_as_vector_and_as_matrix_agree_with_isfinite_all(self, m, view):
        m = VIEWS[view](m)
        finite = bool(np.isfinite(m).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, want in ((lambda: as_matrix(m, "a"), m),
                               (lambda: as_vector(m, length=m.size, name="a"), m.ravel())):
                if finite:
                    assert same_bits(call(), want)
                else:
                    with pytest.raises(ValueError, match="^a contains NaN or Inf entries$"):
                        call()

    @pytest.mark.parametrize("value", [
        ["1", "2.5"], [b"1", b"2"], [1.0, "2"], [1 + 2j, 3.0], [1.0, None], "12"])
    def test_non_numbers_are_rejected_not_parsed(self, value):
        with pytest.raises(ValueError, match=r"^a_row is not numeric \(dtype "):
            as_vector(value, name="a_row")
        for call in (lambda m: as_matrix(m, "a"), spectral_norm, lambda m: augment_offset(m, 0.5)):
            with pytest.raises(ValueError, match=r"^a is not numeric \(dtype "):
                call([value, value])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_spectral_norm_and_augment_offset_reject_non_finite_entries(self, entry):
        for call in (spectral_norm, lambda m: augment_offset(m, 0.5)):
            with pytest.raises(ValueError, match="^a contains NaN or Inf entries$"):
                call([[1.0, entry]])

    def test_numbers_of_any_real_dtype_are_read(self):
        for value in ([True, False], np.array([1, 2], dtype=np.uint8), [3, -4], [0.5, 2.0]):
            got = as_vector(value, name="v")
            assert got.dtype == np.float64
            assert np.array_equal(got, np.asarray(value, dtype=float))


def _gram(n, seed=3):
    """An n x n PSD matrix with a clear gap after its top 3 eigenvalues."""
    q = haar(np.random.default_rng(seed), n, n)
    return (q * np.concatenate([[9.0, 5.0, 3.0], np.linspace(1.0, 0.1, n - 3)])) @ q.T


# Each public entry point with the numpy.linalg routine it reaches.
LAPACK_CALLS = {
    "thin_svd": ("svd", lambda: thin_svd(np.ones((4, 3)))),
    "qr_svd-qr": ("qr", lambda: qr_svd(np.ones((4, 3)), np.ones(4))),
    "qr_svd-svd": ("svd", lambda: qr_svd(np.ones((4, 3)), np.ones(4))),
    "top_eigenpairs-lanczos": ("eigh", lambda: top_eigenpairs(_gram(30), 3, "gram")),
    "top_eigenpairs-dense": ("eigh", lambda: top_eigenpairs(_gram(4), 3, "gram")),
    "subspace_distance": ("svd", lambda: subspace_distance(np.eye(3)[:, :2], np.eye(3)[:, :2])),
    "spectral_norm": ("svd", lambda: spectral_norm(np.ones((4, 3)))),
    "stable_rank": ("svd", lambda: stable_rank(np.ones((4, 3)))),
}


@pytest.mark.parametrize("call", sorted(LAPACK_CALLS))
def test_every_lapack_failure_is_a_convergence_error(call, monkeypatch):
    routine, run = LAPACK_CALLS[call]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(ConvergenceError, match=f"{routine} did not converge"):
        run()


@pytest.fixture
def blas_threads():
    """The thread count of numpy's OpenBLAS, set to 2 for the test and
    restored after it."""
    blas = linalg._numpy_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread count found in numpy's package")
    get, set_ = blas.get, blas.set
    before = get()
    set_(2)
    if get() != 2:
        set_(before)
        pytest.skip("numpy's OpenBLAS does not take a thread count of 2")
    yield get
    set_(before)


def recorder(monkeypatch, routine, get, fail=False):
    """Replace numpy.linalg's ``routine`` with one that records the BLAS
    thread count it runs on (and then raises LinAlgError if ``fail``)."""
    seen, real = [], getattr(np.linalg, routine)

    def record(*args, **kwargs):
        seen.append(get())
        if fail:
            raise np.linalg.LinAlgError("recorded")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, record)
    return seen


class TestBlasThreads:
    @pytest.mark.parametrize("call, routine", [
        (lambda: thin_svd(np.ones((50, 20))), "svd"),
        (lambda: qr_svd(np.ones((50, 20)), np.ones(50)), "qr"),
        (lambda: top_eigenpairs(_gram(30), 3, "gram"), "eigh"),
        (lambda: top_eigenpairs(_gram(4), 3, "gram"), "eigh"),
    ], ids=["thin_svd", "qr_svd", "top_eigenpairs-lanczos", "top_eigenpairs-dense"])
    def test_each_factorization_runs_on_one_thread_and_restores_the_count(
            self, call, routine, blas_threads, monkeypatch):
        seen = recorder(monkeypatch, routine, blas_threads)
        call()
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_the_count_is_restored_after_a_convergence_error(self, blas_threads, monkeypatch):
        seen = recorder(monkeypatch, "svd", blas_threads, fail=True)
        with pytest.raises(ConvergenceError):
            thin_svd(np.ones((50, 20)))
        assert seen == [1]
        assert blas_threads() == 2

    def test_overlapping_callers_share_one_thread_until_the_last_leaves(
            self, blas_threads, monkeypatch):
        # Both calls are inside the one-thread region at the barrier; the
        # second records its count only after the first has left.
        inside, first_left = threading.Barrier(2, timeout=30), threading.Event()
        seen, real = {}, np.linalg.svd

        def svd(m, **kwargs):
            inside.wait()
            if threading.current_thread().name == "second":
                assert first_left.wait(timeout=30)
            seen[threading.current_thread().name] = blas_threads()
            return real(m, **kwargs)

        def first():
            thin_svd(np.ones((30, 10)))
            first_left.set()

        monkeypatch.setattr(np.linalg, "svd", svd)
        threads = [threading.Thread(target=first, name="first"),
                   threading.Thread(target=thin_svd, args=(np.ones((40, 10)),), name="second")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert seen == {"first": 1, "second": 1}
        assert blas_threads() == 2

    def test_many_callers_at_once_never_see_the_count_restored_early(
            self, blas_threads, monkeypatch):
        # More threads than cores and a short switch interval: a lost update
        # to the shared depth would restore the count under a running call
        # (seen as 2) or leave it at 1 after the last.
        seen = recorder(monkeypatch, "svd", blas_threads)
        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((20, 8)) for _ in range(8)]

        def work(m):
            for _ in range(400):
                thin_svd(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(m,)) for m in mats]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8 * 400 and set(seen) == {1}
        assert blas_threads() == 2


class FakeOpenBlas:
    """A loaded library that exports the thread-count pair, and dsymv and
    dsyrk if ``routines``, under one naming."""

    def __init__(self, prefix, suffix, routines=True):
        setattr(self, f"{prefix}openblas_get_num_threads{suffix}", lambda: 4)
        setattr(self, f"{prefix}openblas_set_num_threads{suffix}", lambda count: None)
        if routines:
            setattr(self, f"{prefix}cblas_dsymv{suffix}", lambda *args: None)
            setattr(self, f"{prefix}cblas_dsyrk{suffix}", lambda *args: None)


@pytest.mark.parametrize("prefix, suffix, routines", [("scipy_", "64_", True), ("", "64_", True),
                                                      ("", "", True), ("", "", False)],
                         ids=["numpy-2", "numpy-1-ilp64", "unsuffixed", "without-dsymv"])
def test_the_binding_finds_each_openblas_naming(prefix, suffix, routines, monkeypatch):
    if linalg._numpy_openblas() is None:
        pytest.skip("no OpenBLAS library found in numpy's package")
    fake = FakeOpenBlas(prefix, suffix, routines)
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: fake)
    linalg._numpy_openblas.cache_clear()
    try:
        blas = linalg._numpy_openblas()
        assert blas is not None and blas.get is getattr(fake, f"{prefix}openblas_get_num_threads{suffix}")
        if not routines:
            assert blas.symv is None and blas.syrk is None
            gram = _gram(30)   # symmetric only up to rounding: its upper triangle is read
            assert np.array_equal(linalg._gram_product(gram)(gram[0]),
                                  linalg.mirror_upper(gram) @ gram[0])
            m = gram[:, :7]
            assert np.array_equal(linalg.upper_gram(m), m.T @ m)
        else:
            assert blas.symv is getattr(fake, f"{prefix}cblas_dsymv{suffix}")
            assert blas.syrk is getattr(fake, f"{prefix}cblas_dsyrk{suffix}")
            integer = ctypes.c_int64 if suffix else ctypes.c_int   # ILP64 or LP64
            assert [blas.symv.argtypes[i] for i in (2, 5, 7, 10)] == [integer] * 4
            assert [blas.syrk.argtypes[i] for i in (3, 4, 7, 10)] == [integer] * 4
    finally:
        linalg._numpy_openblas.cache_clear()


def refusing_blas():
    """An :class:`linalg._OpenBlas` whose dsymv and dsyrk fail the test if
    called."""
    def refuse(*args):
        pytest.fail("a BLAS routine was called")
    return linalg._OpenBlas(Path("fake"), lambda: 1, lambda count: None, refuse, refuse)


def raw_syrk(order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc):
    """cblas_dsyrk's row-major upper A^T A for a k x n A, read and written
    through the raw pointers as OpenBLAS would: a stand-in that shows what
    a foreign call would see."""
    assert (order, uplo, trans, alpha, beta, lda, ldc) == (101, 121, 112, 1.0, 0.0, n, n)

    def view(ptr, rows):
        return np.ctypeslib.as_array(ctypes.cast(ptr, ctypes.POINTER(ctypes.c_double)),
                                     shape=(rows, n))
    a_mat, c_mat = view(a, k), view(c, n)
    c_mat[np.triu_indices(n)] = (a_mat.T @ a_mat)[np.triu_indices(n)]


class TestGramProducts:
    """dsymv reads raw pointers: only a square C-ordered float64 matrix and
    a contiguous vector of its length may reach it."""

    @pytest.mark.parametrize("shape", [(30, 20), (30,), (2, 30, 30)])
    def test_a_non_square_gram_is_refused_before_any_foreign_call(self, shape, monkeypatch):
        monkeypatch.setattr(linalg, "_numpy_openblas", refusing_blas)
        with pytest.raises(ValueError, match="square"):
            top_eigenpairs(np.ones(shape), 3, "gram")
        with pytest.raises(ValueError, match="square"):
            linalg._gram_product(np.ones(shape))

    @pytest.mark.parametrize("shape", [(29,), (31,), (30, 1), (1, 30)])
    def test_a_vector_of_another_length_is_refused_before_any_foreign_call(
            self, shape, monkeypatch):
        monkeypatch.setattr(linalg, "_numpy_openblas", refusing_blas)
        product = linalg._gram_product(_gram(30))
        with pytest.raises(ValueError, match="expected \\(30,\\)"):
            product(np.ones(shape))

    @pytest.mark.parametrize("layout", ["F", "strided", "reversed", "int"])
    def test_any_layout_gives_the_eigenpairs_of_its_c_ordered_float_copy(self, layout):
        gram = _gram(40)
        if layout == "F":
            view = np.asfortranarray(gram)
        elif layout == "strided":
            wide = np.zeros((80, 80))
            wide[::2, ::2] = gram
            view = wide[::2, ::2]
        elif layout == "reversed":
            view = np.ascontiguousarray(gram[::-1, ::-1])[::-1, ::-1]
        else:
            view = np.rint(50 * (gram + gram.T)).astype(np.int64)
        want = top_eigenpairs(np.ascontiguousarray(view, dtype=float), 3, "gram")
        got = top_eigenpairs(view, 3, "gram")
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("route", ["dsymv", "no binding", "dense"])
    def test_every_route_reads_only_the_upper_triangle(self, route, monkeypatch):
        """A random lower triangle changes nothing: each route returns the
        eigenpairs of the mirrored upper triangle, bit for bit, and the
        fallback takes as many products as dsymv."""
        blas = linalg._numpy_openblas()
        if route == "dsymv" and (blas is None or blas.symv is None):
            pytest.skip("no dsymv found in numpy's OpenBLAS")
        if route == "no binding":
            monkeypatch.setattr(linalg, "_numpy_openblas", lambda: None)
        m, k = (6, 5) if route == "dense" else (40, 3)   # the dense route at k + 1 >= m
        upper = _gram(m)
        mirrored = linalg.mirror_upper(upper)
        noisy = np.triu(upper) + np.tril(np.random.default_rng(10).standard_normal((m, m)), -1)
        products, real = [], linalg._gram_product

        def counted(gram):
            product = real(gram)

            def count(q):
                products[-1] += 1
                return product(q)
            return count

        monkeypatch.setattr(linalg, "_gram_product", counted)
        runs = []
        for gram in (noisy, mirrored):
            products.append(0)
            runs.append(top_eigenpairs(gram, k, "gram"))
        (got, got_vecs), (want, want_vecs) = runs
        assert np.array_equal(got, want) and np.array_equal(got_vecs, want_vecs)
        assert products[0] == products[1]
        assert np.abs(got - np.linalg.eigvalsh(mirrored)[::-1][:k]).max() <= 1e-12 * got[0]
        if route == "no binding" and blas is not None and blas.symv is not None:
            monkeypatch.setattr(linalg, "_numpy_openblas", lambda: blas)
            products.append(0)
            top_eigenpairs(noisy, k, "gram")
            assert products[-1] == products[0]

    @pytest.mark.parametrize("layout", ["F", "float32"])
    def test_a_product_keeps_its_copy_of_gram_alive(self, layout, monkeypatch):
        """dsymv reads the copy that ``_square`` makes of an F-ordered or a
        float32 gram through a raw pointer: the product must hold it."""
        blas = linalg._numpy_openblas()
        if blas is None or blas.symv is None:
            pytest.skip("no dsymv found in numpy's OpenBLAS")
        gram = np.random.default_rng(13).standard_normal((200, 200))
        view = np.asfortranarray(gram) if layout == "F" else gram.astype(np.float32)
        copies, square = [], linalg._square

        def recorded(g):
            copy = square(g)
            copies.append(weakref.ref(copy))
            return copy

        monkeypatch.setattr(linalg, "_square", recorded)
        product = linalg._gram_product(view)
        gc.collect()
        assert copies[0]() is not None
        junk = [np.full((200, 200), 1e300) for _ in range(4)]   # would reuse freed memory
        q = np.random.default_rng(14).standard_normal(200)
        want = linalg.mirror_upper(view.astype(float)) @ q
        assert np.abs(product(q) - want).max() <= 1e-12 * np.abs(want).max()
        del junk

    def test_products_read_only_the_upper_triangle(self):
        blas = linalg._numpy_openblas()
        if blas is None or blas.symv is None:
            pytest.skip("no dsymv found in numpy's OpenBLAS")
        gram = np.random.default_rng(8).standard_normal((50, 50))
        upper = np.triu(gram) + np.triu(gram, 1).T
        q = np.random.default_rng(9).standard_normal(50)
        got = linalg._gram_product(gram)(q)
        assert np.abs(got - upper @ q).max() <= 1e-14 * np.abs(upper).sum(axis=1).max()


class TestUpperGram:
    """dsyrk reads raw pointers: only a 2-D C-ordered float64 matrix may
    reach it, and it writes the upper triangle of m^T m alone."""

    @pytest.mark.parametrize("shape", [(50, 12), (12, 50), (0, 5), (5, 0)])
    def test_it_is_the_upper_triangle_of_the_gram_with_zeros_below(self, shape):
        blas = linalg._numpy_openblas()
        if blas is None or blas.syrk is None:
            pytest.skip("no dsyrk found in numpy's OpenBLAS")
        m = np.random.default_rng(11).standard_normal(shape)
        got = linalg.upper_gram(m)
        want = m.T @ m
        assert got.shape == want.shape
        assert not np.tril(got, -1).any()
        scale = max(1.0, np.abs(want).max(initial=0.0))
        assert np.abs(np.triu(got) - np.triu(want)).max(initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("layout", ["F", "strided", "reversed", "int"])
    def test_any_layout_is_copied_to_c_ordered_float_before_the_foreign_call(
            self, layout, monkeypatch):
        m = np.random.default_rng(12).standard_normal((30, 8))
        if layout == "F":
            view = np.asfortranarray(m)
        elif layout == "strided":
            wide = np.zeros((60, 16))
            wide[::2, ::2] = m
            view = wide[::2, ::2]
        elif layout == "reversed":
            view = np.ascontiguousarray(m[::-1, ::-1])[::-1, ::-1]
        else:
            view = np.rint(50 * m).astype(np.int64)
        copy = np.ascontiguousarray(view, dtype=float)
        blas = linalg._numpy_openblas()
        if blas is not None and blas.syrk is not None:
            assert np.array_equal(linalg.upper_gram(view), linalg.upper_gram(copy))
        monkeypatch.setattr(linalg, "_numpy_openblas", lambda: linalg._OpenBlas(
            Path("fake"), lambda: 1, lambda count: None, None, raw_syrk))
        assert np.array_equal(linalg.upper_gram(view), np.triu(copy.T @ copy))

    @pytest.mark.parametrize("shape", [(30,), (2, 30, 4)])
    def test_a_matrix_of_other_rank_is_refused_before_any_foreign_call(self, shape, monkeypatch):
        monkeypatch.setattr(linalg, "_numpy_openblas", refusing_blas)
        with pytest.raises(ValueError, match="2-D"):
            linalg.upper_gram(np.ones(shape))
