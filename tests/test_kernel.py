"""Kernel PCR against independent oracles: PCR on explicit polynomial
features for the exact mode, a full SVD of the sketched features for
the sketched mode, and a Jacobi SVD and numpy's ``eigvalsh`` for the
Lanczos eigensolver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sketchpcr import linalg
from sketchpcr.errors import GapError, RankDeficiencyError
from sketchpcr.kernel import (
    KernelSpec,
    _gram_pcr,
    augment_offset,
    fit_exact,
    kernel_matrix,
    kernel_predict,
    sketched_feature_matrix,
    sketched_kernel_pcr,
    sketched_kernel_predict,
)
from sketchpcr.linalg import GAP_TOL, RANK_FLOOR, top_eigenpairs
from sketchpcr.sketch import gen_tensorsketch, tensorsketch_apply
from sketchpcr.solvers import PcrProblem, exact_pcr, sketched_pcr
from oracles import jacobi_svd, poly_features, run_at_blas_threads, sketched_fit_real_domain


def relative_error(got, want):
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


def svd_gamma(phi_r, b, k):
    """gamma = V_k Sigma_k^-1 U_k^T b from a full SVD of Phi R."""
    u, s, vt = np.linalg.svd(phi_r, full_matrices=False)
    return vt[:k].T @ ((u[:, :k].T @ b) / s[:k])


def with_spectrum(sigma, n, seed):
    """An n x len(sigma) matrix with singular values ``sigma``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((len(sigma), len(sigma))))
    return (u * sigma) @ v.T


def features_gamma(phi, b, k):
    """The sketched fit's rule on prescribed features Phi R = ``phi``."""
    return _gram_pcr(phi.T @ phi, phi.T @ b, k, "Phi R")


# A Gram matrix of explicit features is their degree-1 kernel matrix.
LINEAR = KernelSpec(1)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_exact_predictions_match_pcr_on_explicit_features(degree, offset):
    rng = np.random.default_rng(60 + degree)
    a, z = rng.standard_normal((30, 3)), rng.standard_normal((5, 3))
    b = rng.standard_normal(30)
    k = 2
    model = fit_exact(a, b, k, KernelSpec(degree, offset))
    phi = poly_features(augment_offset(a, offset), degree)
    u, s, v = jacobi_svd(phi)
    x = v[:, :k] @ ((u[:, :k].T @ b) / s[:k])
    want = poly_features(augment_offset(z, offset), degree) @ x
    assert relative_error([kernel_predict(model, zi) for zi in z], want) <= 1e-9
    assert relative_error(kernel_predict(model, z), want) <= 1e-9
    assert relative_error(model.fitted, phi @ x) <= 1e-9


def test_sketched_gamma_matches_full_svd():
    rng = np.random.default_rng(61)
    a, b = rng.standard_normal((200, 4)), rng.standard_normal(200)
    ts = gen_tensorsketch(3, 5, 16, seed=62)
    phi_r = sketched_feature_matrix(a, ts, offset=0.5)
    u, s, _ = np.linalg.svd(phi_r, full_matrices=False)
    assert s[0] / s[-1] < 1e3            # well-conditioned features
    k = 3
    model = sketched_kernel_pcr(a, b, k, ts, 0.5)
    assert relative_error(model.gamma, svd_gamma(phi_r, b, k)) <= 1e-10
    assert relative_error(model.fitted, u[:, :k] @ (u[:, :k].T @ b)) <= 1e-10
    pred = kernel_predict(model, a[0])
    assert abs(pred - phi_r[0] @ model.gamma) <= 1e-12 * np.linalg.norm(model.gamma)


def _fit_or_verdict(fit):
    try:
        return fit()
    except (GapError, RankDeficiencyError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [7, 16, 129, 1024])
@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("k", [3, 7])
def test_the_fourier_basis_fit_is_the_real_domain_fit(degree, width, offset, k):
    """gamma, the fitted values and the verdict of the fit in the Fourier
    basis are those of the real-domain oracle; each prediction, of one point
    or of the batch, is that of Phi R(z) gamma. At degree 1 the 4 features
    (5 with the offset's) give rank 4 or 5, so k = 7 is rank deficient."""
    rng = np.random.default_rng(100 + degree)
    a, b, z = rng.standard_normal((200, 4)), rng.standard_normal(200), rng.standard_normal((5, 4))
    ts = gen_tensorsketch(degree, 4 + (offset != 0.0), width, seed=101)
    got = _fit_or_verdict(lambda: sketched_kernel_pcr(a, b, k, ts, offset))
    want = _fit_or_verdict(lambda: sketched_fit_real_domain(a, b, k, ts, offset))
    if isinstance(want, str):
        assert got == want
        return
    gamma, fitted = want
    assert relative_error(got.gamma, gamma) <= 1e-12
    assert relative_error(got.fitted, fitted) <= 1e-12
    phi_z = tensorsketch_apply(ts, augment_offset(z, offset))
    scale = np.linalg.norm(phi_z, axis=1) * np.linalg.norm(got.gamma)
    single = [kernel_predict(got, zi) for zi in z]
    assert (abs(single - phi_z @ got.gamma) <= 1e-13 * scale).all()
    assert (abs(kernel_predict(got, z) - phi_z @ got.gamma) <= 1e-13 * scale).all()


def test_the_fourier_basis_fit_sees_a_tie_at_k():
    # Degree 1 at t = 1024: the 5 features land in distinct buckets, so Phi R
    # is A with its columns moved and signed, and keeps sigma_2 = sigma_3.
    a = with_spectrum(np.array([3.0, 2.0, 2.0, 1.0, 0.5]), 200, seed=102)
    b = np.random.default_rng(103).standard_normal(200)
    ts = gen_tensorsketch(1, 5, 1024, seed=104)
    assert len(set(ts.row_tables[0])) == 5
    for fit in (sketched_kernel_pcr, sketched_fit_real_domain):
        with pytest.raises(GapError):
            fit(a, b, 2, ts, 0.0)


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_exact_fitted_is_the_kernel_matrix_times_alpha(n, degree, offset):
    # At n = 300 the upper triangle takes panels of 109, 171 and 20 rows.
    rng = np.random.default_rng(105)
    a, b = rng.standard_normal((n, 3)), rng.standard_normal(n)
    model = fit_exact(a, b, 1, KernelSpec(degree, offset))
    want = kernel_matrix(a, KernelSpec(degree, offset)) @ model.alpha
    assert relative_error(model.fitted, want) <= 1e-12


def test_an_overflow_in_the_last_panel_alone_is_caught():
    # The last row is orthogonal to the others: only K's last diagonal
    # entry, (1e80^2)^2, overflows, and only the last panel holds it.
    a = np.zeros((300, 4))
    a[:-1, :3] = np.random.default_rng(106).standard_normal((299, 3))
    a[-1, 3] = 1e80
    spec = KernelSpec(2)
    k_mat = kernel_matrix(a, spec)
    assert np.isinf(k_mat[-1, -1]) and np.isfinite(k_mat[:-1]).all()
    with pytest.raises(ValueError, match="kernel matrix: the Gram matrix overflowed float64"):
        fit_exact(a, np.ones(300), 2, spec)


def fitted_models(offset):
    """An exact and a sketched degree-2 model of 4-feature data, by mode."""
    rng = np.random.default_rng(90)
    a, b = rng.standard_normal((40, 4)), rng.standard_normal(40)
    ts = gen_tensorsketch(2, 4 if offset == 0.0 else 5, 16, seed=91)
    return {"exact": fit_exact(a, b, 2, KernelSpec(2, offset)),
            "sketched": sketched_kernel_pcr(a, b, 2, ts, offset)}


MODES = ["exact", "sketched"]


def test_each_name_predicts_either_model():
    assert sketched_kernel_predict is kernel_predict
    z = np.random.default_rng(92).standard_normal(4)
    for model in fitted_models(0.5).values():
        assert sketched_kernel_predict(model, z) == kernel_predict(model, z)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_a_batch_is_its_rows_single_predictions(mode, offset):
    model = fitted_models(offset)[mode]
    z = np.random.default_rng(93).standard_normal((50, 4))
    batch = kernel_predict(model, z)
    assert batch.shape == (50,)
    assert relative_error(batch, [kernel_predict(model, zi) for zi in z]) <= 1e-15
    assert kernel_predict(model, np.empty((0, 4))).shape == (0,)


@pytest.mark.parametrize("mode", MODES)
def test_a_0d_point_is_one_point_of_one_feature(mode):
    rng = np.random.default_rng(94)
    a, b = rng.standard_normal((30, 1)), rng.standard_normal(30)
    if mode == "exact":
        model = fit_exact(a, b, 1, KernelSpec(2))
    else:
        model = sketched_kernel_pcr(a, b, 1, gen_tensorsketch(2, 1, 8, seed=95))
    got = kernel_predict(model, np.float64(0.7))
    assert isinstance(got, float) and got == kernel_predict(model, [0.7])


@pytest.mark.parametrize("degree", [0, 3.0, 2.5, 2.0, np.float64(3)])
def test_a_kernel_degree_that_is_not_a_positive_integer_is_rejected(degree):
    # 2.0 too, though the exact fit's power, which stops at degree 1, would take it
    with pytest.raises(ValueError, match="kernel degree must be an integer of at least 1"):
        KernelSpec(degree)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("z, message", [
    (["1", "2", "3", "4"], "z is not numeric"),
    # a batch of two rows of 2 features each
    (np.ones((2, 2)), r"z has 2 features, expected 4 \(the offset's feature not counted\)"),
    (np.ones((2, 2, 4)), r"z must be one point or an \(m, d\) batch, got shape \(2, 2, 4\)"),
    (np.ones(3), r"z has 3 features, expected 4 \(the offset's feature not counted\)"),
    ([1.0, np.nan, 0.0, 0.0], "z contains NaN or Inf entries"),
], ids=["strings", "2x2", "3d", "short", "nan"])
def test_both_predictors_reject_a_bad_point_alike(mode, offset, z, message):
    with pytest.raises(ValueError, match=message):
        kernel_predict(fitted_models(offset)[mode], z)


@pytest.mark.parametrize("mode, what", [("exact", "kernel matrix"), ("sketched", "Phi R")])
def test_a_prediction_that_overflows_is_the_fits_overflow_error(mode, what):
    # (1e200 x_i^T z)^2 overflows float64 on finite data; a warning is an error
    # here, so the predictor may not warn before it raises, for one point or
    # for a batch with one such row.
    model = fitted_models(0.5)[mode]
    batch = np.ones((3, 4))
    batch[1] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (batch[1], batch):
            with pytest.raises(ValueError, match=f"{what}: the Gram matrix overflowed float64"):
                kernel_predict(model, z)


# Singular values of the sketched features; k = 2 throughout. The exact
# mode sees their squares as the eigenvalues of K.
DEGENERATE = [
    ([2.0, 1.0, 1.0, 0.5, 0.1], GapError),                 # lambda_2 = lambda_3
    ([1.0, 1e-6, 1e-7, 0.0, 0.0], RankDeficiencyError),    # lambda_2 / lambda_1 = 1e-12
    ([0.0] * 5, RankDeficiencyError),                     # no positive eigenvalue
]


@pytest.mark.parametrize("sigma, error", DEGENERATE)
def test_exact_mode_rejects_degenerate_spectra(sigma, error):
    rng = np.random.default_rng(63)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    lam = np.zeros(8)
    lam[:5] = np.square(sigma)
    with pytest.raises(error):
        fit_exact(q * np.sqrt(lam), np.ones(8), 2, LINEAR)   # K = q diag(lam) q^T


@pytest.mark.parametrize("sigma, error", DEGENERATE)
def test_sketched_mode_rejects_degenerate_spectra(sigma, error):
    phi_r = with_spectrum(np.array(sigma), 20, seed=64)
    with pytest.raises(error):
        features_gamma(phi_r, np.ones(20), 2)


def _verdict(fit):
    try:
        fit()
    except (GapError, RankDeficiencyError) as exc:
        return type(exc).__name__
    return "ok"


# sigma_5 / sigma_1 of a 400 x 30 A at k = 5, with sigma_6 = sigma_5 / 10, and
# the verdict every route must give: rank 5 needs sigma_5 > RANK_FLOOR sigma_1
# (3.16e-5). A tie sigma_5 = sigma_6 has no gap.
VERDICTS = [(1e-3, "ok"), (1e-4, "ok"), (5e-5, "ok"), (2e-5, "RankDeficiencyError"),
            (1e-5, "RankDeficiencyError"), (1e-6, "RankDeficiencyError"),
            (1e-8, "RankDeficiencyError"), ("tie", "GapError")]


@pytest.mark.parametrize("ratio, verdict", VERDICTS)
def test_svd_and_gram_routes_give_one_verdict(ratio, verdict):
    """Degree-1 kernel PCR is PCR: the SVD of A (``exact_pcr``, and A R at
    R = I) and the eigenvalues of A A^T (``fit_exact``) and of A^T A (the
    sketched fit's Gram rule) give the same verdict at k."""
    k = 5
    head = [1.0, 0.8, 0.6, 0.4] + ([0.3, 0.3] if ratio == "tie" else [ratio, ratio / 10])
    sigma = np.concatenate([head, head[-1] * np.geomspace(0.5, 0.01, 24)])
    a = with_spectrum(sigma, 400, seed=74)
    b = np.random.default_rng(75).standard_normal(400)
    p = PcrProblem(a=a, b=b, k=k)
    got = {route: _verdict(fit) for route, fit in [
        ("exact_pcr", lambda: exact_pcr(p)),
        ("sketched_pcr, R = I", lambda: sketched_pcr(p, np.eye(30))),
        ("fit_exact", lambda: fit_exact(a, b, k, LINEAR)),
        ("sketched Gram rule", lambda: features_gamma(a, b, k)),
    ]}
    assert got == dict.fromkeys(got, verdict)


def lanczos_case(sigma, seed=68):
    """Features Phi (300 x 40) with singular values ``sigma``, and a response.
    The exact mode factors K = Phi Phi^T (300 x 300), the sketched mode
    Phi^T Phi (40 x 40); at k = 5 both take the Lanczos path."""
    phi = np.ascontiguousarray(with_spectrum(np.asarray(sigma), 300, seed))
    return phi, np.random.default_rng(seed + 1).standard_normal(300)


SIGMA = np.geomspace(3.0, 0.1, 40)


def test_lanczos_matches_the_dense_and_jacobi_oracles():
    phi, b = lanczos_case(SIGMA)
    k = 5
    u, s, v = jacobi_svd(phi)
    for gram in (phi @ phi.T, phi.T @ phi):
        evals, _ = top_eigenpairs(gram, k, "gram")
        assert relative_error(evals, s[:k] ** 2) <= 1e-12
        assert relative_error(evals, np.linalg.eigvalsh(gram)[::-1][:k]) <= 1e-12
    alpha = fit_exact(phi, b, k, LINEAR).alpha
    assert relative_error(alpha, u[:, :k] @ ((u[:, :k].T @ b) / s[:k] ** 2)) <= 1e-12
    gamma = features_gamma(phi, b, k)
    assert relative_error(gamma, v[:, :k] @ ((u[:, :k].T @ b) / s[:k])) <= 1e-12


def test_lanczos_sees_an_eigenvalue_repeated_at_k_and_k_plus_1():
    sigma = SIGMA.copy()
    sigma[5] = sigma[4]                    # lambda_5 = lambda_6
    phi, b = lanczos_case(sigma)
    with pytest.raises(GapError):
        fit_exact(phi, b, 5, LINEAR)
    with pytest.raises(GapError):
        features_gamma(phi, b, 5)


def repeated_top(mult, seed=70):
    """Features Phi (400 x 60) whose top singular value, 1, is repeated
    ``mult`` times above distinct ones: K = Phi Phi^T and Phi^T Phi then
    have a top eigenvalue of multiplicity ``mult``."""
    sigma = np.concatenate([np.ones(mult), np.geomspace(0.8, 0.05, 60 - mult)])
    return np.ascontiguousarray(with_spectrum(sigma, 400, seed))


@pytest.mark.parametrize("k", [6, 10])
@pytest.mark.parametrize("share", ["2", "k/2", "k"])
def test_lanczos_finds_every_copy_of_a_repeated_top_eigenvalue(k, share):
    phi = repeated_top({"2": 2, "k/2": k // 2, "k": k}[share])
    for gram in (phi @ phi.T, phi.T @ phi):
        want = np.linalg.eigvalsh(gram)[::-1][:k + 1]
        got, _ = top_eigenpairs(gram, k + 1, "gram")   # the top k+1 of the fits' k
        assert np.abs(got - want).max() <= 1e-12 * want[0]
    b = np.random.default_rng(71).standard_normal(400)
    u, s, v = jacobi_svd(phi)
    alpha = fit_exact(phi, b, k, LINEAR).alpha
    assert relative_error(alpha, u[:, :k] @ ((u[:, :k].T @ b) / s[:k] ** 2)) <= 1e-10
    gamma = features_gamma(phi, b, k)
    assert relative_error(gamma, v[:, :k] @ ((u[:, :k].T @ b) / s[:k])) <= 1e-10


@pytest.mark.parametrize("k", [6, 10])
def test_a_top_eigenvalue_repeated_past_k_is_a_gap_error(k):
    phi = repeated_top(k + 1)              # lambda_1 = ... = lambda_k = lambda_{k+1}
    b = np.random.default_rng(72).standard_normal(400)
    with pytest.raises(GapError):
        fit_exact(phi, b, k, LINEAR)
    with pytest.raises(GapError):
        features_gamma(phi, b, k)


def test_a_top_eigenvalue_repeated_far_past_k_is_a_gap_error():
    # lambda_1 = ... = lambda_40 = 2 at k = 20: Lanczos locks the copies one
    # restart chain at a time, and after m = 300 products hands the matrix
    # to the dense route, whose verdict is a GapError.
    lam = np.concatenate([np.full(40, 2.0), np.geomspace(1.0, 1e-4, 260)])
    with pytest.raises(GapError):
        top_eigenpairs(planted_gram(lam, seed=5), 20, "gram")


def test_a_tie_at_k_shared_by_most_eigenvalues_is_a_gap_error():
    # lambda_3 = lambda_4 = ... = 1 has 298 copies: a restart chain need not
    # lock them one by one.
    q, _ = np.linalg.qr(np.random.default_rng(73).standard_normal((300, 300)))
    lam = np.concatenate([[3.0, 2.0], np.ones(298)])
    with pytest.raises(GapError):
        top_eigenpairs((q * lam) @ q.T, 3, "gram")


def test_two_fits_are_bit_identical():
    phi, b = lanczos_case(SIGMA)

    def fits():
        return [fit_exact(phi, b, 5, LINEAR).alpha,
                features_gamma(phi, b, 5),
                # rank 1: the Krylov space runs out and Lanczos restarts
                fit_exact(np.ones((30, 1)), b[:30], 1, LINEAR).alpha]

    assert all(np.array_equal(x, y) for x, y in zip(fits(), fits()))


def test_dense_eigh_only_when_lanczos_cannot_run(monkeypatch):
    lanczos, ran = linalg._lanczos, []

    def record(product, m, k):
        ran.append(m)
        return lanczos(product, m, k)

    def fail(*args, **kwargs):
        pytest.fail("Lanczos ran where k + 1 >= n")

    phi, b = lanczos_case(SIGMA)
    monkeypatch.setattr(linalg, "_lanczos", record)
    fit_exact(phi, b, 5, LINEAR)
    features_gamma(phi, b, 5)
    assert ran == [300, 40]
    monkeypatch.setattr(linalg, "_lanczos", fail)
    phi6 = phi[:6, :6]                     # n = 6: k = 5 has k + 1 = n, k = 6 has k = n
    fit_exact(phi6, b[:6], 5, LINEAR)
    alpha = fit_exact(phi6, b[:6], 6, LINEAR).alpha
    assert relative_error(alpha, np.linalg.solve(phi6 @ phi6.T, b[:6])) <= 1e-10


class CountedProducts:
    """Counts the products G q that ``_lanczos`` takes, all that it reads of
    G, through the product function of ``linalg._gram_product``."""

    def __init__(self, monkeypatch):
        self.products, real = 0, linalg._gram_product

        def counted(gram):
            product = real(gram)

            def count(q):
                self.products += 1
                return product(q)
            return count

        monkeypatch.setattr(linalg, "_gram_product", counted)


def planted_gram(lam, seed=76):
    """A symmetric matrix with eigenvalues ``lam`` and random eigenvectors."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lam), len(lam))))
    return (q * lam) @ q.T


def tight_pair(k):
    """300 eigenvalues with a clear gap at k, then lambda_{k+1} = 0.025 only
    2% above lambda_{k+2}: the (k+1)-th pair converges slowly."""
    return np.concatenate([np.geomspace(1.0, 0.1, k), [0.025, 0.0245],
                           np.geomspace(0.02, 1e-4, 300 - k - 2)])


@pytest.mark.parametrize("k", [5, 10])
def test_lanczos_bounds_a_slow_k_plus_1st_pair_without_converging_it(k, monkeypatch):
    # Converged to 1e-12, the (k+1)-th pair takes 52 (k = 5) and 54 (k = 10)
    # products; a restart rules on the gap from its Ritz value in 32 and 34.
    lam, counted = tight_pair(k), CountedProducts(monkeypatch)
    gram = planted_gram(lam)
    evals, evecs = top_eigenpairs(gram, k, "gram")
    assert counted.products <= 36
    assert np.abs(evals - np.linalg.eigvalsh(gram)[::-1][:k]).max() <= 1e-12 * lam[0]
    assert np.abs(evecs.T @ evecs - np.eye(k)).max() <= 1e-12


@pytest.mark.parametrize("k", [5, 10])
def test_a_tie_at_k_behind_a_slow_pair_is_still_a_gap_error(k):
    lam = tight_pair(k)
    lam[k] = lam[k - 1]                    # lambda_{k+1} = lambda_k
    with pytest.raises(GapError):
        top_eigenpairs(planted_gram(lam), k, "gram")


@pytest.mark.parametrize("mode", ["K", "Phi^T Phi"])
def test_lanczos_takes_no_more_products_where_every_pair_converges_fast(mode, monkeypatch):
    phi, _ = lanczos_case(SIGMA)
    counted = CountedProducts(monkeypatch)
    top_eigenpairs(phi @ phi.T if mode == "K" else phi.T @ phi, 5, "gram")
    assert counted.products <= 44


def pinned_case(name):
    """The Gram matrix and k of each case whose products the tests above bound."""
    if name.startswith("tight"):
        k = int(name[len("tight"):])
        return planted_gram(tight_pair(k)), k
    phi, _ = lanczos_case(SIGMA)
    return (phi @ phi.T if name == "K" else phi.T @ phi), 5


@pytest.mark.parametrize("case", ["tight5", "tight10", "K", "Phi^T Phi"])
def test_lanczos_takes_as_many_products_without_the_dsymv_binding(case, monkeypatch):
    blas = linalg._numpy_openblas()
    if blas is None or blas.symv is None:
        pytest.skip("no dsymv found in numpy's OpenBLAS")
    gram, k = pinned_case(case)
    runs = []
    for binding in (blas, None):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_numpy_openblas", lambda: binding)
            counted = CountedProducts(patch)
            evals, evecs = top_eigenpairs(gram, k, "gram")
            runs.append((counted.products, evals, evecs))
    (with_products, with_evals, with_evecs), (without_products, without_evals, without_evecs) = runs
    assert with_products == without_products
    lam1 = with_evals[0]
    assert np.abs(with_evals - without_evals).max() <= 1e-13 * lam1
    signs = np.sign(np.sum(with_evecs * without_evecs, axis=0))
    residual = gram @ (with_evecs - without_evecs * signs)
    assert np.abs(residual).max() <= 1e-13 * lam1


def tight_cluster():
    """300 eigenvalues: 3, 2, 1, then 20 within 1e-3 to 1e-6 of each other
    just under 1, then a tail from 0.5 to 1e-3."""
    cluster = 1.0 - np.cumsum(np.geomspace(1e-3, 1e-6, 20))
    return np.concatenate([[3.0, 2.0, 1.0], cluster, np.geomspace(0.5, 1e-3, 277)])


@pytest.mark.parametrize("k", [3, 10])
def test_lanczos_resolves_a_tight_cluster_below_the_top(k):
    # 20 eigenvalues 1e-3 to 1e-6 apart just under lambda_3 = 1: at k = 3 the
    # cluster starts at lambda_{k+1}, at k = 10 it holds lambda_k.
    lam = tight_cluster()
    evals, _ = top_eigenpairs(planted_gram(lam, seed=77), k, "gram")
    assert np.abs(evals - lam[:k]).max() <= 1e-12 * lam[0]


def test_lanczos_stalled_at_m_products_hands_over_to_the_dense_eigh(monkeypatch):
    # Confirming the tight cluster's top 4 pairs would take Lanczos more
    # than m = 300 products, which cost more than the dense tridiagonal
    # reduction: the dense eigh answers instead.
    gram = planted_gram(tight_cluster(), seed=77)
    counted = CountedProducts(monkeypatch)
    evals, evecs = top_eigenpairs(gram, 3, "gram")
    assert counted.products == 300
    dense_evals, dense_evecs = linalg._lapack(np.linalg.eigh, gram, UPLO="U")
    assert np.array_equal(evals, dense_evals[::-1][:3])
    assert np.array_equal(evecs, dense_evecs[:, ::-1][:, :3])
    assert linalg._lanczos(linalg._gram_product(gram), 300, 3) is None


def generated_spectrum(kind, rng):
    """(eigenvalues, k) of one seeded spectrum of ``kind`` on m = 30-400
    eigenvalues, k = 1-24."""
    m, k = int(rng.integers(30, 401)), int(rng.integers(1, 25))
    if kind == "geometric":
        lam = np.geomspace(1.0, 10.0 ** -rng.uniform(1.0, 8.0), m)
    elif kind == "power-law":
        lam = np.arange(1.0, m + 1) ** -rng.uniform(0.5, 3.0)
    elif kind == "cluster":        # values 1e-3 to 1e-4..1e-6 apart under lambda_{k+1} = 1
        c = int(rng.integers(2, min(30, m - k - 1)))
        cluster = 1.0 - np.cumsum(np.geomspace(1e-3, 10.0 ** -rng.uniform(4.0, 6.0), c))
        lam = np.concatenate([np.geomspace(3.0, 1.5, k), [1.0], cluster,
                              np.geomspace(0.5, 1e-4, m - k - 1 - c)])
    elif kind == "repeated-top":   # lambda_1 repeated up to 3(k+1) times
        r = int(rng.integers(1, min(3 * (k + 1), m) + 1))
        lam = np.concatenate([np.full(r, 2.0), np.geomspace(1.0, 1e-4, m - r)])
    elif kind == "near-gap-tol":
        lam = np.geomspace(1.0, 1e-4, m)
        lam[k] = lam[k - 1] - rng.choice([0.0, 0.75, 5.0, 50.0]) * GAP_TOL
    else:                          # rank r up to 2k+1, lambda_k near the floor in half
        r = int(rng.integers(1, min(2 * k + 1, m) + 1))
        lam = np.zeros(m)
        lam[:r] = np.geomspace(1.0, 1e-4, r)
        if r >= k and rng.random() < 0.5:
            near = rng.choice([0.5, 0.99, 0.9999, 1.0001, 1.01, 2.0])
            lam[k - 1:r] = RANK_FLOOR ** 2 * near * np.geomspace(1.0, 0.1, r - k + 1)
    return lam, k


def ruled(lam, k):
    """The top k of the nonincreasing eigenvalues ``lam``, once
    require_gap has accepted their rank-k cut."""
    linalg.require_gap(np.sqrt(np.maximum(lam, 0.0)), k, "gram")
    return lam[:k]


def outcome(run):
    """("ok", the eigenvalues ``run`` returns) or (its error's name, None)."""
    try:
        return "ok", run()
    except (GapError, RankDeficiencyError) as exc:
        return type(exc).__name__, None


# Where the two routes may differ: a gap (lambda_k - lambda_{k+1}) / lambda_1,
# or a lambda_k / lambda_1, within VERDICT_BAND of GAP_TOL or of RANK_FLOOR^2.
# There either verdict of that threshold stands; outside, both must agree.
VERDICT_BAND = GAP_TOL / 2


@pytest.mark.parametrize("kind", ["geometric", "power-law", "cluster", "repeated-top",
                                  "near-gap-tol", "low-rank"])
def test_top_eigenpairs_gives_the_dense_verdict_on_generated_spectra(kind):
    """Against numpy's dense eigh of the upper triangle, ruled on by
    require_gap."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(30):
        lam, k = generated_spectrum(kind, rng)
        gram = planted_gram(lam, seed=int(rng.integers(2 ** 32)))
        dense = np.linalg.eigh(gram, UPLO="U")[0][::-1][:k + 1]
        want, want_lam = outcome(lambda: ruled(dense, k))
        got, got_lam = outcome(lambda: top_eigenpairs(gram, k, "gram")[0])
        if got == want == "ok":
            assert np.abs(got_lam - want_lam).max() <= 1e-12 * dense[0]
        accepted = {want}
        if abs((dense[k - 1] - dense[k]) / dense[0] - GAP_TOL) <= VERDICT_BAND:
            accepted |= {"ok", "GapError"}
        if abs(dense[k - 1] / dense[0] - RANK_FLOOR ** 2) <= VERDICT_BAND:
            accepted |= {"ok", "RankDeficiencyError"}
        assert got in accepted, (len(lam), k)


KERNEL_SCRIPT = """
import json, sys
import numpy as np
from sketchpcr.kernel import KernelSpec, fit_exact, sketched_kernel_pcr
from sketchpcr.sketch import gen_tensorsketch
rng = np.random.default_rng(80)
a, b = rng.standard_normal((600, 12)), rng.standard_normal(600)
fits = {}
for offset in (0.0, 0.5):
    fits[f"exact-{offset}"] = fit_exact(a, b, 10, KernelSpec(3, offset)).alpha.tolist()
    ts = gen_tensorsketch(3, 12 if offset == 0.0 else 13, 256, seed=81)
    fits[f"sketched-{offset}"] = sketched_kernel_pcr(a, b, 10, ts, offset).gamma.tolist()
json.dump(fits, sys.stdout)
"""


@pytest.fixture(scope="module")
def kernel_fits_at_1_and_2_threads():
    return [run_at_blas_threads(KERNEL_SCRIPT, threads) for threads in ("1", "2")]


@pytest.mark.parametrize("fit", ["exact-0.0", "exact-0.5", "sketched-0.0", "sketched-0.5"])
def test_kernel_fits_do_not_depend_on_the_blas_thread_count(fit, kernel_fits_at_1_and_2_threads):
    c1, c2 = (np.array(fits[fit]) for fits in kernel_fits_at_1_and_2_threads)
    assert relative_error(c2, c1) <= 1e-12


def test_sketched_rank_floor_is_the_exact_modes():
    """Squaring Phi R costs accuracy of order eps * lambda_1 / lambda_k; the
    rank floor lambda_k > RANK_FLOOR^2 lambda_1 keeps that small."""
    b = np.random.default_rng(65).standard_normal(40)
    k = 3

    def features(ratio):
        r = np.sqrt(ratio)            # sigma_k / sigma_1
        return with_spectrum(np.array([1.0, 0.7, r, r / 10, r / 20, r / 50]), 40, seed=66)

    phi_r = features(1e-8)
    gamma = features_gamma(phi_r, b, k)
    assert relative_error(gamma, svd_gamma(phi_r, b, k)) <= 1e-6
    assert 1e-10 < RANK_FLOOR ** 2
    with pytest.raises(RankDeficiencyError):
        features_gamma(features(1e-10), b, k)


def _layout(x, order):
    if order == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return np.asarray(x, order=order)


def test_kernel_matrix_is_symmetric_on_a_large_strided_view():
    # numpy multiplies a strided view of this size by its transpose without
    # syrk, and that product is not exactly symmetric.
    x = _layout(np.random.default_rng(67).standard_normal((300, 4)), "strided")
    k_mat = kernel_matrix(x, KernelSpec(3, 0.5))
    assert np.array_equal(k_mat, k_mat.T)


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_an_empty_input_has_an_empty_kernel_matrix_and_sketch(offset):
    x = np.empty((0, 4))
    assert kernel_matrix(x, KernelSpec(3, offset)).shape == (0, 0)
    ts = gen_tensorsketch(3, 4 + (offset != 0.0), 16, seed=1)
    assert sketched_feature_matrix(x, ts, offset).shape == (0, 16)


rounded = st.floats(min_value=-2.0, max_value=2.0).map(lambda v: round(v, 6))


@settings(max_examples=80, deadline=None)
@given(x=hnp.arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 4)), elements=rounded),
       order=st.sampled_from(["C", "F", "strided"]),
       degree=st.integers(1, 4),
       offset=st.floats(min_value=0.0, max_value=2.0).map(lambda v: round(v, 6)))
def test_kernel_matrix_is_symmetric_and_equals_feature_gram(x, order, degree, offset):
    x = _layout(x, order)
    k_mat = kernel_matrix(x, KernelSpec(degree, offset))
    assert np.array_equal(k_mat, k_mat.T)
    phi = poly_features(augment_offset(x, offset), degree)
    want = phi @ phi.T
    assert np.linalg.norm(k_mat - want) <= 1e-12 * np.linalg.norm(want)
