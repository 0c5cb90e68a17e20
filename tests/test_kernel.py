"""Kernel PCR against independent oracles: PCR on explicit polynomial
features for the exact mode, a full SVD of the sketched features for
the sketched mode, and a Jacobi SVD for the Lanczos eigensolver."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sketchpcr.errors import ConvergenceError, GapError, RankDeficiencyError
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
from sketchpcr.linalg import EIG_CLAMP, top_eigenpairs
from sketchpcr.sketch import gen_tensorsketch
from oracles import jacobi_svd, poly_features


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
    pred = sketched_kernel_predict(model, a[0])
    assert abs(pred - phi_r[0] @ model.gamma) <= 1e-12 * np.linalg.norm(model.gamma)


def test_each_predictor_rejects_the_other_modes_model():
    rng = np.random.default_rng(65)
    a, b = rng.standard_normal((40, 3)), rng.standard_normal(40)
    exact = fit_exact(a, b, 2, KernelSpec(2))
    sketched = sketched_kernel_pcr(a, b, 2, gen_tensorsketch(2, 3, 16, seed=66))
    with pytest.raises(ValueError, match="kernel_predict needs an exact model"):
        kernel_predict(sketched, a[0])
    with pytest.raises(ValueError, match="sketched_kernel_predict needs a sketched model"):
        sketched_kernel_predict(exact, a[0])


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


def test_two_fits_are_bit_identical():
    phi, b = lanczos_case(SIGMA)

    def fits():
        return [fit_exact(phi, b, 5, LINEAR).alpha,
                features_gamma(phi, b, 5),
                # rank 1: the Krylov space is exhausted and ARPACK restarts
                fit_exact(np.ones((30, 1)), b[:30], 1, LINEAR).alpha]

    assert all(np.array_equal(x, y) for x, y in zip(fits(), fits()))


def test_dense_eigh_only_when_lanczos_cannot_run(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("wrong eigensolver")

    phi, b = lanczos_case(SIGMA)
    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    fit_exact(phi, b, 5, LINEAR)
    features_gamma(phi, b, 5)
    monkeypatch.undo()
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    phi6 = phi[:6, :6]                     # n = 6: k = 5 has k + 1 = n, k = 6 has k = n
    fit_exact(phi6, b[:6], 5, LINEAR)
    alpha = fit_exact(phi6, b[:6], 6, LINEAR).alpha
    assert relative_error(alpha, np.linalg.solve(phi6 @ phi6.T, b[:6])) <= 1e-10


def test_lanczos_non_convergence_is_a_convergence_error(monkeypatch):
    def no_convergence(gram, nev, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.ones(2), np.ones((gram.shape[0], 2)))

    phi, b = lanczos_case(SIGMA)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError, match="kernel matrix: Lanczos converged 2 of the top 6"):
        fit_exact(phi, b, 5, LINEAR)
    with pytest.raises(ConvergenceError, match="Phi R"):
        features_gamma(phi, b, 5)


def test_sketched_rank_floor_is_the_exact_modes():
    """Squaring Phi R costs accuracy of order eps * lambda_1 / lambda_k; the
    rank floor lambda_k > EIG_CLAMP lambda_1 keeps that small."""
    b = np.random.default_rng(65).standard_normal(40)
    k = 3

    def features(ratio):
        r = np.sqrt(ratio)            # sigma_k / sigma_1
        return with_spectrum(np.array([1.0, 0.7, r, r / 10, r / 20, r / 50]), 40, seed=66)

    phi_r = features(1e-8)
    gamma = features_gamma(phi_r, b, k)
    assert relative_error(gamma, svd_gamma(phi_r, b, k)) <= 1e-6
    assert 1e-10 < EIG_CLAMP
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
