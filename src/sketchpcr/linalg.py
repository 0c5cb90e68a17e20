"""Dense linear algebra, the one module that factors a matrix or rules on
its spectrum: the thin SVD record, the R-SVD least-squares rule for
compressed matrices (:func:`qr_svd`, then :func:`truncated_solve`), the
top-k eigenpairs of a symmetric PSD matrix, the rank floors
(:func:`numerical_rank`, ``EIG_CLAMP``) and the gap rule (``GAP_TOL``),
subspace distances and spectral diagnostics.

A thin SVD is one record, :class:`Svd`: every singular value, and all
columns of U and V or their leading ones. It stores no split index;
each reader slices at its own k.

The eigensolver is implicitly restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``): O(m^2 k) on an m x m matrix against the
O(m^3) of a dense tridiagonal reduction, converged to machine precision
from a fixed seeded start vector, so a result is bit-reproducible.
ARPACK needs k+1 < m; only k >= m - 1 takes the dense ``eigh``.

Everything here is deterministic. Matrices are plain 2-D float64
``numpy.ndarray`` objects; bases are matrices with orthonormal columns.
The spectral diagnostics take what their callers already hold:
:func:`stable_rank` a matrix, :func:`relative_gap` the singular values
of a factored one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConvergenceError, GapError, RankDeficiencyError

ORTHO_TOL = 1e-10
GAP_TOL = 1e-12
EIG_CLAMP = 1e-9   # relative floor below which eigenvalues count as zero


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(v, length=None, name="vector"):
    x = np.asarray(v, dtype=float).ravel()
    if length is not None and x.shape[0] != length:
        raise ValueError(f"{name} has length {x.shape[0]}, expected {length}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return x


def numerical_rank(sigma, shape):
    """Count of the nonincreasing singular values ``sigma`` of a matrix of
    ``shape`` above sigma_max * max(shape) * machine epsilon."""
    return int(np.sum(sigma > sigma[:1] * (max(shape) * np.finfo(float).eps)))


def check_orthonormal(q, name="basis"):
    """Require Q^T Q = I within ``ORTHO_TOL`` in Frobenius norm."""
    q = as_matrix(q, name)
    gram = q.T @ q
    err = np.linalg.norm(gram - np.eye(q.shape[1]))
    if err > ORTHO_TOL:
        raise ValueError(f"{name} columns are not orthonormal (|Q^T Q - I|_F = {err:.3e})")
    return q


def spectral_norm(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class Svd:
    """A thin SVD m = u diag(sigma) v^T, or its leading columns.

    ``sigma`` holds every singular value, nonincreasing; ``u`` and ``v``
    hold all of the thin factors' columns or only their leading ones
    (:meth:`lead`). Readers slice at their own k: U_k is ``u[:, :k]``,
    sigma_{k+1} is ``sigma[k]``. Column signs are fixed so that the
    largest-magnitude entry of each left singular vector is positive.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def lead(self, k):
        """This SVD with copies of the first k columns of U and V only:
        contiguous blocks that do not keep the full factors alive."""
        return Svd(u=self.u[:, :k].copy(), sigma=self.sigma, v=self.v[:, :k].copy())


def _fix_signs(u, vt):
    # Largest-magnitude entry of each left singular vector made positive;
    # right vectors flipped along to keep the product unchanged.
    idx = np.argmax(np.abs(u), axis=0)
    flip = np.sign(u[idx, np.arange(u.shape[1])])
    flip[flip == 0] = 1.0
    return u * flip, vt * flip[:, None]


def thin_svd(m):
    """The thin SVD of ``m`` as an :class:`Svd`."""
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge: {exc}") from exc
    u, vt = _fix_signs(u, vt)
    return Svd(u=u, sigma=s, v=vt.T)


def qr_svd(m, b):
    """(sigma, V, U^T b) of the thin SVD m = U diag(sigma) V^T, U unformed.

    The leading p = min(m.shape) rows of the R-factor of [m | b] are
    Q_1^T m and Q_1^T b; their SVD U' diag(sigma) V^T gives U = Q_1 U'
    (the R-SVD of Chan, ACM TOMS 1982), so U^T b = U'^T Q_1^T b.
    """
    m = as_matrix(m)
    b = as_vector(b, length=m.shape[0], name="b")
    r_fac = np.linalg.qr(np.column_stack([m, b]), mode="r")[:min(m.shape)]
    try:
        u, sigma, vt = np.linalg.svd(r_fac[:, :-1], full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge: {exc}") from exc
    return sigma, vt.T, u.T @ r_fac[:, -1]


def truncated_solve(v, sigma, c, j):
    """V_j Sigma_j^-1 c_j from the SVD (sigma, v) of M and c = U^T b: the
    least-squares solution of M x = b over the top j right singular vectors."""
    return v[:, :j] @ (c[:j] / sigma[:j])


def subspace_distance(u, w):
    """sin of the largest principal angle between two equal-rank subspaces.

    Computed as sqrt(1 - sigma_min(U^T W)^2), which equals the spectral
    norm of the difference of the two orthogonal projectors.
    """
    u = check_orthonormal(u, "u")
    w = check_orthonormal(w, "w")
    if u.shape[0] != w.shape[0]:
        raise ValueError("bases live in different ambient dimensions")
    if u.shape[1] != w.shape[1]:
        raise ValueError(
            f"column counts differ ({u.shape[1]} vs {w.shape[1]}); "
            "the distance is defined for equal-dimension subspaces only"
        )
    sigma = np.linalg.svd(u.T @ w, compute_uv=False)
    smin = min(1.0, sigma[-1] if sigma.size else 0.0)
    return float(np.sqrt(max(0.0, 1.0 - smin * smin)))


def stable_rank(m):
    """Frobenius-norm-squared over spectral-norm-squared of ``m``."""
    m = as_matrix(m)
    s2 = spectral_norm(m) ** 2
    if s2 == 0.0:
        raise ValueError("stable rank is undefined for the zero matrix")
    return float(np.linalg.norm(m, "fro") ** 2 / s2)


def relative_gap(s, k):
    """(sigma_k^2 - sigma_{k+1}^2) / sigma_1^2 from the nonincreasing
    singular values ``s``, 1 <= k <= len(s); sigma_{k+1} is 0 at k = len(s)."""
    s = np.asarray(s, dtype=float)
    if not 1 <= k <= len(s):
        raise ValueError(f"gap index k={k} out of range [1, {len(s)}]")
    if s[0] == 0.0:
        raise ValueError("relative gap is undefined for the zero matrix")
    sk1 = s[k] if k < len(s) else 0.0
    return float((s[k - 1] ** 2 - sk1 ** 2) / s[0] ** 2)


def require_gap(sigma, k, shape, what):
    """Reject a matrix of ``shape`` and singular values ``sigma`` without
    numerical rank k (:func:`numerical_rank`) or a gap at k."""
    if sigma[0] == 0.0:
        raise RankDeficiencyError(f"{what} is zero")
    if numerical_rank(sigma, shape) < k:
        raise RankDeficiencyError(f"{what} has rank below k={k}")
    if relative_gap(sigma, k) < GAP_TOL:
        raise GapError(f"{what} has a vanishing eigengap at k={k}")


def top_eigenpairs(gram, k, what):
    """The k largest eigenpairs of a symmetric PSD matrix, largest first.

    Only the top k+1 are computed, by Lanczos or, at k >= n - 1, by the
    dense ``eigh``: the k kept ones and the one that sets the gap. Raises
    RankDeficiencyError unless lambda_k > EIG_CLAMP lambda_1, GapError unless
    (lambda_k - lambda_{k+1}) / lambda_1 is at least GAP_TOL, and
    ConvergenceError if Lanczos does not converge.

    Known defect (ROADMAP.md, item 2): single-vector Lanczos can return
    later eigenvalues in place of copies of a repeated top eigenvalue, and
    every ``--synthetic`` input has equal top singular values.
    """
    n = gram.shape[0]
    if k + 1 < n:
        if not gram.any():   # Lanczos cannot start: every Krylov vector is zero
            raise RankDeficiencyError(f"{what} has no positive eigenvalues")
        rng = np.random.default_rng(0)
        try:
            evals, evecs = scipy.sparse.linalg.eigsh(
                gram, k + 1, which="LA", v0=rng.standard_normal(n), rng=rng)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"{what}: Lanczos converged {len(exc.eigenvalues)} of the top "
                f"{k + 1} eigenpairs") from exc
    else:
        evals, evecs = scipy.linalg.eigh(gram)   # k + 1 >= n: all n eigenpairs
    evals, evecs = evals[::-1].copy(), evecs[:, ::-1]
    top = evals[0]
    if top <= 0:
        raise RankDeficiencyError(f"{what} has no positive eigenvalues")
    # Floating-point PSD repair: tiny negative eigenvalues clamp to zero.
    evals[(evals < 0) & (evals >= -EIG_CLAMP * top)] = 0.0
    lam_k = evals[k - 1]
    lam_next = evals[k] if k < n else 0.0
    if lam_k <= EIG_CLAMP * top:
        raise RankDeficiencyError(f"{what} has rank below k={k}")
    if (lam_k - lam_next) / top < GAP_TOL:
        raise GapError(f"{what} has a vanishing eigengap at k={k}")
    return evals[:k], evecs[:, :k].copy()
