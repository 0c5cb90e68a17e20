"""Dense linear algebra, the one module that factors a matrix or rules on
its spectrum: the thin SVD record, the R-SVD least-squares rule for
compressed matrices (:func:`qr_svd`, then :func:`truncated_solve`), the
top-k eigenpairs of a symmetric PSD matrix, subspace distances, spectral
diagnostics, and :func:`require_gap`, the one verdict on a rank-k cut of
singular values or of eigenvalues sigma^2: sigma_k above ``RANK_FLOOR``
sigma_1, far above rounding, and a gap at k. CLS truncates at the same
floor; :func:`numerical_rank`'s rounding cutoff serves full-rank inverses.

A thin SVD is one record, :class:`Svd`: every singular value, and all
columns of U and V or their leading ones. It stores no split index;
each reader slices at its own k.

The eigensolver (:func:`_lanczos`) is Lanczos with full
reorthogonalization, locking and seeded restarts, in numpy alone: one
product with the m x m matrix a step, against the O(m^3) of a dense
tridiagonal reduction. Its restarts find every copy of a repeated
eigenvalue, which one Krylov chain cannot, and its random vectors come
from a fixed seed, so a result is bit-reproducible. It needs k+1 < m
and takes at most m products: a spectrum it has not confirmed by then (a
tight cluster near lambda_{k+1}, or a top value repeated far past k)
goes to the dense ``eigh`` of :func:`top_eigenpairs`, as k >= m - 1
does, so only LAPACK can fail to converge. It reads the matrix only
through a product function (:func:`_gram_product`): a BLAS ``dsymv`` from
numpy's own OpenBLAS, which reads the upper triangle alone, half the
memory traffic of ``gram @ q`` (0.39 against 0.65 ms on a 2000 x 2000
kernel matrix, 2-vCPU Xeon), or ``G @ q`` on a copy mirrored from the
upper triangle where no ``dsymv`` is bound. So every route of
:func:`top_eigenpairs`, the dense ``eigh`` too, reads a Gram matrix
through its upper triangle alone, and its callers need not write the
lower one: :func:`upper_gram` forms the upper triangle of m^T m by that
library's ``dsyrk``. Nothing here calls scipy: ARPACK's ``eigsh`` runs
its own BLAS calls on the OpenBLAS that the scipy wheel bundles, beside
numpy's products on the one that the numpy wheel bundles, and the two
thread pools contend for the same cores.

Every LAPACK call here goes through :func:`_lapack`, which turns numpy's
``LinAlgError`` into :class:`~sketchpcr.errors.ConvergenceError` and runs
the call on one BLAS thread. The sketched solvers factor small compressed
matrices, [A R | b] and S A, and on those OpenBLAS's hand-off of each
level-2 step of a LAPACK panel to its other threads costs more than they
save: on a 2-vCPU Xeon (OpenBLAS 0.3.31) the QR of a 3000 x 81 [A R | b]
took 10.4 ms on 2 threads and 6.1 ms on one, and the SVD of a 3000 x 300
A 87.5 and 69.6 ms. Far larger factorizations pay for the rule: a
10000 x 81 QR took 19 ms on 2 threads and 25 ms on one, a 1000 x 1000
SVD 356 and 489 ms. The thread count is that of the OpenBLAS inside
numpy's own package, set through ``ctypes``; where none is found, nothing
changes. The count is global to the process: while such a call runs,
every BLAS call in the process, from any thread, runs on one thread.
Lanczos products run on the count in force.

``PANEL`` is the size, in entries, of the row panels that the kernel
matrix and TensorSketch work through, each small enough to stay in cache.

Everything here is deterministic. Matrices are plain 2-D float64
``numpy.ndarray`` objects; bases are matrices with orthonormal columns.
The spectral diagnostics take what their callers already hold:
:func:`stable_rank` a matrix, :func:`relative_gap` the singular values
of a factored one.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, GapError, RankDeficiencyError

ORTHO_TOL = 1e-10
GAP_TOL = 1e-12           # least (sigma_k^2 - sigma_{k+1}^2) / sigma_1^2 of a gap at k
RANK_FLOOR = 1e-9 ** 0.5  # sigma_k / sigma_1 of rank k lies above this (3.16e-5)
# Lanczos (``top_eigenpairs``):
RESIDUAL_TOL = 1e-12      # a pair converges at |G u - theta u| <= RESIDUAL_TOL |theta_1|
RITZ_EVERY = 4            # least steps between Rayleigh-Ritz checks
MISSED_PROB = 1e-6        # a restart chain's chance to miss an eigenvalue that matters
TIE_MARGIN = 1e-2         # a tie at k stands unless a missed eigenvalue lies this
                          # far above it, relative to lambda_1
PANEL = 2 ** 15           # entries of a row panel (256 KB), which stays in cache


class _OpenBlas(NamedTuple):
    path: Path             # the shared library
    get: Callable          # () -> its thread count
    set: Callable          # (count) -> None
    symv: Callable | None  # cblas_dsymv, if the library exports it
    syrk: Callable | None = None  # cblas_dsyrk, if the library exports it


@functools.cache
def _numpy_openblas():
    """The OpenBLAS bundled in numpy's own package as an :class:`_OpenBlas`,
    or None: its thread count, its ``cblas_dsymv`` and its ``cblas_dsyrk``.
    numpy 2 wheels export them as ``scipy_openblas_{get,set}_num_threads64_``
    and ``scipy_cblas_dsymv64_``, numpy 1 wheels (ILP64) as
    ``openblas_{get,set}_num_threads64_`` and ``cblas_dsymv64_``, LP64
    builds without a suffix; the 64_ namings take 64-bit integers. scipy's
    copy, with its own pool, is never bound."""
    pkg = Path(np.__file__).parent
    libs = sorted(pkg.parent.glob("numpy.libs/*openblas*")) + sorted(pkg.glob(".dylibs/*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                get = getattr(dll, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(dll, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            n = ctypes.c_int64 if suffix else ctypes.c_int
            ptr, real, enum = ctypes.c_void_p, ctypes.c_double, ctypes.c_int
            symv = getattr(dll, f"{prefix}cblas_dsymv{suffix}", None)
            if symv is not None:   # (order, uplo, n, alpha, a, lda, x, incx, beta, y, incy)
                symv.argtypes = [enum, enum, n, real, ptr, n, ptr, n, real, ptr, n]
                symv.restype = None
            syrk = getattr(dll, f"{prefix}cblas_dsyrk{suffix}", None)
            if syrk is not None:   # (order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
                syrk.argtypes = [enum, enum, enum, n, n, real, ptr, n, real, ptr, n]
                syrk.restype = None
            return _OpenBlas(lib, get, set_, symv, syrk)
    return None


_ROW_MAJOR, _UPPER, _TRANS = 101, 121, 112   # CBLAS_ORDER, CBLAS_UPLO, CBLAS_TRANSPOSE


def _square(gram):
    """``gram`` as a square C-ordered float64 matrix, copied only if it is
    not one; ValueError if it is not square."""
    gram = np.ascontiguousarray(_numeric_array(gram, "gram"))
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be a square matrix, got shape {gram.shape}")
    return gram


def mirror_upper(gram):
    """The symmetric matrix whose upper triangle is that of the square
    ``gram``, as a new array; what lies below the diagonal is not read."""
    return np.triu(gram) + np.triu(gram, 1).T


def _gram_product(gram):
    """q -> G q for the symmetric G whose upper triangle is that of
    ``gram``, read by numpy's OpenBLAS ``dsymv``, or ``G @ q`` on its
    :func:`mirror_upper` copy where none is bound. ``dsymv`` reads raw
    pointers, so it gets only the square C-ordered float64 :func:`_square`
    of ``gram``, which the product keeps alive, and a contiguous float64
    vector of its length."""
    gram = _square(gram)
    blas = _numpy_openblas()
    if blas is None or blas.symv is None:
        return mirror_upper(gram).__matmul__
    m, data = gram.shape[0], gram.ctypes.data_as(ctypes.c_void_p)   # keeps gram alive

    def product(q):
        q = np.ascontiguousarray(q, dtype=float)
        if q.shape != (m,):
            raise ValueError(f"vector has shape {q.shape}, expected ({m},)")
        out = np.empty(m)
        blas.symv(_ROW_MAJOR, _UPPER, m, 1.0, data, m, q.ctypes.data, 1, 0.0, out.ctypes.data, 1)
        return out

    return product


def upper_gram(m):
    """The upper triangle of m^T m, zeros below the diagonal, from numpy's
    OpenBLAS ``dsyrk``; ``m.T @ m``, whose upper triangle is the same, where
    none is bound. ``dsyrk`` reads raw pointers, so it gets only a 2-D
    C-ordered float64 ``m``, copied if ``m`` is not one."""
    m = np.ascontiguousarray(_numeric_array(m, "m"))
    if m.ndim != 2:
        raise ValueError(f"m must be 2-D, got shape {m.shape}")
    rows, cols = m.shape
    blas = _numpy_openblas()
    if blas is None or blas.syrk is None:
        return m.T @ m
    out = np.zeros((cols, cols))
    if rows and cols:
        blas.syrk(_ROW_MAJOR, _UPPER, _TRANS, cols, rows, 1.0, m.ctypes.data, cols,
                  0.0, out.ctypes.data, cols)
    return out


# The thread count is global to the process, and so is its guard.
_serial_lock = threading.Lock()
_serial_depth = 0   # calls inside _one_thread now
_saved_threads = 1  # the count the last one out restores


@contextmanager
def _one_thread():
    """numpy's BLAS on one thread, for every caller at once: the first in
    saves the count and sets 1, the last out restores it."""
    global _serial_depth, _saved_threads
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    with _serial_lock:
        if _serial_depth == 0:
            _saved_threads = blas.get()
            if _saved_threads > 1:
                blas.set(1)
        _serial_depth += 1
    try:
        yield
    finally:
        with _serial_lock:
            _serial_depth -= 1
            if _serial_depth == 0 and _saved_threads > 1:
                blas.set(_saved_threads)


def _lapack(routine, m, **kwargs):
    """numpy.linalg's ``routine`` on the matrix ``m``, on one BLAS thread,
    its LinAlgError raised as ConvergenceError."""
    try:
        with _one_thread():
            return routine(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{routine.__name__} failed to converge: {exc}") from exc


def _numeric_array(a, name):
    """``a`` as a float64 array. Strings, bytes, objects and complex values
    are not read as numbers: they raise ValueError naming ``name``."""
    m = np.asarray(a)
    if m.dtype.kind not in "biuf":   # bool, signed, unsigned, floating
        raise ValueError(f"{name} is not numeric (dtype {m.dtype})")
    return m.astype(float, copy=False)


def _require_finite(m, name):
    # Exact and warning-free; about half the cost of np.isfinite(m).all()
    # on a short row, whose ufunc reduction carries a fixed overhead.
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError(f"{name} contains NaN or Inf entries")


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a finite 2-D float64 array."""
    m = _numeric_array(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    _require_finite(m, name)
    return m


def as_vector(v, length=None, name="vector"):
    """Validate and return ``v`` as a finite flat float64 array, of
    ``length`` entries when given."""
    x = _numeric_array(v, name).ravel()
    if length is not None and x.shape[0] != length:
        raise ValueError(f"{name} has length {x.shape[0]}, expected {length}")
    _require_finite(x, name)
    return x


def numerical_rank(sigma, shape):
    """Count of the nonincreasing singular values ``sigma`` of a matrix of
    ``shape`` above sigma_max * max(shape) * machine epsilon."""
    return int(np.sum(sigma > sigma[:1] * (max(shape) * np.finfo(float).eps)))


def floor_rank(sigma):
    """Count of the nonincreasing singular values ``sigma`` above
    ``RANK_FLOOR`` sigma_1: numpy's ``lstsq(rcond=RANK_FLOOR)`` rule."""
    return int(np.count_nonzero(sigma > sigma[:1] * RANK_FLOOR))


def check_orthonormal(q, name="basis"):
    """Require Q^T Q = I within ``ORTHO_TOL`` in Frobenius norm."""
    q = as_matrix(q, name)
    gram = q.T @ q
    err = np.linalg.norm(gram - np.eye(q.shape[1]))
    if err > ORTHO_TOL:
        raise ValueError(f"{name} columns are not orthonormal (|Q^T Q - I|_F = {err:.3e})")
    return q


def spectral_norm(a):
    """Largest singular value of the finite numeric matrix ``a`` (1-D: a row)."""
    a = as_matrix(np.atleast_2d(a), "a")
    if a.size == 0:
        return 0.0
    return float(_lapack(np.linalg.svd, a, compute_uv=False).max())


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
    u, s, vt = _lapack(np.linalg.svd, as_matrix(m), full_matrices=False)
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
    r_fac = _lapack(np.linalg.qr, np.column_stack([m, b]), mode="r")[:min(m.shape)]
    u, sigma, vt = _lapack(np.linalg.svd, r_fac[:, :-1], full_matrices=False)
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
    sigma = _lapack(np.linalg.svd, u.T @ w, compute_uv=False)
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


def require_gap(sigma, k, what):
    """Reject the rank-k cut of a matrix with nonincreasing singular values
    ``sigma``: RankDeficiencyError unless sigma_k > ``RANK_FLOOR`` sigma_1
    (:func:`floor_rank`), GapError unless :func:`relative_gap` at k is at
    least ``GAP_TOL``."""
    if floor_rank(sigma) < k:
        raise RankDeficiencyError(f"{what} has rank below k={k}")
    if relative_gap(sigma, k) < GAP_TOL:
        raise GapError(f"{what} has a vanishing eigengap at k={k}")


def _lanczos(product, m, k):
    """The k largest eigenpairs of the symmetric PSD m x m matrix G whose
    products G q ``product`` returns, k+1 < m, largest first, and
    lambda_{k+1} or a lower bound on it (returned as a (k+1)-th value, with
    a vector that may not have converged): Lanczos with full
    reorthogonalization, locking and seeded restarts. None if m products
    have not confirmed them. The products are all it reads of G;
    :func:`_gram_product` forms them from the upper triangle through
    numpy's OpenBLAS.

    Each step takes one product G q_j and orthogonalizes it twice against
    the locked eigenvectors and the current chain; the chain coefficients
    of both passes fill column j of the chain's projected matrix Q^T G Q.
    Every ``RITZ_EVERY`` steps, or every eighth of the chain's length when
    that is more (each test costs an ``eigh`` of that matrix), its Ritz
    pairs (rho, u) are tested by their explicit residuals |G u - rho u|,
    G u formed from the stored products, against ``RESIDUAL_TOL`` times
    the largest eigenvalue seen.

    A chain holds one copy of a repeated eigenvalue. So the first chain's
    converged top pairs are locked, and a new chain starts from a seeded
    random vector orthogonal to them: Lanczos on G with the locked pairs
    deflated, where any missed copy now is (the several start vectors of
    block Krylov methods, as in Musco & Musco, NeurIPS 2015, taken one
    after another). A restart chain stops once it has run at least k+1
    steps and its largest Ritz value rho_j after j steps lies below
    (1 - eps_j) tau, with eps_j = (ln(1.648 sqrt(m) / ``MISSED_PROB``) /
    (2j - 1))^2 and tau from :func:`_missed_floor`. By the random-start
    bound of Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 13,
    1992), a missed eigenvalue above tau leaves rho_j that low with
    probability at most ``MISSED_PROB``; a chain whose Krylov space has run
    out has rho_j exact, and needs only rho_j <= tau.

    Which pairs the first chain locks: lambda_{k+1} needs only its value,
    for the gap. Once the top k pairs have converged and the (k+1)-th has
    not, the first chain locks the k alone if a restart would stop as soon
    with lambda_{k+1} still in it (top Ritz value theta_{k+1}) as without
    it (theta_{k+2}), both read against the floors of tau from the chain's
    Ritz values. That restart then counts its own rho_j as the (k+1)-th
    value when it forms tau, and returns rho_j as that value when it
    stops: a lower bound on lambda_{k+1}, which then lies below tau with
    probability at least 1 - ``MISSED_PROB``, so the gap verdict, all that
    reads the value, is the same as on lambda_{k+1}. Otherwise, as under
    a tie at k, the first chain runs on until all k+1 pairs converge and
    locks them. If a restart chain's top pair converges at or above tau (a
    missed eigenvalue), or so near tau that k+1 more steps would not rule
    it out, it is locked too and a new chain starts. A chain that runs out
    continues from a random vector.

    After m products without a confirmed answer it returns None: its
    products alone have then cost 2 m^3 flops, more than the 4/3 m^3 of
    the dense tridiagonal reduction that :func:`top_eigenpairs` runs
    instead. Its buffers start at 4(k+1) rows and double when full, up to
    m, so they grow with the rows a run fills.
    """
    p = k + 1
    log_bound = np.log(1.648 * np.sqrt(m) / MISSED_PROB)
    rng = np.random.default_rng(0)
    size = min(m, 4 * p)             # rows of the buffers, doubled when full
    basis = np.empty((size, m))      # the locked eigenvectors, then the chain
    products = np.empty((size, m))   # G q for the chain's rows
    proj = np.empty((size, size))    # the chain's Q^T G Q
    locked = 0                       # basis[:locked] are eigenvectors ...
    values = np.empty(0)             # ... with these eigenvalues
    row, check_at = 0, p             # the chain is basis[locked:row]
    ran_out = False                  # whether the chain's Krylov space ran out
    g_norm = 0.0                     # the largest |G q| so far
    nxt = rng.standard_normal(m)
    for _ in range(m):
        if row == size:
            size = min(m, 2 * size)
            basis, products = (np.concatenate([x, np.empty((size - row, m))])
                               for x in (basis, products))
            proj = np.pad(proj, (0, size - row))
        basis[row] = nxt / np.linalg.norm(nxt)
        products[row] = product(basis[row])
        g_norm = max(g_norm, np.linalg.norm(products[row]))
        q = basis[:row + 1]
        coef = q @ products[row]
        nxt = products[row] - coef @ q
        first = np.linalg.norm(nxt)
        again = q @ nxt
        nxt -= again @ q
        coef += again
        proj[locked:row + 1, row] = proj[row, locked:row + 1] = coef[locked:]
        row += 1
        # The chain has run out when what is left is below the residual
        # tolerance, or is rounding: by Kahan's twice is enough, that is when
        # the second pass removes most of what the first left.
        fresh = np.linalg.norm(nxt) <= max(first / np.sqrt(2.0), RESIDUAL_TOL * g_norm)
        ran_out |= fresh
        length = row - locked
        if length >= check_at or row == m:
            check_at = _next_check(length)
            rho, y = _lapack(np.linalg.eigh, proj[locked:row, locked:row])
            rho, y = rho[::-1], y[:, ::-1]
            scale = max(np.abs(rho).max(), np.abs(values).max(initial=0.0))
            tol = RESIDUAL_TOL * scale
            need = max(p - locked, 1)
            norms = np.linalg.norm(products[locked:row].T @ y[:, :need]
                                   - basis[locked:row].T @ (y[:, :need] * rho[:need]), axis=0)
            lock, done = 0, row == m
            if done:                       # the basis spans everything: all exact
                lock = length
            elif locked == 0:              # the first chain
                if np.all(norms <= tol):
                    lock = p
                elif length > p and np.all(norms[:k] <= tol):
                    tau = _missed_floor(rho, k)
                    if (_bound_check(rho[k], tau, log_bound, p)
                            <= _bound_check(rho[p], tau, log_bound, p)):
                        lock = k           # a restart bounds lambda_{k+1} as soon
            else:                          # a restart chain
                # With k locked, its top Ritz value stands in for lambda_{k+1}.
                tau = _missed_floor(np.sort(np.concatenate(
                    [values, rho[:max(p - locked, 0)]]))[::-1], k)

                def floor(j):   # rho_j at most this rules out a missed value above tau
                    return tau if ran_out else _restart_floor(j, tau, log_bound)

                done = rho[0] <= floor(length)
                if done:
                    lock = max(p - locked, 0)   # rho_1 as lambda_{k+1}: a lower bound
                elif norms[0] <= tol and (rho[0] >= tau or 0 < floor(length + p) < rho[0]):
                    lock = 1   # a missed eigenvalue, or one too near tau to rule out soon
            if lock:
                found = y[:, :lock].T @ basis[locked:row]
                basis[locked:locked + lock] = found
                values = np.concatenate([values, rho[:lock]])
                locked += lock
            if done:
                order = np.argsort(values)[::-1][:p]
                return values[order], basis[order].T
            if lock:                       # a new chain
                row, check_at, ran_out, fresh = locked, p, False, True
        if fresh:
            nxt = _orthogonal(rng.standard_normal(m), basis[:row])
    return None


def _next_check(length):
    """The chain length of the Ritz check after one at ``length``."""
    return length + max(RITZ_EVERY, length // 8)


def _restart_floor(j, tau, log_bound):
    """(1 - eps_j) tau: a restart chain's top Ritz value after j steps at
    most this rules out a missed eigenvalue above tau."""
    return (1 - (log_bound / (2 * j - 1)) ** 2) * tau


def _bound_check(theta, tau, log_bound, p):
    """The first Ritz check length of a restart chain whose top Ritz value
    ``theta`` lies at or below its floor under tau; inf if none does."""
    if theta >= tau:
        return np.inf
    j = p
    while _restart_floor(j, tau, log_bound) < theta:
        j = _next_check(j)
    return j


def _missed_floor(theta, k):
    """The least eigenvalue that, missed beside the nonincreasing values
    ``theta`` found, would change the verdict of ``top_eigenpairs`` at k.

    Under the rank floor, one above the floor. Under a tie at k, one more
    than ``TIE_MARGIN`` lambda_1 above the tie: a nearer one would make the
    verdict a GapError on a gap below that margin, which errs on the side
    of refusing. Otherwise, a copy of theta_k: one at theta_k less the gap
    floor.
    """
    if theta[k - 1] <= RANK_FLOOR ** 2 * theta[0]:
        return RANK_FLOOR ** 2 * theta[0]
    if theta[k - 1] - theta[k] < GAP_TOL * theta[0]:
        return theta[k - 1] + TIE_MARGIN * theta[0]
    return theta[k - 1] - GAP_TOL * theta[0]


def _orthogonal(z, q):
    """z made orthogonal to the orthonormal rows of q by two passes."""
    for _ in range(2):
        z -= (q @ z) @ q
    return z


def top_eigenpairs(gram, k, what):
    """The k largest eigenpairs of a symmetric PSD matrix, largest first.

    Lanczos computes the top k pairs and lambda_{k+1}, the value that sets
    the gap, or a lower bound on it certified to lie below the verdict's
    threshold; at k >= n - 1, or where Lanczos has not confirmed them
    within n products, the dense ``eigh`` computes all n pairs.
    Either reads ``gram`` as a square C-ordered float64 matrix, copied if
    it is not one, and reads only its upper triangle: the matrix is the
    symmetric one with that upper triangle, whatever lies below.
    :func:`require_gap` rules on those k+1 values as singular values
    sqrt(lambda), negative rounding counted as zero. Every copy of a
    repeated eigenvalue counts; Lanczos confirms its answer by a restart.
    ConvergenceError comes only from LAPACK (:func:`_lapack`).
    """
    gram = _square(gram)
    m = gram.shape[0]
    pairs = _lanczos(_gram_product(gram), m, k) if k + 1 < m else None
    if pairs is None:   # all n pairs
        evals, evecs = _lapack(np.linalg.eigh, gram, UPLO="U")
        pairs = evals[::-1], evecs[:, ::-1]
    evals, evecs = pairs
    require_gap(np.sqrt(np.maximum(evals, 0.0)), k, what)
    return evals[:k], evecs[:, :k].copy()
