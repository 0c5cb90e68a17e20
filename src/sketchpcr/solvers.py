"""Principal component regression and projection estimators.

Exact solvers factor the data matrix directly. Sketched solvers restrict
the regression to the range of a compression matrix R built from a
random sketch: left sketching uses the top right-singular basis of S A,
right sketching uses G^T itself, and two-sided sketching composes both.
Compressed least squares (OLS on A R, cut at the rank floor) is included for comparison.
Sketches are plain matrices (see :mod:`sketchpcr.sketch`), and so is R:
dense, or the sparse transpose of a CountSketch. Every solver forms
M = A R and solves on it by one rule, :func:`compressed_solve`, which the
stream applies to M = T A R; it maps back with R @ gamma.

The exact reference is U_k, V_k and the singular values of A, cut from
one cached thin SVD. :func:`certify` measures leakage from U_k and V_k
alone, as the part of a vector outside their span, for any shape of A.

The input-sparsity solver avoids dense factorizations of A entirely:
CountSketch compressions are applied in one pass over the nonzeros and
the inner least-squares problem is solved by a sketch-preconditioned
conjugate-gradient iteration on the factor pair (A G^T, V), whose
product is never formed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, RankDeficiencyError
from .linalg import (
    Svd,
    as_matrix,
    as_vector,
    floor_rank,
    numerical_rank,
    qr_svd,
    require_gap,
    thin_svd,
    truncated_solve,
)
from .sketch import _dense, apply_left, child_seeds, gen_countsketch


@dataclass(frozen=True)
class ExactReference:
    """U_k, V_k and every singular value of A, cut from one thin SVD, and
    the seconds that SVD took."""

    svd: Svd
    seconds: float


@dataclass(frozen=True)
class PcrProblem:
    """A rank-k PCR instance min |A x - b| over span(V_{A,k}).

    A dense A is held as a read-only view, so that the exact reference,
    computed on first use and cached, cannot go stale through ``p.a``.
    The view shares memory with the array passed in, which the caller
    must not change afterwards.

    ``svd_from`` is a problem over the same A with a rank of at least k
    whose SVD this one cuts at k instead of factoring A again; see
    :meth:`for_ranks`.
    """

    a: object          # (n, d) dense array or scipy sparse matrix
    b: np.ndarray      # (n,)
    k: int
    svd_from: PcrProblem | None = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if sp.issparse(self.a):
            if not np.all(np.isfinite(self.a.data)):
                raise ValueError("a contains NaN or Inf entries")
        else:
            a = as_matrix(self.a, "a").view()
            a.flags.writeable = False
            object.__setattr__(self, "a", a)
        n, d = self.a.shape
        object.__setattr__(self, "b", as_vector(self.b, length=n, name="b"))
        if not 1 <= self.k <= min(n, d):
            raise ValueError(f"rank k={self.k} out of range [1, {min(n, d)}]")
        src = self.svd_from
        if src is not None and (src.a.shape != self.a.shape or src.k < self.k):
            raise ValueError("svd_from must be a problem over the same A with rank >= k")

    @classmethod
    def for_ranks(cls, a, b, ks) -> dict:
        """One problem per k in ``ks``, all sharing one SVD of A, which is
        computed on first use and keeps U up to column max(ks)."""
        top = cls(a=a, b=b, k=max(ks))
        return {k: top if k == top.k else cls(a=top.a, b=top.b, k=k, svd_from=top)
                for k in ks}

    @property
    def shape(self):
        return self.a.shape

    @functools.cached_property
    def reference(self) -> ExactReference:
        """U_k, V_k and all singular values of A (:meth:`Svd.lead` at k):
        one full SVD per problem, on first use, or none when ``svd_from``
        supplies it.

        Callers check the spectrum with :func:`require_gap` themselves, so
        a degenerate A raises on every call, not only the first.
        """
        if self.svd_from is not None:
            ref = self.svd_from.reference
            return ExactReference(svd=ref.svd.lead(self.k), seconds=ref.seconds)
        t0 = time.perf_counter()
        a = self.a.toarray() if sp.issparse(self.a) else self.a
        f = thin_svd(a).lead(self.k)
        return ExactReference(svd=f, seconds=time.perf_counter() - t0)


@dataclass(frozen=True)
class PcrSolution:
    x: np.ndarray
    method: str
    r_cols: int                      # columns of R used; 0 for exact
    objective: float | None          # |A x - b|; None when A was not retained
    constraint_norm: float | None    # |(I - V_{A,k} V_{A,k}^T) x| when the exact SVD was at hand
    wall_time: float


@dataclass(frozen=True)
class ApproxCertificate:
    eps_observed: float      # additive objective error over |b|
    upsilon_observed: float  # constraint leakage over |b|
    reference_objective: float


def _objective(a, x, b):
    return float(np.linalg.norm(a @ x - b))


def _outside(q, y):
    """|(I - Q Q^T) y|: the part of y outside the range of the orthonormal Q."""
    return float(np.linalg.norm(y - q @ (q.T @ y)))


def _checked_reference(p: PcrProblem) -> Svd:
    f = p.reference.svd
    require_gap(f.sigma, p.k, "A")
    return f


def _top_right_basis(m, k, what):
    """V_k of ``m``, which must have rank k and a gap at k."""
    f = thin_svd(m)
    require_gap(f.sigma, k, what)
    return f.lead(k).v


def compressed_solve(r, m, b, k, what):
    """x = R V_j Sigma_j^-1 (U^T b)_j from the R-factor SVD of the compressed
    matrix m (:func:`~sketchpcr.linalg.qr_svd`): rank-k PCR at j = k, which
    :func:`require_gap` checks, or R m^+ b at j = :func:`floor_rank` when k is None."""
    sigma, v, c = qr_svd(m, b)
    if k is None:
        k = floor_rank(sigma)
    else:
        require_gap(sigma, k, what)
    return r @ truncated_solve(v, sigma, c, k)


def exact_pcr(p: PcrProblem) -> PcrSolution:
    """PCR solution x_k = V_{A,k} Sigma_{A,k}^-1 U_{A,k}^T b.

    ``wall_time`` includes the SVD of A whether this call or an earlier
    one on the same problem computed it.
    """
    svd_seconds = p.reference.seconds
    t0 = time.perf_counter()
    f = _checked_reference(p)
    x = truncated_solve(f.v, f.sigma, f.u.T @ p.b, p.k)
    elapsed = time.perf_counter() - t0 + svd_seconds
    return PcrSolution(
        x=x,
        method="exact",
        r_cols=0,
        objective=_objective(p.a, x, p.b),
        constraint_norm=_outside(f.v, x),
        wall_time=elapsed,
    )


# ---------------------------------------------------------------------------
# Compression factors R: plain d x s matrices, dense or scipy sparse.

def _as_r(r):
    return r if sp.issparse(r) else as_matrix(r, "R")


def build_r_left(p: PcrProblem, s_op) -> np.ndarray:
    """R = top-k right singular basis of the row-compressed matrix S A."""
    return _top_right_basis(apply_left(s_op, p.a), p.k, "S A")


def build_r_right(g_op):
    """R = G^T: a sparse matrix for a CountSketch, dense for a subgaussian G."""
    return g_op.T


def build_r_twosided(p: PcrProblem, s_op, g_op) -> np.ndarray:
    """R = G^T V_{S A G^T, k}: column compression followed by row compression.

    Returned as the dense d x k product, so that the solver forms A R
    directly instead of A G^T a second time.
    """
    g_t = build_r_right(g_op)
    return g_t @ _top_right_basis(apply_left(s_op, p.a @ g_t), p.k, "S A G^T")


def _solve_on_ar(p: PcrProblem, r, method, k) -> PcrSolution:
    """:func:`compressed_solve` on A R, formed first (in one pass over the
    nonzeros for a sparse R), timed without |A x - b|."""
    t0 = time.perf_counter()
    r = _as_r(r)
    if k is not None and r.shape[1] < k:
        raise ValueError(f"R has {r.shape[1]} columns, fewer than k={k}")
    x = compressed_solve(r, _dense(p.a @ r), p.b, k, "A R")
    elapsed = time.perf_counter() - t0
    return PcrSolution(
        x=x,
        method=method,
        r_cols=r.shape[1],
        objective=_objective(p.a, x, p.b),
        constraint_norm=None,
        wall_time=elapsed,
    )


def sketched_pcr(p: PcrProblem, r) -> PcrSolution:
    """Rank-k PCR on A R mapped back through R: x = R V_{AR,k} (A R V_{AR,k})^+ b."""
    return _solve_on_ar(p, r, "sketched", p.k)


def cls(p: PcrProblem, r) -> PcrSolution:
    """Compressed least squares: x = R (A R)^+ b, cut at ``linalg.RANK_FLOOR``."""
    return _solve_on_ar(p, r, "cls", None)


def certify(p: PcrProblem, sol: PcrSolution, mode: str) -> ApproxCertificate:
    """Measure the additive objective error and constraint leakage of a
    candidate solution against the exact rank-k reference.

    The reference objective is |(I - U_k U_k^T) b|, that of x_k, in both
    modes. The leakage is the part outside a span: of x outside
    span(V_{A,k}) in mode 'pcr', and of A x outside span(U_{A,k}) in mode
    'pcp'. Both read only U_k and V_k, so they hold for every shape of A,
    d > n included, where the thin SVD's trailing V misses null(A).

    Diagnostic only: needs the full SVD of A, computed once per problem
    (see :attr:`PcrProblem.reference`), so intended for problem sizes
    where the exact solution is tractable.
    """
    if mode not in ("pcr", "pcp"):
        raise ValueError("mode must be 'pcr' or 'pcp'")
    f = _checked_reference(p)
    nb = float(np.linalg.norm(p.b))
    if nb == 0.0:
        raise ValueError("b is zero; certificates are undefined")
    ax = p.a @ sol.x
    obj = float(np.linalg.norm(ax - p.b))
    ref = _outside(f.u, p.b)
    leak = _outside(f.v, sol.x) if mode == "pcr" else _outside(f.u, ax)
    return ApproxCertificate(
        eps_observed=abs(obj - ref) / nb,
        upsilon_observed=leak / nb,
        reference_objective=ref,
    )


# ---------------------------------------------------------------------------
# Sketch-preconditioned iterative least squares and the input-sparsity solver.

PRECOND_SKETCH_FACTOR = 4  # CountSketch rows = 4 k^2 for the preconditioner


def precond_iterative_ls(c, b, eps, seed):
    """Approximate argmin_g |c g - b| to relative metric accuracy eps.

    ``c`` is a pair ``(left, right)`` that stands for the n x k product
    c = ``left @ right``, which is never formed; pass (c, I_k) for a
    dense c. Returns g with |c (g - g*)|^2 <= eps |c g*|^2 for the exact
    minimizer g*. CountSketching c to O(k^2) rows and taking the thin SVD
    U Sigma V^T of the sketch gives the right preconditioner V Sigma^-1
    (LSRN; Meng, Saunders & Mahoney 2014), under which c has O(1)
    condition number with high probability, so CGLS needs O(log(1/eps))
    iterations. When the sketch would not compress (4 k^2 >= n) the
    preconditioner comes from the SVD of c itself. CGLS stops after
    4 ceil(ln(max(n, 2) / eps)) iterations and raises ConvergenceError if
    it has not converged by then.
    """
    left, right = c
    n, k = left.shape[0], right.shape[1]
    b = as_vector(b, length=n, name="b")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")

    m = PRECOND_SKETCH_FACTOR * k * k
    sc = (left if m >= n else apply_left(gen_countsketch(m, n, seed), left)) @ right
    f = thin_svd(sc)
    if numerical_rank(f.sigma, sc.shape) < k:
        raise RankDeficiencyError("least-squares matrix is rank deficient")
    pre = f.v / f.sigma

    def bmat(z):
        return left @ (right @ (pre @ z))

    def bmat_t(v):
        return pre.T @ (right.T @ (left.T @ v))

    max_iter = 4 * math.ceil(math.log(max(n, 2) / eps))

    # CGLS on the preconditioned system B z = b, gamma = V Sigma^-1 z. The stop
    # rule |B^T r| <= 0.1 sqrt(eps) |B z| controls |B (z - z*)| because
    # the preconditioned singular values are O(1)-clustered around 1.
    def converged(s_norm2, resid):
        if s_norm2 <= tiny:
            return True
        fitted = float(np.linalg.norm(b - resid))
        return fitted > 0 and math.sqrt(s_norm2) <= 0.1 * math.sqrt(eps) * fitted

    z = np.zeros(k)
    resid = b.copy()
    s = bmat_t(resid)
    pdir = s.copy()
    s_norm2 = float(s @ s)
    tiny = 1e-30 * max(1.0, float(b @ b))
    for _ in range(max_iter):
        if converged(s_norm2, resid):
            break
        q = bmat(pdir)
        alpha = s_norm2 / float(q @ q)
        z += alpha * pdir
        resid -= alpha * q
        s = bmat_t(resid)
        s_new = float(s @ s)
        pdir = s + (s_new / s_norm2) * pdir
        s_norm2 = s_new
    if not converged(s_norm2, resid):
        raise ConvergenceError(
            f"preconditioned least squares did not reach eps={eps} within {max_iter} iterations"
        )
    return pre @ z


def input_sparsity_pcp(p: PcrProblem, s, t, seed, eps=1e-3):
    """Approximate PCP via two-sided CountSketch compression.

    Draws CountSketches S (s x n) for the rows and G (t x d) for the
    columns, and the preconditioner's sketch, from three child seeds of
    ``seed``; s and t must be at least k. Drops empty rows of G, extracts
    the dominant right basis of D = S A G^T, and solves the inner
    least-squares problem iteratively without forming A G^T V. Returns y
    with |y - x_R|^2 <= eps |x_R|^2 (with constant probability) for x_R
    the exact minimizer over the range of R = G^T V_{D,k}. Cost is
    dominated by one pass over the nonzeros.
    """
    n, d = p.shape
    if s < p.k or t < p.k:
        raise ValueError("sketch sizes must be at least k")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    seed_s, seed_g, seed_ls = child_seeds(seed, 3)
    s_op = gen_countsketch(s, n, seed_s)
    g_op = gen_countsketch(t, d, seed_g)

    # Drop the zero rows of G so that G^T has no zero columns and
    # sigma_min(G^T) >= 1.
    g_t = g_op[np.diff(g_op.indptr) > 0].T
    c = p.a @ g_t   # sparse for a sparse A: CGLS reads its nonzeros only
    v_k = _top_right_basis(apply_left(s_op, c), p.k, "S A G^T")

    gamma = precond_iterative_ls((c, v_k), p.b, eps / d, seed=seed_ls)
    return g_t @ (v_k @ gamma)
