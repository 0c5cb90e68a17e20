"""Statistical evaluation under the fixed-design model.

The data matrix A is deterministic; responses are b = f + noise with
independent zero-mean sigma^2 entries. The excess risk of an estimator
theta is E |A theta - A x*|^2 / n where x* is the minimum-norm optimal
predictor (A x* = P_A f). For any compression M the risk decomposes
exactly into a bias term |(I - P_{AM}) A x*|^2 / n plus a variance term
sigma^2 rank(AM) / n, which gives closed-form references for Monte
Carlo checks and for the risk bounds of the sketched estimators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_matrix,
    as_vector,
    numerical_rank,
    subspace_distance,
    thin_svd,
    truncated_solve,
)
from .sketch import child_seeds

TAIL_DECAY = 0.25  # ratio of consecutive squared singular values past k


@dataclass(frozen=True)
class FixedDesignModel:
    """The design A, the mean f of b and the noise level sigma.

    A is held as a read-only view and factored once per model: ``svd`` is
    its full thin SVD (:class:`~sketchpcr.linalg.Svd`), cached, which the
    risk bounds and other readers slice at their own k. x_star, the
    minimum-norm solution of A x = P_A f, comes from it.
    """

    a: np.ndarray
    f: np.ndarray
    sigma: float
    x_star: np.ndarray = field(init=False)

    def __post_init__(self):
        a = as_matrix(self.a, "a").view()
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "f", as_vector(self.f, length=a.shape[0], name="f"))
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        f = self.svd
        object.__setattr__(self, "x_star", truncated_solve(
            f.v, f.sigma, f.u.T @ self.f, numerical_rank(f.sigma, a.shape)))

    @functools.cached_property
    def svd(self):
        return thin_svd(self.a)

    @property
    def n(self):
        return self.a.shape[0]

    def optimal_prediction(self):
        return self.a @ self.x_star


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("at least two trials are needed for a standard error")
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")


def planted_spectrum(n, d, k, gap_target):
    """Singular values with top-k flat at 1 and relative gap_k == gap_target;
    past k the squares fall geometrically by ``TAIL_DECAY``."""
    m = min(n, d)
    s2 = np.ones(m)
    s2[k:] = (1.0 - gap_target) * TAIL_DECAY ** np.arange(m - k)
    return np.sqrt(s2)


def planted_matrix(n, d, k, gap_target, seed):
    """Random-orientation n x d matrix with a controlled spectral gap at k.

    A = U diag(s) V^T with Haar-distributed orthogonal factors drawn from
    ``seed`` and s from :func:`planted_spectrum`, so the relative gap of
    its singular values at k (:func:`sketchpcr.linalg.relative_gap`)
    equals gap_target by construction. Needs 1 <= k < min(n, d) and
    0 < gap_target < 1.
    """
    if not 1 <= k < min(n, d):
        raise ValueError(f"k={k} must lie in [1, {min(n, d) - 1}]")
    if not 0 < gap_target < 1:
        raise ValueError("gap_target must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    m = min(n, d)
    u = _haar(rng, n, m)
    v = _haar(rng, d, m)
    return (u * planted_spectrum(n, d, k, gap_target)) @ v.T


def _haar(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign


def sample_response(model: FixedDesignModel, seed):
    """One draw of b = f + sigma * xi with standard Gaussian xi."""
    rng = np.random.default_rng(seed)
    return model.f + model.sigma * rng.standard_normal(model.n)


def excess_risk_mc(model: FixedDesignModel, estimator, trials, seed) -> RiskEstimate:
    """Monte Carlo excess risk of ``estimator(A, b) -> x`` over fresh noise."""
    if trials < 2:
        raise ValueError("trials must be at least 2")
    opt = model.optimal_prediction()
    samples = np.empty(trials)
    for i, si in enumerate(child_seeds(seed, trials)):
        b = sample_response(model, si)
        try:
            x = estimator(model.a, b)
        except Exception as exc:
            raise RuntimeError(f"estimator failed on trial {i}") from exc
        samples[i] = np.linalg.norm(model.a @ x - opt) ** 2 / model.n
    return RiskEstimate(
        mean=float(samples.mean()),
        std_error=float(samples.std(ddof=1) / math.sqrt(trials)),
        trials=trials,
    )


def bias_variance(model: FixedDesignModel, m):
    """Closed-form excess-risk split of the estimator x = M (A M)^+ b.

    Returns (bias, variance) with bias = |(I - P_{AM}) A x*|^2 / n and
    variance = sigma^2 rank(AM) / n; their sum is the exact excess risk.
    """
    m = as_matrix(m, "m")
    am = model.a @ m
    u, s, _ = np.linalg.svd(am, full_matrices=False)
    rank = numerical_rank(s, am.shape)
    opt = model.optimal_prediction()
    ur = u[:, :rank]   # empty at rank 0, where the bias is |opt|^2 / n
    resid = opt - ur @ (ur.T @ opt)
    bias = float(resid @ resid) / model.n
    variance = model.sigma**2 * rank / model.n
    return bias, variance


def exact_risk(model: FixedDesignModel, m):
    return float(sum(bias_variance(model, m)))


def classic_pcr_risk_bound(model: FixedDesignModel, k):
    """|V_A^T x*|_inf^2 sum_{i>k} sigma_i^2 / n + sigma^2 k / n."""
    f = model.svd
    coeff = np.max(np.abs(f.v.T @ model.x_star)) ** 2
    return float(coeff * np.sum(f.sigma[k:]**2) / model.n
                 + model.sigma**2 * k / model.n)


@dataclass(frozen=True)
class RiskBoundReport:
    """One excess-risk bound against the exact risk. A prerequisite that
    fails is reported here, never silently skipped."""

    risk: float
    bound: float
    prerequisite_ok: bool   # the bound applies only when this holds


def _tail_bias(model: FixedDesignModel, k):
    """|x*|^2 sigma_{k+1}^2 / n, where sigma_{k+1} is 0 at k = min(n, d)."""
    s = model.svd.sigma
    sk1 = s[k] if k < len(s) else 0.0
    return float(model.x_star @ model.x_star) * sk1**2 / model.n


def pcr_corollary_bound(model: FixedDesignModel, k) -> RiskBoundReport:
    """Exact rank-k PCR's risk against |x*|^2 sigma_{k+1}^2 / n + sigma^2 k / n."""
    risk = exact_risk(model, model.svd.v[:, :k])
    return RiskBoundReport(risk, _tail_bias(model, k) + model.sigma**2 * k / model.n, True)


def stat_structural_bound(model: FixedDesignModel, k, r, nu) -> RiskBoundReport:
    """The risk of compressing by the orthonormal d x k matrix ``r`` against
    (1 + nu) |x*|^2 sigma_{k+1}^2 / n + sigma^2 k / n, which requires
    d2(R, V_{A,k}) <= nu (1 + nu^2)^(-1/2)."""
    r = as_matrix(r, "r")
    ok = subspace_distance(r, model.svd.v[:, :k]) <= nu / math.sqrt(1.0 + nu**2) + 1e-12
    bound = (1.0 + nu) * _tail_bias(model, k) + model.sigma**2 * k / model.n
    return RiskBoundReport(exact_risk(model, r), bound, ok)


def struct_stat_pcp_bound(model: FixedDesignModel, k, r, nu) -> RiskBoundReport:
    """The risk of rank-k PCR on A R, for a d x s matrix ``r``, against exact
    PCR's risk + (2 nu + nu^2) |f|^2 / n, which requires
    d2(U_{AR,k}, U_{A,k}) <= nu."""
    r = as_matrix(r, "r")
    f_ar = thin_svd(model.a @ r)
    ok = subspace_distance(f_ar.u[:, :k], model.svd.u[:, :k]) <= nu + 1e-12
    risk = exact_risk(model, r @ f_ar.v[:, :k])
    bound = (exact_risk(model, model.svd.v[:, :k])
             + (2.0 * nu + nu**2) * float(model.f @ model.f) / model.n)
    return RiskBoundReport(risk, bound, ok)
