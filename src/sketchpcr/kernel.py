"""Polynomial-kernel PCR: exact via the Gram matrix, sketched via
TensorSketch, one fit per mode.

The degree-q polynomial kernel K(x, z) = (x^T z + c)^q corresponds to an
implicit feature matrix Phi with d^q columns. ``fit_exact`` never forms
Phi: it solves on the n x n Gram matrix K and keeps dual coefficients.
``sketched_kernel_pcr`` compresses Phi's columns with TensorSketch, one
batched call over all rows, worked through in cache-sized row panels, and
solves in the t-dimensional sketched feature space on the t x t Gram
matrix (Phi R)^T (Phi R). Both end in one Gram rule, which rejects an
overflowed Gram matrix and takes its top k eigenpairs and lambda_{k+1}
with one rank floor and gap check (:func:`sketchpcr.linalg.top_eigenpairs`:
numpy-only Lanczos, whose seeded restarts find every copy of a repeated
eigenvalue, as a planted kernel's equal top eigenvalues are, and whose
products read only the upper triangle of the Gram matrix). K and the
sketch share one panel size, ``linalg.PANEL``. A model keeps ``fitted``, its
predictions on the training rows. The non-homogeneous offset c is
handled by appending a constant sqrt(c) feature to every data point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PANEL, as_matrix, as_vector, top_eigenpairs
from .sketch import tensorsketch_apply


@dataclass(frozen=True)
class KernelSpec:
    degree: int
    offset: float = 0.0

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("kernel degree must be at least 1")
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValueError(f"kernel offset must be finite and nonnegative, got {self.offset}")


@dataclass(frozen=True)
class KernelModel:
    """A fitted kernel PCR model, exact or sketched by the coefficients it
    holds: ``train`` and ``alpha``, or ``ts`` and ``gamma``."""
    spec: KernelSpec
    fitted: np.ndarray = field(repr=False)  # predictions on the training rows
    train: np.ndarray | None = field(default=None, repr=False)  # exact only
    alpha: np.ndarray | None = field(default=None, repr=False)  # exact only
    ts: object | None = None                                    # sketched only
    gamma: np.ndarray | None = field(default=None, repr=False)  # sketched only


def _power(base, degree, out=None):
    """``base ** degree`` by degree - 1 multiplications, not one pow per
    entry, written to ``out`` when given."""
    if degree == 1:
        return base
    out = np.multiply(base, base, out=out)
    for _ in range(degree - 2):
        out *= base
    return out


def kernel_matrix(a, spec: KernelSpec):
    """n x n matrix with entries (a_i^T a_j + c)^q; symmetric PSD.

    On a contiguous ``a``, ``a @ a.T`` is one symmetric rank-update (syrk)
    and comes out exactly symmetric, so the power is too. The offset and
    the power then go in place over row panels of ``PANEL`` entries, each
    read and written while it is in cache. An entry that overflows is
    inf, which the fit rejects.
    """
    a = np.ascontiguousarray(as_matrix(a, "a"))
    with np.errstate(over="ignore"):
        k_mat = a @ a.T
        rows = max(1, PANEL // max(1, k_mat.shape[0]))   # n = 0 gives a 0 x 0 K
        scratch = np.empty((rows, k_mat.shape[0]))
        for start in range(0, k_mat.shape[0], rows):
            panel = k_mat[start:start + rows]
            panel += spec.offset
            if spec.degree > 1:   # x (x^(q-1)) is x^q bit for bit: products commute
                panel *= _power(panel, spec.degree - 1, out=scratch[:len(panel)])
        return k_mat


def augment_offset(a, offset):
    """Append the constant sqrt(c) feature that linearizes the offset."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if offset == 0.0:
        return a
    col = np.full((a.shape[0], 1), math.sqrt(offset))
    return np.hstack([a, col])


def _gram_pcr(gram, rhs, k, what):
    """U_k diag(lambda_i^-1) U_k^T rhs from the top k eigenpairs of a Gram
    matrix. A non-finite Gram matrix of finite data has overflowed float64.
    """
    if not np.isfinite(gram).all():
        raise ValueError(f"{what}: the Gram matrix overflowed float64; lower the "
                         "kernel degree, the offset or the scale of the data")
    lam_k, u_k = top_eigenpairs(gram, k, what)
    return u_k @ ((u_k.T @ rhs) / lam_k)


def fit_exact(a, b, k, spec: KernelSpec) -> KernelModel:
    """Dual rank-k PCR coefficients from the top-k eigenpairs of K.

    alpha = U_{K,k} diag(lambda_i^-1) U_{K,k}^T b, where K is
    ``kernel_matrix(a, spec)``; the model keeps the training rows and
    the spec to predict.
    """
    a = as_matrix(a, "a")
    b = as_vector(b, length=a.shape[0], name="b")
    if not 1 <= k <= len(b):
        raise ValueError(f"rank k={k} out of range [1, {len(b)}]")
    k_mat = kernel_matrix(a, spec)
    alpha = _gram_pcr(k_mat, b, k, "kernel matrix")
    return KernelModel(spec=spec, fitted=k_mat @ alpha, train=a, alpha=alpha)


def _point(z, features):
    """One data point ``z`` of ``features`` numbers, as a flat float64 vector."""
    if np.ndim(z) > 1:
        raise ValueError(f"z must be one point, got shape {np.shape(z)}")
    return as_vector(z, length=features, name="z")


def kernel_predict(model: KernelModel, z):
    """f(z) = sum_i K(z, a_i) alpha_i for an exact model."""
    if model.alpha is None:
        raise ValueError("kernel_predict needs an exact model")
    z = _point(z, model.train.shape[1])
    kvec = model.train @ z
    kvec += model.spec.offset
    kvec = _power(kvec, model.spec.degree)
    return float(kvec @ model.alpha)


def sketched_feature_matrix(a, ts, offset):
    """Rows of Phi R: the TensorSketch images of all rows of ``a``."""
    a = augment_offset(as_matrix(a, "a"), offset)
    if ts.in_dim != a.shape[1]:
        raise ValueError(
            f"TensorSketch expects {ts.in_dim} features, data has {a.shape[1]} "
            "(offset augmentation adds one)"
        )
    return tensorsketch_apply(ts, a)


def sketched_kernel_pcr(a, b, k, ts, offset=0.0) -> KernelModel:
    """Rank-k PCR in the TensorSketched feature space, never forming the
    d^q-column feature matrix Phi.

    gamma = V_k Lambda_k^-1 V_k^T (Phi R)^T b from the top k eigenpairs
    (lambda_i = sigma_i^2, V) of the t x t Gram matrix (Phi R)^T (Phi R),
    the V_k Sigma_k^-1 U_k^T b of the SVD of Phi R. The rank floor of every
    rank-k cut, sigma_k > ``linalg.RANK_FLOOR`` sigma_1, keeps the accuracy
    lost to squaring, of order eps lambda_1 / lambda_k, below 1e-6.
    """
    spec = KernelSpec(ts.degree, offset)
    a = as_matrix(a, "a")
    b = as_vector(b, length=a.shape[0], name="b")
    if not 1 <= k <= min(a.shape[0], ts.out_dim):
        raise ValueError(f"rank k={k} out of range for the sketched features")
    with np.errstate(over="ignore", invalid="ignore"):   # the Gram rule rejects inf or nan
        phi_r = sketched_feature_matrix(a, ts, offset)
        gram, rhs = phi_r.T @ phi_r, phi_r.T @ b
    gamma = _gram_pcr(gram, rhs, k, "Phi R")
    return KernelModel(spec=spec, fitted=phi_r @ gamma, ts=ts, gamma=gamma)


def sketched_kernel_predict(model: KernelModel, z):
    """f(z) = <TensorSketch(phi(z)), gamma> for a sketched model."""
    if model.gamma is None:
        raise ValueError("sketched_kernel_predict needs a sketched model")
    offset = model.spec.offset
    z = _point(z, model.ts.in_dim - (offset != 0.0))   # less the sqrt(c) feature
    return float(tensorsketch_apply(model.ts, augment_offset(z[None], offset)[0]) @ model.gamma)
