"""Polynomial-kernel PCR: exact via the Gram matrix, sketched via
TensorSketch, one fit per mode.

The degree-q polynomial kernel K(x, z) = (x^T z + c)^q corresponds to an
implicit feature matrix Phi with d^q columns. ``fit_exact`` never forms
Phi: it solves on the n x n Gram matrix K and keeps dual coefficients.
``sketched_kernel_pcr`` compresses Phi's columns with TensorSketch, one
batched call over all rows, and solves in the t-dimensional sketched
feature space, on the t x t Gram matrix of Phi R written in an
orthonormal real Fourier basis (:func:`sketchpcr.sketch.tensorsketch_fourier`):
the eigenvalues of (Phi R)^T (Phi R), with no inverse FFT. Each fit
builds only the upper triangle of its Gram matrix, all that is read of
it: K in row panels of ``linalg.PANEL`` entries, each raised to its power
and checked for overflow while it is in cache, and the sketched one by
one ``dsyrk`` (:func:`sketchpcr.linalg.upper_gram`). Both end in one Gram
rule, which takes the top k eigenpairs and lambda_{k+1} with one rank
floor and gap check (:func:`sketchpcr.linalg.top_eigenpairs`: numpy-only
Lanczos, whose seeded restarts find every copy of a repeated eigenvalue,
as a planted kernel's equal top eigenvalues are). A model keeps
``fitted``, its predictions on the training rows; one rule,
:func:`kernel_predict`, predicts with either model at one point or an
(m, d) batch. The non-homogeneous offset c is handled by appending a
constant sqrt(c) feature to every data point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (PANEL, _gram_product, as_matrix, as_vector, mirror_upper, top_eigenpairs,
                     upper_gram)
from .sketch import from_fourier, tensorsketch_apply, tensorsketch_fourier


@dataclass(frozen=True)
class KernelSpec:
    degree: int
    offset: float = 0.0

    def __post_init__(self):
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 1:
            raise ValueError(f"kernel degree must be an integer of at least 1, got {self.degree!r}")
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValueError(f"kernel offset must be finite and nonnegative, got {self.offset}")


@dataclass(frozen=True)
class KernelModel:
    """A fitted kernel PCR model, exact or sketched by the coefficients it
    holds: ``train`` and ``alpha``, or ``ts``, ``gamma`` and ``gamma_hat``,
    gamma in the Fourier basis that the sketched fit solves in. Either is a
    linear predictor in its own feature map, for :func:`kernel_predict`."""
    spec: KernelSpec
    fitted: np.ndarray = field(repr=False)  # predictions on the training rows
    train: np.ndarray | None = field(default=None, repr=False)      # exact only
    alpha: np.ndarray | None = field(default=None, repr=False)      # exact only
    ts: object | None = None                                        # sketched only
    gamma: np.ndarray | None = field(default=None, repr=False)      # sketched only
    gamma_hat: np.ndarray | None = field(default=None, repr=False)  # sketched only


def _power(base, degree, out=None):
    """``base ** degree`` by degree - 1 multiplications, not one pow per
    entry, written to ``out`` when given."""
    if degree == 1:
        return base
    out = np.multiply(base, base, out=out)
    for _ in range(degree - 2):
        out *= base
    return out


def _kernel_upper(a, spec: KernelSpec):
    """K's upper triangle and whether all of it is finite. What lies below
    the diagonal is not written, except inside the diagonal blocks.

    K is built in row panels of about ``PANEL`` entries, each the product
    ``a[rows] @ a.T[:, start:]`` of its rows from the diagonal on, formed
    in a contiguous block. While the block is in cache, the offset, the
    power and the overflow check go over it in place (an entry that
    overflows is inf or nan), and then it is copied into K: numpy's
    elementwise loops run 2-3 times slower on the strided panel of K.
    """
    a = np.ascontiguousarray(as_matrix(a, "a"))
    n = a.shape[0]
    k_mat = np.empty((n, n))
    block, scratch = np.empty(max(PANEL, n)), np.empty(max(PANEL, n))
    finite, start = True, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n:
            width = n - start
            rows = min(width, max(1, PANEL // width))
            panel = block[:rows * width].reshape(rows, width)
            np.matmul(a[start:start + rows], a.T[:, start:], out=panel)
            if spec.offset:
                panel += spec.offset
            if spec.degree > 1:   # x (x^(q-1)) is x^q bit for bit: products commute
                panel *= _power(panel, spec.degree - 1,
                                out=scratch[:rows * width].reshape(rows, width))
            finite = finite and bool(np.isfinite(panel).all())
            k_mat[start:start + rows, start:] = panel
            start += rows
    return k_mat, finite


def kernel_matrix(a, spec: KernelSpec):
    """n x n matrix with entries (a_i^T a_j + c)^q; symmetric PSD, the fit's
    upper triangle (:func:`_kernel_upper`) mirrored below the diagonal, so
    exactly symmetric. An entry that overflows is inf or nan, which the fit
    rejects."""
    return mirror_upper(_kernel_upper(a, spec)[0])


def _with_offset(a, offset):
    """The checked matrix ``a`` with the offset's sqrt(c) feature appended."""
    if offset == 0.0:
        return a
    return np.hstack([a, np.full((a.shape[0], 1), math.sqrt(offset))])


def augment_offset(a, offset):
    """Append the constant sqrt(c) feature that linearizes the offset to the
    rows of ``a``, a finite numeric matrix (one row if 1-D)."""
    return _with_offset(as_matrix(np.atleast_2d(a), "a"), offset)


def _overflowed(what):
    """The error for a Gram matrix that overflowed float64 on finite data."""
    return ValueError(f"{what}: the Gram matrix overflowed float64; lower the "
                      "kernel degree, the offset or the scale of the data")


def _gram_pcr(gram, rhs, k, what):
    """U_k diag(lambda_i^-1) U_k^T rhs from the top k eigenpairs of the
    Gram matrix whose upper triangle is that of ``gram``."""
    lam_k, u_k = top_eigenpairs(gram, k, what)
    return u_k @ ((u_k.T @ rhs) / lam_k)


def fit_exact(a, b, k, spec: KernelSpec) -> KernelModel:
    """Dual rank-k PCR coefficients from the top-k eigenpairs of K.

    alpha = U_{K,k} diag(lambda_i^-1) U_{K,k}^T b, where K is
    ``kernel_matrix(a, spec)``, of which the fit builds and reads only the
    upper triangle; the model keeps the training rows and the spec to
    predict.
    """
    a = as_matrix(a, "a")
    b = as_vector(b, length=a.shape[0], name="b")
    if not 1 <= k <= len(b):
        raise ValueError(f"rank k={k} out of range [1, {len(b)}]")
    k_upper, finite = _kernel_upper(a, spec)
    if not finite:
        raise _overflowed("kernel matrix")
    alpha = _gram_pcr(k_upper, b, k, "kernel matrix")
    return KernelModel(spec=spec, fitted=_gram_product(k_upper)(alpha), train=a, alpha=alpha)


def _rows(a, features, name):
    """``a`` as a finite float64 matrix of ``features`` columns, the offset's
    not counted: the width rule of the sketched fit and the predictor."""
    a = as_matrix(a, name)
    if a.shape[1] != features:
        raise ValueError(f"{name} has {a.shape[1]} features, expected {features} "
                         "(the offset's feature not counted)")
    return a


def _sketched_rows(a, ts, offset, finish):
    """``finish(ts, rows)`` on the rows of ``a`` with the offset's feature."""
    return finish(ts, _with_offset(_rows(a, ts.in_dim - (offset != 0.0), "a"), offset))


def sketched_feature_matrix(a, ts, offset):
    """Rows of Phi R: the TensorSketch images of all rows of ``a``."""
    return _sketched_rows(a, ts, offset, tensorsketch_apply)


def sketched_kernel_pcr(a, b, k, ts, offset=0.0) -> KernelModel:
    """Rank-k PCR in the TensorSketched feature space, never forming the
    d^q-column feature matrix Phi.

    gamma = V_k Lambda_k^-1 V_k^T (Phi R)^T b from the top k eigenpairs
    (lambda_i = sigma_i^2, V) of the t x t Gram matrix (Phi R)^T (Phi R),
    the V_k Sigma_k^-1 U_k^T b of the SVD of Phi R. The rank floor of every
    rank-k cut, sigma_k > ``linalg.RANK_FLOOR`` sigma_1, keeps the accuracy
    lost to squaring, of order eps lambda_1 / lambda_k, below 1e-6.

    The fit never forms Phi R: it solves on S = Phi R Q^T, the rows of
    :func:`~sketchpcr.sketch.tensorsketch_fourier` for an orthogonal Q,
    whose Gram matrix Q (Phi R)^T (Phi R) Q^T has the same eigenvalues.
    Its upper triangle comes from one ``dsyrk``. That gives gamma_hat =
    Q gamma, the coefficients of predictions S(z) gamma_hat, and one
    ``irfft`` gives gamma = Q^T gamma_hat
    (:func:`~sketchpcr.sketch.from_fourier`).
    """
    spec = KernelSpec(ts.degree, offset)
    a = as_matrix(a, "a")
    b = as_vector(b, length=a.shape[0], name="b")
    if not 1 <= k <= min(a.shape[0], ts.out_dim):
        raise ValueError(f"rank k={k} out of range for the sketched features")
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is inf or nan
        s_hat = _sketched_rows(a, ts, offset, tensorsketch_fourier)
        gram, rhs = upper_gram(s_hat), s_hat.T @ b
    if not np.isfinite(gram).all():
        raise _overflowed("Phi R")
    gamma_hat = _gram_pcr(gram, rhs, k, "Phi R")
    return KernelModel(spec=spec, fitted=s_hat @ gamma_hat, ts=ts,
                       gamma=from_fourier(gamma_hat), gamma_hat=gamma_hat)


def kernel_predict(model: KernelModel, z):
    """f(z) for one point ``z`` (0-D or 1-D), a float, or for each row of an
    (m, d) batch: sum_i K(z, a_i) alpha_i for an exact model, <S(z),
    gamma_hat> for a sketched one, S the fit's own rows of
    :func:`~sketchpcr.sketch.tensorsketch_fourier`; the fit's ValueError
    if a value overflows float64."""
    zs = np.asarray(z)
    if zs.ndim > 2:
        raise ValueError(f"z must be one point or an (m, d) batch, got shape {zs.shape}")
    one, spec, exact = zs.ndim < 2, model.spec, model.ts is None
    features = model.train.shape[1] if exact else model.ts.in_dim - (spec.offset != 0.0)
    zs = _rows(zs.reshape(1, -1) if one else zs, features, "z")
    with np.errstate(all="ignore"):   # an overflow is inf or nan
        if exact:
            kz = model.train @ zs.T   # oriented so that one point takes one gemv
            kz += spec.offset
            values = model.alpha @ _power(kz, spec.degree)
        else:
            values = tensorsketch_fourier(model.ts, _with_offset(zs, spec.offset)) @ model.gamma_hat
    if np.count_nonzero(np.isfinite(values)) != len(values):
        raise _overflowed("kernel matrix" if exact else "Phi R")
    return float(values[0]) if one else values


sketched_kernel_predict = kernel_predict   # the name perfbench's kernel-poly op calls
