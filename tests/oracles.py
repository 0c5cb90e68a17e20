"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths under test: the SVD oracle is a
one-sided Jacobi iteration rather than LAPACK, feature maps are built by
explicit enumeration, TensorSketch also by whole-batch levels, the
sketched kernel fit in the real domain rather than a Fourier basis,
CountSketch hash tables by evaluating the hash
polynomials one key at a time, Gaussian sketch columns one at a time
from their whole generator block, and subspace distances come straight
from projector differences. ``write_svmlight`` writes what
``sketchpcr.io.load_svmlight`` must read back bit for bit.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import sketchpcr
from sketchpcr.kernel import augment_offset
from sketchpcr.linalg import require_gap
from sketchpcr.sketch import MERSENNE_P, _hash_pair, tensorsketch_apply


def jacobi_svd(a, tol=1e-13, max_sweeps=60):
    """One-sided Jacobi SVD: rotate column pairs until A^T A is diagonal.

    Returns (u, s, v) with a = u @ diag(s) @ v.T, singular values sorted
    nonincreasing. Independent of LAPACK.
    """
    a = np.array(a, dtype=float)
    m, n = a.shape
    transposed = m < n
    if transposed:
        a = a.T
        m, n = a.shape
    u = a.copy()
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = u[:, p] @ u[:, p]
                beta = u[:, q] @ u[:, q]
                gamma = u[:, p] @ u[:, q]
                off = max(off, abs(gamma) / math.sqrt(alpha * beta + 1e-300))
                if abs(gamma) < 1e-300:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                up, uq = u[:, p].copy(), u[:, q].copy()
                u[:, p] = c * up - s * uq
                u[:, q] = s * up + c * uq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if off < tol:
            break
    sigma = np.linalg.norm(u, axis=0)
    order = np.argsort(-sigma)
    sigma = sigma[order]
    v = v[:, order]
    u = u[:, order]
    nonzero = sigma > 1e-300
    u[:, nonzero] = u[:, nonzero] / sigma[nonzero]
    if transposed:
        return v, sigma, u
    return u, sigma, v


def projector(basis):
    return basis @ basis.T


def subspace_distance_projectors(u, w):
    """|P_U - P_W|_2, the definition of the subspace distance."""
    return float(np.linalg.norm(projector(u) - projector(w), 2))


def poly_features(a, degree):
    """Explicit degree-q tensor feature matrix with all d^q ordered monomials."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n, d = a.shape
    cols = []
    for combo in itertools.product(range(d), repeat=degree):
        col = np.ones(n)
        for idx in combo:
            col = col * a[:, idx]
        cols.append(col)
    return np.column_stack(cols)


def poly_feature_vector(z, degree):
    return poly_features(np.asarray(z)[None, :], degree)[0]


def poly(coeffs, key):
    """The polynomial with coefficients ``coeffs`` (constant first) at
    ``key``, modulo 2^61 - 1, in Python's unbounded integers."""
    return sum(c * pow(key, j, MERSENNE_P) for j, c in enumerate(coeffs)) % MERSENNE_P


def countsketch_tables(out_dim, in_dim, seed):
    """Row and sign of every column of the seeded CountSketch, from the two
    hash polynomials of ``_hash_pair(seed)`` evaluated one key at a time
    straight from their coefficients (even hash value: sign +1)."""
    h, g = _hash_pair(seed)
    rows = np.array([poly(h.coeffs, i) % out_dim for i in range(in_dim)], dtype=np.int64)
    signs = np.array([1.0 if poly(g.coeffs, i) % 2 == 0 else -1.0 for i in range(in_dim)])
    return rows, signs


def countsketch_dense(out_dim, in_dim, seed):
    """Dense CountSketch matrix built entry by entry from its hash tables."""
    rows, signs = countsketch_tables(out_dim, in_dim, seed)
    m = np.zeros((out_dim, in_dim))
    for j in range(in_dim):
        m[rows[j], j] = signs[j]
    return m


GAUSSIAN_BLOCK = 256   # columns per generator in the subgaussian draw rule


def sketch_column(kind, out_dim, i, seed):
    """Column i of the seeded sketch of ``kind``, as a dense vector, from
    the rule itself: the CountSketch's bucket and sign polynomials at key
    i, or row i mod 256 of the whole 256 x out_dim block that
    ``default_rng([seed, i // 256])`` draws, times 1/sqrt(out_dim)."""
    if kind == "countsketch":
        h, g = _hash_pair(seed)
        col = np.zeros(out_dim)
        col[poly(h.coeffs, i) % out_dim] = 1.0 if poly(g.coeffs, i) % 2 == 0 else -1.0
        return col
    rng = np.random.default_rng([seed, i // GAUSSIAN_BLOCK])
    return rng.standard_normal((GAUSSIAN_BLOCK, out_dim))[i % GAUSSIAN_BLOCK] * (
        1 / math.sqrt(out_dim))


def sketch_columns(kind, out_dim, n, seed):
    """Columns 0..n-1 of the seeded sketch of ``kind``, drawn one at a time."""
    return np.column_stack([sketch_column(kind, out_dim, i, seed) for i in range(n)])


def countsketch_csr_coo(out_dim, start, count, seed):
    """Columns start..start+count-1 of the seeded CountSketch as scipy
    builds CSR from (row, column) pairs, each column's row and sign from
    its hash polynomials evaluated by :func:`sketch_column`'s rule."""
    h, g = _hash_pair(seed)
    keys = range(start, start + count)
    rows = [poly(h.coeffs, i) % out_dim for i in keys]
    signs = [1.0 if poly(g.coeffs, i) % 2 == 0 else -1.0 for i in keys]
    return sp.coo_matrix((signs, (rows, range(count))), shape=(out_dim, count)).tocsr()


def countsketch_apply_loop(out_dim, seed, a):
    """S @ a by a plain loop over the columns of S, summing in index order."""
    a = np.asarray(a, dtype=float)
    rows, signs = countsketch_tables(out_dim, a.shape[0], seed)
    out = np.zeros((out_dim, a.shape[1]))
    for j in range(a.shape[0]):
        for c in range(a.shape[1]):
            out[rows[j], c] += signs[j] * a[j, c]
    return out


def tensorsketch_bruteforce(op, z):
    """Apply the TensorSketch by enumerating every monomial of phi(z)."""
    d, q, t = op.in_dim, op.degree, op.out_dim
    out = np.zeros(t)
    for combo in itertools.product(range(d), repeat=q):
        bucket = 0
        sign = 1.0
        value = 1.0
        for j, idx in enumerate(combo):
            bucket += int(op.row_tables[j][idx])
            sign *= op.sign_tables[j][idx]
            value *= z[idx]
        out[bucket % t] += sign * value
    return out


def tensorsketch_whole_batch(op, z):
    """Apply the TensorSketch to the (n, in_dim) batch ``z`` one level at a
    time over the whole batch: level j's (n, t) image from one bincount, its
    spectrum from one rfft, the product of the q spectra, one irfft."""
    n, t = z.shape[0], op.out_dim
    offsets = np.arange(n)[:, None] * t
    images = [np.bincount((offsets + rows).ravel(), weights=(z * signs).ravel(),
                          minlength=n * t).reshape(n, t)
              for rows, signs in zip(op.row_tables, op.sign_tables)]
    if op.degree == 1:
        return images[0]
    spectrum = np.fft.rfft(images[0])
    for image in images[1:]:
        spectrum *= np.fft.rfft(image)
    return np.fft.irfft(spectrum, n=t)


def sketched_fit_real_domain(a, b, k, ts, offset):
    """The sketched kernel fit solved in the real domain: Phi R from
    ``tensorsketch_apply``, its whole Gram matrix ``m.T @ m``, all of its
    eigenpairs from numpy's dense ``eigh`` rather than Lanczos, and the
    library's one verdict on the rank-k cut (``require_gap``). Returns
    (gamma, fitted), or raises that verdict."""
    m = tensorsketch_apply(ts, augment_offset(a, offset))
    lam, u = np.linalg.eigh(m.T @ m)
    lam, u = lam[::-1], u[:, ::-1]
    require_gap(np.sqrt(np.maximum(lam, 0.0)), k, "Phi R")
    gamma = u[:, :k] @ ((u[:, :k].T @ (m.T @ b)) / lam[:k])
    return gamma, m @ gamma


def tensorsketch_materialize(op):
    """Explicit (in_dim^q, out_dim) TensorSketch matrix from its hash tables,
    one row per ordered monomial; for small cases only."""
    d, q, t = op.in_dim, op.degree, op.out_dim
    n_rows = d ** q
    grids = np.meshgrid(*[np.arange(d)] * q, indexing="ij")
    idx = [g.ravel() for g in grids]
    buckets = np.zeros(n_rows, dtype=np.int64)
    signs = np.ones(n_rows)
    for j in range(q):
        buckets += op.row_tables[j][idx[j]]
        signs *= op.sign_tables[j][idx[j]]
    buckets %= t
    r = np.zeros((n_rows, t))
    r[np.arange(n_rows), buckets] = signs
    return r


def rotated_basis(v_k, v_rest, theta):
    """Orthonormal basis whose principal angles to span(v_k) all equal theta."""
    k = v_k.shape[1]
    w = v_rest[:, :k]
    return v_k * math.cos(theta) + w * math.sin(theta)


def reduced_ls_objective(a, b, basis):
    """Brute-force min_x |A x - b| over x in span(basis), via lstsq."""
    ab = a @ basis
    gamma, *_ = np.linalg.lstsq(ab, b, rcond=None)
    x = basis @ gamma
    return float(np.linalg.norm(a @ x - b)), x


def write_svmlight(path, x, b):
    """Write (x, b) in svmlight format, each float as its shortest
    round-trip repr, so that reading it back reproduces it bit for bit."""
    x = sp.csr_matrix(x)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(x.shape[0]):
            lo, hi = x.indptr[i], x.indptr[i + 1]
            pairs = " ".join(f"{j + 1}:{float(v)!r}"
                             for j, v in zip(x.indices[lo:hi], x.data[lo:hi]))
            fh.write(f"{float(b[i])!r} {pairs}".rstrip() + "\n")


def run_at_blas_threads(script, threads):
    """The JSON that ``script`` prints, run in a fresh interpreter whose BLAS
    uses ``threads`` threads: one run is the reference for another."""
    src = str(Path(sketchpcr.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)
