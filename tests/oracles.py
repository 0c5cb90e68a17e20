"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths under test: the SVD oracle is a
one-sided Jacobi iteration rather than LAPACK, feature maps are built by
explicit enumeration, and subspace distances come straight from
projector differences.
"""

import itertools
import math

import numpy as np


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


def principal_angles(u, w):
    sigma = np.clip(np.linalg.svd(u.T @ w, compute_uv=False), -1.0, 1.0)
    return np.arccos(sigma)


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


def countsketch_dense(op):
    """Dense CountSketch matrix built entry by entry from its hash tables."""
    m = np.zeros((op.out_dim, op.in_dim))
    for j in range(op.in_dim):
        m[op.rows[j], j] = op.signs[j]
    return m


def countsketch_apply_loop(op, a):
    """S @ a by a plain loop over the columns of S, summing in index order."""
    a = np.asarray(a, dtype=float)
    out = np.zeros((op.out_dim, a.shape[1]))
    for j in range(op.in_dim):
        for c in range(a.shape[1]):
            out[op.rows[j], c] += op.signs[j] * a[j, c]
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
