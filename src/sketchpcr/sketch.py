"""Seeded random sketching operators.

Three families: dense subgaussian maps, CountSketch sparse embeddings
(one random +-1 per column), and TensorSketch for implicit degree-q
polynomial feature maps. All generators are pure functions of
(dimensions, seed); identical inputs rebuild bit-identical operators.

Every batch sketch is the matrix it stands for: ``gen_subgaussian``
returns a dense ndarray and ``gen_countsketch`` a scipy CSR matrix with
one +-1 per column, so applying a sketch is ``op @ a``. A TensorSketch
keeps its q hash tables; it sums the q levels' CountSketch images of a
panel of rows straight from them with one ``np.bincount``, and combines
them by one length-t circular convolution, a product of spectra. One
panel loop (``_panel_spectra``) ends at each panel's product spectrum:
``tensorsketch_apply`` finishes it with an inverse FFT,
``tensorsketch_fourier`` by packing it into an orthonormal real Fourier
basis, with none.

Each plain kind has one column rule and one function for any range of
columns of the seeded sketch, ``countsketch_columns`` and
``subgaussian_columns``; the batch generators are their start-0 case,
and the stream folds column blocks of the same sketches. CountSketch
column i holds the sign g(i) in row h(i) mod out_dim. Subgaussian column
i is row i mod B of ``default_rng([seed, i // B]).standard_normal((B,
out_dim))`` times 1/sqrt(out_dim), B = ``SKETCH_BLOCK``, so no column
depends on how many are drawn or in which order.

Hash functions are realized as random polynomials over the Mersenne
prime field 2^61 - 1 (degree 3 for bucket hashes, degree 4 for sign
hashes), which gives the limited independence the sketches need while
staying reproducible. A hash is evaluated vectorized over an array of
keys, by Horner's rule in uint64 limbs with exact reduction modulo
2^61 - 1; CountSketch and TensorSketch share that one path
(``_hash_tables``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import PANEL, as_matrix, spectral_norm

MERSENNE_P = (1 << 61) - 1
HASH_DEGREE = 3
SIGN_DEGREE = 4
DEFAULT_GRAM_CONST = 8.0
SKETCH_BLOCK = 256         # Gaussian columns per generator; part of the draw rule


class PolyHash:
    """Random polynomial over GF(2^61 - 1), evaluated at integer keys."""

    def __init__(self, coeffs):
        self.coeffs = [int(c) % MERSENNE_P for c in coeffs]

    @classmethod
    def draw(cls, rng, degree):
        coeffs = [int(rng.integers(0, MERSENNE_P)) for _ in range(degree + 1)]
        return cls(coeffs)

    def values(self, keys):
        """The polynomial at every key in [0, 2^64), as a uint64 array, by
        Horner's rule with each step reduced in :func:`_mul_add_mod_p`."""
        x = _mod_p(np.asarray(keys, dtype=np.uint64))
        acc = np.full(x.shape, self.coeffs[-1], dtype=np.uint64)
        for c in reversed(self.coeffs[:-1]):
            acc = _mul_add_mod_p(acc, x, np.uint64(c))
        return acc


_P = np.uint64(MERSENNE_P)
_LO32 = np.uint64(0xFFFFFFFF)
_LO29 = np.uint64((1 << 29) - 1)


def _mod_p(x):
    """x mod 2^61 - 1 for uint64 x: fold the bits above 2^61, as 2^61 = 1."""
    x = (x & _P) + (x >> np.uint64(61))   # < 2^61 + 8
    x[x >= _P] -= _P
    return x


def _mul_add_mod_p(a, b, c):
    """a * b + c mod 2^61 - 1 for uint64 a, b, c < 2^61, exactly, in uint64 limbs.

    With a = a1 2^32 + a0 and b = b1 2^32 + b0 (a1, b1 < 2^29), the
    product is a1 b1 2^64 + (a1 b0 + a0 b1) 2^32 + a0 b0. Modulo p,
    2^64 = 8 and the middle term m 2^32 = (m >> 29) + (m mod 2^29) 2^32;
    the sum of the folded terms and c stays below 2^64.
    """
    a0, a1 = a & _LO32, a >> np.uint64(32)
    b0, b1 = b & _LO32, b >> np.uint64(32)
    mid = a1 * b0 + a0 * b1                 # < 2^62
    low = a0 * b0                           # < 2^64
    out = (a1 * b1) << np.uint64(3)         # < 2^61
    out += mid >> np.uint64(29)             # < 2^33
    out += (mid & _LO29) << np.uint64(32)   # < 2^61
    out += low & _P                         # < 2^61
    out += low >> np.uint64(61)             # < 8
    out += c                                # < 2^61
    return _mod_p(out)


def child_seeds(seed, n):
    """n independent seeds drawn from ``seed``, one per random draw of the
    caller; the first m of them do not depend on n."""
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**63 - 1, size=n)]


def _hash_pair(seed):
    rng = np.random.default_rng(seed)
    return PolyHash.draw(rng, HASH_DEGREE), PolyHash.draw(rng, SIGN_DEGREE)


def _hash_tables(h, g, in_dim, out_dim, start=0):
    """Bucket and sign of every column index start..start+in_dim-1 under
    hashes (h, g)."""
    keys = np.arange(start, start + in_dim, dtype=np.uint64)
    rows = (h.values(keys) % np.uint64(out_dim)).astype(np.int64)
    signs = np.where((g.values(keys) & 1) == 0, 1.0, -1.0)
    return rows, signs


@dataclass(frozen=True)
class TensorSketch:
    degree: int
    in_dim: int
    out_dim: int
    row_tables: np.ndarray = field(repr=False)   # (degree, in_dim) bucket ids
    sign_tables: np.ndarray = field(repr=False)  # (degree, in_dim) +-1


def countsketch_columns(out_dim, start, count, hashes):
    """Columns start..start+count-1 of the CountSketch with bucket and sign
    hashes ``hashes = _hash_pair(seed)``, as an out_dim x count CSR matrix."""
    rows, signs = _hash_tables(*hashes, count, out_dim, start)
    # One entry per column is already CSC form; its conversion sorts each
    # row's entries by column, as a COO build would, for less overhead.
    return sp.csc_matrix((signs, rows, np.arange(count + 1)), shape=(out_dim, count)).tocsr()


def subgaussian_columns(out_dim, start, count, seed):
    """Columns start..start+count-1 of the seeded N(0, 1/out_dim) sketch, as
    an out_dim x count ndarray (the transpose of a C-ordered array).

    Each generator block is drawn only up to the last column asked for,
    which its sequential draw makes a prefix of the whole block; the
    block's columns before ``start`` are drawn and dropped.
    """
    cols = np.empty((count, out_dim))   # row j is column start + j
    stop, i = start + count, start
    while i < stop:
        blk, lo = divmod(i, SKETCH_BLOCK)
        end = min(stop, (blk + 1) * SKETCH_BLOCK)
        rng = np.random.default_rng([seed, blk])
        if lo:
            rng.standard_normal((lo, out_dim))
        rng.standard_normal(out=cols[i - start:end - start])
        i = end
    cols *= 1.0 / math.sqrt(out_dim)
    return cols.T


def gen_subgaussian(out_dim, in_dim, seed):
    """Dense i.i.d. N(0, 1/out_dim) sketch, so S^T S = I in expectation."""
    if out_dim < 1 or in_dim < 1:
        raise ValueError("sketch dimensions must be positive")
    return subgaussian_columns(out_dim, 0, in_dim, seed)


def gen_countsketch(out_dim, in_dim, seed):
    """Sparse CSR embedding with exactly one random +-1 per column."""
    if out_dim < 1 or in_dim < 1:
        raise ValueError("sketch dimensions must be positive")
    return countsketch_columns(out_dim, 0, in_dim, _hash_pair(seed))


def gen_tensorsketch(q, in_dim, out_dim, seed):
    """TensorSketch for the degree-q tensor-product feature map on R^in_dim.

    Draws q bucket hashes h_1..h_q and q sign hashes g_1..g_q; the implicit
    sketch maps the monomial indexed by (i_1, ..., i_q) to bucket
    (h_1(i_1) + ... + h_q(i_q)) mod out_dim with sign g_1(i_1)...g_q(i_q).
    """
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"degree must be an integer of at least 1, got {q!r}")
    if out_dim < 1 or in_dim < 1:
        raise ValueError("sketch dimensions must be positive")
    rng = np.random.default_rng(seed)   # each level's hash pair continues this stream
    rows = np.empty((q, in_dim), dtype=np.int64)
    signs = np.empty((q, in_dim))
    for j in range(q):
        rows[j], signs[j] = _hash_tables(*_hash_pair(rng), in_dim, out_dim)
    return TensorSketch(degree=q, in_dim=in_dim, out_dim=out_dim,
                        row_tables=rows, sign_tables=signs)


def _dense(m):
    """``m`` as an ndarray; products with a sparse sketch may come back sparse."""
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def apply_left(op, a):
    """Compute op @ a for a dense or sparse matrix ``a``, as an ndarray.

    For a CountSketch this is one pass over the stored entries of ``a``.
    """
    if not sp.issparse(a):
        a = as_matrix(a, "a")
    if op.shape[1] != a.shape[0]:
        raise ValueError(f"operator expects {op.shape[1]} rows, got {a.shape[0]}")
    return _dense(op @ a)


def _panel_spectra(op, z):
    """(rows, spectrum) for each panel of rows of the (n, in_dim) batch
    ``z``: the product of its q levels' spectra, or at degree 1 its plain
    CountSketch image.

    A panel holds as many points as keep its image at each level near
    ``PANEL`` entries, so the images and their spectra stay in cache. It
    takes all q images in one ``bincount`` and their spectra in one
    ``rfft``; every point's sums, transforms and products are those of a
    whole-batch pass, bit for bit.
    """
    q, t = op.degree, op.out_dim
    step = max(1, PANEL // t)   # points per panel
    for start in range(0, z.shape[0], step):
        panel = z[start:start + step]
        r = len(panel)
        # level j's image of point i sums into bins (j r + i) t + h_j(feature)
        bins = np.arange(0, q * r * t, t).reshape(q, r, 1) + op.row_tables[:, None, :]
        images = np.bincount(bins.ravel(), weights=(panel * op.sign_tables[:, None, :]).ravel(),
                             minlength=q * r * t).reshape(q, r, t)
        if q == 1:
            yield slice(start, start + r), images[0]
            continue
        spectra = np.fft.rfft(images)
        spectrum = spectra[0]
        for level in spectra[1:]:
            spectrum *= level
        yield slice(start, start + r), spectrum


def _points(op, z):
    """``z`` as a finite (n, in_dim) batch of points for ``op``."""
    zs = as_matrix(np.atleast_2d(z), "z")
    if zs.shape[1] != op.in_dim:
        raise ValueError(f"z has {zs.shape[1]} features, expected {op.in_dim}")
    return zs


def tensorsketch_apply(op, z):
    """Image of the implicit feature vector phi(z) under the sketch.

    ``z`` is one vector of length in_dim or an (n, in_dim) batch, one
    point per row; the result is a length-t vector or an (n, t) matrix.
    Equal to the length-t circular convolution of the q CountSketch
    images S_j z, computed as irfft(prod_j rfft(S_j z)) panel by panel
    (:func:`_panel_spectra`); degree 1 needs no convolution and is
    exactly a plain CountSketch.
    """
    zs = _points(op, z)
    t = op.out_dim
    out = np.empty((zs.shape[0], t))
    for rows, spectrum in _panel_spectra(op, zs):
        out[rows] = spectrum if op.degree == 1 else np.fft.irfft(spectrum, n=t)
    return out[0] if np.ndim(z) == 1 else out


@functools.cache
def _fourier_weights(t):
    """The weight of each of the t real Fourier coordinates: sqrt(1/t) at
    the constant term and, for even t, at the Nyquist term, sqrt(2/t) on the
    real and imaginary part of every other frequency. So, by Parseval's
    identity, they make the real DFT an orthogonal map Q of R^t. Read-only:
    one array serves every call."""
    w = np.full(t, math.sqrt(2.0 / t))
    w[0] = math.sqrt(1.0 / t)
    if t % 2 == 0:
        w[-1] = w[0]
    w.flags.writeable = False
    return w


def tensorsketch_fourier(op, z):
    """The rows of :func:`tensorsketch_apply`'s image in an orthonormal real
    Fourier basis: Phi R Q^T for the orthogonal Q of the real DFT, with no
    inverse transform. Each row packs its spectrum s into t real numbers,
    Re s_0, then Re s_f, Im s_f for 0 < f < t/2, then Re s_{t/2} when t is
    even, each times its :func:`_fourier_weights`. So inner products of
    rows, and all that the sketched fit reads, are those of Phi R up to
    rounding; :func:`from_fourier` maps coefficients back by Q^T.
    """
    zs = _points(op, z)
    t = op.out_dim
    w = _fourier_weights(t)
    out = np.empty((zs.shape[0], t))
    for rows, spectrum in _panel_spectra(op, zs):
        if op.degree == 1:
            spectrum = np.fft.rfft(spectrum)
        parts, block = spectrum.view(float), out[rows]   # Re s_0, Im s_0, Re s_1, ...
        block[:, 0], block[:, 1:] = parts[:, 0], parts[:, 2:t + 1]
        block *= w
    return out[0] if np.ndim(z) == 1 else out


def from_fourier(c):
    """Q^T c for the orthogonal Q of :func:`tensorsketch_fourier`: the real
    length-t vector whose Fourier coordinates are ``c``, one ``irfft``."""
    t = len(c)
    scaled, parts = c / _fourier_weights(t), np.zeros(2 * (t // 2 + 1))
    parts[0], parts[2:t + 1] = scaled[0], scaled[1:]
    return np.fft.irfft(parts.view(complex), n=t)


@dataclass(frozen=True)
class GramErrorReport:
    spectral_error: float    # |X^T S^T S X - X^T X|_2
    normalized_error: float  # divided by |X|_2^2
    passed: bool


def gram_error(op, x, eps):
    """Measure how well the sketch preserves the Gram matrix of ``x``.

    Passes when |X^T S^T S X - X^T X|_2 <= eps * |X|_2^2.
    """
    x = as_matrix(x, "x")
    sx = apply_left(op, x)
    err = spectral_norm(sx.T @ sx - x.T @ x)
    x2 = spectral_norm(x) ** 2
    return GramErrorReport(
        spectral_error=err,
        normalized_error=err / x2 if x2 > 0 else 0.0,
        passed=bool(err <= eps * x2),
    )


def sketch_rows_for_gram(kind, stable_rank, eps, delta):
    """Rows needed for the (eps, delta)-approximate Gram property.

    Uses c * (sr + ln(1/delta)) / eps^2 for subgaussian maps and
    c * sr^2 / (eps^2 * delta) for CountSketch, with c =
    ``DEFAULT_GRAM_CONST``. The asymptotic statements leave the constant
    open; this one is calibrated on the synthetic Monte Carlo suite.
    """
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if stable_rank <= 0:
        raise ValueError("stable rank must be positive")
    if kind == "subgaussian":
        raw = DEFAULT_GRAM_CONST * (stable_rank + math.log(1.0 / delta)) / eps**2
    elif kind == "countsketch":
        raw = DEFAULT_GRAM_CONST * stable_rank**2 / (eps**2 * delta)
    else:
        raise ValueError(f"no Gram sizing rule for kind {kind!r}")
    return max(1, math.ceil(raw))
