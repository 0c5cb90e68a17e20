"""One-pass row-insertion streaming approximate PCR.

Rows of A (and entries of b) arrive one at a time, by
:func:`stream_update`, or as blocks of rows, by :func:`stream_block`.
Two sketch accumulators are maintained: S A (to extract the compression
basis R) and T A together with T b (to solve the compressed regression
without storing A). Each checked row and its b entry go into a buffer
of ``fold`` rows; when it fills, and when the stream is finalized, the
whole block is folded in with one product per sketch, so the
accumulators are complete once the stream is finalized. A checked block
is copied into the buffer up to each fold boundary in turn, so its
rows fold in the groups, and sum in the order, of the same rows fed one
at a time; a CSR block is densified into the buffer that way, fold by
fold, and never whole.

``fold`` is set once, by :func:`fold_rows`, from d and the sketch specs:
the most whole ``SKETCH_BLOCK``s of rows, at least one, whose row buffer
(d + 1 floats a row) and the dense Gaussian columns drawn to fold it
(out_dim floats a row, for the wider subgaussian sketch) fit
``FOLD_BUDGET`` floats. Narrow rows fold many generator blocks at once,
so a fold's fixed cost (hashing, building the CountSketch block,
starting the generators) is paid a few times per stream rather than
every 256 rows; rows wider than the budget allows fold 256 at a time.
Memory is the accumulators plus a buffer of at most
max(``FOLD_BUDGET``, 256 (d + 1)) floats, a function of the sketch sizes
and d only, never of the number of rows seen; a caller feeding blocks
holds one block besides. The final solve is the solvers' one rule,
:func:`sketchpcr.solvers.compressed_solve`, on T A R and T b.

The stream's S and T are the batch sketches themselves: a spec's
``block(start, count)`` is columns start..start+count-1 of
``gen_countsketch`` or ``gen_subgaussian`` under the spec's seed, by
the column functions of :mod:`sketchpcr.sketch`. So folding a block is
``block(start, count) @ rows`` for both kinds, no stream length needs
fixing in advance, and a stream of n rows equals the batch estimator
on the n-column sketches. A fold starts on a generator-block boundary,
so no Gaussian column is drawn and dropped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import _numeric_array, _require_finite, as_matrix, as_vector, require_gap, thin_svd
from .sketch import (
    SKETCH_BLOCK,
    _hash_pair,
    child_seeds,
    countsketch_columns,
    subgaussian_columns,
)
from .solvers import PcrSolution, compressed_solve

FOLD_BUDGET = 1 << 17      # floats: a fold's row buffer plus its Gaussian columns


class SketchSpec:
    """The seeded batch sketch of one kind, read a column block at a time."""

    def __init__(self, kind, out_dim, seed):
        if kind not in ("countsketch", "subgaussian"):
            raise ValueError(f"unknown streaming sketch kind {kind!r}")
        self.kind, self.out_dim, self.seed = kind, out_dim, seed
        self._hashes = _hash_pair(seed) if kind == "countsketch" else None  # drawn once

    def block(self, start, count):
        """Columns start..start+count-1 of the sketch, as a matrix."""
        if self.kind == "countsketch":
            return countsketch_columns(self.out_dim, start, count, self._hashes)
        return subgaussian_columns(self.out_dim, start, count, self.seed)


@dataclass
class StreamState:
    d: int
    s_spec: SketchSpec
    t_spec: SketchSpec
    sa: np.ndarray = field(repr=False)
    ta: np.ndarray = field(repr=False)
    tb: np.ndarray = field(repr=False)
    # Rows per fold, fold_rows(d, s_spec, t_spec). The first
    # rows_seen % fold rows of buf_a, and entries of buf_b, are not yet
    # folded into the accumulators.
    fold: int
    buf_a: np.ndarray = field(repr=False)
    buf_b: np.ndarray = field(repr=False)
    rows_seen: int = 0
    finalized: bool = False

    def memory_bytes(self):
        """Accumulators plus the fold-row buffer: (s + t) d + t + fold (d + 1)
        floats, independent of rows_seen by construction."""
        return sum(m.nbytes for m in (self.sa, self.ta, self.tb, self.buf_a, self.buf_b))


def fold_rows(d, s_spec, t_spec):
    """Rows per fold for rows of length d: the largest multiple of
    ``SKETCH_BLOCK``, at least one, whose row buffer and the larger of the
    dense Gaussian blocks drawn to fold it (the two are drawn one after
    the other) fit ``FOLD_BUDGET`` floats."""
    gaussian = max((spec.out_dim for spec in (s_spec, t_spec) if spec.kind == "subgaussian"),
                   default=0)
    return SKETCH_BLOCK * max(1, FOLD_BUDGET // (SKETCH_BLOCK * (d + 1 + gaussian)))


def stream_init(d, s_rows, t_rows, seed, s_kind="countsketch", t_kind="countsketch"):
    """Fresh zeroed accumulators with seeded hashing state."""
    if d < 1 or s_rows < 1 or t_rows < 1:
        raise ValueError("dimensions must be positive")
    seed_s, seed_t = child_seeds(seed, 2)
    s_spec, t_spec = SketchSpec(s_kind, s_rows, seed_s), SketchSpec(t_kind, t_rows, seed_t)
    fold = fold_rows(d, s_spec, t_spec)
    return StreamState(
        d=d,
        s_spec=s_spec,
        t_spec=t_spec,
        sa=np.zeros((s_rows, d)),
        ta=np.zeros((t_rows, d)),
        tb=np.zeros(t_rows),
        fold=fold,
        buf_a=np.empty((fold, d)),
        buf_b=np.empty(fold),
    )


def _fold(st, count):
    """Add the first ``count`` buffered rows, which are stream rows
    rows_seen-count..rows_seen-1, into the accumulators."""
    start = st.rows_seen - count
    a_blk, b_blk = st.buf_a[:count], st.buf_b[:count]
    st.sa += st.s_spec.block(start, count) @ a_blk
    t_blk = st.t_spec.block(start, count)
    st.ta += t_blk @ a_blk
    st.tb += t_blk @ b_blk


def _b_value(b_entry):
    """``b_entry``, a real number or a 0-d numeric array, as a finite float."""
    if not isinstance(b_entry, float):   # Python floats and np.float64 pass as they are
        b = _numeric_array(b_entry, "b_entry")
        if b.ndim:
            raise ValueError(f"b_entry must be a scalar, got shape {b.shape}")
        b_entry = float(b)
    if not math.isfinite(b_entry):
        raise ValueError("b_entry is not finite")
    return b_entry


def stream_update(st: StreamState, a_row, b_entry) -> StreamState:
    """Take one (row of A, entry of b) pair into the stream.

    The row must be d finite numbers and the b entry one finite number;
    strings and other non-numeric values are rejected, not parsed. The
    pair is buffered, and every ``st.fold`` rows the buffer is folded into
    the accumulators. A rejected pair raises ValueError and leaves the
    state as it was. Mutates and returns the state.
    """
    if st.finalized:
        raise RuntimeError("stream state was already finalized")
    row = as_vector(a_row, length=st.d, name="a_row")
    b_entry = _b_value(b_entry)
    pos = st.rows_seen % st.fold
    st.buf_a[pos] = row
    st.buf_b[pos] = b_entry
    st.rows_seen += 1
    if pos + 1 == st.fold:
        _fold(st, st.fold)
    return st


def _block_rows(a_blk, d):
    """``a_blk`` as an (m, d) float64 array or CSR matrix of finite
    entries; strings and other non-numeric values raise ValueError."""
    if sp.issparse(a_blk):
        a = a_blk.tocsr()
        _require_finite(_numeric_array(a.data, "a_block"), "a_block")
        a = a.astype(float, copy=False)
    else:
        a = as_matrix(a_blk, "a_block")
    if a.shape[1] != d:
        raise ValueError(f"a_block must have {d} columns, got shape {a.shape}")
    return a


def stream_block(st: StreamState, a_blk, b_blk) -> StreamState:
    """Take m rows of A, an (m, d) array or CSR matrix, and their m entries
    ``b_blk`` of b into the stream.

    The same checks as :func:`stream_update`'s apply to every entry, and a
    rejected block raises ValueError and leaves the state as it was. The
    rows are copied into the buffer up to each fold boundary in turn, and
    the buffer is folded whenever it fills, so the result is that of
    feeding the rows one at a time. Mutates and returns the state.
    """
    if st.finalized:
        raise RuntimeError("stream state was already finalized")
    a = _block_rows(a_blk, st.d)
    b = _numeric_array(b_blk, "b_block")
    if b.shape != (a.shape[0],):
        raise ValueError(f"b_block must have shape ({a.shape[0]},), got {b.shape}")
    _require_finite(b, "b_block")
    i = 0
    while i < len(b):
        pos = st.rows_seen % st.fold
        n = min(st.fold - pos, len(b) - i)   # rows up to the next fold boundary
        if sp.issparse(a):
            a[i:i + n].toarray(out=st.buf_a[pos:pos + n])
        else:
            st.buf_a[pos:pos + n] = a[i:i + n]
        st.buf_b[pos:pos + n] = b[i:i + n]
        st.rows_seen += n
        i += n
        if pos + n == st.fold:
            _fold(st, st.fold)
    return st


def stream_finalize(st: StreamState, k) -> PcrSolution:
    """Close the stream and return x = R (T A R)^+ T b with R = V_{SA,k}.

    S A and T A R are each checked for rank k and a gap at k: a rank below
    k (fewer than k rows of T, say) raises RankDeficiencyError. Final work
    is polynomial in d and the sketch sizes only. The buffered rows are
    folded in first, so the accumulators are complete; the state is
    consumed.
    """
    if st.finalized:
        raise RuntimeError("stream state was already finalized")
    t0 = time.perf_counter()
    st.finalized = True
    _fold(st, st.rows_seen % st.fold)
    f = thin_svd(st.sa)
    require_gap(f.sigma, k, "S A")
    r = f.lead(k).v
    x = compressed_solve(r, st.ta @ r, st.tb, k, "T A R")
    return PcrSolution(
        x=x,
        method="stream",
        r_cols=k,
        objective=None,
        constraint_norm=None,
        wall_time=time.perf_counter() - t0,
    )
