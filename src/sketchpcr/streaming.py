"""One-pass row-insertion streaming approximate PCR.

Rows of A (and entries of b) arrive one at a time. Two sketch
accumulators are maintained: S A (to extract the compression basis R)
and T A together with T b (to solve the compressed regression without
storing A). Memory is a function of the sketch sizes and d only, never
of the number of rows seen. The final solve is the solvers' one rule,
:func:`sketchpcr.solvers.compressed_solve`, on T A R and T b.

Each sketch spec yields column i of its sketch as a pair (rows, values)
that indexes the accumulator, so one update statement serves both kinds.
CountSketch columns are realized lazily, so no stream length needs
fixing in advance: column i is (bucket, sign), read from the tables of
its block of ``HASH_BLOCK`` consecutive row indices, which are hashed at
once by the ``_hash_tables`` that ``gen_countsketch`` uses; column i is
therefore the column i of ``gen_countsketch`` under the same seed.
Subgaussian columns are (all rows, a Gaussian vector) drawn from one
Philox counter-based generator per spec, re-keyed to counter i << 128
for column i, which makes replays reproducible in any access order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_vector, require_gap, thin_svd
from .sketch import _hash_pair, _hash_tables, child_seeds
from .solvers import PcrSolution, compressed_solve

HASH_BLOCK = 4096          # CountSketch columns hashed per table


class StreamingCountSketch:
    """CountSketch over an unbounded column index, one +-1 per column."""

    kind = "countsketch"

    def __init__(self, out_dim, seed):
        self.out_dim = out_dim
        self.seed = seed
        self._h, self._g = _hash_pair(seed)
        self._block = None   # index of the block whose tables are held

    def column(self, index):
        """Column ``index`` as (rows, values): its one bucket and its sign."""
        block, offset = divmod(index, HASH_BLOCK)
        if block != self._block:
            rows, signs = _hash_tables(self._h, self._g, HASH_BLOCK, self.out_dim,
                                       start=block * HASH_BLOCK)
            self._rows, self._signs, self._block = rows.tolist(), signs.tolist(), block
        return self._rows[offset], self._signs[offset]


class StreamingGaussian:
    """Subgaussian sketch whose column i is replayable from (seed, i)."""

    kind = "subgaussian"

    def __init__(self, out_dim, seed):
        self.out_dim = out_dim
        self.seed = seed
        self._scale = 1.0 / math.sqrt(out_dim)
        bitgen = np.random.Philox(key=seed)
        self._bitgen, self._rng = bitgen, np.random.Generator(bitgen)
        # The state of a fresh Philox(key=seed, counter=c): empty buffer, no
        # cached 32-bit half; column() fills in the counter.
        self._state = bitgen.state
        self._counter = self._state["state"]["counter"]

    def column(self, index):
        """Column ``index`` < 2^64 as (rows, values): every row, a Gaussian
        vector.

        Drawn as Generator(Philox(key=seed, counter=index << 128)) would draw
        it, by re-keying the one generator to that counter; disjoint counter
        blocks per row index keep the columns independent.
        """
        self._counter[2] = index   # the third 64-bit word: index << 128
        self._bitgen.state = self._state
        values = self._rng.standard_normal(self.out_dim)
        values *= self._scale
        return slice(None), values


def _make_spec(kind, rows, seed):
    if kind == "countsketch":
        return StreamingCountSketch(rows, seed)
    if kind == "subgaussian":
        return StreamingGaussian(rows, seed)
    raise ValueError(f"unknown streaming sketch kind {kind!r}")


@dataclass
class StreamState:
    d: int
    s_spec: object
    t_spec: object
    sa: np.ndarray = field(repr=False)
    ta: np.ndarray = field(repr=False)
    tb: np.ndarray = field(repr=False)
    rows_seen: int = 0
    finalized: bool = False

    def memory_bytes(self):
        """Accumulator footprint; independent of rows_seen by construction."""
        return self.sa.nbytes + self.ta.nbytes + self.tb.nbytes


def stream_init(d, s_rows, t_rows, seed, s_kind="countsketch", t_kind="countsketch"):
    """Fresh zeroed accumulators with seeded hashing state."""
    if d < 1 or s_rows < 1 or t_rows < 1:
        raise ValueError("dimensions must be positive")
    seed_s, seed_t = child_seeds(seed, 2)
    return StreamState(
        d=d,
        s_spec=_make_spec(s_kind, s_rows, seed_s),
        t_spec=_make_spec(t_kind, t_rows, seed_t),
        sa=np.zeros((s_rows, d)),
        ta=np.zeros((t_rows, d)),
        tb=np.zeros(t_rows),
    )


def stream_update(st: StreamState, a_row, b_entry) -> StreamState:
    """Fold one (row of A, entry of b) pair into the accumulators.

    O(d) work for CountSketch, O(rows * d) for subgaussian. Mutates and
    returns the state.
    """
    if st.finalized:
        raise RuntimeError("stream state was already finalized")
    row = as_vector(a_row, length=st.d, name="a_row")
    b_entry = float(b_entry)
    if not math.isfinite(b_entry):
        raise ValueError("b entry is not finite")
    rows, values = st.s_spec.column(st.rows_seen)
    st.sa[rows] += np.multiply.outer(values, row)
    rows, values = st.t_spec.column(st.rows_seen)
    st.ta[rows] += np.multiply.outer(values, row)
    st.tb[rows] += values * b_entry
    st.rows_seen += 1
    return st


def stream_finalize(st: StreamState, k) -> PcrSolution:
    """Close the stream and return x = R (T A R)^+ T b with R = V_{SA,k}.

    S A and T A R are each checked for rank k and a gap at k: a rank below
    k (fewer than k rows of T, say) raises RankDeficiencyError. Final work
    is polynomial in d and the sketch sizes only. The state is consumed.
    """
    if st.finalized:
        raise RuntimeError("stream state was already finalized")
    t0 = time.perf_counter()
    st.finalized = True
    f = thin_svd(st.sa)
    require_gap(f.sigma, k, st.sa.shape, "S A")
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
