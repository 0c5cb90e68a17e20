"""Seeded input files for the benchmark workloads.

The inputs follow the paper's fixed-design model: per workload, the data
matrix A and the signal f are fixed (drawn from ``DESIGN_SEED``), and the
workload seed draws the response b = f + noise. Each generator plants
what its workload needs: a spectral gap at the target rank and a signal
with a fixed energy split across singular directions.

Every file is a pure function of (workload, seed, sizes): the same
arguments write byte-identical files, because floats are written with
``repr`` (shortest round-trip text) and rows in a fixed order. Next to
each data file sits a ``.json`` record with a SHA-256 digest of the
arrays as generated, which the benchmark compares against what
``sketchpcr.io`` reads back.

Run as a script to fill the cache for one workload:

    python3 perfbench/inputs.py <workload> <seed> <cache-dir> [<sizes as JSON>]
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

SRC = Path(__file__).resolve().parent.parent / "src"
# Cached files are reused only if written by this very generator code.
GENERATOR = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()

# Spawn keys separating the random streams drawn from one seed.
DATA_STREAM, WARMUP_STREAM, OP_STREAM = 0, 1, 2
# Seed of the fixed design (A and f) and of the accuracy panel's sketches.
DESIGN_SEED = 0

NOISE_LEVEL = 0.3  # response noise, as a share of the signal's RMS (as in `pcr --synthetic`)

SIZES = {
    "sparse-nnz": dict(n=100_000, d=2000, k=10, cols_per_topic=8, noise_per_row=2,
                       zipf=1.1, tau=0.12),
    "dense-certified": dict(n=3000, d=300, k=10, gap=0.3),
    # 5e3 rows, not 2e4, so that a run holds 60+ streams and a real tail.
    "stream-rows": dict(n=5000, d=50, k=5, gap=0.3),
    "kernel-poly": dict(n=2000, held_out=200, d=20, latent=3, spread=0.15),
}


def stream_seed(seed, stream, index=0):
    """Integer seed below 2**63 for one named stream of a workload seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def op_seed(seed, index, panel):
    """Sketch seed of op ``index``. The first ``panel`` ops draw the same
    sketches in every run (common random numbers for eps/upsilon, which
    vary 15-65% from one sketch to the next); later ops draw fresh ones."""
    return stream_seed(DESIGN_SEED if index < panel else seed, OP_STREAM, index)


def _planted_response(signal, rng):
    n = signal.shape[0]
    sigma = NOISE_LEVEL * np.linalg.norm(signal) / math.sqrt(n)
    return signal + sigma * rng.standard_normal(n)


def sparse_topics(seed, n, d, k, cols_per_topic, noise_per_row, zipf, tau):
    """CSR matrix with k planted topics over Zipf-popular columns, plus noise.

    Rows are split among k topics; each topic owns ``cols_per_topic``
    distinct columns drawn by Zipf popularity, and a row of topic r is
    strength_r * u_i * v_r on those columns. Disjoint supports make the
    signal exactly rank k with singular values ~ strength_r sqrt(n/k).
    ``noise_per_row`` extra entries per row, also Zipf-distributed over
    columns, carry N(0, tau^2) values and set sigma_{k+1} at about a
    third of sigma_k. Returns A and the signal A x_true, where x_true is
    v_r on the columns of topic r.
    """
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, d + 1) ** zipf
    pop = pop[rng.permutation(d)]
    pop /= pop.sum()
    topic_cols = rng.choice(d, size=k * cols_per_topic, replace=False, p=pop)
    topic_cols = topic_cols.reshape(k, cols_per_topic)
    topic = rng.integers(k, size=n)
    strength = np.linspace(1.0, 0.6, k)
    v = rng.standard_normal((k, cols_per_topic))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    u = rng.standard_normal(n)
    rows = np.repeat(np.arange(n), cols_per_topic + noise_per_row)
    cols = np.hstack([topic_cols[topic], rng.choice(d, size=(n, noise_per_row), p=pop)])
    vals = np.hstack([(strength[topic] * u)[:, None] * v[topic],
                      tau * rng.standard_normal((n, noise_per_row))])
    a = sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, d))
    a.sum_duplicates()
    a.sort_indices()
    x_true = np.zeros(d)
    x_true[topic_cols.ravel()] = v.ravel()
    return a, a @ x_true


def planted_dense(seed, n, d, k, gap):
    """``evaluation.planted_matrix`` (the generator behind ``pcr --synthetic``)
    and a signal of equal weight on its top k+3 left singular vectors.

    ``pcr --synthetic`` takes the signal A x_true for a random x_true; its
    share of energy past direction k then varies with x_true, and with it
    the additive objective error of every estimator (2x between draws at
    3000x300).
    """
    from sketchpcr import evaluation

    a = evaluation.planted_matrix(n, d, k, gap, seed=seed)
    u = np.linalg.svd(a, full_matrices=False)[0]
    return a, u[:, : k + 3].sum(axis=1)


def kernel_rows(seed, n, held_out, d, latent, spread):
    """Rows near a random ``latent``-dimensional subspace of R^d.

    Cubic monomials of 3 latent coordinates span 10 dimensions, so the
    degree-3 Gram matrix has 10 dominant eigenvalues and a clear gap at
    rank 10. The latent coordinates are uniform with unit variance:
    bounded, so no few rows dominate the Gram matrix as Gaussian cubes
    would. The signal is the sum of those monomials. Returns the
    n + held_out rows and the signal; the last held_out rows are for
    prediction.
    """
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, latent)))[0].T
    z = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(n + held_out, latent))
    x = z @ basis + spread * rng.standard_normal((n + held_out, d))
    x /= math.sqrt(float((x ** 2).sum(axis=1).mean()))
    monomials = [z[:, i] * z[:, j] * z[:, m]
                 for i in range(latent) for j in range(i, latent) for m in range(j, latent)]
    return x, np.sum(monomials, axis=0)


def _write_svmlight(path, a, b):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(a.shape[0]):
            lo, hi = a.indptr[i], a.indptr[i + 1]
            pairs = " ".join(f"{j + 1}:{v!r}" for j, v in
                             zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist()))
            fh.write(f"{float(b[i])!r} {pairs}\n")


def _write_csv(path, a, b):
    with open(path, "w", encoding="utf-8") as fh:
        for row, y in zip(a.tolist(), b.tolist()):
            fh.write(",".join(map(repr, row + [y])) + "\n")


GENERATORS = {"sparse-nnz": sparse_topics, "dense-certified": planted_dense,
              "stream-rows": planted_dense, "kernel-poly": kernel_rows}


def generate(workload, seed, path, sizes):
    """Write the workload's input file to ``path``; return its digest record."""
    a, signal = GENERATORS[workload](stream_seed(DESIGN_SEED, DATA_STREAM), **sizes)
    b = _planted_response(signal, np.random.default_rng(stream_seed(seed, DATA_STREAM)))
    if sp.issparse(a):
        _write_svmlight(path, a, b)
        return {"digest": digest(a.data, a.indices.astype(np.int64),
                                 a.indptr.astype(np.int64), b), "nnz": int(a.nnz)}
    _write_csv(path, a, b)
    return {"digest": digest(a, b)}


def input_path(cache_dir, workload, seed):
    ext = "svm" if workload == "sparse-nnz" else "csv"
    return Path(cache_dir) / f"{workload}-{seed}.{ext}"


def ensure(workload, seed, cache_dir, sizes):
    """Generate the input file unless the cache holds it; return (path, record).

    Writes go to temporary names and are renamed into place, so an
    interrupted run never leaves a truncated file under the final name.
    """
    path = input_path(cache_dir, workload, seed)
    meta = path.with_suffix(path.suffix + ".json")
    record = dict(sizes=sizes, generator=GENERATOR)
    if path.exists() and meta.exists():
        cached = json.loads(meta.read_text())
        if all(cached.get(key) == value for key, value in record.items()):
            return path, cached
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    record.update(generate(workload, seed, tmp, sizes))
    os.replace(tmp, path)
    meta_tmp = meta.with_name(meta.name + f".tmp{os.getpid()}")
    meta_tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(meta_tmp, meta)
    return path, record


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    name, seed_arg, cache = sys.argv[1:4]
    ensure(name, int(seed_arg), cache,
           json.loads(sys.argv[4]) if len(sys.argv) > 4 else SIZES[name])
