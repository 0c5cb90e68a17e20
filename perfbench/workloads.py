"""The four benchmark workloads.

Each workload reads its input file through ``sketchpcr.io`` (the set-up
that ``setup_s`` times), computes an exact rank-k reference with
numpy/scipy alone (never through ``sketchpcr.linalg`` or
``solvers.certify``), runs one op per call of :meth:`Workload.op` through
the library's public entry points, and checks each op's solutions
against the reference in :meth:`Workload.check`, outside the timed
region.

Library functions are always looked up on their module at call time
(``solvers.exact_pcr``, not a name imported once), so the tracer's
wrappers see every call.

Accuracy figures, all over |b| (or |y| for the kernel):

* eps: |(|A x - b|) - (|A x_k - b|)| for PCR/CLS solutions and the PCP
  solution alike; for kernel models |y_hat - y_hat_exact| / |y_hat_exact|
  on the held-out rows.
* upsilon: |V_{A,k+}^T x| for PCR solutions, |U_{A,k+}^T A x| for the
  PCP solution, and for kernel models the part of the training fit
  outside the top-k eigenvectors of the Gram matrix. CLS does no rank
  truncation and has no upsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sketchpcr import io as data_io
from sketchpcr import kernel, sketch, solvers, streaming

from inputs import SIZES, digest

RATIO = 8              # s = t = RATIO * k, as `pcr sweep --ratio 8`
EXACT_TOL = 1e-9       # exact solvers against the reference, relative
SKETCH_EPS_GATE = 0.5  # a sketched solution further off than this is wrong


class CheckFailed(Exception):
    """An op's output is wrong: not finite, wrongly shaped or inaccurate."""


@dataclass
class Solution:
    name: str
    x: np.ndarray
    form: str            # "pcr", "pcp", "cls" or "kernel"
    exact: bool = False
    model: object = None


def _require_vector(sol, length):
    x = np.asarray(sol.x)
    if x.shape != (length,):
        raise CheckFailed(f"{sol.name}: shape {x.shape}, expected ({length},)")
    if not np.all(np.isfinite(x)):
        raise CheckFailed(f"{sol.name}: non-finite entries")
    return x


def _require_gap(sigma, k, what):
    if not sigma[k - 1] > sigma[k] * (1 + 1e-6):
        raise CheckFailed(f"{what} has no eigengap at k={k}: {sigma[k - 1]} vs {sigma[k]}")


class Workload:
    """One workload. eps/upsilon average over the ``panel`` first ops, whose
    sketches are the same in every run (see ``inputs.op_seed``)."""

    name = ""
    setup_repeats = 5   # set-up runs per process; setup_s is their median
    panel = 10          # ops 0..panel-1 always run and give eps/upsilon
    a_shape = None      # shape of the data matrix, for counting SVDs of it

    def __init__(self, sizes=None):
        self.sizes = dict(SIZES[self.name] if sizes is None else sizes)
        self.k = self.sizes.get("k")

    def load(self, path):
        """Read the input through sketchpcr.io; return a digest of the arrays."""
        raise NotImplementedError

    def reference(self):
        raise NotImplementedError

    def op(self, seed):
        raise NotImplementedError

    def check(self, sols):
        """Return (eps list, upsilon list) for one op, or raise CheckFailed."""
        raise NotImplementedError


class _LinearWorkload(Workload):
    """Shared reference and check for workloads that solve min |A x - b|;
    ``load`` sets ``self.a`` and ``self.b`` as read."""

    @property
    def a_shape(self):
        return self.a.shape

    def reference(self):
        k = self.k
        u, s, vt = np.linalg.svd(self.a, full_matrices=False)
        _require_gap(s, k, "A")
        self._set_reference(u[:, :k], s[:k], vt[:k].T)

    def _set_reference(self, u_k, s_k, v_k):
        b = self.b
        self.u_k, self.v_k = u_k, v_k
        self.x_k = None if v_k is None else v_k @ ((u_k.T @ b) / s_k)
        self.nb = float(np.linalg.norm(b))
        self.ref_obj = float(np.linalg.norm(b - u_k @ (u_k.T @ b)))

    def check(self, sols):
        eps, ups = [], []
        for sol in sols:
            e, u = self._accuracy(sol)
            eps.append(e)
            if u is not None:
                ups.append(u)
        return eps, ups

    def _accuracy(self, sol):
        x = _require_vector(sol, self.a.shape[1])
        ax = self.a @ x
        eps = abs(float(np.linalg.norm(ax - self.b)) - self.ref_obj) / self.nb
        if sol.form == "pcr":
            ups = float(np.linalg.norm(x - self.v_k @ (self.v_k.T @ x))) / self.nb
        elif sol.form == "pcp":
            ups = float(np.linalg.norm(ax - self.u_k @ (self.u_k.T @ ax))) / self.nb
        else:
            ups = None
        if sol.exact:
            rel = np.linalg.norm(x - self.x_k) / np.linalg.norm(self.x_k)
            if not (eps <= EXACT_TOL and ups <= EXACT_TOL and rel <= EXACT_TOL):
                raise CheckFailed(f"{sol.name}: eps={eps:.3g} upsilon={ups:.3g} "
                                  f"|x - x_k|/|x_k|={rel:.3g} against the reference")
        elif not eps <= SKETCH_EPS_GATE:
            raise CheckFailed(f"{sol.name}: eps={eps:.3g} exceeds {SKETCH_EPS_GATE}")
        return eps, ups


class SparseNnz(_LinearWorkload):
    """input_sparsity_pcp on a CSR matrix read from svmlight."""

    name = "sparse-nnz"
    panel = 10

    def load(self, path):
        a, b = self.a, self.b = data_io.load_svmlight(path)
        self.problem = solvers.PcrProblem(a=a, b=b, k=self.k)
        return digest(a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64), b)

    def reference(self):
        k = self.k
        u, s, _ = spla.svds(self.a, k=k + 1, v0=np.ones(min(self.a.shape)))
        order = np.argsort(s)[::-1]
        s, u = s[order], u[:, order]
        _require_gap(s, k, "A")
        self._set_reference(u[:, :k], s[:k], None)

    def op(self, seed):
        size = RATIO * self.k
        y = solvers.input_sparsity_pcp(self.problem, s=size, t=size, seed=seed)
        return [Solution("input-sparsity", y, "pcp")]


class DenseCertified(_LinearWorkload):
    """One `pcr sweep --ratio 8` pass over every solver, each certified."""

    name = "dense-certified"
    panel = 6

    def load(self, path):
        a, b = self.a, self.b = data_io.load_dense_csv(path)
        self.problem = solvers.PcrProblem(a=a, b=b, k=self.k)
        return digest(a, b)

    def op(self, seed):
        # The steps of `pcr sweep` for one seed, in its solver order; every
        # solver gets the same seed and each solution is certified.
        p = self.problem
        n, d = p.shape
        s = t = RATIO * self.k
        out = []

        def certified(name, form, sol, exact=False):
            solvers.certify(p, sol, mode="pcr")
            out.append(Solution(name, sol.x, form, exact))

        certified("exact", "pcr", solvers.exact_pcr(p), exact=True)
        s_op = sketch.gen_subgaussian(s, n, seed)
        certified("left", "pcr", solvers.sketched_pcr(p, solvers.build_r_left(p, s_op)))
        g_op = sketch.gen_countsketch(t, d, seed)
        certified("right", "pcr", solvers.sketched_pcr(p, solvers.build_r_right(g_op)))
        rng = np.random.default_rng(seed)
        seed_s, seed_g = (int(v) for v in rng.integers(0, 2**63 - 1, size=2))
        r = solvers.build_r_twosided(p, sketch.gen_countsketch(s, n, seed_s),
                                     sketch.gen_countsketch(t, d, seed_g))
        certified("twosided", "pcr", solvers.sketched_pcr(p, r))
        g_op = sketch.gen_subgaussian(t, d, seed)
        certified("cls", "cls", solvers.cls(p, solvers.build_r_right(g_op)))
        y = solvers.input_sparsity_pcp(p, s=s, t=t, seed=seed)
        sol = solvers.PcrSolution(x=y, method="input-sparsity", r_cols=t,
                                  objective=float(np.linalg.norm(p.a @ y - p.b)),
                                  constraint_norm=None, wall_time=0.0)
        certified("input-sparsity", "pcp", sol)
        return out


class StreamRows(_LinearWorkload):
    """One-pass streaming PCR, one stream_update call per row."""

    name = "stream-rows"
    setup_repeats = 9
    panel = 24

    def load(self, path):
        self.a, self.b = data_io.load_dense_csv(path)
        return digest(self.a, self.b)

    def op(self, seed):
        st = streaming.stream_init(self.a.shape[1], 8 * self.k, 40 * self.k, seed,
                                   s_kind="subgaussian", t_kind="countsketch")
        for row, b_entry in zip(self.a, self.b):
            streaming.stream_update(st, row, b_entry)
        return [Solution("stream", streaming.stream_finalize(st, self.k).x, "pcr")]


def tensorsketch_features(rows, ts):
    """TensorSketch images of many rows at once, computed from the
    operator's hash tables without sketchpcr: the length-t cyclic
    convolution of the q CountSketch images, via one real FFT per level."""
    n, t = rows.shape[0], ts.out_dim
    spectrum = np.ones((n, t // 2 + 1), dtype=complex)
    for j in range(ts.degree):
        s_j = sp.csr_matrix((ts.sign_tables[j], (ts.row_tables[j], np.arange(ts.in_dim))),
                            shape=(t, ts.in_dim))
        spectrum *= np.fft.rfft(np.asarray((s_j @ rows.T).T), axis=1)
    return np.fft.irfft(spectrum, n=t, axis=1)


class KernelPoly(Workload):
    """Exact and TensorSketch polynomial-kernel PCR, with predictions."""

    name = "kernel-poly"
    setup_repeats = 9
    panel = 3
    DEGREE, RANK, SKETCH_COLS = 3, 10, 1024

    def load(self, path):
        x, y = data_io.load_dense_csv(path)
        n = self.sizes["n"]
        self.x_train, self.y_train = x[:n], y[:n]
        self.x_test = x[n:]
        return digest(x, y)

    def reference(self):
        k = self.RANK
        gram = (self.x_train @ self.x_train.T) ** self.DEGREE
        gram = (gram + gram.T) / 2.0
        evals, evecs = np.linalg.eigh(gram)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        _require_gap(evals, k, "the Gram matrix")
        self.gram = gram
        self.u_k = evecs[:, :k]
        alpha = self.u_k @ ((self.u_k.T @ self.y_train) / evals[:k])
        self.y_ref = ((self.x_test @ self.x_train.T) ** self.DEGREE) @ alpha
        self.ny = float(np.linalg.norm(self.y_train))

    def op(self, seed):
        spec = kernel.KernelSpec(self.DEGREE)
        exact = kernel.fit_exact(self.x_train, self.y_train, self.RANK, spec)
        ts = sketch.gen_tensorsketch(self.DEGREE, self.x_train.shape[1], self.SKETCH_COLS, seed)
        sketched = kernel.sketched_kernel_pcr(self.x_train, self.y_train, self.RANK, ts)
        pred_exact = np.array([kernel.kernel_predict(exact, z) for z in self.x_test])
        pred_sketched = np.array([kernel.sketched_kernel_predict(sketched, z)
                                  for z in self.x_test])
        return [Solution("kernel-exact", pred_exact, "kernel", True, exact),
                Solution("kernel-sketched", pred_sketched, "kernel", False, sketched)]

    def check(self, sols):
        eps, ups = [], []
        for sol in sols:
            pred = _require_vector(sol, self.x_test.shape[0])
            e = float(np.linalg.norm(pred - self.y_ref) / np.linalg.norm(self.y_ref))
            if sol.exact:
                fit = self.gram @ sol.model.alpha
                if not e <= EXACT_TOL:
                    raise CheckFailed(f"{sol.name}: held-out error {e:.3g} against the reference")
            else:
                ts, gamma = sol.model.ts, sol.model.gamma
                own = tensorsketch_features(self.x_test, ts) @ gamma
                rel = np.linalg.norm(own - pred) / np.linalg.norm(own)
                if not rel <= EXACT_TOL:
                    raise CheckFailed(f"{sol.name}: predictions differ by {rel:.3g} from "
                                      "an independent TensorSketch")
                if not e <= SKETCH_EPS_GATE:
                    raise CheckFailed(f"{sol.name}: eps={e:.3g} exceeds {SKETCH_EPS_GATE}")
                fit = tensorsketch_features(self.x_train, ts) @ gamma
            eps.append(e)
            ups.append(float(np.linalg.norm(fit - self.u_k @ (self.u_k.T @ fit))) / self.ny)
        return eps, ups


WORKLOADS = {w.name: w for w in (SparseNnz, DenseCertified, StreamRows, KernelPoly)}
