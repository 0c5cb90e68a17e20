"""Command-line driver: sweep solver/size grids (``solve`` is a sweep over
one seed), stream rows from disk, fit kernel models, and verify the
library's deterministic and statistical guarantees on synthetic data.
Every subcommand writes one versioned JSON report. :mod:`sketchpcr.io`
reads every --data file (svmlight unless named .csv): whole for
``solve``, ``sweep`` and ``kernel``, a block of rows at a time for
``stream``.

``SOLVERS`` gives each solver's sketch sizes, certify mode and callable;
``_cells`` turns --s/--t/--ratio into the (s, t) cells that ``solve`` and
``sweep`` run. ``stream`` and ``kernel`` run one cell, so they reject a
comma list.

Exit codes: 0 full success, 1 configuration error, 2 partial failures
(failed sweep cells or failed verification checks).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import evaluation as ev
from . import io as data_io
from . import kernel as kpcr
from . import sketch, solvers, streaming
from .errors import ConvergenceError

SCHEMA_VERSION = 1
DEFAULT_SVD_BUDGET = 300_000_000  # n * d * min(n, d) ceiling for exact references
SYNTH_NOISE_LEVEL = 0.3


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


@dataclass
class RunRecord:
    method: str
    k: int
    s: int | None
    t: int | None
    seed: int
    objective_over_b: float | None = None
    objective_over_exact: float | None = None
    constraint_over_b: float | None = None
    wall_time: float | None = None
    error: str | None = None


@dataclass
class RunReport:
    task: str
    records: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION


def emit_report(report: RunReport, path):
    """Write the report as versioned JSON to ``path``, or stdout for None."""
    text = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Problem construction.

def _planted(n, d, k, gap, seed):
    """A planted n x d matrix A with gap at k, the mean f = A x_true of the
    response for a random unit x_true, its noise level sigma, and the rng
    that drew x_true, for the draws that follow."""
    a = ev.planted_matrix(n, d, k, gap, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x_true = rng.standard_normal(d)
    x_true /= np.linalg.norm(x_true)
    f = a @ x_true
    sigma = SYNTH_NOISE_LEVEL * np.linalg.norm(f) / math.sqrt(n)
    return a, f, sigma, rng


def _parse_synthetic(spec_str, seed):
    try:
        n_s, d_s, k_s, gap_s = spec_str.split(",")
        k = int(k_s)
        a, f, sigma, rng = _planted(int(n_s), int(d_s), k, float(gap_s), seed)
    except ValueError as exc:
        raise CliError(f"--synthetic {spec_str!r} is not a valid n,d,k,gap: {exc}") from None
    return a, f + sigma * rng.standard_normal(len(f)), k


def _is_svmlight(args):
    """Whether --data is svmlight, any path but a .csv (in any case); else
    --dims is an error."""
    svmlight = bool(args.data) and not args.data.lower().endswith(".csv")
    if args.dims is not None and not svmlight:
        raise CliError("--dims applies to svmlight input only")
    return svmlight


def _load_problem(args, pcr_rank=True):
    """A, b (centered under --center-response, and then exactly zero if
    all that is left is rounding) and the ranks. A PCR rank
    below the planted rank of --synthetic is rejected: the top singular
    values of a planted A are equal."""
    if args.synthetic and args.data:
        raise CliError("pass either --data or --synthetic, not both")
    default_k = None
    if _is_svmlight(args):
        a, b = data_io.load_svmlight(args.data, n_features=args.dims)
    elif args.data:
        a, b = data_io.load_dense_csv(args.data)
    elif args.synthetic:
        a, b, default_k = _parse_synthetic(args.synthetic, args.seed0)
        if pcr_rank and min(args.k or [default_k]) < default_k:
            raise CliError(f"--k {min(args.k)} is below the planted rank k={default_k} "
                           "of --synthetic, whose top singular values are equal")
    else:
        raise CliError("one of --data or --synthetic is required")
    if args.center_response:
        mean = b.mean()
        b = b - mean
        # Of a constant response, centering leaves only the rounding of the mean.
        if np.abs(b).max() <= len(b) * np.finfo(float).eps * abs(mean):
            b = np.zeros_like(b)
    k_list = args.k if args.k else ([default_k] if default_k else None)
    if not k_list:
        raise CliError("--k is required for this dataset")
    return a, b, k_list


# ---------------------------------------------------------------------------
# The solver table.

class _Solver(NamedTuple):
    axes: tuple   # the sketch sizes it takes: (), ("s",), ("t",) or ("s", "t")
    mode: str     # certify mode: "pcr", or "pcp" for a projection
    fn: object    # fn(problem, s, t, seed) -> PcrSolution


def _twosided(p, s, t, seed):
    seed_s, seed_g = sketch.child_seeds(seed, 2)
    s_op = sketch.gen_countsketch(s, p.shape[0], seed_s)
    g_op = sketch.gen_countsketch(t, p.shape[1], seed_g)
    return solvers.sketched_pcr(p, solvers.build_r_twosided(p, s_op, g_op))


def _input_sparsity(p, s, t, seed):
    t0 = time.perf_counter()
    y = solvers.input_sparsity_pcp(p, s=s, t=t, seed=seed)
    elapsed = time.perf_counter() - t0
    return solvers.PcrSolution(
        x=y, method="input-sparsity", r_cols=p.k,
        objective=float(np.linalg.norm(p.a @ y - p.b)),
        constraint_norm=None, wall_time=elapsed,
    )


# Entries look the library up through its modules on every call, so that a
# patched module attribute applies.
SOLVERS = {
    "exact": _Solver((), "pcr", lambda p, s, t, seed: solvers.exact_pcr(p)),
    "left": _Solver(("s",), "pcr", lambda p, s, t, seed: solvers.sketched_pcr(
        p, solvers.build_r_left(p, sketch.gen_subgaussian(s, p.shape[0], seed)))),
    "right": _Solver(("t",), "pcr", lambda p, s, t, seed: solvers.sketched_pcr(
        p, solvers.build_r_right(sketch.gen_countsketch(t, p.shape[1], seed)))),
    "twosided": _Solver(("s", "t"), "pcr", _twosided),
    "cls": _Solver(("t",), "pcr", lambda p, s, t, seed: solvers.cls(
        p, solvers.build_r_right(sketch.gen_subgaussian(t, p.shape[1], seed)))),
    "input-sparsity": _Solver(("s", "t"), "pcp", _input_sparsity),
}


def _cells(args, k, name, axes=None):
    """The (s, t) cells of solver ``name`` at rank k from --s/--t/--ratio,
    None for a size it does not take; ``axes`` defaults to the solver's.
    Every configuration error is raised here, before any cell runs."""
    if axes is None:
        if name not in SOLVERS:
            raise CliError(f"unknown solver {name!r} (choose from {', '.join(SOLVERS)})")
        axes = SOLVERS[name].axes
    ratio = [] if args.ratio is None else [args.ratio]
    for flag, sizes in (("k", args.k or []), ("ratio", ratio), ("s", args.s or []),
                        ("t", args.t or [])):
        if sizes and min(sizes) < 1:
            raise CliError(f"--{flag} must be at least 1, got {min(sizes)}")
    lists = []
    for axis in ("s", "t"):
        given = getattr(args, axis)
        if axis in axes and not (given or args.ratio):
            raise CliError(f"{name} needs --{axis} or --ratio")
        lists.append((given or [args.ratio * k]) if axis in axes else [None])
    return [(s, t) for s in lists[0] for t in lists[1]]


def _record_for(problem, solver, k, s, t, seed):
    entry = SOLVERS[solver]
    n, d = problem.shape
    rec = RunRecord(method=solver, k=k, s=s, t=t, seed=seed)
    try:
        sol = entry.fn(problem, s, t, seed)
        nb = float(np.linalg.norm(problem.b))
        rec.objective_over_b = sol.objective / nb if sol.objective is not None else None
        rec.wall_time = sol.wall_time
        if n * d * min(n, d) <= DEFAULT_SVD_BUDGET:
            cert = solvers.certify(problem, sol, mode=entry.mode)
            rec.constraint_over_b = cert.upsilon_observed
            if cert.reference_objective > 0:
                rec.objective_over_exact = sol.objective / cert.reference_objective
    except Exception as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


# ---------------------------------------------------------------------------
# Sweep.

def _aggregate(records):
    groups = {}
    for rec in records:
        groups.setdefault((rec.method, rec.k, rec.s, rec.t), []).append(rec)
    metrics = ["objective_over_b", "objective_over_exact", "constraint_over_b", "wall_time"]
    out = []
    for (method, k, s, t), recs in sorted(groups.items(),
                                          key=lambda kv: tuple(str(x) for x in kv[0])):
        entry = {"method": method, "k": k, "s": s, "t": t,
                 "seeds": len(recs), "errors": sum(r.error is not None for r in recs)}
        for metric in metrics:
            vals = [getattr(r, metric) for r in recs
                    if r.error is None and getattr(r, metric) is not None]
            if vals:
                entry[metric] = {
                    "median": float(np.median(vals)),
                    "min": float(np.min(vals)),
                    "max": float(np.max(vals)),
                }
            else:
                entry[metric] = None
        out.append(entry)
    return out


def run_sweep(problem_by_k, solvers_list, args) -> RunReport:
    report = RunReport(task=args.task)
    seeds = [args.seed0 + i for i in range(args.seeds)]
    cells = [(solver, k, problem, s, t)
             for solver in solvers_list for k, problem in problem_by_k.items()
             for (s, t) in _cells(args, k, solver)]
    for solver, k, problem, s, t in cells:
        for seed in seeds:
            report.records.append(_record_for(problem, solver, k, s, t, seed))
    report.records.sort(key=lambda r: (r.method, r.k, str(r.s), str(r.t), r.seed))
    report.aggregates = _aggregate(report.records)
    return report


# ---------------------------------------------------------------------------
# Verify: deterministic lemmas, risk bounds and sketch calibration.

def _rotation_basis(f, k, theta):
    """Orthonormal d x k basis at principal angle theta from V_{A,k}."""
    w = f.v[:, k:2 * k]
    if w.shape[1] < k:
        raise ValueError("not enough trailing directions to rotate into")
    return f.v[:, :k] * math.cos(theta) + w * math.sin(theta)


def _verify_checks(args):
    """Each check is (name, lhs, rhs) asserting lhs <= rhs, or (name, lhs,
    rhs, prerequisite_ok) for a bound that holds only under a prerequisite,
    which must hold too."""
    from .linalg import spectral_norm, stable_rank, subspace_distance, thin_svd

    n, d, k, gap = 96, 64, 5, 0.4
    seed = args.seed0
    a, f_vec, sigma, rng = _planted(n, d, k, gap, seed)
    model = ev.FixedDesignModel(a=a, f=f_vec, sigma=sigma)
    fsvd = model.svd
    sk, sk1 = fsvd.sigma[k - 1], fsvd.sigma[k]
    v_k = fsvd.v[:, :k]
    checks = []

    theta = 0.25
    r = _rotation_basis(fsvd, k, theta)
    nu = math.sin(theta)
    checks.append(("lemma11_leakage", spectral_norm(fsvd.v[:, k:].T @ r), nu))
    f_ar = thin_svd(a @ r)   # R has k columns: sigma_k(A R) is sigma_min
    checks.append(("lemma11_sigma_min", sk * (math.sqrt(1 - nu**2) - nu), f_ar.sigma[k - 1]))
    nu_tan = math.tan(theta)
    nu_pcp = subspace_distance(f_ar.u, fsvd.u[:, :k])
    checks.append(("lemma14", nu_pcp, (sk1 / sk) * nu_tan))

    sym = a.T @ a
    pert = rng.standard_normal((d, d))
    pert = (pert + pert.T) / 2
    lam = np.sort(np.linalg.eigvalsh(sym))[::-1]
    pert *= 0.4 * (lam[k - 1] - lam[k]) / spectral_norm(pert)
    lam_tilde = np.sort(np.linalg.eigvalsh(sym + pert))[::-1]
    v1 = thin_svd(sym).v[:, :k]
    v2 = thin_svd(sym + pert).v[:, :k]
    checks.append(("davis_kahan", subspace_distance(v1, v2),
                   spectral_norm(pert) / (lam[k - 1] - lam_tilde[k])))

    for name, rep in [
        ("pcr_corollary", ev.pcr_corollary_bound(model, k)),
        ("stat_structural", ev.stat_structural_bound(model, k, r, nu_tan)),
        ("struct_stat_pcp", ev.struct_stat_pcp_bound(model, k, r, nu_pcp)),
    ]:
        checks.append((f"risk_{name}", rep.risk, rep.bound, rep.prerequisite_ok))
    checks.append(("risk_classic_pcr",
                   ev.exact_risk(model, v_k), ev.classic_pcr_risk_bound(model, k)))

    bias, var = ev.bias_variance(model, v_k)
    est_v = v_k @ np.linalg.pinv(a @ v_k)
    mc = ev.excess_risk_mc(model, lambda _a, b: est_v @ b, trials=400, seed=seed + 2)
    checks.append(("bias_variance_identity",
                   abs(bias + var - mc.mean), 3 * mc.std_error))

    # The Gram property where the solvers use it: on tall matrices, by
    # sketches of at most a quarter of their rows (160 of 640, 2276 of 10^4).
    eps, delta, n_draws = 0.5, 0.1, 200
    for kind, n_tall, gen in (("subgaussian", 640, sketch.gen_subgaussian),
                              ("countsketch", 10_000, sketch.gen_countsketch)):
        tall = ev.planted_matrix(n_tall, 8, 2, 0.5, seed)
        rows = sketch.sketch_rows_for_gram(kind, stable_rank(tall), eps, delta)
        fails = sum(not sketch.gram_error(gen(rows, n_tall, seed + 10_000 + i), tall, eps).passed
                    for i in range(n_draws))
        checks.append((f"gram_{kind}_failure_rate", fails / n_draws, delta))
    return checks


def cmd_verify(args):
    checks = _verify_checks(args)
    report = RunReport(task="verify")
    rows = []
    all_ok = True
    for name, lhs, rhs, *prerequisite in checks:
        slack = rhs - lhs
        met = all(prerequisite)
        ok = bool(met and slack >= -1e-8)
        all_ok = all_ok and ok
        rows.append({"check": name, "lhs": lhs, "rhs": rhs,
                     "slack": slack, "pass": ok})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: lhs={lhs:.6g} rhs={rhs:.6g} slack={slack:.3g}"
              + ("" if met else " (prerequisite not met)"))
    report.aggregates = rows
    if args.out:
        emit_report(report, args.out)
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# Other subcommands.

def _single_values(args, flags):
    """Reject a comma list in any of ``flags``: the subcommand runs one cell."""
    for flag in flags:
        if len(getattr(args, flag) or ()) > 1:
            raise CliError(f"{args.task} runs one cell: --{flag} takes one value")


def cmd_sweep(args):
    if args.seeds < 1:
        raise CliError(f"--seeds must be at least 1, got {args.seeds}")
    solver_list = args.solver.split(",")
    for flag, values in (("solver", solver_list), ("k", args.k), ("s", args.s), ("t", args.t)):
        if values and len(set(values)) < len(values):
            raise CliError(f"--{flag} repeats a value: {','.join(map(str, values))}")
    a, b, k_list = _load_problem(args)
    if not np.any(b):
        centered = " after --center-response" if args.center_response else ""
        raise CliError(f"the response b is zero{centered}: no fit can be measured against |b|")
    problems = solvers.PcrProblem.for_ranks(a, b, k_list)
    report = run_sweep(problems, solver_list, args)
    emit_report(report, args.out)
    return 2 if any(r.error is not None for r in report.records) else 0


def cmd_stream(args):
    if not args.data:
        raise CliError("stream mode requires --data")
    if not args.k:
        raise CliError("stream mode requires --k")
    _single_values(args, ("k", "s", "t"))
    k, = args.k
    (s_rows, t_rows), = _cells(args, k, "stream", axes=("s", "t"))
    for flag, rows in (("s", s_rows), ("t", t_rows)):
        if rows < k:
            raise CliError(f"--{flag} {rows} is below --k {k}: a sketch of fewer than "
                           "k rows cannot keep a rank-k fit")
    if not _is_svmlight(args):
        blocks = ((ab[:, :-1], ab[:, -1]) for ab in data_io.csv_blocks(args.data))
    elif args.dims is None:
        raise CliError("streaming svmlight input needs --dims")
    else:
        blocks = (data_io.svmlight_csr(arrays, args.dims)
                  for arrays in data_io.svmlight_blocks(args.data, args.dims))
    state = None
    for a_blk, b_blk in blocks:
        if state is None:
            state = streaming.stream_init(a_blk.shape[1], s_rows, t_rows, args.seed0)
        streaming.stream_block(state, a_blk, b_blk)
    if state is None:
        raise CliError(f"{args.data}: no data rows")
    sol = streaming.stream_finalize(state, k)
    rec = RunRecord(method="stream", k=k, s=s_rows, t=t_rows, seed=args.seed0,
                    wall_time=sol.wall_time)
    report = RunReport(task="stream", records=[rec])
    report.aggregates = [{"rows_seen": state.rows_seen,
                          "accumulator_bytes": state.memory_bytes(),
                          "x_norm": float(np.linalg.norm(sol.x))}]
    emit_report(report, args.out)
    return 0


def cmd_kernel(args):
    _single_values(args, ("k",))
    spec = kpcr.KernelSpec(args.degree, args.offset)
    if args.sketch_cols is not None and args.sketch_cols < 1:
        raise CliError(f"--sketch-cols must be at least 1, got {args.sketch_cols}")
    a, b, (rank,) = _load_problem(args, pcr_rank=False)
    if sp.issparse(a):
        a = a.toarray()
    t0 = time.perf_counter()
    if args.sketch_cols is None:
        model = kpcr.fit_exact(a, b, rank, spec)
    else:
        # The sketch's input width: the features plus the offset's one, if any.
        in_dim = kpcr.augment_offset(a[:1], spec.offset).shape[1]
        ts = sketch.gen_tensorsketch(spec.degree, in_dim, args.sketch_cols, args.seed0)
        model = kpcr.sketched_kernel_pcr(a, b, rank, ts, spec.offset)
    elapsed = time.perf_counter() - t0
    rmse = float(np.linalg.norm(model.fitted - b) / math.sqrt(len(b)))
    report = RunReport(task="kernel")
    report.aggregates = [{
        "mode": "exact" if args.sketch_cols is None else "sketched",
        "degree": args.degree, "offset": args.offset, "rank": rank, "sketch_cols": args.sketch_cols,
        "train_rmse": rmse, "wall_time": elapsed,
    }]
    emit_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _seed(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    """One subparser per task, each with only the flags that task reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed0", type=_seed, default=0, help="base seed")
    common.add_argument("--out", help="report output path (default stdout)")
    stream_data = argparse.ArgumentParser(add_help=False)
    stream_data.add_argument("--data", help="CSV (dense, last column response) or svmlight path")
    stream_data.add_argument("--dims", type=int,
                             help="feature count of svmlight input, and an error for any "
                             "other input (required to stream svmlight)")
    data = argparse.ArgumentParser(add_help=False, parents=[stream_data])
    data.add_argument("--synthetic", help="planted instance spec: n,d,k,gap")
    data.add_argument("--center-response", action="store_true",
                      help="subtract the response mean from b, for every input")

    def grid(lists):
        """--k, and --s/--t/--ratio; only a grid (solve, sweep) takes comma lists."""
        more = ", or comma list" if lists else ""
        rank = argparse.ArgumentParser(add_help=False)
        rank.add_argument("--k", type=_int_list, help="target rank" + more)
        sizes = argparse.ArgumentParser(add_help=False)
        sizes.add_argument("--s", type=_int_list, help="left/row sketch size" + more)
        sizes.add_argument("--t", type=_int_list, help="right/column sketch size" + more)
        sizes.add_argument("--ratio", type=int, help="sets s = t = ratio * k when unset")
        return rank, sizes

    rank, sizes = grid(lists=False)
    ranks, size_lists = grid(lists=True)
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--solver", default="exact",
                        help="|".join(SOLVERS) + ", or comma list")

    parser = _Parser(prog="pcr", description=__doc__)
    sub = parser.add_subparsers(dest="task", required=True)
    grid_flags = [common, data, ranks, size_lists, solver]
    sub.add_parser("solve", parents=grid_flags).set_defaults(seeds=1)
    sweep = sub.add_parser("sweep", parents=grid_flags)
    sweep.add_argument("--seeds", type=int, default=1, help="number of seeds per cell")
    sub.add_parser("stream", parents=[common, stream_data, rank, sizes])
    kern = sub.add_parser("kernel", parents=[common, data, rank])
    kern.add_argument("--degree", type=int, default=2, help="polynomial kernel degree")
    kern.add_argument("--offset", type=float, default=0.0, help="polynomial kernel offset")
    kern.add_argument("--sketch-cols", dest="sketch_cols", type=int,
                      help="TensorSketch width; selects the sketched mode (default exact)")
    sub.add_parser("verify", parents=[common])
    return parser


_COMMANDS = {
    "solve": cmd_sweep,
    "sweep": cmd_sweep,
    "stream": cmd_stream,
    "kernel": cmd_kernel,
    "verify": cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.task](args)
    except (CliError, data_io.DataFormatError, FileNotFoundError, ValueError,
            ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
