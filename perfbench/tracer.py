"""Outside-in tracing of the sketchpcr modules.

The tracer replaces each public function of the six layer modules with a
timing wrapper, on its own module and on every sketchpcr module that
imported the same function object, so calls made between modules are
seen too. No library code changes. Each call becomes a span (name,
start, end, parent, op id) kept in memory; calls of ``stream_update``
and everything beneath them are folded into per-name totals instead,
because the stream makes one such call per row.

Work counts are computed from argument shapes at the wrapper, not
measured inside the library; ``COMPUTED_COUNTS`` names them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import scipy.sparse as sp

PACKAGE = "sketchpcr"
LAYERS = ("io", "sketch", "linalg", "solvers", "streaming", "kernel")
AGGREGATED = frozenset({"streaming.stream_update"})
SKETCH_GENERATORS = frozenset({"sketch.gen_countsketch", "sketch.gen_subgaussian",
                               "sketch.gen_tensorsketch", "sketch.identity_embedding"})
SVD_CALLS = frozenset({"linalg.thin_svd", "linalg.pinv_solve", "linalg.singular_values"})
COMPUTED_COUNTS = ("sketch.keys_hashed", "sketch.nnz_touched", "linalg.full_a_svds",
                   "linalg.svd_gflop", "streaming.accumulator_bytes")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None   # id of the enclosing span, None at op level
    op: int | None       # op id; None during setup
    self_s: float        # duration minus the time covered by child calls


class _Frame:
    __slots__ = ("span_id", "aggregated", "child_s")

    def __init__(self, span_id, aggregated):
        self.span_id = span_id
        self.aggregated = aggregated
        self.child_s = 0.0


def svd_flops(shape, vectors=True):
    """Flop count of a thin R-SVD (Golub & Van Loan, table 5.4.1)."""
    m, n = max(shape), min(shape)
    return 6 * m * n * n + 20 * n ** 3 if vectors else 2 * m * n * n + 2 * n ** 3


class Tracer:
    """Install with ``with Tracer(a_shape) as tr:``; wrappers go on exit.

    ``a_shape`` is the shape of the workload's data matrix, for counting
    SVDs of A itself."""

    def __init__(self, a_shape=None):
        self.a_shape = tuple(a_shape) if a_shape is not None else None
        self.spans: list[Span] = []
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # (name, op) -> calls, total, self
        self.counts = defaultdict(lambda: defaultdict(float))        # op -> name -> value
        self.op = None
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches = []

    # -- installation -------------------------------------------------
    def install(self):
        modules = package_modules()
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, hattr, fn))
                            setattr(holder, hattr, wrapper)
        return self

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        aggregated_here = name in AGGREGATED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            aggregated = aggregated_here or (parent is not None and parent.aggregated)
            span_id = None
            if not aggregated:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = _Frame(span_id, aggregated)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                self_s = duration - frame.child_s
                if aggregated:
                    agg = tracer.aggregates[(name, tracer.op)]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += self_s
                else:
                    tracer.spans.append(Span(span_id, name, start, end,
                                             parent.span_id if parent else None,
                                             tracer.op, self_s))
            tracer._count(name, args, kwargs, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def _count(self, name, args, kwargs, result):
        c = self.counts[self.op]
        if name == "sketch.gen_countsketch":
            c["sketch.keys_hashed"] += 2 * _arg(args, kwargs, 1, "in_dim")
        elif name == "sketch.gen_tensorsketch":
            c["sketch.keys_hashed"] += (2 * _arg(args, kwargs, 0, "q")
                                        * _arg(args, kwargs, 1, "in_dim"))
        elif name == "sketch.apply_left":
            a = _arg(args, kwargs, 1, "a")
            c["sketch.nnz_touched"] += a.nnz if sp.issparse(a) else a.size
        elif name in SVD_CALLS:
            m = args[0] if args else kwargs["m"]
            c["linalg.svd_gflop"] += svd_flops(m.shape, name != "linalg.singular_values") / 1e9
            if name == "linalg.thin_svd" and self.a_shape == tuple(m.shape):
                c["linalg.full_a_svds"] += 1
        elif name == "streaming.stream_update":
            st = args[0]
            c["sketch.keys_hashed"] += 2 * sum(spec.kind == "countsketch"
                                               for spec in (st.s_spec, st.t_spec))
        elif name == "streaming.stream_finalize":
            c["streaming.accumulator_bytes"] += args[0].memory_bytes()

    # -- summaries ----------------------------------------------------
    def per_op(self, op):
        """Per-layer figures of one op: self time per layer, function times
        and counts. Function-named ``_s`` figures are inclusive wall time."""
        calls = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        for s in self.spans:
            if s.op == op:
                entry = calls[s.name]
                entry[0] += 1
                entry[1] += s.end - s.start
                entry[2] += s.self_s
        for (name, agg_op), (n, total, self_s) in self.aggregates.items():
            if agg_op == op:
                entry = calls[name]
                entry[0] += n
                entry[1] += total
                entry[2] += self_s

        def ncalls(*names):
            return sum(calls[n][0] for n in names)

        def incl(*names):
            return sum(calls[n][1] for n in names)

        out = {f"{layer}.self_s": sum(v[2] for n, v in calls.items()
                                      if n.split(".")[0] == layer)
               for layer in LAYERS if layer != "io"}
        updates = ncalls("streaming.stream_update")
        out.update({
            "sketch.gen_s": incl(*SKETCH_GENERATORS),
            "sketch.apply_s": incl("sketch.apply_left"),
            "sketch.tensorsketch_s": incl("sketch.tensorsketch_apply"),
            "sketch.tensorsketch_calls": ncalls("sketch.tensorsketch_apply"),
            "linalg.svd_s": incl(*SVD_CALLS),
            "linalg.svd_calls": ncalls(*SVD_CALLS),
            "solvers.certify_s": incl("solvers.certify"),
            "solvers.cgls_s": incl("solvers.precond_iterative_ls"),
            "streaming.update_calls": updates,
            "streaming.update_us_per_row": (incl("streaming.stream_update") / updates * 1e6
                                            if updates else 0.0),
            "streaming.finalize_s": incl("streaming.stream_finalize"),
            "kernel.gram_s": incl("kernel.kernel_matrix"),
            "kernel.eig_s": calls["kernel.exact_kernel_pcr"][2],  # self time: the eigh
            "kernel.features_s": incl("kernel.sketched_feature_matrix"),
            "trace.spans": sum(1 for s in self.spans if s.op == op),
        })
        for name in COMPUTED_COUNTS:
            out[name] = self.counts[op].get(name, 0)
        return out

    def io_seconds(self):
        """Inclusive time of each top-level io call made outside any op."""
        return [s.end - s.start for s in self.spans
                if s.op is None and s.parent is None and s.name.startswith("io.")]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def package_modules():
    """The package namespace and every module in it."""
    names = LAYERS + ("evaluation", "cli", "errors")
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{name}") for name in names]


def leftover_wrappers():
    """Names in the package's modules still bound to a tracing wrapper."""
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__traced__"):
                found.append(f"{mod.__name__}.{attr}")
    return found


def median_over_ops(tracer, ops):
    rows = [tracer.per_op(op) for op in ops]
    if not rows:
        return {}
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}

