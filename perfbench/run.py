"""sketchpcr benchmark: one workload per process, closed loop, one op in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Inputs are generated from the seed in a child process (cached
under ``.perfbench_cache/``, outside every timed region), then read
through ``sketchpcr.io`` ``setup_repeats`` times, once before the first
op and the rest spread over the run; ``setup_s`` is the median. After an
untimed warm-up op, ops run back to back until ``--seconds`` of op time
have passed and at least ``panel`` ops are done. Every op
is checked against an independent exact reference outside the timed
region. eps/upsilon come from ops 0..panel-1 only, which draw the same
sketches in every run, so they compare like with like between commits
and the same seed gives the same figures however fast the machine is.

``--trace 0`` reports the end-to-end metrics. The op time it reports is
``op_min_s``, the run's fastest op: on a shared host, neighbours slow
interpreter-bound code up to 2x in bursts of seconds, so the median op
time of a run depends on how much of it fell in a burst, while the
fastest op reflects the op's own cost. The median and the tail
percentile are printed on the lines before the result. ``--trace 1``
alternates traced and untraced ops and reports per-layer figures from
the traced ones, plus the tracing overhead (traced minus untraced median
op time).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it give the same figures for reading, the op count, the
median and tail op time, the error rate and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
# Runnable by hand and in traced runs, but not listed in BENCHMARK.json:
# its op times spread too far between runs on a shared host to be gated.
UNGATED = ("sparse-nnz",)


def pin_blas_threads():
    """Cap BLAS at min(2, usable cores); must run before numpy is imported."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "blas_threads": threads, "cpu": cpu,
            "python": sys.version.split()[0]}


def generate_inputs(name, seed, cache_dir, sizes):
    """Fill the input cache in a child process, so that neither its time
    nor its memory shows in this process; return (path, record)."""
    import inputs

    path = inputs.input_path(cache_dir, name, seed)
    subprocess.run([sys.executable, str(HERE / "inputs.py"), name, str(seed),
                    str(cache_dir), json.dumps(sizes)], check=True, timeout=600)
    record = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    return path, record


def tail(times):
    """(percentile, value): the highest nearest-rank percentile with at least
    TAIL_BEYOND ops above it, never below the median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return 100.0 * rank / n, ordered[rank - 1]


def measure(name, seed, seconds, trace, cache_dir=CACHE, sizes=None):
    """Run one workload; return (result JSON object, details dict)."""
    import numpy as np

    import inputs
    import workloads
    from tracer import Tracer, median_over_ops

    wl = workloads.WORKLOADS[name](sizes)
    path, record = generate_inputs(name, seed, cache_dir, wl.sizes)
    tracer = Tracer() if trace else None

    def set_up():
        """Read the input through sketchpcr.io once; return the seconds taken."""
        with tracer or nullcontext():
            if tracer:
                tracer.op = None
            t0 = time.perf_counter()
            loaded = wl.load(path)
            elapsed = time.perf_counter() - t0
        if loaded != record["digest"]:
            raise RuntimeError(f"{path}: arrays read back differ from the arrays written")
        return elapsed

    setup_s = [set_up()]
    if tracer:
        tracer.a_shape = wl.a_shape
    wl.reference()

    attempted = failed = 0
    errors = []

    def run_op(op_id, op_seed, traced):
        """Time one op and check it; return (seconds, eps, upsilon) or None."""
        nonlocal attempted, failed
        attempted += 1
        ctx = tracer if traced else nullcontext()
        try:
            with ctx:
                if traced:
                    tracer.op = op_id
                t0 = time.perf_counter()
                sols = wl.op(op_seed)
                elapsed = time.perf_counter() - t0
            eps, ups = wl.check(sols)
        except Exception as exc:  # any raised error or failed check is an op failure
            failed += 1
            errors.append(f"op {op_id}: {type(exc).__name__}: {exc}")
            print(f"# op {op_id} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        return elapsed, float(np.mean(eps)), float(np.mean(ups))

    run_op("warmup", inputs.stream_seed(seed, inputs.WARMUP_STREAM), traced=False)

    times = {False: [], True: []}
    panel = []
    i = 0
    # The other set-ups are spread over the run, one after the op that
    # crosses each 1/setup_repeats of --seconds, so that setup_s samples
    # the same stretch of a shared host's load as the ops do. Their time
    # does not count against --seconds.
    start = time.perf_counter()
    paused = 0.0
    while i < wl.panel or time.perf_counter() - start - paused < seconds:
        traced = bool(trace) and i % 2 == 0
        res = run_op(i, inputs.op_seed(seed, i, wl.panel), traced)
        if res is not None:
            times[traced].append(res[0])
            if i < wl.panel:
                panel.append(res[1:])
        i += 1
        due = len(setup_s) * seconds / wl.setup_repeats
        if len(setup_s) < wl.setup_repeats and time.perf_counter() - start - paused >= due:
            t0 = time.perf_counter()
            setup_s.append(set_up())
            paused += time.perf_counter() - t0
    while len(setup_s) < wl.setup_repeats:
        setup_s.append(set_up())

    op_times = times[bool(trace)]
    details = {"workload": name, "seed": seed, "ops_timed": len(op_times),
               "attempted": attempted, "failed": failed,
               "error_rate": failed / attempted, "errors": errors,
               "setup_runs": setup_s, "input_mb": path.stat().st_size / 1e6}
    if trace:
        layer = median_over_ops(tracer, [j for j in range(i) if j % 2 == 0])
        io_load = tracer.io_seconds()
        layer.update({
            "io.load_s": statistics.median(io_load) if io_load else 0.0,
            "io.input_mb": details["input_mb"],
            "trace.overhead_s": (statistics.median(times[True]) - statistics.median(times[False])
                                 if times[True] and times[False] else 0.0),
        })
        values = layer
    else:
        pct, tail_s = tail(op_times) if op_times else (0.0, 0.0)
        details.update(tail_percentile=pct, op_tail_s=tail_s,
                       op_p50_s=statistics.median(op_times) if op_times else 0.0)
        values = {
            "op_min_s": min(op_times) if op_times else 0.0,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "eps_mean": float(np.mean([p[0] for p in panel])) if panel else 0.0,
            "upsilon_mean": float(np.mean([p[1] for p in panel])) if panel else 0.0,
        }
    units = metric_units(trace)
    metrics = {k: {"value": int(v) if units[k] == "count" else v, "unit": units[k]}
               for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    return {m["name"]: m["unit"] for m in benchmark()["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark()["workloads"]] + list(UNGATED))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    threads = pin_blas_threads()
    if not (ROOT / "src" / "sketchpcr" / "__init__.py").is_file():
        print(f"error: no sketchpcr sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)

    env = environment(threads)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{details['ops_timed']} ops timed, {details['attempted']} attempted "
          f"(with warm-up), error_rate {details['error_rate']:.4g}")
    if "tail_percentile" in details:
        print(f"# op time median {details['op_p50_s']:.6g} s, "
              f"p{details['tail_percentile']:.1f} {details['op_tail_s']:.6g} s "
              f"over {details['ops_timed']} ops")
    for err in details["errors"]:
        print(f"# {err}")
    print("# env " + json.dumps(env, sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"{key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
