"""One workload process: set up, run passes, gate outputs, write a result.

Started by run.py, once per set-up sample and once for the measured run;
the BLAS thread count comes from the environment run.py gives it.

    python3 perfbench/worker.py --workload W --seed S --seconds X
        --mode {setup,measure,trace} --spawned-at T --result PATH

--spawned-at is run.py's CLOCK_MONOTONIC reading just before it started
this process, so set-up time counts interpreter start and imports.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time

import workloads as W
from metrics import per_layer
from tracing import Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")


def _import_gpe():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gpe
    import gpe.cli  # noqa: F401  (bound as gpe.cli for the cli workload)

    if not os.path.abspath(gpe.__file__).startswith(src + os.sep):
        raise SystemExit(f"gpe imported from {gpe.__file__}, not from {src}")
    return gpe


def blas_threads():
    """Thread counts reported by every loaded OpenBLAS, by library file."""
    found = {}
    with open(f"/proc/{os.getpid()}/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def library_versions():
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_pass(wl, tracer=None):
    """Call every task once; returns (wall, task times, results, errors, root)."""
    results, errors, times = {}, {}, []
    clock = time.perf_counter
    root = tracer.open("bench.pass") if tracer else None
    start = clock()
    for i, task in enumerate(wl.tasks):
        if tracer:
            tracer.task = i
        t0 = clock()
        try:
            results[task.name] = task.call()
        except Exception as exc:  # the gate counts it; the pass goes on
            errors[task.name] = f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
    wall = clock() - start
    if tracer:
        tracer.close(root)
        tracer.task = -1
    return wall, times, results, errors, root


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    G = _import_gpe()
    tracer = setup_span = None
    if args.mode == "trace":
        tracer = Tracer(G)
        tracer.install()
        setup_span = tracer.open("bench.setup")
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = W.build(args.workload, G, args.seed, OUT_DIR)
    reference = W.load_reference(args.workload)
    if tracer:
        tracer.close(setup_span)
        tracer.uninstall()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": setup_s, "tasks": [t.name for t in wl.tasks],
              "min_passes": wl.min_passes}
    if args.mode != "setup":
        result.update(_measure(args, wl, reference, tracer, setup_span))
        result["env"] = library_versions()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _measure(args, wl, reference, tracer, setup_span):
    walls, traced, task_times = [], [], []
    attempted = failed = 0
    failures = {}
    roots = []

    def gate(results, errors):
        nonlocal attempted, failed
        verdict = W.gate(wl, results, errors, reference)
        wl.after_pass()
        for name, msgs in verdict.items():
            attempted += 1
            if msgs:
                failed += 1
                if len(failures) < 20:
                    failures.setdefault(name, msgs[:3])

    start = time.perf_counter()
    # A warm-up pass, gated but not timed: the first calls of a process pay
    # for first-touch page faults and lazily built tables once.
    warmup_wall, _, results, errors, _ = run_pass(wl)
    gate(results, errors)
    while True:
        n_traced = sum(traced)
        n_plain = len(traced) - n_traced
        # No pass starts that would, at the last pass's pace, end after
        # the window, so a run lasts --seconds, not up to a pass more.
        ends_at = time.perf_counter() - start + (walls[-1] if walls else warmup_wall)
        if args.mode == "measure" and ends_at > args.seconds and len(walls) >= wl.min_passes:
            break
        if args.mode == "trace" and ends_at > args.seconds and min(n_traced, n_plain) >= 2:
            break
        use_trace = args.mode == "trace" and len(walls) % 2 == 1
        if use_trace:
            tracer.install()
        try:
            wall, times, results, errors, root = run_pass(wl, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            roots.append(root)
        walls.append(wall)
        traced.append(use_trace)
        task_times.append(times)
        gate(results, errors)
    out = {"warmup_wall": warmup_wall, "pass_walls": walls, "traced": traced,
           "task_times": task_times,
           "attempted": attempted, "failed": failed, "failures": failures}
    if tracer is not None:
        plain = [w for w, t in zip(walls, traced) if not t]
        with_trace = [w for w, t in zip(walls, traced) if t]
        overhead = statistics.median(with_trace) - statistics.median(plain)
        passes = summarize(tracer.spans, roots)
        setup = summarize(tracer.spans, [setup_span])
        out["per_layer"] = per_layer(passes, setup, len(roots), overhead)
        out["trace_names"] = {name: {k: v / len(roots) for k, v in rec.items()}
                              for name, rec in sorted(passes["names"].items())}
        out["trace_layers"] = passes["layers"]
        trace_file = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.csv.gz")
        tracer.write(trace_file)
        out["trace_file"] = os.path.relpath(trace_file, ROOT)
    return out


if __name__ == "__main__":
    main()
