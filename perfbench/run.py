"""Benchmark of the gpe package: one workload per run, metrics on stdout.

    python3 perfbench/run.py --workload ensemble-1d --seed 0 --seconds 25 --trace 0

Run from the repository root (any checkout holding src/gpe and configs/).
Each run starts its workload in fresh single processes with the BLAS
thread count fixed (BLAS_THREADS, at most the CPU count):

  --trace 0  a few set-up-only processes, then one process that runs an
             untimed warm-up pass and then repeats the workload's pass
             for --seconds (and at least its min_passes), gating every
             task's output; prints the end-to-end metrics.
  --trace 1  one process that, after the warm-up pass, alternates plain
             and traced passes; prints
             the per-layer metrics, with trace.overhead_s the difference
             of the two kinds' median pass times.

The last stdout line is the result JSON {"correct", "attempted", "failed",
"metrics"}; the lines before it repeat the metrics with their context and
the environment.  Full results and trace spans go to perfbench/_out/.
Exit code 2 when the checkout lacks the package, 1 when a workload
process fails or times out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, end_to_end  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 5           # set-up-only processes plus the measured one
SETUP_TIMEOUT_S = 60.0
MEASURE_TIMEOUT_S = 150.0


def _layout_problem(workload):
    if not os.path.isfile(os.path.join(ROOT, "src", "gpe", "__init__.py")):
        return f"no gpe package under {os.path.join(ROOT, 'src')}"
    if workload == "cli-examples" and not os.path.isdir(os.path.join(ROOT, "configs")):
        return f"no example configs under {os.path.join(ROOT, 'configs')}"
    return None


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def _spawn(args, mode, index, timeout):
    """Run one worker process to completion; returns its result dict."""
    path = os.path.join(OUT_DIR, f"worker-{os.getpid()}-{mode}-{index}.json")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(spawned_at), "--result", path]
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {mode} process exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} process exited with {proc.returncode}")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(path)
    return result


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    """sha256 over src/ and configs/, which names the code without git."""
    h = hashlib.sha256()
    for top in ("src", "configs"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if f.endswith((".py", ".json"))):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _environment(args, worker_env):
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads_set": min(BLAS_THREADS, os.cpu_count() or 1),
    }
    env.update(worker_env)
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = _layout_problem(args.workload)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.trace:
        main_run = _spawn(args, "trace", 0, MEASURE_TIMEOUT_S)
        setups = []
    else:
        setups = [_spawn(args, "setup", i, SETUP_TIMEOUT_S)["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        main_run = _spawn(args, "measure", 0, MEASURE_TIMEOUT_S)
        setups.append(main_run["setup_s"])

    env = _environment(args, main_run["env"])
    attempted, failed = main_run["attempted"], main_run["failed"]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}",
             "env " + json.dumps(env, sort_keys=True)]
    n_tasks = len(main_run["tasks"])
    if args.trace:
        values = main_run["per_layer"]
        units = dict(PER_LAYER)
        lines += _trace_report(main_run, values, units)
    else:
        walls = main_run["pass_walls"]
        times = [t for pass_times in main_run["task_times"] for t in pass_times]
        values, p = end_to_end(walls, times, setups, main_run["peak_rss_kb"],
                               main_run["min_passes"] * n_tasks)
        units = dict(END_TO_END)
        beyond = sum(1 for t in times if t > values["task_tail_s"])
        lines += [
            f"wall_s {values['wall_s']!r} s  mean of {len(walls)} passes of {n_tasks} tasks "
            f"(untimed warm-up pass: {main_run['warmup_wall']:.3f} s)",
            f"task_p50_s {values['task_p50_s']!r} s  over n={len(times)} task calls",
            f"task_tail_s {values['task_tail_s']!r} s  p{p:g} over n={len(times)} "
            f"task calls, {beyond} beyond it",
            f"setup_s {values['setup_s']!r} s  median of {len(setups)} process starts "
            f"{[round(s, 4) for s in setups]}",
            f"peak_rss_mb {values['peak_rss_mb']!r} MB  of the measured process",
        ]
    lines.append(f"failed_frac {failed / max(attempted, 1)!r}  ({failed} of {attempted} "
                 f"task calls failed the gate)")
    for name, msgs in main_run["failures"].items():
        lines.append(f"  FAILED {name}: {'; '.join(msgs)}")

    full = {"env": env, "values": values, "setup_samples": setups, "run": main_run}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def _trace_report(run, values, units):
    """Layer self times against the traced pass wall time, then per name."""
    layers = run["trace_layers"]
    n = sum(run["traced"])
    total = sum(rec["self_s"] for rec in layers.values()) / n
    wall = values["trace.pass_wall_s"]
    lines = [f"traced passes: {n} (plus {len(run['traced']) - n} plain); per traced pass:"]
    for layer, rec in layers.items():
        lines.append(f"  {layer + '.self_s':<22} {rec['self_s'] / n:.6f} s  "
                     f"calls {rec['calls'] / n:g} (exact)")
    lines.append(f"  sum of layer self times {total:.6f} s = pass wall {wall:.6f} s "
                 f"(remainder {wall - total:.3e} s)")
    lines.append(f"  trace.overhead_s {values['trace.overhead_s']:.6f} s "
                 "(median traced pass minus median plain pass)")
    lines.append("per public name (busy_s and self_s timed, calls exact), per traced pass:")
    for name, rec in run["trace_names"].items():
        lines.append(f"  {name:<34} calls {rec['calls']:>10g}  busy_s {rec['busy_s']:.6f}  "
                     f"self_s {rec['self_s']:.6f}")
    lines.append(f"spans written to {run['trace_file']}")
    for name, value in values.items():
        kind = "exact" if units[name] in ("count", "bytes") else "timed"
        lines.append(f"{name} {value!r} {units[name]} ({kind})")
    return lines


if __name__ == "__main__":
    sys.exit(main())
