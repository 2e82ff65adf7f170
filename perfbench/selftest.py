"""Self-test of the benchmark; exits 1 if any check fails.

    python3 perfbench/selftest.py

Checks, in about a minute:
  - the metric names and units each mode prints equal those declared in
    BENCHMARK.json, at two seeds, and the result line has exactly the keys
    correct, attempted, failed, metrics;
  - the same seed builds the same inputs; another seed changes every
    task's inputs but keeps the task set;
  - a pass at the default seed passes the gate against the stored
    reference, a perturbed reference makes every perturbed task fail, and
    a task that raises is counted as failed without stopping the pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = ["attempted", "correct", "failed", "metrics"]

_failures = []


def check(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        _failures.append(what)


def run_bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[section]}
        for seed in (W.DEFAULT_SEED, 1):
            result = run_bench("cli-examples", seed, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(sorted(result) == RESULT_KEYS, f"trace {trace} seed {seed}: result keys")
            check(got == want, f"trace {trace} seed {seed}: metric names and units "
                               f"equal BENCHMARK.json {section}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"trace {trace} seed {seed}: no task failed")


def fingerprint(obj, h=None):
    """sha256 of a task's inputs: dataclass fields, arrays, numbers, text."""
    top = h is None
    h = h or hashlib.sha256()
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode() + obj.tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            fingerprint(key, h)
            fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            fingerprint(item, h)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def check_seeded_inputs(G):
    for name in W.WORKLOADS:
        a = W.build(name, G, W.DEFAULT_SEED, worker.OUT_DIR)
        again = W.build(name, G, W.DEFAULT_SEED, worker.OUT_DIR)
        b = W.build(name, G, W.DEFAULT_SEED + 1, worker.OUT_DIR)
        fa = {t.name: fingerprint(t.inputs) for t in a.tasks}
        fb = {t.name: fingerprint(t.inputs) for t in b.tasks}
        check(fa == {t.name: fingerprint(t.inputs) for t in again.tasks},
              f"{name}: the same seed builds the same inputs")
        check(list(fa) == list(fb), f"{name}: another seed keeps the task set")
        same = [task for task in fa if fa[task] == fb[task]]
        check(not same, f"{name}: another seed changes every task's inputs "
                        f"(unchanged: {same[:3]})")


def check_gate(G):
    for name in ("ensemble-1d", "cli-examples"):
        wl = W.build(name, G, W.DEFAULT_SEED, worker.OUT_DIR)
        ref = W.load_reference(name)
        _, _, results, errors, _ = worker.run_pass(wl)
        clean = W.gate(wl, results, errors, ref)
        check(not any(clean.values()), f"{name}: default seed passes against the reference")
        perturbed = {}
        for task, outs in ref.items():
            key = sorted(outs)[0]
            bumped = dict(outs)
            bumped[key] = outs[key] + 1e-10 * max(np.linalg.norm(outs[key]), 1.0)
            perturbed[task] = bumped
        verdict = W.gate(wl, results, errors, perturbed)
        missed = [task for task, msgs in verdict.items() if not msgs]
        check(not missed, f"{name}: a reference moved by 1e-10 of its scale fails every "
                          f"task (missed: {missed[:3]})")
        wl.after_pass()

    wl = W.build("ensemble-1d", G, W.DEFAULT_SEED, worker.OUT_DIR)
    broken = wl.tasks[0]

    def boom():
        raise RuntimeError("injected")

    broken.call = boom
    _, _, results, errors, _ = worker.run_pass(wl)
    verdict = W.gate(wl, results, errors, W.load_reference("ensemble-1d"))
    check(verdict[broken.name] and len(results) == len(wl.tasks) - 1
          and not any(msgs for task, msgs in verdict.items() if task != broken.name),
          "a raising task fails alone and the pass runs every other task")


def main():
    G = worker._import_gpe()
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    check_seeded_inputs(G)
    check_gate(G)
    check_metric_names()
    if _failures:
        print(f"{len(_failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
