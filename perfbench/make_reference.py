"""Write the stored reference outputs for the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs one pass of each named workload (all by default) at the default seed
with one BLAS thread, requires every task to pass its seed-independent
checks, and saves every output array to perfbench/reference/<workload>.npz.
Rerun it only when a change is meant to move results; the gate compares
later runs against these files at a relative L2 tolerance of 1e-12.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads as W  # noqa: E402


def make(name, G):
    wl = W.build(name, G, W.DEFAULT_SEED, worker.OUT_DIR)
    _, _, results, errors, _ = worker.run_pass(wl)
    verdict = W.gate(wl, results, errors, None)
    bad = {task: msgs for task, msgs in verdict.items() if msgs}
    arrays = {}
    if not bad:
        for task in wl.tasks:
            for key, arr in task.outputs(results[task.name]).items():
                if key != "final" or task.store_final:
                    arrays[f"{task.name}|{key}"] = np.asarray(arr)
    wl.after_pass()
    if bad:
        raise SystemExit(f"{name}: tasks failed their checks, no reference written: {bad}")
    path = W.reference_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)
    print(f"{name}: {len(wl.tasks)} tasks, {len(arrays)} arrays -> {os.path.relpath(path)}")


def main(argv):
    G = worker._import_gpe()
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    for name in argv or W.WORKLOADS:
        make(name, G)


if __name__ == "__main__":
    main(sys.argv[1:])
