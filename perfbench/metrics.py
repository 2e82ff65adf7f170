"""Names, units and formulas of the metrics the benchmark prints.

BENCHMARK.json declares the same names; selftest.py checks that they agree.
Every per-layer value is per traced pass (the mean over the traced passes
of one run), except the `setup.*` ones, which time the traced set-up.
Counts are exact (the same on every pass of a run); times are measured.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, STEP_SIZES

# (name, unit); every one of them is better when lower.
END_TO_END = (
    ("wall_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Functions whose time and call count are reported one by one:
# (span name, "busy" or "self").
FUNCTIONS = (
    ("controls.integral", "busy"),
    ("dynamics.energy", "busy"),
    ("operators.sobolev_norm", "busy"),
    ("operators.free_propagate", "busy"),
    ("operators.lp_norm", "busy"),
    ("hermite.build_basis", "busy"),
    ("controls.make_potential", "busy"),
    ("operators.kato_functional", "busy"),
    ("dynamics.picard_solve", "self"),
    ("cli.run_config", "self"),
    ("cli.build_simulation", "busy"),
    ("cli.emit_records", "busy"),
)

def _step_name(dim, n):
    return f"dynamics.step_self_us.d{dim}n{n}"


PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in LAYERS + ("bench",))
    + tuple((f"{layer}.calls", "count") for layer in LAYERS)
    + (("trace.pass_wall_s", "s"), ("trace.overhead_s", "s"))
    + tuple((_step_name(d, n), "us") for d, n in STEP_SIZES)
    + (("dynamics.steps", "count"), ("dynamics.records", "count"),
       ("dynamics.picard_iters", "count"), ("cli.emit_records.bytes", "bytes"))
    + tuple(item for name, kind in FUNCTIONS
            for item in ((f"{name}.{kind}_s", "s"), (f"{name}.calls", "count")))
    + (("setup.wall_s", "s"), ("setup.hermite.build_basis.busy_s", "s"),
       ("setup.controls.make_potential.busy_s", "s"))
)


def per_layer(passes: dict, setup: dict, n_traced: int, overhead_s: float) -> dict:
    """Per-layer metric values from tracing.summarize() of the traced
    passes (`passes`, totals over n_traced passes) and of the set-up."""
    k = float(n_traced)
    out = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = passes["layers"][layer]["self_s"] / k
    for layer in LAYERS:
        out[f"{layer}.calls"] = passes["layers"][layer]["calls"] / k
    out["trace.pass_wall_s"] = passes["wall_s"] / k
    out["trace.overhead_s"] = overhead_s
    for (d, n), (steps, self_t) in passes["steps"].items():
        out[_step_name(d, n)] = 1e6 * self_t / steps if steps else 0.0
    for name, total in passes["extra"].items():
        out[name] = total / k
    for name, kind in FUNCTIONS:
        rec = passes["names"].get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{name}.{kind}_s"] = rec[f"{kind}_s"] / k
        out[f"{name}.calls"] = rec["calls"] / k
    out["setup.wall_s"] = setup["wall_s"]
    for name in ("hermite.build_basis", "controls.make_potential"):
        out[f"setup.{name}.busy_s"] = setup["names"].get(name, {}).get("busy_s", 0.0)
    return out


# The tail is the highest of these percentiles with at least ten task
# samples beyond it in the smallest run (min_passes passes).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(min_samples: int) -> float:
    for p in TAIL_LADDER:
        if min_samples * (100.0 - p) >= 1000.0:
            return p
    return 50.0


def end_to_end(pass_walls, task_times, setup_samples, peak_rss_kb, min_samples):
    p = tail_percentile(min_samples)
    values = {
        # The mean, not the median: the host's speed drifts over seconds,
        # and the mean integrates the drift where the median jumps with it.
        "wall_s": statistics.fmean(pass_walls),
        "task_p50_s": statistics.median(task_times),
        "task_tail_s": statistics.quantiles(task_times, n=100, method="inclusive")[int(p) - 1],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return values, p
