"""Batch front end: validated JSON configs in, CSV/JSONL diagnostics out.

Exit codes: 0 success, 2 config validation failure, 3 numerical
divergence or Picard non-contraction.  Identical (config, seed) pairs
produce byte-identical output files; numbers are serialized with 17
significant digits so CSV values round-trip doubles exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .controls import ControlSignal, make_potential
from .diagnostics import (
    attainable_ensemble,
    holder_quotient,
    residual_states,
    smoothing_residual_series,
    weak_limit_experiment,
)
from .dynamics import (
    InitialState,
    PicardDidNotConverge,
    SimConfig,
    SimulationDiverged,
    simulate,
)
from .hermite import basis_state, build_basis
from .operators import kato_functional, sobolev_norm

EXPERIMENTS = ("simulate", "kato-scan", "smoothing", "attainable", "weak-limit", "convergence")


class ConfigError(ValueError):
    """Raised on any malformed, unknown, or out-of-range config field."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    _require(isinstance(obj, dict), f"{path}: expected an object")
    for key in obj:
        _require(key in allowed, f"{path}.{key}: unknown key")
    for key in required:
        _require(key in obj, f"{path}.{key}: missing required key")


def _number(obj: dict, key: str, path: str, positive: bool = False) -> float:
    v = obj[key]
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), f"{path}.{key}: expected a number")
    _require(math.isfinite(v), f"{path}.{key}: must be finite")
    if positive:
        _require(v > 0, f"{path}.{key}: must be positive")
    return float(v)


def _integer(obj: dict, key: str, path: str) -> int:
    v = obj[key]
    _require(isinstance(v, int) and not isinstance(v, bool), f"{path}.{key}: expected an integer")
    return v


def _number_list(obj: dict, key: str, path: str) -> list:
    v = obj[key]
    _require(isinstance(v, list), f"{path}.{key}: expected a list")
    for x in v:
        _require(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x),
            f"{path}.{key}: expected finite numbers, got {x!r}",
        )
    return v


def _build_control(spec: dict, duration: float, path: str) -> ControlSignal:
    _check_keys(spec, {"kind", "values", "base", "amplitude", "n"}, {"kind"}, path)
    kind = spec["kind"]
    if kind == "zero":
        _check_keys(spec, {"kind"}, {"kind"}, path)
        return ControlSignal.zero(duration)
    if kind == "piecewise_constant":
        _check_keys(spec, {"kind", "values"}, {"kind", "values"}, path)
        vals = spec["values"]
        _require(isinstance(vals, list) and len(vals) >= 1, f"{path}.values: expected a nonempty list")
        return ControlSignal.piecewise_constant(np.asarray(vals, dtype=float), duration)
    if kind == "sampled":
        _check_keys(spec, {"kind", "values"}, {"kind", "values"}, path)
        vals = spec["values"]
        _require(isinstance(vals, list) and len(vals) >= 2, f"{path}.values: expected at least two samples")
        return ControlSignal.sampled(np.asarray(vals, dtype=float), duration)
    if kind == "sinusoid_perturbed":
        _check_keys(spec, {"kind", "base", "amplitude", "n"}, {"kind", "base", "amplitude", "n"}, path)
        base = _build_control(spec["base"], duration, f"{path}.base")
        amp = _number(spec, "amplitude", path)
        n = _integer(spec, "n", path)
        _require(n >= 1, f"{path}.n: must be >= 1")
        return ControlSignal.sinusoid_perturbed(base, amp, n)
    raise ConfigError(f"{path}.kind: unknown control kind {kind!r}")


def _build_initial(spec: dict, path: str) -> InitialState:
    _check_keys(spec, {"kind", "k", "displacement", "decay", "seed"}, {"kind"}, path)
    kind = spec["kind"]
    if kind == "eigenstate":
        _check_keys(spec, {"kind", "k"}, {"kind", "k"}, path)
        k = spec["k"]
        mode = tuple(k) if isinstance(k, list) else (k,)
        for j in mode:
            _require(isinstance(j, int) and j >= 0, f"{path}.k: mode indices must be nonnegative integers")
        return InitialState("eigenstate", mode)
    if kind == "coherent":
        _check_keys(spec, {"kind", "displacement"}, {"kind", "displacement"}, path)
        disp = spec["displacement"]
        if isinstance(disp, list):
            _require(len(disp) == 2, f"{path}.displacement: expected [re, im]")
            disp = complex(disp[0], disp[1])
        else:
            _require(isinstance(disp, (int, float)), f"{path}.displacement: expected a number")
        return InitialState("coherent", displacement=complex(disp))
    if kind == "random_decay":
        _check_keys(spec, {"kind", "decay", "seed"}, {"kind", "decay", "seed"}, path)
        decay = _number(spec, "decay", path)
        seed = _integer(spec, "seed", path)
        return InitialState("random_decay", decay=decay, seed=seed)
    raise ConfigError(f"{path}.kind: unknown initial state kind {kind!r}")


_SIM_KEYS = {
    "dim", "n_modes", "quad_factor", "sigma", "T", "dt", "initial_state",
    "potential", "control", "record_times", "n_records", "sobolev_s",
    "residual_k", "residual_beta", "integrator", "picard_tol",
    "picard_max_iter", "picard_window",
}
_SIM_REQUIRED = {"dim", "n_modes", "sigma", "T", "dt", "initial_state", "potential", "control"}


def build_simulation(spec: dict, path: str = "sim", seed_shift: int = 0):
    """Validate a sim block and build (basis, SimConfig)."""
    _check_keys(spec, _SIM_KEYS, _SIM_REQUIRED, path)
    dim = _integer(spec, "dim", path)
    _require(dim in (1, 2, 3), f"{path}.dim: must be 1, 2 or 3")
    n_modes = _integer(spec, "n_modes", path)
    _require(2 <= n_modes <= 1024, f"{path}.n_modes: must be in [2, 1024]")
    quad_factor = _integer(spec, "quad_factor", path) if "quad_factor" in spec else 2
    _require(quad_factor >= 2, f"{path}.quad_factor: must be >= 2")
    _require(quad_factor * n_modes <= 8192, f"{path}.n_modes: quadrature would exceed 8192 nodes")
    sigma = _integer(spec, "sigma", path)
    _require(sigma in (-1, 0, 1), f"{path}.sigma: must be -1, 0 or 1")
    t_final = _number(spec, "T", path, positive=True)
    dt = _number(spec, "dt", path, positive=True)

    basis = build_basis(dim, n_modes, quad_factor)

    pot_spec = spec["potential"]
    _check_keys(pot_spec, {"kind", "amplitude", "width", "center", "values", "max_order"}, {"kind"}, f"{path}.potential")
    pot_kwargs = {}
    for key in ("amplitude", "width", "center"):
        if key in pot_spec:
            pot_kwargs[key] = _number(pot_spec, key, f"{path}.potential")
    if "max_order" in pot_spec:
        pot_kwargs["max_order"] = _integer(pot_spec, "max_order", f"{path}.potential")
    if "values" in pot_spec:
        pot_kwargs["values"] = np.asarray(pot_spec["values"], dtype=float)
    try:
        potential = make_potential(basis, pot_spec["kind"], **pot_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.potential: {exc}") from exc

    control = _build_control(spec["control"], t_final, f"{path}.control")
    initial = _build_initial(spec["initial_state"], f"{path}.initial_state")
    if initial.kind == "random_decay" and seed_shift:
        initial = replace(initial, seed=initial.seed + seed_shift)

    if "record_times" in spec:
        _require("n_records" not in spec, f"{path}.n_records: give either record_times or n_records")
        rts = _number_list(spec, "record_times", path)
        _require(rts, f"{path}.record_times: expected a nonempty list")
        record_times = tuple(float(t) for t in rts)
    else:
        n_rec = _integer(spec, "n_records", path) if "n_records" in spec else 2
        _require(n_rec >= 1, f"{path}.n_records: must be >= 1")
        record_times = tuple(np.linspace(0.0, t_final, max(n_rec, 2)))
    for t in record_times:
        _require(0.0 <= t <= t_final + 1e-12, f"{path}.record_times: {t} outside [0, T]")

    sobolev_s = (0.0, 1.0, 2.0)
    if "sobolev_s" in spec:
        sobolev_s = tuple(_number_list(spec, "sobolev_s", path))
        _require(all(s >= 0 for s in sobolev_s), f"{path}.sobolev_s: orders must be >= 0")
    residual_k = _integer(spec, "residual_k", path) if "residual_k" in spec else 0
    residual_beta = _number(spec, "residual_beta", path) if "residual_beta" in spec else 0.4
    _require(0.0 <= residual_beta < 0.5, f"{path}.residual_beta: must be in [0, 0.5)")
    integrator = spec.get("integrator", "strang")
    _require(integrator in ("strang", "picard"), f"{path}.integrator: unknown integrator {integrator!r}")

    cfg = SimConfig(
        dim=dim,
        n_modes=n_modes,
        sigma=sigma,
        t_final=t_final,
        dt=dt,
        initial_state=initial,
        potential=potential,
        control=control,
        quad_factor=quad_factor,
        record_times=record_times,
        sobolev_s=sobolev_s,
        residual_k=residual_k,
        residual_beta=residual_beta,
        integrator=integrator,
        picard_tol=_number(spec, "picard_tol", path, positive=True) if "picard_tol" in spec else 1e-10,
        picard_max_iter=_integer(spec, "picard_max_iter", path) if "picard_max_iter" in spec else 60,
        picard_window=_number(spec, "picard_window", path, positive=True) if "picard_window" in spec else 0.1,
    )
    return basis, cfg


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit_records(records: list[dict], fmt: str, path: str) -> None:
    """Write records as a header-bearing CSV or as JSON lines.

    CSV uses '.' decimals, comma separators, LF line endings and 17
    significant digits, so doubles survive a parse round trip.  Rewriting
    the same records yields a byte-identical file.
    """
    if not records:
        raise ValueError("no records to write")
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown output format {fmt!r}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if fmt == "csv":
        keys = list(records[0].keys())
        lines = [",".join(keys)]
        for rec in records:
            lines.append(",".join(_fmt(rec[k]) for k in keys))
        data = "\n".join(lines) + "\n"
    else:
        data = "".join(json.dumps(rec) + "\n" for rec in records)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(data)


def _trajectory_records(traj) -> list[dict]:
    rows = []
    for rec in traj.records:
        row = {"t": rec.t, "l2": rec.l2, "energy": rec.energy}
        for s, v in rec.sobolev.items():
            row[f"h{s:g}"] = v
        row["residual_h"] = rec.residual_sobolev
        row["linf"] = rec.linf
        rows.append(row)
    return rows


def _run_simulate(config: dict, seed: int, out_base: str, fmt: str) -> list[str]:
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    traj = simulate(basis, cfg)
    path = f"{out_base}_trajectory.{fmt}"
    emit_records(_trajectory_records(traj), fmt, path)
    return [path]


def _run_convergence(config: dict, seed: int, out_base: str, fmt: str) -> list[str]:
    diag = config.get("diagnostic", {})
    _check_keys(diag, {"dts", "ref_refine"}, {"dts"}, "diagnostic")
    dts = diag["dts"]
    _require(isinstance(dts, list) and len(dts) >= 2, "diagnostic.dts: need at least two step sizes")
    refine = diag.get("ref_refine", 16)
    _require(isinstance(refine, int) and refine >= 2, "diagnostic.ref_refine: must be an integer >= 2")
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    cfg = replace(cfg, record_times=(cfg.t_final,))
    ref = simulate(basis, replace(cfg, dt=min(dts) / refine)).final_state
    rows = []
    for dt in sorted(dts, reverse=True):
        final = simulate(basis, replace(cfg, dt=float(dt))).final_state
        err = float(np.sqrt(np.sum(np.abs(final.coeffs - ref.coeffs) ** 2)))
        rows.append({"dt": float(dt), "error": err})
    path = f"{out_base}_convergence.{fmt}"
    emit_records(rows, fmt, path)
    return [path]


def _run_kato_scan(config: dict, seed: int, out_base: str, fmt: str) -> list[str]:
    diag = config.get("diagnostic", {})
    allowed = {"n_modes", "quad_factor", "beta", "k_max", "window", "n_time"}
    _check_keys(diag, allowed, {"beta", "k_max"}, "diagnostic")
    beta = _number(diag, "beta", "diagnostic")
    _require(0.0 <= beta < 0.5, "diagnostic.beta: must be in [0, 0.5)")
    k_max = _integer(diag, "k_max", "diagnostic")
    _require(k_max >= 1, "diagnostic.k_max: must be >= 1")
    n_modes = diag.get("n_modes", k_max + 1)
    _require(isinstance(n_modes, int) and n_modes > k_max, "diagnostic.n_modes: must exceed k_max")
    window = diag.get("window", [-2.0 * np.pi, 2.0 * np.pi])
    _require(isinstance(window, list) and len(window) == 2, "diagnostic.window: expected [t0, t1]")
    n_time = diag.get("n_time", 256)
    _require(isinstance(n_time, int) and n_time >= 16, "diagnostic.n_time: must be an integer >= 16")
    qf = diag.get("quad_factor", 2)
    basis = build_basis(1, n_modes, qf)
    rows = []
    for k in range(k_max + 1):
        phi = basis_state(basis, k)
        val = kato_functional(basis, phi, beta, (window[0], window[1]), n_time)
        rows.append({
            "k": k,
            "lambda": 2.0 * k + 1.0,
            "kato": val,
            "sobolev_2beta": sobolev_norm(basis, phi, 2.0 * beta),
        })
    path = f"{out_base}_kato.{fmt}"
    emit_records(rows, fmt, path)
    return [path]


def _run_smoothing(config: dict, seed: int, out_base: str, fmt: str) -> list[str]:
    diag = config.get("diagnostic", {})
    _check_keys(diag, {"k", "beta", "alpha"}, set(), "diagnostic")
    k = diag.get("k", 0)
    _require(isinstance(k, int) and k >= 0 and k % 2 == 0, "diagnostic.k: must be an even nonnegative integer")
    beta = diag.get("beta", 0.4)
    _require(isinstance(beta, (int, float)) and 0.0 <= beta < 0.5, "diagnostic.beta: must be in [0, 0.5)")
    alpha = diag.get("alpha", 0.25)
    _require(isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0, "diagnostic.alpha: must be in (0, 1)")
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    _require(cfg.sigma == 0, "sim.sigma: smoothing experiments need sigma = 0")
    traj = simulate(basis, cfg)
    series = smoothing_residual_series(traj, basis, k, beta)
    res_path = f"{out_base}_residual.{fmt}"
    emit_records([{"t": t, "residual": r} for t, r in series], fmt, res_path)
    states = residual_states(traj, basis)
    est = holder_quotient(states, basis, k + beta, alpha, min_dt=traj.dt)
    hol_path = f"{out_base}_holder.{fmt}"
    emit_records(
        [{
            "alpha": est.alpha,
            "quotient_sup": est.quotient_sup,
            "fitted_alpha": est.fitted_alpha if est.fitted_alpha is not None else float("nan"),
        }],
        fmt,
        hol_path,
    )
    return [res_path, hol_path]


def _run_weak_limit(config: dict, seed: int, out_base: str, fmt: str) -> list[str]:
    diag = config.get("diagnostic", {})
    _check_keys(diag, {"n_list", "amplitude", "s"}, {"n_list"}, "diagnostic")
    n_list = diag["n_list"]
    _require(isinstance(n_list, list) and all(isinstance(n, int) and n >= 1 for n in n_list),
             "diagnostic.n_list: expected a list of positive integers")
    _require(sorted(n_list) == n_list, "diagnostic.n_list: must be increasing")
    amp = diag.get("amplitude", 1.0)
    _require(isinstance(amp, (int, float)) and amp >= 0, "diagnostic.amplitude: must be nonnegative")
    s = diag.get("s", 0.0)
    _require(isinstance(s, (int, float)) and s >= 0, "diagnostic.s: must be nonnegative")
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    cfg = replace(cfg, record_times=(cfg.t_final,))
    errs = weak_limit_experiment(basis, cfg, n_list, float(amp), float(s))
    path = f"{out_base}_weak_limit.{fmt}"
    emit_records([{"n": n, "err": e} for n, e in errs], fmt, path)
    return [path]


def _run_attainable(config: dict, seed: int, out_base: str, fmt: str) -> list[str]:
    diag = config.get("diagnostic", {})
    allowed = {"n_samples", "control_norm", "n_segments", "k", "beta", "cutoffs"}
    _check_keys(diag, allowed, {"n_samples", "control_norm"}, "diagnostic")
    n_samples = _integer(diag, "n_samples", "diagnostic")
    _require(n_samples >= 1, "diagnostic.n_samples: must be >= 1")
    control_norm = _number(diag, "control_norm", "diagnostic")
    _require(control_norm >= 0, "diagnostic.control_norm: must be nonnegative")
    n_segments = diag.get("n_segments", 16)
    k = diag.get("k", 0)
    beta = diag.get("beta", 0.4)
    _require(isinstance(beta, (int, float)) and 0.0 <= beta < 0.5, "diagnostic.beta: must be in [0, 0.5)")
    basis, cfg = build_simulation(config["sim"], seed_shift=0)
    _require(cfg.sigma == 0, "sim.sigma: attainable ensembles need sigma = 0")
    cutoffs = diag.get("cutoffs")
    profiles = attainable_ensemble(
        basis, cfg, n_samples, control_norm, seed=seed, k=k, beta=beta,
        cutoffs=cutoffs, n_segments=n_segments,
    )
    rows = []
    for i, prof in enumerate(profiles):
        for c, m in zip(prof.cutoffs, prof.masses):
            rows.append({"sample": i, "cutoff": float(c), "tail_mass": float(m)})
    path = f"{out_base}_tails.{fmt}"
    emit_records(rows, fmt, path)
    return [path]


_RUNNERS = {
    "simulate": _run_simulate,
    "convergence": _run_convergence,
    "kato-scan": _run_kato_scan,
    "smoothing": _run_smoothing,
    "weak-limit": _run_weak_limit,
    "attainable": _run_attainable,
}

_TOP_KEYS = {"experiment", "seed", "output", "sim", "diagnostic"}


def run_config(config: dict, seed_override: int | None = None, output_override: str | None = None) -> int:
    """Validate and execute one experiment config; returns the exit code."""
    start = time.perf_counter()
    try:
        _check_keys(config, _TOP_KEYS, {"experiment", "output"}, "config")
        experiment = config["experiment"]
        _require(experiment in EXPERIMENTS, f"config.experiment: unknown experiment {experiment!r}")
        _require(experiment == "kato-scan" or "sim" in config, "config.sim: missing required key")
        out = config["output"]
        _check_keys(out, {"path", "format"}, {"path"}, "config.output")
        fmt = out.get("format", "csv")
        _require(fmt in ("csv", "jsonl"), f"config.output.format: must be 'csv' or 'jsonl', got {fmt!r}")
        out_base = out["path"]
        _require(isinstance(out_base, str) and out_base, "config.output.path: expected a nonempty string")
        if output_override is not None:
            out_base = os.path.join(output_override, os.path.basename(out_base))
        seed = config.get("seed", 0)
        _require(isinstance(seed, int) and not isinstance(seed, bool), "config.seed: expected an integer")
        if seed_override is not None:
            seed = seed_override
        paths = _RUNNERS[experiment](config, seed, out_base, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationDiverged as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    except PicardDidNotConverge as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    print(f"{experiment}: wrote {', '.join(paths)} in {wall:.2f} s")
    return 0


def run(config_path: str, seed_override: int | None = None, output_override: str | None = None) -> int:
    """Load a JSON config file and run it; returns the exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {config_path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return 2
    return run_config(config, seed_override, output_override)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gpe", description="Controlled oscillator experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("--config", required=True, help="path to a JSON experiment config")
    runp.add_argument("--seed-override", type=int, default=None)
    runp.add_argument("--output-override", type=str, default=None, help="redirect outputs into this directory")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.seed_override, args.output_override)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
