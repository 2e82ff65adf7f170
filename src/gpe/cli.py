"""Batch front end: JSON configs in, CSV/JSONL diagnostics out.

The library is the one range validator: every out-of-range value, and
every set of inputs that do not fit together, raises gpe.ConfigError
there.  This module checks only the JSON layer (allowed and required
keys, and each field's JSON type), hands the values to the library, and
reports a ConfigError from either layer with the field it names.

Exit codes: 0 success, 2 config validation failure, 3 numerical
divergence or Picard non-contraction.  Every experiment computes all its
rows before it writes a file, so a failed run writes nothing.  Identical
(config, seed) pairs produce byte-identical output files; numbers are
serialized with 17 significant digits so CSV values round-trip doubles
exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .controls import ControlSignal, make_potential
from .diagnostics import (
    attainable_ensemble,
    check_smoothing_run,
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
from .hermite import ConfigError, basis_state, build_basis
from .operators import kato_functional, sobolev_norm


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@contextmanager
def _at(path: str):
    """Prefix a ConfigError raised by the library with the config block."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    _require(isinstance(obj, dict), f"{path}: expected an object")
    for key in obj:
        _require(key in allowed, f"{path}.{key}: unknown key")
    for key in required:
        _require(key in obj, f"{path}.{key}: missing required key")


def _number(obj, key, path: str) -> float:
    v = obj[key]
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), f"{path}.{key}: expected a number")
    _require(math.isfinite(v), f"{path}.{key}: must be finite")
    return float(v)


def _integer(obj, key, path: str) -> int:
    v = obj[key]
    _require(isinstance(v, int) and not isinstance(v, bool), f"{path}.{key}: expected an integer")
    return v


def _number_list(obj: dict, key: str, path: str, read=_number) -> list:
    """A JSON list read element by element with read (_number or _integer)."""
    v = obj[key]
    _require(isinstance(v, list), f"{path}.{key}: expected a list")
    return [read(v, i, f"{path}.{key}") for i in range(len(v))]


def _number_array(obj: dict, key: str, path: str) -> np.ndarray:
    """A JSON array of finite numbers, nested to any depth, as floats."""
    try:
        v = np.asarray(obj[key])
    except ValueError:  # ragged nesting
        v = np.asarray(None)
    _require(v.dtype.kind in "iuf" and np.all(np.isfinite(v)), f"{path}.{key}: expected finite numbers")
    return v.astype(float)


def _optional(obj: dict, key: str, path: str, read, default):
    return read(obj, key, path) if key in obj else default


def _build_control(spec: dict, duration: float, path: str) -> ControlSignal:
    _check_keys(spec, {"kind", "values", "base", "amplitude", "n"}, {"kind"}, path)
    kind = spec["kind"]
    if kind == "zero":
        _check_keys(spec, {"kind"}, {"kind"}, path)
        return ControlSignal.zero(duration)
    if kind in ("piecewise_constant", "sampled"):
        _check_keys(spec, {"kind", "values"}, {"kind", "values"}, path)
        values = _number_list(spec, "values", path)
        with _at(path):
            if kind == "sampled":
                return ControlSignal.sampled(values, duration)
            return ControlSignal.piecewise_constant(values, duration)
    if kind == "sinusoid_perturbed":
        _check_keys(spec, {"kind", "base", "amplitude", "n"}, {"kind", "base", "amplitude", "n"}, path)
        base = _build_control(spec["base"], duration, f"{path}.base")
        amp = _number(spec, "amplitude", path)
        n = _integer(spec, "n", path)
        with _at(path):
            return ControlSignal.sinusoid_perturbed(base, amp, n)
    raise ConfigError(f"{path}.kind: unknown control kind {kind!r}")


def _build_initial(spec: dict, seed_shift: int, path: str) -> InitialState:
    _check_keys(spec, {"kind", "k", "displacement", "decay", "seed"}, {"kind"}, path)
    kind = spec["kind"]
    fields = {}
    if kind == "eigenstate":
        _check_keys(spec, {"kind", "k"}, {"kind", "k"}, path)
        if isinstance(spec["k"], list):
            fields["mode"] = tuple(_number_list(spec, "k", path, _integer))
        else:
            fields["mode"] = (_integer(spec, "k", path),)
    elif kind == "coherent":
        _check_keys(spec, {"kind", "displacement"}, {"kind", "displacement"}, path)
        if isinstance(spec["displacement"], list):
            re_im = _number_list(spec, "displacement", path)
            _require(len(re_im) == 2, f"{path}.displacement: expected [re, im]")
            fields["displacement"] = complex(re_im[0], re_im[1])
        else:
            fields["displacement"] = complex(_number(spec, "displacement", path))
    elif kind == "random_decay":
        _check_keys(spec, {"kind", "decay", "seed"}, {"kind", "decay", "seed"}, path)
        fields["decay"] = _number(spec, "decay", path)
        fields["seed"] = _integer(spec, "seed", path) + seed_shift
    with _at(path):
        return InitialState(kind, **fields)


def _build_potential(spec: dict, basis, path: str):
    _check_keys(spec, {"kind", "amplitude", "width", "center", "values", "max_order"}, {"kind"}, path)
    kwargs = {key: _number(spec, key, path) for key in ("amplitude", "width", "center") if key in spec}
    if "max_order" in spec:
        kwargs["max_order"] = _integer(spec, "max_order", path)
    if "values" in spec:
        kwargs["values"] = _number_array(spec, "values", path)
    with _at(path):
        return make_potential(basis, spec["kind"], **kwargs)


_SIM_REQUIRED = {"dim", "n_modes", "sigma", "T", "dt", "initial_state", "potential", "control"}
_SIM_KEYS = _SIM_REQUIRED | {
    "quad_factor", "record_times", "n_records", "sobolev_s", "residual_k",
    "residual_beta", "integrator", "picard_tol", "picard_max_iter", "picard_window",
}


def build_simulation(spec: dict, path: str = "sim", seed_shift: int = 0):
    """Read a sim block and build (basis, SimConfig), checked by the library."""
    _check_keys(spec, _SIM_KEYS, _SIM_REQUIRED, path)
    dim = _integer(spec, "dim", path)
    n_modes = _integer(spec, "n_modes", path)
    quad_factor = _optional(spec, "quad_factor", path, _integer, 2)
    t_final = _number(spec, "T", path)
    with _at(path):
        basis = build_basis(dim, n_modes, quad_factor)

    if "record_times" in spec:
        _require("n_records" not in spec, f"{path}.n_records: give either record_times or n_records")
        record_times = tuple(_number_list(spec, "record_times", path))
        _require(record_times, f"{path}.record_times: expected a nonempty list")
    else:
        n_rec = _optional(spec, "n_records", path, _integer, 2)
        _require(n_rec >= 1, f"{path}.n_records: must be >= 1")
        record_times = tuple(np.linspace(0.0, t_final, max(n_rec, 2)))

    cfg = SimConfig(
        dim=dim,
        n_modes=n_modes,
        sigma=_integer(spec, "sigma", path),
        t_final=t_final,
        dt=_number(spec, "dt", path),
        initial_state=_build_initial(spec["initial_state"], seed_shift, f"{path}.initial_state"),
        potential=_build_potential(spec["potential"], basis, f"{path}.potential"),
        control=_build_control(spec["control"], t_final, f"{path}.control"),
        quad_factor=quad_factor,
        record_times=record_times,
        sobolev_s=tuple(_optional(spec, "sobolev_s", path, _number_list, (0.0, 1.0, 2.0))),
        residual_k=_optional(spec, "residual_k", path, _integer, 0),
        residual_beta=_optional(spec, "residual_beta", path, _number, 0.4),
        integrator=spec.get("integrator", "strang"),
        picard_tol=_optional(spec, "picard_tol", path, _number, 1e-10),
        picard_max_iter=_optional(spec, "picard_max_iter", path, _integer, 60),
        picard_window=_optional(spec, "picard_window", path, _number, 0.1),
    )
    with _at(path):
        cfg.validate(basis)
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


def _run_simulate(config: dict, seed: int) -> dict:
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    return {"trajectory": _trajectory_records(simulate(basis, cfg))}


def _run_convergence(config: dict, seed: int) -> dict:
    diag = config.get("diagnostic", {})
    _check_keys(diag, {"dts", "ref_refine"}, {"dts"}, "diagnostic")
    dts = _number_list(diag, "dts", "diagnostic")
    _require(len(dts) >= 2, "diagnostic.dts: need at least two step sizes")
    refine = _optional(diag, "ref_refine", "diagnostic", _integer, 16)
    _require(refine >= 2, "diagnostic.ref_refine: must be an integer >= 2")
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    cfg = replace(cfg, record_times=(cfg.t_final,))
    rows = []
    with _at("diagnostic.dts"):
        ref = simulate(basis, replace(cfg, dt=min(dts) / refine)).final_state
        for dt in sorted(dts, reverse=True):
            final = simulate(basis, replace(cfg, dt=dt)).final_state
            err = float(np.sqrt(np.sum(np.abs(final.coeffs - ref.coeffs) ** 2)))
            rows.append({"dt": dt, "error": err})
    return {"convergence": rows}


def _run_kato_scan(config: dict, seed: int) -> dict:
    diag = config.get("diagnostic", {})
    allowed = {"n_modes", "quad_factor", "beta", "k_max", "window", "n_time"}
    _check_keys(diag, allowed, {"beta", "k_max"}, "diagnostic")
    beta = _number(diag, "beta", "diagnostic")
    k_max = _integer(diag, "k_max", "diagnostic")
    _require(k_max >= 1, "diagnostic.k_max: must be >= 1")
    n_modes = _optional(diag, "n_modes", "diagnostic", _integer, k_max + 1)
    _require(n_modes > k_max, "diagnostic.n_modes: must exceed k_max")
    window = _optional(diag, "window", "diagnostic", _number_list, [-2.0 * np.pi, 2.0 * np.pi])
    _require(len(window) == 2, "diagnostic.window: expected [t0, t1]")
    n_time = _optional(diag, "n_time", "diagnostic", _integer, 256)
    qf = _optional(diag, "quad_factor", "diagnostic", _integer, 2)
    rows = []
    with _at("diagnostic"):
        basis = build_basis(1, n_modes, qf)
        for k in range(k_max + 1):
            phi = basis_state(basis, k)
            val = kato_functional(basis, phi, beta, (window[0], window[1]), n_time)
            rows.append({
                "k": k,
                "lambda": float(basis.lam[k]),
                "kato": val,
                "sobolev_2beta": sobolev_norm(basis, phi, 2.0 * beta),
            })
    return {"kato": rows}


def _run_smoothing(config: dict, seed: int) -> dict:
    diag = config.get("diagnostic", {})
    _check_keys(diag, {"k", "beta", "alpha"}, set(), "diagnostic")
    k = _optional(diag, "k", "diagnostic", _integer, 0)
    beta = _optional(diag, "beta", "diagnostic", _number, 0.4)
    alpha = _optional(diag, "alpha", "diagnostic", _number, 0.25)
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    check_smoothing_run(cfg, k, beta, alpha)
    traj = simulate(basis, cfg)
    series = smoothing_residual_series(traj, basis, k, beta)
    est = holder_quotient(residual_states(traj, basis), basis, k + beta, alpha, min_dt=traj.dt)
    return {
        "residual": [{"t": t, "residual": r} for t, r in series],
        "holder": [{
            "alpha": est.alpha,
            "quotient_sup": est.quotient_sup,
            "fitted_alpha": est.fitted_alpha if est.fitted_alpha is not None else float("nan"),
        }],
    }


def _run_weak_limit(config: dict, seed: int) -> dict:
    diag = config.get("diagnostic", {})
    _check_keys(diag, {"n_list", "amplitude", "s"}, {"n_list"}, "diagnostic")
    n_list = _number_list(diag, "n_list", "diagnostic", _integer)
    amp = _optional(diag, "amplitude", "diagnostic", _number, 1.0)
    s = _optional(diag, "s", "diagnostic", _number, 0.0)
    basis, cfg = build_simulation(config["sim"], seed_shift=seed)
    errs = weak_limit_experiment(basis, cfg, n_list, amp, s)
    return {"weak_limit": [{"n": n, "err": e} for n, e in errs]}


def _run_attainable(config: dict, seed: int) -> dict:
    diag = config.get("diagnostic", {})
    allowed = {"n_samples", "control_norm", "n_segments", "k", "beta", "cutoffs"}
    _check_keys(diag, allowed, {"n_samples", "control_norm"}, "diagnostic")
    n_samples = _integer(diag, "n_samples", "diagnostic")
    control_norm = _number(diag, "control_norm", "diagnostic")
    n_segments = _optional(diag, "n_segments", "diagnostic", _integer, 16)
    k = _optional(diag, "k", "diagnostic", _integer, 0)
    beta = _optional(diag, "beta", "diagnostic", _number, 0.4)
    cutoffs = _optional(diag, "cutoffs", "diagnostic", _number_list, None)
    _require(cutoffs != [], "diagnostic.cutoffs: expected a nonempty list")
    basis, cfg = build_simulation(config["sim"], seed_shift=0)
    profiles = attainable_ensemble(
        basis, cfg, n_samples, control_norm, seed=seed, k=k, beta=beta,
        cutoffs=cutoffs, n_segments=n_segments,
    )
    rows = []
    for i, prof in enumerate(profiles):
        for c, m in zip(prof.cutoffs, prof.masses):
            rows.append({"sample": i, "cutoff": float(c), "tail_mass": float(m)})
    return {"tails": rows}


# Each runner returns {file suffix: rows}; run_config writes the files
# only after every row is computed.
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
        _require(isinstance(experiment, str) and experiment in _RUNNERS,
                 f"config.experiment: unknown experiment {experiment!r}")
        _require(experiment == "kato-scan" or "sim" in config, "config.sim: missing required key")
        out = config["output"]
        _check_keys(out, {"path", "format"}, {"path"}, "config.output")
        fmt = out.get("format", "csv")
        _require(fmt in ("csv", "jsonl"), f"config.output.format: must be 'csv' or 'jsonl', got {fmt!r}")
        out_base = out["path"]
        _require(isinstance(out_base, str) and out_base, "config.output.path: expected a nonempty string")
        if output_override is not None:
            out_base = os.path.join(output_override, os.path.basename(out_base))
        seed = _optional(config, "seed", "config", _integer, 0)
        if seed_override is not None:
            seed = seed_override
        tables = _RUNNERS[experiment](config, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationDiverged as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    except PicardDidNotConverge as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    paths = []
    for name, rows in tables.items():
        paths.append(f"{out_base}_{name}.{fmt}")
        emit_records(rows, fmt, paths[-1])
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
    return run_config(config, seed_override, output_override)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gpe", description="Controlled oscillator experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("--config", required=True, help="path to a JSON experiment config")
    runp.add_argument("--seed-override", type=int, default=None)
    runp.add_argument("--output-override", type=str, default=None, help="redirect outputs into this directory")
    args = parser.parse_args(argv)
    return run(args.config, args.seed_override, args.output_override)


if __name__ == "__main__":
    sys.exit(main())
