"""Batch front end: JSON configs in, CSV/JSONL diagnostics out.

The library is the one range validator and owns every default: every
out-of-range value, and every set of inputs that do not fit together,
raises gpe.ConfigError there, and a key a config leaves out takes the
default of the library parameter it feeds.  This module checks only the
JSON layer: each block's allowed and required keys (a block that the
experiment does not read must be absent or empty), each field's JSON
type, and that a number fits a double and an integer fits int64.  Each
key is named once, next to its reader.  Each experiment is one library
call, and a ConfigError from either layer is reported with the field it
names.

Exit codes: 0 success, 2 config validation failure (including an output
path that cannot be written), 3 numerical divergence or Picard
non-contraction.  Every experiment computes all its rows before it writes
a file, so a failed run writes nothing.  Identical (config, seed) pairs
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
from contextlib import contextmanager

import numpy as np

from .controls import ControlSignal, make_potential
from .diagnostics import (
    attainable_ensemble,
    convergence_errors,
    kato_scan,
    smoothing_experiment,
    weak_limit_experiment,
)
from .dynamics import (
    MAX_STEPS,
    InitialState,
    PicardDidNotConverge,
    SimConfig,
    SimulationDiverged,
    _even_records,
    make_initial_state,
    simulate,
)
from .hermite import ConfigError, build_basis


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


def _read(obj, path: str, required, /, **readers) -> dict:
    """The keys of the block obj that it gives, each read by its reader.

    Refuses a key with no reader and a missing required key.  A reader
    is read(value, where) with where the key's config path.
    """
    _require(isinstance(obj, dict), f"{path}: expected an object")
    for key in obj:
        _require(key in readers, f"{path}.{key}: unknown key")
    for key in required:
        _require(key in obj, f"{path}.{key}: missing required key")
    return {key: read(obj[key], f"{path}.{key}") for key, read in readers.items() if key in obj}


def _raw(v, where: str):
    """A nested block, passed on to its own _read."""
    return v


def _string(v, where: str) -> str:
    _require(isinstance(v, str), f"{where}: expected a string")
    return v


def _number(v, where: str) -> float:
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), f"{where}: expected a number")
    try:
        v = float(v)
    except OverflowError:  # an integer literal beyond the double range
        raise ConfigError(f"{where}: outside the double range") from None
    _require(math.isfinite(v), f"{where}: must be finite")
    return v


def _integer(v, where: str) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool), f"{where}: expected an integer")
    _require(-2**63 <= v < 2**63, f"{where}: outside the int64 range")
    return v


def _number_list(v, where: str, read=_number) -> tuple:
    """A JSON list read element by element with read (_number or _integer)."""
    _require(isinstance(v, list), f"{where}: expected a list")
    return tuple(read(x, f"{where}.{i}") for i, x in enumerate(v))


def _integer_list(v, where: str) -> tuple:
    return _number_list(v, where, _integer)


def _number_array(v, where: str) -> np.ndarray:
    """A JSON array of finite numbers, nested to any depth, as floats."""
    try:
        v = np.asarray(v)
    except ValueError:  # ragged nesting
        v = np.asarray(None)
    _require(v.dtype.kind in "iuf" and np.all(np.isfinite(v)), f"{where}: expected finite numbers")
    return v.astype(float)


def _mode(v, where: str) -> tuple:
    """An eigenstate index: an integer, or a list of them, one per axis."""
    return _integer_list(v, where) if isinstance(v, list) else (_integer(v, where),)


def _complex(v, where: str) -> complex:
    """A number, or a list [re, im]."""
    if not isinstance(v, list):
        return complex(_number(v, where))
    re_im = _number_list(v, where)
    _require(len(re_im) == 2, f"{where}: expected [re, im]")
    return complex(*re_im)


def _read_kind(spec, path: str, kinds: dict) -> dict:
    """A block {"kind": k, ...} whose other keys, all required, are those kinds[k] reads."""
    _require(isinstance(spec, dict), f"{path}: expected an object")
    _require("kind" in spec, f"{path}.kind: missing required key")
    kind = _string(spec["kind"], f"{path}.kind")
    _require(kind in kinds, f"{path}.kind: unknown kind {kind!r}")
    return _read(spec, path, ("kind", *kinds[kind]), kind=_string, **kinds[kind])


_CONTROL_KINDS = {
    "zero": {},
    "piecewise_constant": {"values": _number_list},
    "sampled": {"values": _number_list},
    "sinusoid_perturbed": {"base": _raw, "amplitude": _number, "n": _integer},
}


def _build_control(spec, duration: float, path: str) -> ControlSignal:
    f = _read_kind(spec, path, _CONTROL_KINDS)
    kind = f["kind"]
    if kind == "sinusoid_perturbed":
        base = _build_control(f["base"], duration, f"{path}.base")
        with _at(path):
            return ControlSignal.sinusoid_perturbed(base, f["amplitude"], f["n"])
    with _at(path):
        if kind == "zero":
            return ControlSignal.zero(duration)
        if kind == "sampled":
            return ControlSignal.sampled(f["values"], duration)
        return ControlSignal.piecewise_constant(f["values"], duration)


_INITIAL_KINDS = {
    "eigenstate": {"k": _mode},
    "coherent": {"displacement": _complex},
    "random_decay": {"decay": _number, "seed": _integer},
}


def _build_initial(spec, seed_shift: int, path: str) -> InitialState:
    f = _read_kind(spec, path, _INITIAL_KINDS)
    if "k" in f:
        f["mode"] = f.pop("k")
    if "seed" in f:
        f["seed"] += seed_shift
    with _at(path):
        return InitialState(**f)


def _build_potential(spec, basis, path: str):
    f = _read(spec, path, ("kind",), kind=_string, amplitude=_number, width=_number,
              center=_number, values=_number_array)
    with _at(path):
        return make_potential(basis, **f)


def build_simulation(spec: dict, path: str = "sim", seed_shift: int = 0):
    """Read a sim block and build (basis, SimConfig), checked by the library."""
    f = _read(
        spec, path, ("dim", "n_modes", "sigma", "T", "dt", "initial_state", "potential", "control"),
        dim=_integer, n_modes=_integer, quad_factor=_integer, sigma=_integer, T=_number, dt=_number,
        initial_state=_raw, potential=_raw, control=_raw, record_times=_number_list,
        n_records=_integer, sobolev_s=_number_list, residual_k=_integer, residual_beta=_number,
        integrator=_string, picard_tol=_number, picard_max_iter=_integer, picard_window=_number,
    )
    f["t_final"] = t_final = f.pop("T")
    grid = {key: f[key] for key in ("dim", "n_modes", "quad_factor") if key in f}
    with _at(path):
        basis = build_basis(**grid)
    n_rec = f.pop("n_records", None)
    if "record_times" in f:
        _require(n_rec is None, f"{path}.n_records: give either record_times or n_records")
        _require(f["record_times"], f"{path}.record_times: expected a nonempty list")
    elif n_rec is not None:
        _require(1 <= n_rec <= MAX_STEPS + 1, f"{path}.n_records: must be in [1, MAX_STEPS + 1 = {MAX_STEPS + 1}]")
    f["initial_state"] = _build_initial(f["initial_state"], seed_shift, f"{path}.initial_state")
    f["potential"] = _build_potential(f["potential"], basis, f"{path}.potential")
    f["control"] = _build_control(f["control"], t_final, f"{path}.control")
    cfg = SimConfig(**f)
    with _at(path):
        cfg.validate(basis)
        if n_rec is not None:
            cfg = _even_records(cfg, n_rec)
    with _at(f"{path}.initial_state"):
        make_initial_state(basis, cfg.initial_state)
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


def _run_simulate(sim, diag, seed: int) -> dict:
    basis, cfg = build_simulation(sim, seed_shift=seed)
    return {"trajectory": _trajectory_records(simulate(basis, cfg))}


def _run_convergence(sim, diag, seed: int) -> dict:
    diag = _read(diag, "diagnostic", ("dts",), dts=_number_list, ref_refine=_integer)
    basis, cfg = build_simulation(sim, seed_shift=seed)
    with _at("diagnostic"):
        rows = convergence_errors(basis, cfg, **diag)
    return {"convergence": [{"dt": dt, "error": err} for dt, err in rows]}


def _run_kato_scan(sim, diag, seed: int) -> dict:
    diag = _read(diag, "diagnostic", ("beta", "k_max"), beta=_number, k_max=_integer,
                 n_modes=_integer, quad_factor=_integer, window=_number_list, n_time=_integer)
    with _at("diagnostic"):
        points = kato_scan(**diag)
    return {"kato": [dict(zip(("k", "lambda", "kato", "sobolev_2beta"), p)) for p in points]}


def _run_smoothing(sim, diag, seed: int) -> dict:
    diag = _read(diag, "diagnostic", (), k=_integer, beta=_number, alpha=_number)
    basis, cfg = build_simulation(sim, seed_shift=seed)
    series, est = smoothing_experiment(basis, cfg, **diag)
    return {
        "residual": [{"t": t, "residual": r} for t, r in series],
        "holder": [{
            "alpha": est.alpha,
            "quotient_sup": est.quotient_sup,
            "fitted_alpha": est.fitted_alpha if est.fitted_alpha is not None else float("nan"),
        }],
    }


def _run_weak_limit(sim, diag, seed: int) -> dict:
    diag = _read(diag, "diagnostic", ("n_list",), n_list=_integer_list, amplitude=_number, s=_number)
    basis, cfg = build_simulation(sim, seed_shift=seed)
    errs = weak_limit_experiment(basis, cfg, **diag)
    return {"weak_limit": [{"n": n, "err": e} for n, e in errs]}


def _run_attainable(sim, diag, seed: int) -> dict:
    diag = _read(diag, "diagnostic", ("n_samples", "control_norm"), n_samples=_integer,
                 control_norm=_number, n_segments=_integer, k=_integer, beta=_number,
                 cutoffs=_number_list)
    basis, cfg = build_simulation(sim)
    profiles = attainable_ensemble(basis, cfg, seed=seed, **diag)
    rows = []
    for i, prof in enumerate(profiles):
        for c, m in zip(prof.cutoffs, prof.masses):
            rows.append({"sample": i, "cutoff": float(c), "tail_mass": float(m)})
    return {"tails": rows}


# Each runner reads the config blocks named beside it, makes one library
# call and returns {file suffix: rows}; run_config writes the files only
# after every row is computed.
_RUNNERS = {
    "simulate": (_run_simulate, ("sim",)),
    "convergence": (_run_convergence, ("sim", "diagnostic")),
    "kato-scan": (_run_kato_scan, ("diagnostic",)),
    "smoothing": (_run_smoothing, ("sim", "diagnostic")),
    "weak-limit": (_run_weak_limit, ("sim", "diagnostic")),
    "attainable": (_run_attainable, ("sim", "diagnostic")),
}


def run_config(config: dict, seed_override: int | None = None, output_override: str | None = None) -> int:
    """Validate and execute one experiment config; returns the exit code."""
    start = time.perf_counter()
    try:
        top = _read(config, "config", ("experiment", "output"), experiment=_string, seed=_integer,
                    output=_raw, sim=_raw, diagnostic=_raw)
        experiment = top["experiment"]
        _require(experiment in _RUNNERS, f"config.experiment: unknown experiment {experiment!r}")
        runner, blocks = _RUNNERS[experiment]
        _require("sim" not in blocks or "sim" in top, "config.sim: missing required key")
        for block in ("sim", "diagnostic"):
            _require(block in blocks or top.get(block, {}) == {},
                     f"config.{block}: experiment {experiment!r} reads no {block} block")
        out = _read(top["output"], "config.output", ("path",), path=_string, format=_string)
        fmt = out.get("format", "csv")
        _require(fmt in ("csv", "jsonl"), f"config.output.format: must be 'csv' or 'jsonl', got {fmt!r}")
        out_base = out["path"]
        _require(out_base != "", "config.output.path: expected a nonempty string")
        if output_override is not None:
            out_base = os.path.join(output_override, os.path.basename(out_base))
        seed = top.get("seed", 0) if seed_override is None else seed_override
        tables = runner(top.get("sim"), top.get("diagnostic", {}), seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationDiverged as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    except PicardDidNotConverge as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    paths = [f"{out_base}_{name}.{fmt}" for name in tables]
    try:
        for path, rows in zip(paths, tables.values()):
            emit_records(rows, fmt, path)
    except OSError as exc:
        print(f"config error: config.output.path: cannot write {path}: {exc}", file=sys.stderr)
        return 2
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
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer literal past int_max_str_digits
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
