import copy
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gpe.diagnostics
import gpe.dynamics as dynamics
from gpe.cli import emit_records, main, run, run_config

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


def test_import_graph_has_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    probe = "import sys, gpe, gpe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def minimal_simulate(tmp_path, **overrides):
    cfg = {
        "experiment": "simulate",
        "seed": 0,
        "output": {"path": str(tmp_path / "out" / "run"), "format": "csv"},
        "sim": {
            "dim": 1, "n_modes": 32, "sigma": 0, "T": 1.0, "dt": 0.001,
            "initial_state": {"kind": "eigenstate", "k": 2},
            "potential": {"kind": "gaussian_bump", "amplitude": 1.0, "width": 1.0},
            "control": {"kind": "zero"},
            "n_records": 11,
        },
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_minimal_simulate_conserves_l2(tmp_path, capsys):
    cfg = minimal_simulate(tmp_path)
    code = run_config(cfg)
    assert code == 0
    out = capsys.readouterr().out
    assert "simulate" in out and "wrote" in out
    header, rows = read_csv(tmp_path / "out" / "run_trajectory.csv")
    assert header[:3] == ["t", "l2", "energy"]
    l2 = np.array([float(r["l2"]) for r in rows])
    assert np.max(np.abs(l2 - 1.0)) <= 1e-10


def test_run_loads_file_and_reports(tmp_path):
    path = write_config(tmp_path, minimal_simulate(tmp_path))
    assert run(path) == 0
    assert run("/nonexistent/path.json") == 2


def test_negative_dt_names_field(tmp_path, capsys):
    cfg = minimal_simulate(tmp_path)
    cfg["sim"]["dt"] = -0.001
    assert run_config(cfg) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixture, key",
    [
        ("kato_quad_factor_one", "quad_factor"),
        ("kato_modes_too_large", "n_modes"),
        ("kato_k_max_zero", "k_max"),
        ("kato_modes_not_above_k_max", "n_modes"),
        ("kato_window_reversed", "window"),
        ("kato_window_strings", "window"),
        ("kato_window_three", "window"),
        ("kato_bad_beta", "beta"),
        ("attainable_n_segments_zero", "n_segments"),
        ("attainable_n_segments_string", "n_segments"),
        ("attainable_k_string", "diagnostic.k"),
        ("attainable_cutoffs_string", "cutoffs"),
        ("attainable_cutoffs_empty", "cutoffs"),
        ("convergence_dts_strings", "dts"),
        ("convergence_dts_negative", "dts"),
        ("convergence_one_dt", "dts"),
        ("convergence_ref_refine_one", "ref_refine"),
        ("eigenstate_k_out_of_range", "k = "),
        ("eigenstate_k_wrong_length", "k = "),
        ("coherent_displacement_string", "displacement"),
        ("residual_k_negative", "residual_k"),
        ("control_values_string", "values"),
        ("control_values_nan", "values"),
        ("weak_limit_n_list_empty", "n_list"),
        ("random_decay_seed_negative", "seed"),
        ("picard_max_iter_zero", "picard_max_iter"),
        ("potential_max_order_negative", "max_order"),
        ("potential_width_zero", "width"),
        ("potential_width_huge", "width"),
        ("random_decay_decay_negative", "decay"),
        ("random_decay_decay_huge", "decay"),
        ("random_decay_decay_negative", "sim.initial_state: decay = "),
        ("random_decay_decay_huge", "sim.initial_state: decay = "),
        ("smoothing_sigma_cubic", "sigma"),
        ("smoothing_one_record", "record_times"),
        ("smoothing_duplicate_records", "record_times"),
        ("sobolev_negative", "sobolev_s"),
        ("record_out_of_range", "record_times"),
        ("T_huge_integer", "T"),
        ("n_samples_huge", "n_samples"),
        ("simulate_unread_diagnostic", "config.diagnostic"),
        ("kato_scan_unread_sim", "config.sim"),
        ("simulate_dt_tiny", "dt"),
        ("kato_scan_n_time_huge", "n_time"),
        ("simulate_n_records_huge", "n_records"),
        ("attainable_n_samples_huge", "n_samples"),
        ("simulate_basis_too_large", "n_modes"),
        ("simulate_picard_window_huge", "picard_window"),
        ("simulate_records_memory_huge", "n_records"),
        ("simulate_n_records_fine_grid", "n_records"),
        ("weak_limit_n_list_huge", "n_list"),
        ("smoothing_record_pairs_huge", "record_times"),
        ("smoothing_record_pairs_3d", "record_times"),
    ],
)
def test_bad_config_names_key(tmp_path, capsys, fixture, key):
    code = run(str(DATA / "bad_configs" / f"{fixture}.json"), output_override=str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert key in err
    assert list(tmp_path.iterdir()) == []


def test_huge_counts_exit_2_before_allocating(tmp_path, capsys):
    # 10^12 records or samples, a 3D basis of 2048^3 grid points, a Picard
    # window of 2.5 10^6 time nodes, 4097 records of 2D N = 64 states, 10^7
    # records of 10^7 steps, an n_list of 2^12 + 1 entries, 2049 smoothing
    # records of 1D N = 32 (2^21 + 1024 Holder pairs) or 600 of 3D N = 8
    # (179700 pairs of 512 modes): the refusal comes before the record grid,
    # the draws, the basis tables, the window's arrays, the first record, the
    # record times, the stacked control integrals or the smoothing run, so the
    # run allocates next to nothing
    for fixture in ("simulate_n_records_huge", "attainable_n_samples_huge", "simulate_basis_too_large",
                    "simulate_picard_window_huge", "simulate_records_memory_huge",
                    "simulate_n_records_fine_grid", "weak_limit_n_list_huge", "smoothing_record_pairs_huge",
                    "smoothing_record_pairs_3d"):
        tracemalloc.start()
        try:
            code = run(str(DATA / "bad_configs" / f"{fixture}.json"), output_override=str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20


def test_smoothing_checks_before_simulate(tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(gpe.diagnostics, "simulate", no_run)
    for fixture in ("smoothing_sigma_cubic", "smoothing_duplicate_records", "smoothing_record_pairs_huge"):
        code = run(str(DATA / "bad_configs" / f"{fixture}.json"), output_override=str(tmp_path))
        assert code == 2


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfg = minimal_simulate(tmp_path, output={"path": str(tmp_path / "file" / "run")})
    assert run_config(cfg) == 2
    assert capsys.readouterr().err.startswith("config error: config.output.path: cannot write ")


FUZZ_VALUES = (None, True, "x", 10**400, -10**400)


def _value_paths(obj, prefix=()):
    """The path of every value under the object obj that is not itself an object."""
    if isinstance(obj, dict):
        for key, v in obj.items():
            yield from _value_paths(v, prefix + (key,))
        return
    yield prefix
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _value_paths(v, prefix + (i,))


def test_fuzzed_example_configs_exit_cleanly(tmp_path):
    # each leaf, list and list element of each example config, set to a
    # value of the wrong JSON type or beyond the double and int64 ranges
    escapes = []
    for cfg_path in sorted(CONFIGS.glob("*.json")):
        base = json.loads(cfg_path.read_text())
        for path in _value_paths(base):
            for value in FUZZ_VALUES:
                cfg = copy.deepcopy(base)
                node = cfg
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    code = run_config(cfg, output_override=str(tmp_path))
                except Exception as exc:
                    code = repr(exc)[:80]
                if code not in (0, 2, 3):
                    escapes.append((cfg_path.name, path, FUZZ_VALUES.index(value), code))
    assert escapes == []


SIM_MINIMAL = {
    "dim": 1, "n_modes": 16, "sigma": 0, "T": 0.1, "dt": 0.01,
    "initial_state": {"kind": "eigenstate", "k": 1},
    "potential": {"kind": "gaussian_bump"},
    "control": {"kind": "piecewise_constant", "values": [1.0, -0.5]},
}
# The defaults README documents for the optional keys, spelled out.
SIM_DEFAULTS = {
    "quad_factor": 2, "record_times": [0.0, 0.1], "sobolev_s": [0, 1, 2], "residual_k": 0,
    "residual_beta": 0.4, "integrator": "strang", "picard_tol": 1e-10, "picard_max_iter": 60,
    "picard_window": 0.1,
}
POTENTIAL_DEFAULTS = {"amplitude": 1.0, "width": 1.0, "center": 0.0}
# experiment: (its required diagnostic keys, the documented defaults of the others)
DIAGNOSTICS = {
    "simulate": ({}, {}),
    "convergence": ({"dts": [0.02, 0.01]}, {"ref_refine": 16}),
    "kato-scan": ({"beta": 0.4, "k_max": 4},
                  {"n_modes": 5, "quad_factor": 2, "window": [-2 * math.pi, 2 * math.pi], "n_time": 256}),
    "smoothing": ({}, {"k": 0, "beta": 0.4, "alpha": 0.25}),
    "weak-limit": ({"n_list": [1, 2]}, {"amplitude": 1.0, "s": 0.0}),
    "attainable": ({"n_samples": 2, "control_norm": 1.0},
                   {"n_segments": 16, "k": 0, "beta": 0.4, "cutoffs": [9.0, 17.0, 25.0]}),
}


@pytest.mark.parametrize("experiment", sorted(DIAGNOSTICS))
def test_omitted_keys_take_documented_defaults(tmp_path, experiment):
    required, defaults = DIAGNOSTICS[experiment]
    minimal = {"experiment": experiment, "output": {"path": "run"}, "diagnostic": required}
    explicit = {"experiment": experiment, "seed": 0, "output": {"path": "run", "format": "csv"},
                "diagnostic": {**required, **defaults}}
    if experiment != "kato-scan":
        minimal["sim"] = SIM_MINIMAL
        potential = {**SIM_MINIMAL["potential"], **POTENTIAL_DEFAULTS}
        explicit["sim"] = {**SIM_MINIMAL, **SIM_DEFAULTS, "potential": potential}
    assert run_config(minimal, output_override=str(tmp_path / "minimal")) == 0
    assert run_config(explicit, output_override=str(tmp_path / "explicit")) == 0
    files = sorted(os.listdir(tmp_path / "minimal"))
    assert files and files == sorted(os.listdir(tmp_path / "explicit"))
    for name in files:
        assert (tmp_path / "minimal" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = minimal_simulate(tmp_path)
    cfg["sim"]["extra_knob"] = 3
    assert run_config(cfg) == 2
    assert "extra_knob" in capsys.readouterr().err


def test_malformed_corpus_all_exit_2(tmp_path):
    corpus = sorted((DATA / "bad_configs").glob("*.json"))
    assert len(corpus) >= 10
    for bad in corpus:
        code = run(str(bad), output_override=str(tmp_path))
        assert code == 2, f"{bad.name} exited {code}"
    # nothing was written
    assert list(tmp_path.iterdir()) == []


def test_example_configs_run_and_are_deterministic(tmp_path):
    for cfg_path in sorted(CONFIGS.glob("*.json")):
        out_a = tmp_path / (cfg_path.stem + "_a")
        out_b = tmp_path / (cfg_path.stem + "_b")
        assert run(str(cfg_path), output_override=str(out_a)) == 0
        assert run(str(cfg_path), output_override=str(out_b)) == 0
        files_a = sorted(os.listdir(out_a))
        assert files_a, f"{cfg_path.name} produced no output"
        assert files_a == sorted(os.listdir(out_b))
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_draws(tmp_path):
    base = minimal_simulate(tmp_path)
    base["experiment"] = "attainable"
    base["sim"]["T"] = 0.25
    base["sim"]["dt"] = 0.005
    base["diagnostic"] = {"n_samples": 2, "control_norm": 1.0, "n_segments": 4}
    path = write_config(tmp_path, base)
    assert run(path, seed_override=1, output_override=str(tmp_path / "s1")) == 0
    assert run(path, seed_override=2, output_override=str(tmp_path / "s2")) == 0
    a = (tmp_path / "s1" / "run_tails.csv").read_bytes()
    b = (tmp_path / "s2" / "run_tails.csv").read_bytes()
    assert a != b


def test_divergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "H1_DIVERGENCE_LIMIT", 0.5)
    assert run_config(minimal_simulate(tmp_path)) == 3


def test_picard_divergence_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "H1_DIVERGENCE_LIMIT", 0.5)
    cfg = minimal_simulate(tmp_path)
    cfg["sim"]["integrator"] = "picard"
    assert run_config(cfg) == 3
    assert capsys.readouterr().err.startswith("numerical divergence: ")


def test_overflowing_phase_exit_code(tmp_path, capsys):
    # K U overflows to inf on the first quarter, so the march cannot prove the
    # H1 bound and checks every step: the NaN state trips the guard at t = dt.
    # np.errstate keeps numpy's overflow and invalid-value warnings (errors
    # under this suite's filterwarnings) from interrupting the run.
    cfg = json.loads((CONFIGS / "simulate_bilinear.json").read_text())
    cfg["sim"]["potential"]["amplitude"] = 1e308
    cfg["sim"]["control"]["values"] = [1e3, 1, 1, 1]
    cfg["output"]["path"] = str(tmp_path / "overflow")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_config(cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical divergence: ")
    assert "H1 norm nan" in err and "at t = 0.002" in err


def test_picard_non_contraction_exit_code(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "simulate_bilinear.json").read_text())
    cfg["sim"]["integrator"] = "picard"
    cfg["sim"]["picard_max_iter"] = 2
    cfg["output"]["path"] = str(tmp_path / "picard")
    assert run_config(cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "no contraction after 2 iterations" in err


def test_emit_records_csv_shape(tmp_path):
    path = str(tmp_path / "one.csv")
    emit_records([{"a": 1, "b": 0.5}], "csv", path)
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "a,b"


def test_emit_records_rewrite_identical(tmp_path):
    recs = [{"x": 0.1 * i, "y": np.pi * i} for i in range(5)]
    p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    emit_records(recs, "csv", p1)
    emit_records(recs, "csv", p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    with pytest.raises(ValueError):
        emit_records([], "csv", str(tmp_path / "empty.csv"))
    with pytest.raises(ValueError):
        emit_records(recs, "tsv", str(tmp_path / "bad.tsv"))


def test_csv_round_trips_doubles(tmp_path):
    vals = [np.pi, 1.0 / 3.0, 1e-17, 123456.78901234567]
    path = str(tmp_path / "rt.csv")
    emit_records([{"v": v} for v in vals], "csv", path)
    _, rows = read_csv(path)
    for v, row in zip(vals, rows):
        assert float(row["v"]) == v


def test_jsonl_round_trips(tmp_path):
    recs = [{"t": 0.1, "val": np.pi}, {"t": 0.2, "val": -1.5e-12}]
    path = str(tmp_path / "r.jsonl")
    emit_records(recs, "jsonl", path)
    back = [json.loads(line) for line in Path(path).read_text().splitlines()]
    assert back == recs


def test_main_entry(tmp_path, capsys):
    path = write_config(tmp_path, minimal_simulate(tmp_path))
    assert main(["run", "--config", path]) == 0
    capsys.readouterr()
