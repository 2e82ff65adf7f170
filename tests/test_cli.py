import json
import os
from pathlib import Path

import numpy as np
import pytest

import gpe.cli
import gpe.dynamics as dynamics
from gpe.cli import emit_records, main, run, run_config

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


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
        ("kato_window_reversed", "window"),
        ("kato_window_strings", "window"),
        ("kato_bad_beta", "beta"),
        ("attainable_n_segments_zero", "n_segments"),
        ("attainable_n_segments_string", "n_segments"),
        ("attainable_k_string", "diagnostic.k"),
        ("attainable_cutoffs_string", "cutoffs"),
        ("convergence_dts_strings", "dts"),
        ("convergence_dts_negative", "dts"),
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
        ("smoothing_sigma_cubic", "sigma"),
        ("smoothing_one_record", "record_times"),
        ("smoothing_duplicate_records", "record_times"),
        ("sobolev_negative", "sobolev_s"),
        ("record_out_of_range", "record_times"),
    ],
)
def test_bad_config_names_key(tmp_path, capsys, fixture, key):
    code = run(str(DATA / "bad_configs" / f"{fixture}.json"), output_override=str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert key in err
    assert list(tmp_path.iterdir()) == []


def test_smoothing_checks_before_simulate(tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(gpe.cli, "simulate", no_run)
    for fixture in ("smoothing_sigma_cubic", "smoothing_duplicate_records"):
        code = run(str(DATA / "bad_configs" / f"{fixture}.json"), output_override=str(tmp_path))
        assert code == 2


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
