"""System-level exit criteria.

Each test is one acceptance criterion with its tolerance pinned; running

    pytest tests/test_acceptance.py -v -s

prints one PASS/FAIL line per criterion.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpe.cli import run
from gpe.controls import ControlSignal, make_potential
from gpe.diagnostics import (
    attainable_ensemble,
    calibrate_gronwall_constant,
    draw_control,
    energy_bound_check,
    gronwall_check,
    smoothing_residual_series,
    weak_limit_experiment,
)
from gpe.dynamics import InitialState, SimConfig, picard_solve, simulate
from gpe.hermite import basis_state, build_basis, to_grid, to_spectral
from gpe.operators import kato_functional, sobolev_norm

from conftest import random_spectral

CONFIGS = Path(__file__).parent.parent / "configs"
BAD = Path(__file__).parent / "data" / "bad_configs"

_KINDS = ("gaussian_bump", "sech", "polynomial_decay")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_config(basis, rng, sigma, t_final=1.0, dt=1e-3, n_records=9):
    kind = _KINDS[rng.integers(0, len(_KINDS))]
    pot = make_potential(
        basis,
        kind,
        amplitude=float(rng.uniform(0.3, 1.5)),
        width=float(rng.uniform(0.8, 2.0)),
        center=float(rng.uniform(-1.0, 1.0)),
    )
    u = draw_control(rng, t_final, float(rng.uniform(0.3, 1.2)), int(rng.integers(4, 12)))
    init = InitialState(
        "random_decay", decay=float(rng.uniform(2.0, 4.0)), seed=int(rng.integers(0, 2**63))
    )
    return SimConfig(
        dim=1,
        n_modes=basis.n_modes,
        sigma=sigma,
        t_final=t_final,
        dt=dt,
        initial_state=init,
        potential=pot,
        control=u,
        record_times=tuple(np.linspace(0.0, t_final, n_records)),
    )


def test_criterion_01_transform_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for dim, sizes in ((1, (8, 32, 128)), (3, (4, 8, 16))):
        for n in sizes:
            b = build_basis(dim, n, 2)
            rng = np.random.default_rng(1000 + 17 * dim + n)
            for _ in range(100):
                f = random_spectral(b, rng)
                back = to_spectral(b, to_grid(b, f))
                worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 transform round trip",
        worst <= 1e-12 and elapsed <= 10.0,
        f"max coeff error {worst:.3e} (tol 1e-12), {elapsed:.1f} s (cap 10 s)",
    )


def test_criterion_02_eigenstructure():
    b = build_basis(1, 65, 2)
    worst = 0.0
    for k in range(65):
        f = basis_state(b, k)
        for s in (0.0, 1.0, 2.0, 4.0):
            expect = (2.0 * k + 1.0) ** (s / 2.0)
            worst = max(worst, abs(sobolev_norm(b, f, s) - expect) / expect)
    _report(
        "criterion 2 eigenstructure",
        worst <= 1e-13,
        f"max relative error {worst:.3e} over k <= 64, s in {{0,1,2,4}} (tol 1e-13)",
    )


def test_criterion_03_l2_conservation():
    b = build_basis(1, 64, 2)
    rng = np.random.default_rng(3000)
    worst = 0.0
    for _ in range(20):
        cfg = _random_config(b, rng, sigma=int(rng.integers(0, 2)))
        traj = simulate(b, cfg)
        drift = abs(traj.records[-1].l2 - traj.records[0].l2) / traj.records[0].l2
        worst = max(worst, drift)
    _report(
        "criterion 3 L2 conservation",
        worst <= 1e-10,
        f"worst relative drift {worst:.3e} over 20 runs at T=1, dt=1e-3, N=64 (tol 1e-10)",
    )


def test_criterion_04_strang_order():
    start = time.perf_counter()
    b = build_basis(1, 64, 2)
    pot = make_potential(b, "gaussian_bump", amplitude=1.0, width=1.2, center=0.3)
    u = ControlSignal.sinusoid_perturbed(ControlSignal.zero(1.0), 0.7, 3)
    cfg = SimConfig(
        dim=1, n_modes=64, sigma=1, t_final=1.0, dt=1e-3,
        initial_state=InitialState("coherent", displacement=0.9),
        potential=pot, control=u, record_times=(1.0,),
    )
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    ref = simulate(b, replace(cfg, dt=min(dts) / 16.0)).final_state.coeffs
    errs = []
    for dt in dts:
        final = simulate(b, replace(cfg, dt=dt)).final_state.coeffs
        errs.append(float(np.sqrt(np.sum(np.abs(final - ref) ** 2))))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 Strang order",
        1.8 <= slope <= 2.2 and elapsed <= 60.0,
        f"self-convergence slope {slope:.3f} (target 2.0 +- 0.2), {elapsed:.1f} s (cap 60 s)",
    )


def test_criterion_05_integrator_cross_agreement():
    b = build_basis(1, 64, 2)
    pot = make_potential(b, "gaussian_bump", amplitude=1.0, width=1.2, center=0.3)
    worst = 0.0
    for sigma in (0, 1):
        cfg = SimConfig(
            dim=1, n_modes=64, sigma=sigma, t_final=0.1, dt=1e-4,
            initial_state=InitialState("random_decay", decay=2.5, seed=7),
            potential=pot,
            control=ControlSignal.piecewise_constant([0.6], 0.1),
            record_times=(0.1,),
        )
        strang_final = simulate(b, cfg).final_state.coeffs
        res = picard_solve(b, cfg, 0.1)
        worst = max(worst, float(np.sqrt(np.sum(np.abs(strang_final - res.state.coeffs) ** 2))))

    # contraction whenever the measured budget c |u|_L1 |K| stays below 1/2
    cfg0 = SimConfig(
        dim=1, n_modes=64, sigma=0, t_final=0.1, dt=2e-4,
        initial_state=InitialState("random_decay", decay=2.5, seed=7),
        potential=pot, control=ControlSignal.piecewise_constant([0.6], 0.1),
        record_times=(0.1,),
    )
    k_norm = pot.wkinf_norms[0]
    ref = picard_solve(b, cfg0, 0.1)
    c_meas = max(ref.ratios) / (cfg0.control.abs_integral(0.0, 0.1) * k_norm)
    contracted = True
    checked = 0
    for scale in (0.5, 1.5, 3.0, 5.0):
        u = ControlSignal.piecewise_constant([0.6 * scale], 0.1)
        if c_meas * u.abs_integral(0.0, 0.1) * k_norm < 0.5:
            res = picard_solve(b, replace(cfg0, control=u), 0.1)
            contracted = contracted and all(r < 1.0 for r in res.ratios)
            checked += 1
    _report(
        "criterion 5 integrator cross agreement",
        worst <= 1e-6 and contracted and checked >= 2,
        f"max L2 difference {worst:.3e} (tol 1e-6); "
        f"{checked} windows inside the measured contraction budget all contracted",
    )


def test_criterion_06_energy_bound():
    b = build_basis(1, 64, 2)
    rng = np.random.default_rng(4000)
    worst_excess = -np.inf
    for _ in range(20):
        cfg = _random_config(b, rng, sigma=1)
        traj = simulate(b, cfg)
        res, tol = energy_bound_check(traj, b)
        worst_excess = max(worst_excess, -(res.margin + tol))
    # exact conservation case
    cfg = _random_config(b, np.random.default_rng(5000), sigma=1)
    cfg = replace(cfg, control=ControlSignal.zero(cfg.t_final))
    traj = simulate(b, cfg)
    e0 = traj.records[0].energy
    drift = max(abs(r.energy - e0) for r in traj.records)
    _report(
        "criterion 6 energy bound",
        worst_excess <= 0.0 and drift <= 10.0 * traj.dt**2 * e0,
        f"all 20 margins >= -10 dt^2 E0 (worst excess {worst_excess:.2e}); "
        f"u=0 drift {drift:.2e} <= {10.0 * traj.dt**2 * e0:.2e}",
    )


def test_criterion_07_gronwall_envelope():
    b = build_basis(1, 64, 2)
    rng = np.random.default_rng(1000)
    calibration = [(simulate(b, _random_config(b, rng, sigma=0)), b) for _ in range(24)]
    ok = True
    detail = []
    for k in (0, 2):
        c_hat = calibrate_gronwall_constant(calibration, k)
        fresh = np.random.default_rng(2000)
        margins = []
        for _ in range(20):
            traj = simulate(b, _random_config(b, fresh, sigma=0))
            margins.append(gronwall_check(traj, b, k, c_hat).margin)
        ok = ok and all(m >= 0.0 for m in margins)
        detail.append(f"k={k}: c_hat={c_hat:.3f}, min margin {min(margins):.2e}")
    _report("criterion 7 Gronwall envelope", ok, "; ".join(detail))


def test_criterion_08_kato_plateau():
    start = time.perf_counter()
    b = build_basis(1, 257, 2)
    beta = 0.45
    vals = np.array([
        kato_functional(b, basis_state(b, k), beta, (-2 * np.pi, 2 * np.pi), 256)
        for k in range(257)
    ])
    plateau = float(np.max(vals)) <= 3.0 * vals[16]
    sob = np.array([(2.0 * k + 1.0) ** beta for k in range(257)])
    growth = float(np.max(sob) / np.min(sob))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 Kato plateau",
        plateau and growth > 10.0 and elapsed <= 120.0,
        f"max/value@16 = {np.max(vals) / vals[16]:.2f} (cap 3); multiplier growth "
        f"{growth:.1f}x (> 10x); {elapsed:.1f} s (cap 120 s)",
    )


def test_criterion_09_smoothing_residual():
    b = build_basis(1, 256, 2)
    pot = make_potential(b, "gaussian_bump", amplitude=1.0, width=1.2, center=0.3)
    beta = 0.4

    # residual vanishes identically for u = 0
    cfg0 = SimConfig(
        dim=1, n_modes=256, sigma=0, t_final=1.0, dt=1e-3,
        initial_state=InitialState("eigenstate", (32,)),
        potential=pot, control=ControlSignal.zero(1.0),
        record_times=tuple(np.linspace(0.0, 1.0, 11)),
    )
    series0 = smoothing_residual_series(simulate(b, cfg0), b, 0, beta)
    free_max = max(r for _, r in series0)

    rng = np.random.default_rng(2024)
    controls = [draw_control(rng, 1.0, 1.0, 8) for _ in range(4)]
    caps = {}
    for k0 in (32, 64, 128):
        cap = 0.0
        for u in controls:
            cfg = replace(cfg0, initial_state=InitialState("eigenstate", (k0,)), control=u)
            series = smoothing_residual_series(simulate(b, cfg), b, 0, beta)
            cap = max(cap, max(r for _, r in series))
        caps[k0] = cap / (2.0 * k0 + 1.0) ** (beta / 2.0)
    _report(
        "criterion 9 smoothing residual",
        free_max <= 1e-11 and caps[128] <= 2.0 * caps[32],
        f"free-flow residual {free_max:.2e} (tol 1e-11); caps "
        f"{caps[32]:.3f}/{caps[64]:.3f}/{caps[128]:.3f} at k0=32/64/128, "
        f"cap(128) <= 2 cap(32)",
    )


def test_criterion_10_weak_control_continuity():
    b = build_basis(1, 64, 2)
    pot = make_potential(b, "gaussian_bump", amplitude=1.0, width=1.2, center=0.4)
    ok = True
    detail = []
    for sigma in (0, 1):
        ratios = {}
        errs_by_dt = {}
        for dt in (2e-3, 1e-3):
            cfg = SimConfig(
                dim=1, n_modes=64, sigma=sigma, t_final=1.0, dt=dt,
                initial_state=InitialState("random_decay", decay=2.0, seed=11),
                potential=pot,
                control=ControlSignal.piecewise_constant([0.3], 1.0),
                record_times=(1.0,),
            )
            errs = dict(weak_limit_experiment(b, cfg, [1, 64], 1.0))
            errs_by_dt[dt] = errs
            ratios[dt] = errs[64] / errs[1]
        stable = all(
            abs(errs_by_dt[1e-3][n] - errs_by_dt[2e-3][n]) <= 0.2 * errs_by_dt[2e-3][n]
            for n in (1, 64)
        )
        ok = ok and all(r <= 0.25 for r in ratios.values()) and stable
        detail.append(f"sigma={sigma}: err(64)/err(1) = {ratios[2e-3]:.4f} and {ratios[1e-3]:.4f}")
    _report("criterion 10 weak-control continuity", ok, "; ".join(detail))


def test_criterion_11_compactness_tails():
    base_n = 64
    cutoffs = [2.0 * (base_n // 4) + 1.0, 2.0 * (base_n // 2) + 1.0, 2.0 * (3 * base_n // 4) + 1.0]
    sups = {}
    for n in (base_n, 2 * base_n):
        b = build_basis(1, n, 2)
        pot = make_potential(b, "gaussian_bump", amplitude=1.0, width=1.2, center=0.3)
        cfg = SimConfig(
            dim=1, n_modes=n, sigma=0, t_final=1.0, dt=2e-3,
            initial_state=InitialState("random_decay", decay=2.5, seed=5),
            potential=pot, control=ControlSignal.zero(1.0), record_times=(1.0,),
        )
        profiles = attainable_ensemble(b, cfg, 64, 1.0, seed=99, k=0, beta=0.4, cutoffs=cutoffs)
        sups[n] = {
            c: max(p.tail_mass(c) for p in profiles) for c in cutoffs
        }
    ratio = sups[base_n][cutoffs[2]] / sups[base_n][cutoffs[0]]
    stable = all(
        0.5 <= sups[2 * base_n][c] / sups[base_n][c] <= 2.0 for c in cutoffs
    )
    _report(
        "criterion 11 compactness tails",
        ratio <= 0.05 and stable,
        f"sup tail(3N/4) / sup tail(N/4) = {ratio:.2e} (cap 0.05); "
        f"doubling N changes sup tails by at most 2x ({stable})",
    )


def test_criterion_12_cli_determinism(tmp_path):
    configs = sorted(CONFIGS.glob("*.json"))
    assert configs, "no example configs found"
    identical = True
    for cfg_path in configs:
        out_a = tmp_path / (cfg_path.stem + "_a")
        out_b = tmp_path / (cfg_path.stem + "_b")
        assert run(str(cfg_path), output_override=str(out_a)) == 0
        assert run(str(cfg_path), output_override=str(out_b)) == 0
        for name in sorted(os.listdir(out_a)):
            identical = identical and (
                (out_a / name).read_bytes() == (out_b / name).read_bytes()
            )
    corpus = sorted(BAD.glob("*.json"))
    codes = [run(str(p), output_override=str(tmp_path / "bad")) for p in corpus]
    all_rejected = all(c == 2 for c in codes)
    _report(
        "criterion 12 CLI determinism",
        identical and all_rejected and len(corpus) >= 10,
        f"{len(configs)} example configs byte-identical across reruns; "
        f"{len(corpus)} malformed configs all exit 2",
    )
