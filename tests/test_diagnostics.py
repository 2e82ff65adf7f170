from dataclasses import replace

import numpy as np
import pytest

from gpe.controls import ControlSignal, make_potential
from gpe.dynamics import InitialState, SimConfig, Trajectory, TrajectoryRecord, simulate
from gpe.diagnostics import (
    attainable_ensemble,
    calibrate_gronwall_constant,
    check_smoothing_run,
    draw_control,
    energy_bound_check,
    gronwall_check,
    holder_quotient,
    residual_states,
    smoothing_residual_series,
    spectral_tail_profile,
    strichartz_norm,
    weak_limit_experiment,
)
from gpe.hermite import ConfigError, basis_state, build_basis, spectral_field
from gpe.operators import sobolev_norm

from test_dynamics import bump_config


def test_residual_vanishes_without_control(basis64):
    cfg = bump_config(basis64, sigma=0, control=ControlSignal.zero(1.0),
                      record_times=tuple(np.linspace(0, 1, 9)))
    traj = simulate(basis64, cfg)
    series = smoothing_residual_series(traj, basis64, 0, 0.4)
    assert series[0][1] == 0.0
    assert max(r for _, r in series) <= 1e-11


def test_residual_requires_bilinear_and_valid_beta(basis64):
    cfg = bump_config(basis64, sigma=1, t_final=0.05, dt=1e-3)
    traj = simulate(basis64, cfg)
    with pytest.raises(ValueError):
        smoothing_residual_series(traj, basis64, 0, 0.4)
    cfg0 = bump_config(basis64, sigma=0, t_final=0.05, dt=1e-3)
    traj0 = simulate(basis64, cfg0)
    with pytest.raises(ValueError):
        smoothing_residual_series(traj0, basis64, 0, 0.5)
    with pytest.raises(ValueError):
        smoothing_residual_series(traj0, basis64, 1, 0.4)


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_smoothing_precheck_validates_config(basis64, dt):
    # the record steps are snapped onto the step grid, so dt is checked first
    cfg = bump_config(basis64, sigma=0, t_final=0.05, dt=dt)
    with pytest.raises(ConfigError, match="dt must be positive"):
        check_smoothing_run(cfg, 0, 0.4, 0.5)


def test_holder_quotient_constant_series(basis64):
    g = basis_state(basis64, 3)
    series = [(0.1 * j, g) for j in range(5)]
    est = holder_quotient(series, basis64, 0.4, 0.25)
    assert est.quotient_sup == 0.0
    assert est.fitted_alpha is None


def test_holder_quotient_linear_series(basis64):
    g = basis_state(basis64, 0)
    series = [(t, spectral_field(basis64, t * g.coeffs)) for t in np.linspace(0, 1, 6)]
    est = holder_quotient(series, basis64, 0.0, 1.0)
    assert est.quotient_sup == pytest.approx(1.0, rel=1e-12)


def test_holder_quotient_fits_power_law(basis64):
    # orthogonal increments with |f(t2) - f(t1)| = |t2 - t1|^(1/2) for all pairs
    ts = np.linspace(0.0, 1.0, 12)
    coeffs = np.zeros((12, 64), dtype=complex)
    for j in range(1, 12):
        coeffs[j] = coeffs[j - 1]
        coeffs[j, j - 1] = np.sqrt(ts[j] - ts[j - 1])
    series = [(t, spectral_field(basis64, c)) for t, c in zip(ts, coeffs)]
    est = holder_quotient(series, basis64, 0.0, 0.25)
    assert est.fitted_alpha == pytest.approx(0.5, abs=1e-10)
    assert est.quotient_sup == pytest.approx(1.0, rel=1e-12)  # sup gap^(1/2 - 1/4)
    with pytest.raises(ValueError):
        holder_quotient(series, basis64, 0.0, 1.5)
    with pytest.raises(ValueError):
        holder_quotient(series[:1], basis64, 0.0, 0.25)


def test_holder_quotient_stable_under_dt_refinement(basis64):
    u = ControlSignal.piecewise_constant([0.8, -0.6, 0.4, 0.9], 1.0)
    sups = []
    for dt in (2e-3, 1e-3):
        cfg = bump_config(basis64, sigma=0, control=u, dt=dt,
                          record_times=tuple(np.linspace(0, 1, 9)))
        traj = simulate(basis64, cfg)
        states = residual_states(traj, basis64)
        sups.append(holder_quotient(states, basis64, 0.4, 0.25, min_dt=dt).quotient_sup)
    assert abs(sups[1] - sups[0]) <= 0.2 * sups[0]


def test_strichartz_free_ground_state(basis64):
    cfg = bump_config(
        basis64,
        sigma=0,
        control=ControlSignal.zero(2 * np.pi),
        t_final=2 * np.pi,
        dt=np.pi / 100,
        init=InitialState("eigenstate", (0,)),
        record_times=tuple(np.linspace(0, 2 * np.pi, 65)),
    )
    traj = simulate(basis64, cfg)
    rep = strichartz_norm(traj, basis64, 4.0, np.inf, 0.0)
    # closed form (2 pi / pi)^(1/4); node-max sup estimate sits slightly below
    assert rep.value == pytest.approx(2.0**0.25, rel=1e-2)
    rep_inf = strichartz_norm(traj, basis64, np.inf, 2.0, 0.0)
    assert rep_inf.value == pytest.approx(1.0, rel=1e-10)


def test_strichartz_zero_trajectory(basis64):
    zero = spectral_field(basis64, np.zeros(64, dtype=complex))
    cfg = bump_config(basis64, sigma=0)
    recs = [
        TrajectoryRecord(t, zero, 0.0, 0.0, {}, 0.0, 0.0) for t in np.linspace(0, 1, 5)
    ]
    traj = Trajectory(cfg, 1e-3, zero, recs)
    assert strichartz_norm(traj, basis64, 4.0, np.inf, 0.0).value == 0.0


def test_strichartz_rejects_non_admissible(basis64):
    cfg = bump_config(basis64, sigma=0, t_final=0.01, dt=1e-3)
    traj = simulate(basis64, cfg)
    with pytest.raises(ValueError):
        strichartz_norm(traj, basis64, 3.0, 7.0, 0.0)
    rep = strichartz_norm(traj, basis64, 3.0, 7.0, 0.0, whitelist=True)
    assert rep.value >= 0.0


def test_strichartz_d3_finite_and_stable():
    b8 = build_basis(3, 8, 2)
    pot = make_potential(b8, "gaussian_bump", amplitude=0.8, width=1.5, max_order=1)
    vals = []
    for dt in (2e-3, 1e-3):
        cfg = SimConfig(
            dim=3, n_modes=8, sigma=1, t_final=0.5, dt=dt,
            initial_state=InitialState("random_decay", decay=3.0, seed=2),
            potential=pot,
            control=ControlSignal.piecewise_constant([0.5, -0.8, 0.3], 0.5),
            record_times=tuple(np.linspace(0, 0.5, 26)),
        )
        traj = simulate(b8, cfg)
        vals.append(strichartz_norm(traj, b8, 2.0, 6.0, 1.0).value)
    assert np.isfinite(vals[0]) and vals[0] > 0.0
    assert abs(vals[1] - vals[0]) <= 0.1 * vals[0]


def test_weak_limit_zero_amplitude(basis64):
    cfg = bump_config(basis64, sigma=0, t_final=0.2, dt=2e-3)
    errs = weak_limit_experiment(basis64, cfg, [1, 2, 4], 0.0)
    assert all(e == 0.0 for _, e in errs)
    with pytest.raises(ValueError):
        weak_limit_experiment(basis64, cfg, [4, 1], 1.0)


def test_weak_limit_decay(basis64):
    u = ControlSignal.piecewise_constant([0.3], 1.0)
    cfg = bump_config(basis64, sigma=0, control=u, dt=2e-3)
    errs = dict(weak_limit_experiment(basis64, cfg, [1, 16], 1.0))
    assert errs[16] <= errs[1] / 2.0


def test_weak_limit_measures_at_final_time(basis64):
    u = ControlSignal.piecewise_constant([0.3], 0.5)
    cfg = bump_config(basis64, sigma=0, control=u, t_final=0.5, dt=2e-3, record_times=(0.5,))
    at_t = weak_limit_experiment(basis64, cfg, [1, 8], 1.0)
    early = weak_limit_experiment(basis64, replace(cfg, record_times=(0.0, 0.1)), [1, 8], 1.0)
    assert early == at_t


def test_tail_profile_monotone_and_total(basis64):
    rng = np.random.default_rng(5)
    from conftest import random_spectral

    f = random_spectral(basis64, rng, decay=1.0)
    cutoffs = [0.0, 9.0, 33.0, 65.0]
    prof = spectral_tail_profile(basis64, f, 0.4, cutoffs)
    assert np.all(np.diff(prof.masses) <= 0.0)
    assert prof.tail_mass(0.0) == pytest.approx(sobolev_norm(basis64, f, 0.4) ** 2, rel=1e-12)
    with pytest.raises(KeyError):
        prof.tail_mass(5.0)


def test_attainable_zero_budget(basis64):
    cfg = bump_config(basis64, sigma=0, dt=2e-3)
    profs = attainable_ensemble(basis64, cfg, 4, 0.0, seed=3, k=0, beta=0.4)
    for p in profs:
        assert np.all(p.masses <= 1e-22)


def test_attainable_deterministic(basis64):
    cfg = bump_config(basis64, sigma=0, dt=2e-3, t_final=0.25)
    a = attainable_ensemble(basis64, cfg, 3, 1.0, seed=11, k=0, beta=0.4)
    b = attainable_ensemble(basis64, cfg, 3, 1.0, seed=11, k=0, beta=0.4)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.masses, pb.masses)
    c = attainable_ensemble(basis64, cfg, 3, 1.0, seed=12, k=0, beta=0.4)
    assert any(not np.array_equal(pa.masses, pc.masses) for pa, pc in zip(a, c))


def test_attainable_never_runs_past_t_final(basis32):
    # T = 0.3 is not a multiple of dt = 0.007: seed 7 draws t* = 0.29865,
    # which rounds to 43 steps, 0.301 > T, and must stop at T instead
    cfg = bump_config(basis32, sigma=0, t_final=0.3, dt=0.007)
    profs = attainable_ensemble(basis32, cfg, 2, 1.0, seed=7, k=0, beta=0.4)
    assert len(profs) == 2
    assert all(np.all(np.isfinite(p.masses)) for p in profs)


def test_attainable_rejects_nonlinear(basis64):
    cfg = bump_config(basis64, sigma=1, dt=2e-3)
    with pytest.raises(ValueError):
        attainable_ensemble(basis64, cfg, 2, 1.0, seed=0, k=0, beta=0.4)


def test_draw_control_exact_norm():
    rng = np.random.default_rng(0)
    u = draw_control(rng, 2.0, 1.5, 8)
    assert u.lr_norm(2.0) == pytest.approx(1.5, rel=1e-12)


def test_gronwall_free_flow_equality(basis64):
    cfg = bump_config(basis64, sigma=0, control=ControlSignal.zero(1.0))
    traj = simulate(basis64, cfg)
    res = gronwall_check(traj, basis64, 0, c_hat=0.5)
    assert abs(res.margin) <= 1e-10


def test_gronwall_calibration_covers_itself(basis64):
    u = ControlSignal.piecewise_constant([0.8, -0.5, 0.9], 1.0)
    cfg = bump_config(basis64, sigma=0, control=u,
                      record_times=tuple(np.linspace(0, 1, 9)))
    traj = simulate(basis64, cfg)
    c_hat = calibrate_gronwall_constant([(traj, basis64)], k=2)
    res = gronwall_check(traj, basis64, 2, c_hat)
    assert res.passed and res.margin >= 0.0
    with pytest.raises(ValueError):
        gronwall_check(simulate(basis64, bump_config(basis64, sigma=1, t_final=0.05)), basis64, 0, 1.0)


def test_energy_bound_no_control(basis64):
    cfg = bump_config(basis64, sigma=1, control=ControlSignal.zero(1.0))
    traj = simulate(basis64, cfg)
    res, tol = energy_bound_check(traj, basis64)
    assert res.margin >= -tol


def test_energy_bound_constant_potential(basis64):
    pot = make_potential(basis64, "constant", amplitude=1.0)
    u = ControlSignal.piecewise_constant([1.0, -2.0], 1.0)
    cfg = SimConfig(
        dim=1, n_modes=64, sigma=1, t_final=1.0, dt=1e-3,
        initial_state=InitialState("coherent", displacement=0.7),
        potential=pot, control=u, record_times=tuple(np.linspace(0, 1, 5)),
    )
    traj = simulate(basis64, cfg)
    assert pot.grad_sup == 0.0
    e0 = traj.records[0].energy
    tol = 10.0 * traj.dt**2 * e0
    assert max(r.energy for r in traj.records) <= e0 + tol
    res, _ = energy_bound_check(traj, basis64)
    assert res.margin >= -tol


def test_energy_bound_d3():
    b3 = build_basis(3, 16, 2)
    pot = make_potential(b3, "gaussian_bump", amplitude=0.8, width=1.5, center=0.2, max_order=1)
    u = draw_control(np.random.default_rng(8), 0.5, 2.0, 6)
    cfg = SimConfig(
        dim=3, n_modes=16, sigma=1, t_final=0.5, dt=2e-3,
        initial_state=InitialState("random_decay", decay=3.0, seed=1),
        potential=pot, control=u, record_times=tuple(np.linspace(0, 0.5, 6)),
    )
    traj = simulate(b3, cfg)
    res, tol = energy_bound_check(traj, b3)
    assert res.margin >= -tol
    with pytest.raises(ValueError):
        energy_bound_check(simulate(b3, SimConfig(
            dim=3, n_modes=16, sigma=0, t_final=0.01, dt=5e-3,
            initial_state=InitialState("random_decay", decay=3.0, seed=1),
            potential=pot, control=u, record_times=(0.01,),
        )), b3)
