from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import gpe.dynamics as dynamics
from gpe.controls import ControlSignal, make_potential
from gpe.dynamics import (
    InitialState,
    PicardDidNotConverge,
    SimConfig,
    SimulationDiverged,
    energy,
    grid_nonlinear_phase,
    make_initial_state,
    picard_solve,
    simulate,
)
from gpe.hermite import ConfigError, GridField, basis_state, build_basis, spectral_field
from gpe.operators import free_propagate

from conftest import random_spectral


def strang_step(basis, state, t, dt, cfg):
    """One Strang step of size dt from time t."""
    stepper = dynamics._StrangStepper(basis, cfg, dt)
    return spectral_field(basis, stepper.step(state.coeffs, cfg.control.integral(t, t + dt)))


def bump_config(basis, sigma=0, control=None, t_final=1.0, dt=1e-3, init=None, **kw):
    pot = make_potential(basis, "gaussian_bump", amplitude=1.0, width=1.2, center=0.3)
    kw.setdefault("record_times", (0.0, t_final))
    return SimConfig(
        dim=basis.dim,
        n_modes=basis.n_modes,
        sigma=sigma,
        t_final=t_final,
        dt=dt,
        initial_state=init or InitialState("random_decay", decay=2.5, seed=9),
        potential=pot,
        control=control or ControlSignal.zero(t_final),
        **kw,
    )


def test_initial_states(basis64):
    eig = make_initial_state(basis64, InitialState("eigenstate", (5,)))
    assert eig.coeffs[5] == 1.0 and np.sum(np.abs(eig.coeffs)) == 1.0
    coh = make_initial_state(basis64, InitialState("coherent", displacement=0.8 + 0.3j))
    assert np.sum(np.abs(coh.coeffs) ** 2) == pytest.approx(1.0, rel=1e-12)
    r1 = make_initial_state(basis64, InitialState("random_decay", decay=2.0, seed=7))
    r2 = make_initial_state(basis64, InitialState("random_decay", decay=2.0, seed=7))
    assert np.array_equal(r1.coeffs, r2.coeffs)
    assert np.sum(np.abs(r1.coeffs) ** 2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        make_initial_state(basis64, InitialState("squeezed"))
    with pytest.raises(ConfigError, match="seed"):
        InitialState("random_decay", seed=-1)
    with pytest.raises(ConfigError, match="k = "):
        make_initial_state(basis64, InitialState("eigenstate", (64,)))


def test_grid_nonlinear_phase_pure_potential(basis32):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    g = GridField(1, v.copy())
    out = grid_nonlinear_phase(g, 0, np.ones(64), np.pi, 0.1)
    assert np.max(np.abs(out.values + v)) <= 1e-14 * np.max(np.abs(v))


def test_grid_nonlinear_phase_modulus_exact(basis32):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    k = rng.standard_normal(64)
    out = grid_nonlinear_phase(GridField(1, v.copy()), 1, k, 0.37, 0.05)
    # unimodular factor: moduli survive up to a couple of ulps
    assert np.max(np.abs(np.abs(out.values) - np.abs(v))) <= 4e-16 * np.max(np.abs(v))


def test_grid_nonlinear_phase_constant_modulus():
    a = 1.7
    v = a * np.exp(1j * np.linspace(0, 1, 16))
    dt = 0.2
    out = grid_nonlinear_phase(GridField(1, v.copy()), 1, np.zeros(16), 0.0, dt)
    assert np.max(np.abs(out.values - v * np.exp(1j * a**2 * dt))) <= 1e-14


def test_strang_step_free_flow_limit(basis64):
    cfg = bump_config(basis64, sigma=0)
    rng = np.random.default_rng(2)
    f = random_spectral(basis64, rng, decay=1.5)
    out = strang_step(basis64, f, 0.0, 0.01, cfg)
    free = free_propagate(basis64, f, 0.01)
    assert np.max(np.abs(out.coeffs - free.coeffs)) <= 1e-13


def test_strang_step_l2_preserved(basis64):
    u = ControlSignal.piecewise_constant([0.8], 1.0)
    cfg = bump_config(basis64, sigma=1, control=u)
    psi = make_initial_state(basis64, cfg.initial_state)
    out = strang_step(basis64, psi, 0.0, 1e-3, cfg)
    assert np.sqrt(np.sum(np.abs(out.coeffs) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_strang_step_richardson_ratio(basis64):
    # one step vs two half steps differ at O(dt^3): halving dt shrinks it ~8x
    u = ControlSignal.piecewise_constant([0.9], 1.0)
    cfg = bump_config(basis64, sigma=1, control=u)
    psi = make_initial_state(basis64, cfg.initial_state)

    def defect(dt):
        one = strang_step(basis64, psi, 0.0, dt, cfg).coeffs
        half = strang_step(basis64, strang_step(basis64, psi, 0.0, dt / 2, cfg), dt / 2, dt / 2, cfg).coeffs
        return np.sqrt(np.sum(np.abs(one - half) ** 2))

    ratio = defect(2e-2) / defect(1e-2)
    assert 8.0 * 0.7 <= ratio <= 8.0 * 1.3


def test_simulate_pure_eigenphase(basis64):
    cfg = bump_config(basis64, sigma=0, init=InitialState("eigenstate", (2,)))
    traj = simulate(basis64, cfg)
    final = traj.final_state.coeffs
    assert abs(final[2] - np.exp(5j)) <= 1e-11
    assert np.max(np.abs(np.delete(final, 2))) <= 1e-13
    for rec in traj.records:
        assert rec.sobolev[2.0] == pytest.approx(5.0, rel=1e-12)


def test_simulate_energy_conservation_defocusing(basis64):
    cfg = bump_config(basis64, sigma=1, init=InitialState("coherent", displacement=0.9))
    traj = simulate(basis64, cfg)
    e0 = traj.records[0].energy
    assert abs(traj.records[-1].energy - e0) <= 10.0 * traj.dt**2 * e0


def test_simulate_l2_conservation_with_control(basis64):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(8)
    vals /= np.sqrt(np.sum(vals**2) * 1.0 / 8)  # L2 norm 1 on [0, 1]
    u = ControlSignal.piecewise_constant(vals, 1.0)
    cfg = bump_config(basis64, sigma=0, control=u)
    traj = simulate(basis64, cfg)
    assert abs(traj.records[-1].l2 - traj.records[0].l2) <= 1e-10


def test_simulate_phase_equivariance(basis64):
    u = ControlSignal.piecewise_constant([0.5, -0.4], 0.5)
    base = bump_config(basis64, sigma=1, control=u, t_final=0.5, dt=2e-3)
    traj_a = simulate(basis64, base)

    theta = 0.73
    psi0 = make_initial_state(basis64, base.initial_state)
    rotated = spectral_field(basis64, np.exp(1j * theta) * psi0.coeffs)

    # rerun by stepping manually from the rotated state
    c = rotated.coeffs.copy()
    stepper = dynamics._StrangStepper(basis64, base, base.dt)
    edges = np.arange(int(round(base.t_final / base.dt)) + 1) * base.dt
    for u_int in base.control.integral(edges[:-1], edges[1:]):
        c = stepper.step(c, u_int)
    expect = np.exp(1j * theta) * traj_a.final_state.coeffs
    assert np.max(np.abs(c - expect)) <= 1e-12


def test_divergence_guard(basis64, monkeypatch):
    monkeypatch.setattr(dynamics, "H1_DIVERGENCE_LIMIT", 0.5)
    cfg = bump_config(basis64, sigma=0)
    with pytest.raises(SimulationDiverged):
        simulate(basis64, cfg)


def test_divergence_guard_picard(basis64, monkeypatch):
    monkeypatch.setattr(dynamics, "H1_DIVERGENCE_LIMIT", 0.5)
    cfg = bump_config(basis64, sigma=0, t_final=0.2, dt=1e-2, integrator="picard")
    with pytest.raises(SimulationDiverged):
        simulate(basis64, cfg)


def test_record_snapping(basis64):
    cfg = bump_config(basis64, sigma=0, t_final=1.0, dt=1e-3)
    cfg = replace(cfg, record_times=(0.0, 0.25054, 1.0))
    traj = simulate(basis64, cfg)
    assert traj.times[1] == pytest.approx(0.251, abs=1e-12)


def test_energy_values(basis64):
    assert energy(basis64, basis_state(basis64, 0)) == pytest.approx(
        2.0 + 0.5 / np.sqrt(2.0 * np.pi), rel=1e-10
    )
    # |h1|_L4^4 = 3 / (4 sqrt(2 pi)), checked against direct quadrature
    oracle, _ = quad(lambda x: (np.sqrt(2) * x * np.pi**-0.25 * np.exp(-0.5 * x * x)) ** 4, -np.inf, np.inf)
    assert oracle == pytest.approx(3.0 / (4.0 * np.sqrt(2.0 * np.pi)), rel=1e-12)
    assert energy(basis64, basis_state(basis64, 1)) == pytest.approx(4.0 + 0.5 * oracle, rel=1e-10)
    zero = spectral_field(basis64, np.zeros(64, dtype=complex))
    assert energy(basis64, zero) == 0.0


def test_picard_free_flow_one_iteration(basis64):
    cfg = bump_config(basis64, sigma=0, control=ControlSignal.zero(1.0), dt=1e-2)
    res = picard_solve(basis64, cfg, 0.5)
    assert res.n_iter == 1
    free = free_propagate(basis64, make_initial_state(basis64, cfg.initial_state), 0.5)
    assert np.max(np.abs(res.state.coeffs - free.coeffs)) <= 1e-13


@pytest.mark.parametrize("sigma", [0, 1])
def test_picard_matches_strang(basis64, sigma):
    u = ControlSignal.piecewise_constant([0.6], 0.1)
    cfg = bump_config(basis64, sigma=sigma, control=u, t_final=0.1, dt=1e-4)
    traj = simulate(basis64, cfg)
    res = picard_solve(basis64, cfg, 0.1)
    diff = np.sqrt(np.sum(np.abs(traj.final_state.coeffs - res.state.coeffs) ** 2))
    assert diff <= 1e-6
    assert all(r < 1.0 for r in res.ratios)


def test_picard_contraction_criterion(basis64):
    # measure the contraction constant on one window, then check that
    # windows within the predicted budget contract monotonically below 1
    u = ControlSignal.piecewise_constant([0.6], 0.1)
    cfg = bump_config(basis64, sigma=0, control=u, t_final=0.1, dt=2e-4)
    k_norm = cfg.potential.wkinf_norms[0]
    res = picard_solve(basis64, cfg, 0.1)
    c_meas = max(res.ratios) / (u.abs_integral(0.0, 0.1) * k_norm)
    for scale in (1.5, 3.0):
        u2 = ControlSignal.piecewise_constant([0.6 * scale], 0.1)
        budget = c_meas * u2.abs_integral(0.0, 0.1) * k_norm
        if budget < 0.5:
            cfg2 = bump_config(basis64, sigma=0, control=u2, t_final=0.1, dt=2e-4)
            res2 = picard_solve(basis64, cfg2, 0.1)
            assert all(r < 1.0 for r in res2.ratios)


def test_picard_non_contraction_raises(basis64):
    u = ControlSignal.piecewise_constant([40.0], 1.0)
    cfg = bump_config(basis64, sigma=0, control=u, dt=1e-2, picard_max_iter=8)
    with pytest.raises(PicardDidNotConverge) as err:
        picard_solve(basis64, cfg, 1.0)
    assert err.value.last_ratio > 1.0


def test_simulate_picard_integrator_matches_strang(basis64):
    u = ControlSignal.piecewise_constant([0.5], 0.2)
    cfg_p = bump_config(
        basis64, sigma=0, control=u, t_final=0.2, dt=1e-3, integrator="picard", picard_window=0.05
    )
    cfg_s = replace(cfg_p, integrator="strang")
    final_p = simulate(basis64, cfg_p).final_state.coeffs
    final_s = simulate(basis64, cfg_s).final_state.coeffs
    assert np.sqrt(np.sum(np.abs(final_p - final_s) ** 2)) <= 1e-5


def test_simulate_d2_conserves_l2():
    from gpe.hermite import build_basis

    b2 = build_basis(2, 16, 2)
    pot = make_potential(b2, "gaussian_bump", amplitude=0.9, width=1.4, max_order=1)
    cfg = SimConfig(
        dim=2, n_modes=16, sigma=1, t_final=0.25, dt=2e-3,
        initial_state=InitialState("random_decay", decay=3.0, seed=4),
        potential=pot,
        control=ControlSignal.piecewise_constant([0.7, -0.4], 0.25),
        record_times=(0.0, 0.25),
    )
    traj = simulate(b2, cfg)
    assert abs(traj.records[-1].l2 - traj.records[0].l2) <= 1e-10


def test_config_validation(basis64):
    cfg = bump_config(basis64)
    with pytest.raises(ValueError):
        replace(cfg, sigma=2).validate()
    with pytest.raises(ValueError):
        replace(cfg, dt=-1.0).validate()
    with pytest.raises(ValueError):
        replace(cfg, record_times=(2.0,)).validate()
    with pytest.raises(ValueError):
        replace(cfg, integrator="euler").validate()
    for field, value in [("picard_max_iter", 0), ("picard_window", 0.0), ("residual_k", -1),
                         ("residual_beta", 0.5), ("sobolev_s", (0.0, -1.0))]:
        with pytest.raises(ConfigError, match=field):
            replace(cfg, **{field: value}).validate()


@pytest.mark.parametrize("mismatch", ["basis", "potential", "control"])
def test_simulate_refuses_inputs_that_do_not_fit(basis64, mismatch):
    basis = basis64
    cfg = bump_config(basis64, sigma=0, t_final=0.1, dt=1e-3)
    if mismatch == "basis":
        cfg = replace(cfg, n_modes=32)
    elif mismatch == "potential":
        basis = build_basis(2, 16)
        pot_1d = make_potential(build_basis(1, 16), "gaussian_bump")
        cfg = replace(bump_config(basis, sigma=0, t_final=0.1, dt=1e-3), potential=pot_1d)
    else:
        cfg = replace(cfg, control=ControlSignal.zero(0.05))
    with pytest.raises(ConfigError, match=mismatch):
        simulate(basis, cfg)
    with pytest.raises(ConfigError, match=mismatch):
        picard_solve(basis, cfg, cfg.t_final)


KERNEL_T = 0.2
KERNEL_CONTROLS = {
    "zero": ControlSignal.zero(KERNEL_T),
    "piecewise_constant": ControlSignal.piecewise_constant([0.9, -0.4, 0.3, 0.7], KERNEL_T),
    "sampled": ControlSignal.sampled([0.2, -0.5, 0.8, 0.1, 0.4], KERNEL_T),
    "sinusoid_perturbed": ControlSignal.sinusoid_perturbed(
        ControlSignal.piecewise_constant([0.5], KERNEL_T), 0.6, 3
    ),
    # 16 pieces of 6.25 steps: equal neighbours merge into runs of 50 and
    # 37.5 steps (at least N / 2 = 32 at N = 64) around two short pieces
    "long_and_short_pieces": ControlSignal.piecewise_constant(
        [0.5] * 8 + [0.1, -0.3] + [0.2] * 6, KERNEL_T
    ),
}


def per_step_records(basis, cfg):
    """States at the record steps of cfg, marched by _StrangStepper.step alone."""
    n_steps, dt, record_at = dynamics._snap_records(cfg)
    stepper = dynamics._StrangStepper(basis, cfg, dt)
    edges = np.arange(n_steps + 1) * dt
    c = make_initial_state(basis, cfg.initial_state).coeffs
    states = [c] if 0 in record_at else []
    for j, u_int in enumerate(cfg.control.integral(edges[:-1], edges[1:]), 1):
        c = stepper.step(c, u_int)
        if j in record_at:
            states.append(c)
    return states


@pytest.mark.parametrize("dim, n_modes", [(1, 64), (2, 16)])
@pytest.mark.parametrize("control", sorted(KERNEL_CONTROLS))
def test_linear_kernels_match_per_step(dim, n_modes, control):
    # in 2D every step is step(); the 1D runs mix step matrices and step()
    basis = build_basis(dim, n_modes)
    cfg = bump_config(basis, sigma=0, control=KERNEL_CONTROLS[control], t_final=KERNEL_T,
                      dt=2e-3, record_times=tuple(np.linspace(0.0, KERNEL_T, 7)))
    traj = simulate(basis, cfg)
    want = per_step_records(basis, cfg)
    assert len(traj.records) == len(want) == 7
    for rec, ref in zip(traj.records, want):
        assert np.linalg.norm(rec.state.coeffs - ref) <= 1e-12 * np.linalg.norm(ref)


def count_synthesis(monkeypatch):
    calls = []

    def counted(basis, coeffs):
        calls.append(1)
        return synthesize(basis, coeffs)

    synthesize = dynamics._synthesize
    monkeypatch.setattr(dynamics, "_synthesize", counted)
    return calls


@pytest.mark.parametrize(
    "dim, sigma, control, per_step",
    [
        (1, 0, "zero", 0),
        (1, 0, "long_and_short_pieces", 13),
        (1, 0, "piecewise_constant", 100),
        (1, 1, "zero", 100),
        (2, 0, "zero", 100),
    ],
)
def test_step_matrix_takes_long_runs_only(monkeypatch, dim, sigma, control, per_step):
    # 100 steps; records synthesize once each, step() once per step, and
    # the long linear 1D runs advance by matvecs without synthesis: all 100
    # zero-control steps, and steps 0-49 and 63-99 of the pieces (steps 56
    # and 62 straddle a piece edge; 50-55 and 57-61 are short runs).  Cubic
    # and 2D runs take step() every time.
    basis = build_basis(dim, 64 if dim == 1 else 16)
    calls = count_synthesis(monkeypatch)
    cfg = bump_config(basis, sigma=sigma, control=KERNEL_CONTROLS[control], t_final=KERNEL_T,
                      dt=2e-3, record_times=(0.0, KERNEL_T))
    traj = simulate(basis, cfg)
    assert len(calls) == per_step + len(traj.records)


@pytest.mark.parametrize("control", ["zero", "sinusoid_perturbed"])
def test_nan_state_trips_guard_on_linear_kernels(basis64, monkeypatch, control):
    def nan_state(basis, spec):
        c = np.zeros(basis.n_modes, dtype=complex)
        c[3] = np.nan
        return dynamics.SpectralField(basis.dim, basis.n_modes, c)

    monkeypatch.setattr(dynamics, "make_initial_state", nan_state)
    cfg = bump_config(basis64, sigma=0, control=KERNEL_CONTROLS[control], t_final=KERNEL_T,
                      dt=2e-3, record_times=(KERNEL_T,))
    with pytest.raises(SimulationDiverged) as err:
        simulate(basis64, cfg)
    assert err.value.t == pytest.approx(2e-3)
