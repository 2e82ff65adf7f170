import tracemalloc
import warnings
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
from gpe.hermite import (
    ConfigError,
    GridField,
    _analyze,
    _GridPlanes,
    _level_exp,
    _synthesize,
    basis_state,
    build_basis,
    spectral_field,
)
from gpe.operators import free_propagate

from conftest import from_planes, random_spectral, to_planes


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


def rotation_tables(theta, n_points):
    cos, sin = np.empty_like(theta), np.empty_like(theta)
    dynamics._cos_sin(theta, n_points, cos, sin)
    return cos, sin


def test_rotation_polynomial_within_one_ulp():
    # |theta| <= 1/32 on a grid of 4096 points or more takes the Taylor
    # polynomials: within 1 ulp of np.cos / np.sin, and not always equal
    theta = np.random.default_rng(5).uniform(-1.0 / 32, 1.0 / 32, 200_000)
    cos, sin = rotation_tables(theta, dynamics._POLY_MIN_POINTS)
    want_cos, want_sin = np.cos(theta), np.sin(theta)
    assert np.all(np.abs(cos - want_cos) <= np.spacing(want_cos))
    assert np.all(np.abs(sin - want_sin) <= np.spacing(np.abs(want_sin)))
    assert np.any(sin != want_sin)


def test_rotation_polynomial_bit_identical_for_small_phases():
    theta = np.random.default_rng(6).uniform(-1e-3, 1e-3, 200_000)
    cos, sin = rotation_tables(theta, dynamics._POLY_MIN_POINTS)
    assert np.array_equal(cos, np.cos(theta)) and np.array_equal(sin, np.sin(theta))


@pytest.mark.parametrize("case", ["past_1/32", "below_4096_points"])
def test_rotation_exact_outside_polynomial_range(case):
    theta = np.random.default_rng(7).uniform(-1.0 / 32, 1.0 / 32, 200_000)
    n_points = dynamics._POLY_MIN_POINTS
    if case == "past_1/32":
        theta[17] = -np.nextafter(1.0 / 32, 1.0)
    else:
        n_points -= 1
    cos, sin = rotation_tables(theta, n_points)
    assert np.array_equal(cos, np.cos(theta)) and np.array_equal(sin, np.sin(theta))


@pytest.mark.parametrize("sigma", [-1, 0, 1])
@pytest.mark.parametrize("members", [None, 3])
def test_phase_kernel_1d_matches_exp(sigma, members):
    # 1D planes from _synthesize hold interleaved complex values, which the
    # kernel multiplies by exp(-i theta) in place
    basis = build_basis(1, 32)
    rng = np.random.default_rng(8)
    shape = (32,) if members is None else (32, members)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 0.3
    k = make_potential(basis, "gaussian_bump").grid_values
    u = 0.37 if members is None else np.array([0.37, -0.2, 0.0])
    planes = _synthesize(basis, c)
    v = from_planes(planes, 1)
    got = dynamics._phase_kernel(_GridPlanes(planes, 1), sigma, k, u, 0.05)
    assert np.shares_memory(got, planes)
    theta = np.multiply.outer(k, u) - sigma * np.abs(v) ** 2 * 0.05
    assert np.max(np.abs(from_planes(got, 1) - v * np.exp(-1j * theta))) <= 1e-15


def test_grid_nonlinear_phase_refuses_bad_arguments():
    v = GridField(2, np.ones((8, 8), complex))
    k = np.zeros((8, 8))
    cases = [
        (dict(k_values=np.zeros(8)), "k_values shape"),
        (dict(sigma=2), "sigma must be -1, 0 or 1"),
        (dict(dt=np.nan), "dt must be finite"),
        (dict(u_integral=np.inf), "u_integral must be finite"),
    ]
    for change, message in cases:
        args = dict(values=v, sigma=1, k_values=k, u_integral=0.3, dt=0.05) | change
        with pytest.raises(ConfigError, match=message):
            grid_nonlinear_phase(**args)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_nonlinear_phase_leaves_input(dim):
    # the public phase copies the values into planes of the transforms' layout
    rng = np.random.default_rng(9)
    v = rng.standard_normal((16,) * dim) + 1j * rng.standard_normal((16,) * dim)
    k = rng.standard_normal((16,) * dim)
    before = v.copy()
    out = grid_nonlinear_phase(GridField(dim, v), 1, k, 0.3, 0.05)
    assert np.array_equal(v, before)
    theta = k * 0.3 - np.abs(v) ** 2 * 0.05
    assert np.max(np.abs(out.values - v * np.exp(-1j * theta))) <= 1e-15


@pytest.mark.parametrize("dim, n_modes", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("t", [0.0, 1e-3, -0.37, 2.5, 1e4])
def test_level_phases_bit_identical(dim, n_modes, t):
    basis = build_basis(dim, n_modes)
    assert np.array_equal(basis.lam, 2.0 * basis.level + dim)
    assert np.array_equal(_level_exp(basis, 1j * t), np.exp(1j * basis.lam * t))
    f = random_spectral(basis, np.random.default_rng(9))
    assert np.array_equal(free_propagate(basis, f, t).coeffs, f.coeffs * np.exp(1j * basis.lam * t))
    cfg = bump_config(basis, t_final=1.0, dt=abs(t) or 1e-3)
    stepper = dynamics._StrangStepper(basis, cfg, cfg.dt)
    assert np.array_equal(stepper.half_phase, np.exp(0.5j * basis.lam * cfg.dt))


def test_cubic_3d_steps_and_records_allocate_no_grid():
    # after the first step and the first record, neither a step nor a record
    # of a 3D N = 16 cubic run allocates an array the size of the grid
    basis = build_basis(3, 16)
    cfg = bump_config(basis, sigma=-1, t_final=0.01, dt=1e-3)
    stepper = dynamics._StrangStepper(basis, cfg, cfg.dt)
    psi0 = make_initial_state(basis, cfg.initial_state)
    c = stepper.step(psi0.coeffs, 3e-4)
    dynamics._record(basis, cfg, 1e-3, c, psi0, stepper.plan)
    grid_bytes = 8 * basis.n_nodes**3
    tracemalloc.start()
    try:
        for call in (
            lambda: stepper.step(c, 2e-4),
            lambda: dynamics._record(basis, cfg, 2e-3, c, psi0, stepper.plan),
        ):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            assert tracemalloc.get_traced_memory()[1] - start < grid_bytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim, n_modes, members", [(1, 64, None), (1, 64, 3), (2, 16, None), (3, 16, None)])
def test_step_allocates_only_its_result(dim, n_modes, members):
    # a step after the first writes into its plan: beyond the coefficients it
    # returns it allocates less than one real grid array of its batch.  numpy's
    # ufunc iteration buffers (bufsize elements, 8192 by default) hold no
    # array of the step, and a bufsize of 16 keeps them out of the count.
    basis = build_basis(dim, n_modes)
    cfg = bump_config(basis, sigma=1, t_final=0.01, dt=1e-3)
    stepper = dynamics._StrangStepper(basis, cfg, cfg.dt)
    c, u = make_initial_state(basis, cfg.initial_state).coeffs, 3e-4
    if members:
        c, u = np.stack([c] * members, axis=-1), np.array([3e-4, -2e-4, 0.0])
    c = stepper.step(c, u)
    grid_bytes = 8 * basis.n_nodes**dim * (members or 1)
    with np.errstate():
        np.setbufsize(16)
        tracemalloc.start()
        try:
            for _ in range(2):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = stepper.step(c, u)
                assert tracemalloc.get_traced_memory()[1] - start - out.nbytes < grid_bytes
                del out
        finally:
            tracemalloc.stop()


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


@pytest.mark.parametrize("dim, n_modes", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("sigma", [-1, 0, 1])
def test_step_work_arrays_match_fresh(dim, n_modes, sigma):
    # step() writes its grid intermediates into arrays kept on the stepper;
    # consecutive steps must equal the same formulas on fresh arrays
    basis = build_basis(dim, n_modes)
    cfg = bump_config(basis, sigma=sigma, t_final=0.01, dt=1e-3)
    stepper = dynamics._StrangStepper(basis, cfg, cfg.dt)
    c = make_initial_state(basis, cfg.initial_state).coeffs
    plan = stepper.plan
    for u_int in (0.3, -0.7, 0.1):
        v = _synthesize(basis, stepper.half_phase * c)
        v = dynamics._phase_kernel(_GridPlanes(v, dim), sigma, stepper.k_values, u_int, cfg.dt)
        fresh = stepper.half_phase * _analyze(basis, v)
        c = stepper.step(c, u_int)
        assert np.array_equal(c, fresh)
    assert stepper.plan is plan


@pytest.mark.parametrize("dim, n_modes", [(1, 32), (2, 12), (3, 8)])
@pytest.mark.parametrize("sigma", [-1, 0, 1])
def test_step_member_axis_matches_single_steps(dim, n_modes, sigma):
    # a trailing member axis pairs column b with integral u[b]
    basis = build_basis(dim, n_modes)
    cfg = bump_config(basis, sigma=sigma, t_final=0.01, dt=1e-3)
    stepper = dynamics._StrangStepper(basis, cfg, cfg.dt)
    rng = np.random.default_rng(4)
    coeffs = np.stack([random_spectral(basis, rng, decay=1.5).coeffs for _ in range(3)], axis=-1)
    u = np.array([0.3, -0.7, 0.0])
    got = stepper.step(coeffs, u)
    assert got.shape == coeffs.shape
    for b in range(3):
        want = stepper.step(coeffs[..., b].copy(), u[b])
        assert np.linalg.norm(got[..., b] - want) <= 1e-13 * np.linalg.norm(want)


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


@pytest.mark.parametrize("dim, n_modes", [(1, 32), (2, 12), (3, 8)])
@pytest.mark.parametrize("sigma", [-1, 0, 1])
def test_strang_step_does_not_grow_l2(dim, n_modes, sigma):
    # the premise of the once-per-march guard: unit-modulus phases around
    # P e^{-i theta} S grow no norm, for strong potentials, large integrals
    # and states of norm 4; a 1D step matrix is the same map
    basis = build_basis(dim, n_modes)
    pot = make_potential(basis, "gaussian_bump", amplitude=5.0, width=0.7, center=0.3)
    cfg = replace(bump_config(basis, sigma=sigma, dt=1e-2), potential=pot)
    stepper = dynamics._StrangStepper(basis, cfg, cfg.dt)
    rng = np.random.default_rng(1)
    for scale in (1.0, 4.0):
        for u_int in (0.0, 0.03, -0.5, 3.0):
            c = random_spectral(basis, rng, decay=0.5).coeffs
            c *= scale / np.linalg.norm(c)
            steps = [stepper.step(c, u_int)]
            if dim == 1:
                mat = stepper._step_matrix(u_int)
                steps.append(mat @ c)
                assert np.linalg.norm(mat, 2) <= 1.0 + 1e-13
            for out in steps:
                assert np.linalg.norm(out) <= scale * (1.0 + 1e-13)


def count_guard_calls(monkeypatch):
    calls = []
    check = dynamics._check_h1

    def counted(basis, coeffs, t):
        calls.append(t)
        check(basis, coeffs, t)

    monkeypatch.setattr(dynamics, "_check_h1", counted)
    return calls


@pytest.mark.parametrize("dim, sigma, control", [(1, 0, "zero"), (1, 0, "piecewise_constant"), (2, 1, "sinusoid_perturbed")])
def test_proven_strang_runs_skip_the_guard(monkeypatch, dim, sigma, control):
    # at the default limit the H1 bound holds from the start: step-matrix,
    # per-step and cubic 2D runs and a member batch check no step
    basis = build_basis(dim, 64 if dim == 1 else 16)
    cfg = bump_config(basis, sigma=sigma, control=KERNEL_CONTROLS[control], t_final=KERNEL_T, dt=2e-3)
    calls = count_guard_calls(monkeypatch)
    simulate(basis, cfg)
    psi0 = make_initial_state(basis, cfg.initial_state).coeffs
    controls = [KERNEL_CONTROLS[name] for name in ("sampled", "sinusoid_perturbed", "zero")]
    dynamics._march_members(basis, cfg, np.stack([psi0] * 3, axis=-1), controls, [50, 20, 5], 2e-3)
    assert calls == []


def test_unproven_strang_run_checks_every_step(basis64, monkeypatch):
    # a limit 1.5x the bound sqrt(max lam) |psi0| is not within the slack:
    # every one of the 100 steps is checked, and none trips
    cfg = bump_config(basis64, sigma=0, control=KERNEL_CONTROLS["zero"], t_final=KERNEL_T, dt=2e-3)
    monkeypatch.setattr(dynamics, "H1_DIVERGENCE_LIMIT", 1.5 * np.sqrt(basis64.lam.max()))
    calls = count_guard_calls(monkeypatch)
    simulate(basis64, cfg)
    assert calls == pytest.approx([j * 2e-3 for j in range(1, 101)])


def test_picard_checks_the_guard_per_window(basis64, monkeypatch):
    # windows of at most 12 steps over 50 end at steps 12, 24, 36, 48 and 50
    cfg = bump_config(basis64, sigma=1, control=ControlSignal.piecewise_constant([0.7, -0.2], 0.1),
                      t_final=0.1, dt=2e-3, integrator="picard", picard_window=0.025)
    calls = count_guard_calls(monkeypatch)
    simulate(basis64, cfg)
    assert calls == pytest.approx([j * 2e-3 for j in (12, 24, 36, 48, 50)])


@pytest.mark.parametrize("n_modes", [32, 64])
@pytest.mark.parametrize("displacement", [1e5, 1e300, 1e300j])
def test_coherent_state_with_large_displacement(n_modes, displacement):
    # the largest log-magnitude is taken out before exp, so nothing overflows
    # to a zero or NaN state; all weight sits on the highest modes
    basis = build_basis(1, n_modes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = make_initial_state(basis, InitialState("coherent", displacement=displacement)).coeffs
    assert np.linalg.norm(c) == pytest.approx(1.0, rel=1e-12)
    assert np.argmax(np.abs(c)) == n_modes - 1


def test_random_decay_that_cannot_be_normalized(basis64, basis3d):
    for basis, decay in ((basis64, -200.0), (basis3d, 700.0), (basis64, np.nan)):
        with pytest.raises(ConfigError, match="decay"):
            make_initial_state(basis, InitialState("random_decay", decay=decay))


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


@pytest.mark.parametrize("sigma", [0, 1])
def test_picard_second_order_across_control_jumps(sigma):
    # u jumps from 3 to -3 at t = 0.05; with the panel integrals of u the
    # Picard - Strang distance keeps Strang's second order across the jump
    basis = build_basis(1, 16)
    u = ControlSignal.piecewise_constant([3.0, -3.0], 0.1)
    errors = []
    for dt in (5e-3, 2.5e-3, 1.25e-3, 6.25e-4):
        cfg = bump_config(basis, sigma=sigma, control=u, t_final=0.1, dt=dt,
                          init=InitialState("coherent", displacement=1.0))
        picard = picard_solve(basis, cfg, 0.1).state.coeffs
        errors.append(np.linalg.norm(picard - simulate(basis, cfg).final_state.coeffs))
    assert all(a >= 3.5 * b for a, b in zip(errors, errors[1:]))


def iterate_on_psi(basis, cfg, t_final, psi0, t_offset=0.0):
    """The fixed-point loop on psi itself, grid integrand u(s) K psi(s) with
    u sampled at the nodes: for a control that is constant on the window,
    an independent formulation of the map picard_solve iterates."""
    n = max(1, int(round(t_final / cfg.dt)))
    h = t_final / n
    ts = np.arange(n + 1) * h
    phases = np.exp(1j * np.multiply.outer(basis.lam, ts))
    free = phases * psi0.coeffs[..., None]
    ku = np.multiply.outer(cfg.potential.grid_values, cfg.control(t_offset + ts))
    psi, dists = free.copy(), []
    for it in range(cfg.picard_max_iter):
        grids = from_planes(_synthesize(basis, psi), basis.dim)
        f = ku * grids
        if cfg.sigma:
            f -= cfg.sigma * np.abs(grids) ** 2 * grids
        fc = np.conj(phases) * (-1j * _analyze(basis, to_planes(f, basis.dim)))
        integral = np.zeros_like(fc)
        integral[..., 1:] = np.cumsum(0.5 * h * (fc[..., :-1] + fc[..., 1:]), axis=-1)
        new = free + phases * integral
        dists.append(float(np.max(np.sqrt(np.sum(np.abs(new - psi) ** 2, axis=tuple(range(basis.dim)))))))
        psi = new
        if dists[-1] <= cfg.picard_tol:
            return psi[..., -1], it + 1, dists
    raise AssertionError("the reference loop did not converge")


def assert_matches_psi_iteration(basis, cfg, res, t_final, psi0, t_offset):
    state, n_iter, dists = iterate_on_psi(basis, cfg, t_final, psi0, t_offset)
    assert res.n_iter == n_iter
    assert np.max(np.abs(np.subtract(res.distances, dists))) <= 1e-12
    assert np.linalg.norm(res.state.coeffs - state) <= 1e-13


def one_piece_config(dim, n_modes, sigma):
    return bump_config(build_basis(dim, n_modes), sigma=sigma,
                       control=ControlSignal.piecewise_constant([0.7], 0.1),
                       t_final=0.06, dt=1e-3, picard_window=0.025)


@pytest.mark.parametrize("dim, n_modes", [(1, 32), (2, 8), (3, 6)])
@pytest.mark.parametrize("sigma", [-1, 0, 1])
@pytest.mark.parametrize("t_offset", [0.0, 0.02])
def test_picard_solve_matches_iteration_on_psi(dim, n_modes, sigma, t_offset):
    basis, cfg = build_basis(dim, n_modes), one_piece_config(dim, n_modes, sigma)
    psi0 = make_initial_state(basis, cfg.initial_state)
    res = picard_solve(basis, cfg, 0.04, psi0=psi0, t_offset=t_offset)
    assert_matches_psi_iteration(basis, cfg, res, 0.04, psi0, t_offset)


@pytest.mark.parametrize("dim, n_modes", [(1, 32), (2, 8), (3, 6)])
@pytest.mark.parametrize("sigma", [-1, 0, 1])
def test_simulate_picard_windows_match_iteration_on_psi(monkeypatch, dim, n_modes, sigma):
    # simulate's windows: [0, 0.025], [0.025, 0.05], [0.05, 0.06]
    basis, cfg = build_basis(dim, n_modes), one_piece_config(dim, n_modes, sigma)
    solve, windows = dynamics.picard_solve, []

    def recorded(basis, cfg, t_final, psi0, t_offset):
        windows.append((t_final, psi0, t_offset, solve(basis, cfg, t_final, psi0=psi0, t_offset=t_offset)))
        return windows[-1][-1]

    monkeypatch.setattr(dynamics, "picard_solve", recorded)
    traj = simulate(basis, replace(cfg, integrator="picard"))
    monkeypatch.undo()
    assert [w[2] for w in windows] == pytest.approx([0.0, 0.025, 0.05])
    for t_final, start, offset, res in windows:
        assert_matches_psi_iteration(basis, cfg, res, t_final, start, offset)
    assert np.array_equal(traj.final_state.coeffs, windows[-1][-1].state.coeffs)


@pytest.mark.parametrize("dim, sigma, per_iter", [
    (1, 0, (0, 0)), (1, 1, (1, 1)), (1, -1, (1, 1)), (2, 0, (1, 1)), (2, 1, (1, 2)),
])
def test_picard_solve_transform_counts(monkeypatch, dim, sigma, per_iter):
    # a 1D potential term is one GEMM on the coefficients; the cubic term,
    # and in 2D the potential term, take one synthesis and one analysis each
    basis = build_basis(dim, 32 if dim == 1 else 8)
    calls = count_transforms(monkeypatch, basis)
    cfg = bump_config(basis, sigma=sigma, control=ControlSignal.piecewise_constant([0.7], 0.05),
                      t_final=0.05, dt=1e-3)
    res = picard_solve(basis, cfg, 0.05)
    assert res.n_iter > 1
    assert (len(calls["synthesis"]), len(calls["analysis"])) == tuple(res.n_iter * k for k in per_iter)


def test_simulate_d2_conserves_l2():
    from gpe.hermite import build_basis

    b2 = build_basis(2, 16, 2)
    pot = make_potential(b2, "gaussian_bump", amplitude=0.9, width=1.4)
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
    nan, inf = float("nan"), float("inf")
    for field, value in [("picard_max_iter", 0), ("picard_window", 0.0), ("residual_k", -1),
                         ("residual_beta", 0.5), ("sobolev_s", (0.0, -1.0)),
                         ("t_final", nan), ("t_final", inf), ("dt", nan), ("dt", inf),
                         ("picard_tol", nan), ("picard_tol", inf), ("picard_window", nan),
                         ("picard_window", inf), ("sobolev_s", (0.0, nan)), ("sobolev_s", (inf,))]:
        with pytest.raises(ConfigError, match=field):
            replace(cfg, **{field: value}).validate()


def test_step_count_bound_refuses_before_allocating(basis64):
    cfg = bump_config(basis64, sigma=0, t_final=1.0, dt=1e-3, control=ControlSignal.zero(100.0))
    replace(cfg, dt=1.0 / dynamics.MAX_STEPS).validate(basis64)
    for dt in (1.0 / (dynamics.MAX_STEPS + 1), 1e-12, 1e-300):
        with pytest.raises(ConfigError, match="dt"):
            replace(cfg, dt=dt).validate()
    # the run's own step grid passes, but a Picard solve over the control's whole
    # duration would take 10^8 steps
    long = replace(cfg, dt=1e-6)
    tracemalloc.start()
    try:
        for bad in (replace(cfg, dt=1.0 / (dynamics.MAX_STEPS + 1)), replace(cfg, dt=1e-300)):
            with pytest.raises(ConfigError, match="dt"):
                simulate(basis64, bad)
            with pytest.raises(ConfigError, match="dt"):
                picard_solve(basis64, bad, 1.0)
        with pytest.raises(ConfigError, match="dt"):
            picard_solve(basis64, long, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the step edges alone of 10^7 + 1 steps take 80 MB


def test_picard_solve_refuses_bad_time_arguments(basis64):
    u = ControlSignal.piecewise_constant([0.5], 0.1)
    cfg = bump_config(basis64, sigma=0, control=u, t_final=0.1, dt=1e-3)
    nan, inf = float("nan"), float("inf")
    for t_final, t_offset in [(-0.05, 0.0), (0.0, 0.0), (nan, 0.0), (inf, 0.0),
                              (0.05, -0.01), (0.05, nan), (0.05, inf)]:
        with pytest.raises(ConfigError, match="t_final > 0 and t_offset >= 0"):
            picard_solve(basis64, cfg, t_final, t_offset=t_offset)
    for t_final, t_offset in [(0.05, 5.0), (0.05, 0.06), (0.2, 0.0)]:
        with pytest.raises(ConfigError, match="control duration"):
            picard_solve(basis64, cfg, t_final, t_offset=t_offset)
    assert picard_solve(basis64, cfg, 0.05, t_offset=0.05).n_iter >= 1


def test_picard_solve_accepts_window_ends_of_a_long_run(basis64):
    # with 10^6 steps of 0.01, j0 * dt + 4 * dt passes T = 10^4 by 1.8e-12
    t_final, n_steps = 1.0e4, 10**6
    dt = t_final / n_steps
    cfg = bump_config(basis64, sigma=0, t_final=t_final, dt=dt)
    assert (n_steps - 4) * dt + 4 * dt - t_final > 1e-12
    res = picard_solve(basis64, cfg, 4 * dt, t_offset=(n_steps - 4) * dt)
    assert res.n_iter == 1


def test_picard_window_longer_than_any_step_count(basis64):
    # picard_window / dt overflows to inf; the run is one window
    cfg = bump_config(basis64, sigma=0, t_final=1e-3, dt=1e-4, integrator="picard", picard_window=1e306)
    want = simulate(basis64, replace(cfg, picard_window=1e-3)).final_state.coeffs
    assert np.array_equal(simulate(basis64, cfg).final_state.coeffs, want)


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
    # 10 pieces of 10 steps: one run of 40 steps (at least 32 at N = 64),
    # fewer than half of the 100
    "one_long_piece": ControlSignal.piecewise_constant(
        [0.5] * 4 + [0.1, -0.3, 0.2, 0.4, -0.1, 0.3], KERNEL_T
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


def count_transforms(monkeypatch, basis):
    # every transform of dynamics runs its bound GEMMs through dynamics._run;
    # an analysis on basis is a chain whose first left operand is its table
    calls = {"synthesis": [], "analysis": []}
    run = dynamics._run

    def counted(gemms):
        calls["analysis" if gemms[0][0] is basis.analysis_table else "synthesis"].append(1)
        run(gemms)

    monkeypatch.setattr(dynamics, "_run", counted)
    return calls


def count_synthesis(monkeypatch, basis):
    return count_transforms(monkeypatch, basis)["synthesis"]


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
    calls = count_synthesis(monkeypatch, basis)
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


def test_member_march_nan_trips_at_its_first_step(basis64, monkeypatch):
    # member 1 is NaN but takes no step, so it never meets the guard; member 3
    # is NaN and trips at step 1, before member 0, which is finite, stops
    cfg = bump_config(basis64, sigma=0, t_final=KERNEL_T, dt=2e-3, record_times=(KERNEL_T,))
    psi0 = make_initial_state(basis64, cfg.initial_state).coeffs
    nan = np.full_like(psi0, np.nan)
    coeffs = np.stack([psi0, nan, psi0, nan], axis=-1)
    controls = [KERNEL_CONTROLS[name] for name in ("sampled", "zero", "sinusoid_perturbed", "sampled")]
    with pytest.raises(SimulationDiverged) as batched:
        dynamics._march_members(basis64, cfg, coeffs, controls, [40, 0, 30, 10], 2e-3)

    monkeypatch.setattr(dynamics, "make_initial_state", lambda basis, spec: dynamics.SpectralField(1, 64, nan))
    with pytest.raises(SimulationDiverged) as looped:
        simulate(basis64, replace(cfg, control=controls[3], t_final=10 * 2e-3, record_times=(10 * 2e-3,)))
    assert batched.value.t == looped.value.t == pytest.approx(2e-3)


def test_member_march_guard_reports_lowest_member_on_ties(basis64, monkeypatch):
    # members 1 and 2 pass the lowered limit at step 1; member 1 is reported,
    # with the (t, H1) its own simulate reports, though it stops later
    cfg = bump_config(basis64, sigma=0, t_final=KERNEL_T, dt=2e-3, record_times=(KERNEL_T,))
    psi0 = make_initial_state(basis64, cfg.initial_state).coeffs
    h1 = np.sqrt(np.vdot(psi0, basis64.lam * psi0).real)
    monkeypatch.setattr(dynamics, "H1_DIVERGENCE_LIMIT", 1.5 * h1)
    scales = (1.0, 3.0, 2.0)
    coeffs = np.stack([f * psi0 for f in scales], axis=-1)
    u = KERNEL_CONTROLS["sinusoid_perturbed"]
    with pytest.raises(SimulationDiverged) as batched:
        dynamics._march_members(basis64, cfg, coeffs, [u] * 3, [50, 20, 5], 2e-3)

    start = dynamics.SpectralField(1, 64, scales[1] * psi0)
    monkeypatch.setattr(dynamics, "make_initial_state", lambda basis, spec: start)
    with pytest.raises(SimulationDiverged) as looped:
        simulate(basis64, replace(cfg, control=u, t_final=20 * 2e-3, record_times=(20 * 2e-3,)))
    assert batched.value.t == looped.value.t == pytest.approx(2e-3)
    assert batched.value.h1 == pytest.approx(looped.value.h1, rel=1e-12)
    assert batched.value.h1 == pytest.approx(scales[1] * h1, rel=1e-3)


def test_member_march_runs_step_matrix_members_alone(basis64, monkeypatch):
    # member 0 (zero control, 100 steps) is one step-matrix run and marches
    # alone without synthesis; member 2 (zero control, 10 steps, fewer than
    # N / 2 = 32) batches with member 1, one synthesis per step to step 60
    cfg = bump_config(basis64, sigma=0, t_final=KERNEL_T, dt=2e-3, record_times=(KERNEL_T,))
    psi0 = make_initial_state(basis64, cfg.initial_state).coeffs
    controls = [KERNEL_CONTROLS[name] for name in ("zero", "sinusoid_perturbed", "zero")]
    stops = [100, 60, 10]
    calls = count_synthesis(monkeypatch, basis64)
    finals = dynamics._march_members(basis64, cfg, np.stack([psi0] * 3, axis=-1), controls, stops, 2e-3)
    assert len(calls) == 60
    monkeypatch.undo()
    for b, (u, stop) in enumerate(zip(controls, stops)):
        t = stop * 2e-3
        want = simulate(basis64, replace(cfg, control=u, t_final=t, record_times=(t,))).final_state.coeffs
        assert np.linalg.norm(finals[:, b] - want) <= 1e-12


@pytest.mark.parametrize("dim, n_modes, sigma, integrator, control", [
    (1, 64, 0, "strang", "one_long_piece"),
    (2, 16, 1, "strang", "sinusoid_perturbed"),
    (1, 32, 0, "picard", "piecewise_constant"),
])
def test_one_member_march_matches_simulate(dim, n_modes, sigma, integrator, control):
    # a lone member takes the kernels of its own simulate, step matrices on
    # runs that cover some of its steps included
    basis = build_basis(dim, n_modes)
    cfg = bump_config(basis, sigma=sigma, control=KERNEL_CONTROLS[control], t_final=KERNEL_T,
                      dt=2e-3, record_times=(KERNEL_T,), integrator=integrator)
    n_steps, dt, _ = dynamics._snap_records(cfg)
    if control == "one_long_piece":
        u = cfg.control.integral(np.arange(n_steps) * dt, np.arange(1, n_steps + 1) * dt)
        runs = dynamics._StrangStepper(basis, cfg, dt)._matrix_runs(u)
        assert 0 < 2 * sum(b - a for a, b in runs) < n_steps
    psi0 = make_initial_state(basis, cfg.initial_state).coeffs
    got = dynamics._march_members(basis, cfg, psi0[..., None], [cfg.control], [n_steps], dt)[..., 0]
    assert np.array_equal(got, simulate(basis, cfg).final_state.coeffs)


@pytest.mark.parametrize("integrator", ["strang", "picard"])
def test_interior_record_times(monkeypatch, integrator):
    # records at 0.03 and 0.07 of T = 0.1 (steps 15 and 35 of 50), neither
    # at 0 nor at T; Picard windows of at most 12 steps end at both and at T
    basis = build_basis(1, 32)
    cfg = bump_config(basis, sigma=1, control=ControlSignal.piecewise_constant([0.7, -0.2], 0.1),
                      t_final=0.1, dt=2e-3, record_times=(0.03, 0.07), integrator=integrator,
                      picard_window=0.025)
    solve, windows = dynamics.picard_solve, {}

    def recorded(basis, cfg, t_final, psi0, t_offset):
        res = solve(basis, cfg, t_final, psi0=psi0, t_offset=t_offset)
        windows[round(t_offset / 2e-3), round((t_offset + t_final) / 2e-3)] = res.state.coeffs
        return res

    monkeypatch.setattr(dynamics, "picard_solve", recorded)
    traj = simulate(basis, cfg)
    assert traj.times.tolist() == [15 * traj.dt, 35 * traj.dt]
    if integrator == "strang":
        want = per_step_records(basis, cfg)
    else:
        assert list(windows) == [(0, 12), (12, 15), (15, 27), (27, 35), (35, 47), (47, 50)]
        want = [windows[12, 15], windows[27, 35]]
    for rec, ref in zip(traj.records, want, strict=True):
        assert np.array_equal(rec.state.coeffs, ref)


def test_march_yields_batched_members_at_asked_steps(basis64):
    # two batched members (no step-matrix runs) yield their starts, every
    # asked-for step they reach and their stops, in step order
    cfg = bump_config(basis64, sigma=0, t_final=KERNEL_T, dt=2e-3)
    psi0 = make_initial_state(basis64, cfg.initial_state).coeffs
    controls = [KERNEL_CONTROLS[name] for name in ("sampled", "sinusoid_perturbed")]
    stepper = dynamics._StrangStepper(basis64, cfg, 2e-3)
    got = list(dynamics._march(stepper, np.stack([psi0] * 2, axis=-1), controls, [30, 10], at=(0, 5, 20)))
    assert [(j, b) for j, b, _ in got] == [(0, 0), (0, 1), (5, 0), (5, 1), (10, 1), (20, 0), (30, 0)]
    for j, b, c in got:
        t = j * 2e-3
        alone = replace(cfg, control=controls[b], t_final=max(t, 2e-3), record_times=(t,))
        assert np.linalg.norm(c - per_step_records(basis64, alone)[0]) <= 1e-12
