from dataclasses import replace

import numpy as np
import pytest

from gpe.controls import ControlSignal, make_potential
from gpe.dynamics import InitialState, SimConfig, Trajectory, TrajectoryRecord, _snap_records, simulate
from gpe.diagnostics import (
    _check_holder,
    attainable_ensemble,
    calibrate_gronwall_constant,
    convergence_errors,
    draw_control,
    energy_bound_check,
    gronwall_check,
    holder_quotient,
    residual_states,
    smoothing_experiment,
    smoothing_residual_series,
    spectral_tail_profile,
    strichartz_norm,
    weak_limit_experiment,
)
from gpe.hermite import ConfigError, basis_state, build_basis, spectral_field
from gpe.operators import free_propagate, sobolev_norm

from conftest import random_spectral
from test_dynamics import bump_config, count_synthesis


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
        smoothing_experiment(basis64, cfg, 0, 0.4, 0.5)


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


@pytest.mark.parametrize("records, n_modes", [(2048, 32), (724, 16**2), (512, 8**3), (181, 16**3)])
def test_holder_bound_counts_pairs_times_modes(records, n_modes):
    # the largest record counts of 1D N = 32, 2D N = 16, 3D N = 8 and 3D N = 16
    # pass, and one record more is refused
    _check_holder(records, 0.25, n_modes)
    with pytest.raises(ConfigError, match="record_times"):
        _check_holder(records + 1, 0.25, n_modes)


def holder_pair_loop(series, basis, s, alpha, min_dt):
    """The Holder quotient by one sobolev_norm per record pair, in (i, j) order."""
    log_dt, log_df, qsup = [], [], 0.0
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            t1, f1 = series[i]
            t2, f2 = series[j]
            gap = abs(t2 - t1)
            if gap < max(min_dt, 1e-300):
                continue
            d = sobolev_norm(basis, spectral_field(basis, f2.coeffs - f1.coeffs), s)
            qsup = max(qsup, d / gap**alpha)
            if d > 0.0:
                log_dt.append(np.log(gap))
                log_df.append(np.log(d))
    fitted = float(np.polyfit(log_dt, log_df, 1)[0]) if len(log_dt) >= 8 else None
    return float(qsup), fitted


@pytest.mark.parametrize("dim, n_modes", [(1, 32), (2, 12)])
@pytest.mark.parametrize("s, alpha", [(0.4, 0.25), (0.4, 0.3), (0.0, 1.0), (1.0, 0.3)])
def test_holder_quotient_matches_pair_loop(dim, n_modes, s, alpha):
    # at s = 0.4 the largest quotient of this series falls on a gap where numpy's array power
    # and Python's float power differ in the last bit (alpha = 0.3 in 1D, 0.25 in 2D)
    basis = build_basis(dim, n_modes)
    rng = np.random.default_rng(6)
    ts = np.sort(rng.uniform(0.0, 1.0, 40))
    ts[7] = ts[6]  # one repeated time: a zero gap, skipped at any min_dt
    series = [(float(t), random_spectral(basis, rng, decay=1.0)) for t in ts]
    for min_dt in (0.0, 0.02):
        want = holder_pair_loop(series, basis, s, alpha, min_dt)
        est = holder_quotient(series, basis, s, alpha, min_dt)
        assert (est.quotient_sup, est.fitted_alpha) == want


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
    pot = make_potential(b8, "gaussian_bump", amplitude=0.8, width=1.5)
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


@pytest.mark.parametrize(
    "dim, n_modes, sigma, integrator, s",
    [(1, 64, 0, "strang", 0.0), (1, 64, 0, "strang", 1.0), (2, 16, 1, "strang", 0.0),
     (1, 16, 1, "picard", 0.5)],
)
def test_weak_limit_matches_looped_simulate(dim, n_modes, sigma, integrator, s):
    # the perturbed runs march as one batch; each must equal its own simulate
    # to 1e-12 of the states' H^s norm, which bounds the change of a distance
    basis = build_basis(dim, n_modes)
    u = ControlSignal.piecewise_constant([0.3, -0.2], 0.2)
    cfg = bump_config(basis, sigma=sigma, control=u, t_final=0.2, dt=4e-3, integrator=integrator,
                      picard_window=0.05)
    n_list = [1, 3, 8]
    got = weak_limit_experiment(basis, cfg, n_list, 0.8, s)
    base = simulate(basis, cfg).final_state.coeffs
    scale = sobolev_norm(basis, spectral_field(basis, base), s)
    for (n, err), m in zip(got, n_list):
        pert = ControlSignal.sinusoid_perturbed(u, 0.8, m)
        final = simulate(basis, replace(cfg, control=pert)).final_state.coeffs
        want = sobolev_norm(basis, spectral_field(basis, final - base), s)
        assert n == m and want > 1e-5
        assert abs(err - want) <= 1e-12 * scale


def test_weak_limit_batch_synthesizes_once_per_step(basis64, monkeypatch):
    # the base run takes its step matrix and synthesizes only for its record
    # at T; the three perturbed runs share one synthesis per step
    cfg = bump_config(basis64, sigma=0, control=ControlSignal.piecewise_constant([0.3], 0.2),
                      t_final=0.2, dt=2e-3)
    calls = count_synthesis(monkeypatch, basis64)
    weak_limit_experiment(basis64, cfg, [1, 4, 16], 1.0)
    assert len(calls) == 100 + 1


def test_weak_limit_refuses_bad_order_and_amplitude(basis32):
    cfg = bump_config(basis32, sigma=0, t_final=0.05, dt=1e-2)
    for s in (np.nan, np.inf, -1.0):
        with pytest.raises(ConfigError, match="s must be finite"):
            weak_limit_experiment(basis32, cfg, [1, 2], 1.0, s)
    for amplitude in (np.nan, np.inf, -1.0):
        with pytest.raises(ConfigError, match="amplitude must be finite"):
            weak_limit_experiment(basis32, cfg, [1, 2], amplitude)


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
    # T = 0.3 is not a multiple of dt = 0.007, so every sample steps on the
    # grid of simulate: 43 steps of T / 43.  Seed 7 draws t* = 0.29865, which
    # rounds to step 43 = T; at dt = 0.007 it would have been 0.301 > T
    cfg = bump_config(basis32, sigma=0, t_final=0.3, dt=0.007)
    profs = attainable_ensemble(basis32, cfg, 2, 1.0, seed=7, k=0, beta=0.4)
    assert len(profs) == 2
    assert all(np.all(np.isfinite(p.masses)) for p in profs)


def looped_attainable(basis, cfg, n_samples, control_norm, seed, k, beta, cutoffs, n_segments):
    """attainable_ensemble as one simulate per sample, on the step grid of simulate(cfg)."""
    n_steps, dt, _ = _snap_records(cfg)
    rng = np.random.default_rng(seed)
    stops, masses = [], []
    for _ in range(n_samples):
        u = draw_control(rng, cfg.t_final, control_norm, n_segments)
        stops.append(min(int(round(rng.uniform(0.0, cfg.t_final) / dt)), n_steps))
        if stops[-1] == 0:
            masses.append(np.zeros(len(cutoffs)))
            continue
        t = min(stops[-1] * dt, cfg.t_final)
        traj = simulate(basis, replace(cfg, control=u, t_final=t, dt=dt, record_times=(t,)))
        res = traj.final_state.coeffs - free_propagate(basis, traj.psi0, t).coeffs
        masses.append(spectral_tail_profile(basis, spectral_field(basis, res), k + beta, cutoffs).masses)
    return stops, masses


def test_attainable_matches_looped_simulate(basis64):
    # dt = 0.006 does not divide T = 0.1: the grid is 17 steps of T / 17.  Seed
    # 5 draws a sample with no step, two that tie at one step, and one at T
    cfg = bump_config(basis64, sigma=0, t_final=0.1, dt=0.006)
    cutoffs = [0.0, 33.0, 65.0, 97.0]
    got = attainable_ensemble(basis64, cfg, 6, 1.0, seed=5, k=0, beta=0.4, cutoffs=cutoffs,
                              n_segments=4)
    stops, want = looped_attainable(basis64, cfg, 6, 1.0, 5, 0, 0.4, cutoffs, 4)
    assert stops == [1, 17, 15, 1, 12, 0]
    for prof, ref, stop in zip(got, want, stops):
        if stop == 0:
            assert np.all(prof.masses == 0.0)
            continue
        # cutoff 0 holds the whole H^0.4 mass of the residual
        assert ref[0] > 0.0
        assert np.all(np.abs(prof.masses - ref) <= 1e-12 * ref[0])


def test_attainable_checks_its_inputs(basis32):
    cfg = bump_config(basis32, sigma=0, t_final=0.05, dt=1e-2)
    for kw, key in [
        ({"cutoffs": []}, "cutoffs"),
        ({"cutoffs": [np.nan, 5.0]}, "cutoffs"),
        ({"cutoffs": [5.0, np.inf]}, "cutoffs"),
        ({"control_norm": np.nan}, "control_norm"),
        ({"control_norm": np.inf}, "control_norm"),
        ({"control_norm": -1.0}, "control_norm"),
    ]:
        args = {"n_samples": 2, "control_norm": 1.0, "seed": 0, "k": 0, "beta": 0.4} | kw
        with pytest.raises(ConfigError, match=key):
            attainable_ensemble(basis32, cfg, **args)


def test_attainable_picard_runs_members_one_by_one():
    # fixed-point windows carry no member axis; each sample is its own Picard run
    basis = build_basis(1, 16)
    cfg = bump_config(basis, sigma=0, t_final=0.1, dt=5e-3, integrator="picard", picard_window=0.05)
    got = attainable_ensemble(basis, cfg, 3, 1.0, seed=2, k=0, beta=0.4, cutoffs=[0.0, 9.0])
    _, want = looped_attainable(basis, cfg, 3, 1.0, 2, 0, 0.4, [0.0, 9.0], 16)
    for prof, ref in zip(got, want):
        assert ref[0] > 0.0
        assert np.all(np.abs(prof.masses - ref) <= 1e-12 * ref[0])


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
    # the potential tabulates orders 0..2 only; another k needs an explicit k_norm
    for k in (3, -1):
        with pytest.raises(ConfigError, match=f"k = {k}"):
            gronwall_check(traj, basis64, k, c_hat)
    assert gronwall_check(traj, basis64, 3, c_hat, k_norm=10.0).passed
    with pytest.raises(ConfigError, match="k = 5"):
        calibrate_gronwall_constant([(traj, basis64)], k=5)


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
    pot = make_potential(b3, "gaussian_bump", amplitude=0.8, width=1.5, center=0.2)
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


def test_convergence_errors_checks_and_order(basis32):
    cfg = bump_config(basis32, sigma=1, t_final=0.05, dt=1e-2)
    for dts, refine, key in [
        ([0.01], 4, "dts"),
        ([], 4, "dts"),
        ([0.01, 0.0], 4, "dts"),
        ([0.01, -0.005], 4, "dts"),
        ([0.01, np.inf], 4, "dts"),
        ([0.01, np.nan], 4, "dts"),
        ([0.01, 0.005], 1, "ref_refine"),
    ]:
        with pytest.raises(ConfigError, match=key):
            convergence_errors(basis32, cfg, dts, refine)
    rows = convergence_errors(basis32, cfg, [0.005, 0.01], 4)
    assert [dt for dt, _ in rows] == [0.01, 0.005]
    # the errors shrink like dt^2 (Strang)
    assert 0.0 < rows[1][1] < rows[0][1] / 3.0
