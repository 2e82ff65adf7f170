"""Measurable functionals on simulated trajectories.

Everything here post-processes immutable Trajectory objects: the norm of
the interaction part psi(t) - e^{itH} psi0, its Holder-in-time quotient,
mixed space-time norms, continuity of the final state under weakly
convergent control perturbations, coefficient-tail profiles of ensembles
of interaction parts, and a-priori envelope checks (Gronwall growth and
the energy bound for the defocusing equation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .controls import NORM_ORDERS, ControlSignal
from .dynamics import SimConfig, Trajectory, _march_members, _snap_records, energy, make_initial_state, simulate
from .hermite import ConfigError, HermiteBasis, SpectralField, basis_state, build_basis
from .operators import (
    _check_beta,
    _check_order,
    check_admissible,
    free_propagate,
    kato_functional,
    sobolev_norm,
    wsp_norm,
)


@dataclass(frozen=True)
class HolderEstimate:
    """Holder seminorm data over recorded pairs.

    quotient_sup is the largest ||f(t1) - f(t2)|| / |t1 - t2|^alpha over
    admissible pairs; fitted_alpha the least-squares slope of
    log ||delta f|| against log |delta t| (None when degenerate).
    """

    alpha: float
    quotient_sup: float
    fitted_alpha: Optional[float]


@dataclass(frozen=True)
class TailProfile:
    """Weighted high-mode mass above a list of eigenvalue cutoffs."""

    cutoffs: np.ndarray
    masses: np.ndarray
    weight_s: float

    def tail_mass(self, cutoff: float) -> float:
        i = int(np.searchsorted(self.cutoffs, cutoff))
        if i >= self.cutoffs.size or self.cutoffs[i] != cutoff:
            raise KeyError(f"cutoff {cutoff} not tabulated")
        return float(self.masses[i])


@dataclass(frozen=True)
class StrichartzReport:
    q: float
    r: float
    s: float
    value: float


class CheckResult(NamedTuple):
    passed: bool
    margin: float


def residual_states(traj: Trajectory, basis: HermiteBasis):
    """(t, psi(t) - e^{itH} psi0) over the recorded times."""
    out = []
    for rec in traj.records:
        free = free_propagate(basis, traj.psi0, rec.t)
        out.append(
            (rec.t, SpectralField(basis.dim, basis.n_modes, rec.state.coeffs - free.coeffs))
        )
    return out


def _check_residual(sigma: int, k: int, beta: float) -> None:
    if sigma != 0:
        raise ConfigError(f"sigma must be 0 (the smoothing residual is for bilinear runs), got {sigma}")
    _check_beta(beta)
    if k < 0 or k % 2 != 0:
        raise ConfigError(f"k must be an even nonnegative integer, got {k}")


# The most record pairs times modes N^d holder_quotient compares: R (R - 1) / 2 pairs of R
# records, each pair a reduction over the N^d modes, so 2048 records in 1D N = 32, 724 in 2D
# N = 16, 512 in 3D N = 8 and 181 in 3D N = 16.  Its time grows with pairs times modes: 0.3-1.0 s
# at the bound in those four cases (one BLAS thread, 2-vCPU host), where a bound of 2^21 pairs
# alone let 3D N = 16 take about 67 s.  Its tracemalloc peak, 115-150 B a pair plus one row of
# differences, is 229 MiB at the bound in 1D N = 32 and 18-31 MiB in the other three;
# configs/smoothing.json has 11 records.
MAX_HOLDER_PAIR_MODES = 2**26


def _check_holder(n_samples: int, alpha: float, n_modes: int) -> None:
    """ConfigError unless alpha is in (0, 1] and n_samples records of n_modes (N^d) modes fit the bound."""
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    if n_samples < 2:
        raise ConfigError(f"record_times: the Holder quotient needs at least two samples, got {n_samples}")
    pairs = n_samples * (n_samples - 1) // 2
    if pairs * n_modes > MAX_HOLDER_PAIR_MODES:
        raise ConfigError(
            f"record_times: the Holder quotient of {n_samples} records of {n_modes} modes compares "
            f"{pairs} pairs, {pairs * n_modes} pair-modes, more than MAX_HOLDER_PAIR_MODES = {MAX_HOLDER_PAIR_MODES}"
        )


def smoothing_residual_series(
    traj: Trajectory, basis: HermiteBasis, k: int, beta: float
) -> list[tuple[float, float]]:
    """Norm of the interaction part in H^(k+beta) along a bilinear run.

    Requires a sigma = 0 trajectory and 0 <= beta < 1/2; k is an even
    integer.  The series starts at 0 exactly.
    """
    _check_residual(traj.cfg.sigma, k, beta)
    s = k + beta
    return [(t, sobolev_norm(basis, st, s)) for t, st in residual_states(traj, basis)]


def holder_quotient(
    series: list[tuple[float, SpectralField]],
    basis: HermiteBasis,
    s: float,
    alpha: float,
    min_dt: float = 0.0,
) -> HolderEstimate:
    """Holder quotient of a state-valued series in the H^s norm.

    Pairs closer than min_dt are skipped.  A constant series gives
    quotient 0 and an undefined fitted exponent.  Each record's differences
    to all later ones are one array reduction, and gap^alpha is Python's
    float power, once per distinct gap.
    """
    _check_holder(len(series), alpha, basis.lam.size)
    _check_order(s)
    ts = np.array([t for t, _ in series], dtype=float)
    c = np.stack([f.coeffs.reshape(-1) for _, f in series])
    w = basis.lam.reshape(-1) ** s
    rows = [np.sqrt(np.sum(w * np.abs(c[i + 1 :] - c[i]) ** 2, axis=1)) for i in range(len(c) - 1)]
    i, j = np.triu_indices(len(c), 1)  # the pairs in the order of rows
    gap, d = np.abs(ts[j] - ts[i]), np.concatenate(rows)
    keep = gap >= max(min_dt, 1e-300)
    gap, d = gap[keep], d[keep]
    uniq, at = np.unique(gap, return_inverse=True)
    qsup = np.fmax.reduce(d / np.array([g**alpha for g in uniq.tolist()])[at], initial=0.0)
    pos = d > 0.0
    fitted = float(np.polyfit(np.log(gap[pos]), np.log(d[pos]), 1)[0]) if np.count_nonzero(pos) >= 8 else None
    return HolderEstimate(alpha, float(qsup), fitted)


def smoothing_experiment(
    basis: HermiteBasis, cfg: SimConfig, k: int = 0, beta: float = 0.4, alpha: float = 0.25
) -> tuple[list[tuple[float, float]], HolderEstimate]:
    """The smoothing run of cfg: its interaction-part series in H^(k+beta)
    and the Holder quotient of those interaction parts in the same norm.

    Refuses, before simulate steps, what smoothing_residual_series or
    holder_quotient would refuse afterwards: a sigma other than 0, a bad k,
    beta or alpha, or fewer than two distinct record steps.  cfg is
    validated first, since the record steps are snapped onto its step grid.
    """
    cfg.validate(basis)
    _check_residual(cfg.sigma, k, beta)
    _check_holder(len(_snap_records(cfg)[2]), alpha, basis.lam.size)
    traj = simulate(basis, cfg)
    states = residual_states(traj, basis)
    series = [(t, sobolev_norm(basis, st, k + beta)) for t, st in states]
    return series, holder_quotient(states, basis, k + beta, alpha, min_dt=traj.dt)


def strichartz_norm(
    traj: Trajectory,
    basis: HermiteBasis,
    q: float,
    r: float,
    s: float,
    whitelist: bool = False,
) -> StrichartzReport:
    """Mixed norm ( int ||psi(t)||_{W^{s,r}}^q dt )^(1/q) over the record grid.

    The pair (q, r) must be admissible for the trajectory dimension unless
    explicitly whitelisted for reporting.  q = inf takes the max in time.
    """
    if not whitelist and not check_admissible(q, r, traj.cfg.dim):
        raise ConfigError(f"pair (q={q}, r={r}) not admissible in dim {traj.cfg.dim}")
    ts = traj.times
    vals = np.array([wsp_norm(basis, rec.state, s, r) for rec in traj.records])
    if np.isinf(q):
        return StrichartzReport(q, r, s, float(np.max(vals)))
    value = float(np.trapezoid(vals**q, ts) ** (1.0 / q))
    return StrichartzReport(q, r, s, value)


# The most entries of weak_limit_experiment's n_list.  The perturbed runs march as one batch
# and keep a column of step integrals each: a tracemalloc peak of about 12 KB a run in 1D at
# N = 32 over 250 steps, so about 47 MB at the bound (8.7 s); configs/weak_limit.json has 3.
MAX_N_LIST = 2**12


def weak_limit_experiment(
    basis: HermiteBasis,
    cfg: SimConfig,
    n_list: list[int],
    amplitude: float = 1.0,
    s: float = 0.0,
) -> list[tuple[int, float]]:
    """Final-state distance under oscillatory control perturbations.

    For each n, runs the base control plus A sin(2 pi n t / T), a family
    converging weakly to the base control as n grows, and returns
    (n, ||psi_n(T) - psi(T)||_{H^s}).  The base run is one simulate; the
    perturbed runs march together as the members of one batch, on the
    base run's step grid, and at amplitude 0 they are the base run, at
    distance 0.  Only the state at T is used, so the result does not
    depend on cfg.record_times.
    """
    if not 1 <= len(n_list) <= MAX_N_LIST:
        raise ConfigError(f"n_list must hold 1 to MAX_N_LIST = {MAX_N_LIST} entries, got {len(n_list)}")
    if sorted(n_list) != list(n_list) or n_list[0] < 1:
        raise ConfigError(f"n_list must be an increasing list of n >= 1, got {n_list}")
    if not 0.0 <= amplitude < math.inf:
        raise ConfigError(f"amplitude must be finite and >= 0, got {amplitude}")
    _check_order(s)
    cfg = replace(cfg, record_times=(cfg.t_final,))
    base = simulate(basis, cfg)
    if amplitude == 0:  # every perturbed control is the base control itself
        return [(n, 0.0) for n in n_list]
    n_steps, dt, _ = _snap_records(cfg)
    perts = [ControlSignal.sinusoid_perturbed(cfg.control, amplitude, n) for n in n_list]
    start = np.repeat(base.psi0.coeffs[..., None], len(perts), axis=-1)
    finals = _march_members(basis, cfg, start, perts, [n_steps] * len(perts), dt)
    out = []
    for b, n in enumerate(n_list):
        diff = SpectralField(basis.dim, basis.n_modes, finals[..., b] - base.final_state.coeffs)
        out.append((n, sobolev_norm(basis, diff, s)))
    return out


def convergence_errors(
    basis: HermiteBasis, cfg: SimConfig, dts, ref_refine: int = 16
) -> list[tuple[float, float]]:
    """(dt, ||psi_dt(T) - psi_ref(T)||) for each step size in dts, largest first.

    The reference run steps at min(dts) / ref_refine.  Needs at least two
    step sizes, each finite and > 0, and ref_refine >= 2.
    """
    dts = list(dts)
    if len(dts) < 2:
        raise ConfigError(f"dts: need at least two step sizes, got {len(dts)}")
    if not all(math.isfinite(dt) and dt > 0 for dt in dts):
        raise ConfigError(f"dts: every step size must be finite and > 0, got {dts}")
    if not ref_refine >= 2:
        raise ConfigError(f"ref_refine must be >= 2, got {ref_refine}")
    cfg = replace(cfg, record_times=(cfg.t_final,))
    ref = simulate(basis, replace(cfg, dt=min(dts) / ref_refine)).final_state
    out = []
    for dt in sorted(dts, reverse=True):
        final = simulate(basis, replace(cfg, dt=dt)).final_state
        out.append((dt, float(np.sqrt(np.sum(np.abs(final.coeffs - ref.coeffs) ** 2)))))
    return out


def kato_scan(
    beta: float,
    k_max: int,
    window=(-2.0 * math.pi, 2.0 * math.pi),
    n_time: int = 256,
    n_modes: Optional[int] = None,
    quad_factor: int = 2,
) -> list[tuple]:
    """(k, lambda_k, kato_functional, H^(2 beta) norm) of each 1D eigenstate k = 0 .. k_max.

    The eigenstates live on a 1D basis of n_modes modes (default k_max + 1)
    and quad_factor * n_modes nodes.  Needs 1 <= k_max < n_modes.
    """
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    if n_modes is None:
        n_modes = k_max + 1
    if not n_modes > k_max:
        raise ConfigError(f"n_modes = {n_modes} must exceed k_max = {k_max}")
    basis = build_basis(1, n_modes, quad_factor)
    points = []
    for k in range(k_max + 1):
        phi = basis_state(basis, k)
        val = kato_functional(basis, phi, beta, window, n_time)
        points.append((k, float(basis.lam[k]), val, sobolev_norm(basis, phi, 2.0 * beta)))
    return points


def _cutoff_array(cutoffs) -> np.ndarray:
    """The cutoffs as a sorted float array; ConfigError unless nonempty and finite."""
    cut = np.sort(np.asarray(cutoffs, dtype=float).ravel())
    if not cut.size or not np.all(np.isfinite(cut)):
        raise ConfigError(f"cutoffs must be a nonempty list of finite numbers, got {cutoffs}")
    return cut


def spectral_tail_profile(
    basis: HermiteBasis, f: SpectralField, weight_s: float, cutoffs
) -> TailProfile:
    """Masses sum_{lam_k > cutoff} lam_k^weight_s |c_k|^2, one per cutoff."""
    w = basis.lam**weight_s * np.abs(f.coeffs) ** 2
    cut = _cutoff_array(cutoffs)
    masses = np.array([float(np.sum(w[basis.lam > c])) for c in cut])
    return TailProfile(cut, masses, weight_s)


def draw_control(
    rng: np.random.Generator, duration: float, l2_norm: float, n_segments: int
) -> ControlSignal:
    """Piecewise-constant control with the exact prescribed L2 norm."""
    vals = rng.standard_normal(n_segments)
    cur = np.sqrt(np.sum(vals**2) * duration / n_segments)
    if cur == 0.0:
        vals = np.ones(n_segments)
        cur = np.sqrt(duration)
    return ControlSignal.piecewise_constant(vals * (l2_norm / cur), duration)


# The most samples attainable_ensemble draws.  The samples march as one batch, which keeps
# a coefficient column and the grid-sized step arrays of every sample (about 5 KB a sample
# in 1D at N = 32, so about 0.3 GB at the bound, but about 1.4 MB a sample in 3D at N = 12).
MAX_SAMPLES = 2**16


def attainable_ensemble(
    basis: HermiteBasis,
    cfg_template: SimConfig,
    n_samples: int,
    control_norm: float,
    seed: int,
    k: int = 0,
    beta: float = 0.4,
    cutoffs=None,
    n_segments: int = 16,
) -> list[TailProfile]:
    """Tail profiles of interaction parts over random controls and times.

    Each sample draws a piecewise-constant control scaled to the exact L2
    norm control_norm on [0, T], then a uniform random time t* in [0, T].
    Every sample runs on the step grid of simulate(cfg_template): n =
    max(1, round(T / dt)) steps of dt_g = T / n, and the sample stops after
    min(round(t* / dt_g), n) of them, at t_i.  The samples march as the
    members of one batch of bilinear runs, and each profiles
    psi(t_i) - e^{i t_i H} psi0 in H^(k+beta); a sample with no step
    profiles zero.  Deterministic given the seed.
    """
    cfg_template.validate(basis)
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ConfigError(f"n_samples must be in [1, MAX_SAMPLES = {MAX_SAMPLES}], got {n_samples}")
    if cfg_template.sigma != 0:
        raise ConfigError("attainable ensembles are bilinear (sigma = 0)")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= control_norm < math.inf:
        raise ConfigError(f"control_norm must be finite and >= 0, got {control_norm}")
    if n_segments < 1:
        raise ConfigError(f"n_segments must be >= 1, got {n_segments}")
    _check_beta(beta)
    if cutoffs is None:
        n = basis.n_modes
        cutoffs = [float(2 * (n // 4) + 1), float(2 * (n // 2) + 1), float(2 * (3 * n // 4) + 1)]
    cutoffs = _cutoff_array(cutoffs)
    t_total = cfg_template.t_final
    n_steps, dt, _ = _snap_records(cfg_template)
    rng = np.random.default_rng(seed)
    controls, stops = [], []
    for _ in range(n_samples):
        controls.append(draw_control(rng, t_total, control_norm, n_segments))
        stops.append(min(int(round(rng.uniform(0.0, t_total) / dt)), n_steps))
    psi0 = make_initial_state(basis, cfg_template.initial_state)
    start = np.repeat(psi0.coeffs[..., None], n_samples, axis=-1)
    finals = _march_members(basis, cfg_template, start, controls, stops, dt)
    profiles = []
    for b, stop in enumerate(stops):
        res = finals[..., b] - free_propagate(basis, psi0, stop * dt).coeffs
        res = SpectralField(basis.dim, basis.n_modes, res)
        profiles.append(spectral_tail_profile(basis, res, k + beta, cutoffs))
    return profiles


def _check_norm_order(k) -> None:
    if k not in NORM_ORDERS:
        raise ConfigError(f"k = {k}: the potential tabulates its norm only for orders {NORM_ORDERS}")


def gronwall_check(
    traj: Trajectory,
    basis: HermiteBasis,
    k: int,
    c_hat: float,
    k_norm: Optional[float] = None,
) -> CheckResult:
    """Envelope test ||psi(t)||_{H^k} <= ||psi0||_{H^k} exp(c_hat * |K| * int |u|).

    k_norm defaults to the potential's order-k proxy norm.  Returns the
    minimal margin (envelope minus measured norm) over record times.
    """
    if traj.cfg.sigma != 0:
        raise ConfigError("the growth envelope applies to bilinear (sigma = 0) runs")
    if k_norm is None:
        _check_norm_order(k)
        k_norm = traj.cfg.potential.wkinf_norms[k]
    base = sobolev_norm(basis, traj.psi0, float(k))
    margin = np.inf
    for rec in traj.records:
        budget = traj.cfg.control.abs_integral(0.0, rec.t)
        env = base * np.exp(c_hat * k_norm * budget)
        margin = min(margin, env - sobolev_norm(basis, rec.state, float(k)))
    return CheckResult(margin >= 0.0, float(margin))


def calibrate_gronwall_constant(
    runs: list[tuple[Trajectory, HermiteBasis]],
    k: int,
    safety: float = 1.5,
    floor: float = 0.05,
) -> float:
    """Largest implied growth constant over calibration runs, times a safety
    factor.  Fixed once and then reused unchanged for fresh configurations."""
    _check_norm_order(k)
    worst = 0.0
    for traj, basis in runs:
        k_norm = traj.cfg.potential.wkinf_norms[k]
        base = sobolev_norm(basis, traj.psi0, float(k))
        for rec in traj.records:
            budget = traj.cfg.control.abs_integral(0.0, rec.t) * k_norm
            if budget <= 1e-12:
                continue
            growth = sobolev_norm(basis, rec.state, float(k)) / base
            if growth > 1.0:
                worst = max(worst, np.log(growth) / budget)
    return safety * max(worst, floor)


def energy_bound_check(
    traj: Trajectory, basis: HermiteBasis, grad_sup: Optional[float] = None
) -> tuple[CheckResult, float]:
    """A-priori energy envelope for defocusing runs.

    Checks E(t) <= (sqrt(E(0)) + 2 C ||psi0|| int_0^t |u|)^2 with
    C = sup |grad K|, within the splitting tolerance 10 dt^2 E(0).
    Returns the check (margin measured against the bare envelope) and the
    tolerance.
    """
    if traj.cfg.sigma != 1:
        raise ConfigError("the energy envelope applies to defocusing (sigma = 1) runs")
    if grad_sup is None:
        grad_sup = traj.cfg.potential.grad_sup
    e0 = energy(basis, traj.psi0)
    l2_0 = float(np.sqrt(np.sum(np.abs(traj.psi0.coeffs) ** 2)))
    tol = 10.0 * traj.dt**2 * e0
    margin = np.inf
    for rec in traj.records:
        budget = traj.cfg.control.abs_integral(0.0, rec.t)
        bound = (np.sqrt(e0) + 2.0 * grad_sup * l2_0 * budget) ** 2
        margin = min(margin, bound - rec.energy)
    return CheckResult(margin >= -tol, float(margin)), tol
