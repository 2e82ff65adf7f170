"""Measurable functionals on simulated trajectories.

Everything here post-processes immutable Trajectory objects: the norm of
the interaction part psi(t) - e^{itH} psi0, its Holder-in-time quotient,
mixed space-time norms, continuity of the final state under weakly
convergent control perturbations, coefficient-tail profiles of ensembles
of interaction parts, and a-priori envelope checks (Gronwall growth and
the energy bound for the defocusing equation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .controls import ControlSignal
from .dynamics import SimConfig, Trajectory, _snap_records, energy, simulate
from .hermite import ConfigError, HermiteBasis, SpectralField
from .operators import _check_beta, check_admissible, free_propagate, sobolev_norm, wsp_norm


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


def _check_holder(n_samples: int, alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    if n_samples < 2:
        raise ConfigError(f"record_times: the Holder quotient needs at least two samples, got {n_samples}")


def check_smoothing_run(cfg: SimConfig, k: int, beta: float, alpha: float) -> None:
    """Refuse, before simulate steps, a smoothing run that smoothing_residual_series
    or holder_quotient would refuse afterwards: a sigma other than 0, a bad
    k, beta or alpha, or fewer than two distinct record steps.  cfg is
    validated first, since the record steps are snapped onto its step grid."""
    cfg.validate()
    _check_residual(cfg.sigma, k, beta)
    _check_holder(len(_snap_records(cfg)[2]), alpha)


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
    quotient 0 and an undefined fitted exponent.
    """
    _check_holder(len(series), alpha)
    log_dt, log_df, qsup = [], [], 0.0
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            t1, f1 = series[i]
            t2, f2 = series[j]
            gap = abs(t2 - t1)
            if gap < max(min_dt, 1e-300):
                continue
            diff = SpectralField(basis.dim, basis.n_modes, f2.coeffs - f1.coeffs)
            d = sobolev_norm(basis, diff, s)
            qsup = max(qsup, d / gap**alpha)
            if d > 0.0:
                log_dt.append(np.log(gap))
                log_df.append(np.log(d))
    fitted = None
    if len(log_dt) >= 8:
        fitted = float(np.polyfit(log_dt, log_df, 1)[0])
    return HolderEstimate(alpha, float(qsup), fitted)


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


def weak_limit_experiment(
    basis: HermiteBasis,
    cfg: SimConfig,
    n_list: list[int],
    amplitude: float,
    s: float = 0.0,
) -> list[tuple[int, float]]:
    """Final-state distance under oscillatory control perturbations.

    For each n, runs the base control plus A sin(2 pi n t / T), a family
    converging weakly to the base control as n grows, and returns
    (n, ||psi_n(T) - psi(T)||_{H^s}).  The runs record at T alone, so the
    result does not depend on cfg.record_times.
    """
    if not n_list or sorted(n_list) != list(n_list) or n_list[0] < 1:
        raise ConfigError(f"n_list must be a nonempty increasing list of n >= 1, got {n_list}")
    if amplitude < 0:
        raise ConfigError("amplitude must be nonnegative")
    cfg = replace(cfg, record_times=(cfg.t_final,))
    base_final = simulate(basis, cfg).final_state
    out = []
    for n in n_list:
        pert = ControlSignal.sinusoid_perturbed(cfg.control, amplitude, n)
        traj = simulate(basis, replace(cfg, control=pert))
        diff = SpectralField(
            basis.dim, basis.n_modes, traj.final_state.coeffs - base_final.coeffs
        )
        out.append((n, sobolev_norm(basis, diff, s)))
    return out


def spectral_tail_profile(
    basis: HermiteBasis, f: SpectralField, weight_s: float, cutoffs
) -> TailProfile:
    """Masses sum_{lam_k > cutoff} lam_k^weight_s |c_k|^2, one per cutoff."""
    w = basis.lam**weight_s * np.abs(f.coeffs) ** 2
    cut = np.asarray(sorted(cutoffs), dtype=float)
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


def attainable_ensemble(
    basis: HermiteBasis,
    cfg_template: SimConfig,
    n_samples: int,
    control_norm: float,
    seed: int,
    k: int,
    beta: float,
    cutoffs=None,
    n_segments: int = 16,
) -> list[TailProfile]:
    """Tail profiles of interaction parts over random controls and times.

    Each sample draws a piecewise-constant control scaled to the exact L2
    norm control_norm on [0, T] and a uniform random time snapped to the
    step grid (and never past T), runs the bilinear equation, and profiles
    psi(t*) - e^{it*H} psi0 in H^(k+beta).  Deterministic given the seed.
    """
    cfg_template.validate(basis)
    if n_samples < 1:
        raise ConfigError(f"n_samples must be at least 1, got {n_samples}")
    if cfg_template.sigma != 0:
        raise ConfigError("attainable ensembles are bilinear (sigma = 0)")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if control_norm < 0:
        raise ConfigError(f"control_norm must be >= 0, got {control_norm}")
    if n_segments < 1:
        raise ConfigError(f"n_segments must be >= 1, got {n_segments}")
    _check_beta(beta)
    rng = np.random.default_rng(seed)
    weight_s = k + beta
    if cutoffs is None:
        n = basis.n_modes
        cutoffs = [float(2 * (n // 4) + 1), float(2 * (n // 2) + 1), float(2 * (3 * n // 4) + 1)]
    t_total = cfg_template.t_final
    profiles = []
    for _ in range(n_samples):
        u = draw_control(rng, t_total, control_norm, n_segments)
        t_star = rng.uniform(0.0, t_total)
        n_steps = int(round(t_star / cfg_template.dt))
        if n_steps == 0:
            zero = SpectralField(
                basis.dim,
                basis.n_modes,
                np.zeros((basis.n_modes,) * basis.dim, dtype=complex),
            )
            profiles.append(spectral_tail_profile(basis, zero, weight_s, cutoffs))
            continue
        t_run = min(n_steps * cfg_template.dt, t_total)
        cfg = replace(cfg_template, control=u, t_final=t_run, record_times=(t_run,))
        traj = simulate(basis, cfg)
        _, res = residual_states(traj, basis)[-1]
        profiles.append(spectral_tail_profile(basis, res, weight_s, cutoffs))
    return profiles


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
