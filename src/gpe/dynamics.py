"""Time evolution of the controlled oscillator equation.

The evolution law used everywhere is

    d/dt psi = i H psi - i u(t) K(x) psi + i sigma |psi|^2 psi,

with sigma = 0 (bilinear), +1 (defocusing cubic) or -1 (focusing cubic).
Two independent integrators are provided: a Strang split-step scheme
alternating exact free-flow phases with the exact pointwise
potential/nonlinear phase, and a fixed-point iteration of the integral
(Duhamel) form of the equation, which serves as a cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .controls import ControlSignal, PotentialSpec
from .hermite import (
    ConfigError,
    GridField,
    HermiteBasis,
    SpectralField,
    _analyze,
    _quad_sum,
    _synthesize,
    basis_state,
    spectral_field,
)
from .operators import _check_beta, free_propagate, lp_norm, sobolev_norm

H1_DIVERGENCE_LIMIT = 1.0e6


class SimulationDiverged(RuntimeError):
    """H1 norm passed the divergence guard (possible focusing blow-up)."""

    def __init__(self, t: float, h1: float):
        super().__init__(
            f"H1 norm {h1:.3e} exceeded {H1_DIVERGENCE_LIMIT:.0e} at t = {t:.6g}"
        )
        self.t = t
        self.h1 = h1


class PicardDidNotConverge(RuntimeError):
    """Fixed-point iteration failed to contract within the iteration budget."""

    def __init__(self, n_iter: int, last_ratio: float):
        super().__init__(
            f"no contraction after {n_iter} iterations "
            f"(last ratio {last_ratio:.3g}); shrink the time window"
        )
        self.n_iter = n_iter
        self.last_ratio = last_ratio


@dataclass(frozen=True)
class InitialState:
    """Named initial data: an eigenstate, a coherent state, or a random
    field with power-law coefficient decay."""

    kind: str
    mode: tuple = (0,)
    displacement: complex = 1.0
    decay: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("eigenstate", "coherent", "random_decay"):
            raise ConfigError(f"unknown initial state kind {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimConfig:
    dim: int
    n_modes: int
    sigma: int
    t_final: float
    dt: float
    initial_state: InitialState
    potential: PotentialSpec
    control: ControlSignal
    quad_factor: int = 2
    record_times: tuple = ()
    sobolev_s: tuple = (0.0, 1.0, 2.0)
    residual_k: int = 0
    residual_beta: float = 0.4
    integrator: str = "strang"
    picard_tol: float = 1e-10
    picard_max_iter: int = 60
    picard_window: float = 0.1

    def validate(self, basis: HermiteBasis | None = None) -> None:
        """Range-check every field; given a basis, check it, the potential and the initial state fit."""
        if self.sigma not in (-1, 0, 1):
            raise ConfigError(f"sigma must be -1, 0 or 1, got {self.sigma}")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.integrator not in ("strang", "picard"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        for t in self.record_times:
            if not 0.0 <= t <= self.t_final + 1e-12:
                raise ConfigError(f"record_times entry {t} outside [0, {self.t_final}]")
        if any(s < 0 for s in self.sobolev_s):
            raise ConfigError(f"sobolev_s orders must be >= 0, got {self.sobolev_s}")
        if self.residual_k < 0:
            raise ConfigError(f"residual_k must be >= 0, got {self.residual_k}")
        _check_beta(self.residual_beta, "residual_beta")
        if self.picard_tol <= 0:
            raise ConfigError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ConfigError(f"picard_max_iter must be >= 1, got {self.picard_max_iter}")
        if self.picard_window <= 0:
            raise ConfigError("picard_window must be positive")
        if self.control.duration < self.t_final:
            raise ConfigError(f"control duration {self.control.duration} is shorter than t_final")
        if basis is None:
            return
        fit = (basis.dim, basis.n_modes, basis.n_nodes)
        if fit != (self.dim, self.n_modes, self.quad_factor * self.n_modes):
            raise ConfigError(f"basis (dim, n_modes, n_nodes) = {fit} does not fit the config")
        if self.potential.grid_values.shape != (basis.n_nodes,) * basis.dim:
            raise ConfigError(f"potential grid {self.potential.grid_values.shape} does not fit the basis")
        if self.initial_state.kind == "eigenstate":
            basis_state(basis, self.initial_state.mode)


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    state: SpectralField
    l2: float
    energy: float
    sobolev: dict
    residual_sobolev: float
    linf: float


@dataclass(frozen=True)
class Trajectory:
    cfg: SimConfig
    dt: float
    psi0: SpectralField
    records: list = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def final_state(self) -> SpectralField:
        return self.records[-1].state


def make_initial_state(basis: HermiteBasis, spec: InitialState) -> SpectralField:
    """Realize a named initial state as a unit-L2 coefficient array."""
    if spec.kind == "eigenstate":
        return basis_state(basis, spec.mode)
    if spec.kind == "coherent":
        alpha = complex(spec.displacement)
        k = np.arange(basis.n_modes)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
        axis = np.exp(k * np.log(np.abs(alpha) + 1e-300) - 0.5 * log_fact) * np.exp(
            1j * k * np.angle(alpha)
        )
        c = reduce(np.multiply.outer, [axis] * basis.dim)
    else:  # random_decay
        rng = np.random.default_rng(spec.seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=basis.lam.shape)
        c = basis.lam ** -(spec.decay + 0.5) * np.exp(1j * theta)
    return spectral_field(basis, c / np.sqrt(np.sum(np.abs(c) ** 2)))


def grid_nonlinear_phase(
    values: GridField, sigma: int, k_values: np.ndarray, u_integral: float, dt: float
) -> GridField:
    """Exact flow of the pointwise phase equation over one step.

    values -> exp(-i (K * U - sigma |values|^2 * dt)) * values, with
    U the integral of u over the step.  Moduli are unchanged exactly.
    """
    return GridField(values.dim, _phase_kernel(values.values, sigma, k_values, u_integral, dt))


def _phase_kernel(v: np.ndarray, sigma: int, k_values: np.ndarray, u_int: float, dt: float):
    phase = k_values * u_int
    if sigma:
        phase = phase - sigma * np.abs(v) ** 2 * dt
    return v * np.exp(-1j * phase)


# Step integrals this close, relative to the first of a run, give one step map.
_SAME_INTEGRAL_RTOL = 1e-12


class _StrangStepper:
    """Precomputed tables for repeated steps of fixed size."""

    def __init__(self, basis: HermiteBasis, cfg: SimConfig, dt: float):
        self.basis = basis
        self.cfg = cfg
        self.dt = dt
        self.half_phase = np.exp(0.5j * basis.lam * dt)
        self.k_values = cfg.potential.grid_values

    def step(self, coeffs: np.ndarray, u_int: float) -> np.ndarray:
        """One step over which the control integrates to u_int."""
        c = self.half_phase * coeffs
        v = _synthesize(self.basis, c)
        v = _phase_kernel(v, self.cfg.sigma, self.k_values, u_int, self.dt)
        c = _analyze(self.basis, v)
        return self.half_phase * c

    def march(self, coeffs: np.ndarray, u_ints: np.ndarray):
        """Yield (j, state after step j) for j = 1 .. len(u_ints); the control
        integrates to u_ints[j - 1] over step j.  Steps in a run of
        _matrix_runs take one matvec with that run's step matrix, every
        other step is step()."""
        runs = dict(self._matrix_runs(u_ints))
        c, stop, mat = coeffs, 0, None
        for j, u in enumerate(u_ints):
            if j in runs:
                stop, mat = runs[j], self._step_matrix(u)
            c = mat @ c if j < stop else self.step(c, u)
            yield j + 1, c

    def _matrix_runs(self, u_ints: np.ndarray) -> list:
        """(start, stop) of the step runs that take a step matrix.

        Only a linear (sigma = 0) 1D run has them: at least n_modes // 2
        consecutive steps whose integrals agree with the run's first to
        _SAME_INTEGRAL_RTOL, so that the matvecs pay for building the matrix.
        """
        if self.cfg.sigma or self.basis.dim != 1:
            return []
        jumps = np.abs(np.diff(u_ints)) > _SAME_INTEGRAL_RTOL * np.abs(u_ints[:-1])
        cuts = [0, *(np.flatnonzero(jumps) + 1), len(u_ints)]
        return [
            (a, b)
            for a, b in zip(cuts[:-1], cuts[1:])
            if b - a >= self.basis.n_modes // 2
            and np.all(np.abs(u_ints[a:b] - u_ints[a]) <= _SAME_INTEGRAL_RTOL * abs(u_ints[a]))
        ]

    def _step_matrix(self, u_int: float) -> np.ndarray:
        """The 1D linear step for integral u_int as an (N, N) matrix, half-phases folded in.

        analysis_table diag(exp(-i K u_int)) herm_table.T as two real GEMMs
        written into the real and imaginary parts of one complex array.
        """
        theta = -self.k_values * u_int
        ht = self.basis.herm_table.T
        mat = np.empty((self.basis.n_modes,) * 2, dtype=complex)
        np.matmul(self.basis.analysis_table, np.cos(theta)[:, None] * ht, out=mat.real)
        np.matmul(self.basis.analysis_table, np.sin(theta)[:, None] * ht, out=mat.imag)
        mat *= self.half_phase[:, None]
        mat *= self.half_phase
        return mat


def energy(basis: HermiteBasis, state: SpectralField) -> float:
    """E = <psi, H psi> + |psi|_L2^2 + 0.5 |psi|_L4^4.

    Invariant of the exact flow for the defocusing equation with u = 0.
    """
    return _energy(basis, state.coeffs, _synthesize(basis, state.coeffs))


def _energy(basis: HermiteBasis, coeffs: np.ndarray, values: np.ndarray) -> float:
    """energy() of the state with the given coefficients and grid values."""
    a2 = np.abs(coeffs) ** 2
    quad_part = float(np.sum(basis.lam * a2) + np.sum(a2))
    return quad_part + 0.5 * float(_quad_sum(basis, np.abs(values) ** 4))


def _record(
    basis: HermiteBasis,
    cfg: SimConfig,
    t: float,
    coeffs: np.ndarray,
    psi0: SpectralField,
) -> TrajectoryRecord:
    state = SpectralField(basis.dim, basis.n_modes, coeffs.copy())
    l2 = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    sob = {s: sobolev_norm(basis, state, s) for s in cfg.sobolev_s}
    free = free_propagate(basis, psi0, t)
    diff = SpectralField(basis.dim, basis.n_modes, coeffs - free.coeffs)
    res = sobolev_norm(basis, diff, cfg.residual_k + cfg.residual_beta)
    values = _synthesize(basis, coeffs)
    linf = lp_norm(basis, GridField(basis.dim, values), np.inf)
    return TrajectoryRecord(t, state, l2, _energy(basis, coeffs, values), sob, res, linf)


def _check_h1(basis: HermiteBasis, coeffs: np.ndarray, t: float) -> None:
    """The divergence guard: raise SimulationDiverged once the H1 norm passes the limit or is NaN."""
    h1sq = np.vdot(coeffs, basis.lam * coeffs).real
    if not h1sq <= H1_DIVERGENCE_LIMIT**2:
        raise SimulationDiverged(t, float(np.sqrt(h1sq)))


def _snap_records(cfg: SimConfig) -> tuple[int, float, dict]:
    """(n_steps, dt, record steps): the step grid of cfg and its record times snapped onto it."""
    n_steps = max(1, int(round(cfg.t_final / cfg.dt)))
    dt = cfg.t_final / n_steps
    times = cfg.record_times if cfg.record_times else (0.0, cfg.t_final)
    idx = {}
    for t in times:
        j = int(round(t / dt))
        idx[min(max(j, 0), n_steps)] = True
    return n_steps, dt, idx


def simulate(basis: HermiteBasis, cfg: SimConfig) -> Trajectory:
    """March the state from 0 to t_final, recording diagnostics.

    Record times snap to the nearest integrator step.  Deterministic for a
    given config (the only randomness is the seeded initial state).
    Raises SimulationDiverged when the H1 norm passes the guard, and
    ConfigError when the basis, potential or control does not fit cfg.

    A Strang step is _StrangStepper.step, except in a linear (sigma = 0)
    1D run: there a run of at least n_modes // 2 steps with equal control
    integrals (a piece of a piecewise-constant or zero control) builds its
    N x N step matrix once and advances by one matvec per step, which
    gives the per-step result to roundoff.  The divergence guard and the
    records run after every step either way.
    """
    cfg.validate(basis)
    psi0 = make_initial_state(basis, cfg.initial_state)
    n_steps, dt, record_at = _snap_records(cfg)
    records = []

    if cfg.integrator == "picard":
        return _simulate_picard(basis, cfg, psi0, n_steps, dt, record_at)

    stepper = _StrangStepper(basis, cfg, dt)
    edges = np.arange(n_steps + 1) * dt
    u_ints = cfg.control.integral(edges[:-1], edges[1:])
    if 0 in record_at:
        records.append(_record(basis, cfg, 0.0, psi0.coeffs, psi0))
    for j, c in stepper.march(psi0.coeffs, u_ints):
        _check_h1(basis, c, j * dt)
        if j in record_at:
            records.append(_record(basis, cfg, j * dt, c, psi0))
    return Trajectory(cfg, dt, psi0, records)


@dataclass(frozen=True)
class PicardResult:
    """Fixed point of the integral map plus contraction diagnostics."""

    state: SpectralField
    n_iter: int
    distances: tuple
    ratios: tuple


def picard_solve(
    basis: HermiteBasis,
    cfg: SimConfig,
    t_final: float,
    psi0: SpectralField | None = None,
    t_offset: float = 0.0,
) -> PicardResult:
    """Iterate the integral form of the equation to its fixed point.

    psi(t) = e^{itH} psi0
             - i int_0^t u(s) e^{i(t-s)H} (K psi)(s) ds
             + i sigma int_0^t e^{i(t-s)H} (|psi|^2 psi)(s) ds

    on a uniform s-grid of spacing cfg.dt, integrals by the composite
    trapezoid rule, seeded with the free evolution.  t_final must be small
    enough for the map to contract; callers restart in windows otherwise.
    Successive iterates are compared in the sup-over-time L2 distance.
    """
    cfg.validate(basis)
    if psi0 is None:
        psi0 = make_initial_state(basis, cfg.initial_state)
    n = max(1, int(round(t_final / cfg.dt)))
    h = t_final / n
    ts = np.arange(n + 1) * h
    phases = np.exp(1j * np.multiply.outer(ts, basis.lam))
    free = phases * psi0.coeffs
    u_vals = cfg.control(t_offset + ts)
    k_grid = cfg.potential.grid_values
    gshape = (-1,) + (1,) * basis.dim

    psi = free.copy()
    dists, ratios = [], []
    for it in range(cfg.picard_max_iter):
        grids = _synthesize(basis, psi)
        f = (
            -1j * u_vals.reshape(gshape) * k_grid * grids
            + 1j * cfg.sigma * np.abs(grids) ** 2 * grids
        )
        fc = _analyze(basis, f) * np.conj(phases)
        integral = np.zeros_like(fc)
        integral[1:] = np.cumsum(0.5 * h * (fc[:-1] + fc[1:]), axis=0)
        new = free + phases * integral
        dist = float(np.max(np.sqrt(np.sum(np.abs(new - psi) ** 2, axis=tuple(range(1, basis.dim + 1))))))
        if dists and dists[-1] > 0.0:
            ratios.append(dist / dists[-1])
        dists.append(dist)
        psi = new
        if dist <= cfg.picard_tol:
            state = SpectralField(basis.dim, basis.n_modes, psi[-1].copy())
            return PicardResult(state, it + 1, tuple(dists), tuple(ratios))
    raise PicardDidNotConverge(cfg.picard_max_iter, ratios[-1] if ratios else np.inf)


def _simulate_picard(basis, cfg, psi0, n_steps, dt, record_at) -> Trajectory:
    """Windowed fixed-point marching used by simulate(integrator='picard');
    the divergence guard runs after every window."""
    window_steps = max(1, int(round(cfg.picard_window / dt)))
    records = []
    c = psi0.coeffs.copy()
    if 0 in record_at:
        records.append(_record(basis, cfg, 0.0, c, psi0))
    boundaries = sorted(j for j in record_at if j > 0)
    j0 = 0
    for j1 in boundaries + ([n_steps] if n_steps not in boundaries else []):
        while j0 < j1:
            jn = min(j0 + window_steps, j1)
            span = (jn - j0) * dt
            start = SpectralField(basis.dim, basis.n_modes, c)
            res = picard_solve(basis, cfg, span, psi0=start, t_offset=j0 * dt)
            c = res.state.coeffs
            j0 = jn
            _check_h1(basis, c, j0 * dt)
        if j1 in record_at:
            records.append(_record(basis, cfg, j1 * dt, c, psi0))
    return Trajectory(cfg, dt, psi0, records)

