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

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Optional

import numpy as np

from .controls import ControlSignal, PotentialSpec
from .hermite import (
    ConfigError,
    GridField,
    HermiteBasis,
    SpectralField,
    _analysis_gemms,
    _check_fit,
    _GridPlanes,
    _level_exp,
    _Plan,
    _quad_sum,
    _run,
    _synthesis_gemms,
    _to_complex,
    _to_planes,
    basis_state,
    spectral_field,
)
from .operators import _check_beta, free_propagate, sobolev_norm

H1_DIVERGENCE_LIMIT = 1.0e6

# The most steps a run may take: a dt that asks for more is refused before any array over
# the step grid is made.  Each such array holds a few numbers per step (80 MB per float at
# the bound), and a 1D N = 32 Strang step takes about 10 us, so a run at the bound takes minutes.
MAX_STEPS = 10**7

# The most values a Picard window may hold: its time nodes (window / dt + 1) times N^d
# coefficients, or times M^d grid points when the solve makes transforms (2D, 3D or sigma != 0).
# A solve keeps six complex arrays over the nodes' coefficients (96 B a mode) and, with
# transforms, one real plane array over the grid (16 B a grid point), or two above quad_factor 2
# in 1D and in 2D and 3D, with the GEMMs' intermediates there, and a few numbers per node: a
# tracemalloc peak of 65-99 B a value in 1D-3D at N >= 6 and 140 B at 1D N = 2, so at most
# 560 MiB at the bound.  perfbench's largest window (batched-1d: 1001 nodes of 128 grid points)
# holds about 2^17.
MAX_WINDOW_VALUES = 2**22

# The most coefficients the records of a run may keep: its snapped record count times N^d.  A
# record keeps a copy of the state, 16 B a mode, so the records hold at most 256 MiB at the bound
# (4096 records in 3D N = 16, 2^19 in 1D N = 32); the example configs keep at most 11 of 32 modes.
MAX_RECORD_VALUES = 2**24

# How far a record time may lie past t_final.  A Picard window may end past the control
# by this times max(1, duration), which covers the roundoff in simulate's window ends.
_TIME_SLACK = 1e-12


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
        for name in ("t_final", "dt", "picard_tol", "picard_window"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        n_steps = _step_count(self.t_final, self.dt)
        if self.integrator not in ("strang", "picard"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.integrator == "picard":
            window = _step_count(min(self.picard_window, self.t_final), self.dt)
            _check_window(self, window, f"picard_window = {self.picard_window}")
        for t in self.record_times:
            if not 0.0 <= t <= self.t_final + _TIME_SLACK:
                raise ConfigError(f"record_times entry {t} outside [0, {self.t_final}]")
        if min(max(len(self.record_times), 2), n_steps + 1) * self.n_modes**self.dim > MAX_RECORD_VALUES:
            _check_records(self, len(_snap_records(self)[2]))  # snap only then
        if not all(math.isfinite(s) and s >= 0 for s in self.sobolev_s):
            raise ConfigError(f"sobolev_s orders must be finite and >= 0, got {self.sobolev_s}")
        if self.residual_k < 0:
            raise ConfigError(f"residual_k must be >= 0, got {self.residual_k}")
        _check_beta(self.residual_beta, "residual_beta")
        if self.picard_max_iter < 1:
            raise ConfigError(f"picard_max_iter must be >= 1, got {self.picard_max_iter}")
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


def _check_window(cfg: SimConfig, n_steps: int, name: str) -> None:
    """ConfigError naming name and dt unless a Picard window of n_steps steps of cfg fits MAX_WINDOW_VALUES."""
    per_node = (cfg.quad_factor * cfg.n_modes if cfg.sigma or cfg.dim != 1 else cfg.n_modes) ** cfg.dim
    if (n_steps + 1) * per_node > MAX_WINDOW_VALUES:
        raise ConfigError(
            f"{name} with dt = {cfg.dt} makes a Picard window of {n_steps + 1} time nodes of {per_node} "
            f"values, more than MAX_WINDOW_VALUES = {MAX_WINDOW_VALUES}"
        )


def _check_records(cfg: SimConfig, n_records: int) -> None:
    """ConfigError naming the record keys unless n_records records of cfg fit MAX_RECORD_VALUES."""
    per_record = cfg.n_modes**cfg.dim
    if n_records * per_record > MAX_RECORD_VALUES:
        raise ConfigError(
            f"record_times (n_records) snap to {n_records} records of {per_record} coefficients, "
            f"more than MAX_RECORD_VALUES = {MAX_RECORD_VALUES}"
        )


def _even_records(cfg: SimConfig, n_records: int) -> SimConfig:
    """cfg recording at the steps that max(n_records, 2) evenly spaced times over [0, t_final] snap to.

    Evenly spaced n >= 2 times snap to exactly min(n, n_steps + 1) steps, every step once n passes
    n_steps + 1, so the record bound is checked on that count before any time is made, and only
    that many times are made.  cfg must be validated.
    """
    n = min(max(n_records, 2), _step_count(cfg.t_final, cfg.dt) + 1)
    _check_records(cfg, n)
    return replace(cfg, record_times=tuple(np.linspace(0.0, cfg.t_final, n)))


def make_initial_state(basis: HermiteBasis, spec: InitialState) -> SpectralField:
    """Realize a named initial state as a unit-L2 coefficient array."""
    if spec.kind == "eigenstate":
        return basis_state(basis, spec.mode)
    if spec.kind == "coherent":
        alpha = complex(spec.displacement)
        k = np.arange(basis.n_modes)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
        log_mag = k * np.log(np.abs(alpha) + 1e-300) - 0.5 * log_fact  # max (0 if |alpha| <= 1) taken out before exp
        axis = np.exp(log_mag - log_mag.max()) * np.exp(1j * k * np.angle(alpha))
        c = reduce(np.multiply.outer, [axis] * basis.dim)
    else:  # random_decay
        rng = np.random.default_rng(spec.seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=basis.lam.shape)
        with np.errstate(over="ignore", under="ignore"):
            c = basis.lam ** -(spec.decay + 0.5) * np.exp(1j * theta)
            if not 0.0 < np.sum(np.abs(c) ** 2) < np.inf:
                raise ConfigError(f"decay = {spec.decay} gives weights lam^-(decay + 0.5) that cannot be normalized")
    return spectral_field(basis, c / np.sqrt(np.sum(np.abs(c) ** 2)))


def grid_nonlinear_phase(
    values: GridField, sigma: int, k_values: np.ndarray, u_integral: float, dt: float
) -> GridField:
    """Exact flow of the pointwise phase equation over one step.

    values -> exp(-i (K * U - sigma |values|^2 * dt)) * values, with
    U the integral of u over the step.  Moduli are unchanged to roundoff.
    k_values must have the shape of the grid values, sigma be -1, 0 or 1,
    and u_integral and dt be finite; ConfigError otherwise.
    """
    if np.shape(k_values) != values.values.shape:
        raise ConfigError(f"k_values shape {np.shape(k_values)} does not match the grid values {values.values.shape}")
    if sigma not in (-1, 0, 1):
        raise ConfigError(f"sigma must be -1, 0 or 1, got {sigma}")
    for name, value in (("u_integral", u_integral), ("dt", dt)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    planes = _to_planes(values.values)
    _phase_kernel(_GridPlanes(planes, values.dim), sigma, np.asarray(k_values, float), u_integral, dt)
    return GridField(values.dim, _to_complex(planes))


# The rotation takes cos and sin of the phase from their Taylor polynomials
# when the phase is at most _POLY_THETA_MAX in size, where they are within
# 1 ulp of np.cos and np.sin, and the grid has at least _POLY_MIN_POINTS
# points.  With one BLAS thread on a 2-vCPU host, np.cos and np.sin
# together took 11 ns a point, the polynomials and the guard's two
# reductions 5 ns a point at 32768 points, and the extra calls paid for
# themselves from about 2048 points on.
_POLY_THETA_MAX = 1.0 / 32
_POLY_MIN_POINTS = 4096
_COS_TAYLOR = (1.0, -1.0 / 2, 1.0 / 24, -1.0 / 720, 1.0 / 40320)
_SIN_TAYLOR = (-1.0 / 6, 1.0 / 120, -1.0 / 5040)


def _cos_sin(theta: np.ndarray, n_points: int, cos: np.ndarray, sin: np.ndarray, theta2: Optional[np.ndarray] = None):
    """Write cos theta and sin theta into cos and sin; see _POLY_THETA_MAX.  The
    polynomials write theta^2 into theta2 (a new array if None)."""
    if n_points < _POLY_MIN_POINTS or not max(theta.max(), -theta.min()) <= _POLY_THETA_MAX:
        np.cos(theta, out=cos)
        np.sin(theta, out=sin)
        return
    z = np.square(theta, out=theta2)
    c0, c2, c4, c6, c8 = _COS_TAYLOR
    np.multiply(z, c8, out=cos)
    for c in (c6, c4, c2):
        cos += c
        cos *= z
    cos += c0
    # sin = theta + theta z (s3 + z (s5 + z s7)): the last add rounds once
    s3, s5, s7 = _SIN_TAYLOR
    np.multiply(z, s7, out=sin)
    sin += s5
    sin *= z
    sin += s3
    sin *= z
    sin *= theta
    sin += theta


def _phase_kernel(g: _GridPlanes, sigma: int, k_values: np.ndarray, u_int, dt: float) -> np.ndarray:
    """Rotate g.planes in place by theta = K u_int - sigma |v|^2 dt and return them.

    The planes have shape batch + (2,) + grid and k_values the grid's shape;
    u_int is a number or holds one integral per member, shaped as the
    batch.  The rotation is v -> exp(-i theta) v, written with g's work
    arrays.  1D planes, which _synthesize stores as interleaved complex
    values (g.values), are multiplied by exp(-i theta) as complex numbers;
    2D and 3D planes take (re cos theta + im sin theta, im cos theta - re
    sin theta).  That takes four real passes where the complex multiply
    takes one, which costs a 1D step, whose grid has too few points to
    share the cost of the calls.
    """
    m = k_values.size
    theta, theta2, cos, sin, rot = g.rotation
    if g.values is not None:
        v = g.values
        k = k_values.reshape((m,) + (1,) * (v.ndim - 1))
        # -theta, whose cos and sin are the parts of exp(-i theta)
        theta = np.multiply(k, -u_int, out=theta)
        if sigma:
            mod2 = np.abs(v, out=g.sq[0])
            np.square(mod2, out=mod2)
            np.multiply(mod2, sigma * dt, out=mod2)  # equals (sigma |v|^2) dt bit for bit at sigma = +-1
            np.add(theta, mod2, out=theta)
        _cos_sin(theta, m, cos, sin, theta2)
        np.multiply(v, rot, out=v)
        return g.planes
    u = np.reshape(u_int, np.shape(u_int) + (1, 1))
    theta = np.multiply(k_values.reshape(-1), u, out=theta)
    if sigma:
        mod2 = g.abs2()
        np.multiply(mod2, sigma * dt, out=mod2)
        np.subtract(theta, mod2, out=theta)
    _cos_sin(theta, m, cos, sin, theta2)
    re, im = g.re, g.im  # per plane: numpy buffers a broadcast over both planes
    re_sin, im_sin = g.sq
    np.multiply(im, sin, out=im_sin)
    im *= cos
    im -= np.multiply(re, sin, out=re_sin)
    re *= cos
    re += im_sin
    return g.planes


# Step integrals this close, relative to the first of a run, give one step map.
_SAME_INTEGRAL_RTOL = 1e-12


class _StrangStepper:
    """Precomputed tables for repeated steps of fixed size."""

    def __init__(self, basis: HermiteBasis, cfg: SimConfig, dt: float):
        self.basis = basis
        self.cfg = cfg
        self.dt = dt
        self.half_phase = _level_exp(basis, 0.5j * dt)
        self.k_values = cfg.potential.grid_values
        # Every step of one batch width, and every record of simulate, reuses
        # the plan's arrays.  2D and 3D grids pass glibc's 128 KB mmap
        # threshold, and allocating them afresh made a 3D N = 16 cubic step
        # about 1.5x slower.
        self._bind(())

    def _bind(self, batch: tuple) -> None:
        """Bind a plan for coefficients with trailing batch axes batch."""
        self.plan = _Plan(self.basis, batch)
        self._half = self.half_phase.reshape(self.half_phase.shape + (1,) * len(batch))

    def step(self, coeffs: np.ndarray, u_int) -> np.ndarray:
        """One step over which the control integrates to u_int.  coeffs may
        carry a trailing member axis, and u_int then holds one integral per
        member; a new member count binds a new plan."""
        if coeffs.shape != self.plan.c.shape:
            self._bind(coeffs.shape[self.basis.dim :])
        plan, half = self.plan, self._half
        np.multiply(half, coeffs, out=plan.c)
        _run(plan.synthesis)
        _phase_kernel(plan, self.cfg.sigma, self.k_values, u_int, self.dt)
        _run(plan.analysis)
        return np.multiply(half, plan.out)

    def _matrix_runs(self, u_ints: np.ndarray) -> list:
        """(start, stop) of the step runs that take a step matrix.

        Only a linear (sigma = 0) 1D run has them: at least n_modes // 2
        consecutive steps whose integrals agree with the run's first to
        _SAME_INTEGRAL_RTOL, so that the matvecs pay for building the matrix;
        at least n_modes where the transforms fold, since a folded step()
        costs less.  With one BLAS thread on a 2-vCPU host the matrix paid for
        itself against step() after 50-110 steps at N = 128-512 unfolded, and
        against a folded step() after 76, 209, 328, 538, 789 and 892 steps at
        N = 160, 192, 256, 320, 512 and 896 (207 at N = 1024).
        """
        if self.cfg.sigma or self.basis.dim != 1:
            return []
        n_min = self.basis.n_modes if self.basis._halves else self.basis.n_modes // 2
        jumps = np.abs(np.diff(u_ints)) > _SAME_INTEGRAL_RTOL * np.abs(u_ints[:-1])
        cuts = [0, *(np.flatnonzero(jumps) + 1), len(u_ints)]
        return [
            (a, b)
            for a, b in zip(cuts[:-1], cuts[1:])
            if b - a >= n_min
            and np.all(np.abs(u_ints[a:b] - u_ints[a]) <= _SAME_INTEGRAL_RTOL * abs(u_ints[a]))
        ]

    def _step_matrix(self, u_int: float) -> np.ndarray:
        """The 1D linear step for integral u_int as an (N, N) matrix, half-phases folded in.

        The multiplier matrix of exp(-i K u_int) as two real GEMMs written
        into the real and imaginary parts of one complex array.
        """
        theta = -self.k_values * u_int
        mat = np.empty((self.basis.n_modes,) * 2, dtype=complex)
        _multiplier_matrix(self.basis, np.cos(theta), out=mat.real)
        _multiplier_matrix(self.basis, np.sin(theta), out=mat.imag)
        mat *= self.half_phase[:, None]
        mat *= self.half_phase
        return mat


def _multiplier_matrix(basis: HermiteBasis, g: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """analysis_table diag(g) herm_table.T: the (N, N) matrix that acts on 1D
    coefficients as synthesis, multiplication by the real grid values g,
    then analysis."""
    return np.matmul(basis.analysis_table, g[:, None] * basis.herm_table.T, out=out)


def energy(basis: HermiteBasis, state: SpectralField) -> float:
    """E = <psi, H psi> + |psi|_L2^2 + 0.5 |psi|_L4^4.

    Invariant of the exact flow for the defocusing equation with u = 0.
    """
    _check_fit(basis, state, "state")
    return _energy(basis, state.coeffs, _grid_abs2(_Plan(basis), state.coeffs))


def _grid_abs2(plan: _Plan, coeffs: np.ndarray) -> np.ndarray:
    """|v|^2 = re^2 + im^2 at the grid points of the state with coefficients coeffs.

    The plan has no batch axes; the result is the first of plan.sq.
    """
    np.copyto(plan.c, coeffs)
    _run(plan.synthesis)
    return plan.abs2()


def _energy(basis: HermiteBasis, coeffs: np.ndarray, mod2: np.ndarray) -> float:
    """energy() of the state with the given coefficients and _grid_abs2; squares mod2 in place."""
    a2 = np.abs(coeffs) ** 2
    quad_part = float(np.sum(basis.lam * a2) + np.sum(a2))
    quartic = np.square(mod2, out=mod2).reshape((basis.n_nodes,) * basis.dim)
    return quad_part + 0.5 * float(_quad_sum(basis, quartic))


def _record(
    basis: HermiteBasis, cfg: SimConfig, t: float, coeffs: np.ndarray, psi0: SpectralField, plan: _Plan
) -> TrajectoryRecord:
    """The diagnostics of the state coeffs at time t; its grid arrays are those of plan (no batch axes)."""
    state = SpectralField(basis.dim, basis.n_modes, coeffs.copy())
    l2 = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    sob = {s: sobolev_norm(basis, state, s) for s in cfg.sobolev_s}
    diff = SpectralField(basis.dim, basis.n_modes, coeffs - free_propagate(basis, psi0, t).coeffs)
    res = sobolev_norm(basis, diff, cfg.residual_k + cfg.residual_beta)
    mod2 = _grid_abs2(plan, coeffs)
    linf = math.sqrt(mod2.max())
    return TrajectoryRecord(t, state, l2, _energy(basis, coeffs, mod2), sob, res, linf)


def _guard_can_trip(basis: HermiteBasis, k_values: np.ndarray, coeffs: np.ndarray, u_ints: np.ndarray) -> bool:
    """Whether _march's H1 bound may pass the limit on a Strang march from coeffs under step integrals u_ints."""
    # the limit is halved for roundoff: a 1D step() grows a norm by at most 2e-15 (N = 32 to 1024,
    # folded from N = 160) and a step matrix by 3e-13 (N <= 1024); (1 + 1e-8)^MAX_STEPS < 2
    norm2 = np.max(np.sum(np.abs(coeffs.reshape(basis.lam.size, -1)) ** 2, axis=0))  # inf/NaN for a non-finite start
    phases = math.isfinite(float(np.abs(k_values).max()) * float(np.abs(u_ints).max()))  # sigma |v|^2 dt is bounded
    return not (phases and math.sqrt(basis.lam.max() * norm2) <= H1_DIVERGENCE_LIMIT / 2)


def _check_h1(basis: HermiteBasis, coeffs: np.ndarray, t: float) -> None:
    """The divergence guard: raise SimulationDiverged once the H1 norm passes the limit or is NaN.

    coeffs may carry a trailing member axis; the first member over the limit is reported.  One
    GEMV over the squared real and imaginary parts, then one sum per member, gives their norms."""
    parts = basis.lam.reshape(-1) @ np.square(coeffs.reshape(basis.lam.size, -1).view(float))
    h1sq = parts[0::2] + parts[1::2]
    if not h1sq.max() <= H1_DIVERGENCE_LIMIT**2:
        first = np.flatnonzero(~(h1sq <= H1_DIVERGENCE_LIMIT**2))[0]
        raise SimulationDiverged(t, float(np.sqrt(h1sq[first])))


def _step_count(t: float, dt: float) -> int:
    """max(1, round(t / dt)), the steps of about dt over [0, t]; ConfigError naming dt past MAX_STEPS."""
    ratio = t / dt
    if ratio > MAX_STEPS + 0.5:  # round(ratio) > MAX_STEPS, or ratio overflowed to inf
        raise ConfigError(f"dt = {dt} makes {ratio:.3g} steps over t = {t}, more than MAX_STEPS = {MAX_STEPS}")
    return max(1, int(round(ratio)))


def _snap_records(cfg: SimConfig) -> tuple[int, float, dict]:
    """(n_steps, dt, record steps): the step grid of cfg and its record times snapped onto it."""
    n_steps = _step_count(cfg.t_final, cfg.dt)
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
    Raises SimulationDiverged when the H1 norm passes the guard, checked per Strang step only
    if H1 <= sqrt(max lam) |psi0| may pass it, and ConfigError when the basis, potential or
    control does not fit cfg.  The state is the one member of _march, which picks the kernels.
    """
    cfg.validate(basis)
    psi0 = make_initial_state(basis, cfg.initial_state)
    n_steps, dt, record_at = _snap_records(cfg)
    stepper, records = _StrangStepper(basis, cfg, dt), []
    for j, _, c in _march(stepper, psi0.coeffs[..., None], [cfg.control], [n_steps], record_at):
        if j in record_at:
            records.append(_record(basis, cfg, j * dt, c, psi0, stepper.plan))
        del c  # a state held until the next record pinned the heap: 2D/3D peak RSS rose 2 MB
    return Trajectory(cfg, dt, psi0, records)


def _march_members(
    basis: HermiteBasis, cfg: SimConfig, coeffs: np.ndarray, controls: list, stops, dt: float
) -> np.ndarray:
    """Final states of the runs of _march, one member per trailing column of coeffs."""
    finals = np.array(coeffs, dtype=complex)
    for _, b, c in _march(_StrangStepper(basis, cfg, dt), coeffs, controls, stops):
        finals[..., b] = c
    return finals


def _march(stepper: _StrangStepper, coeffs: np.ndarray, controls: list, stops, at=()):
    """Yield (j, b, state after step j) as member b of a batch of runs of stepper.cfg reaches step j.

    Member b starts from coeffs[..., b], is driven by controls[b] and stops
    after stops[b] steps of stepper.dt.  It yields at every step of at that
    it reaches, at its stop, and its start when 0 is in at.

    A member runs alone under the Picard integrator, by fixed-point windows of at most
    picard_window that end at every step it yields.  A Strang member runs alone, by matvecs on
    the runs of _matrix_runs and step() elsewhere, when it is the only member (so simulate takes
    these kernels) and when step matrices would take at least half of its steps, since a matvec
    costs less than its share of a batched step.  Every other member advances in one batch, one
    step() per time step, and leaves it at its stop.

    The divergence guard checks a Picard member after every window.  A Strang step is finite
    unit-modulus phases around P e^{-i theta} S, S an isometry onto the Gauss grid (its M >= N
    nodes integrate each h_j h_k exactly) and P its adjoint, so no step grows the L2 norm and
    H1 <= sqrt(max lam) max_b |c_b| over a march from states c_b: a lone Strang member, or the
    batch, is checked per step only if _guard_can_trip finds this may pass the limit.  Members
    running alone go first, in order; in the batch, the first report comes at the earliest step
    a member trips, from the lowest-numbered member tripping then, at the t its own run reports.
    """
    basis, cfg, dt = stepper.basis, stepper.cfg, stepper.dt
    stops = np.asarray(stops, dtype=int)
    edges = np.arange(stops.max() + 1) * dt
    batch, batch_u = [], []
    for b, stop in enumerate(stops.tolist()):
        c = np.ascontiguousarray(coeffs[..., b])
        if 0 in at:
            yield 0, b, c
        if not stop:
            continue
        if cfg.integrator == "picard":
            member_cfg, j = replace(cfg, control=controls[b]), 0
            width = max(1, int(round(min(cfg.picard_window / dt, stop))))
            for end in sorted({k for k in at if 0 < k < stop} | {stop}):
                while j < end:
                    jn = min(j + width, end)
                    start = SpectralField(basis.dim, basis.n_modes, c)
                    c = picard_solve(basis, member_cfg, (jn - j) * dt, psi0=start, t_offset=j * dt).state.coeffs
                    j = jn
                    _check_h1(basis, c, j * dt)
                yield end, b, c
            continue
        u = controls[b].integral(edges[:-1], edges[1:])
        runs = dict(stepper._matrix_runs(u[:stop]))
        if len(stops) > 1 and 2 * sum(hi - lo for lo, hi in runs.items()) < stop:
            batch.append(b)
            batch_u.append(u)
            continue
        guard, end, mat = _guard_can_trip(basis, stepper.k_values, c, u[:stop]), 0, None
        for j, u_j in enumerate(u[:stop], 1):
            if j - 1 in runs:
                end, mat = runs[j - 1], stepper._step_matrix(u_j)
            c = mat @ c if j <= end else stepper.step(c, u_j)
            if guard:
                _check_h1(basis, c, j * dt)
            if j in at or j == stop:
                yield j, b, c
    if not batch:
        return
    active, u_ints = np.array(batch), np.stack(batch_u, axis=-1)
    c = coeffs[..., active]
    stop_steps = set(stops[active].tolist())
    guard = _guard_can_trip(basis, stepper.k_values, c, u_ints[: max(stop_steps)])
    for j in range(1, max(stop_steps) + 1):
        c = stepper.step(c, u_ints[j - 1])
        if guard:
            _check_h1(basis, c, j * dt)
        if j in stop_steps or j in at:
            done = stops[active] == j
            for i in range(len(active)) if j in at else np.flatnonzero(done):
                yield j, active[i], c[..., i]
            keep = ~done
            active, c, u_ints = active[keep], c[..., keep], u_ints[:, keep]


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

    on a uniform s-grid of spacing cfg.dt, seeded with the free evolution.
    The iterate is the interaction-picture coefficient w(t) = e^{-itH} psi(t),
    for which the map reads w(t) = psi0 + the same integrals with e^{-isH}
    in place of e^{i(t-s)H}; each iteration forms psi = e^{itH} w once.
    Panel j of the potential integral is (U_j / 2)(F_j + F_{j+1}), with U_j
    the control's exact integral over the panel, as a Strang step takes it,
    so a jump of a piecewise-constant control costs no order.  The cubic
    integral is the composite trapezoid rule.  In 1D the potential term is
    one real GEMM of the (N, N) multiplier matrix of K on the coefficients,
    so a linear 1D solve makes no transform; in 2D and 3D that matrix would
    be N^d x N^d, and the term is formed on the grid.

    t_final must be small enough for the map to contract; callers restart
    in windows otherwise.  distances holds the sup-over-time L2 distance of
    successive iterates w, which is that of the iterates psi to roundoff,
    since e^{itH} is unitary.  The window [t_offset, t_offset + t_final]
    must lie inside the control's duration; ConfigError otherwise.
    """
    cfg.validate(basis)
    end, duration = t_offset + t_final, cfg.control.duration
    if not (math.isfinite(end) and t_final > 0 and t_offset >= 0):
        raise ConfigError(f"picard_solve needs finite t_final > 0 and t_offset >= 0, got {t_final}, {t_offset}")
    if end > duration + _TIME_SLACK * max(1.0, duration):
        raise ConfigError(f"picard_solve window [{t_offset}, {end}] ends past the control duration {duration}")
    if psi0 is None:
        psi0 = make_initial_state(basis, cfg.initial_state)
    _check_fit(basis, psi0, "psi0")
    n = _step_count(t_final, cfg.dt)
    _check_window(cfg, n, f"picard_solve's t_final = {t_final}")
    h = t_final / n
    ts = np.arange(n + 1) * h
    shape = basis.lam.shape + (n + 1,)
    w, w_new, psi, term, phases, back = (np.empty(shape, complex) for _ in range(6))
    lam_t = np.multiply.outer(basis.lam, ts, out=w.real)
    np.cos(lam_t, out=phases.real)  # e^{i lam t}
    np.sin(lam_t, out=phases.imag)
    # -(i/2) e^{-i lam t}: the integrand's -i and the trapezoid's 1/2
    np.multiply(phases.imag, -0.5, out=back.real)
    np.multiply(phases.real, -0.5, out=back.imag)
    # U_{j-1} at node j; complex, so that its product with coefficients casts nothing
    panel_u = np.zeros(n + 1, complex)
    panel_u[1:] = cfg.control.integral(t_offset + ts[:-1], t_offset + ts[1:])
    k_grid = cfg.potential.grid_values
    k_hat = _multiplier_matrix(basis, k_grid) if basis.dim == 1 else None
    c0 = psi0.coeffs
    w[...] = c0[..., None]
    flat = term.reshape(-1)
    transforms = cfg.sigma or k_hat is None
    if transforms:
        # the synthesis of psi, and the analysis into term of the grid
        # products of psi: K psi (2D, 3D), then the cubic term, formed in
        # the synthesis output in 1D with its squares in psi and term, which
        # are dead then (see _GridPlanes); GEMMs bound once per solve
        synthesis, g = _synthesis_gemms(basis.herm_table, psi, basis.dim, basis._halves[:2])
        grid = _GridPlanes(g, basis.dim, (psi, term))
        analysis, _ = _analysis_gemms(basis.analysis_table, grid.products, basis.dim, basis._halves[2:], term)
    dists, ratios = [], []
    for it in range(cfg.picard_max_iter):
        np.multiply(phases, w, out=psi)
        if transforms:
            _run(synthesis)
        if k_hat is None:
            np.multiply(g, k_grid, out=grid.products)
            _run(analysis)
        else:
            np.matmul(k_hat, psi.view(float), out=term.view(float))
        np.multiply(back, term, out=term)
        # Node j >= 1 of w_new gets the sum over panel j - 1 of its end
        # values, taken on flat views; the sum that straddles two rows lands
        # on node 0 of the later one, which is reset to c0 before the cumsum.
        acc = w_new.reshape(-1)[1:]
        np.add(flat[:-1], flat[1:], out=acc)
        w_new *= panel_u
        if cfg.sigma:
            grid.cubic(-cfg.sigma * h)
            _run(analysis)
            np.multiply(back, term, out=term)
            acc += flat[:-1]
            acc += flat[1:]
        w_new[..., 0] = c0
        np.cumsum(w_new, axis=-1, out=w_new)
        diff = np.subtract(w_new, w, out=psi).view(float)  # psi is formed again from w next time
        np.square(diff, out=diff)
        sums = diff.reshape(basis.lam.size, -1).sum(axis=0)
        dist = float(np.sqrt(np.max(sums[0::2] + sums[1::2])))
        if dists and dists[-1] > 0.0:
            ratios.append(dist / dists[-1])
        dists.append(dist)
        w, w_new = w_new, w
        if dist <= cfg.picard_tol:
            state = SpectralField(basis.dim, basis.n_modes, phases[..., -1] * w[..., -1])
            return PicardResult(state, it + 1, tuple(dists), tuple(ratios))
    raise PicardDidNotConverge(cfg.picard_max_iter, ratios[-1] if ratios else np.inf)
