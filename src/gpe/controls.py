"""Control signals u(t) and control potentials K(x).

Piecewise-constant controls carry exact integrals and Lr norms; sampled
controls are piecewise linear with integrals exact for the interpolant;
a sinusoid perturbation u(t) + A sin(2 pi n t / T) has a closed-form
signed integral and numerically refined absolute integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from .hermite import ConfigError, HermiteBasis

CONTROL_KINDS = ("zero", "piecewise_constant", "sampled", "sinusoid_perturbed")
POTENTIAL_KINDS = ("gaussian_bump", "sech", "polynomial_decay", "constant", "sampled")
# the orders m of PotentialSpec.wkinf_norms; _derivative_sups walks partials up to order 2
NORM_ORDERS = (0, 1, 2)


@dataclass(frozen=True)
class ControlSignal:
    """A real control law on [0, duration].

    Piecewise-constant signals take the value values[floor(t / delta)],
    clamped to the last segment at t = duration.  Sampled signals are the
    linear interpolant of values on a uniform grid.
    """

    kind: str
    duration: float
    values: Optional[np.ndarray] = None
    base: Optional["ControlSignal"] = None
    amplitude: float = 0.0
    n_freq: int = 0

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise ConfigError(f"unknown control kind {self.kind!r}")

    @staticmethod
    def zero(duration: float) -> "ControlSignal":
        return ControlSignal("zero", float(duration))

    @staticmethod
    def piecewise_constant(values, duration: float) -> "ControlSignal":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ConfigError("piecewise_constant values must be a nonempty 1d array")
        _check_finite(v, "piecewise_constant values")
        return ControlSignal("piecewise_constant", float(duration), v)

    @staticmethod
    def sampled(values, duration: float) -> "ControlSignal":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ConfigError("sampled values must be a 1d array of at least two samples")
        _check_finite(v, "sampled values")
        return ControlSignal("sampled", float(duration), v)

    @staticmethod
    def sinusoid_perturbed(
        base: "ControlSignal", amplitude: float, n_freq: int
    ) -> "ControlSignal":
        if n_freq < 1:
            raise ConfigError(f"n_freq must be a positive integer, got {n_freq}")
        _check_finite(amplitude, "sinusoid amplitude")
        return ControlSignal(
            "sinusoid_perturbed",
            base.duration,
            base=base,
            amplitude=float(amplitude),
            n_freq=int(n_freq),
        )

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "piecewise_constant":
            n = self.values.size
            delta = self.duration / n
            idx = np.clip(np.floor(t / delta).astype(int), 0, n - 1)
            return self.values[idx]
        if self.kind == "sampled":
            grid = np.linspace(0.0, self.duration, self.values.size)
            return np.interp(t, grid, self.values)
        # sinusoid_perturbed
        osc = self.amplitude * np.sin(2.0 * np.pi * self.n_freq * t / self.duration)
        return self.base(t) + osc

    def _clamp(self, a, b):
        a = np.clip(a, 0.0, self.duration)
        b = np.clip(b, 0.0, self.duration)
        if np.any(b < a):
            raise ConfigError("integration bounds out of order")
        return a, b

    def integral(self, a, b):
        """Signed integral of u over [a, b]; exact for the signal model.

        a and b may be arrays of interval ends; the bounds clamp to
        [0, duration], so intervals past the end integrate to 0.
        """
        a, b = self._clamp(a, b)
        if self.kind == "zero":
            return 0.0 * (b - a)
        if self.kind == "piecewise_constant":
            return self._pw_antideriv(b, self.values) - self._pw_antideriv(a, self.values)
        if self.kind == "sampled":
            return self._linear_antideriv(b) - self._linear_antideriv(a)
        # sinusoid_perturbed
        w = 2.0 * np.pi * self.n_freq / self.duration
        osc = self.amplitude / w * (np.cos(w * a) - np.cos(w * b))
        return self.base.integral(a, b) + osc

    def abs_integral(self, a: float, b: float) -> float:
        """Integral of |u| over [a, b]."""
        a, b = self._clamp(a, b)
        if self.kind == "zero" or a == b:
            return 0.0
        if self.kind == "piecewise_constant":
            v = np.abs(self.values)
            return float(self._pw_antideriv(b, v) - self._pw_antideriv(a, v))
        if self.kind == "sampled":
            ts, vs = self._panels(a, b)
            total = 0.0
            for i in range(ts.size - 1):
                total += _abs_linear_integral(ts[i], ts[i + 1], vs[i], vs[i + 1])
            return float(total)
        # sinusoid_perturbed
        ts = np.linspace(a, b, max(2049, 64 * self.n_freq + 1))
        return float(np.trapezoid(np.abs(self(ts)), ts))

    def lr_norm(self, r: float) -> float:
        """Lr norm of u on [0, duration]; exact for piecewise-constant u."""
        if r < 1:
            raise ConfigError("lr_norm requires r >= 1")
        if self.kind == "zero":
            return 0.0
        if self.kind == "piecewise_constant":
            delta = self.duration / self.values.size
            return float(np.sum(np.abs(self.values) ** r * delta) ** (1.0 / r))
        if self.kind == "sampled" and r == 1:
            return self.abs_integral(0.0, self.duration)
        if self.kind == "sampled" and r == 2:
            v = self.values
            h = self.duration / (v.size - 1)
            panels = h * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0
            return float(np.sqrt(np.sum(panels)))
        ts = np.linspace(0.0, self.duration, max(4097, 64 * max(1, self.n_freq) + 1))
        return float(np.trapezoid(np.abs(self(ts)) ** r, ts) ** (1.0 / r))

    def _pw_antideriv(self, t, v):
        """Antiderivative from 0 of the step function with segment values v, for t in [0, duration]."""
        delta = self.duration / v.size
        j = np.minimum(np.floor(t / delta).astype(int), v.size - 1)
        prefix = np.concatenate(([0.0], np.cumsum(v)))
        return delta * prefix[j] + v[j] * (t - j * delta)

    def _linear_antideriv(self, t):
        """Antiderivative from 0 of the sampled interpolant, for t in [0, duration]."""
        v = self.values
        h = self.duration / (v.size - 1)
        j = np.minimum(np.floor(t / h).astype(int), v.size - 2)
        prefix = np.concatenate(([0.0], np.cumsum(0.5 * h * (v[:-1] + v[1:]))))
        s = t - j * h
        return prefix[j] + s * (v[j] + 0.5 * s * (v[j + 1] - v[j]) / h)

    def _panels(self, a: float, b: float):
        grid = np.linspace(0.0, self.duration, self.values.size)
        inner = grid[(grid > a) & (grid < b)]
        ts = np.concatenate(([a], inner, [b]))
        return ts, self(ts)


def _check_finite(v, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{what}: NaN or Inf")


def _abs_linear_integral(t0: float, t1: float, v0: float, v1: float) -> float:
    """Exact integral of |linear interpolant| over [t0, t1]."""
    if v0 * v1 >= 0.0:
        return 0.5 * (abs(v0) + abs(v1)) * (t1 - t0)
    tc = t0 + (t1 - t0) * abs(v0) / (abs(v0) + abs(v1))
    return 0.5 * (abs(v0) * (tc - t0) + abs(v1) * (t1 - tc))


@dataclass(frozen=True)
class PotentialSpec:
    """A real control potential sampled on the quadrature grid.

    grad_sup and wkinf_norms are finite-difference estimates, computed on
    first read and then kept: one walk over the partials on an oversampled
    estimation grid (the basis nodes for a sampled potential) yields both.
    wkinf_norms[m], for m in NORM_ORDERS, is the proxy norm
    max_{j <= m} sup_x <x>^(m-j) |D^j K(x)| over all order-j partials,
    which is the multiplier-norm equivalent used consistently throughout
    the package (calibrated constants refer to this same proxy).
    """

    kind: str
    amplitude: float
    width: float
    center: np.ndarray
    grid_values: np.ndarray
    nodes: np.ndarray

    @property
    def grad_sup(self) -> float:
        """sup_x |grad K(x)|."""
        return self._estimates[0]

    @property
    def wkinf_norms(self) -> dict:
        """{m: proxy W^{m,inf} norm} for m in NORM_ORDERS."""
        return self._estimates[1]

    @cached_property
    def _estimates(self) -> tuple[float, dict]:
        d = self.center.size
        if self.kind == "sampled":
            return _derivative_sups(self.grid_values, [self.nodes] * d)
        x_max = float(np.max(np.abs(self.nodes)))
        g = np.linspace(-x_max, x_max, {1: min(4 * self.nodes.size, 2048), 2: 192, 3: 96}[d])
        r2 = reduce(np.add.outer, [(g - c) ** 2 for c in self.center])
        vals = _radial_profile(self.kind, self.amplitude, self.width)(r2)
        return _derivative_sups(vals, [g] * d, flat=self.kind == "constant")


def _radial_profile(kind: str, amplitude: float, width: float):
    if kind == "gaussian_bump":
        return lambda r2: amplitude * np.exp(-r2 / (2.0 * width**2))
    if kind == "sech":
        return lambda r2: amplitude / np.cosh(np.sqrt(r2) / width)
    if kind == "polynomial_decay":
        return lambda r2: amplitude / (1.0 + r2 / width**2)
    if kind == "constant":
        return lambda r2: amplitude * np.ones_like(np.asarray(r2, dtype=float))
    raise ConfigError(f"unknown potential kind {kind!r}")


def _derivative_sups(vals: np.ndarray, coords: list[np.ndarray], flat: bool = False):
    """(sup |grad vals|, {m: proxy norm}) from the np.gradient partials.

    Each partial is folded into the running sups and the running |grad|^2
    as soon as it is made and dropped after, so only a few grid arrays are
    alive at once.  flat marks a constant, whose partials are exactly zero.
    """
    bracket = np.sqrt(1.0 + reduce(np.add.outer, [c**2 for c in coords]))
    sups = dict.fromkeys(NORM_ORDERS, 0.0)

    def fold(partial, j):
        mag = np.abs(partial)
        for m in NORM_ORDERS[j:]:
            sups[m] = max(sups[m], float(np.max(bracket ** (m - j) * mag)))

    fold(vals, 0)
    if flat:
        return 0.0, sups
    grad_sq = 0
    for ax, c in enumerate(coords):
        first = np.gradient(vals, c, axis=ax)
        fold(first, 1)
        grad_sq = grad_sq + first**2
        for ax2, c2 in enumerate(coords):
            fold(np.gradient(first, c2, axis=ax2), 2)
    return float(np.max(np.sqrt(grad_sq))), sups


def make_potential(
    basis: HermiteBasis,
    kind: str,
    amplitude: float = 1.0,
    width: float = 1.0,
    center=0.0,
    values=None,
) -> PotentialSpec:
    """Build a potential on the basis grid; its derivative norms wait for their first read."""
    if kind not in POTENTIAL_KINDS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    amplitude, width = float(amplitude), float(width)
    _check_finite(amplitude, "amplitude")
    if not (np.isfinite(width) and width > 0.0):
        raise ConfigError(f"width must be finite and > 0, got {width}")
    d = basis.dim
    ctr = np.full(d, float(center)) if np.isscalar(center) else np.asarray(center, float)
    if ctr.shape != (d,):
        raise ConfigError(f"center must be a scalar or length-{d} sequence")
    _check_finite(ctr, "center")

    if kind == "sampled":
        if values is None:
            raise ConfigError("sampled potential requires values")
        vals = np.asarray(values)
        if np.iscomplexobj(vals) and np.any(vals.imag != 0.0):
            raise ConfigError("potential values must be real")
        vals = vals.real.astype(float)
        if vals.shape != (basis.n_nodes,) * d:
            raise ConfigError(f"sampled potential values have shape {vals.shape}, not the grid's")
        _check_finite(vals, "sampled potential values")
    else:
        r2 = reduce(np.add.outer, [(basis.nodes - c) ** 2 for c in ctr])
        vals = _radial_profile(kind, amplitude, width)(r2)
    return PotentialSpec(kind, amplitude, width, ctr, vals, basis.nodes)
