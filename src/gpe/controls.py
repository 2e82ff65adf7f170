"""Control signals u(t) and control potentials K(x).

Piecewise-constant controls carry exact integrals and Lr norms; sampled
controls are piecewise linear with integrals exact for the interpolant;
a sinusoid perturbation u(t) + A sin(2 pi n t / T) has a closed-form
signed integral and numerically refined absolute integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from .hermite import ConfigError, HermiteBasis

CONTROL_KINDS = ("zero", "piecewise_constant", "sampled", "sinusoid_perturbed")
POTENTIAL_KINDS = ("gaussian_bump", "sech", "polynomial_decay", "constant", "sampled")


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
        if self.kind == "sinusoid_perturbed":
            osc = self.amplitude * np.sin(2.0 * np.pi * self.n_freq * t / self.duration)
            return self.base(t) + osc
        raise ConfigError(f"unknown control kind {self.kind!r}")

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
        if self.kind == "sinusoid_perturbed":
            w = 2.0 * np.pi * self.n_freq / self.duration
            osc = self.amplitude / w * (np.cos(w * a) - np.cos(w * b))
            return self.base.integral(a, b) + osc
        raise ConfigError(f"unknown control kind {self.kind!r}")

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
        if self.kind == "sinusoid_perturbed":
            ts = np.linspace(a, b, max(2049, 64 * self.n_freq + 1))
            return float(np.trapezoid(np.abs(self(ts)), ts))
        raise ConfigError(f"unknown control kind {self.kind!r}")

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

    grad_sup and wkinf_norms are finite-difference estimates computed on
    an oversampled estimation grid; wkinf_norms[m] is the proxy norm
    max_{j <= m} sup_x <x>^(m-j) |D^j K(x)| over all order-j partials,
    which is the multiplier-norm equivalent used consistently throughout
    the package (calibrated constants refer to this same proxy).
    """

    kind: str
    amplitude: float
    width: float
    center: np.ndarray
    grid_values: np.ndarray
    grad_sup: float
    wkinf_norms: dict = field(default_factory=dict)


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


def _mixed_partials(arr: np.ndarray, coords: list[np.ndarray], order: int):
    """All mixed partials of arr up to the given total order, by np.gradient."""
    levels = [[arr]]
    for _ in range(order):
        nxt = []
        for a in levels[-1]:
            for ax in range(arr.ndim):
                nxt.append(np.gradient(a, coords[ax], axis=ax))
        levels.append(nxt)
    return levels


def _weighted_sups(levels, coords, max_order: int) -> dict:
    bracket = np.sqrt(1.0 + reduce(np.add.outer, [c**2 for c in coords]))
    sups = {}
    for m in range(max_order + 1):
        best = 0.0
        for j in range(min(m, len(levels) - 1) + 1):
            w = bracket ** (m - j)
            for a in levels[j]:
                best = max(best, float(np.max(w * np.abs(a))))
        sups[m] = best
    return sups


def make_potential(
    basis: HermiteBasis,
    kind: str,
    amplitude: float = 1.0,
    width: float = 1.0,
    center=0.0,
    values=None,
    max_order: int = 2,
) -> PotentialSpec:
    """Build a potential and its derivative-norm estimates on the basis grid."""
    if kind not in POTENTIAL_KINDS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    if max_order < 0:
        raise ConfigError(f"max_order must be >= 0, got {max_order}")
    d = basis.dim
    ctr = np.full(d, float(center)) if np.isscalar(center) else np.asarray(center, float)
    if ctr.shape != (d,):
        raise ConfigError(f"center must be a scalar or length-{d} sequence")

    node_grids = [basis.nodes - ctr[ax] for ax in range(d)]
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
        est_coords = [basis.nodes] * d
        est_vals = vals
    else:
        profile = _radial_profile(kind, amplitude, width)
        r2 = reduce(np.add.outer, [g**2 for g in node_grids])
        vals = profile(r2)
        x_max = float(np.max(np.abs(basis.nodes)))
        n_pts = {1: min(4 * basis.n_nodes, 2048), 2: 192, 3: 96}[d]
        g = np.linspace(-x_max, x_max, n_pts)
        est_coords = [g] * d
        r2e = reduce(np.add.outer, [(g - ctr[ax]) ** 2 for ax in range(d)])
        est_vals = profile(r2e)

    if kind == "constant":
        grad_sup = 0.0
        levels = [[est_vals]] + [[np.zeros_like(est_vals)]] * max_order
    else:
        levels = _mixed_partials(est_vals, est_coords, max_order)
        grads = levels[1] if max_order >= 1 else _mixed_partials(est_vals, est_coords, 1)[1]
        grad_sup = float(np.max(np.sqrt(sum(gr**2 for gr in grads))))
    wkinf = _weighted_sups(levels, est_coords, max_order)
    return PotentialSpec(kind, float(amplitude), float(width), ctr, vals, grad_sup, wkinf)
