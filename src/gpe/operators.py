"""Operator calculus for the harmonic oscillator in its eigenbasis.

Fractional powers of H act as coefficientwise multipliers by the
eigenvalues lam_k = sum_j (2 k_j + 1).  Sobolev norms of order s are the
weighted-l2 norms with weights lam_k^s, the free propagator attaches the
phases exp(i lam_k t), and mixed-space norms go through the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hermite import (
    ConfigError,
    GridField,
    HermiteBasis,
    SpectralField,
    _contract,
    _quad_sum,
    _synthesize,
    to_grid,
)


def eigenvalues(dim: int, n_modes: int) -> np.ndarray:
    """Tensor of eigenvalues 2|k| + dim over the truncation rectangle."""
    axis = 2.0 * np.arange(n_modes) + 1.0
    if dim == 1:
        return axis
    return reduce(np.add.outer, [axis] * dim)


def _check_beta(beta: float, name: str = "beta") -> None:
    """Smoothing orders live in [0, 1/2); the endpoint 1/2 is excluded."""
    if not 0.0 <= beta < 0.5:
        raise ConfigError(f"{name} must satisfy 0 <= {name} < 1/2, got {beta}")


def apply_fractional_H(basis: HermiteBasis, f: SpectralField, s: float) -> SpectralField:
    """Multiply coefficients by lam_k^s.  Negative s inverts the positive power."""
    if f.dim != basis.dim or f.n_modes != basis.n_modes:
        raise ConfigError("field does not match basis")
    lam = eigenvalues(basis.dim, basis.n_modes)
    return SpectralField(f.dim, f.n_modes, f.coeffs * lam**s)


def sobolev_norm(basis: HermiteBasis, f: SpectralField, s: float) -> float:
    """Oscillator Sobolev norm (sum_k lam_k^s |c_k|^2)^(1/2); s = 0 is L2."""
    if s < 0:
        raise ConfigError(f"sobolev_norm requires s >= 0, got {s}")
    lam = eigenvalues(basis.dim, basis.n_modes)
    return float(np.sqrt(np.sum(lam**s * np.abs(f.coeffs) ** 2)))


def lp_norm(basis: HermiteBasis, g: GridField, p: float) -> float:
    """Lp norm by tensor quadrature; p = inf is the max over nodes.

    The node max is a lower bound for the true sup; see sup_norm_refined
    for a synthesis-based sharpening.
    """
    if p < 1:
        raise ConfigError("lp_norm requires p >= 1")
    if np.isinf(p):
        return float(np.max(np.abs(g.values)))
    return float(_quad_sum(basis, np.abs(g.values) ** p) ** (1.0 / p))


def wsp_norm(basis: HermiteBasis, f: SpectralField, s: float, p: float) -> float:
    """Mixed Sobolev-Lp norm, computed as the Lp norm of H^(s/2) f."""
    if s < 0:
        raise ConfigError("wsp_norm requires s >= 0")
    return lp_norm(basis, to_grid(basis, apply_fractional_H(basis, f, s / 2.0)), p)


def sup_norm_refined(
    basis: HermiteBasis, f: SpectralField, s: float = 0.0, oversample: int = 4
) -> float:
    """Sup-norm estimate of H^(s/2) f on an oversampled uniform grid.

    Synthesizes the field on oversample * M equispaced points per axis
    covering [-x_max, x_max].  Still a lower bound of the true sup, but a
    much tighter one than the quadrature-node max.
    """
    from .hermite import hermite_values

    x_max = float(np.max(np.abs(basis.nodes)))
    n_pts = oversample * basis.n_nodes
    if basis.dim == 3:
        n_pts = min(n_pts, 128)
    xs = np.linspace(-x_max, x_max, n_pts)
    table = hermite_values(basis.n_modes, xs)
    lam = eigenvalues(basis.dim, basis.n_modes)
    v = _contract(table.T, f.coeffs * lam ** (s / 2.0), basis.dim)
    return float(np.max(np.abs(v)))


def free_propagate(basis: HermiteBasis, f: SpectralField, t: float) -> SpectralField:
    """Exact free flow: c_k -> exp(i lam_k t) c_k.  Isometric in every H^s."""
    lam = eigenvalues(basis.dim, basis.n_modes)
    return SpectralField(f.dim, f.n_modes, f.coeffs * np.exp(1j * lam * t))


def kato_functional(
    basis: HermiteBasis,
    phi: SpectralField,
    beta: float,
    t_window: tuple[float, float],
    n_time: int = 256,
) -> float:
    """Space-time smoothing functional of the free flow.

    Computes the L2 norm over [t0, t1] x R^d of
    (1 + |x|^2)^(-1/4) H^(beta/2) e^{itH} phi, with the spatial integral by
    tensor quadrature and the time integral by the composite trapezoid
    rule with n_time panels.  Defined for 0 <= beta < 1/2 only; the
    endpoint beta = 1/2 is rejected.
    """
    _check_beta(beta)
    if n_time < 16:
        raise ConfigError(f"n_time must be at least 16, got {n_time}")
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ConfigError(f"t_window must satisfy t0 < t1, got ({t0}, {t1})")
    ts = np.linspace(t0, t1, n_time + 1)

    lam = eigenvalues(basis.dim, basis.n_modes)
    amp = (phi.coeffs * lam ** (beta / 2.0)).reshape(-1)
    lam_flat = lam.reshape(-1)
    batch = np.exp(1j * np.outer(ts, lam_flat)) * amp
    batch = batch.reshape((ts.size,) + (basis.n_modes,) * basis.dim)
    grids = _synthesize(basis, batch)

    # fold the weight <x>^(-1/2) squared into the quadrature weights
    r2 = reduce(np.add.outer, [basis.nodes**2] * basis.dim)
    dens = _quad_sum(basis, np.abs(grids) ** 2 / np.sqrt(1.0 + r2))
    return float(np.sqrt(np.trapezoid(dens, ts)))


def check_admissible(q: float, r: float, dim: int) -> bool:
    """Whether (q, r) satisfies 2/q + dim/r = dim/2, excluding (2, 2, inf)."""
    if not (q >= 2 and r >= 2):
        return False
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    if abs(2.0 * inv_q + dim * inv_r - dim / 2.0) > 1e-12:
        return False
    if dim == 2 and q == 2 and math.isinf(r):
        return False
    return True


@dataclass(frozen=True)
class AdmissiblePair:
    """A mixed-norm exponent pair (q, r) for dimension dim."""

    q: float
    r: float
    dim: int

    @property
    def is_admissible(self) -> bool:
        return check_admissible(self.q, self.r, self.dim)
