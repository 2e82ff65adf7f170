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
    _abs2,
    _check_fit,
    _contract,
    _level_exp,
    _quad_sum,
    _synthesize,
    eigenvalues,  # noqa: F401  (re-exported: gpe.operators.eigenvalues)
    hermite_values,
    to_grid,
)


def _check_beta(beta: float, name: str = "beta") -> None:
    """Smoothing orders live in [0, 1/2); the endpoint 1/2 is excluded."""
    if not 0.0 <= beta < 0.5:
        raise ConfigError(f"{name} must satisfy 0 <= {name} < 1/2, got {beta}")


def _check_order(s: float, name: str = "s") -> None:
    """Sobolev orders are finite and >= 0."""
    if not 0.0 <= s < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {s}")


def apply_fractional_H(basis: HermiteBasis, f: SpectralField, s: float) -> SpectralField:
    """Multiply coefficients by lam_k^s.  Negative s inverts the positive power."""
    _check_fit(basis, f)
    return SpectralField(f.dim, f.n_modes, f.coeffs * basis.lam**s)


def sobolev_norm(basis: HermiteBasis, f: SpectralField, s: float) -> float:
    """Oscillator Sobolev norm (sum_k lam_k^s |c_k|^2)^(1/2); s = 0 is L2."""
    _check_order(s)
    _check_fit(basis, f)
    return float(np.sqrt(np.sum(basis.lam**s * np.abs(f.coeffs) ** 2)))


def lp_norm(basis: HermiteBasis, g: GridField, p: float) -> float:
    """Lp norm by tensor quadrature; p = inf is the max over nodes.

    The node max is a lower bound for the true sup; see sup_norm_refined
    for a synthesis-based sharpening.
    """
    if not p >= 1:
        raise ConfigError(f"lp_norm requires p >= 1 (p = inf for the max), got {p}")
    if np.isinf(p):
        return float(np.max(np.abs(g.values)))
    return float(_quad_sum(basis, np.abs(g.values) ** p) ** (1.0 / p))


def wsp_norm(basis: HermiteBasis, f: SpectralField, s: float, p: float) -> float:
    """Mixed Sobolev-Lp norm, computed as the Lp norm of H^(s/2) f."""
    _check_order(s)
    return lp_norm(basis, to_grid(basis, apply_fractional_H(basis, f, s / 2.0)), p)


def sup_norm_refined(
    basis: HermiteBasis, f: SpectralField, s: float = 0.0, oversample: int = 4
) -> float:
    """Sup-norm estimate of H^(s/2) f on an oversampled uniform grid.

    Synthesizes the field on oversample * M equispaced points per axis
    covering [-x_max, x_max].  Still a lower bound of the true sup, but a
    much tighter one than the quadrature-node max.  oversample must be an
    integer of at least 1; ConfigError otherwise.
    """
    if not (isinstance(oversample, (int, np.integer)) and oversample >= 1):
        raise ConfigError(f"oversample must be an integer >= 1, got {oversample!r}")
    x_max = float(np.max(np.abs(basis.nodes)))
    n_pts = oversample * basis.n_nodes
    if basis.dim == 3:
        n_pts = min(n_pts, 128)
    xs = np.linspace(-x_max, x_max, n_pts)
    table = hermite_values(basis.n_modes, xs)
    v = _contract(table, f.coeffs * basis.lam ** (s / 2.0), basis.dim)
    return math.sqrt(np.max(_abs2(v.reshape(2, -1))))


def free_propagate(basis: HermiteBasis, f: SpectralField, t: float) -> SpectralField:
    """Exact free flow: c_k -> exp(i lam_k t) c_k.  Isometric in every H^s.  t must be finite."""
    _check_fit(basis, f)
    if not math.isfinite(t):
        raise ConfigError(f"free_propagate needs a finite t, got {t}")
    return SpectralField(f.dim, f.n_modes, f.coeffs * _level_exp(basis, 1j * t))


# The most trapezoid panels kato_functional takes.  The closed-form time sum costs the same at
# any panel count, so this bounds a resolution, not memory: at the bound h D stays below pi for
# every level gap D <= 3 (MAX_MODES - 1) = 3069 on windows shorter than 2^16 pi / 3069 = 67, so
# more panels resolve nothing new on the windows a scan takes.
MAX_TIME_PANELS = 2**16


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
    rule with n_time panels, 16 to MAX_TIME_PANELS.  Defined for
    0 <= beta < 1/2 only; the endpoint beta = 1/2 is rejected.

    The free flow is diagonal: with amp = H^(beta/2) phi split by level
    l = |k| (eigenvalue 2 l + d) into parts g_l, e^{itH} amp equals
    e^{itd} sum_l e^{2itl} g_l.  So the square of the functional is the
    quadratic form Re sum_{l,m} Q_lm S(l - m), where

        Q_lm = sum_x W(x) (1 + |x|^2)^(-1/2) g_l(x) conj(g_m(x)),
        S(D) = sum_j w_j exp(2 i t_j D) = h e^{i(t0+t1)D} cos(hD) sin(n hD) / sin(hD),

    W the quadrature weights, w_j the weights of the n trapezoid panels of
    width h.  Only levels where amp is nonzero enter.  S is indexed by the
    integer gap D = l - m, computed for D >= 0 and conjugated for D < 0;
    no time grid is made and no time slice is synthesized.
    """
    _check_beta(beta)
    _check_fit(basis, phi, "phi")
    if not 16 <= n_time <= MAX_TIME_PANELS:
        raise ConfigError(f"n_time must be in [16, {MAX_TIME_PANELS}], got {n_time}")
    try:
        window = np.asarray(t_window, dtype=float)
    except (TypeError, ValueError):
        window = None
    if window is None or window.shape != (2,) or not np.all(np.isfinite(window)):
        raise ConfigError(f"t_window must be two finite numbers (t0, t1), got {t_window!r}")
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ConfigError(f"t_window must satisfy t0 < t1, got ({t0}, {t1})")

    amp = phi.coeffs * basis.lam ** (beta / 2.0)
    levels = np.flatnonzero(np.bincount(basis.level[amp != 0]))
    if levels.size == 0:
        return 0.0

    # the ratio sin(n h D) / sin(h D) at h D = k pi + r is (-1)^(k (n - 1)) sin(n r) / sin(r), n at
    # r = 0: so reduced, it keeps its digits where h D nears a multiple of pi and n h D rounds
    span = int(levels[-1] - levels[0])
    h, gaps = (t1 - t0) / n_time, np.arange(span + 1)
    k = np.rint(h * gaps / math.pi)
    r = h * gaps - k * math.pi
    ratio = np.divide(np.sin(n_time * r), np.sin(r), out=np.full(span + 1, float(n_time)), where=r != 0)
    s = h * np.exp(1j * (t0 + t1) * gaps) * np.cos(h * gaps) * np.where(k * (n_time - 1) % 2, -ratio, ratio)
    s = np.concatenate([s[:0:-1].conj(), s])  # S(D) at index D + span
    s_gap = s[np.subtract.outer(levels, levels) + span]  # S(l - m)

    # the quadrature weights with <x>^(-1/2) squared folded in
    r2 = reduce(np.add.outer, [basis.nodes**2] * basis.dim)
    wx = reduce(np.multiply.outer, [basis.phys_weights] * basis.dim) / np.sqrt(1.0 + r2)
    if basis.dim == 1:
        # one mode per level: Q = (a a^H) o (H_s diag(wx) H_s^T), one real GEMM
        a, hs = amp[levels], basis.herm_table[levels]
        total = np.vdot(a, a @ (((hs * wx) @ hs.T) * s_gap))
    else:
        # with g_l = r_l + i m_l on the grid stacked as rows A = (r_0, m_0, r_1, ...), one real GEMM
        # A W A^T holds Re Q = r W r^T + m W m^T and Im Q = m W r^T - r W m^T
        parts = np.where(basis.level[..., None] == levels, amp[..., None], 0.0)
        a = _synthesize(basis, parts).reshape(2 * levels.size, -1)
        c = ((a * wx.reshape(-1)) @ a.T).reshape(levels.size, 2, levels.size, 2)
        re_q, im_q = c[:, 0, :, 0] + c[:, 1, :, 1], c[:, 1, :, 0] - c[:, 0, :, 1]
        total = np.sum(re_q * s_gap.real - im_q * s_gap.imag)
    return math.sqrt(max(float(total.real), 0.0))


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
