"""Hermite-function eigenbasis of the quantum harmonic oscillator.

The basis functions are the L2-normalized Hermite functions

    h_0(x) = pi^(-1/4) exp(-x^2/2),
    h_1(x) = sqrt(2) x h_0(x),
    h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x),

eigenfunctions of -d^2/dx^2 + x^2 with eigenvalue 2k + 1.  In dimension d
the basis is the tensor product over axes and the eigenvalue of the
multi-index k is sum_j (2 k_j + 1).

Grid values live on a tensor product of Gauss-Hermite nodes.  With
M >= 2N nodes per axis the quadrature integrates every product h_j h_k
(j, k < N) exactly, so analysis followed by synthesis is the identity on
coefficients up to roundoff.

The Gaussian envelope exp(-x^2/2) is carried inside every recurrence;
Hermite polynomials are never formed on their own, which keeps all table
entries finite for truncations up to N = 1024.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

_PI_M14 = np.pi ** -0.25

MAX_QUAD_NODES = 8192
MAX_MODES = 1024


class ConfigError(ValueError):
    """Raised by every input check: a value out of range, or inputs that do not fit together."""


@dataclass(frozen=True)
class HermiteBasis:
    """Per-axis quadrature rule plus the table of basis-function values.

    Attributes:
        dim: spatial dimension, 1 to 3.
        n_modes: per-axis truncation N; modes k = 0 .. N-1 per axis.
        nodes: Gauss-Hermite abscissae, shape (M,), symmetric about 0.
        quad_weights: weights for integrals against exp(-x^2), shape (M,).
        phys_weights: W_i = quad_weights_i * exp(x_i^2), the weights for
            plain dx integrals of functions with a Gaussian envelope.
        herm_table: h_k(x_i) for k < N, i < M, shape (N, M).
        analysis_table: herm_table * phys_weights, the quadrature analysis
            matrix, shape (N, M); computed once per basis.
    """

    dim: int
    n_modes: int
    nodes: np.ndarray
    quad_weights: np.ndarray
    phys_weights: np.ndarray
    herm_table: np.ndarray
    analysis_table: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class SpectralField:
    """Complex coefficients of a state in the oscillator eigenbasis.

    coeffs has shape (n_modes,) * dim (tensor rectangle truncation).
    The l2 norm of coeffs equals the L2 norm of the represented function.
    """

    dim: int
    n_modes: int
    coeffs: np.ndarray

    def copy(self) -> "SpectralField":
        return SpectralField(self.dim, self.n_modes, self.coeffs.copy())


@dataclass(frozen=True)
class GridField:
    """Point values of a state on the tensor quadrature grid."""

    dim: int
    values: np.ndarray


_LOG2E = 1.0 / np.log(2.0)


def _envelope_start(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split h_0(x) = pi^(-1/4) exp(-x^2/2) into mantissa * 2^shift.

    The envelope underflows double precision already at |x| > 38, so the
    base-2 exponent is kept as a separate integer array from the start.
    """
    e2 = -0.5 * x * x * _LOG2E
    shift = np.floor(e2).astype(np.int64)
    mant = _PI_M14 * np.exp2(e2 - shift)
    return mant, shift


def _renorm(p: np.ndarray, q: np.ndarray, shift: np.ndarray):
    """Pull the running pair back to mantissa range; exact (powers of two)."""
    mag = np.maximum(np.abs(p), np.abs(q))
    _, ex = np.frexp(mag)
    return np.ldexp(p, -ex), np.ldexp(q, -ex), shift + ex


def hermite_values(n_max: int, x: np.ndarray) -> np.ndarray:
    """Table h_k(x) for 0 <= k < n_max at the points x, shape (n_max,) + x.shape.

    The recurrence runs on (mantissa, power-of-two exponent) pairs so that
    the deep classically forbidden region, where intermediate h_k underflow
    double precision, does not poison the later modes whose true values are
    O(1) there.  Materialized entries below the double range round to 0.0.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max,) + x.shape)
    p, shift = _envelope_start(x)
    out[0] = np.ldexp(p, shift)
    if n_max == 1:
        return out
    q = np.sqrt(2.0) * x * p
    out[1] = np.ldexp(q, shift)
    for k in range(1, n_max - 1):
        p, q = q, x * np.sqrt(2.0 / (k + 1)) * q - np.sqrt(k / (k + 1.0)) * p
        p, q, shift = _renorm(p, q, shift)
        out[k + 1] = np.ldexp(q, shift)
    return out


def _scaled_pair(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mantissas of (h_{m-1}(x), h_m(x)) with a shared power-of-two shift.

    Returns (p, q, shift) with h_{m-1} = ldexp(p, shift), h_m = ldexp(q, shift).
    """
    x = np.asarray(x, dtype=float)
    p, shift = _envelope_start(x)
    q = np.sqrt(2.0) * x * p
    if m == 1:
        return p, q, shift
    for k in range(1, m):
        p, q = q, x * np.sqrt(2.0 / (k + 1)) * q - np.sqrt(k / (k + 1.0)) * p
        p, q, shift = _renorm(p, q, shift)
    return p, q, shift


def gauss_hermite(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Hermite rule.

    Returns (nodes, phys_weights, quad_weights).  Initial node guesses are
    the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (Golub-Welsch); each node is then polished by Newton iteration on the
    envelope-carried recurrence until the relative update is below 1e-14.
    The dx-weights come from the Christoffel identity
    W_i = 1 / (m * h_{m-1}(x_i)^2), which never over- or underflows.
    """
    if m < 2:
        raise ConfigError("quadrature size must be at least 2")
    off = np.sqrt(np.arange(1, m) / 2.0)
    x = eigh_tridiagonal(np.zeros(m), off, eigvals_only=True)
    for _ in range(12):
        p, q, _ = _scaled_pair(m, x)
        deriv = np.sqrt(2.0 * m) * p - x * q
        step = q / deriv
        x = x - step
        if np.max(np.abs(step) / (1.0 + np.abs(x))) <= 1e-14:
            break
    else:
        raise RuntimeError("Gauss-Hermite Newton refinement did not converge")
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])
    p, _, shift = _scaled_pair(m, x)
    phys = np.ldexp(1.0 / (m * p * p), -2 * shift)
    phys = 0.5 * (phys + phys[::-1])
    with np.errstate(under="ignore"):
        quad = phys * np.exp(-x * x)
    return x, phys, quad


def build_basis(dim: int, n_modes: int, quad_factor: int = 2) -> HermiteBasis:
    """Construct the discrete basis with M = quad_factor * n_modes nodes per axis.

    quad_factor = 2 keeps products h_j h_k (j, k < N) exactly integrated and
    the cubic-product analysis alias-free; quad_factor = 3 is available for
    dealiasing studies.
    """
    if dim not in (1, 2, 3):
        raise ConfigError(f"dim must be 1, 2 or 3, got {dim}")
    if not 2 <= n_modes <= MAX_MODES:
        raise ConfigError(f"n_modes must be in [2, {MAX_MODES}], got {n_modes}")
    if quad_factor < 2:
        raise ConfigError(f"quad_factor must be >= 2, got {quad_factor}")
    m = quad_factor * n_modes
    if m > MAX_QUAD_NODES:
        raise ConfigError(
            f"quadrature size quad_factor * n_modes = {m} exceeds the build guard {MAX_QUAD_NODES}"
        )
    nodes, phys, quad = gauss_hermite(m)
    table = hermite_values(n_modes, nodes)
    return HermiteBasis(dim, n_modes, nodes, quad, phys, table, table * phys)


def spectral_field(basis: HermiteBasis, coeffs: np.ndarray) -> SpectralField:
    """Wrap raw coefficients, validating shape and finiteness."""
    coeffs = np.asarray(coeffs, dtype=complex)
    shape = (basis.n_modes,) * basis.dim
    if coeffs.shape != shape:
        raise ConfigError(f"coefficient shape {coeffs.shape} does not match {shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ConfigError("coefficients contain NaN or Inf")
    return SpectralField(basis.dim, basis.n_modes, coeffs)


def basis_state(basis: HermiteBasis, k) -> SpectralField:
    """The eigenstate with multi-index k (an int in 1d, a tuple otherwise)."""
    idx = (k,) if np.isscalar(k) else tuple(k)
    if len(idx) != basis.dim:
        raise ConfigError(f"mode index k = {k} has wrong length for dim {basis.dim}")
    if any(not 0 <= j < basis.n_modes for j in idx):
        raise ConfigError(f"mode index k = {k} outside truncation {basis.n_modes}")
    coeffs = np.zeros((basis.n_modes,) * basis.dim, dtype=complex)
    coeffs[idx] = 1.0
    return SpectralField(basis.dim, basis.n_modes, coeffs)


def _contract(tab: np.ndarray, a: np.ndarray, dim: int) -> np.ndarray:
    """Apply the real (out, in) matrix tab along each of the first dim axes of a.

    Axes past the first dim (a batch) ride along at the end.  Each axis is
    one real GEMM on a float view of the complex data, so no complex copy
    of tab is formed; the contracted axis then moves to position dim - 1,
    which after dim passes restores the axis order.  In 1D that move is the
    identity and is skipped: at N = 64 it costs more than the GEMM itself.
    """
    for _ in range(dim):
        a = np.ascontiguousarray(a, dtype=complex)
        rest = a.shape[1:]
        flat = a.reshape(a.shape[0], -1).view(float)
        a = (tab @ flat).view(complex).reshape((tab.shape[0],) + rest)
        if dim > 1:
            a = np.moveaxis(a, 0, dim - 1)
    return a


def _transform(basis: HermiteBasis, tab: np.ndarray, x: np.ndarray) -> np.ndarray:
    if x.ndim == basis.dim:
        return _contract(tab, x, basis.dim)
    return np.moveaxis(_contract(tab, np.moveaxis(x, 0, -1), basis.dim), -1, 0)


def _synthesize(basis: HermiteBasis, coeffs: np.ndarray) -> np.ndarray:
    """Grid values of coefficients of shape (N,) * dim, or of a batch with
    a leading batch axis."""
    return _transform(basis, basis.herm_table.T, coeffs)


def _analyze(basis: HermiteBasis, values: np.ndarray) -> np.ndarray:
    """Coefficients of grid values of shape (M,) * dim, or of a batch with
    a leading batch axis."""
    return _transform(basis, basis.analysis_table, values)


def to_grid(basis: HermiteBasis, f: SpectralField) -> GridField:
    """Synthesis: values_i = sum_k c_k prod_j h_{k_j}(x_{i_j}).  Linear in f."""
    if f.dim != basis.dim or f.n_modes != basis.n_modes:
        raise ConfigError(
            f"field (dim={f.dim}, n_modes={f.n_modes}) does not match basis "
            f"(dim={basis.dim}, n_modes={basis.n_modes})"
        )
    return GridField(basis.dim, _synthesize(basis, f.coeffs))


def to_spectral(basis: HermiteBasis, g: GridField) -> SpectralField:
    """Analysis by quadrature: c_k = sum_i W_i g(x_i) prod_j h_{k_j}(x_{i_j})."""
    shape = (basis.n_nodes,) * basis.dim
    if g.dim != basis.dim or g.values.shape != shape:
        raise ConfigError(
            f"grid shape {g.values.shape} does not match basis nodes {shape}"
        )
    return SpectralField(basis.dim, basis.n_modes, _analyze(basis, g.values))


def _quad_sum(basis: HermiteBasis, v: np.ndarray) -> np.ndarray:
    """Tensor quadrature sum over the last dim (grid) axes of v; a leading batch axis rides along."""
    lead = v.ndim - basis.dim
    for _ in range(basis.dim):
        v = np.tensordot(v, basis.phys_weights, axes=(lead, 0))
    return v


def quadrature_l2(basis: HermiteBasis, g: GridField) -> float:
    """L2 norm of a grid field via the tensor quadrature rule."""
    return float(np.sqrt(_quad_sum(basis, np.abs(g.values) ** 2)))
