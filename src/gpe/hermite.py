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

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

_PI_M14 = np.pi ** -0.25

MAX_QUAD_NODES = 8192
MAX_MODES = 1024
# The most grid points M^dim a basis may have (so N^dim too): a larger one is refused before
# any table is made.  A 3D cubic simulate peaks at about 15 real arrays over the grid, 128 MiB
# each at the bound (1.9 GiB at 3D N = 128); 3D N = 1024 would take 64 GiB per array.
MAX_GRID_POINTS = 2**24
# The most bytes of basis arrays build_basis keeps for reuse.  The example configs' N = 32 and
# N = 48 bases take 34 KiB and 75 KiB; the largest 1D basis at quad_factor 2 (N = 1024, two
# 1024 x 2048 tables) takes 32.1 MiB, and 3D N = 128 (lam and level) 32.5 MiB, so either one is
# kept; 1D N = 1024 at quad_factor 8 (two 1024 x 8192 tables, 128 MiB) is built but not kept.
# The half-tables a folded basis makes on first use hold half its tables' bytes (48.1 MiB in all
# at 1D N = 1024) and count from the next build_basis call on.
_CACHE_BYTES = 2**26
# The bases kept, by key (dim, n_modes, quad_factor), the least recently used first.
_BASES: dict = {}
_clear_bases = _BASES.clear  # so that the next build_basis call with any key builds
# 1D bases with at least this many modes, and an even node count, take parity-folded transforms
# (see _synthesis_gemms): half the table bytes and multiply-adds, in four numpy calls where the
# plain transform makes one.  With one BLAS thread on a 2-vCPU host, a folded 1D
# _StrangStepper.step took 0.95x (sigma 0) and 1.04x (sigma 1) the plain one at N = 128, 0.88x
# at 144, 0.81-0.86x at 160, 0.79-0.88x at 192 and 0.53x at 256 (medians of 9 interleaved rounds).
_FOLD_MIN_MODES = 160


class ConfigError(ValueError):
    """Raised by every input check: a value out of range, or inputs that do not fit together."""


@dataclass(frozen=True)
class HermiteBasis:
    """Per-axis quadrature rule plus the table of basis-function values.

    build_basis shares one basis per key, so every array of it is read-only.

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
        lam: oscillator eigenvalues sum_j (2 k_j + 1), shape (N,) * dim;
            computed once per basis.
        level: the level |k| = sum_j k_j of each mode, shape (N,) * dim, so
            that lam = 2 level + dim; it gathers per-level values (see
            _level_exp) onto the modes.
    """

    dim: int
    n_modes: int
    nodes: np.ndarray
    quad_weights: np.ndarray
    phys_weights: np.ndarray
    herm_table: np.ndarray
    analysis_table: np.ndarray
    lam: np.ndarray
    level: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @cached_property
    def _halves(self) -> tuple:
        """The half-tables of the parity fold, made on first use and read-only: the rows of even
        and of odd modes of herm_table on the nodes x > 0, transposed as synthesis reads them,
        then those of analysis_table; () for a basis that takes the plain GEMMs (see
        _FOLD_MIN_MODES and _synthesis_gemms).

        The nodes are symmetric bit for bit and h_k(-x) = (-1)^k h_k(x) holds exactly in the
        tables, whose recurrence rounds alike at x and -x.
        """
        m = self.n_nodes
        if self.dim != 1 or self.n_modes < _FOLD_MIN_MODES or m % 2:
            return ()
        herm, ana = self.herm_table[:, m // 2 :], self.analysis_table[:, m // 2 :]
        halves = (herm[0::2].T.copy(), herm[1::2].T.copy(), ana[0::2].copy(), ana[1::2].copy())
        for t in halves:
            t.flags.writeable = False
        return halves


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
_RENORM_EVERY = 16
# Past |x| = 2^31 the envelope is below 2^-(3.3e18), and every h_k with
# k < 10^17 lies below the double range: clamping x there changes no value,
# keeps x^2 and the envelope's base-2 exponent inside the int64 range, and
# keeps 16 recurrence steps from overflowing.
_X_CLAMP = 2.0**31


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


def _hermite_pairs(x: np.ndarray, m: int):
    """Yield (p, q, shift) with h_{k-1} = ldexp(p, shift), h_k = ldexp(q, shift) for k = 1 .. m.

    The recurrence runs on (mantissa, power-of-two exponent) pairs so that
    the deep classically forbidden region, where intermediate h_k underflow
    double precision, does not poison the later modes whose true values are
    O(1) there.  The mantissas are pulled back to [1/2, 1) every
    _RENORM_EVERY steps and at the last one.  In between, the pair grows by
    at most a factor sqrt(2) |x| + 1 per step, so 16 steps stay inside the
    double range for every |x| up to _X_CLAMP, where x is clamped, and a
    power-of-two scaling commutes with the rounding of each step: unless a
    mantissa underflows, every yielded value equals that of a pull after
    every step.
    """
    x = np.clip(x, -_X_CLAMP, _X_CLAMP)
    p, shift = _envelope_start(x)
    q = np.sqrt(2.0) * x * p
    yield p, q, shift
    for k in range(1, m):
        p, q = q, x * np.sqrt(2.0 / (k + 1)) * q - np.sqrt(k / (k + 1.0)) * p
        if k % _RENORM_EVERY == 0 or k == m - 1:
            p, q, shift = _renorm(p, q, shift)
        yield p, q, shift


def hermite_values(n_max: int, x: np.ndarray) -> np.ndarray:
    """Table h_k(x) for 0 <= k < n_max at the points x, shape (n_max,) + x.shape.

    Materialized entries below the double range round to 0.0.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max,) + x.shape)
    for k, (p, _, shift) in enumerate(_hermite_pairs(x, n_max)):
        out[k] = np.ldexp(p, shift)
    return out


def _scaled_pair(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mantissas (p, q) of (h_{m-1}(x), h_m(x)) and their shared power-of-two shift."""
    return deque(_hermite_pairs(x, m), maxlen=1)[0]


# the first ten zeros of the Airy function Ai, which the asymptotic series
# of _airy_zeros places too coarsely
_AIRY_ZEROS = np.array([
    -2.338107410459762, -4.087949444130970, -5.520559828095555, -6.786708090071765,
    -7.944133587120863, -9.022650853340979, -10.040174341558084, -11.008524303733260,
    -11.936015563236262, -12.828776752865757,
])


def _airy_zeros(n: int) -> np.ndarray:
    """The first n zeros a_1 > a_2 > ... of Ai: the asymptotic series -T(3 pi (4k - 1) / 8)."""
    t = 3.0 * np.pi / 8.0 * (4.0 * np.arange(1, n + 1) - 1.0)
    s = t**-2.0
    a = -t ** (2.0 / 3.0) * (
        1.0 + s * (5.0 / 48 + s * (-5.0 / 36 + s * (77125.0 / 82944 + s * (
            -108056875.0 / 6967296 + s * 162375596875.0 / 334430208))))
    )
    k = min(n, _AIRY_ZEROS.size)
    a[:k] = _AIRY_ZEROS[:k]
    return a


def _node_guesses(m: int) -> np.ndarray:
    """Asymptotic guesses for the m zeros of h_m, increasing.

    Of the half = m // 2 positive zeros, those below index 0.4985 m come
    from Tricomi's formula and the rest, the largest, from Gatteschi's
    Airy-zero formula, patched as Chebfun's hermpts does; an odd m adds the
    zero at 0.
    """
    half, a = m // 2, (m % 2) - 0.5
    nu = 2.0 * m + 1.0
    cut = min(int(0.4985 * m), half)
    # Tricomi: x^2 ~ nu t - (5 / (4 (1 - t)^2) - 1 / (1 - t) - 1 + 3 a^2) / (3 nu),
    # t = cos^2(T / 2) with T - sin T = (4 half - 4 k + 3) pi / nu, k = 1 .. cut
    rhs = (4.0 * half - 4.0 * np.arange(1, cut + 1) + 3.0) * np.pi / nu
    big_t = np.full(cut, np.pi / 2)
    for _ in range(7):
        big_t -= (big_t - np.sin(big_t) - rhs) / (1.0 - np.cos(big_t))
    t = np.cos(big_t / 2.0) ** 2
    bulk = np.sqrt(nu * t - (5.0 / (4.0 * (1.0 - t) ** 2) - 1.0 / (1.0 - t) - 1.0 + 3.0 * a * a) / (3.0 * nu))
    # Gatteschi, from the largest zero down (at most 13 of them up to MAX_QUAD_NODES), reversed to increase
    z = _airy_zeros(half - cut)
    edge = np.sqrt(np.abs(
        nu + 2.0 ** (2.0 / 3) * z * nu ** (1.0 / 3) + 0.2 * 2.0 ** (4.0 / 3) * z**2 * nu ** (-1.0 / 3)
        + (11.0 / 35 - a * a - 12.0 / 175 * z**3) / nu
        + (16.0 / 1575 * z + 92.0 / 7875 * z**4) * 2.0 ** (2.0 / 3) * nu ** (-5.0 / 3)
        - (15152.0 / 3031875 * z**5 + 1088.0 / 121275 * z**2) * 2.0 ** (1.0 / 3) * nu ** (-7.0 / 3)
    ))[::-1]
    pos = np.concatenate([bulk, edge])
    return np.concatenate([-pos[::-1], np.zeros(m % 2), pos])


def gauss_hermite(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Hermite rule.

    Returns (nodes, phys_weights, quad_weights).  Initial node guesses are
    asymptotic (_node_guesses): Tricomi's formula in the bulk [Tricomi,
    Ann. Mat. Pura Appl. 26 (1947)] and Gatteschi's Airy-zero formula at
    the edges [Gatteschi, J. Comput. Appl. Math. 144 (2002)], as in
    Townsend, Trogdon and Olver, IMA J. Numer. Anal. 36 (2016); they cost
    O(m).  Each node is then polished by Newton iteration on the
    envelope-carried recurrence until the relative update is below 1e-14.
    The dx-weights come from the Christoffel identity
    W_i = 1 / (m * h_{m-1}(x_i)^2), which never over- or underflows.
    """
    if m < 2:
        raise ConfigError("quadrature size must be at least 2")
    x = _node_guesses(m)
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


def eigenvalues(dim: int, n_modes: int) -> np.ndarray:
    """Tensor of eigenvalues 2|k| + dim over the truncation rectangle."""
    axis = 2.0 * np.arange(n_modes) + 1.0
    if dim == 1:
        return axis
    return reduce(np.add.outer, [axis] * dim)


def build_basis(dim: int, n_modes: int, quad_factor: int = 2) -> HermiteBasis:
    """The discrete basis with M = quad_factor * n_modes nodes per axis.

    quad_factor = 2 keeps products h_j h_k (j, k < N) exactly integrated and
    the cubic-product analysis alias-free; quad_factor = 3 is available for
    dealiasing studies.  The basis is shared: a call with an equal key
    returns the same object, kept in a least-recently-used cache of at most
    _CACHE_BYTES of arrays, and every array of it is read-only.
    """
    if dim not in (1, 2, 3):
        raise ConfigError(f"dim must be 1, 2 or 3, got {dim}")
    if not 2 <= n_modes <= MAX_MODES:
        raise ConfigError(f"n_modes must be in [2, {MAX_MODES}], got {n_modes}")
    if not quad_factor >= 2:
        raise ConfigError(f"quad_factor must be >= 2, got {quad_factor}")
    m = quad_factor * n_modes
    if m > MAX_QUAD_NODES:
        raise ConfigError(
            f"quadrature size quad_factor * n_modes = {m} exceeds the build guard {MAX_QUAD_NODES}"
        )
    if m**dim > MAX_GRID_POINTS:
        raise ConfigError(f"n_modes = {n_modes} makes {m}^{dim} grid points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    key = (int(dim), int(n_modes), int(quad_factor))
    if key != (dim, n_modes, quad_factor):
        raise ConfigError(f"n_modes and quad_factor must be integers, got {n_modes} and {quad_factor}")
    basis = _BASES.pop(key, None) or _build(*key)
    if _nbytes(basis) <= _CACHE_BYTES:
        _BASES[key] = basis
        # evict from a snapshot, the oldest first, so that threads building at once cannot clash
        kept = list(_BASES.items())
        excess = sum(_nbytes(b) for _, b in kept) - _CACHE_BYTES
        for old, b in kept:
            if excess <= 0:
                break
            _BASES.pop(old, None)
            excess -= _nbytes(b)
    return basis


def _build(dim: int, n_modes: int, quad_factor: int) -> HermiteBasis:
    """A new basis for a checked key, its arrays set read-only."""
    nodes, phys, quad = gauss_hermite(quad_factor * n_modes)
    table = hermite_values(n_modes, nodes)
    level = reduce(np.add.outer, [np.arange(n_modes)] * dim)
    basis = HermiteBasis(
        dim, n_modes, nodes, quad, phys, table, table * phys, eigenvalues(dim, n_modes), level
    )
    for a in _arrays(basis):
        a.flags.writeable = False
    return basis


def _arrays(basis: HermiteBasis) -> list:
    """The basis's arrays, with its half-tables once made."""
    values = [a for v in vars(basis).values() for a in (v if isinstance(v, tuple) else (v,))]
    return [a for a in values if isinstance(a, np.ndarray)]


def _nbytes(basis: HermiteBasis) -> int:
    return sum(a.nbytes for a in _arrays(basis))


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


def _level_exp(basis: HermiteBasis, z: complex) -> np.ndarray:
    """exp(z * lam), shape (N,) * dim: one exp per distinct eigenvalue, gathered by level.

    Each product z * (2 l + dim) is the one z * lam forms at that mode, so
    the result equals np.exp(z * lam) bit for bit; a 3D N = 16 basis has 46
    levels among its 4096 modes, a 2D N = 64 one 127.
    """
    levels = 2.0 * np.arange(basis.dim * (basis.n_modes - 1) + 1) + basis.dim
    return np.exp(z * levels)[basis.level]


def _synthesis_gemms(tab: np.ndarray, c: np.ndarray, dim: int, halves: tuple = ()) -> tuple[list, np.ndarray]:
    """The ops (f, x, y, out) that take c to planes of sum_k c_k prod_j tab[k_j, i_j], and those planes.

    tab is a real (in, out) table and c complex and contiguous, of shape
    (n_in,) * dim + batch; the planes are real of shape batch + (2,) +
    (n_out,) * dim, the real part at index 0 of the axis before the grid
    and the imaginary part at index 1.  Each pass is one real GEMM that
    contracts the leading axis of the previous result, read through its
    transposed float view, and appends its output axis.  The first pass
    reads the interleaved complex data as a float array whose last axis
    holds (re, im), so after dim passes the axes stand in the order above
    and nothing is copied.  In 1D the one GEMM is taken the other way
    round, tab.T times the float view: its product, of which the planes
    are the transposed view, holds the grid values as interleaved complex
    numbers of shape (n_out,) + batch, which the 1D Strang step rotates
    with one complex multiply (see dynamics._phase_kernel).

    Given the half-tables (even, odd) of tab (HermiteBasis._halves), the
    1D synthesis is parity-folded: E and O, the sums over even and over
    odd modes at the nodes x > 0, are two half-size GEMMs, and v(+-x) =
    E +- O fills the two halves of the product (the x < 0 rows reversed).
    Every operand is a view of c or of an output allocated here, so
    running the ops (_run) reads c as it is then and overwrites the planes.
    """
    batch, (n_in, n_out) = c.shape[dim:], tab.shape
    a = c.view(float).reshape(n_in, -1)
    if dim == 1:
        out = np.empty((n_out, a.shape[1]))
        planes = out.T.reshape(batch + (2, n_out))
        if not halves:
            return [(np.matmul, tab.T, a, out)], planes
        # E +- O are taken on complex views, whose reversed half numpy runs in one loop
        h, z = n_out // 2, out.view(complex)
        o = np.empty((h, z.shape[1]), complex)
        return [
            (np.matmul, halves[0], a[0::2], out[h:]),
            (np.matmul, halves[1], a[1::2], o.view(float)),
            (np.subtract, z[h:], o, z[h - 1 :: -1]),
            (np.add, z[h:], o, z[h:]),
        ], planes
    ops = []
    for _ in range(dim):
        a = a.reshape(n_in, -1)
        out = np.empty((a.shape[1], n_out))
        ops.append((np.matmul, a.T, tab, out))
        a = out
    return ops, a.reshape(batch + (2,) + (n_out,) * dim)


def _analysis_gemms(
    tab: np.ndarray, planes: np.ndarray, dim: int, halves: tuple = (), out: Optional[np.ndarray] = None
) -> tuple[list, np.ndarray]:
    """The ops (f, x, y, out) of the analysis of planes by the (out, in) table tab, and its coefficients.

    The mirror of _synthesis_gemms: planes of shape batch + (2,) + (n_in,)
    * dim go to complex coefficients of shape (n_out,) * dim + batch: out,
    a C-contiguous complex array of that shape, or a new one if None.
    Each pass is one real GEMM of tab with the transposed view of the
    previous result's trailing axis, and puts its output axis first, so
    after dim passes the (re, im) axis is last and the last pass writes
    the float view of the coefficients.  1D planes may be stored either
    way round: both give views.  Given the half-tables (even, odd) of
    tab, the 1D analysis is parity-folded: v(x) + v(-x) and v(x) - v(-x)
    at the nodes x > 0 go into two work arrays, and the even and the odd
    half-table take them to the even and the odd rows of the output.
    """
    batch, (n_out, n_in) = planes.shape[: planes.ndim - dim - 1], tab.shape
    coeffs = np.empty((n_out,) * dim + batch, complex) if out is None else out
    last = coeffs.view(float).reshape(n_out, -1)
    if dim == 1 and halves:
        v = planes.reshape(-1, n_in).T
        h = n_in // 2
        s, d = np.empty((h, v.shape[1])), np.empty((h, v.shape[1]))
        fs, fd = s, d
        if v.strides[1] == v.itemsize:  # (re, im) pairs, as synthesis stores them: fold complex views
            v, fs, fd = v.view(complex), s.view(complex), d.view(complex)
        return [
            (np.add, v[h:], v[h - 1 :: -1], fs),
            (np.subtract, v[h:], v[h - 1 :: -1], fd),
            (np.matmul, halves[0], s, last[0::2]),
            (np.matmul, halves[1], d, last[1::2]),
        ], coeffs
    ops, a = [], planes
    for i in range(dim):
        a = a.reshape(-1, n_in)
        o = last if i == dim - 1 else np.empty((n_out, a.shape[0]))
        ops.append((np.matmul, tab, a.T, o))
        a = o
    return ops, coeffs


def _run(ops: list) -> None:
    """Run bound ops (f, x, y, out) in order, f(x, y, out=out); every transform goes through here."""
    for f, x, y, out in ops:
        f(x, y, out=out)


def _contract(tab: np.ndarray, coeffs: np.ndarray, dim: int, halves: tuple = ()) -> np.ndarray:
    """Planes of sum_k c_k prod_j tab[k_j, i_j] for coefficients of shape (n_in,) * dim + batch;
    see _synthesis_gemms."""
    ops, planes = _synthesis_gemms(tab, np.ascontiguousarray(coeffs, dtype=complex), dim, halves)
    _run(ops)
    return planes


def _synthesize(basis: HermiteBasis, coeffs: np.ndarray) -> np.ndarray:
    """Grid planes, shape batch + (2,) + (M,) * dim, of coefficients of shape (N,) * dim + batch."""
    return _contract(basis.herm_table, coeffs, basis.dim, basis._halves[:2])


def _analyze(basis: HermiteBasis, planes: np.ndarray) -> np.ndarray:
    """Coefficients, shape (N,) * dim + batch, of grid planes of shape batch + (2,) + (M,) * dim."""
    ops, coeffs = _analysis_gemms(basis.analysis_table, planes, basis.dim, basis._halves[2:])
    _run(ops)
    return coeffs


def _interleaved(planes: np.ndarray) -> np.ndarray:
    """The grid values of 1D planes stored as _synthesis_gemms stores them,
    as a complex view of shape (M,) + batch."""
    m = planes.shape[-1]
    return planes.reshape(-1, m).T.view(complex).reshape((m,) + planes.shape[:-2])


class _GridPlanes:
    """Grid planes v of shape batch + (2,) + grid, stored as _synthesis_gemms
    stores them, with the views and work arrays of every pointwise product
    of v bound once: |v|^2 (abs2), the cubic term (cubic) and the phase
    rotation of dynamics._phase_kernel (rotation).

    re and im are the real and imaginary parts of v, and sq two real work
    arrays of their shape; products are the planes that pointwise products
    of v go into for analysis.  In 1D the grid values are held as
    interleaved complex numbers, values, of shape (M,) + batch; re and im
    are its parts, and products the planes themselves, whose product cubic
    takes in place.  Each sq is a view of the storage of one of the spare
    arrays where that is large enough (at quad_factor 2, a spare of the
    coefficients' shape and batch) and a new array otherwise, so the spares
    must hold nothing live while the squares are in use; without spares one
    new array holds both.  In 2D and 3D values is None, re and im are the
    two planes with the grid flattened to P points, shape batch + (1, P),
    products a new array of the planes' shape, which may also take another
    product of v, and sq its two planes.
    """

    def __init__(self, planes: np.ndarray, dim: int, spare: tuple = ()):
        self.planes = planes
        if dim == 1:
            self.values = _interleaved(planes)
            self.re, self.im = self.values.real, self.values.imag
            self.products, self._out = planes, (self.re, self.im)
            n, shape = self.values.size, self.values.shape
            flat = [np.ravel(x).view(float) for x in spare] if spare else np.empty((2, n))
            self.sq = tuple(a[:n].reshape(shape) if a.size >= n else np.empty(shape) for a in flat)
        else:
            q = planes.reshape(planes.shape[: planes.ndim - dim] + (-1,))
            self.values = None
            self.re, self.im = q[..., :1, :], q[..., 1:, :]
            self.products = np.empty(planes.shape)
            o = self.products.reshape(q.shape)
            self.sq = self._out = o[..., :1, :], o[..., 1:, :]

    def abs2(self) -> np.ndarray:
        """re^2 + im^2 per point, the first of sq."""
        re2, im2 = self.sq
        np.square(self.re, out=re2)
        np.square(self.im, out=im2)
        return np.add(re2, im2, out=re2)

    def cubic(self, scale: float) -> None:
        """Write scale |v|^2 v into products, per point and plane (scale (re^2 + im^2)) v bit for bit."""
        mod2 = self.abs2()
        mod2 *= scale
        out_re, out_im = self._out
        np.multiply(self.im, mod2, out=out_im)  # first: in 2D and 3D out_re holds mod2
        np.multiply(self.re, mod2, out=out_re)

    @cached_property
    def rotation(self) -> tuple:
        """The rotation's arrays (theta, theta2, cos, sin, rot), made on first use.

        In 1D theta, theta2 and the complex rot have the shape of values,
        and cos and sin are the parts of rot; in 2D and 3D rot is None and
        the others have the shape of re.
        """
        if self.values is not None:
            shape = self.values.shape
            rot = np.empty(shape, complex)
            cos, sin = rot.real, rot.imag
        else:
            shape = self.re.shape
            rot, cos, sin = None, np.empty(shape), np.empty(shape)
        return np.empty(shape), np.empty(shape), cos, sin, rot


class _Plan(_GridPlanes):
    """One Strang step's arrays and GEMM operands for coefficients of shape
    (N,) * dim + batch, bound once per basis and batch shape.

    c is the contiguous coefficient input; synthesis the ops from c to the
    planes (dim GEMMs, or a parity fold in 1D: see _synthesis_gemms);
    analysis the ops from the planes to out, the complex coefficients (a
    view of the last output).  A step or a record writes c, runs the ops
    with _run and reads the planes or out, which the next use of the plan
    overwrites.
    """

    def __init__(self, basis: HermiteBasis, batch: tuple = ()):
        self.c = np.empty((basis.n_modes,) * basis.dim + batch, complex)
        self.synthesis, planes = _synthesis_gemms(basis.herm_table, self.c, basis.dim, basis._halves[:2])
        super().__init__(planes, basis.dim)
        # made with the plan, before the analysis arrays: made at the first step instead, after
        # them, they raised the peak RSS of cubic 2D and 3D runs by about 2 MB
        self.rotation
        self.analysis, self.out = _analysis_gemms(basis.analysis_table, planes, basis.dim, basis._halves[2:])


def _to_planes(values: np.ndarray) -> np.ndarray:
    """A copy of complex grid values as planes (2,) + grid, stored as _synthesis_gemms stores them."""
    if values.ndim == 1:
        return np.array(values, complex).view(float).reshape(-1, 2).T
    return np.stack((values.real, values.imag))


def _to_complex(planes: np.ndarray) -> np.ndarray:
    """Complex values of planes of shape (2,) + grid."""
    v = np.empty(planes.shape[1:], complex)
    v.real, v.imag = planes
    return v


def _check_fit(basis: HermiteBasis, f: SpectralField, name: str = "field") -> None:
    """ConfigError unless f was built on a basis of the same dim and n_modes."""
    if f.dim != basis.dim or f.n_modes != basis.n_modes:
        raise ConfigError(
            f"{name} (dim={f.dim}, n_modes={f.n_modes}) does not match basis "
            f"(dim={basis.dim}, n_modes={basis.n_modes})"
        )


def to_grid(basis: HermiteBasis, f: SpectralField) -> GridField:
    """Synthesis: values_i = sum_k c_k prod_j h_{k_j}(x_{i_j}).  Linear in f."""
    _check_fit(basis, f)
    return GridField(basis.dim, _to_complex(_synthesize(basis, f.coeffs)))


def to_spectral(basis: HermiteBasis, g: GridField) -> SpectralField:
    """Analysis by quadrature: c_k = sum_i W_i g(x_i) prod_j h_{k_j}(x_{i_j})."""
    shape = (basis.n_nodes,) * basis.dim
    if g.dim != basis.dim or g.values.shape != shape:
        raise ConfigError(
            f"grid shape {g.values.shape} does not match basis nodes {shape}"
        )
    return SpectralField(basis.dim, basis.n_modes, _analyze(basis, _to_planes(g.values)))


def _quad_sum(basis: HermiteBasis, v: np.ndarray) -> np.ndarray:
    """Tensor quadrature sum over the last dim (grid) axes of v; leading batch axes ride along."""
    for _ in range(basis.dim):
        v = v @ basis.phys_weights
    return v
