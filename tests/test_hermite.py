import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_hermite

from gpe import hermite
from gpe.hermite import (
    MAX_GRID_POINTS,
    MAX_MODES,
    ConfigError,
    GridField,
    _analyze,
    _envelope_start,
    _renorm,
    _scaled_pair,
    _synthesize,
    basis_state,
    build_basis,
    gauss_hermite,
    hermite_values,
    spectral_field,
    to_grid,
    to_spectral,
)

from gpe.operators import lp_norm, sup_norm_refined

from conftest import random_spectral, to_planes


def hermite_fn_reference(k, x):
    """Independent Hermite function values via scipy's polynomial evaluator."""
    norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return eval_hermite(k, x) * np.exp(-0.5 * x * x) / norm


def test_ground_state_value_at_origin():
    b = build_basis(1, 4, 2)
    assert b.n_modes == 4 and b.n_nodes == 8
    h0 = hermite_values(1, np.array([0.0]))[0, 0]
    assert h0 == pytest.approx(np.pi**-0.25, abs=1e-15)


def test_orthonormality_diagonal():
    b = build_basis(1, 8, 2)
    val = np.sum(b.phys_weights * b.herm_table[3] * b.herm_table[3])
    assert abs(val - 1.0) <= 1e-12


def test_orthogonality_off_diagonal_with_quad_oracle():
    b = build_basis(1, 8, 2)
    val = np.sum(b.phys_weights * b.herm_table[2] * b.herm_table[5])
    assert abs(val) <= 1e-12
    oracle, _ = quad(lambda x: hermite_fn_reference(2, x) * hermite_fn_reference(5, x), -np.inf, np.inf)
    assert abs(oracle) <= 1e-10


def test_full_gram_matrix_identity(basis64):
    g = (basis64.herm_table * basis64.phys_weights) @ basis64.herm_table.T
    assert np.max(np.abs(g - np.eye(basis64.n_modes))) <= 1e-12


def test_table_matches_scipy_reference(basis32):
    for k in (0, 1, 5, 17, 31):
        ref = hermite_fn_reference(k, basis32.nodes)
        assert np.max(np.abs(basis32.herm_table[k] - ref)) <= 1e-12


def test_node_symmetry(basis64):
    x = basis64.nodes
    assert np.max(np.abs(x + x[::-1])) <= 1e-13


def test_no_overflow_at_max_truncation():
    b = build_basis(1, 1024, 2)
    assert np.all(np.isfinite(b.herm_table))
    assert np.all(np.isfinite(b.phys_weights))
    g = (b.herm_table * b.phys_weights) @ b.herm_table.T
    assert np.max(np.abs(g - np.eye(1024))) <= 1e-12


def test_gauss_hermite_matches_numpy_small():
    x, phys, w = gauss_hermite(24)
    xn, wn = np.polynomial.hermite.hermgauss(24)
    assert np.max(np.abs(x - xn)) <= 1e-13
    assert np.max(np.abs(w - wn)) <= 1e-13
    assert np.max(np.abs(phys - wn * np.exp(xn**2))) <= 1e-10


def gauss_hermite_golub_welsch(m):
    """The rule from Jacobi-matrix eigenvalues (Golub-Welsch) as first guesses,
    then the Newton polish, symmetrization and Christoffel weights of gauss_hermite."""
    x = eigh_tridiagonal(np.zeros(m), np.sqrt(np.arange(1, m) / 2.0), eigvals_only=True)
    for _ in range(12):
        p, q, _ = _scaled_pair(m, x)
        step = q / (np.sqrt(2.0 * m) * p - x * q)
        x = x - step
        if np.max(np.abs(step) / (1.0 + np.abs(x))) <= 1e-14:
            break
    else:
        raise RuntimeError("Golub-Welsch oracle did not converge")
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])
    p, _, shift = _scaled_pair(m, x)
    phys = np.ldexp(1.0 / (m * p * p), -2 * shift)
    return x, 0.5 * (phys + phys[::-1])


@pytest.mark.parametrize("m", list(range(2, 65)) + [65, 97, 128, 255, 256, 257, 514, 1024, 2048])
def test_gauss_hermite_matches_golub_welsch_oracle(m):
    x, phys, quad_w = gauss_hermite(m)
    x_ref, phys_ref = gauss_hermite_golub_welsch(m)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.all(np.abs(x - x_ref) <= 2 * np.spacing(np.maximum(1.0, np.abs(x_ref))))
    assert np.max(np.abs(phys - phys_ref) / phys_ref) <= 1e-15 * m
    assert np.array_equal(quad_w, phys * np.exp(-x * x))


def mp_hermite_rule(m, guesses):
    """40-digit (root, dx-weight) pairs of the m-point rule by Newton from guesses.

    Runs the recurrence of hermite_values without the envelope; the weight
    1 / (m h_{m-1}(x)^2) is sqrt(pi) exp(x^2) / (m p^2) in those terms.
    """
    with mpmath.workdps(40):
        a = [mpmath.sqrt(mpmath.mpf(2) / (k + 1)) for k in range(m)]
        b = [mpmath.sqrt(mpmath.mpf(k) / (k + 1)) for k in range(m)]

        def pair(x):
            p, q = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(m):
                p, q = q, x * a[k] * q - b[k] * p
            return p, q

        rule = []
        for g in guesses:
            x = mpmath.mpf(float(g))
            for _ in range(3):
                p, q = pair(x)
                x -= q / (mpmath.sqrt(2 * m) * p)
            p, _ = pair(x)
            rule.append((x, mpmath.sqrt(mpmath.pi) * mpmath.exp(x * x) / (m * p * p)))
        return rule


@pytest.mark.parametrize("m", [8, 32, 64])
def test_gauss_hermite_matches_mpmath_roots(m):
    x, phys, _ = gauss_hermite(m)
    pos = slice(m // 2, None) if m % 2 == 0 else slice(m // 2 + 1, None)
    for xi, wi, (root, weight) in zip(x[pos], phys[pos], mp_hermite_rule(m, x[pos])):
        assert abs(mpmath.mpf(float(xi)) - root) <= np.spacing(float(root))
        assert abs(mpmath.mpf(float(wi)) - weight) <= 1e-15 * m * weight


def hermite_pairs_per_step(x, m):
    """The recurrence of _hermite_pairs with _renorm after every step."""
    p, shift = _envelope_start(x)
    q = np.sqrt(2.0) * x * p
    yield p, q, shift
    for k in range(1, m):
        p, q = q, x * np.sqrt(2.0 / (k + 1)) * q - np.sqrt(k / (k + 1.0)) * p
        p, q, shift = _renorm(p, q, shift)
        yield p, q, shift


def test_hermite_values_far_out_are_zero_without_warnings():
    # |x| past 3.6e9 once overflowed the envelope's int64 exponent, and
    # 1e300 overflows x^2: both are clamped, and every value is 0
    x = np.array([4e9, -4e9, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = hermite_values(40, x)
    assert np.array_equal(table, np.zeros((40, 4)))


@pytest.mark.parametrize("m", [2, 3, 16, 17, 33, 64, 257, 1024, 2048])
def test_delayed_renorm_is_bit_identical(m):
    nodes = gauss_hermite(m)[0]
    x = np.concatenate([nodes, np.linspace(-1.2, 1.2, 241) * nodes[-1]])
    n = min(m, MAX_MODES)
    table = np.empty((n,) + x.shape)
    for k, last in enumerate(hermite_pairs_per_step(x, m)):
        if k < n:
            table[k] = np.ldexp(last[0], last[2])
    assert np.array_equal(hermite_values(n, x), table)
    for got, want in zip(_scaled_pair(m, x), last):
        assert np.array_equal(got, want)


def test_build_basis_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_basis(4, 8)
    with pytest.raises(ValueError):
        build_basis(0, 8)
    with pytest.raises(ValueError):
        build_basis(1, 1)
    with pytest.raises(ValueError):
        build_basis(1, 2048)
    with pytest.raises(ValueError):
        build_basis(1, 1024, 9)  # M > 8192
    with pytest.raises(ValueError):
        build_basis(1, 16, 1)
    # M^dim is bounded, not only M: 3D N = 128 (M = 256) is the largest 3D
    # basis at quad_factor 2, and 2D at the axis bound with M = 8192 is refused
    assert 256**3 == MAX_GRID_POINTS and build_basis(3, 128).lam.shape == (128,) * 3
    for args in ((3, 129), (2, 1024, 8), (3, 1024)):
        with pytest.raises(ConfigError, match="n_modes"):
            build_basis(*args)


@pytest.fixture
def empty_cache():
    hermite._clear_bases()
    yield hermite._BASES
    hermite._clear_bases()


@pytest.fixture
def counted_builds(monkeypatch, empty_cache):
    """The quadrature sizes gauss_hermite is called with, from an empty cache."""
    sizes, gh = [], hermite.gauss_hermite

    def counted(m):
        sizes.append(m)
        return gh(m)

    monkeypatch.setattr(hermite, "gauss_hermite", counted)
    return sizes


def test_build_basis_returns_the_shared_basis(empty_cache):
    b = build_basis(1, 24)
    assert build_basis(1, 24) is b
    assert build_basis(1, np.int64(24), 2) is b
    assert build_basis(np.int64(1), 24.0, quad_factor=np.int64(2)) is b
    assert build_basis(1, 24, 3) is not b
    assert list(empty_cache) == [(1, 24, 2), (1, 24, 3)]
    assert all(type(k) is int for key in empty_cache for k in key)


def test_build_basis_builds_a_key_once(counted_builds):
    for _ in range(3):
        build_basis(2, 6)
        build_basis(1, 6)
    assert counted_builds == [12, 12]
    hermite._clear_bases()
    build_basis(2, 6)
    assert counted_builds == [12, 12, 12]


def test_basis_arrays_are_read_only():
    b = build_basis(2, 6)
    arrays = [b.nodes, b.quad_weights, b.phys_weights, b.herm_table, b.analysis_table, b.lam, b.level]
    assert len(arrays) == len(hermite._arrays(b))
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[:1] += 1  # views of a cached array are read-only too
    # a caller that wants to modify a table copies it
    t = b.herm_table.copy()
    t[0, 0] = 0.0


def test_bad_basis_arguments_cache_nothing(counted_builds, empty_cache):
    for args, field in [((4, 8), "dim"), ((1, 1), "n_modes"), ((1, 2048), "n_modes"),
                        ((1, 16, 1), "quad_factor"), ((1, 16, float("nan")), "quad_factor"),
                        ((1, 24.5), "n_modes"), ((1, 16, 2.5), "quad_factor"), ((3, 129), "n_modes")]:
        with pytest.raises(ConfigError, match=field):
            build_basis(*args)
    assert counted_builds == [] and empty_cache == {}


def test_basis_cache_is_bounded_in_bytes(counted_builds, empty_cache, monkeypatch):
    # room for two N = 8 bases and one N = 4, but not for N = 4, 8 and 9
    size = hermite._nbytes(build_basis(1, 8))
    monkeypatch.setattr(hermite, "_CACHE_BYTES", 2 * size + hermite._nbytes(build_basis(1, 4)) - 1)
    b8, b4 = build_basis(1, 8), build_basis(1, 4)
    b9 = build_basis(1, 9)  # keeps 4 and 9: 8, the least recently used, is evicted
    assert list(empty_cache) == [(1, 4, 2), (1, 9, 2)]
    assert build_basis(1, 4) is b4 and build_basis(1, 9) is b9
    assert build_basis(1, 8) is not b8  # built again, and 4, now the oldest, goes
    assert list(empty_cache) == [(1, 9, 2), (1, 8, 2)]
    big = build_basis(1, 32)  # larger than the bound: returned, not kept, and nothing is evicted
    assert list(empty_cache) == [(1, 9, 2), (1, 8, 2)]
    assert build_basis(1, 32) is not big
    assert counted_builds == [16, 8, 18, 16, 64, 64]


def test_to_grid_ground_state(basis32):
    g = to_grid(basis32, basis_state(basis32, 0))
    expect = np.pi**-0.25 * np.exp(-0.5 * basis32.nodes**2)
    assert np.max(np.abs(g.values - expect)) <= 1e-14


def test_to_grid_zero_and_linearity(basis32):
    rng = np.random.default_rng(1)
    f = random_spectral(basis32, rng)
    g = random_spectral(basis32, rng)
    zero = spectral_field(basis32, np.zeros(32, dtype=complex))
    assert np.all(to_grid(basis32, zero).values == 0.0)
    lhs = to_grid(basis32, spectral_field(basis32, 2.0 * f.coeffs - 1.5j * g.coeffs)).values
    rhs = 2.0 * to_grid(basis32, f).values - 1.5j * to_grid(basis32, g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_to_grid_matches_naive_double_loop(basis32):
    rng = np.random.default_rng(2)
    c = np.zeros(32, dtype=complex)
    idx = rng.choice(32, size=6, replace=False)
    c[idx] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = spectral_field(basis32, c)
    got = to_grid(basis32, f).values
    naive = np.zeros(basis32.n_nodes, dtype=complex)
    for k in range(32):
        for i in range(basis32.n_nodes):
            naive[i] += c[k] * basis32.herm_table[k, i]
    assert np.max(np.abs(got - naive)) <= 1e-13


def test_to_spectral_eigenstate_delta(basis32):
    g = GridField(1, basis32.herm_table[1].astype(complex))
    c = to_spectral(basis32, g).coeffs
    expect = np.zeros(32)
    expect[1] = 1.0
    assert np.max(np.abs(c - expect)) <= 1e-12


def test_lowering_identity_x_h0(basis32):
    # x h_0(x) = h_1(x) / sqrt(2)
    g = GridField(1, (basis32.nodes * np.pi**-0.25 * np.exp(-0.5 * basis32.nodes**2)).astype(complex))
    c = to_spectral(basis32, g).coeffs
    assert abs(c[1] - 1.0 / np.sqrt(2.0)) <= 1e-10
    oracle, _ = quad(
        lambda x: x * np.pi**-0.25 * np.exp(-0.5 * x * x) * hermite_fn_reference(1, x),
        -np.inf,
        np.inf,
    )
    assert abs(oracle - 1.0 / np.sqrt(2.0)) <= 1e-10


@pytest.mark.parametrize("dim,n_modes", [(1, 8), (1, 32), (1, 128), (2, 8), (3, 4), (3, 8), (3, 16)])
def test_round_trip(dim, n_modes):
    b = build_basis(dim, n_modes, 2)
    rng = np.random.default_rng(n_modes + 10 * dim)
    for _ in range(5):
        f = random_spectral(b, rng)
        back = to_spectral(b, to_grid(b, f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12


def test_parseval(basis64):
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_spectral(basis64, rng)
        l2_spec = np.sqrt(np.sum(np.abs(f.coeffs) ** 2))
        l2_grid = lp_norm(basis64, to_grid(basis64, f), 2.0)
        assert abs(l2_spec - l2_grid) <= 1e-11 * l2_spec


def test_even_parity_preserved(basis32):
    c = np.zeros(32, dtype=complex)
    c[0], c[2], c[6] = 1.0, -0.5j, 0.25
    g = to_grid(basis32, spectral_field(basis32, c)).values
    assert np.max(np.abs(g - g[::-1])) <= 1e-12


def test_transform_shape_mismatch(basis32, basis64):
    f = basis_state(basis64, 0)
    with pytest.raises(ValueError):
        to_grid(basis32, f)
    g = GridField(1, np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        to_spectral(basis32, g)


def test_spectral_field_rejects_nonfinite(basis32):
    bad = np.zeros(32, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        spectral_field(basis32, bad)


_AXES = "abc"


def naive_transform(tab, x, dim):
    """Contract tab (out, in) along each spatial axis with one einsum; trailing batch axes ride along."""
    ins, outs = _AXES[:dim], _AXES[:dim].upper()
    spec = ",".join(f"{o}{i}" for o, i in zip(outs, ins))
    return np.einsum(f"{spec},{ins}...->{outs}...", *([tab] * dim), x)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "batch", [None, 3, pytest.param((2, 3), id="2x3"), pytest.param(41, id="time41")]
)
def test_transform_pair_matches_einsum(dim, batch):
    # a trailing member axis (3) or Picard's trailing time axis (41) rides
    # along; on the grid side it leads, before the (re, im) axis
    b = build_basis(dim, {1: 24, 2: 12, 3: 6}[dim], 2)
    trail = () if batch is None else np.atleast_1d(batch).tolist()
    rng = np.random.default_rng(10 * dim + sum(trail))

    def draw(n):
        shape = (n,) * dim + tuple(trail)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    c = draw(b.n_modes)
    got = _synthesize(b, c)
    expect = to_planes(naive_transform(b.herm_table.T, c, dim), dim)
    assert got.shape == expect.shape == tuple(trail) + (2,) + (b.n_nodes,) * dim
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))

    v = draw(b.n_nodes)
    weighted = b.herm_table * b.phys_weights
    assert np.array_equal(b.analysis_table, weighted)
    got = _analyze(b, to_planes(v, dim))
    expect = naive_transform(weighted, v, dim)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def plain_pair(b, c):
    """Synthesis of c and analysis of its planes by the full tables, as a basis below the fold takes them."""
    planes = hermite._contract(b.herm_table, c, 1)
    ops, coeffs = hermite._analysis_gemms(b.analysis_table, planes, 1)
    hermite._run(ops)
    return planes, coeffs


@pytest.mark.parametrize("n_modes", [256, 512, 1024])
@pytest.mark.parametrize("batch", [(), (6,)])
def test_folded_transforms_match_plain(n_modes, batch):
    b = build_basis(1, n_modes)
    assert len(b._halves) == 4  # this basis folds
    rng = np.random.default_rng(n_modes + len(batch))
    c = rng.standard_normal((n_modes,) + batch) + 1j * rng.standard_normal((n_modes,) + batch)
    planes, coeffs = plain_pair(b, c)
    got = _synthesize(b, c)
    assert got.shape == planes.shape
    assert np.max(np.abs(got - planes)) <= 1e-13 * np.max(np.abs(planes))
    # analysis of planes stored as synthesis stores them, and stored as two contiguous planes
    for p in (got, np.ascontiguousarray(got)):
        folded = _analyze(b, p)
        assert folded.shape == coeffs.shape
        assert np.max(np.abs(folded - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))


@pytest.mark.parametrize("n_modes, quad_factor", [(160, 2), (161, 2), (257, 2), (1024, 2), (160, 3), (256, 3)])
def test_tables_have_exact_parity_where_the_fold_is_taken(n_modes, quad_factor):
    # the fold reads h_k(-x) as (-1)^k h_k(x): exact on the built nodes, odd N and quad_factor 3 too
    b = build_basis(1, n_modes, quad_factor)
    assert len(b._halves) == 4
    assert np.array_equal(b.nodes, -b.nodes[::-1])
    sign = np.where(np.arange(n_modes) % 2, -1.0, 1.0)[:, None]
    for t in (b.herm_table, b.analysis_table):
        assert np.array_equal(t[:, ::-1], sign * t)
    even, odd, even_w, odd_w = b._halves
    h = b.n_nodes // 2
    assert np.array_equal(even, b.herm_table[0::2, h:].T) and np.array_equal(odd, b.herm_table[1::2, h:].T)
    assert np.array_equal(even_w, b.analysis_table[0::2, h:]) and np.array_equal(odd_w, b.analysis_table[1::2, h:])
    for t in b._halves:
        with pytest.raises(ValueError, match="read-only"):
            t[0, 0] = 1.0


def test_fold_thresholds_and_odd_node_counts():
    # below the threshold, in 2D and on an odd node count (N = 193 at quad_factor 3, a node at 0)
    # every transform is the plain GEMM, bit for bit
    for args in [(1, hermite._FOLD_MIN_MODES - 1), (2, 8), (1, 193, 3)]:
        b = build_basis(*args)
        assert b._halves == ()
    b = build_basis(1, 193, 3)
    assert b.n_nodes % 2 == 1 and b.nodes[b.n_nodes // 2] == 0.0
    rng = np.random.default_rng(3)
    c = rng.standard_normal((193, 2)) + 1j * rng.standard_normal((193, 2))
    planes, coeffs = plain_pair(b, c)
    assert np.array_equal(_synthesize(b, c), planes)
    assert np.array_equal(_analyze(b, planes), coeffs)
    assert np.max(np.abs(coeffs - c)) <= 1e-12


def test_half_tables_count_in_the_cache_bytes():
    b = hermite._build(1, 256, 2)
    before = hermite._nbytes(b)
    assert len(b._halves) == 4
    assert hermite._nbytes(b) == before + (b.herm_table.nbytes + b.analysis_table.nbytes) // 2


def test_sup_norm_refined_never_folds(monkeypatch):
    # its table is on a uniform grid, which is not symmetric bit for bit: only GEMMs run
    b = build_basis(1, 256)
    funcs = []
    run = hermite._run

    def recorded(ops):
        funcs.extend(f for f, *_ in ops)
        run(ops)

    monkeypatch.setattr(hermite, "_run", recorded)
    f = random_spectral(b, np.random.default_rng(4), decay=1.0)
    sup_norm_refined(b, f)
    assert funcs == [np.matmul]
