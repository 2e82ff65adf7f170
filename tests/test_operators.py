import tracemalloc
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

import gpe.operators
from gpe.controls import ControlSignal, make_potential
from gpe.dynamics import InitialState, SimConfig, energy, picard_solve
from gpe.hermite import (
    ConfigError,
    _quad_sum,
    _synthesize,
    basis_state,
    build_basis,
    spectral_field,
    to_grid,
)
from gpe.operators import (
    AdmissiblePair,
    apply_fractional_H,
    check_admissible,
    eigenvalues,
    free_propagate,
    kato_functional,
    lp_norm,
    sobolev_norm,
    sup_norm_refined,
    wsp_norm,
)

from conftest import random_spectral


def test_eigenvalues_1d_and_3d():
    lam = eigenvalues(1, 8)
    assert np.array_equal(lam, 2.0 * np.arange(8) + 1.0)
    lam3 = eigenvalues(3, 4)
    assert lam3[0, 0, 0] == 3.0
    assert lam3[1, 2, 3] == 3.0 + 2.0 * 6
    for d in (1, 2, 3):
        assert np.array_equal(build_basis(d, 6).lam, eigenvalues(d, 6))


def test_fractional_multiplier(basis64):
    f = basis_state(basis64, 3)
    out = apply_fractional_H(basis64, f, 1.0)
    assert out.coeffs[3] == pytest.approx(7.0, rel=1e-15)
    f0 = apply_fractional_H(basis64, f, 0.0)
    assert np.array_equal(f0.coeffs, f.coeffs)


def test_fractional_semigroup_and_inverse(basis64):
    rng = np.random.default_rng(0)
    f = random_spectral(basis64, rng)
    twice = apply_fractional_H(basis64, apply_fractional_H(basis64, f, 0.5), 0.5)
    once = apply_fractional_H(basis64, f, 1.0)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-13 * np.max(np.abs(once.coeffs))
    ident = apply_fractional_H(basis64, apply_fractional_H(basis64, f, 0.7), -0.7)
    assert np.max(np.abs(ident.coeffs - f.coeffs)) <= 1e-12


def test_sobolev_norm_values(basis64):
    assert sobolev_norm(basis64, basis_state(basis64, 3), 2.0) == pytest.approx(7.0, rel=1e-14)
    for s in (0.0, 0.5, 1.0, 3.0):
        assert sobolev_norm(basis64, basis_state(basis64, 0), s) == pytest.approx(1.0, rel=1e-14)
    c = np.zeros(64, dtype=complex)
    c[0] = c[1] = 1.0
    from gpe.hermite import spectral_field

    assert sobolev_norm(basis64, spectral_field(basis64, c), 1.0) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        sobolev_norm(basis64, basis_state(basis64, 0), -1.0)


def test_lp_norms_of_ground_state(basis64):
    g = to_grid(basis64, basis_state(basis64, 0))
    assert lp_norm(basis64, g, 2.0) == pytest.approx(1.0, abs=1e-12)
    # closed form: |h0|_L4 = (2 pi)^(-1/8)
    assert lp_norm(basis64, g, 4.0) == pytest.approx((2.0 * np.pi) ** -0.125, abs=1e-10)
    # node max is a lower bound of the sup with O(node gap^2) defect
    got = lp_norm(basis64, g, np.inf)
    assert got <= np.pi**-0.25 + 1e-15
    assert abs(got - np.pi**-0.25) <= 1e-2
    with pytest.raises(ValueError):
        lp_norm(basis64, g, 0.5)


def test_refined_sup_norm(basis64):
    f = basis_state(basis64, 0)
    got = sup_norm_refined(basis64, f)
    assert abs(got - np.pi**-0.25) <= 1e-3


def test_free_propagate_and_refined_sup_norm_refuse_bad_arguments(basis64):
    f = basis_state(basis64, 2)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite t"):
            free_propagate(basis64, f, t)
    for oversample in (0, -1, 0.5, 1.5):
        with pytest.raises(ConfigError, match="oversample must be an integer >= 1"):
            sup_norm_refined(basis64, f, oversample=oversample)


def test_wsp_norm_reduces_to_known_norms(basis64):
    rng = np.random.default_rng(1)
    f = random_spectral(basis64, rng, decay=1.0)
    assert wsp_norm(basis64, f, 0.0, 4.0) == pytest.approx(
        lp_norm(basis64, to_grid(basis64, f), 4.0), rel=1e-13
    )
    for _ in range(50):
        g = random_spectral(basis64, rng, decay=1.0)
        assert wsp_norm(basis64, g, 1.3, 2.0) == pytest.approx(
            sobolev_norm(basis64, g, 1.3), rel=1e-11
        )
    assert wsp_norm(basis64, basis_state(basis64, 1), 2.0, 2.0) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sobolev_orders_must_be_finite(basis64, bad):
    f = basis_state(basis64, 2)
    with pytest.raises(ConfigError, match="s must be finite"):
        sobolev_norm(basis64, f, bad)
    with pytest.raises(ConfigError, match="s must be finite"):
        wsp_norm(basis64, f, bad, 2.0)


def test_lp_order_nan_is_refused_and_inf_is_the_max(basis64):
    f = basis_state(basis64, 2)
    g = to_grid(basis64, f)
    for p in (np.nan, -np.inf):
        with pytest.raises(ConfigError, match="p >= 1"):
            lp_norm(basis64, g, p)
        with pytest.raises(ConfigError, match="p >= 1"):
            wsp_norm(basis64, f, 1.0, p)
    assert lp_norm(basis64, g, np.inf) == np.max(np.abs(g.values))


def test_free_propagate_phases(basis64):
    out = free_propagate(basis64, basis_state(basis64, 0), np.pi)
    assert abs(out.coeffs[0] - (-1.0)) <= 1e-14
    rng = np.random.default_rng(2)
    f = random_spectral(basis64, rng)
    period = free_propagate(basis64, f, 2.0 * np.pi)
    assert np.max(np.abs(period.coeffs - f.coeffs)) <= 1e-12


def test_free_propagate_group_law_and_isometry(basis64):
    rng = np.random.default_rng(3)
    f = random_spectral(basis64, rng)
    a = free_propagate(basis64, free_propagate(basis64, f, 0.7), 0.55)
    b = free_propagate(basis64, f, 1.25)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))
    for s in (0.0, 1.0, 2.0):
        assert sobolev_norm(basis64, a, s) == pytest.approx(
            sobolev_norm(basis64, f, s), rel=1e-13
        )


def test_multiplier_monotonicity(basis64):
    rng = np.random.default_rng(4)
    f = random_spectral(basis64, rng)
    norms = [sobolev_norm(basis64, f, s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-14) for a, b in zip(norms[:-1], norms[1:]))


def test_kato_functional_zero_state(basis64):
    from gpe.hermite import spectral_field

    zero = spectral_field(basis64, np.zeros(64, dtype=complex))
    assert kato_functional(basis64, zero, 0.3, (-1.0, 1.0), 32) == 0.0


def test_kato_functional_ground_state_oracle(basis64):
    # time-independent integrand: value^2 = 4 pi int <x>^-1 h0^2 dx
    integral, _ = quad(
        lambda x: (1.0 + x * x) ** -0.5 * np.pi**-0.5 * np.exp(-x * x), -np.inf, np.inf
    )
    oracle = np.sqrt(4.0 * np.pi * integral)
    got = kato_functional(basis64, basis_state(basis64, 0), 0.0, (-2 * np.pi, 2 * np.pi), 64)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_kato_functional_rejects_bad_beta(basis64):
    phi = basis_state(basis64, 0)
    for beta in (0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            kato_functional(basis64, phi, beta, (-1.0, 1.0), 32)
    with pytest.raises(ValueError):
        kato_functional(basis64, phi, 0.3, (-1.0, 1.0), 8)


def test_kato_functional_rejects_bad_window(basis64):
    phi = basis_state(basis64, 0)
    for window in ((-1.0, 0.0, 1.0), (1.0,), 1.0, ("a", "b"), None, (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ConfigError, match="t_window"):
            kato_functional(basis64, phi, 0.3, window, 32)


def test_kato_functional_bounds_n_time(basis64):
    phi = basis_state(basis64, 3)
    assert kato_functional(basis64, phi, 0.3, (0.0, 1.0), gpe.operators.MAX_TIME_PANELS) > 0.0
    tracemalloc.start()
    try:
        for n_time in (15, gpe.operators.MAX_TIME_PANELS + 1, 10**12):
            with pytest.raises(ConfigError, match="n_time"):
                kato_functional(basis64, phi, 0.3, (0.0, 1.0), n_time)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the time grid alone of 10^12 panels would take 8 TB


def kato_time_slices(basis, phi, beta, t_window, n_time):
    """The functional by synthesis of every time slice and np.trapezoid over them."""
    ts = np.linspace(t_window[0], t_window[1], n_time + 1)
    amp = phi.coeffs * basis.lam ** (beta / 2.0)
    planes = _synthesize(basis, np.exp(1j * np.multiply.outer(basis.lam, ts)) * amp[..., None])
    r2 = reduce(np.add.outer, [basis.nodes**2] * basis.dim)
    dens = _quad_sum(basis, (planes[:, 0] ** 2 + planes[:, 1] ** 2) / np.sqrt(1.0 + r2))
    return float(np.sqrt(np.trapezoid(dens, ts)))


def two_level_state(basis):
    c = np.zeros(basis.n_modes, dtype=complex)
    c[3], c[40] = 1.0, 0.7 - 0.2j
    return spectral_field(basis, c)


@pytest.mark.parametrize(
    "dim, n_modes, state, window, n_time",
    [
        (1, 64, "dense", (-2 * np.pi, 2 * np.pi), 256),
        (1, 64, "dense", (-0.3, 1.7), 37),
        (1, 64, "two-level", (-2 * np.pi, 2 * np.pi), 256),
        (1, 64, "two-level", (0.5, 3.0), 41),
        (1, 64, "eigenstate", (-0.3, 1.7), 37),
        (2, 12, "dense", (-2 * np.pi, 2 * np.pi), 64),
        (2, 12, "dense", (0.5, 3.0), 17),
        (2, 12, "eigenstate", (-0.3, 1.7), 37),
        (3, 6, "dense", (-2 * np.pi, 2 * np.pi), 64),
        (3, 6, "dense", (-0.3, 1.7), 37),
        # h = pi / 64: the level gaps of these states pass 64, where h D = pi
        (1, 128, "dense", (-2 * np.pi, 2 * np.pi), 256),
        (1, 256, "dense", (-2 * np.pi, 2 * np.pi), 256),
        (1, 200, "dense", (0.3, 0.3 + 4 * np.pi), 256),
        # h = pi / 4: h D crosses fifteen multiples of pi; n_time h D is exact in floating point
        # only when n_time is a power of two, so sin(n_time h D) / sin(h D) loses its digits at
        # h D = k pi for 24 panels and not for 16
        (1, 64, "dense", (-2 * np.pi, 2 * np.pi), 16),
        (1, 64, "dense", (-3 * np.pi, 3 * np.pi), 24),
    ],
)
def test_kato_functional_matches_time_slices(dim, n_modes, state, window, n_time):
    basis = build_basis(dim, n_modes)
    if state == "dense":
        phi = random_spectral(basis, np.random.default_rng(dim + n_time))
    elif state == "two-level":
        phi = two_level_state(basis)
    else:
        phi = basis_state(basis, (2,) * dim)
    want = kato_time_slices(basis, phi, 0.3, window, n_time)
    got = kato_functional(basis, phi, 0.3, window, n_time)
    assert abs(got - want) <= 1e-13 * want


def test_kato_functional_1d_synthesizes_nothing(basis64, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return synthesize(*args)

    synthesize = gpe.operators._synthesize
    monkeypatch.setattr(gpe.operators, "_synthesize", counted)
    for phi in (basis_state(basis64, 5), two_level_state(basis64)):
        assert kato_functional(basis64, phi, 0.3, (-1.0, 1.0), 32) > 0.0
    assert calls == []
    basis2 = build_basis(2, 6)
    assert kato_functional(basis2, basis_state(basis2, (1, 2)), 0.3, (-1.0, 1.0), 32) > 0.0
    assert len(calls) == 1


def test_field_on_another_basis_is_refused(basis64, basis32):
    phi = basis_state(basis32, 3)
    calls = [
        lambda: sobolev_norm(basis64, phi, 1.0),
        lambda: free_propagate(basis64, phi, 0.5),
        lambda: kato_functional(basis64, phi, 0.3, (-1.0, 1.0), 32),
        lambda: apply_fractional_H(basis64, phi, 0.5),
        lambda: to_grid(basis64, phi),
        lambda: energy(basis64, phi),
    ]
    pot = make_potential(basis64, "gaussian_bump", amplitude=1.0, width=1.2)
    cfg = SimConfig(dim=1, n_modes=64, sigma=0, t_final=0.01, dt=1e-3,
                    initial_state=InitialState("eigenstate", (0,)), potential=pot,
                    control=ControlSignal.zero(0.01), record_times=(0.0, 0.01))
    calls.append(lambda: picard_solve(basis64, cfg, 0.01, psi0=phi))
    for call in calls:
        with pytest.raises(ConfigError, match=r"\(dim=1, n_modes=32\) does not match basis \(dim=1, n_modes=64\)"):
            call()
    with pytest.raises(ConfigError, match="psi0"):
        calls[-1]()
    with pytest.raises(ConfigError, match="phi"):
        calls[2]()


def test_admissibility():
    assert check_admissible(4.0, np.inf, 1)
    assert check_admissible(2.0, 6.0, 3)
    assert not check_admissible(2.0, np.inf, 2)
    assert check_admissible(np.inf, 2.0, 2)
    assert not check_admissible(3.0, 6.0, 3)
    assert not check_admissible(1.5, np.inf, 1)
    assert AdmissiblePair(4.0, np.inf, 1).is_admissible
    assert not AdmissiblePair(2.0, np.inf, 2).is_admissible
