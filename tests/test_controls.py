from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

from gpe.controls import POTENTIAL_KINDS, ControlSignal, make_potential
from gpe.dynamics import simulate
from gpe.hermite import ConfigError, build_basis

from test_dynamics import bump_config


def test_zero_control():
    u = ControlSignal.zero(2.0)
    assert np.all(u(np.linspace(0, 2, 7)) == 0.0)
    assert u.integral(0.0, 2.0) == 0.0
    assert u.lr_norm(2.0) == 0.0


def test_piecewise_constant_evaluation_and_clamp():
    u = ControlSignal.piecewise_constant([1.0, -2.0, 3.0, 4.0], 1.0)
    assert u(0.0) == 1.0
    assert u(0.30) == -2.0
    assert u(0.999) == 4.0
    assert u(1.0) == 4.0  # clamped to the last segment
    got = u(np.array([0.1, 0.26, 0.6, 0.95]))
    assert np.array_equal(got, [1.0, -2.0, 3.0, 4.0])


def test_piecewise_constant_exact_integrals():
    u = ControlSignal.piecewise_constant([1.0, -2.0, 3.0, 4.0], 1.0)
    assert u.integral(0.0, 1.0) == pytest.approx(0.25 * (1 - 2 + 3 + 4), abs=1e-15)
    assert u.integral(0.1, 0.3) == pytest.approx(1.0 * 0.15 + (-2.0) * 0.05, abs=1e-15)
    assert u.abs_integral(0.0, 1.0) == pytest.approx(0.25 * (1 + 2 + 3 + 4), abs=1e-15)
    assert u.lr_norm(1.0) == pytest.approx(2.5, abs=1e-15)
    assert u.lr_norm(2.0) == pytest.approx(np.sqrt(0.25 * (1 + 4 + 9 + 16)), abs=1e-15)


def test_sampled_control_interpolation_and_norms():
    # u(t) = t - 0.5 sampled exactly; piecewise-linear model is exact for it
    grid = np.linspace(0.0, 1.0, 11)
    u = ControlSignal.sampled(grid - 0.5, 1.0)
    assert u(0.25) == pytest.approx(-0.25, abs=1e-15)
    assert u.integral(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # |t - 0.5| integrates to 0.25, with a sign change mid-panel
    assert u.abs_integral(0.0, 1.0) == pytest.approx(0.25, abs=1e-14)
    assert u.lr_norm(2.0) == pytest.approx(np.sqrt(1.0 / 12.0), abs=1e-14)


def test_sinusoid_perturbed_exact_integral():
    base = ControlSignal.piecewise_constant([0.7], 2.0)
    u = ControlSignal.sinusoid_perturbed(base, 0.9, 3)
    got = u.integral(0.2, 1.7)
    oracle, _ = quad(lambda t: 0.7 + 0.9 * np.sin(2 * np.pi * 3 * t / 2.0), 0.2, 1.7)
    assert got == pytest.approx(oracle, abs=1e-12)
    # over the full period the oscillation cancels
    assert u.integral(0.0, 2.0) == pytest.approx(1.4, abs=1e-13)


def test_sinusoid_perturbed_abs_integral_and_l2():
    base = ControlSignal.zero(1.0)
    u = ControlSignal.sinusoid_perturbed(base, 1.0, 2)
    oracle, _ = quad(lambda t: abs(np.sin(4 * np.pi * t)), 0.0, 1.0, limit=200)
    assert u.abs_integral(0.0, 1.0) == pytest.approx(oracle, rel=1e-5)
    assert u.lr_norm(2.0) == pytest.approx(np.sqrt(0.5), rel=1e-6)


def test_control_validation():
    with pytest.raises(ValueError):
        ControlSignal.piecewise_constant([], 1.0)
    with pytest.raises(ValueError):
        ControlSignal.sampled([1.0], 1.0)
    base = ControlSignal.zero(1.0)
    with pytest.raises(ValueError):
        ControlSignal.sinusoid_perturbed(base, 1.0, 0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="NaN or Inf"):
            ControlSignal.piecewise_constant([0.5, bad], 1.0)
        with pytest.raises(ConfigError, match="NaN or Inf"):
            ControlSignal.sampled([0.5, bad, 0.1], 1.0)
        with pytest.raises(ConfigError, match="NaN or Inf"):
            ControlSignal.sinusoid_perturbed(ControlSignal.zero(1.0), bad, 2)
    u = ControlSignal.zero(1.0)
    with pytest.raises(ValueError):
        u.integral(0.8, 0.2)
    with pytest.raises(ValueError):
        u.lr_norm(0.5)
    with pytest.raises(ConfigError, match="unknown control kind 'bogus'"):
        ControlSignal("bogus", 1.0)


def test_gaussian_bump_potential(basis64):
    pot = make_potential(basis64, "gaussian_bump", amplitude=1.0, width=1.0, center=0.0)
    assert np.isrealobj(pot.grid_values)
    # nodes straddle the peak, so the grid max sits slightly below A
    assert pot.grid_values.max() == pytest.approx(1.0, abs=5e-3)
    # sup |K'| = (A / w) exp(-1/2) at x = center +- w; finite differences
    # on the estimation grid carry O(h^2) slack
    assert pot.grad_sup == pytest.approx(np.exp(-0.5), rel=5e-3)
    assert pot.wkinf_norms[0] == pytest.approx(1.0, rel=1e-3)
    assert pot.wkinf_norms[2] >= pot.wkinf_norms[0]


def test_constant_potential_flat(basis64):
    pot = make_potential(basis64, "constant", amplitude=2.5)
    assert np.all(pot.grid_values == 2.5)
    assert pot.grad_sup == 0.0
    assert pot.wkinf_norms[0] == pytest.approx(2.5, rel=1e-12)


def test_other_potential_kinds(basis64):
    for kind in ("sech", "polynomial_decay"):
        pot = make_potential(basis64, kind, amplitude=0.8, width=1.3, center=0.4)
        assert pot.grid_values.max() <= 0.8 + 1e-12
        assert pot.grad_sup > 0.0
    with pytest.raises(ValueError):
        make_potential(basis64, "unknown_kind")


def test_potential_parameter_validation(basis64, basis3d):
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="amplitude"):
            make_potential(basis64, "gaussian_bump", amplitude=bad)
        with pytest.raises(ConfigError, match="center"):
            make_potential(basis64, "sech", center=bad)
        with pytest.raises(ConfigError, match="center"):
            make_potential(basis3d, "polynomial_decay", center=[0.0, bad, 0.0])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="width"):
            make_potential(basis64, "gaussian_bump", width=bad)


def test_sampled_potential(basis64):
    vals = np.cos(basis64.nodes / 3.0)
    pot = make_potential(basis64, "sampled", values=vals)
    assert np.array_equal(pot.grid_values, vals)
    assert pot.grad_sup == pytest.approx(1.0 / 3.0, rel=5e-2)
    with pytest.raises(ValueError):
        make_potential(basis64, "sampled", values=vals * 1j)
    for bad in (np.nan, np.inf):
        spoiled = vals.copy()
        spoiled[3] = bad
        with pytest.raises(ConfigError, match="NaN or Inf"):
            make_potential(basis64, "sampled", values=spoiled)
    imag_nan = vals.astype(complex)
    imag_nan[3] = complex(vals[3], np.nan)
    with pytest.raises(ConfigError, match="real"):
        make_potential(basis64, "sampled", values=imag_nan)
    with pytest.raises(ValueError):
        make_potential(basis64, "sampled")


def test_potential_3d(basis3d):
    pot = make_potential(basis3d, "gaussian_bump", amplitude=1.0, width=1.5, center=0.2)
    assert pot.grid_values.shape == (16, 16, 16)
    assert pot.grad_sup > 0.0
    assert pot.wkinf_norms[1] >= pot.grad_sup * 0.5


def _breaks(u):
    """Segment edges of a piecewise-constant u, sample times of a sampled u."""
    if u.kind == "sinusoid_perturbed":
        return _breaks(u.base)
    if u.kind == "zero":
        return np.array([])
    n_pieces = u.values.size if u.kind == "piecewise_constant" else u.values.size - 1
    return np.linspace(0.0, u.duration, n_pieces + 1)


def test_array_integral_matches_quad():
    rng = np.random.default_rng(5)
    pw = ControlSignal.piecewise_constant(rng.standard_normal(13), 1.0)
    controls = [
        ControlSignal.zero(1.0),
        pw,
        ControlSignal.sampled(rng.standard_normal(17), 1.0),
        ControlSignal.sinusoid_perturbed(pw, 0.8, 3),
        # shorter than the 150 steps: steps past its end integrate to 0
        ControlSignal.piecewise_constant(rng.standard_normal(5), 0.6),
    ]
    edges = np.arange(151) / 150
    for u in controls:
        got = u.integral(edges[:-1], edges[1:])
        assert got.shape == (150,)
        for j in range(150):
            a, b = min(edges[j], u.duration), min(edges[j + 1], u.duration)
            pts = [p for p in _breaks(u) if a < p < b]
            expect = quad(u, a, b, points=pts or None, epsabs=1e-15, epsrel=1e-14)[0] if b > a else 0.0
            assert abs(got[j] - expect) <= 1e-12, (u.kind, j)
    short = controls[-1].integral(edges[:-1], edges[1:])
    assert np.all(short[90:] == 0.0)
    assert np.all(short[:90] != 0.0)


def _mixed_partials(arr, coords, order):
    """All mixed partials of arr up to the given total order, by np.gradient."""
    levels = [[arr]]
    for _ in range(order):
        nxt = []
        for a in levels[-1]:
            for ax in range(arr.ndim):
                nxt.append(np.gradient(a, coords[ax], axis=ax))
        levels.append(nxt)
    return levels


def _weighted_sups(levels, coords, max_order):
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


_PROFILES = {
    "gaussian_bump": lambda r2, a, w: a * np.exp(-r2 / (2.0 * w**2)),
    "sech": lambda r2, a, w: a / np.cosh(np.sqrt(r2) / w),
    "polynomial_decay": lambda r2, a, w: a / (1.0 + r2 / w**2),
    "constant": lambda r2, a, w: a * np.ones_like(r2),
}


def _eager_estimate(basis, kind, amplitude, width, center, values):
    """(grid values, grad_sup, wkinf_norms) by the eager all-partials formulation."""
    d = basis.dim
    if kind == "sampled":
        vals, est_vals, est_coords = values, values, [basis.nodes] * d
    else:
        profile = _PROFILES[kind]
        vals = profile(reduce(np.add.outer, [(basis.nodes - c) ** 2 for c in center]), amplitude, width)
        x_max = float(np.max(np.abs(basis.nodes)))
        g = np.linspace(-x_max, x_max, {1: min(4 * basis.n_nodes, 2048), 2: 192, 3: 96}[d])
        est_coords = [g] * d
        est_vals = profile(reduce(np.add.outer, [(g - c) ** 2 for c in center]), amplitude, width)
    if kind == "constant":
        grad_sup = 0.0
        levels = [[est_vals]] + [[np.zeros_like(est_vals)]] * 2
    else:
        levels = _mixed_partials(est_vals, est_coords, 2)
        grad_sup = float(np.max(np.sqrt(sum(gr**2 for gr in levels[1]))))
    return vals, grad_sup, _weighted_sups(levels, est_coords, 2)


@pytest.mark.parametrize("dim, n_modes", [(1, 64), (2, 16), (3, 8)])
def test_potential_norms_match_eager_oracle(dim, n_modes):
    basis = build_basis(dim, n_modes, 2)
    center = np.array([0.3, -0.2, 0.1][:dim])
    nodes = reduce(np.add.outer, [basis.nodes / (2.0 + ax) for ax in range(dim)])
    for kind in POTENTIAL_KINDS:
        values = np.cos(nodes) * 0.7 if kind == "sampled" else None
        pot = make_potential(basis, kind, amplitude=0.9, width=1.3, center=center, values=values)
        vals, grad_sup, norms = _eager_estimate(basis, kind, 0.9, 1.3, center, values)
        assert pot.grid_values.tobytes() == vals.tobytes(), kind
        assert pot.grad_sup == grad_sup, kind
        assert pot.wkinf_norms == norms, kind


def test_potential_norms_wait_for_first_read(basis64, monkeypatch):
    gradient = np.gradient

    def no_gradient(*args, **kwargs):
        raise AssertionError("np.gradient called")

    monkeypatch.setattr(np, "gradient", no_gradient)
    for kind in POTENTIAL_KINDS:
        values = np.cos(basis64.nodes) if kind == "sampled" else None
        make_potential(basis64, kind, amplitude=0.8, width=1.2, center=0.3, values=values)
    for sigma in (0, 1):
        cfg = bump_config(basis64, sigma=sigma, control=ControlSignal.piecewise_constant([0.5, -0.3], 0.02),
                          t_final=0.02, dt=1e-3, record_times=(0.0, 0.01, 0.02))
        simulate(basis64, cfg)
    with pytest.raises(AssertionError, match="np.gradient"):
        cfg.potential.grad_sup
    # one walk serves both norms and is kept: in 1D one first and one second partial
    calls = []
    monkeypatch.setattr(np, "gradient", lambda *a, **kw: calls.append(1) or gradient(*a, **kw))
    assert cfg.potential.wkinf_norms[2] >= cfg.potential.grad_sup > 0.0
    assert len(calls) == 2
