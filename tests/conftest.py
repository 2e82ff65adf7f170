import numpy as np
import pytest

from gpe.hermite import build_basis, spectral_field


@pytest.fixture(scope="session")
def basis64():
    return build_basis(1, 64, 2)


@pytest.fixture(scope="session")
def basis32():
    return build_basis(1, 32, 2)


@pytest.fixture(scope="session")
def basis3d():
    return build_basis(3, 8, 2)


def random_spectral(basis, rng, decay=0.0):
    """Random complex field; decay > 0 damps high modes like lam^-decay."""
    shape = (basis.n_modes,) * basis.dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if decay > 0.0:
        from gpe.operators import eigenvalues

        c = c * eigenvalues(basis.dim, basis.n_modes) ** -decay
    return spectral_field(basis, c)


def to_planes(v, dim):
    """Complex values of shape grid + batch as the planes batch + (2,) + grid of the transforms."""
    p = np.stack((v.real, v.imag))
    return np.ascontiguousarray(np.moveaxis(p, range(1 + dim, p.ndim), range(p.ndim - 1 - dim)))


def from_planes(p, dim):
    """Planes batch + (2,) + grid as complex values of shape grid + batch."""
    nb = p.ndim - 1 - dim
    v = np.take(p, 0, axis=nb) + 1j * np.take(p, 1, axis=nb)
    return np.moveaxis(v, range(nb), range(dim, dim + nb))
