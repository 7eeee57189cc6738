import numpy as np
import pytest

from achns.basis import TorusGrid
from achns.errors import DomainError
from achns.profiles import (
    BlobDensity,
    ConstantDensity,
    SinusoidalDensity,
    phi_band_random,
    phi_constant,
    phi_modes,
    u_random_solenoidal,
    u_taylor_green,
    u_zero,
)

L = (2 * np.pi, 2 * np.pi)
GRID = TorusGrid(L, (32, 32))


def grid_points(grid):
    return np.stack(grid.mesh, axis=-1)


def test_constant_density():
    rho = ConstantDensity(1.5)
    pts = grid_points(GRID)
    np.testing.assert_array_equal(rho(pts), 1.5)
    assert rho.bounds == (1.5, 1.5)
    with pytest.raises(DomainError):
        ConstantDensity(0.0)


def test_sinusoidal_density_values_and_bounds():
    rho = SinusoidalDensity(1.5, 0.5, L, k1=1, k2=1)
    pts = grid_points(GRID)
    expect = 1.5 + 0.5 * np.sin(GRID.mesh[0]) * np.cos(GRID.mesh[1])
    np.testing.assert_allclose(rho(pts), expect, atol=1e-15)
    lo, hi = rho.bounds
    assert lo == 1.0 and hi == 2.0
    vals = rho(pts)
    assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12
    # periodicity at unwrapped points
    shift = pts + np.array([3 * L[0], -2 * L[1]])
    np.testing.assert_allclose(rho(shift), vals, atol=1e-12)
    with pytest.raises(DomainError):
        SinusoidalDensity(1.0, 1.0, L)


def test_blob_density():
    rho = BlobDensity(1.0, 0.8, 0.6, (np.pi, np.pi), L)
    pts = grid_points(GRID)
    vals = rho(pts)
    lo, hi = rho.bounds
    assert lo > 1.0 and hi < 1.9
    assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12
    # peak at the center, closed-form bound attained there
    assert rho(np.array([np.pi, np.pi])) == pytest.approx(hi, rel=1e-12)
    assert rho(np.array([0.0, 0.0])) == pytest.approx(lo, rel=1e-12)
    # image sum makes it periodic
    np.testing.assert_allclose(rho(pts + np.array([L[0], 0.0])), vals, rtol=1e-12)


def test_phi_constant_and_modes():
    np.testing.assert_array_equal(phi_constant(GRID, -0.05), -0.05)
    # single mode (1, 0) with coefficient re=0.5: 2*0.5*cos(x)
    f = phi_modes(GRID, [(1, 0, 0.5, 0.0)])
    np.testing.assert_allclose(f, np.cos(GRID.mesh[0]), atol=1e-13)
    # imaginary part contributes -2 im sin(k.x)
    g = phi_modes(GRID, [(0, 2, 0.0, 0.25)])
    np.testing.assert_allclose(g, -0.5 * np.sin(2 * GRID.mesh[1]), atol=1e-13)
    # zero mode adds a constant
    h = phi_modes(GRID, [(0, 0, 0.3, 0.0)])
    np.testing.assert_allclose(h, 0.3, atol=1e-15)
    with pytest.raises(DomainError):
        phi_modes(GRID, [(11, 0, 1.0, 0.0)])  # outside the band at 32^2


def test_band_random_is_resolution_independent():
    a = phi_band_random(GRID, seed=7, kmax=2, amplitude=0.5, mean=-0.05)
    big = TorusGrid(L, (64, 64))
    b = phi_band_random(big, seed=7, kmax=2, amplitude=0.5, mean=-0.05)
    # the 32^2 collocation points are a subset of the 64^2 ones
    np.testing.assert_allclose(a, b[::2, ::2], atol=1e-12)
    assert abs(a - (-0.05)).max() <= 0.5 + 1e-12
    # the normalization peak is attained exactly on the reference grid
    ref = TorusGrid(L, (128, 128))
    r = phi_band_random(ref, seed=7, kmax=2, amplitude=0.5, mean=-0.05)
    assert abs(r - (-0.05)).max() == pytest.approx(0.5, rel=1e-12)
    # different seeds differ
    c = phi_band_random(GRID, seed=8, kmax=2, amplitude=0.5)
    assert np.abs(a + 0.05 - c).max() > 1e-3


def test_band_random_validation():
    with pytest.raises(DomainError):
        phi_band_random(GRID, seed=1, kmax=0, amplitude=0.5)
    with pytest.raises(DomainError):
        phi_band_random(GRID, seed=1, kmax=11, amplitude=0.5)


def test_velocity_profiles_divergence_free():
    for u in (
        u_taylor_green(GRID, 0.3),
        u_random_solenoidal(GRID, seed=3, kmax=3, amplitude=0.4),
    ):
        c = np.stack([GRID.to_spectral(u[0]), GRID.to_spectral(u[1])])
        div = GRID.div(c)
        assert np.abs(div).max() < 1e-13
    assert u_zero(GRID).shape == (2, 32, 32)
    assert np.all(u_zero(GRID) == 0)


def test_velocity_amplitude_normalization():
    u = u_taylor_green(GRID, 0.3)
    speed = np.sqrt(u[0] ** 2 + u[1] ** 2)
    assert speed.max() == pytest.approx(0.3, rel=1e-12)
    v = u_random_solenoidal(GRID, seed=3, kmax=3, amplitude=0.4)
    sp = np.sqrt(v[0] ** 2 + v[1] ** 2)
    assert sp.max() <= 0.4 + 1e-12
    # seed-stable across resolutions
    big = TorusGrid(L, (64, 64))
    vbig = u_random_solenoidal(big, seed=3, kmax=3, amplitude=0.4)
    np.testing.assert_allclose(v[:, :, :], vbig[:, ::2, ::2], atol=1e-12)


def test_rectangular_box_profiles():
    grid = TorusGrid((2 * np.pi, 4 * np.pi), (32, 64))
    u = u_taylor_green(grid, 1.0)
    c = np.stack([grid.to_spectral(u[0]), grid.to_spectral(u[1])])
    assert np.abs(grid.div(c)).max() < 1e-13
    rho = SinusoidalDensity(2.0, 0.5, (2 * np.pi, 4 * np.pi), k1=1, k2=2)
    pts = np.stack(grid.mesh, axis=-1)
    np.testing.assert_allclose(rho(pts + np.array([0.0, 4 * np.pi])), rho(pts), atol=1e-12)
