import numpy as np
import pytest

from achns.basis import Jet, TorusGrid
from achns.errors import DomainError
from achns.profiles import (
    ConstantDensity,
    SinusoidalDensity,
    u_random_solenoidal,
    u_taylor_green,
)
from achns.transport import (
    DensityField,
    StepRecord,
    compose_displacement,
    density_from_displacement,
    trace_points,
)

L = (2 * np.pi, 2 * np.pi)
GRID = TorusGrid(L, (32, 32))


def steady_records(grid, u_grid, t0, t1, n_records=1):
    """Consecutive one-step records of a time-independent velocity field."""
    coef = grid.to_spectral(u_grid)
    z = np.zeros_like(coef)
    dt = (t1 - t0) / n_records
    return [StepRecord(t0 + i * dt, dt, np.stack([coef, z, z, z])) for i in range(n_records)]


def constant_velocity_records(grid, c, t0, t1, n_records=1):
    u = np.zeros((2,) + grid.n_grid)
    u[0] += c[0]
    u[1] += c[1]
    return steady_records(grid, u, t0, t1, n_records)


def trace_chain(grid, records, pts, backward=True):
    """Feet through consecutive records, one RK4 step in each: from the
    end of the last record back to the start of the first, or forward."""
    y = pts
    for rec in (reversed(records) if backward else records):
        t0, t1 = rec.t_start, rec.t_start + rec.dt
        y = (trace_points(grid, rec, y, (t1,), t0) if backward
             else trace_points(grid, rec, y, (t0,), t1))[0]
    return y


def advected(rho0, grid, records):
    """Density at the end of the records: the initial profile sampled at
    the chained feet of the collocation points, clamped to its bounds."""
    pts = grid_pts(grid)
    feet = trace_chain(grid, records, pts)
    return density_from_displacement(rho0, grid, (feet - pts).T.reshape((2,) + grid.n_grid))


def grid_pts(grid):
    return np.stack(grid.mesh, axis=-1).reshape(-1, 2)


def test_zero_velocity_traces_to_identity():
    rec = constant_velocity_records(GRID, (0.0, 0.0), 0.0, 1.0)[0]
    pts = grid_pts(GRID)
    np.testing.assert_array_equal(trace_points(GRID, rec, pts, (1.0,), 0.0)[0], pts)
    np.testing.assert_array_equal(trace_points(GRID, rec, pts, (0.0,), 1.0)[0], pts)


def test_constant_velocity_translates():
    c = (0.7, -0.3)
    x = np.array([[0.5, 1.5]])
    rec = constant_velocity_records(GRID, c, 0.0, 2.0)[0]
    np.testing.assert_allclose(trace_points(GRID, rec, x, (2.0,), 0.0)[0],
                               [[0.5 - 1.4, 1.5 + 0.6]], atol=1e-12)
    # feet are unwrapped, and a chain of records adds the shifts
    chained = trace_chain(GRID, constant_velocity_records(GRID, c, 0.0, 2.0, 8), x)
    np.testing.assert_allclose(chained, [[0.5 - 1.4, 1.5 + 0.6]], atol=1e-12)


def test_self_convergence_of_foot_accuracy():
    # swirling cellular field; refine the chain 10x and compare
    u = u_taylor_green(GRID, 0.8)
    pts = grid_pts(GRID)[::7]
    coarse = trace_chain(GRID, steady_records(GRID, u, 0.0, 0.5, 10), pts)
    fine = trace_chain(GRID, steady_records(GRID, u, 0.0, 0.5, 100), pts)
    assert np.abs(coarse - fine).max() < 1e-8


def test_reversibility():
    u = u_random_solenoidal(GRID, seed=11, kmax=3, amplitude=0.5)
    records = steady_records(GRID, u, 0.0, 1.0, n_records=50)
    pts = grid_pts(GRID)[::13]
    back = trace_chain(GRID, records, pts)
    forth = trace_chain(GRID, records, back, backward=False)
    assert np.abs(forth - pts).max() < 1e-8


def test_trace_follows_a_time_dependent_record():
    # u(x, tau) = (1 + tau^3) c: the foot is x - c (dt + dt^4 / 4), which
    # one RK4 step of the cubic model integrates exactly
    c = np.array([0.3, -0.2])
    u = np.zeros((2,) + GRID.n_grid)
    u[0] += c[0]
    u[1] += c[1]
    coef = GRID.to_spectral(u)
    z = np.zeros_like(coef)
    dt = 0.5
    rec = StepRecord(0.0, dt, np.stack([coef, z, z, dt**3 * coef]))
    x = grid_pts(GRID)[:9]
    foot = trace_points(GRID, rec, x, (dt,), 0.0)[0]
    np.testing.assert_allclose(foot, x - c * (dt + dt**4 / 4), atol=1e-13)


def test_hermite_record_endpoint_identities():
    rng = np.random.default_rng(5)
    shape = (2, 8, 8)
    y0, dy0, y1, dy1 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                        for _ in range(4))
    rec = StepRecord.hermite(2.0, 0.25, y0, dy0, y1, dy1)
    np.testing.assert_allclose(rec.coef_at(2.0), y0, atol=1e-14)
    np.testing.assert_allclose(rec.coef_at(2.25), y1, atol=1e-13)
    # endpoint slopes of the cubic in tau: c1/dt and (c1+2c2+3c3)/dt
    c = rec.coefs
    np.testing.assert_allclose(c[1] / 0.25, dy0, atol=1e-13)
    np.testing.assert_allclose((c[1] + 2 * c[2] + 3 * c[3]) / 0.25, dy1, atol=1e-12)


def test_advect_constant_density():
    rho0 = ConstantDensity(1.3)
    u = u_random_solenoidal(GRID, seed=2, kmax=2, amplitude=0.6)
    field = advected(rho0, GRID, steady_records(GRID, u, 0.0, 1.0, n_records=20))
    np.testing.assert_array_equal(field.values, 1.3)
    assert (field.lo, field.hi) == (1.3, 1.3)


def test_advect_zero_velocity_is_exact():
    rho0 = SinusoidalDensity(1.5, 0.5, L, k1=1, k2=1)
    field = advected(rho0, GRID, constant_velocity_records(GRID, (0.0, 0.0), 0.0, 1.0, 10))
    np.testing.assert_allclose(field.values, rho0(np.stack(GRID.mesh, -1)), atol=1e-14)


def test_advect_constant_velocity_translation():
    rho0 = SinusoidalDensity(1.5, 0.5, L, k1=1, k2=0)
    c = (0.4, 0.0)
    field = advected(rho0, GRID, constant_velocity_records(GRID, c, 0.0, 0.8, 16))
    x, y = GRID.mesh
    exact = 1.5 + 0.5 * np.sin(x - 0.4 * 0.8)
    np.testing.assert_allclose(field.values, exact, atol=1e-10)


def test_maximum_principle_is_structural():
    rho0 = SinusoidalDensity(1.5, 0.5, L, k1=1, k2=1)
    u = u_random_solenoidal(GRID, seed=9, kmax=4, amplitude=1.0)
    for t in (0.2, 0.6, 1.0):
        field = advected(rho0, GRID, steady_records(GRID, u, 0.0, t, round(t / 0.02)))
        assert field.values.min() >= 1.0
        assert field.values.max() <= 2.0


def test_mass_conservation_under_solenoidal_flow():
    rho0 = SinusoidalDensity(1.5, 0.5, L, k1=1, k2=1)
    u = u_taylor_green(GRID, 0.5)
    m0 = GRID.quadrature(density_from_displacement(rho0, GRID, None).values)
    m1 = GRID.quadrature(advected(rho0, GRID, steady_records(GRID, u, 0.0, 1.0, 50)).values)
    assert abs(m1 - m0) / abs(m0) < 1e-6


def test_density_field_validation():
    with pytest.raises(DomainError):
        DensityField(np.ones((4, 4)), 0.0, 2.0)
    with pytest.raises(DomainError):
        DensityField(np.full((4, 4), 3.0), 1.0, 2.0)
    with pytest.raises(DomainError):
        DensityField(np.ones((4, 4)), 2.0, 1.0)


def test_density_field_refuses_nan():
    with pytest.raises(DomainError, match="violate the carried bounds"):
        DensityField(np.full((8, 8), np.nan), 1.0, 2.0)
    values = np.full((8, 8), 1.5)
    values[3, 5] = np.nan
    with pytest.raises(DomainError, match="violate the carried bounds"):
        DensityField(values, 1.0, 2.0)


def test_displacement_composition_matches_direct_trace():
    # velocity linear in time: exactly representable by the cubic model
    base = u_taylor_green(GRID, 0.4)
    c0 = GRID.to_spectral(base)
    dt = 0.05
    records = [
        StepRecord.hermite(
            t0, dt, c0 * (1 + 0.3 * t0), 0.3 * c0, c0 * (1 + 0.3 * (t0 + dt)), 0.3 * c0
        )
        for t0 in (0.0, dt)
    ]
    pts = grid_pts(GRID)
    direct = trace_chain(GRID, records, pts)

    disp = None
    for rec in records:
        feet = trace_points(GRID, rec, pts, (rec.t_start + dt,), rec.t_start)[0]
        prev = None if disp is None else Jet(GRID, GRID.to_spectral(disp))
        disp = compose_displacement(GRID, prev, feet)
    composed = pts + np.moveaxis(disp, 0, -1).reshape(-1, 2)
    assert np.abs(composed - direct).max() < 1e-7

    rho0 = SinusoidalDensity(1.5, 0.5, L, k1=1, k2=1)
    via_disp = density_from_displacement(rho0, GRID, disp)
    via_trace = advected(rho0, GRID, records)
    np.testing.assert_allclose(via_disp.values, via_trace.values, atol=1e-7)


def test_evaluate_displacement_matches_grid_values():
    rng = np.random.default_rng(3)
    c = np.zeros(GRID.band_shape, dtype=complex)
    c[1, 2] = 0.3 + 0.1j  # and its conjugate at (-1, -2)
    disp = np.stack([GRID.to_grid(c), -2 * GRID.to_grid(c)])
    pts = grid_pts(GRID)
    vals = GRID.eval_at(Jet(GRID, GRID.to_spectral(disp)), pts).T
    np.testing.assert_allclose(vals[:, 0], disp[0].ravel(), atol=1e-12)
    np.testing.assert_allclose(vals[:, 1], disp[1].ravel(), atol=1e-12)


@pytest.mark.parametrize("n, dt", [(32, 0.004), (128, 2e-5)])
def test_stepper_evaluations_match_the_dense_sum(n, dt, monkeypatch):
    # one step of the stepper's transport at its own dt: the feet and the
    # composed displacement take the Taylor path and agree with the
    # dense trigonometric sum
    grid = TorusGrid(L, (n, n))
    u = u_random_solenoidal(grid, seed=5, kmax=6, amplitude=0.5)
    rec = steady_records(grid, u, 0.0, dt)[0]
    pts = grid_pts(grid)
    feet = trace_points(grid, rec, pts, (dt,), 0.0)[0]
    disp = compose_displacement(grid, None, feet)
    assert grid._plan(feet, grid.to_spectral(u))[2] is not None
    vel = grid.eval_at(Jet(grid, grid.to_spectral(u)), feet).T
    twice = compose_displacement(grid, Jet(grid, grid.to_spectral(disp)), feet)

    def dense(self, coef, points):
        coef = coef.coef if isinstance(coef, Jet) else np.asarray(coef)
        return self._eval_dense(coef, np.asarray(points, dtype=float))

    monkeypatch.setattr(TorusGrid, "eval_at", dense)
    feet_dense = trace_points(grid, rec, pts, (dt,), 0.0)[0]
    step = np.abs(feet_dense - pts).max()
    # the feet are absolute positions, so one ulp of a coordinate is the
    # floor under the gap; at 32^2 it exceeds 1e-13 * step
    assert np.abs(feet - feet_dense).max() <= 1e-13 * step + np.spacing(np.abs(pts).max())
    vel_dense = grid.eval_at(Jet(grid, grid.to_spectral(u)), feet).T
    assert np.abs(vel - vel_dense).max() <= 1e-13 * np.abs(vel_dense).max()
    twice_dense = compose_displacement(grid, Jet(grid, grid.to_spectral(disp)), feet)
    assert np.abs(twice - twice_dense).max() <= 1e-13 * np.abs(twice_dense).max()
