"""Density transport by backward characteristics.

The density is never differentiated. Over one time step the feet of
the characteristics through the collocation points are traced back with
one RK4 step in that step's velocity model, a cubic in time of the
spectral coefficients (`StepRecord`). The foot map is composed with the
displacement accumulated over the earlier steps, and the analytic
initial profile is sampled at the composed feet. Clamping to the initial
bounds then makes the maximum principle structural rather than
approximate. Cubics, rather than linear slices, keep the feet accurate
enough that transport never limits the integrator's convergence order.
"""

from dataclasses import dataclass

import numpy as np

from .basis import TorusGrid
from .errors import DomainError
from .profiles import sampler_to_series


@dataclass(frozen=True)
class DensityField:
    """Collocation values of the density plus the exact initial bounds."""

    values: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo > 0:
            raise DomainError(f"density lower bound must be positive, got {self.lo}")
        if self.lo > self.hi:
            raise DomainError("density bounds out of order")
        v = self.values
        if v.min() < self.lo - 1e-12 or v.max() > self.hi + 1e-12:
            raise DomainError("density values violate the carried bounds")


def hermite_power_coefs(dt: float, y0, dy0, y1, dy1) -> np.ndarray:
    """Power-basis coefficients (in s = (t - t0)/dt) of the cubic with
    endpoint values y0, y1 and endpoint time-derivatives dy0, dy1."""
    y0 = np.asarray(y0, dtype=complex)
    y1 = np.asarray(y1, dtype=complex)
    c1 = dt * np.asarray(dy0, dtype=complex)
    d1 = dt * np.asarray(dy1, dtype=complex)
    c2 = -3 * y0 - 2 * c1 + 3 * y1 - d1
    c3 = 2 * y0 + c1 - 2 * y1 + d1
    return np.stack([y0, c1, c2, c3])


@dataclass(frozen=True)
class StepRecord:
    """One step's velocity model: spectral coefficients cubic in time.

    coefs has shape (4,) + field shape; the model at time tau is
    coefs[0] + s coefs[1] + s^2 coefs[2] + s^3 coefs[3], s = (tau - t_start)/dt.
    """

    t_start: float
    dt: float
    coefs: np.ndarray

    @classmethod
    def hermite(cls, t_start, dt, y0, dy0, y1, dy1):
        return cls(t_start, dt, hermite_power_coefs(dt, y0, dy0, y1, dy1))

    def coef_at(self, tau: float) -> np.ndarray:
        s = (tau - self.t_start) / self.dt
        c = self.coefs
        return c[0] + s * (c[1] + s * (c[2] + s * c[3]))


def trace_points(grid: TorusGrid, record: StepRecord, pts, t_from: float,
                 t_to: float) -> np.ndarray:
    """Feet at t_to of the characteristics through the points pts (P, 2)
    at t_from, unwrapped: one RK4 step of dy/dtau = u(y, tau) in the
    record's velocity model, in either direction of time."""
    h = t_to - t_from
    c_mid = record.coef_at(t_from + 0.5 * h)
    k1 = grid.eval_at(record.coef_at(t_from), pts).T
    k2 = grid.eval_at(c_mid, pts + 0.5 * h * k1).T
    k3 = grid.eval_at(c_mid, pts + 0.5 * h * k2).T
    k4 = grid.eval_at(record.coef_at(t_to), pts + h * k3).T
    return pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _require_bounds(rho0):
    try:
        lo, hi = rho0.bounds
    except AttributeError as exc:
        raise DomainError("density sampler must expose exact range bounds") from exc
    return float(lo), float(hi)


def mollify_initial_density(rho0_raw, width: float, lengths=None):
    """Gaussian mollification of an initial profile; width 0 is the
    identity. Profiles with a closed-form smoothing use it; anything
    else is projected on a finite Fourier series first."""
    if width < 0:
        raise DomainError("mollification width must be nonnegative")
    if width == 0:
        return rho0_raw
    if hasattr(rho0_raw, "mollified"):
        return rho0_raw.mollified(width)
    if lengths is None:
        raise DomainError("generic samplers need the box lengths to mollify")
    return sampler_to_series(rho0_raw, lengths).mollified(width)


# --- displacement bookkeeping used by the time stepper -----------------------

def evaluate_displacement(grid: TorusGrid, disp: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Spectrally evaluate a grid-sampled periodic displacement (2, n1, n2)
    at arbitrary points, returning (P, 2)."""
    return grid.eval_at(grid.to_spectral(disp), pts).T


def compose_displacement(grid: TorusGrid, disp_prev, feet: np.ndarray) -> np.ndarray:
    """Total backward displacement after one more step.

    feet are the one-step characteristic feet of the collocation points
    (unwrapped, shape (P, 2)); disp_prev is the accumulated displacement
    field (2, n1, n2) or None at the first step. The new total
    displacement at a grid point x is (feet(x) - x) + D_prev(feet(x)).
    """
    pts = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    delta = feet - pts
    if disp_prev is not None:
        delta = delta + evaluate_displacement(grid, disp_prev, feet)
    return delta.T.reshape((2,) + grid.n_grid)


def density_from_displacement(rho0, grid: TorusGrid, disp) -> DensityField:
    """Sample the initial profile at x + D(x) and clamp to its bounds."""
    lo, hi = _require_bounds(rho0)
    pts = np.stack(grid.mesh, axis=-1)
    if disp is not None:
        pts = pts + np.moveaxis(disp, 0, -1)
    vals = np.clip(np.asarray(rho0(pts), dtype=float), lo, hi)
    return DensityField(vals, lo, hi)
