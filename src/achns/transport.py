"""Density transport by backward characteristics.

The density is never differentiated: each evaluation traces the foot of
the characteristic through the stored velocity history with RK4 and
samples the analytic initial profile there. Clamping to the initial
bounds then makes the maximum principle structural rather than
approximate.

Velocity history is stored per integrator step as a cubic polynomial in
time of the spectral coefficients (power basis in the local step
variable). Cubics, rather than linear slices, keep the characteristic
feet accurate enough that transport never limits the integrator's
convergence order.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .basis import TorusGrid
from .errors import DomainError, HistoryGapError
from .profiles import sampler_to_series

_EDGE_SLACK = 1e-9


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
    def steady(cls, t_start, dt, coef):
        z = np.zeros_like(coef)
        return cls(t_start, dt, np.stack([coef, z, z, z]))

    @classmethod
    def hermite(cls, t_start, dt, y0, dy0, y1, dy1):
        return cls(t_start, dt, hermite_power_coefs(dt, y0, dy0, y1, dy1))

    @property
    def t_end(self):
        return self.t_start + self.dt

    def coef_at(self, tau: float) -> np.ndarray:
        s = (tau - self.t_start) / self.dt
        c = self.coefs
        return c[0] + s * (c[1] + s * (c[2] + s * c[3]))

    def value_end(self) -> np.ndarray:
        c = self.coefs
        return c[0] + c[1] + c[2] + c[3]


class VelocityHistory:
    """Contiguous sequence of per-step velocity models on one grid."""

    def __init__(self, grid: TorusGrid, t0: float):
        self.grid = grid
        self.t0 = float(t0)
        self.records: list[StepRecord] = []
        self._starts: list[float] = []

    @property
    def t_end(self) -> float:
        return self.records[-1].t_end if self.records else self.t0

    @property
    def segment_boundaries(self) -> np.ndarray:
        return np.array(self._starts + [self.t_end])

    def append(self, record: StepRecord):
        if record.dt <= 0:
            raise DomainError("step record must advance time")
        gap = abs(record.t_start - self.t_end)
        if gap > _EDGE_SLACK * max(1.0, abs(self.t_end)):
            raise HistoryGapError(
                f"record starts at {record.t_start}, history ends at {self.t_end}"
            )
        self.records.append(record)
        self._starts.append(record.t_start)

    def _locate(self, tau: float) -> StepRecord:
        slack = _EDGE_SLACK * max(1.0, abs(tau))
        if not self.records or tau < self.t0 - slack or tau > self.t_end + slack:
            raise HistoryGapError(
                f"time {tau} outside the stored history [{self.t0}, {self.t_end}]"
            )
        i = bisect_right(self._starts, tau) - 1
        return self.records[max(0, min(i, len(self.records) - 1))]

    def coef_at(self, tau: float) -> np.ndarray:
        return self._locate(tau).coef_at(tau)

    def velocity_at(self, pts: np.ndarray, tau: float) -> np.ndarray:
        """Velocity (P, 2) at arbitrary points by band evaluation."""
        c = self.coef_at(tau)
        return _eval_velocity(self.grid, c, pts)


def _eval_velocity(grid, vcoef, pts):
    return grid.eval_at(vcoef, pts).T


def _rk4_span(model, grid, pts, t_a: float, t_b: float, n_sub: int):
    """Integrate dy/dtau = u(y, tau) from t_a to t_b (either direction)."""
    h = (t_b - t_a) / n_sub
    y = pts
    c_here = model.coef_at(t_a)
    for i in range(n_sub):
        tau = t_a + i * h
        c_mid = model.coef_at(tau + 0.5 * h)
        c_next = model.coef_at(tau + h) if i + 1 < n_sub else model.coef_at(t_b)
        k1 = _eval_velocity(grid, c_here, y)
        k2 = _eval_velocity(grid, c_mid, y + 0.5 * h * k1)
        k3 = _eval_velocity(grid, c_mid, y + 0.5 * h * k2)
        k4 = _eval_velocity(grid, c_next, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        c_here = c_next
    return y


def trace_points(model, pts, t_from: float, t_to: float, dt_char=None) -> np.ndarray:
    """Feet of characteristics for a batch of points (P, 2), unwrapped.

    Integration is split at the model's own step boundaries (the
    velocity is only piecewise-smooth in time there), and each segment
    is subdivided to at most dt_char.
    """
    grid = model.grid
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    y = np.atleast_2d(pts).astype(float)
    if t_from == t_to:
        return y[0].copy() if single else y.copy()
    lo, hi = min(t_from, t_to), max(t_from, t_to)
    slack = _EDGE_SLACK * max(1.0, abs(lo), abs(hi))
    inner = [b for b in np.asarray(model.segment_boundaries) if lo + slack < b < hi - slack]
    times = [t_from] + sorted(inner, reverse=t_to < t_from) + [t_to]
    for t_a, t_b in zip(times[:-1], times[1:]):
        span = abs(t_b - t_a)
        n_sub = 1 if dt_char is None else max(1, math.ceil(span / dt_char - 1e-12))
        y = _rk4_span(model, grid, y, t_a, t_b, n_sub)
    return y[0] if single else y


def wrap_points(pts, lengths):
    return np.mod(pts, np.asarray(lengths, dtype=float))


def trace_back(u_history: VelocityHistory, x, t_from: float, t_to: float,
               dt_char: float) -> np.ndarray:
    """Characteristic foot at t_to of the point x at t_from, wrapped
    into the periodic box."""
    if t_to > t_from:
        raise DomainError("trace_back integrates backward: need t_to <= t_from")
    if not dt_char > 0:
        raise DomainError("dt_char must be positive")
    u_history._locate(t_from)
    u_history._locate(t_to)
    feet = trace_points(u_history, x, t_from, t_to, dt_char)
    return wrap_points(feet, u_history.grid.lengths)


def _require_bounds(rho0):
    try:
        lo, hi = rho0.bounds
    except AttributeError as exc:
        raise DomainError("density sampler must expose exact range bounds") from exc
    return float(lo), float(hi)


def advect_density(rho0, u_history: VelocityHistory, t: float,
                   dt_char=None) -> DensityField:
    """Density at time t: initial profile sampled at characteristic feet."""
    grid = u_history.grid
    lo, hi = _require_bounds(rho0)
    pts = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    feet = trace_points(u_history, pts, t, u_history.t0, dt_char)
    vals = np.clip(np.asarray(rho0(feet), dtype=float).reshape(grid.n_grid), lo, hi)
    return DensityField(vals, lo, hi)


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
