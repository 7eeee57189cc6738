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

from .basis import Jet, TorusGrid
from .errors import DomainError


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
        if not (v.min() >= self.lo - 1e-12 and v.max() <= self.hi + 1e-12):
            raise DomainError("density values violate the carried bounds")


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
        """The cubic with endpoint values y0, y1 and time-derivatives dy0, dy1."""
        y0 = np.asarray(y0, dtype=complex)
        y1 = np.asarray(y1, dtype=complex)
        c1 = dt * np.asarray(dy0, dtype=complex)
        d1 = dt * np.asarray(dy1, dtype=complex)
        c2 = -3 * y0 - 2 * c1 + 3 * y1 - d1
        c3 = 2 * y0 + c1 - 2 * y1 + d1
        return cls(t_start, dt, np.stack([y0, c1, c2, c3]))

    def coef_at(self, tau: float) -> np.ndarray:
        s = (tau - self.t_start) / self.dt
        c = self.coefs
        return c[0] + s * (c[1] + s * (c[2] + s * c[3]))


def trace_points(grid: TorusGrid, record: StepRecord, pts, t_froms, t_to: float) -> list:
    """Feet at t_to of the characteristics through the points pts (P, 2)
    from each time of t_froms, unwrapped: one RK4 step of dy/dtau = u(y, tau)
    each in the record's velocity model, in either direction of time. The
    traces share one jet per model time (start, midpoint, t_to), visited
    from the farthest from t_to in and dropped before the next is built.
    A midpoint within one ulp of a start (`rk4_step`'s t + h/2) reads the
    model at that start, so the two share one jet.
    """
    hs = [t_to - s for s in t_froms]
    mids = [s + 0.5 * h for s, h in zip(t_froms, hs)]
    mids = [next((s for s in t_froms if abs(s - m) <= np.spacing(abs(m))), m) for m in mids]
    ks = [[] for _ in t_froms]
    for tau in sorted({*t_froms, *mids, t_to}, key=lambda tau: -abs(tau - t_to)):
        jet = Jet(grid, record.coef_at(tau))
        for s, h, mid, k in zip(t_froms, hs, mids, ks):
            if tau == s:
                k.append(grid.eval_at(jet, pts).T)
            if tau == mid:
                k.append(grid.eval_at(jet, pts + 0.5 * h * k[0]).T)
                k.append(grid.eval_at(jet, pts + 0.5 * h * k[1]).T)
            if tau == t_to:
                k.append(grid.eval_at(jet, pts + h * k[2]).T)
        del jet
    return [pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4) for h, (k1, k2, k3, k4) in zip(hs, ks)]


# --- displacement bookkeeping used by the time stepper -----------------------

def compose_displacement(grid: TorusGrid, prev, feet: np.ndarray) -> np.ndarray:
    """Total backward displacement after one more step.

    feet are the one-step characteristic feet of the collocation points
    (unwrapped, shape (P, 2)); prev is a `Jet` of the accumulated
    displacement field (2, n1, n2), or None at the first step. The new
    total displacement at a grid point x is (feet(x) - x) + D_prev(feet(x)).
    """
    pts = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    delta = feet - pts
    if prev is not None:
        delta = delta + grid.eval_at(prev, feet).T
    return delta.T.reshape((2,) + grid.n_grid)


def density_from_displacement(rho0, grid: TorusGrid, disp) -> DensityField:
    """Sample the initial profile at x + D(x) and clamp to its bounds."""
    try:
        lo, hi = map(float, rho0.bounds)
    except AttributeError as exc:
        raise DomainError("density sampler must expose exact range bounds") from exc
    pts = np.stack(grid.mesh, axis=-1)
    if disp is not None:
        pts = pts + np.moveaxis(disp, 0, -1)
    vals = np.clip(np.asarray(rho0(pts), dtype=float), lo, hi)
    return DensityField(vals, lo, hi)
