"""Trajectory observables and a-priori bounds.

Three groups live here:

* the energy ledger of a flow state (kinetic, surface, potential) with
  the matching dissipation rates, plus the discrete energy-law residual
  of a sampled trajectory;
* a finite-difference time-regularity seminorm of exponent 1/4 for
  scalar time series, used to certify quarter-Holder control of norms
  along a run;
* the blow-up horizon of the comparison inequality y' <= c1 y^2 + g0,
  whose solution stays below an explicit hyperbola until an explicit
  time t_star.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.integrate import solve_ivp

from .anisotropy import AnisotropyModel, gamma_sq
from .basis import TorusGrid
from .dynamics import FlowState, MaterialLaws
from .errors import DomainError, HorizonError
from .potential import PotentialSpec, f_eps, f_eps_prime

#: exponent of the finite-difference time-regularity seminorm
HOLDER_EXPONENT = 0.25


# --- energy ledger -----------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Energy components, dissipation rates and invariants at one time.

    Energies are integrals over the box: e_kin = int rho |u|^2 / 2,
    e_surf = int (grad phi)^T M (grad phi) / 2, e_pot = int rho F(phi)
    with the regularized potential. d_visc pairs the symmetric stress
    with the velocity gradient (so it is twice the classical enstrophy
    integral), matching the momentum assembly exactly; d_diff is the
    mobility-weighted square gradient of the chemical potential.
    """

    t: float
    e_kin: float
    e_surf: float
    e_pot: float
    e_total: float
    d_visc: float
    d_diff: float
    mass_rho: float
    mass_rhophi: float
    f_eps_prime_l6: float

    @property
    def dissipation(self):
        return self.d_visc + self.d_diff


def energy_report(grid: TorusGrid, state: FlowState, laws: MaterialLaws,
                  model: AnisotropyModel, spec: PotentialSpec) -> EnergyReport:
    """Evaluate the full energy ledger of one state by collocation
    quadrature."""
    rho = state.rho.values
    # the assembly's 12 band fields by one transform, to share its pad buffer; mu is unread
    bands = [state.u, state.phi, grid.grad(state.phi), state.mu, grid.grad(state.u),
             grid.grad(state.mu)]
    vals = grid.to_grid(np.concatenate([b.reshape((-1,) + grid.band_shape) for b in bands]))
    ug, phig, gphi_vals, gmu = vals[:2], vals[2], vals[3:5], vals[10:12]

    e_kin = 0.5 * grid.quadrature(rho * (ug[0] ** 2 + ug[1] ** 2))
    e_surf = 0.5 * grid.quadrature(gamma_sq(model, np.moveaxis(gphi_vals, 0, -1)))
    e_pot = grid.quadrature(rho * f_eps(spec, phig))

    # velocity gradient tensor d_j u_i and the symmetric stress pairing
    du = vals[6:10].reshape((2, 2) + grid.n_grid)
    contraction = np.sum((du + du.swapaxes(0, 1)) * du, axis=(0, 1))
    d_visc = grid.quadrature(laws.nu(phig) * contraction)
    d_diff = grid.quadrature(laws.mobility(phig) * (gmu[0] ** 2 + gmu[1] ** 2))

    fpr = f_eps_prime(spec, phig)
    return EnergyReport(
        t=state.t,
        e_kin=e_kin,
        e_surf=e_surf,
        e_pot=e_pot,
        e_total=e_kin + e_surf + e_pot,
        d_visc=d_visc,
        d_diff=d_diff,
        mass_rho=grid.quadrature(rho),
        mass_rhophi=grid.quadrature(rho * phig),
        f_eps_prime_l6=grid.quadrature(np.abs(fpr) ** 6) ** (1.0 / 6.0),
    )


def energy_law_residual(reports, dt: float):
    """Per-interval defect of the discrete energy law.

    For consecutive reports the defect is
    E(t_{n+1}) - E(t_n) + dt * (D_{n+1} + D_n) / 2 with D the total
    dissipation rate; it vanishes at the order of the time
    discretization. Returns (residual array, max abs residual).
    """
    if len(reports) < 2:
        raise DomainError("energy-law residual needs at least two samples")
    if not dt > 0:
        raise DomainError("dt must be positive")
    e = np.array([r.e_total for r in reports])
    d = np.array([r.dissipation for r in reports])
    res = e[1:] - e[:-1] + dt * 0.5 * (d[1:] + d[:-1])
    return res, float(np.max(np.abs(res)))


class EnergyCsvWriter:
    """Streaming sink: one CSV row of the energy ledger per emitted state.

    The columns are `EnergyReport`'s fields and the energy-law residual of
    the step ending at the row (0 on the first); only the first and last
    reports are kept. Rows carry 17 significant digits so that re-parsing
    reproduces the binary doubles exactly; each row is flushed as soon as
    it is written, so a crashed run leaves a valid prefix behind.
    """

    COLUMNS = tuple(f.name for f in fields(EnergyReport)) + ("energy_residual",)

    def __init__(self, stream, grid, laws, model, spec):
        self.stream = stream
        self.grid = grid
        self.laws = laws
        self.model = model
        self.spec = spec
        self.first = self.last = None
        stream.write(",".join(self.COLUMNS) + "\n")
        stream.flush()

    def __call__(self, state: FlowState):
        rep = energy_report(self.grid, state, self.laws, self.model, self.spec)
        prev = self.last
        resid = energy_law_residual([prev, rep], rep.t - prev.t)[0][0] if prev else 0.0
        self.first = self.first or rep
        self.last = rep
        row = astuple(rep) + (resid,)
        self.stream.write(",".join(f"{v:.17g}" for v in row) + "\n")
        self.stream.flush()


# --- quarter-Holder seminorm of time series -----------------------------------

def _check_series(series, p, sample_dt):
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise DomainError("time series must be one-dimensional")
    if series.shape[0] < 4:
        raise DomainError("time series needs at least 4 samples")
    if not np.all(np.isfinite(series)):
        raise DomainError("time series contains non-finite values")
    if not 0 < sample_dt < math.inf:
        raise DomainError(f"sample_dt must be positive and finite, got {sample_dt}")
    p = float(p)
    if p not in (2.0, math.inf):
        raise DomainError("only p=2 and p=inf are supported")
    return series, p


def _lp_in_time(vals, p, dt):
    """Time L^p norm of samples on a uniform grid spanning their range.

    p=inf is the max; p=2 uses the trapezoid rule (a single sample spans
    an empty interval and contributes zero).
    """
    if p == math.inf:
        return float(np.max(np.abs(vals)))
    if vals.shape[0] < 2:
        return 0.0
    sq = vals * vals
    integral = dt * (np.sum(sq) - 0.5 * sq[0] - 0.5 * sq[-1])
    return float(np.sqrt(integral))


def besov_seminorm(series, p, sample_dt: float) -> float:
    """Finite-difference seminorm sup_h h^(-1/4) ||f(.+h) - f(.)||_p.

    The shift h runs over every positive multiple of sample_dt up to the
    full span of the series, inclusive, so a ramp attains its supremum
    at the endpoint difference.
    """
    series, p = _check_series(series, p, sample_dt)
    n = series.shape[0]
    best = 0.0
    for j in range(1, n):
        diffs = series[j:] - series[:-j]
        amp = _lp_in_time(diffs, p, sample_dt)
        h = j * sample_dt
        best = max(best, amp / h**HOLDER_EXPONENT)
    return best


def besov_norm(series, p, sample_dt: float) -> float:
    """Seminorm plus the plain time L^p norm of the series."""
    checked, pv = _check_series(series, p, sample_dt)
    return _lp_in_time(checked, pv, sample_dt) + besov_seminorm(series, p, sample_dt)


# --- quadratic-growth blow-up horizon ----------------------------------------

@dataclass(frozen=True)
class BihariBound:
    """Explicit majorant for y' <= c1 y^2 + g0, y(0) = y0.

    Any such y satisfies y(t) <= (y0 + g0 t) / (1 - c1 t (y0 + g0 t))
    strictly before t_star, the positive root of the denominator; the
    majorant blows up there.
    """

    c1: float
    g0: float
    y0: float
    t_star: float


def bihari_horizon(c1: float, g0: float, y0: float) -> BihariBound:
    """Guaranteed-existence horizon for the quadratic growth inequality."""
    if not 0 < c1 < math.inf:
        raise DomainError(f"c1 must be positive and finite, got {c1}")
    if not 0 < y0 < math.inf:
        raise DomainError(f"y0 must be positive and finite, got {y0}")
    if not 0 <= g0 < math.inf:
        raise DomainError(f"g0 must be nonnegative and finite, got {g0}")
    b = c1 * y0
    # positive root of c1 g0 T^2 + c1 y0 T - 1, rationalized so g0 -> 0
    # degenerates smoothly to 1/(c1 y0)
    t_star = 2.0 / (b + math.sqrt(b * b + 4.0 * c1 * g0))
    return BihariBound(float(c1), float(g0), float(y0), t_star)


def bihari_bound_at(bound: BihariBound, t: float) -> float:
    """Evaluate the majorant at time t; only defined strictly before the
    horizon."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t >= bound.t_star:
        raise HorizonError(
            f"t={t} is at or beyond the blow-up horizon t_star={bound.t_star}"
        )
    w = bound.y0 + bound.g0 * t
    return w / (1.0 - bound.c1 * t * w)


def bihari_check(bound: BihariBound | None = None, n_trials: int = 20,
                 seed: int = 20260815) -> bool:
    """Verify the majorant against high-accuracy integrations of the
    saturated equation y' = c1 y^2 + g0.

    Checks the given bound (if any) plus n_trials random parameter
    triples drawn from [0.1, 10]^3, each on a grid reaching 95% of its
    horizon. Returns True when every integrated solution stays below
    the majorant up to 1e-6 relative slack.
    """
    if n_trials < 0:
        raise DomainError(f"n_trials must be nonnegative, got {n_trials}")
    cases = [] if bound is None else [bound]
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        c1, g0, y0 = rng.uniform(0.1, 10.0, size=3)
        cases.append(bihari_horizon(c1, g0, y0))
    ok = True
    for case in cases:
        t_hi = 0.95 * case.t_star
        grid = np.linspace(0.0, t_hi, 48)
        sol = solve_ivp(
            lambda t, y: case.c1 * y * y + case.g0,
            (0.0, t_hi),
            [case.y0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            t_eval=grid,
        )
        if not sol.success:
            return False
        majorant = np.array([bihari_bound_at(case, t) for t in grid])
        if not np.all(sol.y[0] <= majorant * (1.0 + 1e-6)):
            ok = False
    return ok
