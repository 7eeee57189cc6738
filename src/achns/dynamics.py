"""Galerkin dynamics of the coupled density / velocity / order-parameter
system on the periodic box.

State layout: velocity and order parameter live as retained-band
spectral coefficients; the density is carried as an exact composition
of the initial profile with an accumulated backward displacement, so
its bounds never degrade. The chemical potential is slaved: it solves a
density-weighted linear system at every evaluation.

One RK4 stage engine, `rk4_step`, advances (u, phi) over one step with
the density riding the characteristics of a given velocity model. Two
maps call it: the nonlinear stepper `step` with the self-consistent
right-hand side, and the frozen-coefficient map of `fixedpoint` with the
linearized one. `step` makes two passes. The first predicts the
end-of-step velocity with a linear-in-time velocity model for the
characteristic feet; the second rebuilds the stage densities from the
cubic Hermite model through the predicted end and recomputes the stages.
That keeps the density consistent with the stage velocities to fifth
order locally, which preserves the integrator's fourth-order
self-convergence.
"""

from dataclasses import dataclass

import numpy as np

from .anisotropy import AnisotropyModel, QUADRATIC_FORM, check_hypotheses, xi_cap
from .basis import TorusGrid
from .errors import BlowUpError, DomainError, SolverError, StabilityError
from .potential import PotentialSpec, f_eps_prime, validate_eps
from .transport import (
    DensityField,
    StepRecord,
    compose_displacement,
    density_from_displacement,
    trace_points,
)

DEFAULT_RTOL = 1e-13
_MAX_CG_ITER = 400


@dataclass(frozen=True)
class MaterialLaws:
    """Viscosity and mobility at the pure phases, interpolated affinely
    in the order parameter and clamped to the endpoint range."""

    nu_minus: float
    nu_plus: float
    d_minus: float
    d_plus: float

    def __post_init__(self):
        for name in ("nu_minus", "nu_plus", "d_minus", "d_plus"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")

    def _affine(self, lo, hi, s):
        val = lo + (hi - lo) * (np.asarray(s) + 1.0) / 2.0
        return np.clip(val, min(lo, hi), max(lo, hi))

    def nu(self, s):
        return self._affine(self.nu_minus, self.nu_plus, s)

    def mobility(self, s):
        return self._affine(self.d_minus, self.d_plus, s)

    @property
    def nu_max(self):
        return max(self.nu_minus, self.nu_plus)

    @property
    def d_max(self):
        return max(self.d_minus, self.d_plus)


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    n_modes_u: int | None = None
    n_modes_phi: int | None = None
    stability_safety: float = 1.0
    allow_unstable_dt: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError("dt must be positive")
        if self.t_end < 0:
            raise DomainError("t_end must be nonnegative")
        if not 0 < self.stability_safety <= 1:
            raise DomainError("stability_safety must lie in (0, 1]")


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot: time, spectral u and phi, density field,
    slaved chemical potential, and the accumulated backward
    displacement that reproduces rho from the initial profile."""

    t: float
    u: np.ndarray
    phi: np.ndarray
    rho: DensityField
    mu: np.ndarray
    disp: np.ndarray | None = None


@dataclass(frozen=True)
class Problem:
    """Static data of one simulation: discretization and physics."""

    grid: TorusGrid
    model: AnisotropyModel
    spec: PotentialSpec
    laws: MaterialLaws
    rho0: object  # analytic density sampler with .bounds

    def __post_init__(self):
        if self.model.kind != QUADRATIC_FORM or self.model.dim != 2:
            raise DomainError("simulation needs a 2d quadratic-form anisotropy")
        report = check_hypotheses(self.model)
        if not report.all_hold():
            raise DomainError(
                f"anisotropy hypotheses fail (r={report.r:.6g}); cannot simulate"
            )
        if not validate_eps(self.spec):
            raise DomainError(
                f"regularization eps={self.spec.eps} outside the admissible range"
            )
        lo, _ = self.rho0.bounds
        if not lo > 0:
            raise DomainError("initial density must be strictly positive")
        object.__setattr__(self, "report", report)

    def initial_state(self, u0_grid, phi0_grid, cfg: StepperConfig) -> FlowState:
        g = self.grid
        u = g.leray_project(g.to_spectral(np.asarray(u0_grid, dtype=float)))
        phi = g.to_spectral(np.asarray(phi0_grid, dtype=float))
        if cfg.n_modes_u is not None:
            u = g.project_scalar(u, cfg.n_modes_u)
        if cfg.n_modes_phi is not None:
            phi = g.project_scalar(phi, cfg.n_modes_phi)
        rho = density_from_displacement(self.rho0, g, None)
        mu = solve_mu(g, phi, rho, self.model, self.spec, n_modes=cfg.n_modes_phi)
        return FlowState(0.0, u, phi, rho, mu, None)


def stability_bound(problem: Problem) -> float:
    """Explicit-step limit: parabolic in the viscosity and fourth-order
    in the mobility-anisotropy product."""
    g = problem.grid
    h = min(g.lengths[0] / g.n_grid[0], g.lengths[1] / g.n_grid[1])
    rho_min = problem.rho0.bounds[0]
    visc = h * h * rho_min / (2 * 2 * problem.laws.nu_max)
    four = h**4 * rho_min / (8 * problem.laws.d_max * problem.report.R)
    return min(visc, four)


def check_dt(problem: Problem, cfg: StepperConfig, h: float):
    """Refuse a step h above stability_safety times the stability bound,
    unless the configuration allows unstable steps."""
    bound = stability_bound(problem)
    if h > cfg.stability_safety * bound + 1e-15 and not cfg.allow_unstable_dt:
        raise StabilityError(
            f"dt={h} exceeds stability_safety*bound={cfg.stability_safety * bound:.6g}"
        )


# --- linear solves -----------------------------------------------------------

def _norm(a) -> float:
    return float(np.sqrt(np.vdot(a, a).real))


def _cg(apply_a, b, x0, rtol, label):
    """Conjugate gradients on (possibly stacked) complex coefficients.

    The iteration runs on b and x0 divided by max|b| rounded up to a
    power of two, so no inner product overflows or underflows. The
    scaling is exact: where the unscaled solve stays finite, its iterates
    are these scaled back. x, r and p are updated in place. A solve
    returns only on the true residual b - A x: when the updated residual
    meets rtol and the true one does not, CG restarts from the true one
    within the same iteration budget.
    """
    bmax = float(np.max(np.abs(b)))
    if not np.isfinite(bmax):
        raise SolverError(f"{label} mass solve got a non-finite right-hand side")
    if bmax == 0.0:
        return np.zeros_like(b)
    # 1 / 2^e with 2^(e-1) <= max|b| < 2^e; e >= -1000 keeps it finite
    inv = np.ldexp(1.0, -max(int(np.frexp(bmax)[1]), -1000))
    b = b * inv
    x = x0 * inv
    bnorm = _norm(b)
    r = b - apply_a(x)
    rs = np.vdot(r, r).real
    if np.sqrt(rs) <= rtol * bnorm:
        return x / inv
    p = r.copy()
    for _ in range(_MAX_CG_ITER):
        ap = apply_a(p)
        den = np.vdot(p, ap).real
        if den <= 0.0:
            # the mass operators are positive definite on their range, so
            # zero curvature puts p in their null space: rounding of b
            # (its anti-Hermitian or compressive part) that no x can
            # match. x stands when the true residual meets rtol, or the
            # part of it the operator sees does; else A is indefinite.
            r_true = b - apply_a(x)
            residual = _norm(r_true) / bnorm
            if residual <= rtol or _norm(apply_a(r_true)) <= rtol * _norm(apply_a(b)):
                return x / inv
            raise SolverError(
                f"{label} mass solve met curvature {den:.3g} <= 0 at relative "
                f"residual {residual:.3g}",
                residual=residual,
            )
        alpha = rs / den
        x += alpha * p
        r -= alpha * ap
        rs_new = np.vdot(r, r).real
        if np.sqrt(rs_new) <= rtol * bnorm:
            # the updated residual drifts from b - A x by rounding: x
            # stands only on the true one, else CG restarts from it
            r = b - apply_a(x)
            rs = np.vdot(r, r).real
            if np.sqrt(rs) <= rtol * bnorm:
                return x / inv
            p = r.copy()
            continue
        p *= rs_new / rs
        p += r
        rs = rs_new
    raise SolverError(
        f"{label} mass solve did not reach rtol={rtol}",
        residual=float(np.sqrt(rs) / bnorm),
    )


def _scalar_mass_apply(grid, rho_vals, n_modes):
    def apply_a(w):
        out = grid.to_spectral(rho_vals * grid.to_grid(w))
        if n_modes is not None:
            out = grid.project_scalar(out, n_modes)
        return out

    return apply_a

def _vector_mass_apply(grid, rho_vals, n_modes):
    def apply_a(w):
        out = grid.leray_project(grid.to_spectral(rho_vals * grid.to_grid(w)))
        if n_modes is not None:
            out = grid.project_scalar(out, n_modes)
        return out

    return apply_a


def solve_mu(grid: TorusGrid, phi, rho: DensityField, model: AnisotropyModel,
             spec: PotentialSpec, *, n_modes=None, rtol=DEFAULT_RTOL,
             x0=None) -> np.ndarray:
    """Chemical potential from the density-weighted Galerkin identity:
    (rho mu, w) = (aniso-flux(grad phi), grad w) + (rho F_eps'(phi), w)
    for every retained test mode w."""
    rho_vals = rho.values
    phig = grid.to_grid(phi)
    gphi = grid.grad(phi)
    gphi_vals = grid.to_grid(gphi)
    xi = xi_cap(model, np.moveaxis(gphi_vals, 0, -1))
    flux = grid.to_spectral(np.moveaxis(xi, -1, 0))
    b = -grid.div(flux) + grid.to_spectral(rho_vals * f_eps_prime(spec, phig))
    if n_modes is not None:
        b = grid.project_scalar(b, n_modes)
    rho_bar = float(rho_vals.mean())
    start = x0 if x0 is not None else b / rho_bar
    if n_modes is not None:
        start = grid.project_scalar(start, n_modes)
    return _cg(_scalar_mass_apply(grid, rho_vals, n_modes), b, start, rtol, "potential")


# --- right-hand sides --------------------------------------------------------

def _assemble(grid, state, frozen, laws, spec, n_modes_u, n_modes_phi, rtol):
    """Shared weak-form assembly. frozen is None for the self-consistent
    system, or the pair (u~, phi~) that sets the advection velocity, the
    transported and capillary gradients and the material coefficients
    of the linearized one."""
    rho_vals, u, phi = state.rho.values, state.u, state.phi
    ug = grid.to_grid(u)
    phig = grid.to_grid(phi)
    gphi_vals = grid.to_grid(grid.grad(phi))
    if frozen is None:
        advg, lawg, gfrozen_vals = ug, phig, gphi_vals
    else:
        advg = grid.to_grid(frozen[0])
        lawg = grid.to_grid(frozen[1])
        gfrozen_vals = grid.to_grid(grid.grad(frozen[1]))
    mug = grid.to_grid(state.mu)
    nu = laws.nu(lawg)
    dd = laws.mobility(lawg)

    # velocity gradients d_j u_i on the grid, as du[i, j]
    du = grid.to_grid(np.stack([grid.grad(u[0]), grid.grad(u[1])]))

    fpr = f_eps_prime(spec, phig)
    b_u = np.empty((2,) + grid.n_grid, dtype=complex)
    for i in range(2):
        conv = rho_vals * (advg[0] * du[i, 0] + advg[1] * du[i, 1])
        # symmetric stress row: S_ij = d_j u_i + d_i u_j
        s_i0 = nu * (du[i, 0] + du[0, i])
        s_i1 = nu * (du[i, 1] + du[1, i])
        stress_div = grid.div(grid.to_spectral(np.stack([s_i0, s_i1])))
        force = rho_vals * (mug * gfrozen_vals[i] - fpr * gphi_vals[i])
        b_u[i] = -grid.to_spectral(conv) + stress_div + grid.to_spectral(force)
    b_u = grid.leray_project(b_u)
    if n_modes_u is not None:
        b_u = grid.project_scalar(b_u, n_modes_u)

    rho_bar = float(rho_vals.mean())
    dudt = _cg(
        _vector_mass_apply(grid, rho_vals, n_modes_u),
        b_u,
        grid.leray_project(b_u / rho_bar),
        rtol,
        "velocity",
    )

    gmu_vals = grid.to_grid(grid.grad(state.mu))
    conv_phi = rho_vals * (ug[0] * gfrozen_vals[0] + ug[1] * gfrozen_vals[1])
    flux = grid.div(grid.to_spectral(dd * gmu_vals))
    b_phi = -grid.to_spectral(conv_phi) + flux
    if n_modes_phi is not None:
        b_phi = grid.project_scalar(b_phi, n_modes_phi)
    start = b_phi / rho_bar
    dphidt = _cg(_scalar_mass_apply(grid, rho_vals, n_modes_phi), b_phi, start, rtol, "concentration")
    return dudt, dphidt


def rhs(grid: TorusGrid, state: FlowState, laws: MaterialLaws,
        model: AnisotropyModel, spec: PotentialSpec, *, n_modes_u=None,
        n_modes_phi=None, rtol=DEFAULT_RTOL):
    """Self-consistent Galerkin time derivatives (du/dt, dphi/dt)."""
    return _assemble(grid, state, None, laws, spec, n_modes_u, n_modes_phi, rtol)


def linearized_rhs(grid: TorusGrid, state: FlowState, frozen_u, frozen_phi,
                   laws: MaterialLaws, model: AnisotropyModel,
                   spec: PotentialSpec, *, n_modes_u=None, n_modes_phi=None,
                   rtol=DEFAULT_RTOL):
    """Time derivatives with advection velocity, transported gradient,
    material coefficients and capillary gradient frozen at (u~, phi~);
    the potential gradient keeps the current phi."""
    return _assemble(grid, state, (frozen_u, frozen_phi), laws, spec,
                     n_modes_u, n_modes_phi, rtol)


# --- time stepping -----------------------------------------------------------

_BLOWUP_CAP = 1e130


def _check_finite(t, name, arr):
    mags = np.abs(arr)
    if not np.all(np.isfinite(mags)) or mags.max() > _BLOWUP_CAP:
        raise BlowUpError(t, name)


def rk4_step(problem: Problem, state: FlowState, h: float, k1, velocity: StepRecord,
             slope, mu_seed, n_modes_phi) -> FlowState:
    """One classical RK4 step of (u, phi) from state over [t, t + h].

    k1 is the derivative pair (du/dt, dphi/dt) at state; slope(FlowState)
    gives it at the other stages. The stage densities at t + h/2 and
    t + h ride the characteristics of the velocity record, traced back to
    t and composed with the state's displacement. Each stage's potential
    solve starts from the previous stage's potential, the first from
    mu_seed. Returns the end-of-step state with its potential solved
    afresh; raises BlowUpError on a non-finite stage or end state.
    """
    g = problem.grid
    t = state.t
    pts = np.stack(g.mesh, axis=-1).reshape(-1, 2)

    def transported(tau):
        feet = trace_points(g, velocity, pts, tau, t)
        disp = compose_displacement(g, state.disp, feet)
        return density_from_displacement(problem.rho0, g, disp), disp

    rho_half, _ = transported(t + h / 2)
    rho_full, disp = transported(t + h)

    def stage(tau, u_c, phi_c, rho_c, mu_start):
        _check_finite(tau, "velocity", u_c)
        _check_finite(tau, "order_parameter", phi_c)
        mu_c = solve_mu(g, phi_c, rho_c, problem.model, problem.spec,
                        n_modes=n_modes_phi, x0=mu_start)
        return FlowState(tau, u_c, phi_c, rho_c, mu_c)

    _check_finite(t, "velocity", state.u)
    _check_finite(t, "order_parameter", state.phi)
    du1, dphi1 = k1
    s2 = stage(t + h / 2, state.u + (h / 2) * du1, state.phi + (h / 2) * dphi1, rho_half, mu_seed)
    du2, dphi2 = slope(s2)
    s3 = stage(t + h / 2, state.u + (h / 2) * du2, state.phi + (h / 2) * dphi2, rho_half, s2.mu)
    du3, dphi3 = slope(s3)
    s4 = stage(t + h, state.u + h * du3, state.phi + h * dphi3, rho_full, s3.mu)
    du4, dphi4 = slope(s4)
    u_new = state.u + (h / 6) * (du1 + 2 * du2 + 2 * du3 + du4)
    phi_new = state.phi + (h / 6) * (dphi1 + 2 * dphi2 + 2 * dphi3 + dphi4)
    end = stage(t + h, u_new, phi_new, rho_full, s4.mu)
    _check_finite(t + h, "chemical_potential", end.mu)
    return FlowState(t + h, u_new, phi_new, rho_full, end.mu, disp)


def step(problem: Problem, state: FlowState, cfg: StepperConfig, *,
         dt=None, deriv0=None):
    """One two-pass RK4 step. Returns (new_state, end-of-step
    derivatives) so callers can chain without re-evaluating."""
    h = cfg.dt if dt is None else dt
    check_dt(problem, cfg, h)
    nmp = cfg.n_modes_phi

    def slope(st):
        return rhs(problem.grid, st, problem.laws, problem.model, problem.spec,
                   n_modes_u=cfg.n_modes_u, n_modes_phi=nmp)

    # stage 1 shares the state's own (consistent) chemical potential
    k1 = deriv0 if deriv0 is not None else slope(state)

    # pass 0: predictor with a linear velocity model
    zeros = np.zeros_like(state.u)
    linear = StepRecord(state.t, h, np.stack([state.u, h * k1[0], zeros, zeros]))
    pred = rk4_step(problem, state, h, k1, linear, slope, state.mu, nmp)

    # pass 1: corrector with the cubic velocity model
    cubic = StepRecord.hermite(state.t, h, state.u, k1[0], pred.u, slope(pred)[0])
    new_state = rk4_step(problem, state, h, k1, cubic, slope, pred.mu, nmp)
    return new_state, slope(new_state)


@dataclass
class RunSummary:
    final_state: FlowState
    n_steps: int


def run(problem: Problem, u0_grid, phi0_grid, cfg: StepperConfig,
        sinks=(), cadence: int = 1) -> RunSummary:
    """Integrate from t=0 to cfg.t_end, emitting states to the sinks at
    the given step cadence (the initial and final states always)."""
    if cadence < 1:
        raise DomainError("cadence must be >= 1")
    state = problem.initial_state(u0_grid, phi0_grid, cfg)
    for sink in sinks:
        sink(state)
    deriv = None
    n = 0
    t_end = cfg.t_end
    while state.t < t_end - 1e-12 * max(1.0, t_end):
        h = min(cfg.dt, t_end - state.t)
        state, deriv = step(problem, state, cfg, dt=h, deriv0=deriv)
        n += 1
        if n % cadence == 0 or state.t >= t_end - 1e-12 * max(1.0, t_end):
            for sink in sinks:
                sink(state)
    return RunSummary(state, n)
