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
from functools import partial

import numpy as np

from .anisotropy import AnisotropyModel, check_hypotheses
from .basis import Jet, TorusGrid
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
    allow_unstable_dt: bool = False

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < np.inf:
            raise DomainError(f"t_end must be nonnegative and finite, got {self.t_end}")


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
    """Static data of one simulation: discretization and physics.

    n_modes_u and n_modes_phi set the Galerkin spaces of u and phi: the
    lowest n modes of the retained band (`TorusGrid.project_scalar`),
    None for the whole band, u's divergence-free. Every right-hand side, mass
    operator and initial field goes through project_u or project_phi, partials
    of `TorusGrid.project` whose keywords name the space."""

    grid: TorusGrid
    model: AnisotropyModel
    spec: PotentialSpec
    laws: MaterialLaws
    rho0: object  # analytic density sampler with .bounds
    n_modes_u: int | None = None
    n_modes_phi: int | None = None

    def __post_init__(self):
        if self.model.dim != 2:
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
        project = self.grid.project
        object.__setattr__(self, "project_u", partial(project, leray=True, n_modes=self.n_modes_u))
        object.__setattr__(self, "project_phi", partial(project, n_modes=self.n_modes_phi))

    def initial_state(self, u0_grid, phi0_grid) -> FlowState:
        g = self.grid
        u = self.project_u(g.to_spectral(np.asarray(u0_grid, dtype=float)))
        phi = self.project_phi(g.to_spectral(np.asarray(phi0_grid, dtype=float)))
        rho = density_from_displacement(self.rho0, g, None)
        return FlowState(0.0, u, phi, rho, solve_mu(self, phi, rho), None)


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
    """Refuse a step h above the stability bound, past a rounding slack
    of 1e-12 of the bound, unless the configuration allows unstable steps."""
    bound = stability_bound(problem)
    if h > bound * (1.0 + 1e-12) and not cfg.allow_unstable_dt:
        raise StabilityError(f"dt={h} exceeds the stability bound {bound:.6g}")


# --- linear solves -----------------------------------------------------------

def _dot(a, b) -> float:
    return float(np.vdot(a, b).real)


def _norm(a) -> float:
    return float(np.sqrt(_dot(a, a)))


def _start(apply_a, b, x0):
    """The A-optimal multiple beta x0 of a start, beta = x0.b / x0.(A x0),
    and its residual b - beta A x0, from one application of A. Its A-norm
    error is never above that of x = 0, which it takes when x0.(A x0) is
    not positive and finite."""
    ax = apply_a(x0)
    curv = _dot(x0, ax)
    if not 0.0 < curv < np.inf:
        return np.zeros_like(b), b.copy()
    beta = _dot(x0, b) / curv
    return beta * x0, b - beta * ax


def _cg(apply_a, b, x0, rtol, label):
    """Conjugate gradients for A x = b on (possibly stacked) arrays, with
    the plain real dot product. The mass solves pass their grid form
    (`_mass_apply`), so its norms are plain sums over the grid, and the
    residual that rtol bounds is the one a caller recomputes from b, A
    and the returned x.

    x0 is a guess at the solution, such as the solution of a nearby
    system; the iteration starts from its A-optimal multiple (`_start`),
    so a poor guess leaves no larger an A-norm error than none, at no
    extra application of A. The iteration runs on b and x0 divided by max|b| rounded up to a
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
    bnorm = _norm(b)
    x, r = _start(apply_a, b, x0 * inv)
    rs = _dot(r, r)
    if np.sqrt(rs) <= rtol * bnorm:
        return x / inv
    p = r.copy()
    for _ in range(_MAX_CG_ITER):
        ap = apply_a(p)
        den = _dot(p, ap)
        if den <= 0.0:
            # the mass operators are positive definite on their range, so
            # zero curvature puts p in their null space: a part of b that
            # no x can match, such as the rounding of a compressive part.
            # x stands when the true residual meets rtol, or the part of
            # it the operator sees does; else A is indefinite.
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
        rs_new = _dot(r, r)
        if np.sqrt(rs_new) <= rtol * bnorm:
            # the updated residual drifts from b - A x by rounding: x
            # stands only on the true one, else CG restarts from it
            r = b - apply_a(x)
            rs = _dot(r, r)
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


def _mass_apply(grid, space, rho_vals):
    """The grid form B y = w G(S(rho G(S(w y)))) of x -> P(rho x), w =
    1/sqrt(rho), S = P to_spectral (P the space the `TorusGrid.project`
    keywords space name), G = to_grid, each G S one `TorusGrid.project_grid`:
    B = T^t A T up to the factor N1 N2, T y = S(w y) mapping every grid array
    onto the space of P. B is symmetric positive semidefinite, its null space
    what T maps to 0. Each call forms its own w, outliving no density."""
    w = 1.0 / np.sqrt(rho_vals)

    def apply_b(y):
        v = grid.project_grid(w * y, **space)
        v *= rho_vals
        v = grid.project_grid(v, **space)
        v *= w
        return v

    return apply_b


def _mass_solve(grid, project, rho_vals, b, x0, label):
    """x in the space of project (a Problem's project_u or project_phi)
    with P(rho x) = P b, P = project, started from x0 as given (in that
    space) or, for None, from S(G(P b) / rho).

    CG solves the grid form B y = c of `_mass_apply`, built from project's
    keywords, c = w G(P b), started from y0 = G(x0) / w, which T maps to x0;
    x = T y, so the solve enters and leaves on the band. Its iterates are
    those of CG on the band system preconditioned by S(G(.) / rho), and rtol
    bounds the rho^-1-weighted grid norm of the residual P b - P(rho x)."""
    w = 1.0 / np.sqrt(rho_vals)
    # a Leray projection leaves a compressive rounding, as large as b when
    # b is a projected gradient (criterion 3's velocity solves); outside
    # B's range, it would keep CG from meeting rtol and drive x up until
    # the rounding of B x breaks the curvature. A second projection
    # leaves only the rounding of that rounding.
    b = project(project(b))
    if x0 is None:
        c = y0 = grid.to_grid(b)
        c *= w
    else:
        c, y0 = grid.to_grid(np.stack([b, x0]))
        c *= w
        y0 /= w
    y = _cg(_mass_apply(grid, project.keywords, rho_vals), c, y0, DEFAULT_RTOL, label)
    return project(grid.to_spectral(w * y))


def solve_mu(problem: Problem, phi, rho: DensityField, *, x0=None) -> np.ndarray:
    """Chemical potential from the density-weighted Galerkin identity:
    (rho mu, w) = (aniso-flux(grad phi), grad w) + (rho F_eps'(phi), w)
    for every test mode w of the problem's phi space. The flux is M grad
    phi (the problem's quadratic form), so its term is phi's coefficients
    times k^T M k. x0, a potential of a nearby state, starts the mass
    solve."""
    grid, m = problem.grid, problem.model.matrix
    rho_vals = rho.values
    kmk = m[0, 0] * grid.k1**2 + 2 * m[0, 1] * grid.k1 * grid.k2 + m[1, 1] * grid.k2**2
    b = kmk * phi + grid.to_spectral(rho_vals * f_eps_prime(problem.spec, grid.to_grid(phi)))
    return _mass_solve(grid, problem.project_phi, rho_vals, b, x0, "potential")


# --- right-hand sides --------------------------------------------------------

def _assemble(problem, state, frozen, start):
    """Shared weak-form assembly. frozen is None for the self-consistent
    system, or the pair (u~, phi~) that sets the advection velocity, the
    transported and capillary gradients and the material coefficients
    of the linearized one. start is None, for cold starts of the two
    mass solves, or a derivative pair to start them from."""
    grid, laws = problem.grid, problem.laws
    rho_vals, u, phi = state.rho.values, state.u, state.phi
    # every band field on the grid by one transform: 12 fields, 17 linearized
    bands = [u, phi, grid.grad(phi), state.mu, grid.grad(u), grid.grad(state.mu)]
    if frozen is not None:
        bands += [frozen[0], frozen[1], grid.grad(frozen[1])]
    vals = grid.to_grid(np.concatenate([b.reshape((-1,) + grid.band_shape) for b in bands]))
    ug, phig, gphi_vals, mug, gmu_vals = vals[:2], vals[2], vals[3:5], vals[5], vals[10:12]
    if frozen is None:
        advg, lawg, gfrozen_vals = ug, phig, gphi_vals
    else:
        advg, lawg, gfrozen_vals = vals[12:14], vals[14], vals[15:17]
    du0, dphi0 = (None, None) if start is None else start

    # du[i, j] = d_j u_i; the stress is symmetric bit for bit, so div may contract either index
    du = vals[6:10].reshape((2, 2) + grid.n_grid)
    stress = laws.nu(lawg) * (du + du.swapaxes(0, 1))
    conv = rho_vals * (advg[0] * du[:, 0] + advg[1] * du[:, 1])
    force = rho_vals * (mug * gfrozen_vals - f_eps_prime(problem.spec, phig) * gphi_vals)
    coef = grid.to_spectral(np.concatenate([stress.reshape((4,) + grid.n_grid), conv, force]))
    b_u = -coef[4:6] + grid.div(coef[:4].reshape((2, 2) + grid.band_shape)) + coef[6:]
    dudt = _mass_solve(grid, problem.project_u, rho_vals, b_u, du0, "velocity")

    conv_phi = rho_vals * (ug[0] * gfrozen_vals[0] + ug[1] * gfrozen_vals[1])
    coef = grid.to_spectral(np.concatenate([laws.mobility(lawg) * gmu_vals, conv_phi[None]]))
    b_phi = -coef[2] + grid.div(coef[:2])
    dphidt = _mass_solve(grid, problem.project_phi, rho_vals, b_phi, dphi0, "concentration")
    return dudt, dphidt


def rhs(problem: Problem, state: FlowState, *, start=None):
    """Self-consistent Galerkin time derivatives (du/dt, dphi/dt) in the
    problem's Galerkin spaces.

    start=(du0, dphi0), a derivative pair of a nearby state of the same
    problem, starts the two mass solves; it moves the result only
    within the solver tolerance."""
    return _assemble(problem, state, None, start)


def linearized_rhs(problem: Problem, state: FlowState, frozen_u, frozen_phi, *, start=None):
    """Time derivatives with advection velocity, transported gradient,
    material coefficients and capillary gradient frozen at (u~, phi~);
    the potential gradient keeps the current phi. start is as in rhs."""
    return _assemble(problem, state, (frozen_u, frozen_phi), start)


# --- time stepping -----------------------------------------------------------

_BLOWUP_CAP = 1e130


def _check_finite(t, name, arr):
    mags = np.abs(arr)
    if not np.all(np.isfinite(mags)) or mags.max() > _BLOWUP_CAP:
        raise BlowUpError(t, name)


def rk4_step(problem: Problem, state: FlowState, h: float, k1, velocity: StepRecord,
             slope, seeds=None):
    """One classical RK4 step of (u, phi) from state over [t, t + h].

    k1 is the derivative pair (du/dt, dphi/dt) at state. The densities at
    t + h/2 and t + h ride the characteristics of the velocity record,
    traced back to t and composed with the state's displacement. Four
    evaluations follow: s2, s3, s4 and the end state. Each checks its
    fields for blow-up (BlowUpError), solves its potential in the
    problem's Galerkin space of phi, and calls slope(FlowState, start)
    for its derivative pair.

    One rule starts the three solves of an evaluation: from the (mu,
    (du/dt, dphi/dt)) of the previous one, the first from (state.mu, k1);
    or from its match in seeds, the evals of an earlier pass of the same
    step (or of the same step of an earlier Picard map), each popped as it
    is used so two passes' evaluations never pile up. Returns (end_state,
    end_slope, evals), evals holding the (mu, (du/dt, dphi/dt)) of the
    four evaluations in order.
    """
    g = problem.grid
    t = state.t
    pts = np.stack(g.mesh, axis=-1).reshape(-1, 2)

    feet = trace_points(g, velocity, pts, (t + h / 2, t + h), t)
    prev = None if state.disp is None else Jet(g, g.to_spectral(state.disp))
    disp_half, disp = [compose_displacement(g, prev, f) for f in feet]
    del prev, feet  # one jet alive at a time: the next pass builds its own
    rho_half, rho_full = [density_from_displacement(problem.rho0, g, d) for d in (disp_half, disp)]
    evals = []

    def evaluate(tau, u_c, phi_c, rho_c, d=None):
        _check_finite(tau, "velocity", u_c)
        _check_finite(tau, "order_parameter", phi_c)
        mu0, k0 = seeds.pop(0) if seeds is not None else (evals[-1] if evals else (state.mu, k1))
        s = FlowState(tau, u_c, phi_c, rho_c, solve_mu(problem, phi_c, rho_c, x0=mu0), d)
        _check_finite(tau, "chemical_potential", s.mu)
        evals.append((s.mu, slope(s, k0)))
        return s, evals[-1][1]

    _check_finite(t, "velocity", state.u)
    _check_finite(t, "order_parameter", state.phi)
    k = k1
    for c, rho_c in ((h / 2, rho_half), (h / 2, rho_half), (h, rho_full)):
        _, k = evaluate(t + c, state.u + c * k[0], state.phi + c * k[1], rho_c)
    (du1, dphi1), (du2, dphi2), (du3, dphi3), (du4, dphi4) = [k1] + [k for _, k in evals]
    u_new = state.u + (h / 6) * (du1 + 2 * du2 + 2 * du3 + du4)
    phi_new = state.phi + (h / 6) * (dphi1 + 2 * dphi2 + 2 * dphi3 + dphi4)
    return (*evaluate(t + h, u_new, phi_new, rho_full, disp), evals)


def step(problem: Problem, state: FlowState, cfg: StepperConfig, *,
         dt=None, deriv0=None):
    """One two-pass RK4 step. Returns (new_state, end-of-step
    derivatives) so callers can chain without re-evaluating.

    Pass 0 predicts the end state and its slope with a linear velocity
    model. Pass 1 corrects with the Hermite cubic through them, each of
    its evaluations started from pass 0's match; its end slope is the
    returned derivative pair."""
    h = cfg.dt if dt is None else dt
    check_dt(problem, cfg, h)

    def slope(st, start):
        return rhs(problem, st, start=start)

    # stage 1 shares the state's own (consistent) chemical potential
    k1 = deriv0 if deriv0 is not None else rhs(problem, state)

    # pass 0: predictor with a linear velocity model
    linear = np.zeros((4,) + state.u.shape, dtype=complex)
    linear[0], linear[1] = state.u, h * k1[0]
    pred, end_slope, evals = rk4_step(problem, state, h, k1, StepRecord(state.t, h, linear), slope)
    del linear  # pass 1 holds no record of pass 0

    # pass 1: corrector with the cubic velocity model, seeded by pass 0
    hermite = StepRecord.hermite(state.t, h, state.u, k1[0], pred.u, end_slope[0])
    return rk4_step(problem, state, h, k1, hermite, slope, evals)[:2]


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
    state = problem.initial_state(u0_grid, phi0_grid)
    for sink in sinks:
        sink(state)
    deriv = None
    t_end = cfg.t_end
    # the least count of steps to t_end within a relative 1e-12, so rounding adds
    # no sliver step; the last step is shorter when dt does not divide t_end
    n_steps = int(np.ceil((t_end - 1e-12 * t_end) / cfg.dt))
    for n in range(1, n_steps + 1):
        h = min(cfg.dt, t_end - state.t)
        state, deriv = step(problem, state, cfg, dt=h, deriv0=deriv)
        if n % cadence == 0 or n == n_steps:
            for sink in sinks:
                sink(state)
    return RunSummary(state, n_steps)
