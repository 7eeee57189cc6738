"""Frozen-coefficient solution map and its Picard iteration.

The map takes a trajectory pair (u~, phi~) on a short horizon, advects
the density along u~, integrates the linearized Galerkin system driven
by those frozen fields from the initial state, and returns the
resulting trajectory on the same sample grid. Its fixed points solve
the self-consistent system; the iteration contracts on short horizons.

The transport remainder int F(phi) (u - u~) . grad rho measures how far
a pair is from self-consistency in the energy ledger: it vanishes at a
fixed point and shows up as the only defect in the linearized energy
law.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .basis import TorusGrid, vdot
from .diagnostics import energy_report
from .dynamics import (
    FlowState,
    Problem,
    StepperConfig,
    check_dt,
    linearized_rhs,
    rk4_step,
)
from .errors import DimensionError, DomainError
from .potential import PotentialSpec, f_eps
from .transport import StepRecord

# unused here, but perfbench's layer trace patches these names on this module
from .dynamics import solve_mu  # noqa: F401
from .transport import compose_displacement, density_from_displacement, trace_points  # noqa: F401

#: absolute ceiling on |k . u_k| for a velocity sample to count as solenoidal
DIV_FREE_TOL = 1e-10


@dataclass(frozen=True)
class FrozenPair:
    """Sampled trajectory pair on the uniform time grid k dt from t=0,
    with end-point slopes so each interval carries a cubic model of both
    fields.

    Axis 0 of every array is the sample index; velocity samples must be
    divergence-free.
    """

    grid: TorusGrid
    dt: float
    u: np.ndarray      # (n_samples, 2) + grid.band_shape complex
    du: np.ndarray
    phi: np.ndarray    # (n_samples,) + grid.band_shape complex
    dphi: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError("sample spacing must be positive")
        n = self.u.shape[0]
        if n < 2:
            raise DomainError("a frozen pair needs at least two samples")
        if self.du.shape != self.u.shape or self.dphi.shape != self.phi.shape:
            raise DimensionError("value and slope sample shapes disagree")
        if self.phi.shape[0] != n:
            raise DimensionError("velocity and order-parameter sample counts disagree")
        band = self.grid.band_shape
        if self.u.shape[1:] != (2,) + band or self.phi.shape[1:] != band:
            raise DimensionError("sample fields do not match the grid")
        g = self.grid
        for k in range(n):
            div = np.abs(g.div(self.u[k])).max()
            if div > DIV_FREE_TOL:
                raise DomainError(
                    f"frozen velocity sample {k} is not divergence-free (max |k.u|={div:.3g})"
                )

    @property
    def n_samples(self):
        return self.u.shape[0]

    @property
    def n_steps(self):
        return self.u.shape[0] - 1

    def records(self, k: int):
        """Cubic interval models (velocity, order parameter) for step k."""
        t_k = k * self.dt
        urec = StepRecord.hermite(t_k, self.dt, self.u[k], self.du[k],
                                  self.u[k + 1], self.du[k + 1])
        prec = StepRecord.hermite(t_k, self.dt, self.phi[k], self.dphi[k],
                                  self.phi[k + 1], self.dphi[k + 1])
        return urec, prec


def constant_pair(grid: TorusGrid, u, phi, dt: float, n_steps: int) -> FrozenPair:
    """Constant-in-time extension of one state over n_steps steps of dt
    from t=0, the canonical first iterate."""
    if n_steps < 1:
        raise DomainError("need at least one step")

    def samples(field):  # a read-only view of one sample, not n_steps + 1 copies
        return np.broadcast_to(field, (n_steps + 1,) + np.shape(field))

    return FrozenPair(grid, dt, samples(u), samples(np.zeros_like(u)),
                      samples(phi), samples(np.zeros_like(phi)))


@dataclass(frozen=True)
class LambdaTrajectory:
    """Output of one application of the frozen-coefficient map; evals seed the next."""

    pair: FrozenPair
    states: list
    evals: list = field(repr=False)


def lambda_map(problem: Problem, frozen: FrozenPair, state: FlowState,
               cfg: StepperConfig, deriv0=None, seeds=None) -> LambdaTrajectory:
    """Integrate the linearized system driven by the frozen pair from
    the start state, at the pair's own step; cfg supplies only the
    stability policy.

    The density rides the characteristics of the frozen velocity; the
    produced trajectory is sampled on the frozen pair's own grid and
    carries matching slopes, so it can be fed back in as the next
    frozen pair. Each step is one `rk4_step`, whose end slope is both
    the sample's slope and the next step's k1. The first k1 is deriv0
    when given, the linearized derivative pair at the start state under
    the pair's first samples, and is evaluated here otherwise. seeds, the
    evals of an earlier map from the same state at the same step, start
    each step's solves from their matches (`rk4_step`), emptied as used.
    """
    if state.t != 0.0:
        raise DomainError("the start state must sit at t=0, where the frozen pair starts")
    h = frozen.dt
    check_dt(problem, cfg, h)
    k1 = deriv0 if deriv0 is not None else linearized_rhs(problem, state, frozen.u[0],
                                                          frozen.phi[0])
    states, slopes, evals = [state], [k1], []
    for k in range(frozen.n_steps):
        urec, prec = frozen.records(k)
        # the density rides the frozen velocity; every evaluation sees
        # the frozen pair's cubic models at its own time
        state, k1, step_evals = rk4_step(
            problem, state, h, k1, urec,
            lambda st, start: linearized_rhs(problem, st, urec.coef_at(st.t), prec.coef_at(st.t),
                                             start=start),
            None if seeds is None else seeds[k],
        )
        evals.append(step_evals)
        states.append(state)
        slopes.append(k1)

    pair = FrozenPair(problem.grid, h, np.stack([s.u for s in states]),
                      np.stack([k[0] for k in slopes]), np.stack([s.phi for s in states]),
                      np.stack([k[1] for k in slopes]))
    return LambdaTrajectory(pair, states, evals)


def residual_r_eps(grid: TorusGrid, state: FlowState, u_tilde, spec: PotentialSpec) -> float:
    """Transport remainder int F(phi) (u - u~) . grad rho by collocation
    quadrature; the density gradient is the spectral derivative of the
    sampled density."""
    grho = grid.grad(grid.to_spectral(state.rho.values))
    vals = grid.to_grid(np.concatenate([state.u - u_tilde, grho, state.phi[None]]))
    dg, grho_vals, fvals = vals[:2], vals[2:4], f_eps(spec, vals[4])
    return grid.quadrature(fvals * (dg[0] * grho_vals[0] + dg[1] * grho_vals[1]))


def trajectory_distance(grid: TorusGrid, a: FrozenPair, b: FrozenPair) -> float:
    """Sup over sample times of ||du||_L2 + ||dphi||_H1 between pairs."""
    if a.u.shape != b.u.shape or a.phi.shape != b.phi.shape:
        raise DimensionError("trajectory pairs have different sample layouts")
    weight = 1.0 + grid.k_sq
    worst = 0.0
    for k in range(a.n_samples):
        gap_u = grid.norm_l2_spectral(a.u[k] - b.u[k])
        dphi = a.phi[k] - b.phi[k]
        gap_phi = float(np.sqrt(grid.area * vdot(dphi, weight * dphi)))
        worst = max(worst, gap_u + gap_phi)
    return worst


@dataclass(frozen=True)
class PicardReport:
    """Outcome of the fixed-point iteration. Non-convergence within the
    iteration budget is a reported outcome, not an error."""

    converged: bool
    iterations: int
    distances: list
    r_eps_history: list
    trajectory: FrozenPair
    states: list = field(repr=False)


def picard(problem: Problem, u0_grid, phi0_grid, cfg: StepperConfig,
           t_tilde: float, tol: float, tol_r: float | None = None,
           max_iter: int = 20) -> PicardReport:
    """Iterate the frozen-coefficient map from the constant-in-time
    extension of the initial data until successive trajectories agree
    to tol (sup-in-time L2 + H1) and the transport remainder falls
    below tol_r (default: 1e-8 times the initial energy)."""
    if not 0 < t_tilde < np.inf:
        raise DomainError(f"horizon must be positive and finite, got {t_tilde}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    if tol_r is not None and not tol_r >= 0:
        raise DomainError(f"tol_r must be nonnegative, got {tol_r}")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    n_steps = int(round(t_tilde / cfg.dt))
    # constant_pair's views span n_steps + 1 samples, a count no array shape
    # can exceed
    if n_steps + 1 > sys.maxsize:
        raise DomainError(f"horizon must be at most {sys.maxsize - 1} steps, got "
                          f"t_tilde={t_tilde:g} / dt={cfg.dt:g} = {n_steps:.6g} steps")
    if n_steps < 1 or abs(n_steps * cfg.dt - t_tilde) > 1e-9 * max(cfg.dt, t_tilde):
        raise DomainError("horizon must be a positive integer multiple of dt")
    g = problem.grid
    state0 = problem.initial_state(u0_grid, phi0_grid)
    if tol_r is None:
        e0 = energy_report(g, state0, problem.laws, problem.model, problem.spec).e_total
        tol_r = 1e-8 * abs(e0)
    frozen = constant_pair(g, state0.u, state0.phi, cfg.dt, n_steps)
    distances = []
    r_history = []
    traj = deriv0 = seeds = None
    converged = False
    for i in range(max_iter):
        traj = lambda_map(problem, frozen, state0, cfg, deriv0, seeds)
        # every pair starts at state0's u and phi, so every map's first
        # derivative pair is the first map's. A map's evaluations seed the
        # next from map 2 on: map 1's, under the constant pair, start map 2
        # worse than cold starts do
        deriv0, seeds = (traj.pair.du[0], traj.pair.dphi[0]), traj.evals if i else None
        dist = trajectory_distance(g, traj.pair, frozen)
        r_worst = max(
            abs(residual_r_eps(g, st, frozen.u[k], problem.spec))
            for k, st in enumerate(traj.states)
        )
        distances.append(dist)
        r_history.append(r_worst)
        frozen = traj.pair
        if dist <= tol and r_worst <= tol_r:
            converged = True
            break
    return PicardReport(converged, len(distances), distances, r_history,
                        traj.pair, traj.states)
