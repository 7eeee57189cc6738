import dataclasses
import math
import sys

import numpy as np
import pytest

from achns import dynamics, fixedpoint
from achns.anisotropy import quadratic_form
from achns.basis import TorusGrid, vdot
from achns.diagnostics import energy_report
from achns.dynamics import MaterialLaws, Problem, StepperConfig, _norm, rhs, run, stability_bound, step
from achns.errors import DimensionError, DomainError, StabilityError
from achns.fixedpoint import (
    FrozenPair,
    constant_pair,
    lambda_map,
    picard,
    residual_r_eps,
    trajectory_distance,
)
from achns.potential import PotentialSpec, f_eps
from achns.profiles import (
    BlobDensity,
    ConstantDensity,
    SinusoidalDensity,
    phi_band_random,
    phi_constant,
    phi_modes,
    u_taylor_green,
    u_zero,
)

TWO_PI = 2 * np.pi
BOX = (TWO_PI, TWO_PI)


def make_problem(n=16, rho=None, laws=None):
    grid = TorusGrid(BOX, (n, n))
    model = quadratic_form([[1.2, -0.1], [-0.1, 1.0]])
    spec = PotentialSpec(1.0, 0.5, 0.1)
    laws = laws if laws is not None else MaterialLaws(0.12, 0.08, 0.0146, 0.0146)
    rho = rho if rho is not None else SinusoidalDensity(1.5, 0.5, BOX, 1, 1)
    return Problem(grid, model, spec, laws, rho)


@pytest.fixture(scope="module")
def demo16():
    """Shared medium-size Picard run on spinodal-like data."""
    pb = make_problem()
    g = pb.grid
    u0 = u_taylor_green(g, 0.3)
    phi0 = phi_band_random(g, seed=42, kmax=2, amplitude=0.5, mean=-0.05)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.05)
    tol = 1e-9
    report = picard(pb, u0, phi0, cfg, t_tilde=0.05, tol=tol, max_iter=25)
    states_nl = []
    run(pb, u0, phi0, cfg, sinks=[lambda s: states_nl.append(s)])
    st0 = pb.initial_state(u0, phi0)
    e0 = energy_report(g, st0, pb.laws, pb.model, pb.spec).e_total
    return dict(pb=pb, u0=u0, phi0=phi0, cfg=cfg, tol=tol, report=report,
                states_nl=states_nl, e0=e0)


# --- frozen pair -------------------------------------------------------------

def test_frozen_pair_validation():
    g = TorusGrid(BOX, (8, 8))
    shape_u = (2, 2) + g.band_shape
    shape_p = (2,) + g.band_shape
    u = np.zeros(shape_u, dtype=complex)
    phi = np.zeros(shape_p, dtype=complex)
    # a pure gradient mode violates the solenoidal precondition
    bad = u.copy()
    bad[:, 0, 1, 0] = 1.0
    with pytest.raises(DomainError):
        FrozenPair(g, 1e-3, bad, np.zeros_like(u), phi, np.zeros_like(phi))
    with pytest.raises(DomainError):
        FrozenPair(g, -1e-3, u, np.zeros_like(u), phi, np.zeros_like(phi))
    with pytest.raises(DomainError):
        FrozenPair(g, 1e-3, u[:1], np.zeros_like(u[:1]), phi[:1], np.zeros_like(phi[:1]))
    with pytest.raises(DimensionError):
        FrozenPair(g, 1e-3, u, np.zeros((2, 2, 4, 4), dtype=complex), phi, np.zeros_like(phi))
    pair = FrozenPair(g, 1e-3, u, np.zeros_like(u), phi, np.zeros_like(phi))
    assert pair.n_samples == 2 and pair.n_steps == 1
    assert np.array_equal(pair.times, [0.0, 1e-3])


def test_constant_pair_records_are_steady():
    pb = make_problem(n=8, rho=ConstantDensity(1.2))
    g = pb.grid
    st = pb.initial_state(u_taylor_green(g, 0.2), phi_constant(g, 0.1))
    pair = constant_pair(g, st.u, st.phi, 1e-3, 4)
    assert pair.n_samples == 5
    urec, prec = pair.records(2)
    mid = urec.coef_at(2e-3 + 5e-4)
    assert np.allclose(mid, st.u, atol=1e-15)
    assert np.allclose(prec.coef_at(2.7e-3), st.phi, atol=1e-15)
    assert np.array_equal(pair.times, 1e-3 * np.arange(5))


# --- transport remainder ------------------------------------------------------

def test_residual_zero_cases():
    pb = make_problem(n=8)
    g = pb.grid
    st = pb.initial_state(u_taylor_green(g, 0.3), phi_constant(g, 0.2))
    assert residual_r_eps(g, st, st.u, pb.spec) == 0.0
    assert residual_r_eps(g, st, st.u.copy(), pb.spec) == 0.0
    pb_c = make_problem(n=8, rho=ConstantDensity(1.4))
    st_c = pb_c.initial_state(u_taylor_green(g, 0.3), phi_constant(g, 0.2))
    assert residual_r_eps(g, st_c, np.zeros_like(st_c.u), pb_c.spec) == 0.0


def test_residual_collocation_oracle():
    # constant velocity against zero frozen velocity, x-only fields:
    # remainder = sum_x F(0.3 sin x) * a * drho/dx * cell
    pb = make_problem(n=8, rho=SinusoidalDensity(1.5, 0.5, BOX, 1, 0))
    g = pb.grid
    a = 0.4
    u0 = np.stack([np.full(g.n_grid, a), np.zeros(g.n_grid)])
    phi0 = phi_modes(g, [(1, 0, 0.0, -0.15)])  # 0.3 sin x
    st = pb.initial_state(u0, phi0)
    got = residual_r_eps(g, st, np.zeros_like(st.u), pb.spec)
    expected = 0.0
    for x in g.mesh[0][:, 0]:
        expected += f_eps(pb.spec, 0.3 * math.sin(x)) * a * 0.5 * math.cos(x)
    expected *= g.cell * g.n_grid[1]
    assert got == pytest.approx(expected, rel=1e-12)


def test_residual_makes_one_inverse_transform(monkeypatch):
    pb = make_problem(n=8)
    g = pb.grid
    st = pb.initial_state(u_taylor_green(g, 0.3), phi_constant(g, 0.2))
    to_grid = TorusGrid.to_grid
    calls = []

    def counted(self, coef):
        calls.append(np.shape(coef))
        return to_grid(self, coef)

    monkeypatch.setattr(TorusGrid, "to_grid", counted)
    residual_r_eps(g, st, np.zeros_like(st.u), pb.spec)
    residual_r_eps(g, st, st.u, pb.spec)
    assert calls == [(5,) + g.band_shape] * 2


# --- the frozen-coefficient map ------------------------------------------------

def test_lambda_map_equilibrium_is_fixed_point():
    pb = make_problem(rho=ConstantDensity(1.3))
    g = pb.grid
    cfg = StepperConfig(dt=2e-3, t_end=0.0)
    st = pb.initial_state(u_zero(g), phi_constant(g, 0.25))
    frozen = constant_pair(g, st.u, st.phi, cfg.dt, 5)
    traj = lambda_map(pb, frozen, st, cfg)
    assert trajectory_distance(g, traj.pair, frozen) == 0.0
    assert np.abs(traj.pair.du).max() == 0.0
    assert np.abs(traj.pair.dphi).max() <= 1e-14
    for k, state in enumerate(traj.states):
        assert residual_r_eps(g, state, frozen.u[k], pb.spec) == 0.0


def test_lambda_map_preconditions():
    pb = make_problem()
    g = pb.grid
    st = pb.initial_state(u_zero(g), phi_constant(g, 0.1))
    pair = constant_pair(g, st.u, st.phi, 1e-3, 3)
    with pytest.raises(DomainError):
        lambda_map(pb, pair, dataclasses.replace(st, t=0.1), StepperConfig(dt=1e-3, t_end=0.0))
    big = constant_pair(g, st.u, st.phi, 0.5, 3)
    with pytest.raises(StabilityError):
        lambda_map(pb, big, st, StepperConfig(dt=0.5, t_end=0.0))


def _blob_picard_start(n_steps):
    # a 16^2 start at a 1:100 blob and a frozen pair that moves: the map's
    # first output from the constant pair
    pb = make_problem(rho=BlobDensity(1.0, 99.0, 0.8, (np.pi, np.pi), BOX))
    g = pb.grid
    h = 0.5 * stability_bound(pb)
    cfg = StepperConfig(dt=h, t_end=0.0)
    st = pb.initial_state(u_taylor_green(g, 0.3), phi_band_random(g, seed=7, kmax=3, amplitude=0.3))
    frozen = lambda_map(pb, constant_pair(g, st.u, st.phi, h, n_steps), st, cfg).pair
    return pb, cfg, st, frozen


def test_lambda_map_starts_each_solve_from_the_nearest_solution(monkeypatch):
    # every solve seen as perfbench's wrap_cg sees it: by _cg's five
    # positional arguments
    pb, cfg, st, frozen = _blob_picard_start(2)
    cg = dynamics._cg
    solves = []

    def traced_cg(apply_a, b, x0, rtol, label):
        solves.append((label, _norm(b - apply_a(x0)) / _norm(b)))
        return cg(apply_a, b, x0, rtol, label)

    monkeypatch.setattr(dynamics, "_cg", traced_cg)
    lambda_map(pb, frozen, st, cfg)
    # the first k1, then four evaluations per step
    assert [label for label, _ in solves[:2]] == ["velocity", "concentration"]
    per_step = ["potential", "velocity", "concentration"] * 4
    steps = [solves[2 + 12 * k: 14 + 12 * k] for k in range(2)]
    assert len(solves) == 2 + 24
    for k, solves_k in enumerate(steps):
        assert [label for label, _ in solves_k] == per_step, k
        # b / rho_bar leaves a relative residual above 1 at this contrast
        for i, (label, r0) in enumerate(solves_k[1:], 1):
            assert r0 < 0.2, (k, i, label, r0)


def test_step_and_lambda_map_evaluate_only_inside_rk4_step(monkeypatch):
    # with deriv0 given, step makes every rhs and solve_mu call inside
    # its two rk4_step calls, and so does lambda_map every linearized_rhs
    # call; without it lambda_map makes one outside, its first k1
    depth, outside = [0], []

    def inside(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            if depth[0] == 0:
                outside.append(name)
            return fn(*args, **kwargs)
        return wrapped

    pb, cfg, st, frozen = _blob_picard_start(2)
    deriv0 = rhs(pb, st)
    for module in (dynamics, fixedpoint):
        monkeypatch.setattr(module, "rk4_step", inside(module.rk4_step))
    monkeypatch.setattr(dynamics, "rhs", counted("rhs", dynamics.rhs))
    monkeypatch.setattr(dynamics, "solve_mu", counted("solve_mu", dynamics.solve_mu))
    monkeypatch.setattr(fixedpoint, "linearized_rhs",
                        counted("linearized_rhs", fixedpoint.linearized_rhs))
    step(pb, st, cfg, dt=frozen.dt, deriv0=deriv0)
    assert outside == []
    traj = lambda_map(pb, frozen, st, cfg)
    assert outside == ["linearized_rhs"]
    del outside[:]
    lambda_map(pb, frozen, st, cfg, deriv0=(traj.pair.du[0], traj.pair.dphi[0]))
    assert outside == []


def test_lambda_map_energy_identity_with_remainder(demo16):
    # Along the map's output, dE/dt + dissipation(frozen laws) equals
    # the transport remainder up to the time-discretization defect.
    pb, cfg = demo16["pb"], demo16["cfg"]
    g = pb.grid
    laws = pb.laws
    st0 = pb.initial_state(demo16["u0"], demo16["phi0"])
    n = int(round(0.05 / cfg.dt))
    frozen = constant_pair(g, st0.u, st0.phi, cfg.dt, n)
    traj = lambda_map(pb, frozen, st0, cfg)

    def dissipation(st, phi_frozen):
        lawg = g.to_grid(phi_frozen)
        du = np.empty((2, 2) + g.n_grid)
        for i in range(2):
            gi = g.grad(st.u[i])
            du[i, 0] = g.to_grid(gi[0])
            du[i, 1] = g.to_grid(gi[1])
        contr = np.zeros(g.n_grid)
        for i in range(2):
            for j in range(2):
                contr += (du[i, j] + du[j, i]) * du[i, j]
        d_visc = g.quadrature(laws.nu(lawg) * contr)
        gmu = g.grad(st.mu)
        d_diff = g.quadrature(
            laws.mobility(lawg) * (g.to_grid(gmu[0]) ** 2 + g.to_grid(gmu[1]) ** 2)
        )
        return d_visc + d_diff

    e = []
    d = []
    r = []
    for k, st in enumerate(traj.states):
        e.append(energy_report(g, st, laws, pb.model, pb.spec).e_total)
        d.append(dissipation(st, frozen.phi[k]))
        r.append(residual_r_eps(g, st, frozen.u[k], pb.spec))
    e, d, r = np.array(e), np.array(d), np.array(r)
    dt = cfg.dt
    raw = e[1:] - e[:-1] + dt * 0.5 * (d[1:] + d[:-1])
    corrected = raw - dt * 0.5 * (r[1:] + r[:-1])
    assert np.max(np.abs(r)) > 1e-5  # the remainder is genuinely active here
    assert np.max(np.abs(corrected)) <= np.max(np.abs(raw)) / 8.0


# --- Picard iteration -----------------------------------------------------------

def test_picard_validation():
    pb = make_problem(n=8, rho=ConstantDensity(1.0))
    g = pb.grid
    cfg = StepperConfig(dt=2.5e-3, t_end=0.0)
    u0, phi0 = u_zero(g), phi_constant(g, 0.1)
    with pytest.raises(DomainError):
        picard(pb, u0, phi0, cfg, t_tilde=0.003, tol=1e-9)
    with pytest.raises(DomainError):
        picard(pb, u0, phi0, cfg, t_tilde=-0.01, tol=1e-9)
    with pytest.raises(DomainError):
        picard(pb, u0, phi0, cfg, t_tilde=0.005, tol=0.0)
    with pytest.raises(DomainError):
        picard(pb, u0, phi0, cfg, t_tilde=0.005, tol=1e-9, max_iter=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"t_tilde": np.inf}, "horizon must be positive and finite, got inf"),
    ({"t_tilde": np.nan}, "horizon must be positive and finite, got nan"),
    ({"tol_r": np.nan}, "tol_r must be nonnegative, got nan"),
    ({"tol_r": -1.0}, "tol_r must be nonnegative, got -1.0"),
    ({"t_tilde": 1e300}, f"horizon must be at most {sys.maxsize - 1} steps, "
                         "got t_tilde=1e+300 / dt=0.0025 = 4e+302 steps"),
])
def test_picard_refuses_a_horizon_or_tol_r_it_cannot_meet(kwargs, message):
    pb = make_problem(n=8, rho=ConstantDensity(1.0))
    g = pb.grid
    cfg = StepperConfig(dt=2.5e-3, t_end=0.0)
    args = {"t_tilde": 0.005, "tol": 1e-9, **kwargs}
    with pytest.raises(DomainError) as info:
        picard(pb, u_zero(g), phi_constant(g, 0.1), cfg, **args)
    assert str(info.value) == message


def test_picard_equilibrium_converges_first_iteration():
    pb = make_problem(rho=ConstantDensity(1.3))
    g = pb.grid
    cfg = StepperConfig(dt=2e-3, t_end=0.0)
    rep = picard(pb, u_zero(g), phi_constant(g, 0.25), cfg, t_tilde=0.01, tol=1e-10)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.distances == [0.0]
    assert rep.r_eps_history == [0.0]


def test_picard_builds_the_initial_state_once(monkeypatch):
    pb = make_problem(n=8)
    g = pb.grid
    calls = []
    build = Problem.initial_state

    def counted(self, u0_grid, phi0_grid):
        calls.append(1)
        return build(self, u0_grid, phi0_grid)

    monkeypatch.setattr(Problem, "initial_state", counted)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.0)
    rep = picard(pb, u_taylor_green(g, 0.3), phi_band_random(g, seed=42, kmax=2, amplitude=0.5),
                 cfg, t_tilde=0.005, tol=1e-18, max_iter=2)
    assert rep.iterations == 2
    assert len(calls) == 1


def test_picard_converges_and_contracts(demo16):
    rep = demo16["report"]
    assert rep.converged
    assert rep.iterations <= 10
    assert rep.distances[-1] <= demo16["tol"]
    ratios = [rep.distances[i + 1] / rep.distances[i] for i in range(len(rep.distances) - 1)]
    assert all(q < 1.0 for q in ratios)


def test_picard_remainder_certificate(demo16):
    rep = demo16["report"]
    for dist, r in zip(rep.distances, rep.r_eps_history):
        assert abs(r) <= 1e-2 * dist
    assert abs(rep.r_eps_history[-1]) <= 1e-8 * demo16["e0"]


def test_picard_matches_nonlinear_run(demo16):
    pb, rep = demo16["pb"], demo16["report"]
    g = pb.grid
    weight = 1.0 + g.k_sq
    worst = 0.0
    for k, st in enumerate(demo16["states_nl"]):
        gap_u = g.norm_l2_spectral(st.u - rep.trajectory.u[k])
        dphi = st.phi - rep.trajectory.phi[k]
        gap_phi = float(np.sqrt(g.area * vdot(dphi, weight * dphi)))
        worst = max(worst, gap_u + gap_phi)
    assert worst <= 10.0 * demo16["tol"]


def test_picard_report_shape(demo16):
    rep = demo16["report"]
    cfg = demo16["cfg"]
    assert rep.iterations == len(rep.distances) == len(rep.r_eps_history)
    assert rep.trajectory.n_steps == int(round(0.05 / cfg.dt))
    assert len(rep.states) == rep.trajectory.n_samples
    assert rep.states[-1].t == pytest.approx(0.05)


def _picard_applications_per_map(monkeypatch, seeded):
    """A 16^2 Picard run with _cg counting operator applications and
    each map's count kept apart, after that of the initial potential;
    unseeded, every map drops its seeds."""
    pb = make_problem()
    g = pb.grid
    cg, lam = dynamics._cg, fixedpoint.lambda_map
    per_map = [0]

    def counted_cg(apply_a, b, x0, rtol, label):
        def counted(w):
            per_map[-1] += 1
            return apply_a(w)
        return cg(counted, b, x0, rtol, label)

    def counted_map(problem, frozen, state, cfg, deriv0=None, seeds=None):
        per_map.append(0)
        return lam(problem, frozen, state, cfg, deriv0, seeds if seeded else None)

    monkeypatch.setattr(dynamics, "_cg", counted_cg)
    monkeypatch.setattr(fixedpoint, "lambda_map", counted_map)
    rep = picard(pb, u_taylor_green(g, 0.3),
                 phi_band_random(g, seed=42, kmax=2, amplitude=0.5, mean=-0.05),
                 StepperConfig(dt=2.5e-3, t_end=0.0), t_tilde=0.02, tol=1e-9)
    return rep, per_map[1:]


def test_picard_seeds_each_map_from_the_one_before(monkeypatch):
    rep, per_map = _picard_applications_per_map(monkeypatch, seeded=True)
    cold, cold_per_map = _picard_applications_per_map(monkeypatch, seeded=False)
    assert rep.converged and cold.converged
    assert rep.iterations == cold.iterations >= 4
    assert per_map[0] == cold_per_map[0]
    assert all(n < per_map[0] for n in per_map[2:]), (per_map, cold_per_map)
    # the seeds move the trajectories only within the solver tolerance
    assert trajectory_distance(rep.trajectory.grid, rep.trajectory, cold.trajectory) <= 1e-11


def test_picard_nonconvergence_is_reported():
    pb = make_problem()
    g = pb.grid
    u0 = u_taylor_green(g, 0.3)
    phi0 = phi_band_random(g, seed=42, kmax=2, amplitude=0.5, mean=-0.05)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.0)
    rep = picard(pb, u0, phi0, cfg, t_tilde=0.005, tol=1e-18, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2
    assert len(rep.distances) == 2
    assert rep.trajectory.n_samples == 3
