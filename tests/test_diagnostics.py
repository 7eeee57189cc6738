import io
import math

import numpy as np
import pytest

from achns.anisotropy import quadratic_form
from achns.basis import TorusGrid, vdot
from achns.diagnostics import (
    EnergyCsvWriter,
    HOLDER_EXPONENT,
    besov_norm,
    besov_seminorm,
    bihari_bound_at,
    bihari_check,
    bihari_horizon,
    energy_law_residual,
    energy_report,
)
from achns.dynamics import MaterialLaws, Problem, StepperConfig, run
from achns.errors import DomainError, HorizonError
from achns.potential import PotentialSpec, f_eps, f_eps_prime
from achns.profiles import (
    ConstantDensity,
    SinusoidalDensity,
    phi_band_random,
    phi_constant,
    phi_modes,
    u_random_solenoidal,
    u_taylor_green,
    u_zero,
)

TWO_PI = 2 * np.pi
BOX = (TWO_PI, TWO_PI)
AREA = TWO_PI * TWO_PI


def make_problem(n=16, model=None, spec=None, laws=None, rho=None):
    grid = TorusGrid(BOX, (n, n))
    model = model if model is not None else quadratic_form([[1.2, -0.1], [-0.1, 1.0]])
    spec = spec if spec is not None else PotentialSpec(1.0, 0.5, 0.1)
    laws = laws if laws is not None else MaterialLaws(0.12, 0.08, 0.01, 0.015)
    rho = rho if rho is not None else SinusoidalDensity(1.5, 0.5, BOX, 1, 1)
    return Problem(grid, model, spec, laws, rho)


def report_of(problem, state):
    return energy_report(problem.grid, state, problem.laws, problem.model, problem.spec)


def collect_reports(problem, u0, phi0, cfg, cadence=1):
    reports = []
    summary = run(
        problem, u0, phi0, cfg,
        sinks=[lambda st: reports.append(report_of(problem, st))],
        cadence=cadence,
    )
    return reports, summary


# --- energy ledger -----------------------------------------------------------

def test_energy_report_constant_state():
    pb = make_problem(rho=ConstantDensity(1.5))
    g = pb.grid
    st = pb.initial_state(u_zero(g), phi_constant(g, 0.3))
    rep = report_of(pb, st)
    fval = f_eps(pb.spec, 0.3)
    assert rep.e_kin == pytest.approx(0.0, abs=1e-15)
    assert rep.e_surf == pytest.approx(0.0, abs=1e-15)
    assert rep.e_pot == pytest.approx(1.5 * AREA * fval, rel=1e-12)
    assert rep.e_total == pytest.approx(1.5 * AREA * fval, rel=1e-12)
    assert rep.d_visc == pytest.approx(0.0, abs=1e-15)
    assert rep.d_diff == pytest.approx(0.0, abs=1e-20)
    assert rep.mass_rho == pytest.approx(1.5 * AREA, rel=1e-13)
    assert rep.mass_rhophi == pytest.approx(0.45 * AREA, rel=1e-13)
    expected_l6 = abs(f_eps_prime(pb.spec, 0.3)) * AREA ** (1.0 / 6.0)
    assert rep.f_eps_prime_l6 == pytest.approx(expected_l6, rel=1e-12)


def test_energy_report_kinetic_closed_form():
    # Taylor-Green at amplitude a over constant density 2:
    # int |u|^2 = a^2 |Omega| / 2, so e_kin = a^2 |Omega| / 2.
    pb = make_problem(rho=ConstantDensity(2.0))
    g = pb.grid
    a = 0.7
    st = pb.initial_state(u_taylor_green(g, a), phi_constant(g, 0.0))
    rep = report_of(pb, st)
    assert rep.e_kin == pytest.approx(a * a * AREA / 2.0, rel=1e-12)
    # cross-check against the Parseval identity on the coefficients
    parseval = 0.5 * 2.0 * g.area * vdot(st.u, st.u)
    assert rep.e_kin == pytest.approx(parseval, rel=1e-12)


def test_energy_report_surface_closed_form():
    # phi = cos(kappa x), identity form: e_surf = kappa^2 |Omega| / 4
    pb = make_problem(model=quadratic_form(np.eye(2)), rho=ConstantDensity(1.0))
    g = pb.grid
    st = pb.initial_state(u_zero(g), phi_modes(g, [(2, 0, 0.5, 0.0)]))
    rep = report_of(pb, st)
    assert rep.e_surf == pytest.approx(4.0 * AREA / 4.0, rel=1e-12)


def test_energy_report_potential_profile_weighted():
    pb = make_problem()
    g = pb.grid
    c = -0.4
    st = pb.initial_state(u_zero(g), phi_constant(g, c))
    rep = report_of(pb, st)
    # the sinusoidal density integrates to base * area
    assert rep.mass_rho == pytest.approx(1.5 * AREA, rel=1e-12)
    assert rep.e_pot == pytest.approx(f_eps(pb.spec, c) * 1.5 * AREA, rel=1e-12)
    assert rep.mass_rhophi == pytest.approx(c * 1.5 * AREA, rel=1e-12)


def test_dissipation_stress_identity_and_signs():
    pb = make_problem()
    g = pb.grid
    u0 = u_random_solenoidal(g, seed=7, kmax=3, amplitude=0.4)
    phi0 = phi_band_random(g, seed=8, kmax=2, amplitude=0.3, mean=0.1)
    st = pb.initial_state(u0, phi0)
    rep = report_of(pb, st)
    # S : grad u equals twice the squared symmetrized gradient
    du = np.empty((2, 2) + g.n_grid)
    for i in range(2):
        gi = g.grad(st.u[i])
        du[i, 0] = g.to_grid(gi[0])
        du[i, 1] = g.to_grid(gi[1])
    sym_sq = np.zeros(g.n_grid)
    for i in range(2):
        for j in range(2):
            sym_sq += (0.5 * (du[i, j] + du[j, i])) ** 2
    phig = g.to_grid(st.phi)
    alt = g.quadrature(2.0 * pb.laws.nu(phig) * sym_sq)
    assert rep.d_visc == pytest.approx(alt, rel=1e-12)
    assert rep.d_visc > 0
    assert rep.d_diff >= 0
    assert rep.e_kin > 0 and rep.e_surf > 0


def test_energy_components_lower_bounds():
    pb = make_problem()
    g = pb.grid
    phi0 = phi_band_random(g, seed=3, kmax=2, amplitude=0.5, mean=-0.05)
    st = pb.initial_state(u_taylor_green(g, 0.3), phi0)
    rep = report_of(pb, st)
    assert rep.e_kin >= 0 and rep.e_surf >= 0
    assert rep.d_visc >= 0 and rep.d_diff >= 0
    # the regularized well dips slightly below zero near its minima, so
    # the floor for the potential term is f_min * mass, not zero (f_min
    # from a dense scan of F_eps, within 1e-7 of its minimum)
    f_min = f_eps(pb.spec, np.linspace(-4, 4, 20_001)).min()
    assert f_min < 0
    assert rep.e_pot >= f_min * rep.mass_rho - 1e-12
    assert rep.f_eps_prime_l6 >= 0


# --- energy-law residual -----------------------------------------------------

def test_energy_residual_needs_two_samples():
    pb = make_problem(rho=ConstantDensity(1.0))
    g = pb.grid
    st = pb.initial_state(u_zero(g), phi_constant(g, 0.1))
    rep = report_of(pb, st)
    with pytest.raises(DomainError):
        energy_law_residual([rep], 1e-3)
    with pytest.raises(DomainError):
        energy_law_residual([rep, rep], 0.0)


def test_energy_residual_equilibrium():
    pb = make_problem(n=8, rho=ConstantDensity(1.3))
    g = pb.grid
    cfg = StepperConfig(dt=2e-3, t_end=0.02)
    reports, _ = collect_reports(pb, u_zero(g), phi_constant(g, 0.25), cfg)
    res, worst = energy_law_residual(reports, cfg.dt)
    assert len(res) == len(reports) - 1
    scale = max(1.0, abs(reports[0].e_total))
    assert worst <= 1e-13 * scale


def test_energy_residual_stokes_order():
    # Pure viscous decay: the residual is the trapezoid defect of the
    # dissipation integral, so halving dt should shrink it by ~8.
    laws = MaterialLaws(0.1, 0.1, 1e-3, 1e-3)
    worsts = []
    for dt in (4e-3, 2e-3, 1e-3):
        pb = make_problem(n=8, laws=laws, rho=ConstantDensity(1.0))
        g = pb.grid
        cfg = StepperConfig(dt=dt, t_end=0.064)
        reports, _ = collect_reports(pb, u_taylor_green(g, 0.5), phi_constant(g, 0.0), cfg)
        _, worst = energy_law_residual(reports, dt)
        worsts.append(worst)
    order1 = math.log2(worsts[0] / worsts[1])
    order2 = math.log2(worsts[1] / worsts[2])
    assert worsts[0] > worsts[1] > worsts[2]
    assert order1 >= 2.9
    assert order2 >= 2.9


def test_energy_monotone_on_dissipative_run():
    pb = make_problem(n=8)
    g = pb.grid
    cfg = StepperConfig(dt=4e-3, t_end=0.2)
    phi0 = phi_band_random(g, seed=5, kmax=2, amplitude=0.4, mean=0.0)
    reports, _ = collect_reports(pb, u_taylor_green(g, 0.4), phi0, cfg)
    _, worst = energy_law_residual(reports, cfg.dt)
    e = np.array([r.e_total for r in reports])
    assert np.all(np.diff(e) <= 10.0 * worst + 1e-15)


def test_energy_csv_writer_streams_and_reparses():
    pb = make_problem(n=8)
    g = pb.grid
    cfg = StepperConfig(dt=4e-3, t_end=0.02)
    buf = io.StringIO()
    writer = EnergyCsvWriter(buf, g, pb.laws, pb.model, pb.spec)
    phi0 = phi_band_random(g, seed=5, kmax=2, amplitude=0.3, mean=0.0)
    reports = []
    run(pb, u_taylor_green(g, 0.3), phi0, cfg,
        sinks=[writer, lambda st: reports.append(report_of(pb, st))])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(EnergyCsvWriter.COLUMNS)
    assert len(lines) == 1 + 6  # initial state plus five steps
    table = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    # 17 significant digits round-trip the doubles exactly
    assert table[0, -1] == 0.0
    assert np.array_equal(table[:, 0], np.array([r.t for r in reports]))
    res, _ = energy_law_residual(reports, cfg.dt)
    assert np.array_equal(table[1:, -1], res)


def test_energy_csv_writer_keeps_only_the_first_and_last_reports():
    pb = make_problem(n=8)
    g = pb.grid
    cfg = StepperConfig(dt=4e-3, t_end=0.02)
    writer = EnergyCsvWriter(io.StringIO(), g, pb.laws, pb.model, pb.spec)
    phi0 = phi_band_random(g, seed=5, kmax=2, amplitude=0.3, mean=0.0)
    run(pb, u_taylor_green(g, 0.3), phi0, cfg, sinks=[writer])
    assert writer.first.t == 0.0
    assert writer.last.t == cfg.t_end
    assert not any(isinstance(v, (list, tuple)) for v in vars(writer).values())


def test_energy_report_makes_one_inverse_transform(monkeypatch):
    pb = make_problem(n=8)
    g = pb.grid
    st = pb.initial_state(u_taylor_green(g, 0.3),
                          phi_band_random(g, seed=5, kmax=2, amplitude=0.3, mean=0.0))
    to_grid = TorusGrid.to_grid
    calls = []

    def counted(self, coef):
        calls.append(np.shape(coef))
        return to_grid(self, coef)

    monkeypatch.setattr(TorusGrid, "to_grid", counted)
    report_of(pb, st)
    assert calls == [(12,) + g.band_shape]


# --- quarter-Holder seminorm ---------------------------------------------------

def test_besov_validation():
    with pytest.raises(DomainError):
        besov_seminorm([1.0, 2.0, 3.0], 2, 0.1)
    with pytest.raises(DomainError):
        besov_seminorm([1.0, 2.0, 3.0, 4.0], 3, 0.1)
    with pytest.raises(DomainError):
        besov_seminorm([1.0, 2.0, 3.0, 4.0], 2, 0.0)
    with pytest.raises(DomainError):
        besov_seminorm(np.ones((4, 2)), 2, 0.1)
    with pytest.raises(DomainError):
        besov_seminorm([1.0, np.nan, 2.0, 3.0], 2, 0.1)
    with pytest.raises(DomainError, match="sample_dt must be positive and finite, got inf"):
        besov_norm([1.0, 2.0, 3.0, 4.0], math.inf, math.inf)


def test_besov_constant_series_is_zero():
    series = np.full(32, 2.5)
    assert besov_seminorm(series, math.inf, 0.01) == 0.0
    assert besov_seminorm(series, 2, 0.01) == 0.0
    # the norm then reduces to the plain sup norm
    assert besov_norm(series, math.inf, 0.01) == pytest.approx(2.5, rel=1e-15)


def test_besov_linear_ramp_sup_norm():
    # f(t) = t on [0, 1]: differences of span h have sup |diff| = h, so
    # the seminorm is sup_h h^(3/4) = 1 attained at the full span.
    dt = 1.0 / 1024.0
    t = np.arange(1025) * dt
    semi = besov_seminorm(t, math.inf, dt)
    assert semi == pytest.approx(1.0, rel=1e-13)
    assert besov_norm(t, math.inf, dt) == pytest.approx(2.0, rel=1e-13)


def test_besov_linear_ramp_l2():
    # continuum value: sup_h h^(3/4) sqrt(1 - h) at h = 0.6
    dt = 1.0 / 1024.0
    t = np.arange(1025) * dt
    semi = besov_seminorm(t, 2, dt)
    hs = np.linspace(1e-6, 1.0, 400001)
    target = float(np.max(hs**0.75 * np.sqrt(1.0 - hs)))
    assert semi == pytest.approx(target, rel=2e-3)


def test_besov_sqrt_ramp():
    # f = sqrt(t): ||f(.+h) - f||_inf = sqrt(h) at t = 0, so the
    # seminorm is sup_h h^(1/4) = 1 at the full span.
    dt = 1.0 / 1024.0
    t = np.arange(1025) * dt
    semi = besov_seminorm(np.sqrt(t), math.inf, dt)
    assert semi == pytest.approx(1.0, rel=1e-13)


def test_besov_small_series_oracle():
    # hand-evaluated on [0, 1, 0, 2] with dt = 1/4
    series = np.array([0.0, 1.0, 0.0, 2.0])
    dt = 0.25
    semi_inf = besov_seminorm(series, math.inf, dt)
    assert semi_inf == pytest.approx(2.0 * 2.0**0.5, rel=1e-13)
    assert besov_norm(series, math.inf, dt) == pytest.approx(2.0 + 2.0 * 2.0**0.5, rel=1e-13)
    # p=2 with the trapezoid rule: shift 1 wins with sqrt(7/8)/0.25^(1/4)
    semi_2 = besov_seminorm(series, 2, dt)
    assert semi_2 == pytest.approx(math.sqrt(1.75), rel=1e-13)


def test_besov_exponent_constant():
    assert HOLDER_EXPONENT == 0.25


def test_besov_stable_under_halved_sampling():
    t_fine = np.arange(513) / 512.0
    f_fine = np.sin(2 * np.pi * t_fine) + 0.3 * np.cos(6 * np.pi * t_fine)
    for p in (2, math.inf):
        s_fine = besov_seminorm(f_fine, p, 1.0 / 512.0)
        s_coarse = besov_seminorm(f_fine[::2], p, 1.0 / 256.0)
        assert abs(s_fine - s_coarse) <= 0.02 * s_fine


# --- quadratic-growth horizon --------------------------------------------------

def test_bihari_horizon_closed_forms():
    assert bihari_horizon(1.0, 0.0, 1.0).t_star == pytest.approx(1.0, rel=1e-15)
    b = bihari_horizon(1.0, 1.0, 1.0)
    assert b.t_star == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)
    # defining identity: t_star = 1 / (c1 (y0 + g0 t_star))
    rng = np.random.default_rng(11)
    for _ in range(50):
        c1, g0, y0 = rng.uniform(0.05, 20.0, size=3)
        bb = bihari_horizon(c1, g0, y0)
        assert bb.t_star == pytest.approx(1.0 / (c1 * (y0 + g0 * bb.t_star)), rel=1e-12)


def test_bihari_validation():
    with pytest.raises(DomainError):
        bihari_horizon(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        bihari_horizon(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        bihari_horizon(1.0, -0.1, 1.0)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 1.0, 1.0), "c1"), ((math.inf, 1.0, 1.0), "c1"),
    ((1.0, 1.0, math.inf), "y0"), ((1.0, 1.0, math.nan), "y0"),
    ((1.0, math.inf, 1.0), "g0"), ((1.0, math.nan, 1.0), "g0"),
])
def test_bihari_horizon_refuses_non_finite_arguments(args, name):
    with pytest.raises(DomainError, match=f"^{name} must be [a-z]+ and finite, got"):
        bihari_horizon(*args)


def test_bihari_bound_evaluation():
    b = bihari_horizon(2.0, 0.5, 1.5)
    assert bihari_bound_at(b, 0.0) == pytest.approx(1.5, rel=1e-15)
    ts = np.linspace(0.0, 0.98 * b.t_star, 64)
    vals = [bihari_bound_at(b, t) for t in ts]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(HorizonError):
        bihari_bound_at(b, b.t_star)
    with pytest.raises(HorizonError):
        bihari_bound_at(b, 2.0 * b.t_star)
    with pytest.raises(DomainError):
        bihari_bound_at(b, -0.1)


def test_bihari_exact_equality_without_forcing():
    # g0 = 0 makes the majorant the exact solution y0 / (1 - c1 y0 t)
    b = bihari_horizon(1.0, 0.0, 1.0)
    for t in np.linspace(0.0, 0.9, 19):
        assert bihari_bound_at(b, t) == pytest.approx(1.0 / (1.0 - t), rel=1e-14)


def test_bihari_check_refuses_a_negative_trial_count():
    with pytest.raises(DomainError, match="n_trials"):
        bihari_check(n_trials=-3)
    assert bihari_check(bihari_horizon(1.0, 1.0, 1.0), n_trials=0)


def test_bihari_check_random_trials():
    assert bihari_check(n_trials=20)
    assert bihari_check(bihari_horizon(3.0, 2.0, 0.7), n_trials=5, seed=4)
