import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from achns import dynamics
from achns.anisotropy import quadratic_form, taylor_cahn_matrix
from achns.basis import Jet, TorusGrid, vdot
from achns.config import parse_config
from achns.dynamics import (
    FlowState,
    MaterialLaws,
    Problem,
    StepperConfig,
    _cg,
    _dot,
    _mass_apply,
    _norm,
    _start,
    grid_fields,
    linearized_rhs,
    rhs,
    rk4_step,
    run,
    solve_mu,
    stability_bound,
    step,
)
from achns.errors import BlowUpError, DomainError, SolverError, StabilityError
from achns.potential import PotentialSpec, f_eps_prime
from achns.profiles import (
    BlobDensity,
    ConstantDensity,
    SinusoidalDensity,
    phi_band_random,
    phi_constant,
    phi_modes,
    u_random_solenoidal,
    u_taylor_green,
    u_zero,
)
from achns.transport import StepRecord, density_from_displacement

TWO_PI = 2 * np.pi
BOX = (TWO_PI, TWO_PI)


def make_problem(n=16, model=None, spec=None, laws=None, rho=None, n_modes_u=None,
                 n_modes_phi=None):
    grid = TorusGrid(BOX, (n, n))
    model = model if model is not None else quadratic_form([[1.2, -0.1], [-0.1, 1.0]])
    spec = spec if spec is not None else PotentialSpec(1.0, 0.5, 0.1)
    laws = laws if laws is not None else MaterialLaws(0.12, 0.08, 0.01, 0.015)
    rho = rho if rho is not None else SinusoidalDensity(1.5, 0.5, BOX, 1, 1)
    return Problem(grid, model, spec, laws, rho, n_modes_u, n_modes_phi)


def make_state(problem, u_grid, phi_grid):
    return problem.initial_state(u_grid, phi_grid)


def slow_eval(grid, coef, d1=0, d2=0):
    """Direct mode-sum synthesis (optionally differentiated), independent
    of the fft plumbing. Only usable on tiny grids. A column k2 > 0 of
    the band counts twice, for itself and its conjugate mirror."""
    X, Y = grid.mesh
    out = np.zeros(grid.n_grid, dtype=complex)
    for i1 in range(coef.shape[0]):
        for i2 in range(coef.shape[1]):
            c = coef[i1, i2] * (2 if i2 > 0 else 1)
            if c == 0.0:
                continue
            a1 = grid.k1[i1, 0]
            a2 = grid.k2[0, i2]
            out += c * (1j * a1) ** d1 * (1j * a2) ** d2 * np.exp(1j * (a1 * X + a2 * Y))
    return out.real


# --- material laws and config validation -------------------------------------

def test_material_laws_affine_and_clamped():
    laws = MaterialLaws(0.12, 0.08, 0.01, 0.015)
    assert laws.nu(-1.0) == pytest.approx(0.12)
    assert laws.nu(1.0) == pytest.approx(0.08)
    assert laws.nu(0.0) == pytest.approx(0.10)
    assert laws.mobility(0.0) == pytest.approx(0.0125)
    # beyond the pure phases the laws saturate
    assert laws.nu(3.0) == pytest.approx(0.08)
    assert laws.nu(-5.0) == pytest.approx(0.12)
    assert laws.mobility(2.0) == pytest.approx(0.015)
    s = np.linspace(-2, 2, 41)
    vals = laws.nu(s)
    assert vals.min() >= 0.08 - 1e-15 and vals.max() <= 0.12 + 1e-15
    assert laws.nu_max == 0.12 and laws.d_max == 0.015


def test_material_laws_validation():
    with pytest.raises(DomainError):
        MaterialLaws(0.0, 0.1, 0.01, 0.01)
    with pytest.raises(DomainError):
        MaterialLaws(0.1, 0.1, -0.01, 0.01)


def test_stepper_config_validation():
    with pytest.raises(DomainError):
        StepperConfig(dt=0.0, t_end=1.0)
    with pytest.raises(DomainError):
        StepperConfig(dt=1e-3, t_end=-1.0)
    for dt in (np.inf, np.nan):
        with pytest.raises(DomainError, match=f"dt must be positive and finite, got {dt}"):
            StepperConfig(dt=dt, t_end=1.0)
    for t_end in (np.inf, np.nan):
        with pytest.raises(DomainError,
                           match=f"t_end must be nonnegative and finite, got {t_end}"):
            StepperConfig(dt=1e-3, t_end=t_end)


def test_problem_validation():
    grid = TorusGrid(BOX, (16, 16))
    spec = PotentialSpec(1.0, 0.5, 0.1)
    laws = MaterialLaws(0.1, 0.1, 0.01, 0.01)
    rho = ConstantDensity(1.0)
    with pytest.raises(DomainError):
        Problem(grid, taylor_cahn_matrix(0.5), spec, laws, rho)
    with pytest.raises(DomainError):
        Problem(grid, quadratic_form([[1.0, 2.0], [2.0, 1.0]]), spec, laws, rho)
    with pytest.raises(DomainError):
        Problem(grid, quadratic_form([[1.0, 0.0], [0.0, 1.0]]),
                PotentialSpec(1.0, 0.5, 0.4), laws, rho)
    prob = make_problem()
    assert prob.report.r > 0
    assert prob.report.R >= prob.report.r


@pytest.mark.parametrize("sampler", [object(), SimpleNamespace(bounds=None),
                                     SimpleNamespace(bounds=(1.0,)),
                                     SimpleNamespace(bounds=(1.0, 2.0, 3.0)),
                                     SimpleNamespace(bounds=(2.0, 1.0)),
                                     SimpleNamespace(bounds=(0.0, 1.0)),
                                     SimpleNamespace(bounds=(1.0, np.inf)),
                                     SimpleNamespace(bounds=(np.nan, 1.0))])
def test_problem_refuses_a_density_sampler_without_two_ordered_finite_bounds(sampler):
    # each is refused when the problem is built, as a DomainError
    with pytest.raises(DomainError, match="density"):
        make_problem(rho=sampler)


def test_grid_fields_are_one_transform_of_the_state_and_the_frozen_pair():
    prob = make_problem()
    g = prob.grid
    state = make_state(prob, u_taylor_green(g, 0.3),
                       phi_band_random(g, seed=5, kmax=2, amplitude=0.4, mean=-0.05))
    tilde_u, tilde_phi = 0.5 * state.u, 0.5 * state.phi
    frozen = grid_fields(g, state, (tilde_u, tilde_phi))
    bands = (state.u, state.phi, g.grad(state.phi), state.mu, g.grad(state.u),
             g.grad(state.mu), tilde_u, tilde_phi, g.grad(tilde_phi))
    for got, coef in zip(frozen, bands, strict=True):
        assert np.array_equal(got, g.to_grid(coef))
    # without a frozen pair, the last three are the state's own u, phi and grad phi
    own = grid_fields(g, state)
    v1, v2 = g.n_grid, (2,) + g.n_grid
    assert [f.shape for f in own] == [v2, v1, v2, v1, (2, 2) + g.n_grid, v2, v2, v1, v2]
    assert all(a is b for a, b in zip(own[6:], own[:3]))
    for a, b in zip(own[:6], frozen[:6]):
        assert np.array_equal(a, b)


def test_stability_bound_formula():
    prob = make_problem(n=16)
    h = TWO_PI / 16
    r_big = 1.1 + np.sqrt(0.02)
    expected = min(h * h * 1.0 / (4 * 0.12), h**4 * 1.0 / (8 * 0.015 * r_big))
    assert stability_bound(prob) == pytest.approx(expected, rel=1e-12)


# --- linear solves -------------------------------------------------------------

def test_cg_raises_on_nonpositive_curvature():
    b = np.ones((4, 4), dtype=complex)
    with pytest.raises(SolverError) as info:
        _cg(lambda x: -x, b, np.zeros_like(b), 1e-13, "potential")
    assert info.value.residual == pytest.approx(1.0)


def test_cg_accepts_a_residual_in_the_operator_null_space():
    # as a mass operator meets the rounding of b it cannot produce: x0
    # solves the system in the operator's range, and nothing better exists
    mask = np.array([1.0, 1.0, 0.0])
    b = np.array([0.0, 0.0, 1e-3], dtype=complex)
    x = _cg(lambda x: mask * x, b, np.zeros_like(b), 1e-13, "velocity")
    np.testing.assert_array_equal(x, np.zeros_like(b))


def test_cg_solves_a_right_hand_side_whose_square_overflows():
    # ||b||^2 is not representable; the solve scales b exactly instead
    rng = np.random.default_rng(2)
    b = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    x = _cg(lambda x: x, 1e200 * b, np.zeros_like(b), 1e-13, "potential")
    np.testing.assert_array_equal(x, 1e200 * b)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_cg_raises_on_a_non_finite_right_hand_side(bad):
    b = np.ones((4, 4), dtype=complex)
    b[1, 2] = bad
    with pytest.raises(SolverError, match="non-finite"):
        _cg(lambda x: x, b, np.zeros_like(b), 1e-13, "velocity")


def test_cg_returns_only_on_the_true_residual():
    # 1:10^4 density blobs at 32^2, solved in the grid form of the
    # velocity mass solve: on 2 of these 10 right-hand sides (seeds 38
    # and 40) the updated residual reaches rtol while c - B y is still
    # 1.006e-13 and 1.026e-13 of c, so a stop on the updated residual
    # alone misses rtol
    g = TorusGrid(BOX, (32, 32))
    x1, x2 = g.mesh
    bump = np.exp(-((x1 - np.pi) ** 2 + (x2 - np.pi) ** 2) / 0.8)
    for seed in range(36, 46):
        rng = np.random.default_rng(seed)
        rho = 1.0 + 9999 * rng.uniform(0.5, 1.0) * bump
        w = 1.0 / np.sqrt(rho)
        b = g.leray_project(g.to_spectral(rng.standard_normal((2, 32, 32))))
        apply_b = _mass_apply(g, {"leray": True}, rho)
        c = w * g.to_grid(b)
        y = _cg(apply_b, c, g.to_grid(b / rho.mean()) / w, 1e-13, "velocity")
        assert _norm(c - apply_b(y)) <= 1e-13 * _norm(c), seed


def blob_mass_operators(n=16, ratio=100.0):
    """The grid forms B of the scalar and vector mass operators of a
    ratio:1 density blob at n^2, each with a sampler of grid arrays
    G(x) sqrt(rho) (the start `_mass_solve` makes of x) for random fields
    x of its solution space."""
    g = TorusGrid(BOX, (n, n))
    x1, x2 = g.mesh
    rho = 1.0 + (ratio - 1.0) * np.exp(-((x1 - np.pi) ** 2 + (x2 - np.pi) ** 2) / 0.8)
    sqrt_rho = np.sqrt(rho)

    def scalar_field(seed):
        return g.to_grid(g.to_spectral(np.random.default_rng(seed).standard_normal((n, n)))) * sqrt_rho

    def vector_field(seed):
        coef = g.leray_project(g.to_spectral(np.random.default_rng(seed).standard_normal((2, n, n))))
        return g.to_grid(coef) * sqrt_rho

    return [(_mass_apply(g, {}, rho), scalar_field),
            (_mass_apply(g, {"leray": True}, rho), vector_field)]


def a_norm_sq(apply_a, e):
    return _dot(e, apply_a(e))


def test_cg_scaled_start_is_never_worse_than_zero():
    for apply_a, field in blob_mass_operators():
        sol = field(5)
        b = apply_a(sol)
        other = field(6)
        starts = [sol, -3.0 * sol, 1e12 * sol, sol + 0.5 * other, other, -other,
                  1e-30 * other, np.zeros_like(sol)]
        zero_err = a_norm_sq(apply_a, sol)
        for x0 in starts:
            x, r = _start(apply_a, b, x0)
            assert a_norm_sq(apply_a, sol - x) <= zero_err * (1 + 1e-12)
            np.testing.assert_allclose(r, b - apply_a(x), rtol=0, atol=1e-12 * np.abs(b).max())
            x = _cg(apply_a, b, x0, 1e-13, "potential")
            assert _norm(b - apply_a(x)) <= 1e-13 * _norm(b)


def test_cg_takes_a_far_start_for_a_right_hand_side_at_rounding_level():
    # criterion 3 in miniature: a right-hand side of pure rounding, started
    # from a derivative 1e20 times larger. The start as given leaves a
    # residual 1e20 times b, which CG cannot reduce to rtol
    for apply_a, field in blob_mass_operators():
        b = 1e-17 * apply_a(field(7))
        x0 = 1e20 * np.abs(b).max() / np.abs(field(8)).max() * field(8)
        x = _cg(apply_a, b, x0, 1e-13, "velocity")
        assert _norm(b - apply_a(x)) <= 1e-13 * _norm(b)


def test_cg_from_the_exact_solution_returns_after_one_application():
    for apply_a, field in blob_mass_operators():
        sol = field(5)
        b = apply_a(sol)
        calls = []
        x = _cg(lambda w: calls.append(1) or apply_a(w), b, sol, 1e-13, "velocity")
        assert len(calls) == 1
        assert _norm(x - sol) <= 1e-13 * _norm(sol)


# --- chemical potential solves ------------------------------------------------

def test_solve_mu_zero_field_exact_zero():
    prob = make_problem()
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    phi = g.to_spectral(phi_constant(g, 0.0))
    mu = solve_mu(prob, phi, rho)
    assert np.all(mu == 0.0)


def test_solve_mu_constant_state():
    prob = make_problem()
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    c = 0.3
    phi = g.to_spectral(phi_constant(g, c))
    mu = solve_mu(prob, phi, rho)
    expected = f_eps_prime(prob.spec, c)
    assert np.max(np.abs(g.to_grid(mu) - expected)) < 1e-9


def test_solve_mu_small_amplitude_linearization():
    # rho constant, single small mode: mu_hat = (F_eps''(0) + k.M k) phi_hat
    model = quadratic_form([[1.2, -0.1], [-0.1, 1.0]])
    prob = make_problem(model=model, rho=ConstantDensity(1.0))
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    amp = 1e-3
    phi = g.to_spectral(phi_modes(g, [(1, 1, amp / 2, 0.0)]))
    mu = solve_mu(prob, phi, rho)
    k_m_k = 1.2 - 0.1 - 0.1 + 1.0
    fpp0 = -prob.spec.lambda1 + prob.spec.lambda2
    expected = (fpp0 + k_m_k) * phi
    idx = (1, 1)  # also holds its conjugate partner (-1, -1)
    assert mu[idx] == pytest.approx(expected[idx], rel=1e-3)
    off = np.abs(mu - expected)
    off[idx] = 0.0
    assert off.max() < 1e-3 * np.abs(expected[idx])


def test_solve_mu_anisotropic_flux_identity():
    # with unit density the solve is exact: the flux part of mu equals
    # the quadratic form contraction k.M k acting mode-by-mode
    model = quadratic_form([[3.0, -1.0], [-1.0, 3.0]])
    prob = make_problem(model=model, rho=ConstantDensity(1.0))
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    phi_grid_vals = phi_modes(g, [(1, 1, 0.0, -0.25)])  # 0.5 sin(x+y)
    phi = g.to_spectral(phi_grid_vals)
    mu = solve_mu(prob, phi, rho)
    flux_part = mu - g.to_spectral(f_eps_prime(prob.spec, phi_grid_vals))
    assert np.max(np.abs(flux_part - 4.0 * phi)) < 1e-12


def test_solve_mu_weak_identity_quadrature():
    # nonconstant density, random band state, tiny grid: verify the
    # defining integral identity mode by mode with direct sums
    g = TorusGrid(BOX, (8, 8))
    model = quadratic_form([[1.3, -0.2], [-0.2, 0.9]])
    spec = PotentialSpec(1.0, 0.5, 0.1)
    rho0 = SinusoidalDensity(1.5, 0.4, BOX, 1, 0)
    prob = Problem(g, model, spec, MaterialLaws(0.12, 0.08, 0.01, 0.015), rho0)
    rho = density_from_displacement(rho0, g, None)
    phi = g.to_spectral(phi_band_random(g, seed=7, kmax=2, amplitude=0.4, mean=0.1))
    mu = solve_mu(prob, phi, rho)

    X, Y = g.mesh
    mu_vals = slow_eval(g, mu)
    phi_vals = slow_eval(g, phi)
    dphi = np.stack([slow_eval(g, phi, d1=1), slow_eval(g, phi, d2=1)])
    m = np.asarray(model.matrix)
    flux = np.stack([m[0, 0] * dphi[0] + m[0, 1] * dphi[1],
                     m[1, 0] * dphi[0] + m[1, 1] * dphi[1]])
    fpr = f_eps_prime(spec, phi_vals)
    worst = 0.0
    scale = 0.0
    for k1 in range(-2, 3):
        for k2 in range(-2, 3):
            e_bar = np.exp(-1j * (k1 * X + k2 * Y))
            lhs = g.cell * np.sum(rho.values * mu_vals * e_bar)
            grad_term = g.cell * np.sum((flux[0] * (-1j * k1) + flux[1] * (-1j * k2)) * e_bar)
            pot_term = g.cell * np.sum(rho.values * fpr * e_bar)
            rhs_val = grad_term + pot_term
            worst = max(worst, abs(lhs - rhs_val))
            scale = max(scale, abs(rhs_val))
    assert scale > 1e-3
    assert worst < 1e-9 * scale


# --- right-hand sides ----------------------------------------------------------

def test_rhs_equilibrium_exact_zero():
    prob = make_problem()
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    c = 0.2
    phi = g.to_spectral(phi_constant(g, c))
    u = np.zeros((2,) + g.band_shape, dtype=complex)
    mu = np.zeros(g.band_shape, dtype=complex)
    mu[0, 0] = f_eps_prime(prob.spec, c)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = rhs(prob, state)
    assert np.all(du == 0.0)
    assert np.all(dphi == 0.0)


def test_rhs_stokes_single_mode():
    # unit density, zero order parameter: du/dt = -nu |k|^2 u for a
    # solenoidal trig mode, fixing the stress normalization
    nu = 0.1
    prob = make_problem(
        model=quadratic_form([[1.0, 0.0], [0.0, 1.0]]),
        laws=MaterialLaws(nu, nu, 1e-3, 1e-3),
        rho=ConstantDensity(1.0),
    )
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    amp = 0.4
    u_grid = np.stack([np.zeros(g.n_grid), amp * np.cos(g.mesh[0])])
    u = g.leray_project(np.stack([g.to_spectral(u_grid[0]), g.to_spectral(u_grid[1])]))
    phi = g.to_spectral(phi_constant(g, 0.0))
    mu = np.zeros(g.band_shape, dtype=complex)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = rhs(prob, state)
    assert np.max(np.abs(du - (-nu) * u)) < 1e-12 * amp
    assert np.all(dphi == 0.0)


def test_rhs_spinodal_growth_rate():
    # small perturbation of the mixed state grows at the linearized rate
    d0 = 0.02
    spec = PotentialSpec(2.0, 0.5, 0.1)
    prob = make_problem(
        model=quadratic_form([[1.0, 0.0], [0.0, 1.0]]),
        spec=spec,
        laws=MaterialLaws(0.1, 0.1, d0, d0),
        rho=ConstantDensity(1.0),
    )
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    amp = 1e-3
    phi = g.to_spectral(phi_modes(g, [(1, 0, amp / 2, 0.0)]))
    u = np.zeros((2,) + g.band_shape, dtype=complex)
    mu = solve_mu(prob, phi, rho)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = rhs(prob, state)
    fpp0 = -2.0 + 0.5
    rate = -d0 * 1.0 * (fpp0 + 1.0)  # positive: instability
    assert rate > 0
    assert dphi[1, 0] == pytest.approx(rate * phi[1, 0], rel=1e-2)
    assert np.max(np.abs(du)) < 1e-12


def test_rhs_mode_projection():
    prob = make_problem(n_modes_u=9, n_modes_phi=9)
    g = prob.grid
    state = make_state(
        prob, u_taylor_green(g, 0.3),
        phi_band_random(g, seed=3, kmax=2, amplitude=0.4),
    )
    assert np.array_equal(state.phi, g.project_scalar(state.phi, 9))
    du, dphi = rhs(prob, state)
    assert np.array_equal(dphi, g.project_scalar(dphi, 9))
    for c in du:
        assert np.array_equal(c, g.project_scalar(c, 9))
    assert np.max(np.abs(g.div(du))) < 1e-12


def test_config_mode_counts_reach_the_run():
    # [time] n_modes_u / n_modes_phi set the Galerkin spaces the run
    # integrates in, through RunConfig.problem()
    text = "[domain]\nn1 = 16\nn2 = 16\n[time]\ndt = 0.004\nt_end = 0.008\n"
    cfg = parse_config(text + "n_modes_u = 9\nn_modes_phi = 13\n")
    whole = parse_config(text)
    g = cfg.grid()
    u0, phi0 = cfg.initial_fields(g)
    out = run(cfg.problem(), u0, phi0, cfg.stepper())
    assert out.n_steps == 2
    fin = out.final_state
    assert np.array_equal(fin.u, g.project_scalar(fin.u, 9))
    assert np.array_equal(fin.phi, g.project_scalar(fin.phi, 13))
    assert np.array_equal(fin.mu, g.project_scalar(fin.mu, 13))
    ref = run(whole.problem(), u0, phi0, whole.stepper()).final_state
    assert not np.array_equal(fin.phi, ref.phi)


def test_truncated_steps_keep_every_field_exactly_hermitian():
    # column 0 of the band holds k1 and -k1 of real fields: a truncated
    # run must leave them conjugate, bit for bit
    prob = make_problem(n=16, n_modes_u=13, n_modes_phi=13)
    g = prob.grid
    cfg = StepperConfig(dt=4e-3, t_end=0.012)
    state = make_state(
        prob, u_taylor_green(g, 0.3),
        phi_band_random(g, seed=3, kmax=2, amplitude=0.4),
    )
    deriv = None
    for _ in range(3):
        state, deriv = step(prob, state, cfg, deriv0=deriv)
    neg = (Ellipsis, -g.k1_int % g.band_shape[0], 0)
    for c in (state.u, state.phi, state.mu, *deriv):
        np.testing.assert_array_equal(c[..., 0], np.conj(c[neg]))


# --- linearized right-hand side -------------------------------------------------

def test_linearized_matches_rhs_when_frozen_is_current():
    prob = make_problem()
    g = prob.grid
    state = make_state(
        prob, u_taylor_green(g, 0.3),
        phi_band_random(g, seed=5, kmax=2, amplitude=0.4, mean=-0.05),
    )
    du_a, dphi_a = rhs(prob, state)
    du_b, dphi_b = linearized_rhs(prob, state, state.u.copy(), state.phi.copy())
    assert np.max(np.abs(du_a - du_b)) < 1e-14
    assert np.max(np.abs(dphi_a - dphi_b)) < 1e-14


@pytest.mark.parametrize("linearized", [False, True])
def test_each_right_hand_side_makes_one_forward_transform(monkeypatch, linearized):
    # with the mass solves stubbed out, the momentum terms (stress,
    # convection, force) and the concentration terms (mobility flux,
    # convection) leave the grid by one transform of 11 fields
    prob = make_problem()
    g = prob.grid
    state = make_state(prob, u_taylor_green(g, 0.3),
                       phi_band_random(g, seed=5, kmax=2, amplitude=0.4, mean=-0.05))
    to_spectral = TorusGrid.to_spectral
    calls = []

    def counted(self, values):
        calls.append(np.shape(values))
        return to_spectral(self, values)

    monkeypatch.setattr(dynamics, "_mass_solve", lambda grid, project, rho, b, x0, label: b)
    monkeypatch.setattr(TorusGrid, "to_spectral", counted)
    if linearized:
        linearized_rhs(prob, state, state.u, state.phi)
    else:
        rhs(prob, state)
    assert calls == [(11,) + g.n_grid]


@pytest.mark.parametrize("linearized", [False, True])
def test_each_right_hand_side_makes_one_inverse_transform(monkeypatch, linearized):
    # with the mass solves stubbed out, every band field the assembly
    # reads (u, phi, mu and their gradients; the frozen u~, phi~ and
    # grad phi~ of the linearized system) goes to the grid in one call
    prob = make_problem()
    g = prob.grid
    state = make_state(prob, u_taylor_green(g, 0.3),
                       phi_band_random(g, seed=5, kmax=2, amplitude=0.4, mean=-0.05))
    to_grid = TorusGrid.to_grid
    calls = []

    def counted(self, coef):
        calls.append(np.shape(coef))
        return to_grid(self, coef)

    monkeypatch.setattr(dynamics, "_mass_solve", lambda grid, project, rho, b, x0, label: b)
    monkeypatch.setattr(TorusGrid, "to_grid", counted)
    if linearized:
        linearized_rhs(prob, state, state.u, state.phi)
    else:
        rhs(prob, state)
    assert calls == [((17,) if linearized else (12,)) + g.band_shape]


def test_mass_solve_projects_b_and_uses_a_given_start_as_it_is(monkeypatch):
    # CG gets c = w G(P b), w = 1/sqrt(rho), and the start G(x0) / w of
    # x0 as given, or c itself (x0 = S(G(P b) / rho)) without one
    prob = make_problem(n_modes_u=9, n_modes_phi=13)
    g = prob.grid
    rho = make_state(prob, u_zero(g), phi_constant(g, 0.0)).rho.values
    w = 1.0 / np.sqrt(rho)
    b = g.to_spectral(np.random.default_rng(3).standard_normal((2,) + g.n_grid))
    seen = []
    monkeypatch.setattr(dynamics, "_cg",
                        lambda apply_a, b, x0, rtol, label: seen.append((b, x0)) or x0)
    dynamics._mass_solve(g, prob.project_u, rho, b, None, "velocity")
    pb = prob.project_u(prob.project_u(b))
    assert np.array_equal(seen[0][0], w * g.to_grid(pb))
    assert seen[0][1] is seen[0][0]
    x0 = b[0]
    assert not np.array_equal(prob.project_phi(x0), x0)
    dynamics._mass_solve(g, prob.project_phi, rho, b[1], x0, "concentration")
    assert np.array_equal(seen[1][0], w * g.to_grid(prob.project_phi(b[1])))
    assert np.array_equal(seen[1][1], g.to_grid(x0) / w)


def test_mass_solve_reaches_cg_through_five_positional_arguments(monkeypatch):
    # the contract of every wrapper of _cg that counts its solves (the
    # benchmark's traced CG, scripts/stress.py): _cg(apply_a, b, x0, rtol,
    # label) with nothing by keyword, and every operator application and
    # transform of the solve inside apply_a
    prob = make_problem(n=16, rho=BlobDensity(1.0, 99.0, 0.8, (np.pi, np.pi), BOX))
    g = prob.grid
    state = make_state(prob, u_taylor_green(g, 0.3), phi_band_random(g, seed=7, kmax=3, amplitude=0.3))
    cg, calls = dynamics._cg, []

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return cg(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_cg", spy)
    solve_mu(prob, state.phi, state.rho, x0=state.mu)
    rhs(prob, state)
    assert calls == [(5, {})] * 3


def test_mass_operator_stays_on_the_grid_and_builds_no_mode_mask_for_the_whole_band(monkeypatch):
    # every application of a mass operator is two TorusGrid.project_grid
    # calls, no band transform; without a mode count no solve builds the
    # mode ranks, with the mode list 0.8 ms of set-up at 128^2
    prob = make_problem(n=16, rho=BlobDensity(1.0, 99.0, 0.8, (np.pi, np.pi), BOX))
    g = prob.grid
    state = make_state(prob, u_taylor_green(g, 0.3), phi_band_random(g, seed=7, kmax=3, amplitude=0.3))
    transforms, per_application = [], []
    for name in ("to_spectral", "to_grid"):
        monkeypatch.setattr(TorusGrid, name, lambda self, a, f=getattr(TorusGrid, name):
                            transforms.append(1) or f(self, a))
    cg = dynamics._cg

    def spy(apply_a, b, x0, rtol, label):
        def counted(y):
            before = len(transforms)
            out = apply_a(y)
            per_application.append(len(transforms) - before)
            return out

        return cg(counted, b, x0, rtol, label)

    monkeypatch.setattr(dynamics, "_cg", spy)
    solve_mu(prob, state.phi, state.rho, x0=state.mu)
    rhs(prob, state)
    assert per_application and set(per_application) == {0}
    assert "_band_rank" not in vars(g)


def test_a_ten_thousand_to_one_blob_steps_with_every_solve_under_100_iterations(monkeypatch):
    # the 1:10^4 stress row at 32^2: plain CG met its 400-iteration cap on
    # the first potential solve; each solve counted as wrappers of _cg
    # count it, operator applications less the start's
    cfg = parse_config(
        "[domain]\nn1 = 32\nn2 = 32\n"
        "[density]\nprofile = blob\nbase = 1.0\namplitude = 9999\nwidth = 0.8\n"
        f"center1 = {np.pi!r}\ncenter2 = {np.pi!r}\n")
    prob = cfg.problem()
    h = min(cfg.dt, 0.5 * stability_bound(prob))
    cg, iters = dynamics._cg, []

    def counted_cg(apply_a, b, x0, rtol, label):
        calls = [0]

        def counted(w):
            calls[0] += 1
            return apply_a(w)

        try:
            return cg(counted, b, x0, rtol, label)
        finally:
            iters.append(calls[0] - 1)

    monkeypatch.setattr(dynamics, "_cg", counted_cg)
    summary = run(prob, *cfg.initial_fields(prob.grid), StepperConfig(dt=h, t_end=2 * h))
    assert summary.n_steps == 2
    assert len(iters) == 1 + 2 + 2 * 24
    assert max(iters) <= 100, max(iters)


def test_linearized_constant_frozen_phi_flux_only():
    # frozen constant phi kills transport and the capillary mu-term;
    # with unit density what remains of dphi/dt is the mobility flux
    prob = make_problem(rho=ConstantDensity(1.0))
    g = prob.grid
    state = make_state(
        prob, u_random_solenoidal(g, seed=3, kmax=2, amplitude=0.4),
        phi_band_random(g, seed=9, kmax=2, amplitude=0.35, mean=0.1),
    )
    frozen_phi_val = 0.2
    frozen_u = state.u.copy()
    frozen_phi = g.to_spectral(phi_constant(g, frozen_phi_val))
    _, dphi = linearized_rhs(prob, state, frozen_u, frozen_phi)
    d_c = prob.laws.mobility(frozen_phi_val)
    expected = -d_c * g.k_sq * state.mu
    assert np.max(np.abs(dphi - expected)) < 1e-12


def test_linearized_rhs_quadrature_oracle():
    # every retained weak equation, verified against direct grid sums
    # with a frozen pair distinct from the current state
    g = TorusGrid(BOX, (8, 8))
    model = quadratic_form([[1.2, -0.1], [-0.1, 1.0]])
    spec = PotentialSpec(1.0, 0.5, 0.1)
    laws = MaterialLaws(0.12, 0.08, 0.01, 0.015)
    rho0 = SinusoidalDensity(1.5, 0.4, BOX, 1, 0)
    prob = Problem(g, model, spec, laws, rho0)
    rho = density_from_displacement(rho0, g, None)

    u = g.leray_project(np.stack([
        g.to_spectral(c) for c in u_random_solenoidal(g, seed=3, kmax=2, amplitude=0.4)
    ]))
    phi = g.to_spectral(phi_band_random(g, seed=5, kmax=2, amplitude=0.35, mean=-0.05))
    frozen_u = g.leray_project(np.stack([
        g.to_spectral(c) for c in u_random_solenoidal(g, seed=11, kmax=2, amplitude=0.3)
    ]))
    frozen_phi = g.to_spectral(phi_band_random(g, seed=13, kmax=2, amplitude=0.3, mean=0.1))
    mu = solve_mu(prob, phi, rho)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = linearized_rhs(prob, state, frozen_u, frozen_phi)

    X, Y = g.mesh
    rv = rho.values
    ug = np.stack([slow_eval(g, u[0]), slow_eval(g, u[1])])
    ftg = np.stack([slow_eval(g, frozen_u[0]), slow_eval(g, frozen_u[1])])
    phig = slow_eval(g, phi)
    fphig = slow_eval(g, frozen_phi)
    mug = slow_eval(g, mu)
    dug = np.stack([slow_eval(g, du[0]), slow_eval(g, du[1])])
    dphig = slow_eval(g, dphi)
    grad_u = np.empty((2, 2) + g.n_grid)
    for i in range(2):
        grad_u[i, 0] = slow_eval(g, u[i], d1=1)
        grad_u[i, 1] = slow_eval(g, u[i], d2=1)
    g_fphi = np.stack([slow_eval(g, frozen_phi, d1=1), slow_eval(g, frozen_phi, d2=1)])
    g_phi = np.stack([slow_eval(g, phi, d1=1), slow_eval(g, phi, d2=1)])
    g_mu = np.stack([slow_eval(g, mu, d1=1), slow_eval(g, mu, d2=1)])
    nu_g = laws.nu(fphig)
    d_g = laws.mobility(fphig)
    fpr = f_eps_prime(spec, phig)
    s_mat = np.empty((2, 2) + g.n_grid)
    for i in range(2):
        for j in range(2):
            s_mat[i, j] = grad_u[i, j] + grad_u[j, i]
    conv_u = np.stack([
        rv * (ftg[0] * grad_u[0, 0] + ftg[1] * grad_u[0, 1]),
        rv * (ftg[0] * grad_u[1, 0] + ftg[1] * grad_u[1, 1]),
    ])
    force = np.stack([
        rv * (mug * g_fphi[0] - fpr * g_phi[0]),
        rv * (mug * g_fphi[1] - fpr * g_phi[1]),
    ])
    conv_phi = rv * (ug[0] * g_fphi[0] + ug[1] * g_fphi[1])

    def q(field, test):
        return g.cell * np.sum(field * np.conj(test))

    worst_phi = worst_mom = 0.0
    scale_phi = scale_mom = 0.0
    for k1 in range(-2, 3):
        for k2 in range(-2, 3):
            e = np.exp(1j * (k1 * X + k2 * Y))
            lhs = q(rv * dphig, e)
            rhs_val = -q(conv_phi, e) - sum(
                q(d_g * g_mu[j], 1j * k * e) for j, k in ((0, k1), (1, k2))
            )
            worst_phi = max(worst_phi, abs(lhs - rhs_val))
            scale_phi = max(scale_phi, abs(lhs))

            if (k1, k2) == (0, 0):
                tests = [np.stack([np.ones_like(e), np.zeros_like(e)]),
                         np.stack([np.zeros_like(e), np.ones_like(e)])]
            else:
                tests = [np.stack([-k2 * e, k1 * e])]
            for v in tests:
                lhs_m = sum(q(rv * dug[i], v[i]) for i in range(2))
                visc = sum(
                    q(nu_g * s_mat[i][j], 1j * k * v[i])
                    for i in range(2)
                    for j, k in ((0, k1), (1, k2))
                )
                rhs_m = (
                    -sum(q(conv_u[i], v[i]) for i in range(2))
                    - visc
                    + sum(q(force[i], v[i]) for i in range(2))
                )
                worst_mom = max(worst_mom, abs(lhs_m - rhs_m))
                scale_mom = max(scale_mom, abs(lhs_m))
    assert scale_phi > 1e-4 and scale_mom > 1e-4
    assert worst_phi < 1e-10 * max(1.0, scale_phi)
    assert worst_mom < 1e-10 * max(1.0, scale_mom)


# --- stepping -------------------------------------------------------------------

def test_step_equilibrium_fixed_point():
    prob = make_problem()
    g = prob.grid
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    state = make_state(prob, u_zero(g), phi_constant(g, 0.25))
    new, _ = step(prob, state, cfg)
    assert np.max(np.abs(new.u)) < 1e-14
    assert np.max(np.abs(new.phi - state.phi)) < 1e-14
    assert np.array_equal(new.rho.values, state.rho.values)
    assert np.max(np.abs(new.mu - state.mu)) < 1e-11


def test_rk4_step_stages_and_end_state():
    prob = make_problem(n=8)
    g = prob.grid
    state = make_state(prob, u_zero(g), phi_band_random(g, seed=3, kmax=2, amplitude=0.3))
    state = FlowState(0.5, state.u, state.phi, state.rho, state.mu)
    h = 1e-3
    rng = np.random.default_rng(4)
    c_u = g.leray_project(g.to_spectral(rng.standard_normal((2, 8, 8))))
    c_phi = g.to_spectral(rng.standard_normal((8, 8)))
    seen, starts, slopes = [], [], []

    def slope(st, start):
        seen.append(st)
        starts.append(start)
        slopes.append((c_u.copy(), c_phi.copy()))
        return slopes[-1]

    still = StepRecord(0.5, h, np.zeros((4,) + state.u.shape, dtype=complex))
    k1 = (c_u, c_phi)
    new, end_slope, evals = rk4_step(prob, state, h, k1, still, slope)
    # four evaluations: s2, s3, s4 and the end state
    assert [st.t for st in seen] == [0.5 + h / 2, 0.5 + h / 2, 0.5 + h, 0.5 + h]
    assert seen[3] is new
    # with no seeds, each evaluation starts from the previous one's
    # derivatives: s2 from k1, the end state from s4's
    assert starts[0] is k1
    assert all(starts[i] is slopes[i - 1] for i in range(1, 4))
    assert len(evals) == 4 and end_slope is evals[3][1] is slopes[3]
    for (mu, k), st, sl in zip(evals, seen, slopes):
        assert mu is st.mu and k is sl
    # a resting velocity model leaves the density where it was
    for st in seen:
        np.testing.assert_array_equal(st.rho.values, state.rho.values)
    np.testing.assert_array_equal(new.disp, 0.0)
    # a constant slope is integrated exactly, up to rounding
    assert new.t == 0.5 + h
    assert np.max(np.abs(new.u - (state.u + h * c_u))) < 1e-15
    assert np.max(np.abs(new.phi - (state.phi + h * c_phi))) < 1e-15
    # the stage potentials and the end one are solved for their own phi
    for st in seen[1:]:
        fresh = solve_mu(prob, st.phi, st.rho)
        assert np.max(np.abs(fresh - st.mu)) <= 1e-9 * np.max(np.abs(fresh))


def test_rk4_step_raises_on_a_non_finite_stage():
    prob = make_problem(n=8)
    g = prob.grid
    state = make_state(prob, u_zero(g), phi_constant(g, 0.1))
    still = StepRecord(0.0, 1e-3, np.zeros((4,) + state.u.shape, dtype=complex))
    zero = (np.zeros_like(state.u), np.zeros_like(state.phi))

    def slope(st, start):
        return np.full_like(state.u, np.nan), zero[1]

    with pytest.raises(BlowUpError) as exc:
        rk4_step(prob, state, 1e-3, zero, still, slope)
    assert exc.value.field == "velocity"
    assert exc.value.t == pytest.approx(5e-4)


def test_rk4_step_reads_the_model_at_one_time_per_trace_node(monkeypatch):
    # the demo reaches t = 0.4960000000000004 by adding 0.004 124 times;
    # there the full trace's midpoint (t+h) + 0.5 (t - (t+h)) is one ulp
    # off t + h/2, the half trace's start (the literal 0.496 has no gap).
    # Both read the model at t + h/2: four times, not five.
    t, h = 0.4960000000000004, 0.004
    assert (t + h) + 0.5 * (t - (t + h)) != t + h / 2
    prob = make_problem(n=8)
    g = prob.grid
    state = make_state(prob, u_zero(g), phi_constant(g, 0.1))
    state = FlowState(t, state.u, state.phi, state.rho, state.mu)
    zero = (np.zeros_like(state.u), np.zeros_like(state.phi))
    still = StepRecord(t, h, np.zeros((4,) + state.u.shape, dtype=complex))
    times, coef_at = [], StepRecord.coef_at

    def traced_coef_at(record, tau):
        times.append(tau)
        return coef_at(record, tau)

    monkeypatch.setattr(StepRecord, "coef_at", traced_coef_at)
    rk4_step(prob, state, h, zero, still, lambda st, start: zero)
    assert len(times) == 4
    assert t + h / 2 in times


def test_step_starts_each_solve_from_the_nearest_solution(monkeypatch):
    # one 16^2 step at a 1:100 blob, every solve seen as perfbench's
    # wrap_cg sees it: by _cg's five positional arguments
    prob = make_problem(n=16, rho=BlobDensity(1.0, 99.0, 0.8, (np.pi, np.pi), BOX))
    g = prob.grid
    h = 0.5 * stability_bound(prob)
    cfg = StepperConfig(dt=h, t_end=h)
    state = make_state(prob, u_taylor_green(g, 0.3), phi_band_random(g, seed=7, kmax=3, amplitude=0.3))
    k1 = rhs(prob, state)
    cg = dynamics._cg
    solves = []

    def traced_cg(apply_a, b, x0, rtol, label):
        r0 = b - apply_a(x0)
        solves.append((label, _norm(r0) / _norm(b)))
        return cg(apply_a, b, x0, rtol, label)

    monkeypatch.setattr(dynamics, "_cg", traced_cg)
    step(prob, state, cfg, deriv0=k1)
    stages = ["potential", "velocity", "concentration"] * 3 + ["potential"]
    slopes = ["velocity", "concentration"]
    assert [label for label, _ in solves] == stages + slopes + stages + slopes
    start = [r0 for _, r0 in solves]
    # b / rho_bar leaves a relative residual above 1 at this contrast, and
    # the previous stage's derivative one below 0.1
    for i in (1, 2, 4, 5, 7, 8, 10, 11):
        assert start[i] < 0.2, i
    # pass 1 and the end derivatives start from pass 0's solutions
    for i in range(12, 24):
        assert start[i] < 1e-4, i


def test_each_pass_builds_four_jets_one_alive_at_a_time(monkeypatch):
    # a 16^2 step with a displacement: per pass, the two traces evaluate
    # the model at t + h/4, t + h/2 and t beyond order 0, and the
    # composes evaluate state.disp; each of the 4 fields gets one jet,
    # and each jet is dropped before the next grows past order 0. At this
    # dt the feet lie within 1e-5 of the nodes, where 16^2 plans Taylor.
    prob = make_problem(n=16)
    g = prob.grid
    cfg = StepperConfig(dt=2e-5, t_end=4e-5)
    phi0 = phi_band_random(g, seed=7, kmax=2, amplitude=0.4)
    state, deriv = step(prob, make_state(prob, u_taylor_green(g, 0.3), phi0), cfg)
    assert state.disp is not None
    grown, per_pass = [], []
    extend, rk4 = Jet.extend, dynamics.rk4_step

    def traced_extend(jet, order):
        if order >= 1 and jet.order < 1:
            assert all(ref() is None for ref in grown), "two jets past order 0 alive at once"
            grown.append(weakref.ref(jet))
        extend(jet, order)

    def counted_rk4(*args, **kwargs):
        before = len(grown)
        result = rk4(*args, **kwargs)
        per_pass.append(len(grown) - before)
        return result

    monkeypatch.setattr(Jet, "extend", traced_extend)
    monkeypatch.setattr(dynamics, "rk4_step", counted_rk4)
    step(prob, state, cfg, deriv0=deriv)
    assert per_pass == [4, 4]


def test_step_lets_pass_0_go_before_pass_1_needs_the_room(monkeypatch):
    # one 16^2 step with deriv0: pass 0's linear velocity record is dead
    # once pass 1 starts, and its s2-s4 derivatives, each seed popped as
    # pass 1 uses it, are dead by pass 1's end evaluation
    prob = make_problem(n=16)
    g = prob.grid
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    state = make_state(prob, u_taylor_green(g, 0.3), phi_band_random(g, seed=7, kmax=2, amplitude=0.4))
    deriv0 = rhs(prob, state)
    rk4, slope = dynamics.rk4_step, dynamics.rhs
    record, derivs, calls, checked = [], [], [], []

    def traced_rk4(problem, st, h, k1, velocity, *args):
        if record:
            assert all(ref() is None for ref in record), "pass 0's linear record is alive"
            checked.append("record")
        else:
            record.extend([weakref.ref(velocity), weakref.ref(velocity.coefs)])
        return rk4(problem, st, h, k1, velocity, *args)

    def traced_rhs(problem, st, *, start=None):
        calls.append(st.t)
        if len(calls) == 8:  # pass 1's end evaluation
            assert all(ref() is None for ref in derivs), "pass 0's s2-s4 derivatives are alive"
            checked.append("derivatives")
        out = slope(problem, st, start=start)
        if len(calls) <= 3:  # pass 0's s2, s3 and s4
            derivs.extend(weakref.ref(a) for a in out)
        return out

    monkeypatch.setattr(dynamics, "rk4_step", traced_rk4)
    monkeypatch.setattr(dynamics, "rhs", traced_rhs)
    step(prob, state, cfg, deriv0=deriv0)
    assert len(calls) == 8 and len(derivs) == 6
    assert checked == ["record", "derivatives"]


def test_step_stokes_decay_closed_form():
    nu = 0.1
    prob = make_problem(
        n=8,
        model=quadratic_form([[1.0, 0.0], [0.0, 1.0]]),
        laws=MaterialLaws(nu, nu, 1e-3, 1e-3),
        rho=ConstantDensity(1.0),
    )
    g = prob.grid
    t_end = 0.5
    cfg = StepperConfig(dt=1e-3, t_end=t_end)
    u0 = np.stack([np.zeros(g.n_grid), 0.4 * np.cos(g.mesh[0])])
    phi0 = phi_constant(g, 0.0)
    out = run(prob, u0, phi0, cfg)
    decay = np.exp(-nu * 1.0 * t_end)
    init = make_state(prob, u0, phi0)
    expected = decay * init.u
    err = np.max(np.abs(out.final_state.u - expected))
    assert err < 1e-6 * 0.4
    assert out.n_steps == 500


def test_step_richardson_self_convergence():
    prob = make_problem(n=16)
    g = prob.grid
    u0 = u_taylor_green(g, 0.3)
    phi0 = phi_band_random(g, seed=21, kmax=2, amplitude=0.4, mean=-0.05)
    t_end = 0.04

    def final(dt):
        return run(prob, u0, phi0, StepperConfig(dt=dt, t_end=t_end)).final_state

    ref = final(5e-4)

    def err(state):
        du = state.u - ref.u
        dphi = state.phi - ref.phi
        e_u = np.sqrt(g.area * vdot(du, du))
        e_phi = np.sqrt(g.area * vdot(dphi, (1.0 + g.k_sq) * dphi))
        return e_u + e_phi

    # on this coarse 16x16 grid the finest levels touch the spatial
    # truncation floor of the band-limited displacement (~1e-12), so the
    # order is measured on the pair where the dt^4 term dominates
    errs = [err(final(dt)) for dt in (8e-3, 4e-3, 2e-3)]
    assert errs[0] > errs[1] > errs[2] > 0
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.8


def test_step_conservation_of_density_integrals():
    prob = make_problem(n=16)
    g = prob.grid
    u0 = u_taylor_green(g, 0.3)
    phi0 = phi_band_random(g, seed=21, kmax=2, amplitude=0.4, mean=-0.05)
    t_end = 0.2
    cfg = StepperConfig(dt=4e-3, t_end=t_end)
    init = make_state(prob, u0, phi0)
    out = run(prob, u0, phi0, cfg)
    fin = out.final_state

    def rho_mass(st):
        return g.quadrature(st.rho.values)

    def rho_phi_mass(st):
        return g.quadrature(st.rho.values * g.to_grid(st.phi))

    drift_rho = abs(rho_mass(fin) - rho_mass(init)) / abs(rho_mass(init))
    drift_mix = abs(rho_phi_mass(fin) - rho_phi_mass(init)) / max(
        abs(rho_phi_mass(init)), 1e-3
    )
    assert drift_rho / t_end < 1e-6
    assert drift_mix / t_end < 1e-6


def test_step_divergence_free_and_mu_consistency():
    prob = make_problem(n=16)
    g = prob.grid
    u0 = u_taylor_green(g, 0.3)
    phi0 = phi_band_random(g, seed=21, kmax=2, amplitude=0.4, mean=-0.05)
    cfg = StepperConfig(dt=4e-3, t_end=0.04)
    out = run(prob, u0, phi0, cfg)
    fin = out.final_state
    u_scale = np.max(np.abs(fin.u))
    assert np.max(np.abs(g.div(fin.u))) < 1e-11 * max(1.0, u_scale)
    fresh = solve_mu(prob, fin.phi, fin.rho)
    rel = np.max(np.abs(fresh - fin.mu)) / np.max(np.abs(fresh))
    assert rel < 1e-9


def test_step_stability_guard():
    prob = make_problem(n=16)
    g = prob.grid
    bound = stability_bound(prob)
    cfg = StepperConfig(dt=1.2 * bound, t_end=1.2 * bound)
    state = make_state(prob, u_zero(g), phi_constant(g, 0.1))
    with pytest.raises(StabilityError):
        step(prob, state, cfg)
    cfg_ok = StepperConfig(dt=1.2 * bound, t_end=1.2 * bound, allow_unstable_dt=True)
    new, _ = step(prob, state, cfg_ok)
    assert np.all(np.isfinite(np.abs(new.u)))


def test_check_dt_slack_is_relative_to_the_bound():
    # on a 1e-3 box the bound is 6.6e-18, below any absolute slack of
    # rounding: 76 times the bound is refused, and the bound accepted
    prob = parse_config("[domain]\nl1 = 0.001\nl2 = 0.001\n").problem()
    bound = stability_bound(prob)
    assert bound < 1e-17
    with pytest.raises(StabilityError, match=f"dt=5e-16 exceeds the stability bound {bound:.6g}"):
        dynamics.check_dt(prob, StepperConfig(dt=5e-16, t_end=1.0), 5e-16)
    dynamics.check_dt(prob, StepperConfig(dt=bound, t_end=1.0), bound)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_blowup_detection():
    prob = make_problem(
        n=8,
        model=quadratic_form([[1.0, 0.0], [0.0, 1.0]]),
        laws=MaterialLaws(0.01, 0.01, 5.0, 5.0),
        rho=ConstantDensity(1.0),
    )
    g = prob.grid
    cfg = StepperConfig(dt=0.5, t_end=20.0, allow_unstable_dt=True)
    phi0 = phi_band_random(g, seed=2, kmax=2, amplitude=0.3)
    with pytest.raises(BlowUpError) as exc:
        run(prob, u_zero(g), phi0, cfg)
    assert exc.value.t > 0


# --- run driver ------------------------------------------------------------------

def test_run_zero_horizon():
    prob = make_problem()
    g = prob.grid
    cfg = StepperConfig(dt=1e-3, t_end=0.0)
    seen = []
    out = run(prob, u_zero(g), phi_constant(g, 0.1), cfg, sinks=[seen.append])
    assert out.n_steps == 0
    assert len(seen) == 1
    assert seen[0].t == 0.0


def test_run_partial_final_step():
    prob = make_problem()
    g = prob.grid
    cfg = StepperConfig(dt=1e-3, t_end=2.5e-3)
    out = run(prob, u_taylor_green(g, 0.2), phi_constant(g, 0.1), cfg)
    assert out.n_steps == 3
    assert out.final_state.t == pytest.approx(2.5e-3, abs=1e-12)


def test_run_steps_to_a_horizon_below_the_rounding_of_unit_time():
    prob = parse_config("").problem()
    g = prob.grid
    seen = []
    out = run(prob, u_zero(g), phi_constant(g, 0.1), StepperConfig(dt=0.004, t_end=1e-13),
              sinks=[seen.append])
    assert out.n_steps == 1
    assert out.final_state.t == 1e-13
    assert [s.t for s in seen] == [0.0, 1e-13]


def test_run_takes_no_sliver_step_where_the_summed_steps_fall_short(monkeypatch):
    # 100,000 steps of grid128's dt sum to less than t_end by more than the
    # 1e-12 relative tolerance; run counts its steps and takes no 100,001st
    prob = make_problem()
    g = prob.grid
    dt = 2.0021081987431452e-05
    monkeypatch.setattr(dynamics, "step", lambda problem, state, cfg, dt, deriv0:
                        (dataclasses.replace(state, t=state.t + dt), None))
    seen = []
    out = run(prob, u_zero(g), phi_constant(g, 0.1), StepperConfig(dt=dt, t_end=100_000 * dt),
              sinks=[seen.append], cadence=1000)
    assert out.n_steps == 100_000
    # the initial state, then every 1000th, the last of them the final state
    assert len(seen) == 1 + 100
    assert seen[-1] is out.final_state
    assert out.final_state.t == pytest.approx(100_000 * dt, rel=1e-10)


def test_a_dropped_state_frees_its_density():
    # nothing keeps the last density the mass solves saw
    prob = make_problem(n=16)
    g = prob.grid
    u0, phi0 = u_taylor_green(g, 0.3), phi_constant(g, 0.1)
    state = make_state(prob, u0, phi0)
    ref = weakref.ref(state.rho.values)
    del state
    gc.collect()
    assert ref() is None
    state = make_state(prob, u0, phi0)
    new, _ = step(prob, state, StepperConfig(dt=1e-3, t_end=1e-3))
    refs = [weakref.ref(state.rho.values), weakref.ref(new.rho.values)]
    del state, new
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_run_deterministic_repeat():
    prob = make_problem()
    g = prob.grid
    u0 = u_taylor_green(g, 0.3)
    phi0 = phi_band_random(g, seed=21, kmax=2, amplitude=0.4, mean=-0.05)
    cfg = StepperConfig(dt=4e-3, t_end=0.02)
    a = run(prob, u0, phi0, cfg).final_state
    b = run(prob, u0, phi0, cfg).final_state
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.rho.values, b.rho.values)


def test_run_quiescent_start_stays_quiescent():
    # single x-mode at rest: the capillary force is a pure gradient plus
    # a zero-mean term, so the velocity forcing is analytically zero and
    # the mass solve only ever sees roundoff. Must not diverge or raise.
    prob = make_problem(
        model=quadratic_form([[1.0, 0.0], [0.0, 1.0]]),
        spec=PotentialSpec(2.0, 0.5, 0.1),
        laws=MaterialLaws(0.1, 0.1, 0.02, 0.02),
        rho=ConstantDensity(1.0),
    )
    g = prob.grid
    phi0 = phi_modes(g, [(1, 0, 5e-5, 0.0)])
    out = run(prob, u_zero(g), phi0, StepperConfig(dt=1e-3, t_end=0.01))
    assert np.max(np.abs(out.final_state.u)) < 1e-20
    assert np.max(np.abs(out.final_state.phi)) > 0.0


def test_run_cadence_and_history():
    prob = make_problem()
    g = prob.grid
    u0 = u_taylor_green(g, 0.3)
    phi0 = phi_constant(g, 0.1)
    cfg = StepperConfig(dt=4e-3, t_end=0.02)
    seen = []
    out = run(prob, u0, phi0, cfg, sinks=[seen.append], cadence=2)
    # initial, steps 2 and 4, and the final step 5
    assert [round(s.t / 4e-3) for s in seen] == [0, 2, 4, 5]
    assert out.n_steps == 5
    assert seen[-1] is out.final_state
