import numpy as np
import pytest

from achns.anisotropy import quadratic_form, taylor_cahn
from achns.basis import TorusGrid
from achns.dynamics import (
    FlowState,
    MaterialLaws,
    Problem,
    StepperConfig,
    _cg,
    _vector_mass_apply,
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


def make_problem(n=16, model=None, spec=None, laws=None, rho=None):
    grid = TorusGrid(BOX, (n, n))
    model = model if model is not None else quadratic_form([[1.2, -0.1], [-0.1, 1.0]])
    spec = spec if spec is not None else PotentialSpec(1.0, 0.5, 0.1)
    laws = laws if laws is not None else MaterialLaws(0.12, 0.08, 0.01, 0.015)
    rho = rho if rho is not None else SinusoidalDensity(1.5, 0.5, BOX, 1, 1)
    return Problem(grid, model, spec, laws, rho)


def make_state(problem, u_grid, phi_grid, cfg=None):
    cfg = cfg or StepperConfig(dt=1e-3, t_end=1e-3)
    return problem.initial_state(u_grid, phi_grid, cfg)


def slow_eval(grid, coef, d1=0, d2=0):
    """Direct mode-sum synthesis (optionally differentiated), independent
    of the fft plumbing. Only usable on tiny grids."""
    X, Y = grid.mesh
    out = np.zeros(grid.n_grid, dtype=complex)
    for i1 in range(coef.shape[0]):
        for i2 in range(coef.shape[1]):
            c = coef[i1, i2]
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
    with pytest.raises(DomainError):
        StepperConfig(dt=1e-3, t_end=1.0, stability_safety=0.0)
    with pytest.raises(DomainError):
        StepperConfig(dt=1e-3, t_end=1.0, stability_safety=1.5)


def test_problem_validation():
    grid = TorusGrid(BOX, (16, 16))
    spec = PotentialSpec(1.0, 0.5, 0.1)
    laws = MaterialLaws(0.1, 0.1, 0.01, 0.01)
    rho = ConstantDensity(1.0)
    with pytest.raises(DomainError):
        Problem(grid, taylor_cahn(0.0, 0.5), spec, laws, rho)
    with pytest.raises(DomainError):
        Problem(grid, quadratic_form([[1.0, 2.0], [2.0, 1.0]]), spec, laws, rho)
    with pytest.raises(DomainError):
        Problem(grid, quadratic_form([[1.0, 0.0], [0.0, 1.0]]),
                PotentialSpec(1.0, 0.5, 0.4), laws, rho)
    prob = make_problem()
    assert prob.report.r > 0
    assert prob.report.R >= prob.report.r


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
    # 1:1000 density blobs: on 4 of these 30 right-hand sides the updated
    # residual reaches rtol while b - A x is still 1.03-1.12e-13 of b, so
    # a stop on the updated residual alone misses rtol
    g = TorusGrid(BOX, (16, 16))
    x1, x2 = g.mesh
    bump = np.exp(-((x1 - np.pi) ** 2 + (x2 - np.pi) ** 2) / 0.8)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        rho = 1.0 + 999 * rng.uniform(0.5, 1.0) * bump
        b = g.leray_project(g.to_spectral(rng.standard_normal((2, 16, 16))))
        apply_a = _vector_mass_apply(g, rho, None)
        x = _cg(apply_a, b, b / rho.mean(), 1e-13, "velocity")
        r = b - apply_a(x)
        assert np.sqrt(np.vdot(r, r).real) <= 1e-13 * np.sqrt(np.vdot(b, b).real), seed


# --- chemical potential solves ------------------------------------------------

def test_solve_mu_zero_field_exact_zero():
    prob = make_problem()
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    phi = g.to_spectral(phi_constant(g, 0.0))
    mu = solve_mu(g, phi, rho, prob.model, prob.spec)
    assert np.all(mu == 0.0)


def test_solve_mu_constant_state():
    prob = make_problem()
    g = prob.grid
    rho = density_from_displacement(prob.rho0, g, None)
    c = 0.3
    phi = g.to_spectral(phi_constant(g, c))
    mu = solve_mu(g, phi, rho, prob.model, prob.spec)
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
    mu = solve_mu(g, phi, rho, prob.model, prob.spec)
    k_m_k = 1.2 - 0.1 - 0.1 + 1.0
    fpp0 = -prob.spec.lambda1 + prob.spec.lambda2
    expected = (fpp0 + k_m_k) * phi
    idx = (1, 1)
    assert mu[idx] == pytest.approx(expected[idx], rel=1e-3)
    off = np.abs(mu - expected)
    off[idx] = 0.0
    off[-1, -1] = 0.0  # conjugate partner carries the same linear error
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
    mu = solve_mu(g, phi, rho, prob.model, prob.spec)
    flux_part = mu - g.to_spectral(f_eps_prime(prob.spec, phi_grid_vals))
    assert np.max(np.abs(flux_part - 4.0 * phi)) < 1e-12


def test_solve_mu_weak_identity_quadrature():
    # nonconstant density, random band state, tiny grid: verify the
    # defining integral identity mode by mode with direct sums
    g = TorusGrid(BOX, (8, 8))
    model = quadratic_form([[1.3, -0.2], [-0.2, 0.9]])
    spec = PotentialSpec(1.0, 0.5, 0.1)
    rho0 = SinusoidalDensity(1.5, 0.4, BOX, 1, 0)
    rho = density_from_displacement(rho0, g, None)
    phi = g.to_spectral(phi_band_random(g, seed=7, kmax=2, amplitude=0.4, mean=0.1))
    mu = solve_mu(g, phi, rho, model, spec)

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
    u = np.zeros((2,) + g.n_grid, dtype=complex)
    mu = np.zeros(g.n_grid, dtype=complex)
    mu[0, 0] = f_eps_prime(prob.spec, c)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = rhs(g, state, prob.laws, prob.model, prob.spec)
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
    mu = np.zeros(g.n_grid, dtype=complex)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = rhs(g, state, prob.laws, prob.model, prob.spec)
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
    u = np.zeros((2,) + g.n_grid, dtype=complex)
    mu = solve_mu(g, phi, rho, prob.model, spec)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = rhs(g, state, prob.laws, prob.model, spec)
    fpp0 = -2.0 + 0.5
    rate = -d0 * 1.0 * (fpp0 + 1.0)  # positive: instability
    assert rate > 0
    assert dphi[1, 0] == pytest.approx(rate * phi[1, 0], rel=1e-2)
    assert np.max(np.abs(du)) < 1e-12


def test_rhs_mode_projection():
    prob = make_problem()
    g = prob.grid
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, n_modes_u=9, n_modes_phi=9)
    state = make_state(
        prob, u_taylor_green(g, 0.3),
        phi_band_random(g, seed=3, kmax=2, amplitude=0.4), cfg,
    )
    assert np.array_equal(state.phi, g.project_scalar(state.phi, 9))
    du, dphi = rhs(g, state, prob.laws, prob.model, prob.spec,
                   n_modes_u=9, n_modes_phi=9)
    assert np.array_equal(dphi, g.project_scalar(dphi, 9))
    for c in du:
        assert np.array_equal(c, g.project_scalar(c, 9))
    assert np.max(np.abs(g.div(du))) < 1e-12


# --- linearized right-hand side -------------------------------------------------

def test_linearized_matches_rhs_when_frozen_is_current():
    prob = make_problem()
    g = prob.grid
    state = make_state(
        prob, u_taylor_green(g, 0.3),
        phi_band_random(g, seed=5, kmax=2, amplitude=0.4, mean=-0.05),
    )
    du_a, dphi_a = rhs(g, state, prob.laws, prob.model, prob.spec)
    du_b, dphi_b = linearized_rhs(
        g, state, state.u.copy(), state.phi.copy(),
        prob.laws, prob.model, prob.spec,
    )
    assert np.max(np.abs(du_a - du_b)) < 1e-14
    assert np.max(np.abs(dphi_a - dphi_b)) < 1e-14


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
    _, dphi = linearized_rhs(g, state, frozen_u, frozen_phi,
                             prob.laws, prob.model, prob.spec)
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
    mu = solve_mu(g, phi, rho, model, spec)
    state = FlowState(0.0, u, phi, rho, mu)
    du, dphi = linearized_rhs(g, state, frozen_u, frozen_phi, laws, model, spec)

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
    state = make_state(prob, u_zero(g), phi_constant(g, 0.25), cfg)
    new, _ = step(prob, state, cfg)
    assert np.max(np.abs(new.u)) < 1e-14
    assert np.max(np.abs(new.phi - state.phi)) < 1e-14
    assert np.array_equal(new.rho.values, state.rho.values)
    assert np.max(np.abs(new.mu - state.mu)) < 1e-11


def test_rk4_step_stages_and_end_state():
    prob = make_problem(n=8)
    g = prob.grid
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    state = make_state(prob, u_zero(g), phi_band_random(g, seed=3, kmax=2, amplitude=0.3), cfg)
    state = FlowState(0.5, state.u, state.phi, state.rho, state.mu)
    h = 1e-3
    rng = np.random.default_rng(4)
    c_u = g.leray_project(g.to_spectral(rng.standard_normal((2, 8, 8))))
    c_phi = g.to_spectral(rng.standard_normal((8, 8)))
    seen = []

    def slope(st):
        seen.append(st)
        return c_u, c_phi

    still = StepRecord(0.5, h, np.zeros((4,) + state.u.shape, dtype=complex))
    new = rk4_step(prob, state, h, (c_u, c_phi), still, slope, state.mu, None)
    assert [st.t for st in seen] == [0.5 + h / 2, 0.5 + h / 2, 0.5 + h]
    # a resting velocity model leaves the density where it was
    for st in seen + [new]:
        np.testing.assert_array_equal(st.rho.values, state.rho.values)
    np.testing.assert_array_equal(new.disp, 0.0)
    # a constant slope is integrated exactly, up to rounding
    assert new.t == 0.5 + h
    assert np.max(np.abs(new.u - (state.u + h * c_u))) < 1e-15
    assert np.max(np.abs(new.phi - (state.phi + h * c_phi))) < 1e-15
    # the stage potentials and the end one are solved for their own phi
    for st in seen[1:] + [new]:
        fresh = solve_mu(g, st.phi, st.rho, prob.model, prob.spec)
        assert np.max(np.abs(fresh - st.mu)) <= 1e-9 * np.max(np.abs(fresh))


def test_rk4_step_raises_on_a_non_finite_stage():
    prob = make_problem(n=8)
    g = prob.grid
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    state = make_state(prob, u_zero(g), phi_constant(g, 0.1), cfg)
    still = StepRecord(0.0, 1e-3, np.zeros((4,) + state.u.shape, dtype=complex))
    zero = (np.zeros_like(state.u), np.zeros_like(state.phi))

    def slope(st):
        return np.full_like(state.u, np.nan), zero[1]

    with pytest.raises(BlowUpError) as exc:
        rk4_step(prob, state, 1e-3, zero, still, slope, state.mu, None)
    assert exc.value.field == "velocity"
    assert exc.value.t == pytest.approx(5e-4)


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
    init = make_state(prob, u0, phi0, cfg)
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
        e_u = np.sqrt(g.area * np.sum(np.abs(du) ** 2))
        e_phi = np.sqrt(g.area * np.sum((1.0 + g.k_sq) * np.abs(dphi) ** 2))
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
    init = make_state(prob, u0, phi0, cfg)
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
    fresh = solve_mu(g, fin.phi, fin.rho, prob.model, prob.spec)
    rel = np.max(np.abs(fresh - fin.mu)) / np.max(np.abs(fresh))
    assert rel < 1e-9


def test_step_stability_guard():
    prob = make_problem(n=16)
    g = prob.grid
    bound = stability_bound(prob)
    cfg = StepperConfig(dt=1.2 * bound, t_end=1.2 * bound)
    state = make_state(prob, u_zero(g), phi_constant(g, 0.1), cfg)
    with pytest.raises(StabilityError):
        step(prob, state, cfg)
    cfg_ok = StepperConfig(dt=1.2 * bound, t_end=1.2 * bound, allow_unstable_dt=True)
    new, _ = step(prob, state, cfg_ok)
    assert np.all(np.isfinite(np.abs(new.u)))


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
