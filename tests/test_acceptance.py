"""End-to-end acceptance suite.

Each test prints one `criterion N: PASS - ...` line (visible under
`pytest -s`). The demo trajectories are shared module-scoped fixtures,
so the wall-clock budget of a criterion includes the fixture builds it
triggered.
"""

import dataclasses
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from achns import diagnostics
from achns.anisotropy import check_hypotheses, gamma_sq, quadratic_form, taylor_cahn_matrix, xi_cap
from achns.cli import _lift_modes, main
from achns.config import load_config, parse_config
from achns.dynamics import MaterialLaws, run
from achns.fixedpoint import picard
from achns.potential import (
    PotentialSpec,
    eps_threshold,
    f_eps,
    f_eps_prime,
    f_eps_second,
    f_log,
    f_log_prime,
)
from achns.profiles import phi_constant, phi_modes
from achns.snapshot import read_snapshot, restore_fields, write_snapshot

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# pinned on the first verified calibration of the default demo
# (measured max residual 2.33e-8 at E(0) = 14.0)
RESIDUAL_TOL_REL = 1e-7


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# --- shared demo machinery -----------------------------------------------


@dataclass
class RunData:
    grid: object
    cfg: object
    reports: list
    final_state: object
    u_l2: np.ndarray
    phi_l2: np.ndarray
    rho_min: np.ndarray
    rho_max: np.ndarray
    seconds: float


def _demo_run(dt=4e-3, n=32, t_end=1.0):
    cfg = dataclasses.replace(parse_config(""), dt=dt, n_grid=(n, n), t_end=t_end)
    grid = cfg.grid()
    problem = cfg.problem()
    u0, phi0 = cfg.initial_fields(grid)
    reports, u_l2, phi_l2, rmin, rmax = [], [], [], [], []

    def sink(st):
        reports.append(diagnostics.energy_report(grid, st, cfg.laws, cfg.model, cfg.spec))
        u_l2.append(grid.norm_l2_spectral(st.u))
        phi_l2.append(grid.norm_l2_spectral(st.phi))
        rmin.append(float(st.rho.values.min()))
        rmax.append(float(st.rho.values.max()))

    t0 = time.time()
    summary = run(problem, u0, phi0, cfg.stepper(), sinks=[sink])
    return RunData(grid, cfg, reports, summary.final_state,
                   np.array(u_l2), np.array(phi_l2),
                   np.array(rmin), np.array(rmax), time.time() - t0)


@pytest.fixture(scope="module")
def demo_levels():
    return {dt: _demo_run(dt=dt) for dt in (4e-3, 2e-3, 1e-3)}


@pytest.fixture(scope="module")
def coarse_runs():
    return {n: _demo_run(n=n) for n in (8, 16)}


@pytest.fixture(scope="module")
def deepwell_ladder():
    base = load_config(os.path.join(CONFIG_DIR, "deepwell.cfg"))
    out = {}
    t0 = time.time()
    for eps in (0.2, 0.1, 0.05):
        cfg = dataclasses.replace(
            base, spec=PotentialSpec(base.spec.lambda1, base.spec.lambda2, eps))
        grid = cfg.grid()
        problem = cfg.problem()
        u0, phi0 = cfg.initial_fields(grid)
        reports = []
        run(problem, u0, phi0, cfg.stepper(),
            sinks=[lambda st, g=grid, c=cfg: reports.append(
                diagnostics.energy_report(g, st, c.laws, c.model, c.spec))])
        out[eps] = reports
    # unregularized initial energy on the same initial data
    grid = base.grid()
    problem = base.problem()
    u0, phi0 = base.initial_fields(grid)
    st0 = problem.initial_state(u0, phi0)
    phi_vals = grid.to_grid(st0.phi)
    rep0 = diagnostics.energy_report(grid, st0, base.laws, base.model, base.spec)
    e_unreg = rep0.e_kin + rep0.e_surf + grid.quadrature(
        st0.rho.values * f_log(base.spec, phi_vals))
    return out, e_unreg, time.time() - t0


@pytest.fixture(scope="module")
def picard16():
    cfg = dataclasses.replace(parse_config(""), n_grid=(16, 16), dt=2.5e-3)
    grid = cfg.grid()
    problem = cfg.problem()
    u0, phi0 = cfg.initial_fields(grid)
    t0 = time.time()
    tol = 1e-9
    rep = picard(problem, u0, phi0, cfg.stepper(), t_tilde=0.05, tol=tol,
                 max_iter=25)
    # nonlinear reference trajectory over the same horizon
    states = []
    run(problem, u0, phi0, dataclasses.replace(cfg, t_end=0.05).stepper(),
        sinks=[lambda st: states.append((st.t, st.u.copy(), st.phi.copy()))])
    e0 = diagnostics.energy_report(
        grid, problem.initial_state(u0, phi0),
        cfg.laws, cfg.model, cfg.spec).e_total
    return grid, rep, states, tol, e0, time.time() - t0


# --- criteria --------------------------------------------------------------


def test_criterion_01_anisotropy_suite():
    t0 = time.time()
    model = taylor_cahn_matrix(0.5)
    assert np.array_equal(np.diag(model.matrix), [3.0, 3.0, 3.0])
    off = model.matrix[~np.eye(3, dtype=bool)]
    assert np.array_equal(off, -np.ones(6))
    rep = check_hypotheses(model)
    # eigen-solve values, so exact up to LAPACK roundoff (< 1e-15 here)
    exact = abs(rep.r - 1.0) <= 1e-12 and abs(rep.R - 4.0) <= 1e-12

    rng = np.random.default_rng(11)
    p = rng.standard_normal((1000, 3))
    g = gamma_sq(model, p)
    xi = xi_cap(model, p)
    euler = np.abs(np.sum(p * xi, axis=-1) - g) / np.abs(g)
    euler_ok = euler.max() <= 1e-6

    h = 1e-6
    fd_ok = True
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (gamma_sq(model, p + e) - gamma_sq(model, p - e)) / (2 * h)
        scale = np.maximum(np.abs(2.0 * xi[:, i]), 1.0)
        fd_ok &= bool(np.max(np.abs(fd - 2.0 * xi[:, i]) / scale) <= 1e-6)

    secs = time.time() - t0
    _report(1, exact and euler_ok and bool(rep.all_hold()) and fd_ok and secs < 1.0,
            f"r={rep.r:.15g} R={rep.R:.15g} (within 1e-12), euler max rel "
            f"{euler.max():.1e}, gradient fd ok, {secs:.2f}s")


def test_criterion_02_potential_suite():
    t0 = time.time()
    spec = PotentialSpec(1.0, 0.5, 0.03)
    s = np.linspace(-1 + 1e-9, 1 - 1e-9, 10_000)
    below = np.all(f_eps(spec, s) <= f_log(spec, s) + 1e-13)
    envelope = np.all(np.abs(f_eps_prime(spec, s))
                      <= np.abs(f_log_prime(spec, s)) + 1e-13)

    knot_ok = True
    for sp in (spec, PotentialSpec(1.0, 0.5, 0.1)):
        for a in (sp.knot, -sp.knot):
            lo = a - 1e-12 * np.sign(a)
            hi = a + 1e-12 * np.sign(a)
            for fn in (f_eps, f_eps_prime, f_eps_second):
                knot_ok &= abs(fn(sp, hi) - fn(sp, lo)) < 1e-9

    thr = eps_threshold(1.0, 0.5)
    thr_ok = abs(thr - (1.0 - math.sqrt(0.5))) <= 1e-12

    secs = time.time() - t0
    _report(2, bool(below and envelope and knot_ok and thr_ok) and secs < 1.0,
            f"well and slope envelopes hold at eps=0.03, C2 knots < 1e-9, "
            f"threshold {thr:.12f}, {secs:.2f}s")


def test_criterion_03_linear_physics():
    t0 = time.time()
    # viscous decay of a single shear mode at unit density
    nu = 0.1
    cfg = parse_config(
        "[domain]\nn1 = 8\nn2 = 8\n"
        "[anisotropy]\nm11 = 1.0\nm12 = 0.0\nm22 = 1.0\n"
        f"[material]\nnu_minus = {nu}\nnu_plus = {nu}\n"
        "d_minus = 0.001\nd_plus = 0.001\n"
        "[density]\nprofile = constant\nvalue = 1.0\n"
        "[initial_phi]\nprofile = constant\nvalue = 0.0\n"
        "[time]\ndt = 0.001\nt_end = 0.5\n")
    grid = cfg.grid()
    problem = cfg.problem()
    amp = 0.4
    u0 = np.stack([np.zeros(grid.n_grid), amp * np.cos(grid.mesh[0])])
    phi0 = phi_constant(grid, 0.0)
    summary = run(problem, u0, phi0, cfg.stepper())
    init = problem.initial_state(u0, phi0)
    stokes_err = float(np.max(np.abs(
        summary.final_state.u - math.exp(-nu * 0.5) * init.u)))
    stokes_ok = stokes_err < 1e-6 * amp

    # single-mode growth against the linearized mixing rate at 32^2
    d0 = 0.02
    spec = PotentialSpec(2.0, 0.5, 0.1)
    cfg2 = parse_config(
        "[domain]\nn1 = 32\nn2 = 32\n"
        "[anisotropy]\nm11 = 1.0\nm12 = 0.0\nm22 = 1.0\n"
        "[potential]\nlambda1 = 2.0\nlambda2 = 0.5\neps = 0.1\n"
        f"[material]\nnu_minus = 0.1\nnu_plus = 0.1\n"
        f"d_minus = {d0}\nd_plus = {d0}\n"
        "[density]\nprofile = constant\nvalue = 1.0\n"
        "[initial_u]\nprofile = zero\n"
        "[time]\ndt = 0.004\nt_end = 0.5\n")
    grid2 = cfg2.grid()
    problem2 = cfg2.problem()
    amp2 = 1e-4
    phi0 = phi_modes(grid2, [(1, 0, amp2 / 2, 0.0)])
    u0 = np.zeros((2,) + grid2.n_grid)
    summary2 = run(problem2, u0, phi0, cfg2.stepper())
    init2 = problem2.initial_state(u0, phi0)
    ratio = (summary2.final_state.phi[1, 0] / init2.phi[1, 0]).real
    sigma_obs = math.log(ratio) / 0.5
    fpp0 = -spec.lambda1 + spec.lambda2
    sigma = -d0 * 1.0 * (fpp0 + 1.0)
    assert sigma > 0  # genuine instability at this wavenumber
    rate_err = abs(sigma_obs - sigma) / sigma
    rate_ok = rate_err < 1e-2

    secs = time.time() - t0
    _report(3, stokes_ok and rate_ok and secs < 30.0,
            f"stokes err {stokes_err:.2e}, growth rate rel err {rate_err:.2e}, "
            f"{secs:.1f}s")


def test_criterion_04_energy_law(demo_levels):
    t0 = time.time()
    maxima = {}
    for dt, data in demo_levels.items():
        _, mx = diagnostics.energy_law_residual(data.reports, dt)
        maxima[dt] = mx
    m1, m2, m3 = maxima[4e-3], maxima[2e-3], maxima[1e-3]
    observed = math.log2(m1 / m3) / 2.0

    # quadrature-dominance certificate: replacing the two-point dissipation
    # quadrature by a fourth-order one must collapse the residual
    data = demo_levels[4e-3]
    e = np.array([r.e_total for r in data.reports])
    d = np.array([r.dissipation for r in data.reports])
    dt = 4e-3
    simpson = e[2::2] - e[:-2:2] + (dt / 3.0) * (d[:-2:2] + 4.0 * d[1:-1:2] + d[2::2])
    m_simpson = float(np.abs(simpson).max())
    dominated = m_simpson <= 0.5 * m1
    order_ok = observed >= 3.0 or (dominated and observed >= 1.9)

    e0 = data.reports[0].e_total
    resid_ok = m1 <= RESIDUAL_TOL_REL * e0
    mono_ok = bool(np.max(np.diff(e)) <= 10.0 * m1)

    drift_ok = True
    for dt_i, run_i in demo_levels.items():
        m_rho = np.array([r.mass_rho for r in run_i.reports])
        m_rp = np.array([r.mass_rhophi for r in run_i.reports])
        drift_ok &= bool(np.abs(m_rho - m_rho[0]).max() <= 1e-6 * abs(m_rho[0]))
        drift_ok &= bool(np.abs(m_rp - m_rp[0]).max()
                         <= 1e-6 * max(abs(m_rp[0]), abs(m_rho[0])))

    secs = time.time() - t0 + sum(r.seconds for r in demo_levels.values())
    _report(4, order_ok and resid_ok and mono_ok and drift_ok and secs < 300.0,
            f"residuals {m1:.2e}/{m2:.2e}/{m3:.2e}, observed order {observed:.3f} "
            f"(quadrature-dominated: 4th-order residual x{m_simpson / m1:.1e}), "
            f"monotone, drifts ok, {secs:.0f}s")


def test_criterion_05_density_bounds(demo_levels):
    data = demo_levels[4e-3]
    lo, hi = data.cfg.rho0.bounds
    in_bounds = bool(data.rho_min.min() >= lo and data.rho_max.max() <= hi)

    st = data.final_state
    grid = data.grid
    feet = np.stack(grid.mesh, axis=-1) + np.moveaxis(st.disp, 0, -1)
    raw = np.asarray(data.cfg.rho0(feet), dtype=float)
    violation = max(0.0, float(lo - raw.min()), float(raw.max() - hi))
    unclamped_ok = violation <= 1e-8

    _report(5, in_bounds and unclamped_ok,
            f"rho in [{data.rho_min.min():.6f}, {data.rho_max.max():.6f}] "
            f"subset of [{lo:g}, {hi:g}], unclamped violation {violation:.1e}")


# the demo reads 3.7e-5 at t=1; a Taylor-Green amplitude of 1.0 in
# place of 0.3 reads 7.9e-3 and fails
JACOBIAN_DEFECT_TOL = 1e-3


def _jacobian_defect(grid, disp):
    """max |det(I + grad D) - 1| of a backward displacement D on the grid,
    with grad D taken spectrally."""
    dc = grid.to_spectral(disp)
    g1, g2 = (grid.to_grid(grid.grad(dc[i])) for i in range(2))
    det = (1.0 + g1[0]) * (1.0 + g2[1]) - g1[1] * g2[0]
    return float(np.abs(det - 1.0).max())


def test_criterion_05_jacobian_defect(demo_levels):
    # beside criterion 5, whose unclamped check cannot fail for the
    # closed-form profiles: the backward map must stay volume-preserving
    data = demo_levels[4e-3]
    defect = _jacobian_defect(data.grid, data.final_state.disp)
    _report(5, defect <= JACOBIAN_DEFECT_TOL,
            f"Jacobian defect {defect:.2e} of the backward map at t=1 "
            f"(bound {JACOBIAN_DEFECT_TOL:g})")


def test_criterion_06_fixed_point(picard16):
    grid, rep, states, tol, e0, secs = picard16
    converged = rep.converged
    ratios = [b / a for a, b in zip(rep.distances, rep.distances[1:])]
    contracting = all(r < 1.0 for r in ratios[1:])
    remainder_ok = rep.r_eps_history[-1] <= 1e-8 * e0

    sup_gap = 0.0
    for k, (t, u, phi) in enumerate(states):
        du = grid.norm_l2_spectral(rep.trajectory.u[k] - u)
        dphi = grid.norm_l2_spectral(rep.trajectory.phi[k] - phi)
        sup_gap = max(sup_gap, du + dphi)
    match_ok = sup_gap <= 10.0 * tol

    _report(6, converged and contracting and remainder_ok and match_ok
            and secs < 120.0,
            f"{rep.iterations} iterations, ratios "
            f"{['%.3g' % r for r in ratios]}, remainder "
            f"{rep.r_eps_history[-1]:.2e} <= {1e-8 * e0:.2e}, "
            f"nonlinear gap {sup_gap:.2e} <= {10 * tol:.0e}, {secs:.0f}s")


def test_criterion_07_bihari(demo_levels):
    t0 = time.time()
    checked = diagnostics.bihari_check(n_trials=20)

    bound = diagnostics.bihari_horizon(1.0, 0.0, 1.0)
    star_ok = abs(bound.t_star - 1.0) <= 1e-8
    ts = np.linspace(0.0, 0.95, 97)
    vals = np.array([diagnostics.bihari_bound_at(bound, t) for t in ts])
    exact = 1.0 / (1.0 - ts)
    eq_err = float(np.max(np.abs(vals - exact) / exact))
    eq_ok = eq_err <= 1e-8

    # a dissipative trajectory sits below the quadratic-growth majorant
    # seeded with its own initial energy
    data = demo_levels[4e-3]
    e0 = data.reports[0].e_total
    demo_bound = diagnostics.bihari_horizon(1.0, 0.0, e0)
    dominated = all(
        r.e_total <= diagnostics.bihari_bound_at(demo_bound, r.t)
        for r in data.reports if r.t < 0.95 * demo_bound.t_star)

    secs = time.time() - t0
    _report(7, bool(checked) and star_ok and eq_ok and dominated and secs < 10.0,
            f"20 trials dominated, t_star=1 exact, closed-form rel err "
            f"{eq_err:.1e}, demo run below its majorant, {secs:.1f}s")


def test_criterion_08_besov_estimator(demo_levels):
    t0 = time.time()
    const = diagnostics.besov_seminorm(np.full(64, 3.7), math.inf, 0.01)
    const_ok = const == 0.0

    sample_dt = 1e-4
    ramp = np.arange(10_001) * sample_dt
    semi = diagnostics.besov_seminorm(ramp, math.inf, sample_dt)
    ramp_ok = abs(semi - 1.0) <= 1e-3

    data = demo_levels[4e-3]
    stable_ok = True
    detail = []
    for name, series in (("u", data.u_l2), ("phi", data.phi_l2)):
        for p in (2.0, math.inf):
            full = diagnostics.besov_seminorm(series, p, 4e-3)
            half = diagnostics.besov_seminorm(series[::2], p, 8e-3)
            stable_ok &= bool(np.isfinite(full) and np.isfinite(half))
            stable_ok &= abs(full - half) <= 0.10 * full
        detail.append(f"{name}={full:.4f}")

    secs = time.time() - t0
    _report(8, const_ok and ramp_ok and stable_ok and secs < 60.0,
            f"const->0, ramp seminorm {semi:.6f}, demo seminorms stable "
            f"({', '.join(detail)}), {secs:.1f}s")


def test_criterion_09_sweeps(demo_levels, coarse_runs, deepwell_ladder):
    fine = demo_levels[4e-3]
    diffs = {}
    for n, data in coarse_runs.items():
        du = np.stack([
            _lift_modes(data.grid, fine.grid, data.final_state.u[i])
            for i in range(2)
        ]) - fine.final_state.u
        dphi = _lift_modes(data.grid, fine.grid, data.final_state.phi) \
            - fine.final_state.phi
        diffs[n] = fine.grid.norm_l2_spectral(du) + fine.grid.norm_l2_spectral(dphi)
    decreasing = diffs[8] > diffs[16] > 0.0

    ladder, e_unreg, lad_secs = deepwell_ladder
    e0s = [ladder[eps][0].e_total for eps in (0.2, 0.1, 0.05)]
    increasing = e0s[0] < e0s[1] < e0s[2] <= e_unreg + 1e-12 * abs(e_unreg)
    approach = abs(e0s[2] - e_unreg) <= 1e-12 * abs(e_unreg)
    bounded = all(
        max(r.e_total for r in ladder[eps]) <= e0 * (1.0 + 1e-12)
        for eps, e0 in zip((0.2, 0.1, 0.05), e0s))

    secs = lad_secs + sum(r.seconds for r in coarse_runs.values())
    _report(9, decreasing and increasing and approach and bounded
            and secs < 600.0,
            f"mode diffs {diffs[8]:.3e} > {diffs[16]:.3e} > 0, initial-energy "
            f"ladder {e0s[0]:.6f} < {e0s[1]:.6f} < {e0s[2]:.6f} -> "
            f"{e_unreg:.6f}, bounded, {secs:.0f}s")


def test_criterion_10_determinism(demo_levels, tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "repeat.cfg"
    cfg_path.write_text(
        "[domain]\nn1 = 16\nn2 = 16\n[time]\ndt = 0.002\nt_end = 0.02\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path), "--output", str(out)]) == 0
        outs.append(out)
    csv_same = (outs[0] / "energy.csv").read_bytes() == (outs[1] / "energy.csv").read_bytes()
    snap_same = (outs[0] / "state_final.bin").read_bytes() == (outs[1] / "state_final.bin").read_bytes()

    data = demo_levels[4e-3]
    buf1 = io.BytesIO()
    write_snapshot(buf1, data.grid, data.final_state)
    snap = read_snapshot(io.BytesIO(buf1.getvalue()))
    u, phi, rho = restore_fields(snap, data.grid)

    class Shell:
        pass

    again = Shell()
    again.t, again.u, again.phi, again.rho = snap.time, u, phi, rho
    buf2 = io.BytesIO()
    write_snapshot(buf2, data.grid, again)
    round_trip = buf1.getvalue() == buf2.getvalue()

    secs = time.time() - t0
    _report(10, csv_same and snap_same and round_trip and secs < 60.0,
            f"repeated run byte-identical (csv and snapshot), spectral "
            f"round-trip bit-exact, {secs:.1f}s")
