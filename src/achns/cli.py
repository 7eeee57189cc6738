"""Command-line interface.

Subcommands:

    run               integrate a configured problem and write CSV/snapshots
    check-anisotropy  verify the structural hypotheses of a surface-energy law
    potential-table   tabulate the regularized double well and derivatives
    fixedpoint        run the frozen-coefficient iteration and report contraction
    bihari            print the finite horizon of the quadratic comparison bound
    besov             quarter-Holder seminorm/norm of a CSV time series
    sweep             resolution or regularization refinement studies

Exit codes: 0 success, 1 usage or configuration problem, 2 runtime failure
(blow-up, solver stall, unstable step, non-convergence, horizon breach,
out of memory).
All output is deterministic: no timestamps, no machine identifiers.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import diagnostics
from .anisotropy import check_hypotheses, quadratic_form, taylor_cahn_matrix
from .config import load_config
from .dynamics import run as run_integrator
from .errors import (
    AchnsError,
    ConfigError,
    DimensionError,
    DomainError,
)
from .fixedpoint import picard
from .potential import f_eps, f_eps_prime, f_eps_second, f_log
from .snapshot import SnapshotSink, write_snapshot


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# --- run ---------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.output if args.output is not None else cfg.out_dir
    # the run is set up, and so checked, before anything is written
    grid = cfg.grid()
    problem = cfg.problem()
    u0, phi0 = cfg.initial_fields(grid)
    os.makedirs(out_dir, exist_ok=True)

    csv_path = os.path.join(out_dir, "energy.csv")
    snap_sink = None
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = diagnostics.EnergyCsvWriter(fh, grid, cfg.laws, cfg.model, cfg.spec)
        sinks = [writer]
        if cfg.snapshots == "all":
            snap_sink = SnapshotSink(out_dir, grid)
            sinks.append(snap_sink)
        summary = run_integrator(problem, u0, phi0, cfg.stepper(),
                                 sinks=sinks, cadence=cfg.cadence)

    first, last = writer.first, writer.last
    m0, m1 = first.mass_rho, last.mass_rho
    p0, p1 = first.mass_rhophi, last.mass_rhophi
    drift_rho = abs(m1 - m0) / max(abs(m0), 1e-300)
    drift_rhophi = abs(p1 - p0) / max(abs(p0), abs(m0))

    print(f"grid: {grid.n_grid[0]} x {grid.n_grid[1]}")
    print(f"steps: {summary.n_steps}")
    print(f"final time: {_fmt(summary.final_state.t)}")
    print(f"initial energy: {_fmt(first.e_total)}")
    print(f"final energy: {_fmt(last.e_total)}")
    print(f"mass drift rho: {_fmt(drift_rho)}")
    print(f"mass drift rho*phi: {_fmt(drift_rhophi)}")
    print(f"energy file: {csv_path}")
    if cfg.snapshots == "final":
        snap_path = os.path.join(out_dir, "state_final.bin")
        write_snapshot(snap_path, grid, summary.final_state)
        print(f"snapshot: {snap_path}")
    elif cfg.snapshots == "all":
        print(f"snapshots: {snap_sink.count} files in {out_dir}")
    return 0


# --- check-anisotropy --------------------------------------------------------

def _cmd_check_anisotropy(args) -> int:
    explicit = [v for v in (args.m11, args.m12, args.m22) if v is not None]
    if args.beta is not None and explicit:
        raise DomainError("--beta excludes explicit matrix entries")
    if explicit and len(explicit) != 3:
        raise DomainError("provide all three of --m11 --m12 --m22")
    if args.config is not None and (args.beta is not None or explicit):
        flags = "--beta" if args.beta is not None else "--m11/--m12/--m22"
        raise DomainError(f"--config excludes {flags}")
    if args.beta is not None:
        model = taylor_cahn_matrix(args.beta)
    elif explicit:
        model = quadratic_form([[args.m11, args.m12], [args.m12, args.m22]])
    else:
        model = load_config(args.config).model
    report = check_hypotheses(model)
    print(report)
    if report.all_hold():
        print("all hypotheses hold")
        return 0
    print("hypothesis check FAILED")
    return 1


# --- potential-table ---------------------------------------------------------

def _cmd_potential_table(args) -> int:
    for flag, val in (("--from", args.lo), ("--to", args.hi)):
        if not math.isfinite(val):
            raise DomainError(f"{flag} must be finite, got {val}")
    if args.points < 2:
        raise DomainError("--points must be at least 2")
    if not args.hi > args.lo:
        raise DomainError("--to must exceed --from")
    cfg = load_config(args.config)
    spec = cfg.spec
    s = np.linspace(args.lo, args.hi, args.points)
    print("s,f_eps,f_eps_prime,f_eps_second")
    for si in s:
        print(f"{_fmt(si)},{_fmt(f_eps(spec, si))},"
              f"{_fmt(f_eps_prime(spec, si))},{_fmt(f_eps_second(spec, si))}")
    return 0


# --- fixedpoint --------------------------------------------------------------

def _cmd_fixedpoint(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.grid()
    problem = cfg.problem()
    u0, phi0 = cfg.initial_fields(grid)
    report = picard(problem, u0, phi0, cfg.stepper(),
                    t_tilde=args.t_tilde, tol=args.tol,
                    tol_r=args.tol_r, max_iter=args.max_iter)
    print("iterate,distance,r_eps")
    for i, (d, r) in enumerate(zip(report.distances, report.r_eps_history), 1):
        print(f"{i},{_fmt(d)},{_fmt(r)}")
    if report.converged:
        print(f"converged: yes after {report.iterations} iterations")
        return 0
    print(f"converged: no after {report.iterations} iterations")
    return 2


# --- bihari ------------------------------------------------------------------

def _cmd_bihari(args) -> int:
    bound = diagnostics.bihari_horizon(args.c1, args.g0, args.y0)
    print(f"t_star = {_fmt(bound.t_star)}")
    if args.check is not None:
        ok = diagnostics.bihari_check(bound, n_trials=args.check)
        if ok:
            print(f"check: pass ({args.check} trials)")
            return 0
        print("check: FAIL")
        return 2
    return 0


# --- besov -------------------------------------------------------------------

def _cmd_besov(args) -> int:
    data = np.genfromtxt(args.csv, delimiter=",", names=True)
    if data.dtype.names is None:
        raise DomainError(f"{args.csv} is not a CSV table with a header row")
    data = np.atleast_1d(data)
    if args.column not in data.dtype.names:
        raise DomainError(
            f"no column {args.column!r}; available: {', '.join(data.dtype.names)}"
        )
    series = np.asarray(data[args.column], dtype=float)
    if args.sample_dt is not None:
        sample_dt = args.sample_dt
    elif "t" in data.dtype.names:
        t = np.asarray(data["t"], dtype=float)
        if not np.all(np.isfinite(t)):
            raise DomainError("time column has an empty or non-finite entry; pass --sample-dt")
        gaps = np.diff(t)
        if gaps.size == 0 or gaps.max() - gaps.min() > 1e-9 * max(gaps.max(), 1e-300):
            raise DomainError(
                "time column is not uniformly spaced; pass --sample-dt"
            )
        sample_dt = float(gaps.mean())
    else:
        raise DomainError("no time column in the CSV; pass --sample-dt")
    p = math.inf if args.p == "inf" else 2.0
    semi = diagnostics.besov_seminorm(series, p, sample_dt)
    norm = diagnostics.besov_norm(series, p, sample_dt)
    print(f"seminorm = {_fmt(semi)}")
    print(f"norm = {_fmt(norm)}")
    return 0


# --- sweep -------------------------------------------------------------------

def _lift_modes(coarse, fine, coef):
    """Copy coarse-grid coefficients (..., band) into the fine grid's band."""
    out = np.zeros(coef.shape[:-2] + fine.band_shape, dtype=np.complex128)
    out[..., coarse.k1_int % fine.band_shape[0], :coarse.band_shape[1]] = coef
    return out


def _sweep_config(cfg, n):
    """cfg on the n x n grid. Raises DomainError, naming the key and the
    grid, when a mode count of cfg is not valid there."""
    cfg_n = dataclasses.replace(cfg, n_grid=(n, n))
    grid = cfg_n.grid()
    for key in ("n_modes_u", "n_modes_phi"):
        try:
            grid.check_mode_count(getattr(cfg, key))
        except DomainError as exc:
            raise DomainError(f"[time] {key} on the {n}x{n} sweep grid: {exc}") from exc
    return cfg_n


def _run_final_state(cfg):
    grid = cfg.grid()
    problem = cfg.problem()
    u0, phi0 = cfg.initial_fields(grid)
    summary = run_integrator(problem, u0, phi0, cfg.stepper())
    return grid, summary.final_state


def _flag_values(text, flag, convert):
    """convert of each comma-separated token of a flag; DomainError names a bad one."""
    try:
        return [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"{flag}: {exc}") from None


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if (args.modes is None) == (args.eps is None):
        raise DomainError("pass exactly one of --modes or --eps")

    if args.modes is not None:
        sizes = sorted(set(_flag_values(args.modes, "--modes", int)))
        if len(sizes) < 2:
            raise DomainError("--modes needs at least two sizes")
        # every sweep grid is checked before the first run
        cfgs = [_sweep_config(cfg, n) for n in sizes]
        results = [(n,) + _run_final_state(cfg_n) for n, cfg_n in zip(sizes, cfgs)]
        n_ref, g_ref, st_ref = results[-1]
        print(f"reference: n={n_ref}")
        for n, g, st in results[:-1]:
            du = _lift_modes(g, g_ref, st.u) - st_ref.u
            dphi = _lift_modes(g, g_ref, st.phi) - st_ref.phi
            diff_u = g_ref.norm_l2_spectral(du)
            diff_phi = g_ref.norm_l2_spectral(dphi)
            print(f"n={n} diff_u={_fmt(diff_u)} diff_phi={_fmt(diff_phi)} "
                  f"diff_total={_fmt(diff_u + diff_phi)}")
        return 0

    eps_values = _flag_values(args.eps, "--eps", float)
    if len(eps_values) < 2:
        raise DomainError("--eps needs at least two values")
    # every variant's problem is built, and so checked, before the first run
    problems = [dataclasses.replace(cfg, spec=dataclasses.replace(cfg.spec, eps=eps)).problem()
                for eps in eps_values]
    e0_unreg = None
    for problem in problems:
        grid, spec = problem.grid, problem.spec
        u0, phi0 = cfg.initial_fields(grid)
        reports, state0 = [], None

        def sink(state):
            nonlocal state0
            if state0 is None:
                state0 = state
            reports.append(diagnostics.energy_report(grid, state, cfg.laws, cfg.model, spec))

        run_integrator(problem, u0, phi0, cfg.stepper(), sinks=[sink])
        st0 = reports[0]
        e_max = max(r.e_total for r in reports)
        print(f"eps={spec.eps:g} e0_eps={_fmt(st0.e_total)} e_max={_fmt(e_max)}")
        if e0_unreg is None:
            # unregularized initial energy: swap only the potential term;
            # the logarithmic well needs |phi| < 1, true for admissible data
            phi_vals = grid.to_grid(state0.phi)
            e_pot_unreg = grid.quadrature(state0.rho.values * f_log(spec, phi_vals))
            e0_unreg = st0.e_kin + st0.e_surf + e_pot_unreg
    print(f"e0_unregularized = {_fmt(e0_unreg)}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="achns",
        description="Pseudo-spectral simulator for anisotropic two-phase "
                    "flow with variable density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a configured problem")
    p.add_argument("--config", default=None, help="configuration file (default: built-in demo)")
    p.add_argument("--output", default=None, help="override the output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check-anisotropy", help="verify surface-energy hypotheses")
    p.add_argument("--config", default=None)
    p.add_argument("--beta", type=float, default=None,
                   help="fourfold-family coefficient instead of a matrix")
    p.add_argument("--m11", type=float, default=None)
    p.add_argument("--m12", type=float, default=None)
    p.add_argument("--m22", type=float, default=None)
    p.set_defaults(func=_cmd_check_anisotropy)

    p = sub.add_parser("potential-table", help="tabulate the regularized double well")
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_potential_table)

    p = sub.add_parser("fixedpoint", help="frozen-coefficient contraction study")
    p.add_argument("--t-tilde", dest="t_tilde", type=float, required=True,
                   help="short horizon (a multiple of dt)")
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--tol-r", dest="tol_r", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=20)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_fixedpoint)

    p = sub.add_parser("bihari", help="finite horizon of the quadratic comparison bound")
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--g0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--check", type=int, default=None,
                   help="verify against N integrated trials")
    p.set_defaults(func=_cmd_bihari)

    p = sub.add_parser("besov", help="quarter-Holder seminorm of a CSV column")
    p.add_argument("csv", help="CSV file with a header row")
    p.add_argument("--column", required=True)
    p.add_argument("--p", choices=["2", "inf"], required=True)
    p.add_argument("--sample-dt", dest="sample_dt", type=float, default=None)
    p.set_defaults(func=_cmd_besov)

    p = sub.add_parser("sweep", help="refinement studies")
    p.add_argument("--modes", default=None, help="comma-separated grid sizes")
    p.add_argument("--eps", default=None, help="comma-separated regularization widths")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ConfigError, DimensionError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except AchnsError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
