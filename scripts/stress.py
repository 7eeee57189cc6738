"""Stress report: runs a fixed table of hard cases and says which fail.

    PYTHONPATH=src python scripts/stress.py

runs every case of ``CASES`` and prints one Markdown table row per case:

* the outcome: ``ok``, or ``FAIL`` with the reason: the error the run
  raised, its time limit, or a structural check it broke;
* the steps taken and the time reached;
* the CG iterations per mass solve, mean and max, per label (potential
  / velocity / concentration), counted as operator applications less
  the one that forms the start residual; the initial potential solve
  counts too;
* the energy-law residual, max |E(t_{n+1}) - E(t_n) + dt (D_{n+1} +
  D_n)/2| relative to |E(0)|, over the steps taken;
* the rho-mass drift, max |M(t) - M(0)| / M(0) of the integral of rho;
* the Jacobian defect max |det(I + grad D) - 1| of the backward
  displacement D of the last state reached;
* the wall time of the case, set-up included.

A case fails when its run raises, when it runs past its time limit, or
when the last two figures break the bounds of acceptance criteria 4 and
5 (``DRIFT_TOL``, ``JACOBIAN_DEFECT_TOL``). The time limit is enforced in
process by a sink that every emitted state passes through, so a case
stops at the first step that ends past its limit; the script starts no
threads and no subprocesses. It exits with status 1 if any case fails.
It is a report of what the stepper can and cannot do, not a test gate.

The cases build on the built-in demo (``configs/demo.cfg``):

* the density contrast ladder 1:2, 1:100, 1:1000 and 1:10^4: a centred
  blob of base 1 and width 0.8, at 32^2 for 4 steps and at 64^2 for 2
  steps, at dt = min(0.004, 0.5 x the stability bound);
* the 1:100 and 1:1000 blobs at 128^2 for 2 steps at the same dt;
* a Taylor-Green flow of amplitude 1.0 in place of 0.3 at 32^2 to t = 3;
* the demo itself to t = 5.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from achns import dynamics  # noqa: E402
from achns.config import parse_config  # noqa: E402
from achns.diagnostics import energy_law_residual, energy_report  # noqa: E402
from achns.errors import AchnsError  # noqa: E402

#: acceptance criterion 4's bound on the drift of the integral of rho
DRIFT_TOL = 1e-6
#: acceptance criterion 5's bound on the Jacobian defect of the backward map
JACOBIAN_DEFECT_TOL = 1e-3
LABELS = ("potential", "velocity", "concentration")


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    physics: str  # INI sections on top of the built-in demo
    limit_s: float
    t_end: float | None = None  # None: n_steps steps of dt
    n_steps: int | None = None
    dt_over_bound: float | None = None  # dt = min(demo dt, this x bound)


def _contrast(n, ratio, n_steps, limit_s):
    physics = (
        f"[domain]\nn1 = {n}\nn2 = {n}\n"
        f"[density]\nprofile = blob\nbase = 1.0\namplitude = {ratio - 1}\nwidth = 0.8\n"
        f"center1 = {math.pi!r}\ncenter2 = {math.pi!r}\n"
    )
    return Case(f"1:{ratio} at {n}^2", physics, limit_s, n_steps=n_steps, dt_over_bound=0.5)


CASES = (
    *(_contrast(32, r, 4, 60.0) for r in (2, 100, 1000, 10000)),
    *(_contrast(64, r, 2, 60.0) for r in (2, 100, 1000, 10000)),
    *(_contrast(128, r, 2, 120.0) for r in (100, 1000)),
    Case("Taylor-Green 1.0 to t=3", "[initial_u]\nprofile = taylor_green\namplitude = 1.0\n",
         300.0, t_end=3.0),
    Case("demo to t=5", "", 400.0, t_end=5.0),
)


class _TimeLimit(Exception):
    pass


def _counting_cg(cg, iters):
    """Wrap dynamics._cg: record each solve's iterations under its label."""

    def counted_cg(apply_a, b, x0, rtol, label):
        calls = 0

        def counted(w):
            nonlocal calls
            calls += 1
            return apply_a(w)

        try:
            return cg(counted, b, x0, rtol, label)
        finally:
            iters[label].append(max(calls - 1, 0))

    return counted_cg


def jacobian_defect(grid, disp):
    """max |det(I + grad D) - 1| of a backward displacement D on the
    grid, with grad D taken spectrally; 0 for no displacement."""
    if disp is None:
        return 0.0
    dc = grid.to_spectral(disp)
    g1, g2 = (grid.to_grid(grid.grad(dc[i])) for i in range(2))
    det = (1.0 + g1[0]) * (1.0 + g2[1]) - g1[1] * g2[0]
    return float(np.abs(det - 1.0).max())


def run_case(case):
    """Run one case; returns its table row as a dict."""
    cfg = parse_config(case.physics)
    problem = cfg.problem()
    dt = cfg.dt
    if case.dt_over_bound is not None:
        dt = min(dt, case.dt_over_bound * dynamics.stability_bound(problem))
    t_end = case.t_end if case.t_end is not None else case.n_steps * dt
    stepper = dataclasses.replace(cfg, dt=dt, t_end=t_end).stepper()
    grid = problem.grid
    u0, phi0 = cfg.initial_fields(grid)
    iters = {label: [] for label in LABELS}
    reports, last = [], []
    start = time.perf_counter()

    def sink(state):
        reports.append(energy_report(grid, state, problem.laws, problem.model, problem.spec))
        last[:] = [state]
        if time.perf_counter() - start > case.limit_s:
            raise _TimeLimit

    cg, dynamics._cg = dynamics._cg, _counting_cg(dynamics._cg, iters)
    failures = []
    try:
        dynamics.run(problem, u0, phi0, stepper, sinks=[sink])
    except _TimeLimit:
        failures.append(f"time limit {case.limit_s:g} s")
    except AchnsError as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        dynamics._cg = cg
    wall = time.perf_counter() - start

    row = {"case": case.name, "steps": max(len(reports) - 1, 0), "wall_s": wall,
           "t": last[0].t if last else 0.0, "iters": iters, "energy": None,
           "drift": None, "defect": None}
    if len(reports) >= 2:
        row["energy"] = energy_law_residual(reports, dt)[1] / abs(reports[0].e_total)
    if reports:
        mass = np.array([r.mass_rho for r in reports])
        row["drift"] = float(np.abs(mass - mass[0]).max() / abs(mass[0]))
        row["defect"] = jacobian_defect(grid, last[0].disp)
        if row["drift"] > DRIFT_TOL:
            failures.append(f"rho-mass drift above {DRIFT_TOL:g}")
        if row["defect"] > JACOBIAN_DEFECT_TOL:
            failures.append(f"Jacobian defect above {JACOBIAN_DEFECT_TOL:g}")
    row["outcome"] = "FAIL: " + "; ".join(failures) if failures else "ok"
    return row


def _fmt(x):
    return "-" if x is None else f"{x:.2g}"


def _cg_cells(iters):
    means = " / ".join(f"{np.mean(iters[k]):.1f}" if iters[k] else "-" for k in LABELS)
    maxes = " / ".join(str(max(iters[k])) if iters[k] else "-" for k in LABELS)
    return means, maxes


def format_row(row):
    means, maxes = _cg_cells(row["iters"])
    return (f"| {row['case']} | {row['outcome']} | {row['steps']} (t = {row['t']:.4g}) "
            f"| {means} | {maxes} | {_fmt(row['energy'])} | {_fmt(row['drift'])} "
            f"| {_fmt(row['defect'])} | {row['wall_s']:.1f} |")


HEADER = (
    "| case | outcome | steps | CG mean (pot / vel / conc) | CG max | energy-law residual "
    "| rho-mass drift | Jacobian defect | wall s |\n"
    "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"
)


def main():
    print(HEADER, flush=True)
    start = time.perf_counter()
    failed = 0
    for case in CASES:
        row = run_case(case)
        failed += row["outcome"] != "ok"
        print(format_row(row), flush=True)
    print(f"\n{failed} of {len(CASES)} cases failed in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
