"""The names perfbench's layer trace patches must stay where it patches
them. perfbench/workloads.py::_trace_targets replaces functions where
their callers look them up; a name that moves makes every traced unit
of a workload fail with AttributeError, and a call that no longer goes
through a patched name drops out of its layer in silence."""

import os
import sys

import numpy as np
import pytest

from achns import config, dynamics, fixedpoint
from achns.anisotropy import quadratic_form
from achns.basis import TorusGrid
from achns.dynamics import FlowState, MaterialLaws, Problem, StepperConfig
from achns.potential import PotentialSpec
from achns.profiles import SinusoidalDensity, phi_band_random, u_taylor_green

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

BOX = (2 * np.pi, 2 * np.pi)


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return spans, workloads


def _setup():
    grid = TorusGrid(BOX, (8, 8))
    problem = Problem(grid, quadratic_form([[1.2, -0.1], [-0.1, 1.0]]),
                      PotentialSpec(1.0, 0.5, 0.1), MaterialLaws(0.12, 0.08, 0.0146, 0.0146),
                      SinusoidalDensity(1.5, 0.5, BOX, 1, 1))
    u0 = u_taylor_green(grid, 0.3)
    phi0 = phi_band_random(grid, seed=7, kmax=2, amplitude=0.5, mean=-0.05)
    cfg = StepperConfig(dt=0.004, t_end=0.008)
    return problem, u0, phi0, cfg


def _names_under(recorded, root_name):
    """Names of the spans nested anywhere below spans called root_name."""
    inside = set()
    below = []
    for name, _, _, parent, _ in recorded:
        hit = parent >= 0 and (recorded[parent][0] == root_name or below[parent])
        below.append(hit)
        if hit:
            inside.add(name)
    return inside


def test_traced_step_and_lambda_map_record_every_layer(bench):
    spans, workloads = bench
    problem, u0, phi0, cfg = _setup()
    state = problem.initial_state(u0, phi0)
    rec = spans.Recorder()
    with spans.patched(workloads._trace_targets(rec)):
        # called as the benchmark's workloads call them, through the
        # modules; the Picard workload reaches lambda_map only via picard
        result = dynamics.step(problem, state, cfg)
        report = fixedpoint.picard(problem, u0, phi0, cfg, t_tilde=cfg.t_end, tol=1e-18,
                                   max_iter=2)
    # the step clock keeps args[1] and result[0] of each step call
    assert isinstance(result[0], FlowState) and result[0].t == pytest.approx(cfg.dt)
    assert report.iterations == 2 and len(report.states) == 3
    assert sum(s[0] == "fixedpoint.lambda_map" for s in rec.spans) == 2
    in_step = _names_under(rec.spans, "dynamics.step")
    in_map = _names_under(rec.spans, "fixedpoint.lambda_map")
    layers = {"dynamics.solve_mu", "dynamics._cg", "transport.trace_points",
              "transport.compose_displacement", "transport.density_from_displacement"}
    assert layers | {"dynamics.rhs"} <= in_step
    assert layers | {"dynamics.linearized_rhs"} <= in_map


@pytest.mark.parametrize("name", ["demo32", "contrast32", "grid128", "picard32"])
def test_every_workload_config_loads_and_builds(bench, tmp_path, name):
    # the configs perfbench writes go through load_config and every
    # RunConfig constructor the workloads call
    _, workloads = bench
    case = workloads.prepare(workloads.WORKLOADS[name], seed=7)
    path = tmp_path / "run.cfg"
    path.write_text(case.text)
    cfg = config.load_config(str(path))
    grid = cfg.grid()
    assert grid.n_grid == case.grid and cfg.dt == case.dt
    assert isinstance(cfg.problem(), Problem) and isinstance(cfg.stepper(), StepperConfig)
    # the unit steps on the grid that samples its fields and carries its sinks
    assert cfg.problem().grid is grid
    u0, phi0 = cfg.initial_fields(grid)
    assert u0.shape == (2,) + grid.n_grid and phi0.shape == grid.n_grid
