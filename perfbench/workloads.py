"""Workloads of the achns benchmark, one unit of each, and the gate.

A *unit* is one complete, fixed-size run of a workload through a public
entry point of the package: ``achns.cli.main``, ``achns.dynamics.run``
or ``achns.fixedpoint.picard``. A benchmark run repeats units of one
workload for its time budget. Every unit gets a fresh output directory
and must pass the correctness gate (``check_unit``).

The package receives nothing but the configuration file generated here
from the workload and its seed.
"""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import os

import numpy as np

from achns import cli, config, diagnostics, dynamics, fixedpoint, snapshot
from achns.basis import TorusGrid

import spans

#: the demo's ``band_random`` seed of ``initial_phi``; the reference is stored for it
DEFAULT_SEED = 7
#: acceptance criterion 4: max |energy-law residual| relative to E(0)
RESIDUAL_TOL_REL = 1e-7
#: acceptance criterion 4: drift of the integrals of rho and rho*phi
DRIFT_TOL = 1e-6
#: relative agreement with the stored reference state; round-off-level
#: rewrites move the final state by far less, a wrong answer by far more
REFERENCE_RTOL = 1e-8
PICARD_TOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_PI = "3.141592653589793"
_CONTRAST = (
    "[density]\nprofile = blob\nbase = 1.0\namplitude = 99\nwidth = 0.8\n"
    f"center1 = {_PI}\ncenter2 = {_PI}\n"
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "cli", "run" or "picard"
    physics: str  # INI sections on top of the built-in demo
    steps: int  # time steps per unit; for "picard", steps of the horizon
    dt: float | None = None
    dt_over_bound: float | None = None  # used when dt is None
    kernel: str = "fft32"  # the calibration kernel that mirrors the step


# Why each workload exists is recorded in BENCHMARK.json. None runs at
# the stability bound: the 32^2 demo at dt = bound blows up at t ~ 0.23.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo32", "cli", "", steps=50, dt=0.004),
        Workload("contrast32", "run", _CONTRAST, steps=8, dt=0.004),
        Workload("grid128", "run", "[domain]\nn1 = 128\nn2 = 128\n", steps=3,
                 dt_over_bound=0.5, kernel="band128"),
        Workload("picard32", "picard", "", steps=20, dt=0.004),
    )
}


@dataclasses.dataclass(frozen=True)
class Case:
    """A workload at one seed, with the configuration the package gets."""

    workload: Workload
    seed: int
    grid: tuple
    dt: float
    bound: float
    text: str

    def record(self):
        return {
            "workload": self.workload.name,
            "entry": self.workload.entry,
            "grid": list(self.grid),
            "dt": self.dt,
            "stability_bound": self.bound,
            "dt_over_bound": self.dt / self.bound,
            "steps": self.workload.steps,
            "seed": self.seed,
            "calibration_kernel": self.workload.kernel,
        }


def prepare(workload, seed):
    phi = f"[initial_phi]\nseed = {seed}\n"
    probe = config.parse_config(workload.physics + phi)
    bound = dynamics.stability_bound(probe.problem())
    dt = workload.dt if workload.dt is not None else workload.dt_over_bound * bound
    text = workload.physics + phi + f"[time]\ndt = {dt!r}\nt_end = {workload.steps * dt!r}\n"
    if workload.entry == "cli":
        text += "[output]\ncadence = 1\nsnapshots = all\n"
    return Case(workload, seed, probe.n_grid, dt, bound, text)


# --- one unit ------------------------------------------------------------------

class SetupDone(Exception):
    """Raised at the first step of a set-up-only unit."""


class StepClock:
    """Times every call of the stepping function (``dynamics.step``, or
    ``fixedpoint.lambda_map`` for Picard) and keeps the states the gate
    needs. With ``setup_only`` it ends the unit at the first call.

    Times are read from the clock of ``sampler`` (a
    ``calibrate.Sampler``), which leaves calibration samples out;
    ``calls`` holds the interval of every call on it. A sample is taken
    at the first call, so that one lies at each end of the set-up."""

    def __init__(self, entry, sampler, setup_only=False):
        self.capture = entry != "picard"
        self.keep_states = entry == "run"
        self.setup_only = setup_only
        self.sampler = sampler
        self.first_call = None
        self.calls = []
        self.states = []
        self.summary = None

    def wrap_step(self, step):
        @functools.wraps(step)
        def timed(*args, **kwargs):
            if self.first_call is None:
                self.first_call = self.sampler.now()
                self.sampler.sample()
                if self.setup_only:
                    raise SetupDone
            start = self.sampler.now()
            result = step(*args, **kwargs)
            self.calls.append((start, self.sampler.now()))
            if self.capture:
                if not self.states:
                    self.states.append(args[1])
                if not self.keep_states:
                    del self.states[1:]
                self.states.append(result[0])
            return result

        return timed

    def wrap_run(self, run):
        @functools.wraps(run)
        def captured(*args, **kwargs):
            self.summary = run(*args, **kwargs)
            return self.summary

        return captured


@dataclasses.dataclass
class Unit:
    traced: bool
    # intervals on the sampler's clock: the unit, its set-up, and every
    # call of the stepping function, which takes steps_per_call steps
    span: tuple = (0.0, 0.0)
    setup: tuple = (0.0, 0.0)
    calls: list = dataclasses.field(default_factory=list)
    steps_per_call: int = 1
    csv: bytes = b""
    layers: dict | None = None
    layer_share: float | None = None
    spans: list | None = None
    failure: str | None = None

    @property
    def wall_s(self):
        return self.span[1] - self.span[0]

    @property
    def setup_s(self):
        return self.setup[1] - self.setup[0]

    @property
    def step_s(self):
        return [(b - a) / self.steps_per_call for a, b in self.calls]


def _trace_targets(rec):
    def transform_info(args, kwargs, result):
        n = args[0].n_grid[0] * args[0].n_grid[1]
        return np.size(args[1]) // n, n

    def eval_info(args, kwargs, result):
        kc1, kc2 = args[0].cutoff
        return len(args[2]), (2 * kc1 + 1) * (2 * kc2 + 1)

    def snapshot_info(args, kwargs, result):
        return os.path.getsize(args[0])

    def span(name, info=None):
        return lambda orig: rec.wrap(name, orig, info)

    # each name is patched where its caller looks it up
    targets = [
        (TorusGrid, "to_spectral", span("basis.to_spectral", transform_info)),
        (TorusGrid, "to_grid", span("basis.to_grid", transform_info)),
        (TorusGrid, "eval_at", span("basis.eval_at", eval_info)),
        (dynamics, "step", span("dynamics.step")),
        (dynamics, "rhs", span("dynamics.rhs")),
        (dynamics, "_cg", rec.wrap_cg),
        (fixedpoint, "lambda_map", span("fixedpoint.lambda_map")),
        (fixedpoint, "linearized_rhs", span("dynamics.linearized_rhs")),
        (diagnostics.EnergyCsvWriter, "__call__", span("diagnostics.ledger")),
        (config, "check_hypotheses", span("anisotropy.check_hypotheses")),
        (dynamics, "check_hypotheses", span("anisotropy.check_hypotheses")),
    ]
    for module in (dynamics, fixedpoint):
        targets += [
            (module, "solve_mu", span("dynamics.solve_mu")),
            (module, "trace_points", span("transport.trace_points")),
            (module, "compose_displacement", span("transport.compose_displacement")),
            (module, "density_from_displacement",
             span("transport.density_from_displacement")),
        ]
    for module in (snapshot, cli):
        targets.append((module, "write_snapshot", span("snapshot.write_snapshot", snapshot_info)))
    for module in (config, cli):
        targets.append((module, "load_config", span("config.load_config")))
    return targets


def final_snapshot_path(workload, workdir):
    """Where a unit's final state is written: the last numbered snapshot
    of ``achns run``, or the gate's own file for the other entries."""
    if workload.entry == "cli":
        return os.path.join(workdir, f"state_{workload.steps:06d}.bin")
    return os.path.join(workdir, "state_final.bin")


def _problem(cfg_path):
    cfg = config.load_config(cfg_path)
    grid = cfg.grid()
    u0, phi0 = cfg.initial_fields(grid)
    return cfg, grid, cfg.problem(), u0, phi0


def run_unit(case, workdir, sampler, traced=False, setup_only=False):
    """Run one unit of ``case`` in the empty directory ``workdir``, timed
    on the clock of ``sampler`` (a ``calibrate.Sampler``), which samples
    its kernel when the unit starts, at its first step and when it ends.

    Returns a ``Unit``; a set-up-only unit stops at the first step and
    reports its set-up alone. Exceptions of the package propagate.
    """
    w = case.workload
    cfg_path = os.path.join(workdir, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(case.text)
    clock = StepClock(w.entry, sampler, setup_only)
    if w.entry == "picard":
        clock_targets = [(fixedpoint, "lambda_map", clock.wrap_step)]
    else:
        clock_targets = [(dynamics, "step", clock.wrap_step),
                         (cli, "run_integrator", clock.wrap_run)]
    rec = spans.Recorder() if traced else None
    unit = Unit(traced)
    report = None
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(spans.patched(_trace_targets(rec)))
        stack.enter_context(spans.patched(clock_targets))
        sampler.sample()
        start = sampler.now()
        try:
            if w.entry == "cli":
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", cfg_path, "--output", workdir])
                if code != 0:
                    raise RuntimeError(f"achns run exited with {code}")
            elif w.entry == "run":
                cfg, grid, problem, u0, phi0 = _problem(cfg_path)
                clock.summary = dynamics.run(problem, u0, phi0, cfg.stepper())
            else:
                cfg, grid, problem, u0, phi0 = _problem(cfg_path)
                report = fixedpoint.picard(problem, u0, phi0, cfg.stepper(),
                                           t_tilde=w.steps * case.dt, tol=PICARD_TOL)
        except SetupDone:
            unit.setup = (start, clock.first_call)
            return unit
        unit.span = (start, sampler.now())
        sampler.sample()
        unit.setup = (start, clock.first_call)
        unit.calls = clock.calls
        unit.steps_per_call = w.steps if report is not None else 1

        # the ledger and final snapshot of entries without sinks are
        # written here, after the clock stopped, so the gate sees every
        # workload through the same files
        final_path = final_snapshot_path(w, workdir)
        if w.entry != "cli":
            states = clock.states if report is None else report.states
            with open(os.path.join(workdir, "energy.csv"), "w",
                      encoding="utf-8", newline="\n") as fh:
                writer = diagnostics.EnergyCsvWriter(fh, grid, cfg.laws, cfg.model, cfg.spec)
                for st in states:
                    writer(st)
            snapshot.write_snapshot(final_path, grid, states[-1])

    with open(os.path.join(workdir, "energy.csv"), "rb") as fh:
        unit.csv = fh.read()
    if report is not None:
        final_state, n_steps = report.states[-1], len(report.states) - 1
    else:
        final_state, n_steps = clock.states[-1], len(clock.calls)
    ledger = _read_ledger(unit.csv)
    unit.failure = check_unit(case, final_state, n_steps, ledger,
                              snapshot.read_snapshot(final_path), report)
    if traced:
        horizons = len(clock.calls) if report is not None else 1
        unit.layers, unit.layer_share = spans.summarize(rec.spans, horizons * n_steps)
        history = getattr(clock.summary, "history", None)
        unit.layers["dynamics.history_mb"] = (
            sum(r.coefs.nbytes for r in history.records) / 2**20 if history is not None else 0.0
        )
        unit.layers["transport.rho_mass_drift"] = _drift(ledger)[0]
        unit.layers["fixedpoint.picard_iters"] = report.iterations if report is not None else 0
        unit.spans = rec.spans
    return unit


# --- the gate ------------------------------------------------------------------

def _read_ledger(data):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}


def _drift(ledger):
    """Largest relative drift of the integrals of rho and rho*phi, as
    acceptance criterion 4 measures them."""
    m_rho, m_rp = ledger["mass_rho"], ledger["mass_rhophi"]
    d_rho = float(np.abs(m_rho - m_rho[0]).max() / abs(m_rho[0]))
    d_rp = float(np.abs(m_rp - m_rp[0]).max() / max(abs(m_rp[0]), abs(m_rho[0])))
    return d_rho, d_rp


def fingerprint(snap):
    """Numbers that pin a final state: density extrema and mean, the
    norms of the coefficients and the 25 lowest modes of each field."""
    low = 25
    return {
        "time": [snap.time],
        "rho": [float(snap.rho_values.min()), float(snap.rho_values.max()),
                float(snap.rho_values.mean())],
        "norms": [float(np.linalg.norm(snap.u_coef)), float(np.linalg.norm(snap.phi_coef))],
        "u": np.concatenate([snap.u_coef[:, :low].real.ravel(),
                             snap.u_coef[:, :low].imag.ravel()]).tolist(),
        "phi": np.concatenate([snap.phi_coef[:low].real, snap.phi_coef[:low].imag]).tolist(),
    }


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(case, snap):
    return {"dt": case.dt, "steps": case.workload.steps, "fingerprint": fingerprint(snap)}


def _reference_mismatch(case, snap):
    ref = load_reference().get(case.workload.name)
    if ref is None or ref["dt"] != case.dt or ref["steps"] != case.workload.steps:
        return "no stored reference for this workload set-up"
    got = fingerprint(snap)
    for key, want in ref["fingerprint"].items():
        want = np.asarray(want)
        err = float(np.max(np.abs(np.asarray(got[key]) - want)))
        if err > REFERENCE_RTOL * max(float(np.max(np.abs(want))), 1e-300):
            return f"final state differs from the reference in {key} by {err:.3g}"
    return None


def check_unit(case, state, n_steps, ledger, snap, report):
    """Return why the unit is wrong, or None when it passes."""
    w = case.workload
    if n_steps != w.steps:
        return f"took {n_steps} steps, expected {w.steps}"
    if report is not None and not report.converged:
        return f"Picard iteration did not converge in {report.iterations} iterations"
    for name in ("u", "phi", "mu"):
        if not np.all(np.isfinite(getattr(state, name))):
            return f"final {name} is not finite"
    rho = state.rho
    if not (np.all(np.isfinite(rho.values)) and rho.values.min() >= rho.lo
            and rho.values.max() <= rho.hi):
        return f"density leaves its carried bounds [{rho.lo}, {rho.hi}]"
    e0 = abs(ledger["e_total"][0])
    resid = float(np.abs(ledger["energy_residual"]).max())
    if resid > RESIDUAL_TOL_REL * e0:
        return f"energy-law residual {resid:.3g} exceeds {RESIDUAL_TOL_REL:g} * E(0)"
    d_rho, d_rp = _drift(ledger)
    if max(d_rho, d_rp) > DRIFT_TOL:
        return f"integral drift rho {d_rho:.3g}, rho*phi {d_rp:.3g} exceeds {DRIFT_TOL:g}"
    if case.seed == DEFAULT_SEED:
        return _reference_mismatch(case, snap)
    return None
