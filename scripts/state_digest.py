"""SHA-256 digests of four fixed runs, to tell whether a change moved
any bit of the trajectories.

    PYTHONPATH=src python scripts/state_digest.py

prints one line per run:

* ``demo``: ``achns run --config configs/demo.cfg`` (250 steps), over the
  bytes of its ``energy.csv`` and ``state_final.bin``;
* ``modes37``: 20 demo steps with ``n_modes_u = n_modes_phi = 37``, over
  the final state;
* ``picard32``: the Picard iteration on the 32^2 demo (dt 0.004, horizon
  0.08, seed 7), over the converged trajectory (u, du, phi, dphi) and
  the t, mu, rho and displacement of every state;
* ``grid128``: 3 demo steps on a 128^2 grid at dt = 0.5 x the stability
  bound (seed 7), over the final state. Its feet take Taylor orders 3-4,
  where the 32^2 runs take 5-7.

It calls only ``cli.main``, ``load_config``/``parse_config``/``RunConfig``,
``dynamics.run``, ``dynamics.stability_bound`` and ``fixedpoint.picard``,
so pointing PYTHONPATH at the ``src`` of another checkout digests that
tree's runs, and equal lines mean bitwise equal runs. BLAS and OpenMP
are pinned to one thread before numpy loads, so the reductions run in
a fixed order. The four runs take under a minute on one core.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from achns import cli, dynamics, fixedpoint  # noqa: E402
from achns.config import load_config, parse_config  # noqa: E402

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "configs", "demo.cfg")


def _feed(h, *arrays):
    """Hash each array's dtype, shape and bytes; None hashes as a marker."""
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def _feed_state(h, st):
    _feed(h, np.float64(st.t), st.u, st.phi, st.mu, st.rho.values,
          np.float64(st.rho.lo), np.float64(st.rho.hi), st.disp)


def demo_digest():
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", DEMO, "--output", out])
        if code != 0:
            raise RuntimeError(f"achns run exited with {code}")
        for name in ("energy.csv", "state_final.bin"):
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _final_state_digest(cfg, n_steps):
    grid = cfg.grid()
    u0, phi0 = cfg.initial_fields(grid)
    summary = dynamics.run(cfg.problem(), u0, phi0, cfg.stepper())
    if summary.n_steps != n_steps:
        raise RuntimeError(f"took {summary.n_steps} steps, expected {n_steps}")
    h = hashlib.sha256()
    _feed_state(h, summary.final_state)
    return h.hexdigest()


def modes_digest():
    cfg = load_config(DEMO)
    cfg = dataclasses.replace(cfg, t_end=20 * cfg.dt, n_modes_u=37, n_modes_phi=37)
    return _final_state_digest(cfg, 20)


def grid128_digest():
    cfg = parse_config("[domain]\nn1 = 128\nn2 = 128\n[initial_phi]\nseed = 7\n")
    dt = 0.5 * dynamics.stability_bound(cfg.problem())
    return _final_state_digest(dataclasses.replace(cfg, dt=dt, t_end=3 * dt), 3)


def picard_digest():
    cfg = load_config(DEMO)
    grid = cfg.grid()
    u0, phi0 = cfg.initial_fields(grid)
    report = fixedpoint.picard(cfg.problem(), u0, phi0, cfg.stepper(),
                               t_tilde=0.08, tol=1e-9)
    h = hashlib.sha256()
    pair = report.trajectory
    _feed(h, pair.u, pair.du, pair.phi, pair.dphi)
    for st in report.states:
        _feed_state(h, st)
    return h.hexdigest()


def main():
    print(f"achns from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    for name, digest in (("demo", demo_digest), ("modes37", modes_digest),
                         ("picard32", picard_digest), ("grid128", grid128_digest)):
        print(f"{name} {digest()}", flush=True)


if __name__ == "__main__":
    main()
