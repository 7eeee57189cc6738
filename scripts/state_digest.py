"""SHA-256 digests of four fixed runs, to tell whether a change moved
any bit of the trajectories, and how far.

    PYTHONPATH=src python scripts/state_digest.py [--save FILE.npz] [--against FILE.npz]

prints one line per run:

* ``demo``: ``achns run --config configs/demo.cfg`` (250 steps), over the
  bytes of its ``energy.csv`` and ``state_final.bin``;
* ``modes37``: 20 demo steps with ``n_modes_u = n_modes_phi = 37``, over
  the final state;
* ``picard32``: the Picard iteration on the 32^2 demo (dt 0.004, horizon
  0.08, seed 7), over the converged trajectory (u, du, phi, dphi) and
  the t, mu, rho and displacement of every state;
* ``grid128``: 3 demo steps on a 128^2 grid at dt = 0.5 x the stability
  bound (seed 7), over the final state. Its feet take Taylor orders 2-3,
  where the 32^2 runs take 4-5.

Every coefficient array (u, phi, mu, du, dphi) is hashed as its grid
values ``grid.to_grid(c)``, so the digests do not depend on how the
package stores coefficients. ``--save`` writes the hashed arrays of
every run to an ``.npz`` file; for ``demo`` these are the decoded
fields of ``state_final.bin`` (rho, and u and phi in canonical mode
order). ``--against`` reads such a file and appends to each line the
largest difference of any of the run's arrays from its saved twin,
relative to the twin's largest entry.

It calls only ``cli.main``, ``load_config``/``parse_config``/``RunConfig``,
``dynamics.run``, ``dynamics.stability_bound``, ``fixedpoint.picard``,
``snapshot.read_snapshot`` and ``TorusGrid.to_grid``, so pointing PYTHONPATH at the ``src`` of another checkout digests that
tree's runs, and equal lines mean bitwise equal runs. BLAS and OpenMP
are pinned to one thread before numpy loads, so the reductions run in
a fixed order. The four runs take under a minute on one core.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from achns import cli, dynamics, fixedpoint, snapshot  # noqa: E402
from achns.config import load_config, parse_config  # noqa: E402

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "configs", "demo.cfg")


def _digest(arrays):
    """Hash each array's dtype, shape and bytes in order; None hashes as
    a marker."""
    h = hashlib.sha256()
    for a in arrays.values():
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _state_arrays(grid, st, tag=""):
    return {f"{tag}t": np.float64(st.t), f"{tag}u": grid.to_grid(st.u),
            f"{tag}phi": grid.to_grid(st.phi), f"{tag}mu": grid.to_grid(st.mu),
            f"{tag}rho": st.rho.values, f"{tag}rho_lo": np.float64(st.rho.lo),
            f"{tag}rho_hi": np.float64(st.rho.hi), f"{tag}disp": st.disp}


def demo_run():
    """(digest over the files' bytes, decoded final snapshot fields)."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", DEMO, "--output", out])
        if code != 0:
            raise RuntimeError(f"achns run exited with {code}")
        for name in ("energy.csv", "state_final.bin"):
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
        snap = snapshot.read_snapshot(os.path.join(out, "state_final.bin"))
    return h.hexdigest(), {"rho": snap.rho_values, "u": snap.u_coef, "phi": snap.phi_coef}


def _final_state_run(cfg, n_steps):
    grid = cfg.grid()
    u0, phi0 = cfg.initial_fields(grid)
    summary = dynamics.run(cfg.problem(), u0, phi0, cfg.stepper())
    if summary.n_steps != n_steps:
        raise RuntimeError(f"took {summary.n_steps} steps, expected {n_steps}")
    arrays = _state_arrays(grid, summary.final_state)
    return _digest(arrays), arrays


def modes_run():
    cfg = load_config(DEMO)
    cfg = dataclasses.replace(cfg, t_end=20 * cfg.dt, n_modes_u=37, n_modes_phi=37)
    return _final_state_run(cfg, 20)


def grid128_run():
    cfg = parse_config("[domain]\nn1 = 128\nn2 = 128\n[initial_phi]\nseed = 7\n")
    dt = 0.5 * dynamics.stability_bound(cfg.problem())
    return _final_state_run(dataclasses.replace(cfg, dt=dt, t_end=3 * dt), 3)


def picard_run():
    cfg = load_config(DEMO)
    grid = cfg.grid()
    u0, phi0 = cfg.initial_fields(grid)
    report = fixedpoint.picard(cfg.problem(), u0, phi0, cfg.stepper(),
                               t_tilde=0.08, tol=1e-9)
    pair = report.trajectory
    arrays = {name: grid.to_grid(getattr(pair, name)) for name in ("u", "du", "phi", "dphi")}
    for k, st in enumerate(report.states):
        arrays.update(_state_arrays(grid, st, f"state{k}."))
    return _digest(arrays), arrays


RUNS = (("demo", demo_run), ("modes37", modes_run), ("picard32", picard_run),
        ("grid128", grid128_run))


def _max_relative_gap(arrays, saved, run):
    """Largest |a - b| / max|b| over the run's arrays and their saved twins."""
    worst = 0.0
    for name, a in arrays.items():
        if a is None:
            continue
        b = saved[f"{run}/{name}"]
        if a.shape != b.shape:
            raise SystemExit(f"{run}/{name}: shape {a.shape} against saved {b.shape}")
        scale = float(np.max(np.abs(b)))
        gap = float(np.max(np.abs(a - b)))
        worst = max(worst, gap / scale if scale > 0 else gap)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="FILE.npz", help="write every run's hashed arrays")
    parser.add_argument("--against", metavar="FILE.npz",
                        help="print each run's largest relative difference from a saved file")
    args = parser.parse_args(argv)
    saved = np.load(args.against) if args.against else None
    print(f"achns from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    store = {}
    for name, fn in RUNS:
        digest, arrays = fn()
        line = f"{name} {digest}"
        if saved is not None:
            line += f" max_rel_diff={_max_relative_gap(arrays, saved, name):.3g}"
        print(line, flush=True)
        store.update({f"{name}/{k}": v for k, v in arrays.items() if v is not None})
    if args.save:
        np.savez(args.save, **store)


if __name__ == "__main__":
    main()
