"""Benchmark of the achns simulator: one workload, one process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; the package is imported from the
checkout's own ``src``. The run repeats units of the workload (see
``workloads.py``) until ``--seconds`` is spent, at least two of them,
checks every unit, and prints as its last line of standard output one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with only a clock on the stepping function, while a timer
samples a fixed calibration kernel; every time is reported at the
reference machine speed of ``calibrate.py``, so the shared host's own
swings in speed cancel. With ``--trace 1`` traced and untraced units
alternate; the metrics are the per-layer ones, taken from the traced
units, plus the tracing overhead against the untraced ones. Every count
in the traced units must repeat exactly.

BLAS and OpenMP run on one thread. The first line of output records the
machine, the library versions, the pinned thread counts and the workload
(grid, dt against the stability bound, steps, seed). Run records and the
spans of the last traced unit go to ``.bench_out/`` in the checkout.
"""

import argparse
import contextlib
import gzip
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: BLAS/OpenMP threads; on a 2-core machine OpenBLAS's default threading
#: made a 32^2 step about 30% slower than one thread
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: set-up-only units after each full unit of an untraced run, so the
#: set-up samples spread over the whole run like the step samples
SETUP_PROBES = 3
#: largest gap between the summed layer self times and the step time
LAYER_SHARE_TOL = 0.05
TIME_UNITS = ("ms", "s")


def bootstrap():
    """Pin the thread counts and put the checkout's package first on the
    path. Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "achns", "dynamics.py")):
        raise SystemExit(f"no achns package under {src}")
    sys.path.insert(0, src)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _attempt(workloads, case, sampler, run_dir, index, traced, setup_only=False):
    workdir = os.path.join(run_dir, f"unit{index}")
    os.makedirs(workdir)
    try:
        return workloads.run_unit(case, workdir, sampler, traced, setup_only)
    except Exception as exc:  # a failing unit is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        return workloads.Unit(traced, failure=f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_units(workloads, case, sampler, run_dir, seconds, trace):
    """Full units until the next one would overrun the budget (at least
    two, or three traced and untraced in turn); an untraced run adds
    SETUP_PROBES set-up-only units after each. Returns (units, the
    units whose set-up time counts)."""
    start = time.perf_counter()
    kinds = itertools.cycle((True, False)) if trace else itertools.repeat(False)
    min_units = 3 if trace else 2
    units, setups = [], []
    for traced in kinds:
        t0 = time.perf_counter()
        unit = _attempt(workloads, case, sampler, run_dir, len(units), traced)
        took = time.perf_counter() - t0
        if unit.spans is not None:
            for earlier in units:
                earlier.spans = None
        units.append(unit)
        if not trace and unit.step_s:
            setups.append(unit)
            for k in range(SETUP_PROBES):
                probe = _attempt(workloads, case, sampler, run_dir, f"{len(units)}-{k}",
                                 False, setup_only=True)
                if probe.failure is not None:
                    units.append(probe)
                    break
                setups.append(probe)
        now = time.perf_counter()
        if len(units) >= min_units and now - start + took > seconds:
            break
    return units, setups


def check_run(units, time_metrics):
    """Run-level checks, charged to the unit that breaks them: every unit
    writes the same energy.csv, every traced unit the same counts, and
    the layer self times of a traced unit add up to its step time."""
    ok = [u for u in units if u.failure is None]
    first_traced = next((u for u in ok if u.traced), None)
    for u in ok:
        if u.csv != ok[0].csv:
            u.failure = "energy.csv differs from the first unit's"
        elif u.traced and abs(u.layer_share - 1.0) > LAYER_SHARE_TOL:
            u.failure = f"layer self times sum to {u.layer_share:.4f} of the step time"
        elif u.traced:
            moved = [k for k, v in u.layers.items()
                     if k not in time_metrics and v != first_traced.layers[k]]
            if moved:
                u.failure = f"counts differ between traced units: {', '.join(moved)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import calibrate
    import workloads

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    case = workloads.prepare(workloads.WORKLOADS[args.workload], seed)
    record = {"environment": environment(), "case": case.record()}
    print(json.dumps(record), flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    w = case.workload
    sampler = calibrate.Sampler(w.kernel)
    try:
        # the timer samples only untraced runs; their times are calibrated
        with contextlib.nullcontext() if args.trace else sampler.running():
            units, setups = run_units(workloads, case, sampler, run_dir,
                                      args.seconds, args.trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units_of = {m["name"]: m["unit"] for m in wanted}
    check_run(units, {n for n, u in units_of.items() if u in TIME_UNITS})
    for u in units:
        if u.failure is not None:
            print(f"unit failed: {u.failure}", file=sys.stderr)
    # a unit that ran to the end is timed even when the gate rejects it
    done = [u for u in units if u.step_s]
    traced = [u for u in done if u.traced]
    plain = [u for u in done if not u.traced]
    if not plain or (args.trace and not traced):
        print("no unit of the needed kind ran to the end; no result", file=sys.stderr)
        return 1

    if args.trace:
        values = {k: statistics.median(u.layers[k] for u in traced) for k in traced[0].layers}
        values["trace_overhead"] = (statistics.median(u.wall_s for u in traced)
                                    / statistics.median(u.wall_s for u in plain) - 1.0)
    else:
        at_ref = sampler.at_reference
        step_ms = 1e3 * statistics.median(
            at_ref(a, b) / u.steps_per_call for u in plain for a, b in u.calls)
        values = {
            "wall_s": statistics.median(at_ref(*u.span) for u in plain),
            "setup_s": statistics.median(at_ref(*u.setup) for u in setups),
            "step_ms": step_ms,
            "s_per_time_unit": step_ms / 1e3 / case.dt,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(values) != set(units_of):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units_of))} do not match BENCHMARK.json")

    failed = sum(u.failure is not None for u in units)
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units_of[k]} for k in units_of},
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result, "units": [
            {"traced": u.traced, "wall_s": u.wall_s, "setup_s": u.setup_s,
             "step_s": u.step_s, "span": u.span, "setup": u.setup, "calls": u.calls,
             "layer_share": u.layer_share, "failure": u.failure}
            for u in units + [p for p in setups if not p.step_s]],
            "calibration": {"kernel": w.kernel, "reference_s": sampler.reference_s,
                            "samples": sampler.samples}}, fh, indent=1)
    if traced:
        with gzip.open(stem + ".spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "info"],
                       "spans": traced[-1].spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
