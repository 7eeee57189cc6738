"""Regenerate ``reference.json``: the final state of one unit of each
workload at the default seed, as the gate compares it.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only when a workload's set-up changes or a change is meant to
alter the trajectories; every other check of the gate must pass.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main(names):
    run.bootstrap()
    import calibrate
    import workloads
    from achns import snapshot

    reference = workloads.load_reference()
    names = names or list(workloads.WORKLOADS)
    workloads._reference_mismatch = lambda case, snap: None
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for name in names:
        case = workloads.prepare(workloads.WORKLOADS[name], workloads.DEFAULT_SEED)
        workdir = tempfile.mkdtemp(prefix=f"reference-{name}-", dir=run.OUT_DIR)
        try:
            sampler = calibrate.Sampler(case.workload.kernel)
            unit = workloads.run_unit(case, workdir, sampler)
            if unit.failure is not None:
                raise SystemExit(f"{name}: {unit.failure}")
            snap = snapshot.read_snapshot(workloads.final_snapshot_path(case.workload, workdir))
            reference[name] = workloads.reference_entry(case, snap)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: reference written", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
