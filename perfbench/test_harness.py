"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They check the self-time arithmetic on synthetic spans, that every
wrapper is removed again, and that a short traced run of each workload
passes the gate and repeats its counts exactly.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

import run

run.bootstrap()

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from achns import cli, config, dynamics  # noqa: E402
from achns.basis import TorusGrid  # noqa: E402


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, info]


def test_self_times_subtract_the_union_of_children():
    spans_ = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.leaf", 15, 25, 1),
        _span("b", 50, 70, 0),
        _span("c", 60, 80, 0),  # overlaps b: the union [50, 80] counts once
        _span("d", 90, 130, 0),  # runs past its parent: clipped to [90, 100]
    ]
    assert spans.self_times(spans_) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 40]


def test_nested_self_times_add_up_to_the_root():
    spans_ = [
        _span("root", 0, 1000, -1),
        _span("x", 0, 400, 0),
        _span("y", 100, 300, 1),
        _span("z", 150, 200, 2),
        _span("x", 500, 900, 0),
    ]
    assert sum(spans.self_times(spans_)) == 1000


def test_summarize_counts_and_layer_share():
    ms = 1_000_000
    spans_ = [
        _span("dynamics.step", 0, 10 * ms, -1),
        _span("basis.to_spectral", 0, 1 * ms, 0, (2, 1024)),
        _span("dynamics._cg", 1 * ms, 4 * ms, 0, ("potential", 5, 1e-14)),
        _span("basis.to_grid", 2 * ms, 3 * ms, 2, (1, 1024)),
        _span("bench.cg_residual", 4 * ms, 5 * ms, 0),
        _span("basis.eval_at", 5 * ms, 7 * ms, 0, (100, 441)),
        _span("diagnostics.ledger", 11 * ms, 12 * ms, -1),
    ]
    m, share = spans.summarize(spans_, n_steps=1)
    assert m["basis.transform_calls_per_step"] == 2
    assert m["basis.transform_ms_per_step"] == 2.0
    assert m["basis.transform_gflop_per_step"] == pytest.approx(3 * 5 * 1024 * 10 / 1e9)
    assert m["basis.eval_at_points_per_step"] == 100
    assert m["basis.eval_at_gflop_per_step"] == pytest.approx(8 * 100 * 441 / 1e9)
    assert m["dynamics.solve_ms_per_step.self"] == 2.0
    assert m["dynamics.solve_ms_per_step.incl"] == 3.0
    assert m["dynamics.cg_iters.potential.max"] == 5
    assert m["dynamics.cg_iters.velocity.mean"] == 0.0
    assert m["diagnostics.ledger_ms_per_call"] == 1.0
    # the benchmark's residual check is excluded from the step time
    assert share == 1.0


def _originals():
    return {
        "to_spectral": TorusGrid.__dict__["to_spectral"],
        "eval_at": TorusGrid.__dict__["eval_at"],
        "step": dynamics.step,
        "_cg": dynamics._cg,
        "load_config": cli.load_config,
        "check_hypotheses": config.check_hypotheses,
    }


def test_wrappers_are_restored_even_after_an_error():
    before = _originals()
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.patched(workloads._trace_targets(rec)):
            assert dynamics.step is not before["step"]
            assert TorusGrid.__dict__["eval_at"] is not before["eval_at"]
            raise RuntimeError("body failed")
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_wrapped_calls_keep_arguments_and_results():
    grid = TorusGrid((2 * np.pi, 2 * np.pi), (16, 16))
    field = np.sin(grid.mesh[0]) * np.cos(2 * grid.mesh[1])
    pts = np.array([[0.1, 0.2], [3.0, -1.0]])
    want = grid.to_spectral(field)
    want_at = grid.eval_at(want, pts)
    rec = spans.Recorder()
    with spans.patched(workloads._trace_targets(rec)):
        got = grid.to_spectral(field)
        got_at = grid.eval_at(got, pts)
    assert np.array_equal(got, want) and np.array_equal(got_at, want_at)
    assert [s[0] for s in rec.spans] == ["basis.to_spectral", "basis.eval_at"]
    assert rec.spans[0][4] == (1, 256) and rec.spans[1][4] == (2, 11 * 11)


def test_calibration_weights_each_piece_by_the_interpolated_block_time():
    sampler = calibrate.Sampler("fft32")
    ref = sampler.reference_s
    sampler.samples = [(10.0, ref), (20.0, 2 * ref), (30.0, 2 * ref)]
    # flat before the first sample and after the last
    assert sampler.at_reference(0.0, 5.0) == pytest.approx(5.0)
    assert sampler.at_reference(40.0, 41.0) == pytest.approx(0.5)
    # [10, 20]: one piece, block time 1.5 ref at its middle
    assert sampler.at_reference(10.0, 20.0) == pytest.approx(10.0 / 1.5)
    # split at the sample at 20: 5 s at 1.75 ref, then 5 s at 2 ref
    assert sampler.at_reference(15.0, 25.0) == pytest.approx(5 / 1.75 + 5 / 2)


def test_sampler_clock_leaves_samples_out_and_timer_is_restored():
    import signal

    sampler = calibrate.Sampler("fft32")
    sampler.interval_s = 0.05
    before = signal.getsignal(signal.SIGALRM)
    real0, t0 = time.perf_counter(), sampler.now()
    with sampler.running():
        sampler.sample()
        while time.perf_counter() < real0 + 0.3:
            sum(range(1000))
    real, net = time.perf_counter() - real0, sampler.now() - t0
    assert len(sampler.samples) >= 3  # the explicit one and the timer's
    assert sampler.spent > 0
    assert net == pytest.approx(real - sampler.spent, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


#: few steps per workload keep the smoke run short
SMOKE_STEPS = {"demo32": 2, "contrast32": 1, "grid128": 1, "picard32": 2}


@pytest.mark.parametrize("name", sorted(SMOKE_STEPS))
def test_smoke_traced_counts_repeat_exactly(name, tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    timed = {m["name"] for m in per_layer if m["unit"] in run.TIME_UNITS}
    w = dataclasses.replace(workloads.WORKLOADS[name], steps=SMOKE_STEPS[name])
    # not the default seed, so the physics checks run without the reference
    case = workloads.prepare(w, seed=11)
    sampler = calibrate.Sampler(w.kernel)
    units = []
    for k in range(2):
        workdir = tmp_path / f"unit{k}"
        workdir.mkdir()
        units.append(workloads.run_unit(case, str(workdir), sampler, traced=True))
    for u in units:
        assert u.failure is None
        assert u.layer_share == pytest.approx(1.0, abs=run.LAYER_SHARE_TOL)
    assert set(units[0].layers) | {"trace_overhead"} == {m["name"] for m in per_layer}
    counts = [{k: v for k, v in u.layers.items() if k not in timed} for u in units]
    assert counts[0] == counts[1]
    assert units[0].csv == units[1].csv
