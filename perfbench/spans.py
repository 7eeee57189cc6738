"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, start_ns, end_ns, parent_id, info]``; its id is its
index in ``Recorder.spans``. Wrappers installed by ``patched`` open a
span around each call of a wrapped function, so spans nest exactly as
the calls do. ``info`` holds the counts measured at that boundary
(fields transformed, points evaluated, CG iterations and residual).

Everything here lives in the benchmark: the package is patched from
outside, where its callers look each name up, and restored afterwards.
"""

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

#: spans whose calls are one time step (``lambda_map``: one horizon)
STEP_SPANS = ("dynamics.step", "fixedpoint.lambda_map")

#: spans the benchmark adds for its own checks; never part of a layer
BENCH_PREFIX = "bench."


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.paused = False

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def bench_span(self, name):
        """A span of the benchmark's own work, with tracing paused inside."""
        sid = self.open(BENCH_PREFIX + name)
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            self.close(sid)

    def wrap(self, name, fn, info=None):
        """Return ``fn`` wrapped in a span; ``info(args, kwargs, result)``
        may attach counts to the span after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if info is not None:
                self.spans[sid][4] = info(args, kwargs, result)
            return result

        return traced

    def wrap_cg(self, cg):
        """Wrap ``dynamics._cg``: count the operator applications of each
        solve and recompute its final relative residual afterwards.

        The first application forms the initial residual, so the
        iteration count is one less than the applications. The residual
        recomputation runs in a benchmark span with tracing paused, so it
        is neither counted as an iteration nor charged to any layer.
        """

        @functools.wraps(cg)
        def traced_cg(apply_a, b, x0, rtol, label):
            if self.paused:
                return cg(apply_a, b, x0, rtol, label)
            calls = 0

            def counted(w):
                nonlocal calls
                calls += 1
                return apply_a(w)

            sid = self.open("dynamics._cg")
            try:
                x = cg(counted, b, x0, rtol, label)
            finally:
                self.close(sid)
            with self.bench_span("cg_residual"):
                residual = relative_residual(apply_a, b, x)
            self.spans[sid][4] = (label, max(calls - 1, 0), residual)
            return x

        return traced_cg


def relative_residual(apply_a, b, x):
    bnorm = float(np.sqrt(np.sum(np.abs(b) ** 2)))
    if bnorm == 0.0:
        return 0.0
    r = b - apply_a(x)
    return float(np.sqrt(np.sum(np.abs(r) ** 2))) / bnorm


@contextlib.contextmanager
def patched(replacements):
    """Install ``(owner, attr, wrapper_factory)`` replacements and restore
    the original attributes on exit, also when the body raises.

    The factory receives the original attribute and returns its
    replacement. For a class the attribute is read from its ``__dict__``,
    so a plain function is restored, not a bound method.
    """
    saved = []
    try:
        for owner, attr, factory in replacements:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, factory(orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# --- arithmetic on recorded spans ---------------------------------------------

def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval covered by the union of its direct children."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for cs, ce in sorted((spans[c][1], spans[c][2]) for c in children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def step_roots(spans):
    """For every span, the id of the enclosing step span (itself when it
    is one), or -1 outside any step. Parents precede their children."""
    roots = []
    for name, _, _, parent, _ in spans:
        if name in STEP_SPANS:
            roots.append(len(roots))
        else:
            roots.append(roots[parent] if parent >= 0 else -1)
    return roots


# --- per-layer metrics of one traced unit --------------------------------------

_TRANSFORMS = ("basis.to_spectral", "basis.to_grid")
_ASSEMBLY = ("dynamics.rhs", "dynamics.linearized_rhs", "dynamics.solve_mu")
_TRANSPORT = {
    "trace": "transport.trace_points",
    "compose": "transport.compose_displacement",
    "sample": "transport.density_from_displacement",
}
CG_LABELS = ("potential", "velocity", "concentration")


def summarize(spans, n_steps):
    """Per-layer metrics of one traced unit that took ``n_steps`` steps.

    Per-step figures count only spans inside step spans, so set-up and
    sinks do not dilute them. Times are in ms, work in counts; flops are
    computed from the counts (5 N log2 N per transform of an N-point
    field, 8 P n_b1 n_b2 per ``eval_at`` of P points on an n_b1 x n_b2
    band). Returns ``(metrics, layer_share)``: ``layer_share`` is the sum
    of the layer self times over the traced step time net of the
    benchmark's own spans, which must be 1 up to rounding.
    """
    selfs = self_times(spans)
    roots = step_roots(spans)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    calls = defaultdict(int)
    out_incl_ns = defaultdict(int)
    out_calls = defaultdict(int)
    transform_flop = eval_flop = eval_points = 0
    cg = {label: [] for label in CG_LABELS}
    cg_res = {label: 0.0 for label in CG_LABELS}
    step_ns = bench_ns = 0
    snapshot_bytes = []
    for sid, (name, start, end, _, info) in enumerate(spans):
        dur = end - start
        if roots[sid] < 0:
            out_incl_ns[name] += dur
            out_calls[name] += 1
            if name == "snapshot.write_snapshot":
                snapshot_bytes.append(info)
            continue
        self_ns[name] += selfs[sid]
        incl_ns[name] += dur
        calls[name] += 1
        if name in STEP_SPANS:
            step_ns += dur
        elif name.startswith(BENCH_PREFIX):
            bench_ns += dur
        elif name in _TRANSFORMS:
            fields, n = info
            transform_flop += fields * 5 * n * np.log2(n)
        elif name == "basis.eval_at":
            points, band = info
            eval_points += points
            eval_flop += 8 * points * band
        elif name == "dynamics._cg":
            label, iters, residual = info
            cg[label].append(iters)
            cg_res[label] = max(cg_res[label], residual)

    def per_step_ms(ns):
        return ns / 1e6 / n_steps

    m = {
        "basis.transform_calls_per_step": sum(calls[n] for n in _TRANSFORMS) / n_steps,
        "basis.transform_ms_per_step": per_step_ms(sum(self_ns[n] for n in _TRANSFORMS)),
        "basis.transform_gflop_per_step": transform_flop / 1e9 / n_steps,
        "basis.eval_at_calls_per_step": calls["basis.eval_at"] / n_steps,
        "basis.eval_at_points_per_step": eval_points / n_steps,
        "basis.eval_at_ms_per_step": per_step_ms(self_ns["basis.eval_at"]),
        "basis.eval_at_gflop_per_step": eval_flop / 1e9 / n_steps,
        "dynamics.solves_per_step": calls["dynamics._cg"] / n_steps,
        "dynamics.solve_ms_per_step.self": per_step_ms(self_ns["dynamics._cg"]),
        "dynamics.solve_ms_per_step.incl": per_step_ms(incl_ns["dynamics._cg"]),
        "dynamics.assembly_ms_per_step": per_step_ms(sum(self_ns[n] for n in _ASSEMBLY)),
    }
    for label in CG_LABELS:
        iters = cg[label]
        m[f"dynamics.cg_iters.{label}.mean"] = sum(iters) / len(iters) if iters else 0.0
        m[f"dynamics.cg_iters.{label}.max"] = max(iters, default=0)
        m[f"dynamics.cg_residual_max.{label}"] = cg_res[label]
    for short, name in _TRANSPORT.items():
        m[f"transport.{short}_ms_per_step.self"] = per_step_ms(self_ns[name])
        m[f"transport.{short}_ms_per_step.incl"] = per_step_ms(incl_ns[name])

    def per_call_ms(name):
        return out_incl_ns[name] / 1e6 / out_calls[name] if out_calls[name] else 0.0

    m["diagnostics.ledger_ms_per_call"] = per_call_ms("diagnostics.ledger")
    m["snapshot.write_ms_per_call"] = per_call_ms("snapshot.write_snapshot")
    m["snapshot.bytes_per_file"] = (
        sum(snapshot_bytes) / len(snapshot_bytes) if snapshot_bytes else 0.0
    )
    m["config.load_ms"] = out_incl_ns["config.load_config"] / 1e6
    m["anisotropy.check_ms"] = out_incl_ns["anisotropy.check_hypotheses"] / 1e6
    m["fixedpoint.lambda_map_ms"] = (
        incl_ns["fixedpoint.lambda_map"] / 1e6 / calls["fixedpoint.lambda_map"]
        if calls["fixedpoint.lambda_map"] else 0.0
    )
    m["fixedpoint.linearized_rhs_calls"] = calls["dynamics.linearized_rhs"]

    layers = (
        [self_ns[n] for n in _TRANSFORMS + _ASSEMBLY + tuple(_TRANSPORT.values())]
        + [self_ns["basis.eval_at"], self_ns["dynamics._cg"]]
        + [self_ns[n] for n in STEP_SPANS]
    )
    layer_share = sum(layers) / (step_ns - bench_ns) if step_ns > bench_ns else 0.0
    return m, layer_share
