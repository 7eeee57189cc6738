"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes
by tens of percent in swings that last seconds to minutes; a clock-only
timing of the same code then spreads more than any bound worth setting.
So a fixed kernel, independent of the package, is timed on a timer all
through a run, and every timed interval is reported as the time it
would take on the reference machine: its length weighted, moment by
moment, by ``REFERENCE_S`` over the kernel's block time interpolated
between the samples. Code that gets faster or slower moves the interval
and leaves the kernel alone, so only the program's own change remains.

Each workload's kernel mirrors what its step spends its time on:

- ``fft32``: 2-D FFT round trips on a 32^2 grid with the scaling and
  masking of ``TorusGrid.to_spectral``/``to_grid``, and a small dense
  band product; it follows the 32^2 workloads, whose small operations
  slow down with the machine almost one for one.
- ``band128``: the off-grid evaluation of ``TorusGrid.eval_at`` on an
  85 x 85 band (phase matrices by repeated products, a band product and
  a row-wise reduction) for 4096 points; memory-bound like the 128^2
  step, it follows that step's smaller swings.

The samples' own time is left out of every interval: ``Sampler.now`` is
a clock that stops while a sample runs.
"""

import contextlib
import signal
import statistics
import time

import numpy as np

#: one kernel block on the reference machine, in seconds (the median on
#: a 2-vCPU x86-64 cloud host at its usual speed); it only sets the
#: scale of the reported times
REFERENCE_S = {"fft32": 1.8e-3, "band128": 1.7e-2}
#: blocks per sample and seconds between timer samples: the samples take
#: about 4% of a run, and each is a median of blocks so that one
#: interrupted block does not count
SAMPLING = {"fft32": (3, 0.15), "band128": (2, 1.0)}

_SEED = 20241207
_GRID = (32, 32)
_FFT_PAIRS = 12
_BAND_HALF = 42  # |k| <= 42: the 85 x 85 band of a 128^2 grid
_POINTS = {"fft32": 256, "band128": 4096}


class Kernel:
    """The calibration kernel of one kind, with its inputs made once."""

    def __init__(self, kind):
        rng = np.random.default_rng(_SEED)
        self.kind = kind
        n_band = 2 * _BAND_HALF + 1
        points = _POINTS[kind]
        self.field = rng.standard_normal(_GRID)
        self.mask = (rng.random(_GRID) < 0.4).astype(float)
        if kind == "band128":
            # buffers made once, so the kernel adds a fixed amount to the
            # resident set and does not move the run's peak
            self.theta = rng.uniform(0.0, 2 * np.pi, (points, 2))
            self.pos = np.empty((points, _BAND_HALF + 1), dtype=complex)
            self.e = np.empty((2, points, n_band), dtype=complex)
            self.tmp = np.empty((points, n_band), dtype=complex)
            self.prod = np.empty((points, n_band), dtype=complex)
            self.out = np.empty(points, dtype=complex)
        else:
            self.phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (points, n_band)))
        self.band = rng.standard_normal((n_band, n_band)) + 1j * rng.standard_normal((n_band, n_band))
        self.kints = np.concatenate([np.arange(_BAND_HALF + 1), np.arange(-_BAND_HALF, 0)])
        self.block()  # warm the FFT plan cache and the allocator

    def _phase_matrix(self, theta, out):
        pos = self.pos
        pos[:, 0] = 1.0
        base = np.exp(1j * theta)
        for m in range(1, _BAND_HALF + 1):
            np.multiply(pos[:, m - 1], base, out=pos[:, m])
        for j, kv in enumerate(self.kints):
            if kv >= 0:
                out[:, j] = pos[:, kv]
            else:
                np.conj(pos[:, -kv], out=out[:, j])
        return out

    def block(self):
        """One block of work; returns a number so nothing is optimised away."""
        if self.kind == "band128":
            e1 = self._phase_matrix(self.theta[:, 0], self.e[0])
            e2 = self._phase_matrix(self.theta[:, 1], self.e[1])
            np.matmul(e1, self.band, out=self.tmp)
            np.multiply(self.tmp, e2, out=self.prod)
            return self.prod.sum(axis=1, out=self.out).real[0]
        norm = _GRID[0] * _GRID[1]
        acc = 0.0
        for _ in range(_FFT_PAIRS):
            coef = np.fft.fft2(self.field) / norm * self.mask
            acc += np.fft.ifft2(coef * norm).real[0, 0]
        acc += np.einsum("pj,pj->p", self.phase @ self.band, self.phase).real[0]
        return acc

    def sample(self, blocks):
        """Median time of ``blocks`` blocks."""
        times = []
        for _ in range(blocks):
            t0 = time.perf_counter()
            self.block()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Sampler:
    """Kernel samples through a run, and a clock that leaves them out.

    ``sample`` may be called at any moment; ``running`` also takes one
    every ``interval_s`` seconds from a ``SIGALRM`` timer, whose handler
    runs between two bytecodes of the main thread. Samples are kept as
    ``(now(), block seconds)``.
    """

    def __init__(self, kind):
        self.kernel = Kernel(kind)
        self.reference_s = REFERENCE_S[kind]
        self.blocks, self.interval_s = SAMPLING[kind]
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def now(self):
        """``time.perf_counter`` less the time spent in samples."""
        while True:  # read again if a timer sample ran in between
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def sample(self):
        if self._busy:  # a timer signal that arrived inside a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            value = self.kernel.sample(self.blocks)
            self.samples.append((t0 - self.spent, value))
            self.spent += time.perf_counter() - t0
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample on the timer inside the block; the timer and the old
        handler are restored on every way out."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        try:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def at_reference(self, start, end):
        """Seconds the interval ``[start, end]`` of ``now()`` would take on
        the reference machine: each piece between two samples is weighted
        by ``REFERENCE_S`` over the block time at its middle, interpolated
        linearly between the samples (held flat beyond the first and the
        last)."""
        ts = np.array([t for t, _ in self.samples])
        cs = np.array([c for _, c in self.samples])
        inner = ts[(ts > start) & (ts < end)]
        edges = np.concatenate([[start], inner, [end]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.sum(np.diff(edges) * self.reference_s / np.interp(mids, ts, cs)))
