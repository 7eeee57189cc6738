"""Periodic spectral discretization on a rectangular 2-torus.

Fields live in two equivalent representations:

* grid values, real arrays of shape ``(N1, N2)`` sampled at collocation
  points ``x_i = i * L/N``;
* the coefficients of ``f(x) = sum_k c_k exp(i k.x)`` over the retained
  band ``|k_i| <= K_i``, ``K_i = (N_i - 1) // 3``, where the product of
  two retained fields is representable on the grid without aliasing.

Every field is real, ``c_-k == conj(c_k)``, so the band's half plane
k2 >= 0 determines it and is what is stored: complex arrays of shape
``band_shape == (2K1+1, K2+1)``, rows k1 = 0..K1 then -K1..-1, columns
k2 = 0..K2. Column 0 holds both k1 and -k1, exactly conjugate bit for
bit: ``to_spectral`` mirrors it, and ``grad``, ``div``,
``leray_project``, real linear combinations and truncations to
``valid_mode_counts`` keep it so. A column k2 > 0 also stands for its
conjugate mirror, so inner products count it twice (`vdot`).

Vector fields are stacked along a leading axis of length 2. A Galerkin
space cuts the band, or its Leray projection, to the first n modes of
``mode_list`` (`TorusGrid.project`); `TorusGrid.project_grid` takes grid
values through one on pocketfft's half plane, without the band.

A `Jet` keeps a field's Taylor derivative fields for repeated off-grid
evaluation; ``eval_at`` takes each order from the coefficients and plans
every call as if the jet were empty, so a jet changes no plan and no bit.

Transforms call scipy's pocketfft binding directly, with the arguments
``scipy.fft``'s wrappers pass for ``norm="forward"``, for the same bits
without the wrappers' dispatch and checks: 8.5 of a 13.9 us ``rfft2``
at 32^2. It loads alone, under its own name in sys.modules, where a later
``import scipy.fft`` finds it, without the ``__init__``s of scipy, ``scipy.fft``
and ``_pocketfft`` (85 modules, 26 MiB). A scipy without it fails, naming it.
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError


def _load_binding(name="scipy.fft._pocketfft.pypocketfft"):
    """r2c(a, axes, forward, inorm, out, nthreads), c2r(a, axes, lastsize, forward, inorm,
    out, nthreads) and c2c as r2c, from sys.modules or a file in scipy's directory, whose
    find_spec runs no scipy code. Norm codes: 0 leaves a transform unscaled, 1 divides it
    by sqrt(N), 2 by N; norm="forward" is inorm 2 forward, 0 inverse."""
    if name not in sys.modules:
        dirs = getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", None)
        where = [os.path.join(d, "fft", "_pocketfft") for d in dirs or ()]
        spec = importlib.machinery.PathFinder.find_spec(name, where)
        if spec is None:
            raise ImportError(f"no {name} under scipy's directories {where}", name=name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].r2c, sys.modules[name].c2r, sys.modules[name].c2c


_r2c, _c2r, _c2c = _load_binding()


@dataclass(frozen=True)
class TorusGrid:
    """Geometry, mode bookkeeping and transforms for one periodic box."""

    lengths: tuple
    n_grid: tuple

    def __post_init__(self):
        if len(self.lengths) != 2 or len(self.n_grid) != 2:
            raise DimensionError("TorusGrid is two-dimensional")
        for ell in self.lengths:
            if not (np.isfinite(ell) and ell > 0):
                raise DimensionError(f"box side must be positive, got {ell}")
        for n in self.n_grid:
            if n < 8 or (n & (n - 1)) != 0:
                raise DimensionError(f"grid extent must be a power of two >= 8, got {n}")
        object.__setattr__(self, "lengths", (float(self.lengths[0]), float(self.lengths[1])))
        object.__setattr__(self, "n_grid", (int(self.n_grid[0]), int(self.n_grid[1])))

    # --- geometry -----------------------------------------------------

    @property
    def area(self):
        return self.lengths[0] * self.lengths[1]

    @property
    def cell(self):
        """Quadrature weight of one collocation point."""
        return self.area / (self.n_grid[0] * self.n_grid[1])

    @cached_property
    def mesh(self):
        """Pair of (N1, N2) coordinate arrays, x_i = i L_i / N_i."""
        return np.meshgrid(*(np.arange(n) * (ell / n) for ell, n in zip(self.lengths, self.n_grid)),
                           indexing="ij")

    # --- wavenumbers ----------------------------------------------------

    @cached_property
    def cutoff(self):
        return (self.n_grid[0] - 1) // 3, (self.n_grid[1] - 1) // 3

    @cached_property
    def band_shape(self):
        """Shape (2 K1 + 1, K2 + 1) of one field's coefficient array."""
        kc1, kc2 = self.cutoff
        return 2 * kc1 + 1, kc2 + 1

    @cached_property
    def k1_int(self):
        """Integer wavenumbers of the band's rows, 0..K1, -K1..-1."""
        kc1 = self.cutoff[0]
        return np.concatenate([np.arange(kc1 + 1), np.arange(-kc1, 0)])

    @cached_property
    def _spectrum_rows(self):
        """Rows of the full spectrum, k1 mod N1, that hold the band's rows."""
        return self.k1_int % self.n_grid[0]

    @cached_property
    def k1(self):
        """Physical wavenumbers of the band's rows, shaped (2K1+1, 1)."""
        return (2.0 * np.pi / self.lengths[0]) * self.k1_int[:, None]

    @cached_property
    def k2(self):
        """Physical wavenumbers of the band's columns k2 = 0..K2, (1, K2+1)."""
        return (2.0 * np.pi / self.lengths[1]) * np.arange(self.cutoff[1] + 1)[None, :]

    @cached_property
    def k_sq(self):
        return self.k1**2 + self.k2**2

    @property
    def n_band_modes(self):
        """Modes of the whole band, k and -k counted apart."""
        return len(self.mode_list)

    @cached_property
    def mode_list(self):
        """Integer wavenumber pairs (n_band_modes, 2) of the whole band,
        ascending (|k|^2, k1, k2): the canonical enumeration of spectral
        truncation and of the snapshot format."""
        kc1, kc2 = self.cutoff
        k = np.stack(np.meshgrid(np.arange(-kc1, kc1 + 1), np.arange(-kc2, kc2 + 1),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
        ksq = np.sum((k * (2.0 * np.pi / np.array(self.lengths))) ** 2, axis=1)
        return k[np.lexsort((k[:, 1], k[:, 0], ksq))]

    @cached_property
    def mode_order(self):
        """Flat index into a coefficient array of each mode of mode_list:
        of k for k2 >= 0; of -k, whose conjugate c_k is, for k2 < 0."""
        k1, k2 = self.mode_list.T
        sign = np.where(k2 < 0, -1, 1)
        rows, cols = self.band_shape
        return (sign * k1) % rows * cols + sign * k2

    # --- transforms -----------------------------------------------------

    def _check_shape(self, arr, shape, what):
        if arr.shape[-2:] != shape:
            raise DimensionError(f"{what} shape {arr.shape} does not match {shape}")

    def to_spectral(self, values):
        """Grid values (..., N1, N2) -> band coefficients (..., 2K1+1, K2+1).

        One real-to-complex transform per stack, then the band gather;
        the rows k1 < 0 of column 0 become the conjugate mirrors of the
        rows k1 > 0, so that column is exactly conjugate-symmetric.
        """
        values = np.asarray(values)
        self._check_shape(values, self.n_grid, "field")
        if values.dtype.kind not in "fc":  # integers, as scipy.fft would take them
            values = values.astype(float)
        kc1, kc2 = self.cutoff
        out = _r2c(values, (-2, -1), True, 2, None, 1)[..., self._spectrum_rows, :kc2 + 1]
        out[..., kc1 + 1:, 0] = np.conj(out[..., kc1:0:-1, 0])
        return out

    @cached_property
    def _pads(self):
        return {}

    def _buffer(self, shape):
        """The `_pad` buffer of one spectrum shape, zero outside the band."""
        out = self._pads.get(shape)
        if out is None:
            out = self._pads[shape] = np.zeros(shape, dtype=complex)
        return out

    def _pad(self, coef, n_cols):
        """Band coefficients (..., 2K1+1, K2+1) as the columns 0..n_cols-1
        of the full spectrum (..., N1, n_cols), zero outside the band. Every
        call of a shape returns the same buffer, as a fresh one doubled the
        time of a 128^2 stack's inverse transform: read it, keep none (fresh
        ones also cost grid128 step_ms 173.6 -> 190.5 ms on a 2-vCPU host).
        `project_grid` shares it and restores its zeros outside the band."""
        n1, kc1 = self.n_grid[0], self.cutoff[0]
        out = self._buffer(coef.shape[:-2] + (n1, n_cols))
        out[..., :kc1 + 1, :coef.shape[-1]] = coef[..., :kc1 + 1, :]
        out[..., n1 - kc1:, :coef.shape[-1]] = coef[..., kc1 + 1:, :]
        return out

    def to_grid(self, coef):
        """Band coefficients (..., 2K1+1, K2+1) -> grid values, by one inverse
        real transform of the zero-padded half plane k2 = 0..N2/2."""
        coef = np.asarray(coef)
        self._check_shape(coef, self.band_shape, "coefficient")
        return _c2r(self._pad(coef, self.n_grid[1] // 2 + 1), (-2, -1), self.n_grid[1], False, 0,
                    None, 1)

    # --- calculus ---------------------------------------------------------

    def grad(self, coef):
        """Spectral gradient: coefficients of (d1 f, d2 f) for a scalar,
        and of du[i, j] = d_j u_i for a vector stack u."""
        return np.stack([1j * self.k1 * coef, 1j * self.k2 * coef], axis=-3)

    def div(self, vcoef):
        """Spectral divergence of a 2-vector coefficient stack."""
        return 1j * self.k1 * vcoef[0] + 1j * self.k2 * vcoef[1]

    @cached_property
    def _leray_factors(self):
        """Complex k1, k2 and the (2, 2K1+1, K2+1) stack k / |k|^2, 0 at the zero
        mode: numpy casts real ones to complex itself, same bits 15% slower."""
        ksq = self.k_sq.copy()
        ksq[0, 0] = 1.0  # zero mode handled by k being zero
        factors = np.stack(np.broadcast_arrays(self.k1 / ksq, self.k2 / ksq))
        return tuple(a.astype(complex) for a in (self.k1, self.k2, factors))

    def leray_project(self, vcoef):
        """Remove the compressive part: u_k <- (I - k k^T/|k|^2) u_k.

        The zero mode is preserved; idempotent.
        """
        k1, k2, factors = self._leray_factors
        return vcoef - factors * (k1 * vcoef[0] + k2 * vcoef[1])

    @cached_property
    def valid_mode_counts(self):
        """Counts n whose prefix mode_list[:n] is closed under k -> -k, the
        truncations of real fields: 0 and the ends of whole |k|^2 shells,
        since -k has the |k|^2 of k and negation reverses a shell's order."""
        ksq = np.sum((self.mode_list * (2.0 * np.pi / np.array(self.lengths))) ** 2, axis=1)
        ends = np.flatnonzero(np.diff(ksq)) + 1
        return frozenset([0, *ends.tolist(), self.n_band_modes])

    @cached_property
    def _band_rank(self):
        """Rank in mode_list of the mode each coefficient entry holds."""
        held = self.mode_list[:, 1] >= 0
        return np.flatnonzero(held)[np.argsort(self.mode_order[held])].reshape(self.band_shape)

    def check_mode_count(self, n_modes):
        """DomainError unless n_modes is None (the whole band) or in
        valid_mode_counts, naming the nearest valid counts below and above
        (the nearest end of the range for a count outside it)."""
        if n_modes is None or n_modes in self.valid_mode_counts:
            return
        if not 0 <= n_modes <= self.n_band_modes:
            nearest = 0 if n_modes < 0 else self.n_band_modes
            raise DomainError(f"n_modes must lie in [0, {self.n_band_modes}], got {n_modes}; "
                              f"the nearest valid count is {nearest}")
        below = max(n for n in self.valid_mode_counts if n < n_modes)
        above = min(n for n in self.valid_mode_counts if n > n_modes)
        raise DomainError(f"n_modes={n_modes} keeps some k without -k; the nearest "
                          f"valid counts are {below} and {above}")

    def project(self, coef, leray=False, n_modes=None):
        """Band coefficients onto a Galerkin space: the Leray projection of a
        2-vector stack when leray, then `project_scalar` to n_modes."""
        return self.project_scalar(self.leray_project(coef) if leray else coef, n_modes)

    def project_grid(self, values, leray=False, n_modes=None):
        """to_grid(project(to_spectral(values), leray, n_modes)) bit for bit,
        without the band gather and pad: r2c writes into the `_pad` buffer of
        its shape, zeroed outside the band and mirrored in column 0 in place.
        A space that projects within the band copies the two row blocks, k1
        >= 0 and k1 < 0, out and back: in place on the strided blocks, the
        Leray factors took twice as long at 32^2."""
        (n1, n2), (kc1, kc2) = self.n_grid, self.cutoff
        buf = self._buffer(values.shape[:-2] + (n1, n2 // 2 + 1))
        _r2c(values, (-2, -1), True, 2, buf, 1)
        buf[..., kc2 + 1:] = 0
        buf[..., kc1 + 1:n1 - kc1, :] = 0
        np.conjugate(buf[..., kc1:0:-1, 0], out=buf[..., n1 - kc1:, 0])
        if leray or n_modes is not None:
            top, bottom = buf[..., :kc1 + 1, :kc2 + 1], buf[..., n1 - kc1:, :kc2 + 1]
            band = self.project(np.concatenate([top, bottom], axis=-2), leray, n_modes)
            top[...], bottom[...] = band[..., :kc1 + 1, :], band[..., kc1 + 1:, :]
        return _c2r(buf, (-2, -1), n2, False, 0, None, 1)

    def project_scalar(self, coef, n_modes):
        """Keep the first n_modes of mode_list in a field or in each field
        of a stack. n_modes must be in valid_mode_counts, so each kept k
        keeps its -k; None keeps the whole band and returns coef itself."""
        if n_modes is None:
            return coef
        self.check_mode_count(n_modes)
        return np.where(self._band_rank < n_modes, coef, 0)

    # --- quadrature --------------------------------------------------------

    def quadrature(self, values):
        """Integral over the box of a grid field (collocation quadrature)."""
        return self.cell * float(np.sum(values))

    def norm_l2_spectral(self, coef):
        """L2 norm from coefficients by the Parseval identity."""
        return float(np.sqrt(self.area * vdot(coef, coef)))

    # --- nonuniform evaluation ------------------------------------------

    def _eval_dense(self, stack, points):
        """Direct trigonometric sum of fields (m, 2K1+1, K2+1) over the
        band, O(P K1 K2), the columns k2 > 0 twice for their mirrors. The
        phase matrices exp(i k theta), rows in the band's order, serve
        every field; the powers k1 < 0 are conjugates of those k1 > 0."""
        kc1, kc2 = self.cutoff
        e1 = _powers(np.exp(1j * (2.0 * np.pi / self.lengths[0]) * points[:, 0]), kc1)
        e1 = np.concatenate([e1, np.conj(e1[:0:-1])])
        e2 = _powers(np.exp(1j * (2.0 * np.pi / self.lengths[1]) * points[:, 1]), kc2)
        weight = np.where(np.arange(kc2 + 1) > 0, 2.0, 1.0)
        return np.einsum("...jp,jp->...p", (stack * weight) @ e2, e1).real

    def _taylor_order(self, delta, coef):
        """Least order M with sum_k |c_k| a_k^(M+1)/(M+1)! <= 2^-53 ||c||_1,
        over the full plane, for every field of coef (..., 2K1+1, K2+1) at
        offsets delta (P, 2) from the nodes, where a_k = sum_i |k_i|
        max|delta_i| bounds |k.delta|; never above the order of the band's
        corner alone. None when a_k reaches 2 pi/3 on the band, as offsets
        of half a cell do not: points so far out that rounding breaks the
        split, or not finite."""
        # column by column: a max over axis 0 of (P, 2) is 20x slower, 0.5 ms at 128^2
        reach = [np.abs(delta[:, i]).max(initial=0.0) for i in (0, 1)]
        a = np.abs(self.k1) * reach[0] + self.k2 * reach[1]
        if not a.max() < 2.0 * np.pi / 3.0:
            return None
        weight = np.abs(coef.reshape((-1,) + self.band_shape)) * np.where(self.k2 > 0, 2.0, 1.0)
        order, term, bound = 0, a, 2.0**-53 * weight.sum(axis=(-2, -1))
        while np.any((weight * term).sum(axis=(-2, -1)) > bound):
            order += 1
            term = term * (a / (order + 1))
        return order

    def _plan(self, points, coef):
        """Nearest nodes (P, 2; unreduced, as floats), offsets (P, 2) and
        the Taylor order for points and the fields coef, or None for the
        order when the dense sum takes fewer operations.

        The Taylor path costs (M+1)(M+2)/2 inverse FFTs of N1 N2 log2(N1 N2)
        operations and as many terms per point; the dense sum is priced at
        the whole band's (2K1+1)(2K2+1) terms per point. Each call is priced
        on purpose as if no `Jet` held fields, so a jet moves no plan and no
        bit. Timed on 2 vCPUs at 8^2 to 64^2, reaches of 1e-6 to 0.5 cells and
        two spectra, it chose the faster method or one within 15%, but at 16^2
        orders 2-3, 32^2 order 7 and 64^2 orders 9-15 (dense 1.3-3.6x faster).
        """
        h = np.array(self.lengths) / np.array(self.n_grid)
        nodes = np.rint(points / h)
        delta = points - nodes * h
        order = self._taylor_order(delta, coef)
        if order is not None:
            n = self.n_grid[0] * self.n_grid[1]
            kc1, kc2 = self.cutoff
            taylor_ops = (order + 1) * (order + 2) // 2 * (n * np.log2(n) + len(points))
            if taylor_ops > len(points) * (2 * kc1 + 1) * (2 * kc2 + 1):
                order = None
        return nodes, delta, order

    def _eval_taylor(self, jet, nodes, delta, order):
        """Taylor sum about the nearest nodes, over a + b <= order, of
        delta1^a delta2^b d1^a d2^b f / (a! b!) for a jet of fields
        (m, 2K1+1, K2+1), term by term in degree-major order, reading the
        fields in place when the nodes are the grid in order."""
        if order > jet.order:
            jet.extend(order)
        n1, n2 = self.n_grid
        idx = (nodes[:, 0].astype(np.int64) % n1) * n2 + nodes[:, 1].astype(np.int64) % n2
        in_place = len(idx) == n1 * n2 and np.array_equal(idx, np.arange(n1 * n2))
        p1, p2 = _powers(delta[:, 0], order), _powers(delta[:, 1], order)
        out = np.zeros((jet.fields[0].shape[1], len(idx)))
        term, mono = np.empty_like(out), np.empty(len(idx))
        for d in range(order + 1):
            for a in range(d + 1):
                f = jet.fields[d][a]
                f = f if in_place else np.take(f, idx, axis=-1, out=term, mode="clip")
                np.multiply(f, np.multiply(p1[a], p2[d - a], out=mono), out=term)
                out += term
        return out

    def eval_at(self, coef, points):
        """Evaluate retained-band fields at arbitrary points.

        coef is one real field (2K1+1, K2+1), a stack (m, 2K1+1, K2+1), or
        a `Jet` of either; points has shape (P, 2) and need not be
        wrapped into the box. Returns (P,) or (m, P): sum_k c_k exp(i k.x)
        over the band.

        Each call takes whichever of two methods needs fewer operations
        for its grid, points and fields (``_plan``):

        * Taylor: every point is its nearest collocation node plus an
          offset delta, and the fields are expanded about the node to the
          least order M at which each field's remainder, bounded mode by
          mode by |exp(ix) - sum_{d<=M} (ix)^d/d!| <= |x|^(M+1)/(M+1)! for
          real x = k.delta, is at most 2^-53 ||c||_1 (``_taylor_order``). The
          (M+1)(M+2)/2 derivative fields cost batched inverse FFTs, so
          this wins for points near the grid, such as the feet of
          characteristics over one step. A jet keeps its fields for
          later calls; plain coefficients get a throwaway one.
        * Dense: the direct sum over the band, O(P K1 K2), for points
          anywhere; it is also the oracle the tests hold the Taylor
          path to, at 1e-13 relative agreement.
        """
        jet = coef if isinstance(coef, Jet) else Jet(self, coef)
        if jet.grid != self:
            raise DimensionError("the jet belongs to another grid")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise DimensionError("points must have shape (P, 2)")
        nodes, delta, order = self._plan(points, jet.coef)
        if order is None:
            vals = self._eval_dense(jet.coef.reshape((-1,) + self.band_shape), points)
        else:
            vals = self._eval_taylor(jet, nodes, delta, order)
        return vals.reshape(jet.coef.shape[:-2] + (len(points),))


class Jet:
    """Coefficients of one real field or a stack (m, 2K1+1, K2+1) and their
    Taylor derivative fields d1^a d2^b f / (a! b!) on the grid, built
    degree by degree up to the highest order any evaluation has asked for
    and held, (M+1)(M+2)/2 grids per field, until the jet is dropped."""

    def __init__(self, grid, coef):
        self.grid, self.coef, self.order = grid, np.asarray(coef), -1
        grid._check_shape(self.coef, grid.band_shape, "coefficient")
        self._parts = []   # per power a: (i k1)^a / a! times the band, inverse FFT along axis 0
        self.fields = []  # per degree d: the fields (a, d - a), a = 0..d, as (d+1, m, N1 N2)

    def extend(self, order):
        """Build the fields of the degrees above self.order up to order:
        one FFT along axis 0 per power a, one real inverse FFT along axis
        1 per degree, of products written into a fresh array already
        zero-padded to N2/2+1 columns, so the FFT makes no padded copy."""
        g = self.grid
        (n1, n2), kc2 = g.n_grid, g.cutoff[1]
        band = self.coef.reshape((-1,) + g.band_shape)
        powers = np.arange(order + 1)
        fact = np.cumprod(np.maximum(powers, 1)).astype(float)[:, None, None]
        sym1 = (1j * g.k1) ** powers[:, None, None] / fact  # (M+1, 2K1+1, 1)
        sym2 = (1j * g.k2) ** powers[:, None, None] / fact  # (M+1, 1, K2+1)
        for d in range(self.order + 1, order + 1):
            self._parts.append(_c2c(g._pad(sym1[d] * band, kc2 + 1), (-2,), False, 0, None, 1))
            spec = np.zeros((d + 1,) + self._parts[0].shape[:-1] + (n2 // 2 + 1,), dtype=complex)
            for a, part in enumerate(self._parts):
                np.multiply(part, sym2[d - a], out=spec[a, ..., :kc2 + 1])
            fields = _c2r(spec, (-1,), n2, False, 0, None, 1)
            self.fields.append(fields.reshape(fields.shape[:2] + (n1 * n2,)))
        self.order = max(self.order, order)


def vdot(a, b):
    """Re np.vdot(a, b) of the full-plane coefficients of real fields,
    from their band halves (..., 2K1+1, K2+1): a column k2 > 0 stands for
    itself and its conjugate mirror, so it counts twice."""
    return (2 * np.vdot(a, b) - np.vdot(a[..., 0], b[..., 0])).real


def _powers(base, top):
    """Rows base**0 .. base**top of a vector, by one recurrence over the
    exponent."""
    out = np.empty((top + 1,) + base.shape, dtype=base.dtype)
    out[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(out[k - 1], base, out=out[k])
    return out
