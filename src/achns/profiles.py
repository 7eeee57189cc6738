"""Analytic initial-data profiles.

Density profiles are closed-form samplers: they can be evaluated at any
point of the plane (periodically) and carry exact range bounds. That
keeps the transported density inside the initial bounds by construction
rather than by interpolation luck.

Order-parameter and velocity profiles build collocation-grid fields.
Randomized ones draw spectral coefficients in a grid-independent order
and normalize amplitudes on a fixed reference grid, so the same seed
gives the same function at every resolution.
"""

from dataclasses import dataclass

import numpy as np

from .basis import TorusGrid
from .errors import DomainError

REFERENCE_N = 128


# --- density samplers -------------------------------------------------------

@dataclass(frozen=True)
class ConstantDensity:
    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise DomainError("density must be positive")

    @property
    def bounds(self):
        return (self.value, self.value)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], self.value)


@dataclass(frozen=True)
class SinusoidalDensity:
    """base + amplitude * sin(2 pi k1 x / L1) * cos(2 pi k2 y / L2)."""

    base: float
    amplitude: float
    lengths: tuple
    k1: int = 1
    k2: int = 0

    def __post_init__(self):
        if self.k1 < 1:
            raise DomainError("sinusoidal profile needs k1 >= 1")
        if self.k2 < 0:
            raise DomainError("sinusoidal profile needs k2 >= 0")
        if not self.base - abs(self.amplitude) > 0:
            raise DomainError("density profile takes non-positive values")

    @property
    def bounds(self):
        return (self.base - abs(self.amplitude), self.base + abs(self.amplitude))

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        a = 2 * np.pi * self.k1 / self.lengths[0]
        b = 2 * np.pi * self.k2 / self.lengths[1]
        return self.base + self.amplitude * np.sin(a * pts[..., 0]) * np.cos(b * pts[..., 1])


_BLOB_IMAGES = 4


@dataclass(frozen=True)
class BlobDensity:
    """Periodic Gaussian bump: base + amplitude * sum over images.

    The image sum runs over |j| <= 4 copies per axis, which is exact to
    machine precision whenever width << L. The sum factorizes per axis,
    so the extrema sit at the center and at the antipodal point and
    have closed forms.
    """

    base: float
    amplitude: float
    width: float
    center: tuple
    lengths: tuple

    def __post_init__(self):
        if not self.base > 0:
            raise DomainError("blob base density must be positive")
        if self.amplitude < 0:
            raise DomainError("blob amplitude must be nonnegative")
        if not self.width > 0:
            raise DomainError("blob width must be positive")

    def _axis_sum(self, d, length):
        js = np.arange(-_BLOB_IMAGES, _BLOB_IMAGES + 1)
        d = np.asarray(d, dtype=float)[..., None]
        return np.sum(np.exp(-((d - js * length) ** 2) / (2 * self.width**2)), axis=-1)

    @property
    def bounds(self):
        peak = self._axis_sum(0.0, self.lengths[0]) * self._axis_sum(0.0, self.lengths[1])
        trough = self._axis_sum(self.lengths[0] / 2, self.lengths[0]) * self._axis_sum(
            self.lengths[1] / 2, self.lengths[1]
        )
        return (self.base + self.amplitude * float(trough), self.base + self.amplitude * float(peak))

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.base + self.amplitude * self._axis_sum(
            pts[..., 0] - self.center[0], self.lengths[0]
        ) * self._axis_sum(pts[..., 1] - self.center[1], self.lengths[1])


# --- spectral helpers for grid-valued profiles ------------------------------

def _place_modes(grid: TorusGrid, mode_coefs) -> np.ndarray:
    """Build the coefficient array of the real field with c_k = c and
    c_-k = conj(c) for each (k1, k2): c of {(k1, k2): c}."""
    c = np.zeros(grid.band_shape, dtype=complex)
    rows = grid.band_shape[0]
    for (k1, k2), val in mode_coefs.items():
        if abs(k1) > grid.cutoff[0] or abs(k2) > grid.cutoff[1]:
            raise DomainError(f"mode ({k1},{k2}) outside the dealiased band for this grid")
        if (k1, k2) == (0, 0):
            c[0, 0] += val.real
            continue
        if k2 < 0:
            k1, k2, val = -k1, -k2, np.conj(val)
        c[k1 % rows, k2] += val
        if k2 == 0:
            c[-k1 % rows, 0] += np.conj(val)
    return c


def _canonical_band(kmax: int):
    """Half of the symmetric band 0 < max(|k1|,|k2|) <= kmax, one
    representative per conjugate pair, in a fixed deterministic order."""
    out = []
    for k1 in range(0, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if k1 == 0 and k2 <= 0:
                continue
            out.append((k1, k2))
    return out


# --- order parameter ---------------------------------------------------------

def phi_constant(grid: TorusGrid, value: float) -> np.ndarray:
    return np.full(grid.n_grid, float(value))


def phi_modes(grid: TorusGrid, modes) -> np.ndarray:
    """modes: iterable of (k1, k2, re, im); each contributes
    2 [re cos(k.x) - im sin(k.x)]."""
    coefs = {}
    for k1, k2, re, im in modes:
        key = (int(k1), int(k2))
        coefs[key] = coefs.get(key, 0.0) + (re + 1j * im)
    return grid.to_grid(_place_modes(grid, coefs))


def phi_band_random(grid: TorusGrid, seed: int, kmax: int, amplitude: float,
                    mean: float = 0.0) -> np.ndarray:
    """Random low-band field, identical across resolutions for a fixed
    seed: coefficients are drawn in canonical band order and the
    fluctuation amplitude is normalized on a fixed reference grid."""
    if kmax < 1:
        raise DomainError("band_random needs kmax >= 1")
    if kmax > min(grid.cutoff):
        raise DomainError(f"kmax={kmax} exceeds the dealiased band of this grid")
    rng = np.random.default_rng(seed)
    coefs = {}
    for k in _canonical_band(kmax):
        coefs[k] = complex(rng.standard_normal(), rng.standard_normal())
    ref = TorusGrid(grid.lengths, (REFERENCE_N, REFERENCE_N))
    raw = ref.to_grid(_place_modes(ref, coefs))
    peak = float(np.abs(raw).max())
    if peak <= 0:
        raise DomainError("degenerate random draw")
    scale = amplitude / peak
    coefs = {k: v * scale for k, v in coefs.items()}
    return grid.to_grid(_place_modes(grid, coefs)) + mean


# --- velocity ----------------------------------------------------------------

def u_zero(grid: TorusGrid) -> np.ndarray:
    return np.zeros((2,) + grid.n_grid)


def u_taylor_green(grid: TorusGrid, amplitude: float) -> np.ndarray:
    """Divergence-free cellular flow scaled to peak speed `amplitude`."""
    a = 2 * np.pi / grid.lengths[0]
    b = 2 * np.pi / grid.lengths[1]
    x, y = grid.mesh
    u1 = np.cos(a * x) * np.sin(b * y)
    u2 = -(a / b) * np.sin(a * x) * np.cos(b * y)
    speed = np.sqrt(u1**2 + u2**2).max()
    return amplitude / speed * np.stack([u1, u2])


def u_random_solenoidal(grid: TorusGrid, seed: int, kmax: int, amplitude: float) -> np.ndarray:
    """Random band velocity, divergence-free by projection, peak speed
    normalized on the reference grid (seed-stable across resolutions)."""
    if kmax < 1:
        raise DomainError("random_solenoidal needs kmax >= 1")
    if kmax > min(grid.cutoff):
        raise DomainError(f"kmax={kmax} exceeds the dealiased band of this grid")
    rng = np.random.default_rng(seed)
    cdicts = [{}, {}]
    for k in _canonical_band(kmax):
        for c in cdicts:
            c[k] = complex(rng.standard_normal(), rng.standard_normal())
    ref = TorusGrid(grid.lengths, (REFERENCE_N, REFERENCE_N))
    vref = ref.leray_project(np.stack([_place_modes(ref, c) for c in cdicts]))
    speed = np.sqrt(sum(ref.to_grid(vc) ** 2 for vc in vref)).max()
    if speed <= 0:
        raise DomainError("degenerate random draw")
    scale = amplitude / float(speed)
    vrun = grid.leray_project(
        np.stack([_place_modes(grid, {k: v * scale for k, v in c.items()}) for c in cdicts])
    )
    return np.stack([grid.to_grid(vc) for vc in vrun])
