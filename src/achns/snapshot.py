"""Binary state snapshots.

Layout (all little-endian):

    offset  size  field
    0       4     magic  b"ACHN"
    4       4     format version (u32, currently 1)
    8       4     n1 (u32)          grid points, first direction
    12      4     n2 (u32)
    16      8     l1 (f64)          domain lengths
    24      8     l2 (f64)
    32      8     rho_lo (f64)      density invariant-region bounds
    40      8     rho_hi (f64)
    48      4     n_modes_u (u32)   retained velocity modes per component
    52      4     n_modes_phi (u32)
    56      8     time (f64)
    64      ...   rho grid values, row-major f64, n1*n2 entries
            ...   u1 coefficients, n_modes_u complex128 (re, im pairs)
            ...   u2 coefficients, n_modes_u complex128
            ...   phi coefficients, n_modes_phi complex128

Coefficients are stored in the grid's canonical mode order
(``TorusGrid.mode_list``: ascending squared wavenumber, lexicographic
ties), k and -k each with its own, so files written for the same grid
are comparable mode by mode. v1 is unchanged by the package keeping
only the half plane k2 >= 0 in memory: the writer and
``embed_coefficients`` convert at this boundary. ``write_snapshot``
stores the whole band; the reader takes any counts among the grid's
``valid_mode_counts``. A write -> read -> write cycle is byte-identical.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .basis import TorusGrid
from .errors import DomainError
from .transport import DensityField

MAGIC = b"ACHN"
VERSION = 1

_HEADER = struct.Struct("<4sIIIddddIId")


@dataclass(frozen=True)
class SnapshotData:
    """Decoded snapshot; coefficient arrays are in canonical mode order."""

    version: int
    n_grid: tuple
    lengths: tuple
    rho_lo: float
    rho_hi: float
    time: float
    rho_values: np.ndarray      # (n1, n2) float64
    u_coef: np.ndarray          # (2, n_modes_u) complex128
    phi_coef: np.ndarray        # (n_modes_phi,) complex128


def _gather(grid, coef, count):
    """The first count modes of mode_list; c_k of k2 < 0 is conj(c_-k), its
    imaginary part negated as 0 - Im, so an exact zero is written +0."""
    out = coef.ravel()[grid.mode_order[:count]].astype("<c16")
    mirror = grid.mode_list[:count, 1] < 0
    out.imag[mirror] = 0.0 - out.imag[mirror]
    return out


def write_snapshot(target, grid: TorusGrid, state):
    """Write one state, every mode of the retained band, to a path or
    binary file object."""
    n = grid.n_band_modes
    header = _HEADER.pack(
        MAGIC, VERSION, grid.n_grid[0], grid.n_grid[1],
        grid.lengths[0], grid.lengths[1],
        state.rho.lo, state.rho.hi, n, n, state.t,
    )
    blocks = [
        header,
        np.ascontiguousarray(state.rho.values, dtype="<f8").tobytes(),
        _gather(grid, state.u[0], n).tobytes(),
        _gather(grid, state.u[1], n).tobytes(),
        _gather(grid, state.phi, n).tobytes(),
    ]
    payload = b"".join(blocks)
    if hasattr(target, "write"):
        target.write(payload)
    else:
        with open(target, "wb") as fh:
            fh.write(payload)


def read_snapshot(source) -> SnapshotData:
    """Read a snapshot from a path or binary file object."""
    if hasattr(source, "read"):
        buf = source.read()
    else:
        with open(source, "rb") as fh:
            buf = fh.read()
    if len(buf) < _HEADER.size:
        raise DomainError("snapshot truncated: header incomplete")
    (magic, version, n1, n2, l1, l2, rho_lo, rho_hi,
     nu, np_, time) = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise DomainError(f"not a snapshot file: bad magic {magic!r}")
    if version != VERSION:
        raise DomainError(f"unsupported snapshot version {version}")
    need = _HEADER.size + 8 * n1 * n2 + 16 * (2 * nu + np_)
    if len(buf) != need:
        raise DomainError(
            f"snapshot truncated or oversized: expected {need} bytes, got {len(buf)}"
        )
    off = _HEADER.size
    rho = np.frombuffer(buf, "<f8", n1 * n2, off).reshape(n1, n2).copy()
    off += 8 * n1 * n2
    u1 = np.frombuffer(buf, "<c16", nu, off).copy()
    off += 16 * nu
    u2 = np.frombuffer(buf, "<c16", nu, off).copy()
    off += 16 * nu
    phi = np.frombuffer(buf, "<c16", np_, off).copy()
    return SnapshotData(
        version=version, n_grid=(n1, n2), lengths=(l1, l2),
        rho_lo=rho_lo, rho_hi=rho_hi, time=time,
        rho_values=rho, u_coef=np.stack([u1, u2]), phi_coef=phi,
    )


def embed_coefficients(grid: TorusGrid, coef):
    """Scatter canonical-order coefficients into the grid's band; those
    of k2 < 0 are the conjugates of modes it holds."""
    coef = np.asarray(coef, dtype=np.complex128)
    n = coef.shape[-1]
    if n > grid.n_band_modes:
        raise DomainError(
            f"snapshot holds {n} modes but the grid retains only {grid.n_band_modes}"
        )
    grid.check_mode_count(n)
    held = grid.mode_list[:n, 1] >= 0
    out = np.zeros(grid.band_shape, dtype=np.complex128)
    out.ravel()[grid.mode_order[:n][held]] = coef[held]
    return out


def restore_fields(snap: SnapshotData, grid: TorusGrid):
    """Rebuild (u spectral, phi spectral, DensityField) on a matching grid."""
    if snap.n_grid != grid.n_grid:
        raise DomainError(
            f"snapshot grid {snap.n_grid} does not match {grid.n_grid}"
        )
    if not np.allclose(snap.lengths, grid.lengths, rtol=0.0, atol=1e-12):
        raise DomainError(
            f"snapshot domain {snap.lengths} does not match {grid.lengths}"
        )
    u = np.stack([embed_coefficients(grid, snap.u_coef[i]) for i in range(2)])
    phi = embed_coefficients(grid, snap.phi_coef)
    rho = DensityField(snap.rho_values, snap.rho_lo, snap.rho_hi)
    return u, phi, rho


class SnapshotSink:
    """Run callback that writes numbered snapshots into a directory."""

    def __init__(self, directory, grid):
        self.directory = directory
        self.grid = grid
        self.count = 0

    def __call__(self, state):
        path = os.path.join(self.directory, f"state_{self.count:06d}.bin")
        write_snapshot(path, self.grid, state)
        self.count += 1
