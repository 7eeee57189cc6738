import hashlib
import io
import os

import numpy as np
import pytest

from achns.config import load_config, parse_config
from achns.dynamics import run
from achns.errors import DomainError
from achns.snapshot import (
    _HEADER,
    MAGIC,
    SnapshotSink,
    embed_coefficients,
    read_snapshot,
    restore_fields,
    write_snapshot,
)


@pytest.fixture(scope="module")
def small_run():
    cfg = parse_config(
        "[domain]\nn1 = 16\nn2 = 16\n[time]\ndt = 0.002\nt_end = 0.01\n")
    grid = cfg.grid()
    problem = cfg.problem()
    u0, phi0 = cfg.initial_fields(grid)
    summary = run(problem, u0, phi0, cfg.stepper())
    return cfg, grid, summary.final_state


def _dump(grid, state):
    buf = io.BytesIO()
    write_snapshot(buf, grid, state)
    return buf.getvalue()


def _partial(grid, raw, n_u, n_phi):
    """A v1 file with the leading n_u velocity and n_phi order-parameter
    coefficients of the full dump raw."""
    fields = list(_HEADER.unpack_from(raw, 0))
    fields[8:10] = n_u, n_phi
    off = _HEADER.size + 8 * grid.n_grid[0] * grid.n_grid[1]
    coef = np.frombuffer(raw, "<c16", offset=off).reshape(3, grid.n_band_modes)
    return (_HEADER.pack(*fields) + raw[_HEADER.size:off] + coef[0, :n_u].tobytes()
            + coef[1, :n_u].tobytes() + coef[2, :n_phi].tobytes())


def test_layout_size(small_run):
    _, grid, state = small_run
    raw = _dump(grid, state)
    nb = grid.n_band_modes
    assert len(raw) == 64 + 8 * 16 * 16 + 16 * 3 * nb
    assert raw[:4] == MAGIC


def test_header_fields(small_run):
    _, grid, state = small_run
    snap = read_snapshot(io.BytesIO(_dump(grid, state)))
    assert snap.version == 1
    assert snap.n_grid == (16, 16)
    assert snap.lengths == pytest.approx(grid.lengths, rel=0, abs=0)
    assert snap.time == state.t
    assert (snap.rho_lo, snap.rho_hi) == (state.rho.lo, state.rho.hi)


def test_round_trip_bit_exact(small_run):
    _, grid, state = small_run
    raw1 = _dump(grid, state)
    snap = read_snapshot(io.BytesIO(raw1))
    u, phi, rho = restore_fields(snap, grid)
    assert np.array_equal(u, state.u)
    assert np.array_equal(phi, state.phi)
    assert np.array_equal(rho.values, state.rho.values)

    class Shell:
        pass

    again = Shell()
    again.t, again.u, again.phi, again.rho = snap.time, u, phi, rho
    raw2 = _dump(grid, again)
    assert raw2 == raw1


DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "configs", "demo.cfg")


def test_demo_initial_state_bytes_are_pinned():
    # the v1 bytes of the demo's initial state, as written when every
    # coefficient array held the full (N1, N2) plane: the band gather and
    # the Leray projection leave these values bitwise unchanged
    cfg = load_config(DEMO)
    grid = cfg.grid()
    state = cfg.problem().initial_state(*cfg.initial_fields(grid))
    digest = hashlib.sha256(_dump(grid, state)).hexdigest()
    assert digest == "b2b80508fa561401ceed458246ce1670cc34c765cd8aa1e348d83dccfddeedc3"


@pytest.mark.parametrize("domain", ["n1 = 16\nn2 = 32\nl2 = 12.566370614359172\n",
                                    "n1 = 32\nn2 = 32\n"])
@pytest.mark.parametrize("truncate", [False, True])
def test_restore_fields_round_trip(domain, truncate):
    # a state written, read and restored is the state; written again, the
    # same bytes. Truncated fields come back as their own projection
    cfg = parse_config(f"[domain]\n{domain}[time]\ndt = 0.002\nt_end = 0.004\n")
    grid = cfg.grid()
    n_modes = sorted(grid.valid_mode_counts)[4] if truncate else None
    state = run(cfg.problem(), *cfg.initial_fields(grid), cfg.stepper()).final_state
    u, phi = (grid.project_scalar(c, n_modes) for c in (state.u, state.phi))
    raw = _partial(grid, _dump(grid, state), n_modes or grid.n_band_modes,
                   n_modes or grid.n_band_modes)
    ru, rphi, rho = restore_fields(read_snapshot(io.BytesIO(raw)), grid)
    assert ru.shape == (2,) + grid.band_shape and rphi.shape == grid.band_shape
    assert np.array_equal(ru, u) and np.array_equal(rphi, phi)
    assert np.array_equal(rho.values, state.rho.values)

    class Shell:
        pass

    again = Shell()
    again.t, again.u, again.phi, again.rho = state.t, ru, rphi, rho
    full = _dump(grid, again)
    assert _partial(grid, full, n_modes or grid.n_band_modes,
                    n_modes or grid.n_band_modes) == raw


def test_restore_refuses_a_nan_density_entry(small_run):
    _, grid, state = small_run
    raw = bytearray(_dump(grid, state))
    off = _HEADER.size + 8 * 17  # the density value at grid index 17
    raw[off:off + 8] = np.array(np.nan, "<f8").tobytes()
    snap = read_snapshot(io.BytesIO(bytes(raw)))
    assert np.isnan(snap.rho_values).sum() == 1
    with pytest.raises(DomainError, match="violate the carried bounds"):
        restore_fields(snap, grid)


def test_path_io(small_run, tmp_path):
    _, grid, state = small_run
    path = tmp_path / "state.bin"
    write_snapshot(path, grid, state)
    snap = read_snapshot(path)
    assert snap.time == state.t
    assert path.read_bytes() == _dump(grid, state)


def test_truncated_header():
    with pytest.raises(DomainError, match="header"):
        read_snapshot(io.BytesIO(b"ACHN" + b"\x00" * 10))


def test_bad_magic(small_run):
    _, grid, state = small_run
    raw = _dump(grid, state)
    with pytest.raises(DomainError, match="magic"):
        read_snapshot(io.BytesIO(b"XXXX" + raw[4:]))


def test_bad_version(small_run):
    _, grid, state = small_run
    raw = _dump(grid, state)
    bad = raw[:4] + (9).to_bytes(4, "little") + raw[8:]
    with pytest.raises(DomainError, match="version"):
        read_snapshot(io.BytesIO(bad))


def test_truncated_payload(small_run):
    _, grid, state = small_run
    raw = _dump(grid, state)
    with pytest.raises(DomainError, match="truncated"):
        read_snapshot(io.BytesIO(raw[:-8]))
    with pytest.raises(DomainError, match="truncated"):
        read_snapshot(io.BytesIO(raw + b"\x00"))


def test_partial_mode_counts(small_run):
    # runs write the whole band, but the v1 header carries the counts
    _, grid, state = small_run
    raw = _partial(grid, _dump(grid, state), 9, 5)
    snap = read_snapshot(io.BytesIO(raw))
    assert snap.u_coef.shape == (2, 9)
    assert snap.phi_coef.shape == (5,)
    # retained modes are the energetically leading ones, in canonical
    # order; a mode with k2 < 0 is the conjugate of the entry of -k
    rows = grid.band_shape[0]
    full = [state.phi[k1 % rows, k2] if k2 >= 0 else np.conj(state.phi[-k1 % rows, -k2])
            for k1, k2 in grid.mode_list[:5]]
    assert np.array_equal(snap.phi_coef, full)


def test_embed_rejects_oversized(small_run):
    _, grid, _ = small_run
    with pytest.raises(DomainError, match="retains only"):
        embed_coefficients(grid, np.zeros(grid.n_band_modes + 1, complex))
    with pytest.raises(DomainError, match="nearest valid counts are 5 and 9"):
        embed_coefficients(grid, np.zeros(7, complex))


def test_restore_grid_mismatch(small_run):
    cfg, grid, state = small_run
    snap = read_snapshot(io.BytesIO(_dump(grid, state)))
    other = parse_config("[domain]\nn1 = 8\nn2 = 8\n").grid()
    with pytest.raises(DomainError, match="does not match"):
        restore_fields(snap, other)


def test_restore_length_mismatch(small_run):
    _, grid, state = small_run
    snap = read_snapshot(io.BytesIO(_dump(grid, state)))
    other = parse_config(
        "[domain]\nn1 = 16\nn2 = 16\nl1 = 3.0\nl2 = 3.0\n").grid()
    with pytest.raises(DomainError, match="domain"):
        restore_fields(snap, other)


def test_snapshot_sink(small_run, tmp_path):
    _, grid, state = small_run
    sink = SnapshotSink(str(tmp_path), grid)
    sink(state)
    sink(state)
    assert sink.count == 2
    assert (tmp_path / "state_000000.bin").exists()
    assert (tmp_path / "state_000001.bin").exists()
    a = (tmp_path / "state_000000.bin").read_bytes()
    b = (tmp_path / "state_000001.bin").read_bytes()
    assert a == b
