import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from achns import basis
from achns.basis import Jet, TorusGrid, vdot
from achns.errors import DimensionError, DomainError


def make_grid(n=32, L=2 * np.pi):
    return TorusGrid((L, L), (n, n))


def fft_int(n):
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def full_mask(grid):
    """The retained band in the full (N1, N2) FFT plane."""
    kc1, kc2 = grid.cutoff
    return ((np.abs(fft_int(grid.n_grid[0])) <= kc1)[:, None]
            & (np.abs(fft_int(grid.n_grid[1])) <= kc2)[None, :])


def mirror(coef):
    """c_-k at k, for every field of a full-plane stack (..., N1, N2)."""
    n1, n2 = coef.shape[-2:]
    return coef[..., (-fft_int(n1))[:, None], (-fft_int(n2))[None, :]]


def hermitian_part(coef):
    """(c_k + conj c_-k) / 2: the full-plane coefficients of the real part
    of the field of c, exactly Hermitian."""
    return (coef + np.conj(mirror(coef))) / 2


def full_plane_field(coef):
    """Grid values of the full-plane coefficients coef, by numpy's FFT."""
    return np.fft.ifft2(coef * (coef.shape[-2] * coef.shape[-1])).real


def band_of(grid, full):
    """The band's half plane (..., 2K1+1, K2+1) of full-plane coefficients."""
    kc1, kc2 = grid.cutoff
    rows = np.r_[0:kc1 + 1, grid.n_grid[0] - kc1:grid.n_grid[0]]
    return full[..., rows, :kc2 + 1]


def at(grid, coef, k1, k2):
    """c_k of band coefficients for any k of the band."""
    rows = grid.band_shape[0]
    return coef[k1 % rows, k2] if k2 >= 0 else np.conj(coef[-k1 % rows, -k2])


def random_band_field(grid, rng, lead=()):
    """Real grid field, or a stack of them, whose spectrum lies inside the
    retained band."""
    shape = lead + grid.n_grid
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coef *= full_mask(grid)
    return full_plane_field(hermitian_part(coef))


def test_grid_validation():
    with pytest.raises(DimensionError):
        TorusGrid((1.0, 1.0), (12, 16))
    with pytest.raises(DimensionError):
        TorusGrid((1.0, 1.0), (4, 8))
    with pytest.raises(DimensionError):
        TorusGrid((-1.0, 1.0), (8, 8))


def test_constant_field_single_mode():
    grid = make_grid(8)
    coef = grid.to_spectral(np.full(grid.n_grid, 3.25))
    assert abs(coef[0, 0] - 3.25) < 1e-14
    coef[0, 0] = 0.0
    assert np.max(np.abs(coef)) < 1e-14


def test_cosine_two_conjugate_coefficients():
    grid = make_grid(16, L=2 * np.pi)
    x = grid.mesh[0]
    coef = grid.to_spectral(np.cos(x))
    assert abs(coef[1, 0] - 0.5) < 1e-14
    assert abs(coef[-1, 0] - 0.5) < 1e-14
    coef[1, 0] = coef[-1, 0] = 0.0
    assert np.max(np.abs(coef)) < 1e-13


def test_round_trip_random_band():
    rng = np.random.default_rng(11)
    grid = make_grid(32)
    f = random_band_field(grid, rng)
    back = grid.to_grid(grid.to_spectral(f))
    assert np.max(np.abs(back - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))


def test_parseval():
    rng = np.random.default_rng(5)
    grid = TorusGrid((2 * np.pi, 4 * np.pi), (32, 64))
    f = random_band_field(grid, rng)
    coef = grid.to_spectral(f)
    grid_sq = grid.quadrature(f * f)
    spec_sq = grid.area * vdot(coef, coef)
    assert abs(grid_sq - spec_sq) <= 1e-10 * abs(grid_sq)
    assert abs(np.sqrt(grid_sq) - grid.norm_l2_spectral(coef)) <= 1e-10 * np.sqrt(grid_sq)


def test_differentiation_exact():
    grid = TorusGrid((2 * np.pi, 2 * np.pi), (32, 32))
    x, y = grid.mesh
    f = np.cos(3 * x) * np.sin(2 * y)
    coef = grid.to_spectral(f)
    gx, gy = grid.grad(coef)
    assert np.max(np.abs(grid.to_grid(gx) - (-3 * np.sin(3 * x) * np.sin(2 * y)))) < 1e-12
    assert np.max(np.abs(grid.to_grid(gy) - (2 * np.cos(3 * x) * np.cos(2 * y)))) < 1e-12


def test_grad_of_cosine_example():
    grid = make_grid(16)
    x = grid.mesh[0]
    kappa = 2
    coef = grid.to_spectral(np.cos(kappa * x))
    gx, gy = grid.grad(coef)
    assert np.max(np.abs(grid.to_grid(gx) - (-kappa * np.sin(kappa * x)))) < 1e-12
    assert np.max(np.abs(grid.to_grid(gy))) < 1e-13


def test_grad_of_a_vector_stack_puts_the_derivative_axis_second():
    rng = np.random.default_rng(4)
    grid = make_grid(16)
    u = grid.to_spectral(random_band_field(grid, rng, lead=(2,)))
    du = grid.grad(u)
    assert du.shape == (2, 2) + grid.band_shape
    for i in range(2):
        for j in range(2):
            assert np.array_equal(du[i, j], grid.grad(u[i])[j]), (i, j)


def test_laplacian_symbol():
    rng = np.random.default_rng(3)
    grid = make_grid(16)
    coef = grid.to_spectral(random_band_field(grid, rng))
    lap = grid.div(grid.grad(coef))
    assert np.max(np.abs(lap - (-grid.k_sq * coef))) < 1e-12 * np.max(np.abs(coef))


def test_dealiased_product_matches_convolution():
    # On a small grid, compare the pseudo-spectral product of two band
    # fields (grid multiply, transform, re-mask) against the exact
    # truncated convolution computed by direct summation.
    rng = np.random.default_rng(17)
    n = 16
    grid = make_grid(n)
    kc = grid.cutoff[0]
    f = random_band_field(grid, rng)
    g = random_band_field(grid, rng)
    cf = grid.to_spectral(f)
    cg = grid.to_spectral(g)
    prod = grid.to_spectral(f * g)

    def at_(c, i, j):
        return at(grid, c, i, j)

    for i in range(-kc, kc + 1):
        for j in range(-kc, kc + 1):
            acc = 0.0 + 0.0j
            for a in range(-kc, kc + 1):
                for b in range(-kc, kc + 1):
                    ia, jb = i - a, j - b
                    if abs(ia) <= kc and abs(jb) <= kc:
                        acc += at_(cf, a, b) * at_(cg, ia, jb)
            assert abs(at_(prod, i, j) - acc) < 1e-12


def test_leray_kills_gradients():
    rng = np.random.default_rng(23)
    grid = make_grid(32)
    psi = grid.to_spectral(random_band_field(grid, rng))
    gradpsi = grid.grad(psi)
    proj = grid.leray_project(gradpsi)
    proj[:, 0, 0] = 0.0
    assert np.max(np.abs(proj)) < 1e-12 * np.max(np.abs(gradpsi))


def test_leray_idempotent_and_preserves_divfree():
    rng = np.random.default_rng(29)
    grid = make_grid(32)
    v = np.stack(
        [
            grid.to_spectral(random_band_field(grid, rng)),
            grid.to_spectral(random_band_field(grid, rng)),
        ]
    )
    p1 = grid.leray_project(v)
    p2 = grid.leray_project(p1)
    assert np.max(np.abs(p2 - p1)) < 1e-13 * np.max(np.abs(p1))
    divp = grid.div(p1)
    assert np.max(np.abs(divp)) < 1e-12 * np.max(np.abs(p1))


def test_leray_closed_form_modes():
    grid = make_grid(16)
    kappa = 3
    v = np.zeros((2,) + grid.band_shape, dtype=complex)
    # unit x-coefficient at k = (kappa, 0): purely compressive
    v[0, kappa, 0] = 1.0
    out = grid.leray_project(v)
    assert np.max(np.abs(out[:, kappa, 0])) < 1e-14
    # unit x-coefficient at k = (0, kappa): already divergence-free
    v2 = np.zeros_like(v)
    v2[0, 0, kappa] = 1.0
    out2 = grid.leray_project(v2)
    assert abs(out2[0, 0, kappa] - 1.0) < 1e-14
    assert abs(out2[1, 0, kappa]) < 1e-14
    # zero mode preserved
    v3 = np.zeros_like(v)
    v3[0, 0, 0] = 2.0
    v3[1, 0, 0] = -1.0
    out3 = grid.leray_project(v3)
    assert abs(out3[0, 0, 0] - 2.0) < 1e-15 and abs(out3[1, 0, 0] + 1.0) < 1e-15


def test_mode_order_canonical():
    grid = make_grid(16)
    modes = grid.mode_list
    ksq_phys = (modes[:, 0] * (2 * np.pi / grid.lengths[0])) ** 2 + (
        modes[:, 1] * (2 * np.pi / grid.lengths[1])
    ) ** 2
    assert np.all(np.diff(ksq_phys) >= -1e-12)
    # within equal |k|^2, (k1, k2) strictly increases lexicographically
    for i in range(len(modes) - 1):
        if abs(ksq_phys[i + 1] - ksq_phys[i]) < 1e-12:
            a, b = modes[i], modes[i + 1]
            assert (a[0], a[1]) < (b[0], b[1])
    assert modes.shape[0] == grid.n_band_modes
    assert tuple(modes[0]) == (0, 0)


def test_project_scalar_identity_and_truncation():
    rng = np.random.default_rng(41)
    grid = make_grid(16)
    coef = grid.to_spectral(random_band_field(grid, rng))
    full = grid.project_scalar(coef, grid.n_band_modes)
    assert np.max(np.abs(full - coef)) == 0.0
    assert grid.project_scalar(coef, None) is coef  # None is the whole band
    one = grid.project_scalar(coef, 1)
    nz = np.flatnonzero(np.abs(one.ravel()) > 0)
    assert list(nz) == [0]  # only the zero mode survives
    # truncation keeps an |k|^2-ball: max kept shell <= min dropped shell
    m = 37
    trunc = grid.project_scalar(coef, m)
    kept = np.abs(trunc.ravel()) > 0
    ksq = grid.k_sq.ravel()
    kept_max = np.max(ksq[kept])
    dropped = ~kept
    assert kept_max <= np.min(ksq[dropped]) + 1e-12
    # a stack (2, N1, N2) is truncated field by field
    pair = np.stack([coef, grid.to_spectral(random_band_field(grid, rng))])
    stacked = grid.project_scalar(pair, m)
    assert stacked.shape == pair.shape
    for i in range(2):
        np.testing.assert_array_equal(stacked[i], grid.project_scalar(pair[i], m))


_TRANSFORM_GRIDS = [((2 * np.pi, 4 * np.pi), (16, 32)), ((1.0, 1.0), (32, 32)),
                    ((2 * np.pi, 2 * np.pi), (128, 128))]
# every grid extent and stack the package transforms: 8^2 to 128^2 and a
# (16, 32) box; one field to the 17 of a Picard right-hand side
_ALL_GRIDS = _TRANSFORM_GRIDS + [((2 * np.pi, 2 * np.pi), (8, 8)),
                                 ((2 * np.pi, 2 * np.pi), (16, 16)), ((1.0, 1.0), (64, 64))]
_STACKS = [(), (2,), (4,), (3,), (5,), (8,), (12,), (17,), (2, 2)]

# The transforms through the public scipy.fft functions, as reference:
# each ignores the arguments its call site passes to the binding, so a
# call site with another norm code or axis gives other bits.


def _public_ifft(a, *_):
    return scipy.fft.ifft(a, axis=-2, norm="forward")


def _public_irfft(a, *_):
    return scipy.fft.irfft(a, n=2 * (a.shape[-1] - 1), axis=-1, norm="forward")


@pytest.mark.parametrize("lead", _STACKS)
@pytest.mark.parametrize("lengths, n_grid", _ALL_GRIDS)
def test_to_spectral_matches_the_complex_transform(lengths, n_grid, lead):
    rng = np.random.default_rng(n_grid[0] + len(lead))
    grid = TorusGrid(lengths, n_grid)
    vals = rng.standard_normal(lead + n_grid)
    want = band_of(grid, np.fft.fft2(vals) / (n_grid[0] * n_grid[1]))
    got = grid.to_spectral(vals)
    assert got.shape == lead + grid.band_shape == want.shape
    assert _relative_gap(got, want) <= 1e-15
    # the bits of the public 2-D transform's band, column 0 mirrored
    kc1, kc2 = grid.cutoff
    public = scipy.fft.rfft2(vals, norm="forward")[..., grid.k1_int % n_grid[0], :kc2 + 1]
    public[..., kc1 + 1:, 0] = np.conj(public[..., kc1:0:-1, 0])
    assert np.array_equal(got, public)


@pytest.mark.parametrize("lead", _STACKS)
@pytest.mark.parametrize("lengths, n_grid", _ALL_GRIDS)
def test_to_grid_matches_the_complex_transform_for_real_fields(lengths, n_grid, lead):
    # exactly Hermitian full-plane coefficients inside the band
    rng = np.random.default_rng(n_grid[1] + len(lead))
    grid = TorusGrid(lengths, n_grid)
    coef = rng.standard_normal(lead + n_grid) + 1j * rng.standard_normal(lead + n_grid)
    coef = hermitian_part(coef * full_mask(grid))
    want = full_plane_field(coef)
    got = grid.to_grid(band_of(grid, coef))
    assert got.shape == want.shape
    assert _relative_gap(got, want) <= 1e-15
    # the bits of the public 2-D inverse of the zero-padded half plane
    half = coef[..., :n_grid[1] // 2 + 1]
    assert np.array_equal(got, scipy.fft.irfft2(half, s=n_grid, norm="forward"))


@pytest.mark.parametrize("n", [32, 128])
def test_each_transform_is_a_row_pass_and_a_column_pass_over_the_band(monkeypatch, n):
    # the 2-D transforms are two one-axis passes, and the column pass
    # covers only the band's K2+1 columns of the half plane
    grid = make_grid(n)
    calls = []

    def spy(name, binding):
        def call(a, axes, *args):
            calls.append((name, tuple(axes), a.shape[-1]))
            return binding(a, axes, *args)
        return call

    for name in ("_r2c", "_c2r", "_c2c"):
        monkeypatch.setattr(basis, name, spy(name, getattr(basis, name)))
    rng = np.random.default_rng(n)
    cols, half = grid.cutoff[1] + 1, n // 2 + 1
    forward = [("_r2c", (-1,), n), ("_c2c", (-2,), cols)]
    inverse = [("_c2c", (-2,), cols), ("_c2r", (-1,), half)]
    for lead, leray, n_modes in (((), False, None), ((2,), True, None), ((12,), False, 37)):
        v = rng.standard_normal(lead + grid.n_grid)
        coef = grid.to_spectral(v)
        for run, want in ((lambda: grid.to_spectral(v), forward),
                          (lambda: grid.to_grid(coef), inverse),
                          (lambda: grid.project_grid(v, leray, n_modes), forward + inverse)):
            calls.clear()
            run()
            assert calls == want, (lead, calls)


@pytest.mark.parametrize("lead", [(), (2,), (2, 2)])
@pytest.mark.parametrize("lengths, n_grid", _ALL_GRIDS)
def test_jet_fields_are_those_of_the_public_transforms(monkeypatch, lengths, n_grid, lead):
    # to order 7, the highest the 32^2 runs' feet take
    rng = np.random.default_rng(n_grid[0] + len(lead))
    grid = TorusGrid(lengths, n_grid)
    coef = grid.to_spectral(rng.standard_normal(lead + n_grid))
    jet = Jet(grid, coef)
    jet.extend(7)
    monkeypatch.setattr(basis, "_c2c", _public_ifft)
    monkeypatch.setattr(basis, "_c2r", _public_irfft)
    want = Jet(grid, coef)
    want.extend(7)
    assert len(jet.fields) == len(want.fields) == 8
    for got, ref in zip(jet.fields, want.fields):
        assert np.array_equal(got, ref)


def test_transforms_call_pocketfft_directly():
    # the private binding, not a wrapper around it: the public functions'
    # dispatch cost 8.5 of a 13.9 us rfft2 at 32^2
    from scipy.fft._pocketfft import pypocketfft

    assert (basis._r2c, basis._c2r, basis._c2c) == (pypocketfft.r2c, pypocketfft.c2r,
                                                    pypocketfft.c2c)


def _fresh_interpreter(code, pythonpath=()):
    src = os.path.dirname(os.path.dirname(os.path.abspath(basis.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, pythonpath), src])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("imports", ["import achns.basis as basis, scipy.fft",
                                     "import scipy.fft, achns.basis as basis"])
def test_the_binding_loads_once_in_either_import_order(imports):
    # basis registers the binding under its own name, so scipy.fft reuses it
    # and gives its bits, and basis reuses one that scipy.fft loaded. Reached
    # by a from-import, as scipy's own modules reach it: loaded by basis first,
    # it is no attribute of the scipy.fft._pocketfft package
    code = f"""{imports}
import numpy as np
from scipy.fft._pocketfft import pypocketfft
v = np.random.default_rng(3).standard_normal((3, 32, 16))
assert all(getattr(pypocketfft, f) is getattr(basis, "_" + f) for f in ("r2c", "c2r", "c2c"))
assert np.array_equal(scipy.fft.rfft2(v, norm="forward"), basis._r2c(v, (-2, -1), True, 2, None, 1))
"""
    out = _fresh_interpreter(code)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("setup", ["scipy without the binding", "no scipy"])
def test_a_missing_binding_fails_at_import_naming_it(tmp_path, setup):
    if setup == "no scipy":
        code = "import sys; sys.modules['scipy'] = None; import achns.basis"
    else:
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        code = "import achns.basis"
    out = _fresh_interpreter(code, [tmp_path])
    assert out.returncode != 0
    assert "ImportError: no scipy.fft._pocketfft.pypocketfft under" in out.stderr


def test_to_spectral_takes_integer_grids():
    grid = make_grid(16)
    ints = np.random.default_rng(13).integers(-5, 6, (2,) + grid.n_grid)
    assert np.array_equal(grid.to_spectral(ints), grid.to_spectral(ints.astype(float)))


@pytest.mark.parametrize("lengths, n_grid", [((2 * np.pi, 2 * np.pi), (16, 16)),
                                             ((1.0, 1.0), (32, 32)),
                                             ((2 * np.pi, 4 * np.pi), (16, 32))])
def test_project_scalar_accepts_exactly_the_counts_closed_under_negation(lengths, n_grid):
    # a truncation that keeps k without -k is no projection onto real
    # fields: going through the grid moves its kept modes
    rng = np.random.default_rng(4)
    grid = TorusGrid(lengths, n_grid)
    band = grid.to_spectral(random_band_field(grid, rng))
    modes = [tuple(m) for m in grid.mode_list.tolist()]
    valid = [n for n in range(grid.n_band_modes + 1)
             if {(-a, -b) for a, b in modes[:n]} == set(modes[:n])]
    assert valid == sorted(grid.valid_mode_counts)
    for n in range(grid.n_band_modes + 1):
        if n in valid:
            kept = grid.project_scalar(band, n)
            again = grid.project_scalar(grid.to_spectral(grid.to_grid(kept)), n)
            assert np.max(np.abs(again - kept)) <= 1e-15 * np.max(np.abs(kept))
        else:
            below = max(v for v in valid if v < n)
            above = min(v for v in valid if v > n)
            with pytest.raises(DomainError, match=f"nearest valid counts are {below} and {above}$"):
                grid.project_scalar(band, n)
    for n in (-1, grid.n_band_modes + 1):
        with pytest.raises(DomainError, match="must lie in"):
            grid.project_scalar(band, n)


@pytest.mark.parametrize("lengths, n_grid", _TRANSFORM_GRIDS)
def test_leray_takes_the_bits_of_its_real_factors(lengths, n_grid):
    # the factors are stored complex only to skip numpy's cast of real ones
    grid = TorusGrid(lengths, n_grid)
    v = grid.to_spectral(np.random.default_rng(9).standard_normal((2,) + n_grid))
    v[:, 1, 1] = [-0.0, 0.0]  # a zero product keeps its sign too
    ksq = grid.k_sq.copy()
    ksq[0, 0] = 1.0
    want = v - np.stack(np.broadcast_arrays(grid.k1 / ksq, grid.k2 / ksq)) * (
        grid.k1 * v[0] + grid.k2 * v[1])
    assert grid.leray_project(v).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [16, 32, 128])
def test_project_grid_is_the_band_round_trip_bit_for_bit(n):
    # the mass operator's G(P(S(v))) without the band: the same bits for a
    # scalar, a Leray 2-stack and a 2x2 stack, over the whole band (None
    # and its count), no mode and the first 37
    rng = np.random.default_rng(n)
    grid = make_grid(n)
    for lead, leray in (((), False), ((2,), True), ((2, 2), False)):
        for n_modes in (None, 0, 37, grid.n_band_modes):
            v = rng.standard_normal(lead + grid.n_grid)
            want = grid.to_grid(grid.project(grid.to_spectral(v), leray, n_modes))
            got = grid.project_grid(v, leray, n_modes)
            assert got.shape == v.shape and got.tobytes() == want.tobytes(), (lead, n_modes)


@pytest.mark.parametrize("lead, leray, n_modes", [((), False, None), ((2,), True, None),
                                                  ((2,), True, 37)])
def test_project_grid_leaves_the_shared_pad_buffer_as_to_grid_expects_it(lead, leray, n_modes):
    # project_grid runs r2c into the half-plane buffer to_grid pads the
    # band into; an r2c entry left outside the band would reach to_grid
    rng = np.random.default_rng(12)
    grid = make_grid(32)
    grid.project_grid(rng.standard_normal(lead + grid.n_grid), leray, n_modes)
    coef = grid.to_spectral(rng.standard_normal(lead + grid.n_grid))
    assert grid.to_grid(coef).tobytes() == make_grid(32).to_grid(coef).tobytes()


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("lead, leray, n_modes", [((), False, None), ((2,), True, 37)])
def test_the_shared_pad_buffer_gives_fresh_bits_in_any_order_of_calls(n, lead, leray, n_modes):
    # the inverse's in-place column pass leaves every row of columns 0..K2
    # dirty in the buffer to_grid and project_grid share: each call must
    # zero what it does not write, whatever ran before it, jets included
    rng = np.random.default_rng(n + len(lead))
    coefs = [make_grid(n).to_spectral(rng.standard_normal(lead + (n, n))) for _ in range(3)]
    values = [rng.standard_normal(lead + (n, n)) for _ in range(3)]
    calls = {"to_grid": lambda g, i: g.to_grid(coefs[i]),
             "project_grid": lambda g, i: g.project_grid(values[i], leray, n_modes)}
    for order in (["to_grid", "to_grid"], ["project_grid", "to_grid"],
                  ["to_grid", "project_grid", "to_grid"]):
        grid = make_grid(n)
        for i, name in enumerate(order):
            got = calls[name](grid, i)
            assert got.tobytes() == calls[name](make_grid(n), i).tobytes(), (order, i)
            Jet(grid, coefs[i]).extend(2)


@pytest.mark.parametrize("lengths, n_grid", _TRANSFORM_GRIDS)
def test_to_spectral_is_exactly_hermitian(lengths, n_grid):
    rng = np.random.default_rng(6)
    grid = TorusGrid(lengths, n_grid)
    coef = grid.to_spectral(rng.standard_normal((2,) + n_grid))
    # column 0 holds k1 and -k1: conjugate bit for bit, sign of zero too,
    # and the zero mode is real
    col = coef[..., 1:, 0]
    mirrored = np.conj(coef[..., -grid.k1_int[1:] % grid.band_shape[0], 0])
    assert col.tobytes() == mirrored.tobytes()
    assert np.all(coef[..., 0, 0].imag == 0)


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("lengths, n_grid", _TRANSFORM_GRIDS)
def test_vdot_of_band_halves_is_that_of_the_full_plane(lengths, n_grid, lead):
    # a column k2 > 0 of the band stands for itself and its mirror
    rng = np.random.default_rng(n_grid[0] + len(lead))
    grid = TorusGrid(lengths, n_grid)
    a, b = (hermitian_part((rng.standard_normal(lead + n_grid)
                            + 1j * rng.standard_normal(lead + n_grid)) * full_mask(grid))
            for _ in range(2))
    for x, y in ((a, a), (a, b), (b, a)):
        want = np.vdot(x, y).real
        scale = np.sqrt(np.vdot(x, x).real * np.vdot(y, y).real)
        assert abs(vdot(band_of(grid, x), band_of(grid, y)) - want) <= 1e-15 * scale


@pytest.mark.parametrize("lengths, n_grid", _TRANSFORM_GRIDS)
def test_to_spectral_returns_the_band_field_to_grid_made(lengths, n_grid):
    rng = np.random.default_rng(8)
    grid = TorusGrid(lengths, n_grid)
    coef = grid.to_spectral(random_band_field(grid, rng, (2,)))
    assert coef.shape == (2,) + grid.band_shape
    assert _relative_gap(grid.to_spectral(grid.to_grid(coef)), coef) <= 1e-15


def test_quadrature_exact_for_band_fields():
    grid = make_grid(32, L=1.0)
    x, y = grid.mesh
    f = 2.0 + np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
    assert abs(grid.quadrature(f) - 2.0 * grid.area) < 1e-13


def test_eval_at_matches_grid_and_is_periodic():
    rng = np.random.default_rng(53)
    grid = TorusGrid((2 * np.pi, 4 * np.pi), (32, 32))
    f = random_band_field(grid, rng)
    coef = grid.to_spectral(f)
    xs, ys = grid.mesh
    pts = np.stack([xs.ravel()[:64], ys.ravel()[:64]], axis=1)
    vals = grid.eval_at(coef, pts)
    assert np.max(np.abs(vals - f.ravel()[:64])) < 1e-11
    # random off-grid points: compare against direct mode summation
    pts2 = rng.uniform(-10, 10, size=(40, 2))
    direct = np.zeros(40, dtype=complex)
    for a, b in grid.mode_list:
        kx = 2 * np.pi / grid.lengths[0] * a
        ky = 2 * np.pi / grid.lengths[1] * b
        direct += at(grid, coef, a, b) * np.exp(1j * (kx * pts2[:, 0] + ky * pts2[:, 1]))
    assert np.max(np.abs(grid.eval_at(coef, pts2) - direct.real)) < 1e-10
    # periodicity: shifting by a full box changes nothing
    shifted = pts2 + np.array([grid.lengths[0], -3 * grid.lengths[1]])
    assert np.max(np.abs(grid.eval_at(coef, shifted) - grid.eval_at(coef, pts2))) < 1e-10


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _band_coef(grid, rng):
    return grid.to_spectral(random_band_field(grid, rng))


@pytest.mark.parametrize("n, reach", [(32, 1e-3), (128, 1e-5)])
def test_eval_at_taylor_path_on_stepper_like_points(n, reach):
    # feet of one step: mesh + delta with |delta| ~ |u| dt, unwrapped by
    # whole box lengths as the characteristic tracer leaves them
    rng = np.random.default_rng(n)
    grid = TorusGrid((2 * np.pi, 4 * np.pi), (n, n))
    coef = _band_coef(grid, rng)
    mesh = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    pts = mesh + rng.uniform(-reach, reach, mesh.shape)
    pts += np.array(grid.lengths) * rng.integers(-2, 3, size=mesh.shape)
    assert grid._plan(pts, coef)[2] is not None
    assert _relative_gap(grid.eval_at(coef, pts), grid._eval_dense(coef, pts)) <= 1e-13


def test_eval_at_arbitrary_points_take_the_dense_path():
    rng = np.random.default_rng(29)
    grid = make_grid(32)
    coef = _band_coef(grid, rng)
    pts = rng.uniform(-10, 10, size=(grid.n_grid[0] * grid.n_grid[1], 2))
    nodes, delta, order = grid._plan(pts, coef)
    assert order is None
    np.testing.assert_array_equal(grid.eval_at(coef, pts), grid._eval_dense(coef, pts))
    # the remainder bound holds at any offset from the nodes, even where
    # the dense sum is cheaper
    taylor = grid._eval_taylor(Jet(grid, coef[None]), nodes, delta, grid._taylor_order(delta, coef))[0]
    assert _relative_gap(taylor, grid._eval_dense(coef, pts)) <= 1e-13
    # so far out that rounding breaks the split into node and offset, or
    # not finite (a blowing-up trace): dense as well
    for far in (1e200, np.nan):
        assert grid._plan(np.full((3, 2), far), coef)[2] is None


@pytest.mark.parametrize("reach", [1e-3, 0.3])
def test_eval_at_stacked_fields(reach):
    rng = np.random.default_rng(17)
    grid = make_grid(32)
    coef = np.stack([_band_coef(grid, rng), _band_coef(grid, rng)])
    mesh = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    pts = mesh + rng.uniform(-reach, reach, mesh.shape)
    assert (grid._plan(pts, coef)[2] is None) == (reach > 0.1)
    vals = grid.eval_at(coef, pts)
    assert vals.shape == (2, len(pts))
    dense = grid._eval_dense(coef, pts)
    assert _relative_gap(vals, dense) <= 1e-13
    for i in range(2):
        np.testing.assert_array_equal(dense[i], grid._eval_dense(coef[i], pts))
        assert _relative_gap(grid.eval_at(coef[i], pts), dense[i]) <= 1e-13


def test_eval_at_on_the_nodes_is_order_zero():
    rng = np.random.default_rng(3)
    grid = TorusGrid((1.0, 3.0), (64, 32))
    coef = _band_coef(grid, rng)
    pts = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    assert grid._plan(pts, coef)[2] == 0
    vals = grid.eval_at(coef, pts)
    assert _relative_gap(vals, grid._eval_dense(coef, pts)) <= 1e-13
    assert _relative_gap(vals, grid.to_grid(coef).ravel()) <= 1e-13


def _corner_order(grid, delta):
    """The order a coefficient at the band's corner needs: least M with
    s^(M+1)/(M+1)! <= 2^-53, s = sum_i K_i (2 pi/L_i) max|delta_i|."""
    reach = np.max(np.abs(delta), axis=0)
    s = sum(kc * (2 * np.pi / ell) * r for kc, ell, r in zip(grid.cutoff, grid.lengths, reach))
    order, term = 0, s
    while term > 2.0**-53:
        order += 1
        term *= s / (order + 1)
    return order


def _feet_at_128(seed):
    """Stepper-like feet at 128^2, their offsets from the nodes, the order
    the band's corner needs there, a field of the modes |k_i| <= 4 only and
    one of the corner mode (K1, K2) only."""
    rng = np.random.default_rng(seed)
    grid = TorusGrid((2 * np.pi, 4 * np.pi), (128, 128))
    mesh = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    pts = mesh + rng.uniform(-1e-5, 1e-5, mesh.shape)
    low = _band_coef(grid, rng)
    low[(np.abs(grid.k1_int)[:, None] > 4) | (np.arange(grid.band_shape[1]) > 4)[None, :]] = 0
    corner = np.zeros(grid.band_shape, dtype=complex)
    corner[grid.cutoff] = 0.5j
    delta = grid._plan(pts, low)[1]
    return grid, pts, delta, _corner_order(grid, delta), low, corner


def _assert_taylor_matches_dense(grid, coef, pts):
    """The plan takes the Taylor path at the order the coefficients need,
    and it agrees with the dense sum to 1e-13 relative."""
    _, delta, order = grid._plan(pts, coef)
    assert order == grid._taylor_order(delta, coef)
    dense = grid._eval_dense(coef.reshape((-1,) + grid.band_shape), pts)
    assert _relative_gap(grid.eval_at(coef, pts), dense.reshape(coef.shape[:-2] + (-1,))) <= 1e-13


def test_low_modes_take_a_lower_taylor_order_than_the_band_corner():
    grid, pts, delta, top, low, _ = _feet_at_128(41)
    assert grid._taylor_order(delta, low) < top
    _assert_taylor_matches_dense(grid, low, pts)


def test_a_field_at_the_band_corner_keeps_the_corner_order():
    # neither lower, which would break the remainder bound, nor higher
    grid, pts, delta, top, _, corner = _feet_at_128(43)
    assert grid._taylor_order(delta, corner) == top
    _assert_taylor_matches_dense(grid, corner, pts)


def test_a_stack_takes_the_highest_order_of_its_fields():
    # each field is held to its own ||c||_1: one norm for the whole stack
    # would let the low field's larger norm hide the corner field's need
    grid, pts, delta, top, low, corner = _feet_at_128(47)
    assert grid._taylor_order(delta, low) < top
    for stack in (np.stack([low, corner]), np.stack([corner, low])):
        assert grid._taylor_order(delta, stack) == top
        _assert_taylor_matches_dense(grid, stack, pts)


@pytest.mark.parametrize("n", [16, 32, 128])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("ascending", [True, False])
def test_jet_evaluations_equal_fresh_calls_bitwise(n, stacked, ascending):
    # one jet asked for rising orders (each call extends it) or falling
    # ones (each call sums a prefix of what it holds)
    rng = np.random.default_rng(n)
    grid = TorusGrid((2 * np.pi, 4 * np.pi), (n, n))
    coef = _band_coef(grid, rng)
    if stacked:
        coef = np.stack([coef, _band_coef(grid, rng)])
    mesh = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    point_sets = [mesh + rng.uniform(-r, r, mesh.shape) for r in (0.0, 1e-12, 1e-7, 1e-5)]
    orders = [grid._plan(pts, coef)[2] for pts in point_sets]
    assert orders[0] == 0 and all(a < b for a, b in zip(orders, orders[1:]))
    jet = Jet(grid, coef)
    for pts in point_sets if ascending else point_sets[::-1]:
        np.testing.assert_array_equal(grid.eval_at(jet, pts), grid.eval_at(coef, pts))
    assert jet.order == orders[-1]


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("stacked", [False, True])
def test_eval_at_on_nodes_in_grid_order_reads_the_jet_in_place(monkeypatch, n, stacked):
    # feet of one step keep every grid point as its own node, in grid
    # order; the same points permuted need the gather, and give the same
    # values bit for bit
    rng = np.random.default_rng(n + 1)
    grid = TorusGrid((2 * np.pi, 4 * np.pi), (n, n))
    coef = _band_coef(grid, rng)
    if stacked:
        coef = np.stack([coef, _band_coef(grid, rng)])
    mesh = np.stack(grid.mesh, axis=-1).reshape(-1, 2)
    pts = mesh + rng.uniform(-1e-4, 1e-4, mesh.shape)
    perm = rng.permutation(len(pts))
    assert grid._plan(pts, coef)[2] is not None
    take, gathers = np.take, []

    def counted(*args, **kwargs):
        gathers.append(1)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", counted)
    in_place = grid.eval_at(coef, pts)
    assert gathers == []
    gathered = grid.eval_at(coef, pts[perm])
    assert gathers
    np.testing.assert_array_equal(in_place[..., perm], gathered)
    assert _relative_gap(in_place, grid._eval_dense(coef.reshape((-1,) + grid.band_shape), pts)
                         .reshape(in_place.shape)) <= 1e-13


def test_shape_mismatch_raises():
    grid = make_grid(16)
    with pytest.raises(DimensionError):
        grid.to_spectral(np.zeros((8, 8)))
    with pytest.raises(DimensionError):
        grid.eval_at(np.zeros(grid.band_shape, dtype=complex), np.zeros((4, 3)))
    with pytest.raises(DimensionError):
        grid.eval_at(np.zeros((8, 8), dtype=complex), np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        grid.eval_at(Jet(make_grid(16, L=1.0), np.zeros(grid.band_shape)), np.zeros((4, 2)))
