import dataclasses
import os

import numpy as np
import pytest

from achns import profiles
from achns.config import _PROFILES, _SCHEMA, load_config, parse_config
from achns.errors import ConfigError

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "configs", "demo.cfg")


def test_empty_config_is_valid():
    cfg = parse_config("")
    assert cfg.n_grid == (32, 32)
    assert cfg.lengths == pytest.approx((2 * np.pi, 2 * np.pi))
    assert cfg.dt == 0.004
    assert cfg.t_end == 1.0
    assert cfg.out_dir == "out"
    assert cfg.cadence == 1
    assert cfg.snapshots == "final"
    assert cfg.rho0.bounds == (1.0, 2.0)


def test_full_spelling_matches_defaults():
    # README: configs/demo.cfg spells out the built-in defaults
    a = parse_config("")
    b = load_config(DEMO)
    assert a.n_grid == b.n_grid
    assert a.lengths == b.lengths
    assert np.array_equal(a.model.matrix, b.model.matrix)
    assert (a.spec.lambda1, a.spec.lambda2, a.spec.eps) == (
        b.spec.lambda1, b.spec.lambda2, b.spec.eps)
    assert (a.laws.nu_minus, a.laws.nu_plus, a.laws.d_minus, a.laws.d_plus) == (
        b.laws.nu_minus, b.laws.nu_plus, b.laws.d_minus, b.laws.d_plus)
    assert a.phi_init == b.phi_init
    assert a.u_init == b.u_init
    assert (a.dt, a.t_end, a.cadence, a.snapshots) == (
        b.dt, b.t_end, b.cadence, b.snapshots)
    ga, gb = a.grid(), b.grid()
    ua, pa = a.initial_fields(ga)
    ub, pb = b.initial_fields(gb)
    assert np.array_equal(ua, ub)
    assert np.array_equal(pa, pb)
    ra = a.rho0(np.array([[0.3, 1.7]]))
    rb = b.rho0(np.array([[0.3, 1.7]]))
    assert np.array_equal(ra, rb)


def test_a_parse_shares_no_default_list():
    first = parse_config("")
    default = list(first.phi_init["extra_modes"])
    first.phi_init["extra_modes"].append((1, 1, 1e-3, 0.0))
    assert parse_config("").phi_init["extra_modes"] == default


def test_load_config_none_is_defaults():
    cfg = load_config(None)
    assert cfg.n_grid == (32, 32)


def test_comments_and_blank_lines():
    cfg = parse_config(
        "# leading comment\n\n[domain]\nn1 = 16  # inline\n\nn2 = 16\n")
    assert cfg.n_grid == (16, 16)


def test_constructors_work_from_defaults():
    cfg = parse_config("[domain]\nn1 = 8\nn2 = 8\n")
    grid = cfg.grid()
    assert grid.n_grid == (8, 8)
    problem = cfg.problem()
    assert problem.report.all_hold()
    st = cfg.stepper()
    assert st.dt == cfg.dt
    u0, phi0 = cfg.initial_fields(grid)
    assert u0.shape == (2, 8, 8)
    assert phi0.shape == (8, 8)


def test_a_config_holds_one_grid():
    # the grid that steps the run is the one its fields and sinks use
    cfg = parse_config("[domain]\nn1 = 8\nn2 = 8\n")
    grid = cfg.grid()
    assert cfg.grid() is grid and cfg.problem().grid is grid
    variant = dataclasses.replace(cfg, n_grid=(16, 16))
    assert variant.grid() is not grid and variant.grid().n_grid == (16, 16)
    assert variant.problem().grid is variant.grid() and cfg.grid() is grid


# --- line-anchored rejection -------------------------------------------------

def _err(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value


def test_unknown_section():
    err = _err("[domain]\nn1 = 16\n[nosuch]\nx = 1\n")
    assert err.line == 3
    assert "unknown section" in str(err)


def test_unknown_key():
    err = _err("[domain]\nbogus = 3\n")
    assert err.line == 2
    assert "bogus" in str(err)


def test_duplicate_key():
    err = _err("[domain]\nn1 = 16\nn1 = 8\n")
    assert err.line == 3
    assert "duplicate" in str(err)


def test_key_outside_section():
    err = _err("n1 = 16\n")
    assert err.line == 1
    assert "outside" in str(err)


def test_missing_equals():
    err = _err("[domain]\nn1 16\n")
    assert err.line == 2
    assert "key = value" in str(err)


def test_malformed_header():
    err = _err("[domain\nn1 = 16\n")
    assert err.line == 1


def test_bad_number():
    err = _err("[time]\ndt = fast\n")
    assert err.line == 2
    assert "expected a number" in str(err)


@pytest.mark.parametrize("text, line", [
    ("[material]\nd_plus = inf\n", 2),
    ("[initial_u]\nprofile = taylor_green\namplitude = nan\n", 3),
    ("[anisotropy]\nm11 = nan\n", 2),
    ("[time]\ndt = -inf\n", 2),
    ("[initial_phi]\nprofile = modes\nmodes = 1,0,NaN,0\n", 3),
])
def test_non_finite_number(text, line):
    err = _err(text)
    assert err.line == line
    assert "expected a finite number" in str(err)


def test_bad_integer():
    err = _err("[domain]\nn1 = 16.5\n")
    assert err.line == 2
    assert "integer" in str(err)


def test_bad_boolean():
    err = _err("[time]\nallow_unstable_dt = maybe\n")
    assert "true or false" in str(err)


def test_empty_value():
    err = _err("[domain]\nn1 =\n")
    assert err.line == 2


def test_inadmissible_eps_cites_threshold():
    err = _err("[potential]\nlambda1 = 1.0\nlambda2 = 0.5\neps = 0.5\n")
    assert err.line == 4
    assert "0.292893" in str(err)


def test_indefinite_anisotropy_cites_r():
    err = _err("[anisotropy]\nm11 = 1.0\nm12 = 2.0\nm22 = 1.0\n")
    assert "r=-1" in str(err)


def test_beta_is_not_a_key():
    # the anisotropy is a 2-D quadratic form; beta builds a 3-D one
    err = _err("[anisotropy]\nbeta = 0.5\n")
    assert err.line == 2
    assert "unknown key 'beta'" in str(err)


def test_stability_safety_is_not_a_key():
    # a step is refused above the stability bound itself; a smaller dt
    # is the way to stay further below it
    err = _err("[domain]\nn1 = 16\n[time]\ndt = 0.001\nstability_safety = 0.5\n")
    assert err.line == 5
    assert "unknown key 'stability_safety' in [time]" in str(err)


def test_nonpositive_density_rejected():
    err = _err("[density]\nprofile = sinusoidal\nbase = 0.4\namplitude = 0.5\n")
    assert "non-positive" in str(err)


def test_bad_lambda_order():
    err = _err("[potential]\nlambda1 = 0.5\nlambda2 = 1.0\neps = 0.1\n")
    assert "lambda" in str(err)


def test_bad_snapshots_choice():
    err = _err("[output]\nsnapshots = hourly\n")
    assert err.line == 2
    assert "none, final, all" in str(err)


def test_bad_cadence():
    err = _err("[output]\ncadence = 0\n")
    assert err.line == 2


@pytest.mark.parametrize("text, line", [
    ("[initial_phi]\nseed = 3\nkmax = 0\n", 3),
    ("[initial_u]\nprofile = random_solenoidal\nseed = 1\nkmax = -2\n", 4),
], ids=["initial_phi", "initial_u"])
def test_kmax_below_one_is_refused_at_its_line(text, line):
    # no grid admits it, so it is refused as it is read, not at set-up
    err = _err(text)
    assert err.line == line
    assert "expected an integer >= 1" in str(err)


def test_bad_time_step():
    err = _err("[time]\ndt = -0.001\n")
    assert err.line == 2


def test_mode_counts_checked_against_the_grid():
    # a count that keeps some k without -k, at 32^2
    err = _err("[time]\ndt = 0.004\nn_modes_u = 10\n")
    assert err.line == 3
    assert "n_modes_u" in str(err) and "nearest valid counts are 9 and 13" in str(err)
    err = _err("[domain]\nn1 = 32\n[time]\nn_modes_phi = 100000\n")
    assert err.line == 4
    assert "n_modes_phi" in str(err) and "[0, 441]" in str(err)
    cfg = parse_config("[time]\nn_modes_u = 9\nn_modes_phi = 13\n")
    assert (cfg.n_modes_u, cfg.n_modes_phi) == (9, 13)


# --- profiles ----------------------------------------------------------------

def test_profile_key_enforcement():
    err = _err("[density]\nprofile = constant\nvalue = 1.2\nbase = 1.0\n")
    assert err.line == 4
    assert "does not apply" in str(err)


def test_unknown_profile():
    err = _err("[density]\nprofile = gaussian\n")
    assert "choices" in str(err)


def test_profile_missing_required_key():
    err = _err("[initial_u]\nprofile = random_solenoidal\n")
    assert "needs key" in str(err)


def test_constant_density_profile():
    cfg = parse_config("[density]\nprofile = constant\nvalue = 1.3\n")
    assert cfg.rho0.bounds == (1.3, 1.3)


def test_blob_density_profile():
    cfg = parse_config(
        "[density]\nprofile = blob\nbase = 1.0\namplitude = 0.5\n"
        "width = 0.7\ncenter1 = 3.0\ncenter2 = 3.0\n")
    lo, hi = cfg.rho0.bounds
    assert lo >= 1.0 - 1e-12 and hi <= 1.5 + 1e-12


def test_mollify_width_is_not_a_key():
    err = _err("[domain]\nn1 = 16\n[density]\nk1 = 2\nmollify_width = 0.3\n")
    assert err.line == 5
    assert "unknown key 'mollify_width' in [density]" in str(err)


def test_phi_modes_profile():
    cfg = parse_config(
        "[initial_phi]\nprofile = modes\nmodes = 1,0,0.1,0; 2,1,0.05,-0.02\n")
    assert cfg.phi_init["modes"] == [(1, 0, 0.1, 0.0), (2, 1, 0.05, -0.02)]
    grid = cfg.grid()
    _, phi0 = cfg.initial_fields(grid)
    assert np.isfinite(phi0).all()


def test_bad_mode_syntax():
    err = _err("[initial_phi]\nprofile = modes\nmodes = 1,0,0.1\n")
    assert err.line == 3
    assert "k1,k2,re,im" in str(err)


def test_phi_constant_profile():
    cfg = parse_config("[initial_phi]\nprofile = constant\nvalue = 0.25\n")
    grid = cfg.grid()
    _, phi0 = cfg.initial_fields(grid)
    assert np.allclose(phi0, 0.25)


def test_u_zero_profile():
    cfg = parse_config("[initial_u]\nprofile = zero\n")
    grid = cfg.grid()
    u0, _ = cfg.initial_fields(grid)
    assert np.all(u0 == 0.0)


def test_u_random_solenoidal_profile():
    cfg = parse_config(
        "[initial_u]\nprofile = random_solenoidal\nseed = 3\nkmax = 2\n"
        "amplitude = 0.2\n")
    grid = cfg.grid()
    u0, _ = cfg.initial_fields(grid)
    div = grid.div(np.stack([grid.to_spectral(u0[0]), grid.to_spectral(u0[1])]))
    assert np.abs(div).max() < 1e-12


def test_extra_modes_dropped_outside_band():
    # the default seed mode (10,-10) exists at 32^2 but not at 16^2
    coarse = parse_config("[domain]\nn1 = 16\nn2 = 16\n")
    fine = parse_config("")
    gc, gf = coarse.grid(), fine.grid()
    _, phi_c = coarse.initial_fields(gc)
    _, phi_f = fine.initial_fields(gf)
    cf = gf.to_spectral(phi_f)
    k = (-10 % gf.band_shape[0], 10)  # holds c_-k, the conjugate of c_(10,-10)
    assert abs(cf[k]) > 0.0
    cc = gc.to_spectral(phi_c)
    assert np.isfinite(cc).all()


# --- every profile, table-driven ---------------------------------------------

_LENGTHS = (2 * np.pi, 2 * np.pi)

# (section, profile, entries in file order with `profile` last, the keys
# without a default, a key of another profile of the same section (None:
# random_solenoidal's keys cover every other initial_u profile's), and
# the profiles call that must build the same field)
_PROFILE_CASES = [
    ("density", "constant", [("value", "1.3")], ["value"], "base",
     lambda grid: profiles.ConstantDensity(1.3)),
    ("density", "sinusoidal", [("base", "1.4"), ("amplitude", "0.3"), ("k1", "2"), ("k2", "1")],
     [], "value",
     lambda grid: profiles.SinusoidalDensity(1.4, 0.3, _LENGTHS, 2, 1)),
    ("density", "blob", [("base", "1.0"), ("amplitude", "0.5"), ("width", "0.7"),
                         ("center1", "3.0"), ("center2", "2.5")],
     ["width", "center1", "center2"], "k1",
     lambda grid: profiles.BlobDensity(1.0, 0.5, 0.7, (3.0, 2.5), _LENGTHS)),
    ("initial_phi", "constant", [("value", "0.25")], ["value"], "seed",
     lambda grid: profiles.phi_constant(grid, 0.25)),
    ("initial_phi", "modes", [("modes", "1,0,0.1,0; 2,1,0.05,-0.02")], ["modes"], "value",
     lambda grid: profiles.phi_modes(grid, [(1, 0, 0.1, 0.0), (2, 1, 0.05, -0.02)])),
    # (40, 0) lies outside the 16^2 band, so the builder drops it
    ("initial_phi", "band_random", [("seed", "5"), ("kmax", "3"), ("amplitude", "0.4"),
                                    ("mean", "0.1"), ("extra_modes", "3,1,0.01,0; 40,0,1,0")],
     [], "modes",
     lambda grid: (profiles.phi_band_random(grid, 5, 3, 0.4, 0.1)
                   + profiles.phi_modes(grid, [(3, 1, 0.01, 0.0)]))),
    ("initial_u", "zero", [], [], "amplitude",
     lambda grid: profiles.u_zero(grid)),
    ("initial_u", "taylor_green", [("amplitude", "0.2")], [], "seed",
     lambda grid: profiles.u_taylor_green(grid, 0.2)),
    ("initial_u", "random_solenoidal", [("seed", "3"), ("kmax", "2"), ("amplitude", "0.2")],
     ["seed", "kmax"], None,
     lambda grid: profiles.u_random_solenoidal(grid, 3, 2, 0.2)),
]

_FIRST_LINE = 5  # the section's first key, after [domain], n1, n2 and its header


def _profile_text(section, entries):
    return ("[domain]\nn1 = 16\nn2 = 16\n" + f"[{section}]\n"
            + "".join(f"{key} = {value}\n" for key, value in entries))


@pytest.mark.parametrize("section, profile, entries, required, foreign, direct",
                         _PROFILE_CASES, ids=[f"{s}-{p}" for s, p, *_ in _PROFILE_CASES])
def test_every_profile(section, profile, entries, required, foreign, direct):
    full = entries + [("profile", profile)]
    for key in required:
        err = _err(_profile_text(section, [e for e in full if e[0] != key]))
        assert err.line == _FIRST_LINE
        assert f"{section} profile {profile!r} needs key {key!r}" in str(err)
    if foreign is not None:
        err = _err(_profile_text(section, full + [(foreign, "1")]))
        assert err.line == _FIRST_LINE + len(full)
        assert f"key {foreign!r} does not apply to {section} profile {profile!r}" in str(err)

    cfg = parse_config(_profile_text(section, full))
    grid = cfg.grid()
    expected = direct(grid)
    if section == "density":
        assert cfg.rho0 == expected
        pts = np.stack(grid.mesh, axis=-1)
        assert np.array_equal(cfg.rho0(pts), expected(pts))
    else:
        u0, phi0 = cfg.initial_fields(grid)
        assert np.array_equal(u0 if section == "initial_u" else phi0, expected)


def test_profile_table_matches_schema():
    assert set(_PROFILES) == {(s, p) for s, p, *_ in _PROFILE_CASES}
    for (section, _), (keys, _) in _PROFILES.items():
        assert set(keys) <= set(_SCHEMA[section])
    for section in ("density", "initial_phi", "initial_u"):
        read = {k for (s, _), (keys, _) in _PROFILES.items() if s == section for k in keys}
        assert set(_SCHEMA[section]) - {"profile"} <= read
