import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from achns import diagnostics
from achns.cli import main

SMALL = """\
[domain]
n1 = 16
n2 = 16
[time]
dt = 0.002
t_end = 0.02
"""

TINY = """\
[domain]
n1 = 8
n2 = 8
[time]
dt = 0.004
t_end = 0.016
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


# --- run -----------------------------------------------------------------

def test_run_small(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", small_cfg, "--output", str(out)])
    assert code == 0
    lines = _lines(capsys)
    assert any(l.startswith("steps: 10") for l in lines)
    assert any(l.startswith("final time: 0.02") for l in lines)
    assert (out / "energy.csv").exists()
    assert (out / "state_final.bin").exists()
    header = (out / "energy.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["t", "e_kin"]


def test_run_energy_csv_header_is_the_documented_one(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", tiny_cfg, "--output", str(out)]) == 0
    header = (out / "energy.csv").read_text().splitlines()[0]
    assert header == ("t,e_kin,e_surf,e_pot,e_total,d_visc,d_diff,"
                      "mass_rho,mass_rhophi,f_eps_prime_l6,energy_residual")


@pytest.mark.parametrize("section, text, message", [
    ("initial_phi", "kmax = 3\n", "kmax=3 exceeds the dealiased band of this grid"),
    ("initial_u", "profile = random_solenoidal\nseed = 1\nkmax = 3\n",
     "kmax=3 exceeds the dealiased band of this grid"),
], ids=["initial_phi", "initial_u"])
def test_run_refuses_a_profile_the_grid_refuses_before_writing(tmp_path, capsys,
                                                               section, text, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY + f"[{section}]\n" + text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: [{section}] {message}\n"
    assert not out.exists()


def test_run_deterministic(small_cfg, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", small_cfg, "--output", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--config", small_cfg, "--output", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first.replace(str(out1), "@") == second.replace(str(out2), "@")
    assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
    assert (out1 / "state_final.bin").read_bytes() == (out2 / "state_final.bin").read_bytes()


def test_run_snapshot_cadence(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL + "[output]\nsnapshots = all\ncadence = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    files = sorted(f for f in os.listdir(out) if f.endswith(".bin"))
    # emitted at steps 0, 5, 10
    assert files == ["state_000000.bin", "state_000001.bin", "state_000002.bin"]


def test_run_snapshots_none(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL + "[output]\nsnapshots = none\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    assert not any(f.endswith(".bin") for f in os.listdir(out))


def test_run_missing_config(capsys):
    assert main(["run", "--config", "/definitely/not/here.cfg"]) == 1
    assert "io error" in capsys.readouterr().err


def test_run_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[potential]\nlambda1 = 1.0\nlambda2 = 0.5\neps = 0.9\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "line 4" in err and "0.292893" in err


def test_run_unstable_dt(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[domain]\nn1 = 32\nn2 = 32\n[time]\ndt = 0.5\nt_end = 1.0\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_run_refuses_an_unstable_dt_before_writing(tmp_path, capsys):
    # demo physics at 32^2, whose stability bound is 0.0102508
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[time]\ndt = 0.05\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "runtime error: dt=0.05 exceeds the stability bound 0.0102508\n")
    assert not out.exists()
    # a horizon shorter than dt is one step of that length, below the bound
    cfg.write_text("[time]\ndt = 0.05\nt_end = 0.005\n")
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    assert "steps: 1" in _lines(capsys)


def test_run_residual_column_spans_the_steps_between_rows(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY + "[output]\ncadence = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    rows = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    # 4 steps of 0.004: rows at steps 0, 2 and 4
    np.testing.assert_allclose(rows[:, 0], [0.0, 0.008, 0.016], rtol=0, atol=1e-15)
    reports = [diagnostics.EnergyReport(*row[:-1]) for row in rows]
    assert rows[0, -1] == 0.0
    for i in (1, 2):
        pair = reports[i - 1:i + 1]
        expect = diagnostics.energy_law_residual(pair, pair[1].t - pair[0].t)[0][0]
        assert rows[i, -1] == expect


# --- check-anisotropy ------------------------------------------------------

def test_check_anisotropy_default(capsys):
    assert main(["check-anisotropy"]) == 0
    out = capsys.readouterr().out
    assert "all hypotheses hold" in out
    assert "r =" in out


def test_check_anisotropy_indefinite(capsys):
    assert main(["check-anisotropy", "--m11", "1", "--m12", "2", "--m22", "1"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_check_anisotropy_fourfold(capsys):
    assert main(["check-anisotropy", "--beta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "r = 1" in out and "R = 4" in out


def test_check_anisotropy_conflicting_flags(capsys):
    assert main(["check-anisotropy", "--beta", "0.5", "--m11", "1"]) == 1
    assert main(["check-anisotropy", "--m11", "1"]) == 1


@pytest.mark.parametrize("args, flag", [
    (["--beta", "0.1"], "--beta"),
    (["--m11", "1", "--m12", "0", "--m22", "1"], "--m11/--m12/--m22"),
], ids=["beta", "matrix"])
def test_check_anisotropy_config_excludes_the_other_forms(tmp_path, capsys, args, flag):
    # refused before the file is read: the file does not exist
    missing = str(tmp_path / "missing.cfg")
    assert main(["check-anisotropy", *args, "--config", missing]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --config excludes {flag}\n"


@pytest.mark.parametrize("args", [
    ["--beta", "nan"],
    ["--beta", "inf"],
    ["--m11", "1", "--m12", "0", "--m22", "inf"],
    ["--m11", "nan", "--m12", "0", "--m22", "1"],
])
def test_check_anisotropy_non_finite_entry(capsys, args):
    assert main(["check-anisotropy", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: quadratic-form matrix has a non-finite entry\n"


# --- potential-table ---------------------------------------------------------

def test_potential_table(capsys):
    from achns.config import parse_config
    from achns.potential import f_eps, f_eps_prime, f_eps_second

    assert main(["potential-table", "--from", "-1.5", "--to", "1.5",
                 "--points", "7"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "s,f_eps,f_eps_prime,f_eps_second"
    assert len(lines) == 8
    spec = parse_config("").spec
    for row in lines[1:]:
        s, f, fp, fpp = (float(tok) for tok in row.split(","))
        assert f == f_eps(spec, s)
        assert fp == f_eps_prime(spec, s)
        assert fpp == f_eps_second(spec, s)


def test_potential_table_bad_range(capsys):
    assert main(["potential-table", "--from", "1", "--to", "0",
                 "--points", "5"]) == 1
    assert main(["potential-table", "--from", "0", "--to", "1",
                 "--points", "1"]) == 1



@pytest.mark.parametrize("argv, flag", [
    (["--from", "nan", "--to", "1"], "--from"),
    (["--from=-inf", "--to", "1"], "--from"),
    (["--from", "0", "--to", "inf"], "--to"),
])
def test_potential_table_refuses_a_non_finite_bound(capsys, argv, flag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["potential-table", *argv, "--points", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {flag} must be finite, got ")


# --- fixedpoint ------------------------------------------------------------

def test_fixedpoint_converges(tiny_cfg, capsys):
    code = main(["fixedpoint", "--config", tiny_cfg, "--t-tilde", "0.008",
                 "--tol", "1e-6"])
    lines = _lines(capsys)
    assert code == 0
    assert lines[0] == "iterate,distance,r_eps"
    rows = [l.split(",") for l in lines[1:-1]]
    dists = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert lines[-1].startswith("converged: yes")


def test_fixedpoint_nonconvergence_is_exit_2(tiny_cfg, capsys):
    code = main(["fixedpoint", "--config", tiny_cfg, "--t-tilde", "0.008",
                 "--tol", "1e-30", "--max-iter", "1"])
    assert code == 2
    assert _lines(capsys)[-1].startswith("converged: no")


def test_fixedpoint_bad_horizon(tiny_cfg, capsys):
    code = main(["fixedpoint", "--config", tiny_cfg, "--t-tilde", "0.005",
                 "--tol", "1e-6"])
    assert code == 1


@pytest.mark.parametrize("flags, name", [
    (["--t-tilde", "inf"], "horizon"),
    (["--t-tilde", "0.008", "--tol-r", "nan"], "tol_r"),
    (["--t-tilde", "0.008", "--tol-r", "-1"], "tol_r"),
    (["--t-tilde", "1e300"], "horizon"),
])
def test_fixedpoint_refuses_a_horizon_or_tol_r_it_cannot_meet(tiny_cfg, capsys, flags, name):
    assert main(["fixedpoint", "--config", tiny_cfg, "--tol", "1e-6", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {name} must be ") and "Traceback" not in err


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 16.0 EiB"), "out of memory: Unable to allocate 16.0 EiB"),
    (MemoryError(), "out of memory"),
], ids=["with_text", "bare"])
def test_fixedpoint_out_of_memory_is_a_runtime_failure(tiny_cfg, monkeypatch, capsys, exc, line):
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr("achns.cli.picard", no_memory)
    assert main(["fixedpoint", "--config", tiny_cfg, "--t-tilde", "1e16", "--tol", "1e-6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"runtime error: {line}\n"


# --- bihari ------------------------------------------------------------------

def test_bihari_exact(capsys):
    assert main(["bihari", "--c1", "1", "--g0", "0", "--y0", "1"]) == 0
    assert float(_lines(capsys)[0].split("=")[1]) == 1.0


def test_bihari_check(capsys):
    assert main(["bihari", "--c1", "0.7", "--g0", "0.3", "--y0", "2.0",
                 "--check", "4"]) == 0
    out = capsys.readouterr().out
    assert "check: pass (4 trials)" in out


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    # solve_ivp loads only when bihari --check runs: its 25 MiB of imports
    # would otherwise count toward every run's peak memory
    src = os.path.dirname(os.path.dirname(os.path.abspath(diagnostics.__file__)))
    code = "import sys, achns.cli; print(sorted(m for m in sys.modules if 'scipy.integrate' in m))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_bihari_bad_args(capsys):
    assert main(["bihari", "--c1", "-1", "--g0", "0", "--y0", "1"]) == 1


@pytest.mark.parametrize("flags, name", [
    (["--c1", "1", "--g0", "1", "--y0", "inf"], "y0"),
    (["--c1", "1", "--g0", "inf", "--y0", "1"], "g0"),
    (["--c1", "1", "--g0", "nan", "--y0", "1"], "g0"),
    (["--c1", "nan", "--g0", "1", "--y0", "1"], "c1"),
])
def test_bihari_refuses_non_finite_arguments(capsys, flags, name):
    assert main(["bihari", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {name} must be ") and "finite" in err


def test_bihari_negative_check_count_is_a_config_error(capsys):
    assert main(["bihari", "--c1", "1", "--g0", "1", "--y0", "1", "--check", "-3"]) == 1
    out, err = capsys.readouterr()
    assert "check: pass" not in out
    assert err.startswith("config error: ") and "-3" in err


# --- besov -------------------------------------------------------------------

def test_besov_on_run_output(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", small_cfg, "--output", str(out)]) == 0
    capsys.readouterr()
    csv = str(out / "energy.csv")
    assert main(["besov", csv, "--column", "e_total", "--p", "inf"]) == 0
    lines = _lines(capsys)
    semi = float(lines[0].split("=")[1])
    norm = float(lines[1].split("=")[1])

    data = np.genfromtxt(csv, delimiter=",", names=True)
    series = np.asarray(data["e_total"], float)
    assert semi == diagnostics.besov_seminorm(series, math.inf, 0.002)
    assert norm == diagnostics.besov_norm(series, math.inf, 0.002)


def test_besov_explicit_dt(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    n = 64
    rows = ["value"] + [f"{i / n:.17g}" for i in range(n + 1)]
    csv.write_text("\n".join(rows) + "\n")
    assert main(["besov", str(csv), "--column", "value", "--p", "inf",
                 "--sample-dt", str(1.0 / n)]) == 0
    semi = float(_lines(capsys)[0].split("=")[1])
    assert semi == pytest.approx(1.0, rel=1e-12)


def test_besov_needs_dt_without_time_column(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    csv.write_text("value\n1\n2\n3\n4\n5\n")
    assert main(["besov", str(csv), "--column", "value", "--p", "2"]) == 1
    assert "sample-dt" in capsys.readouterr().err


def test_besov_nonuniform_time(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    csv.write_text("t,value\n0,1\n0.1,2\n0.3,3\n0.4,4\n")
    assert main(["besov", str(csv), "--column", "value", "--p", "2"]) == 1
    assert "uniform" in capsys.readouterr().err
    # an empty or overflowing time cell is named as such, with no numpy warning
    for cell in ("", "1e400"):
        csv.write_text(f"t,value\n0,1\n0.1,2\n{cell},3\n0.3,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["besov", str(csv), "--column", "value", "--p", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: time column has an empty or non-finite entry")
    csv.write_text("t,value\n0,1\n0.1,2\n0.2,3\n0.3,4\n")
    assert main(["besov", str(csv), "--column", "value", "--p", "2", "--sample-dt", "inf"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: sample_dt must be positive and finite, got inf\n"


def test_besov_missing_column(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    csv.write_text("t,value\n0,1\n1,2\n2,3\n3,4\n")
    assert main(["besov", str(csv), "--column", "nope", "--p", "2"]) == 1
    assert "available" in capsys.readouterr().err


# --- sweep -------------------------------------------------------------------

def test_sweep_modes(tiny_cfg, capsys):
    assert main(["sweep", "--config", tiny_cfg, "--modes", "8,16"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "reference: n=16"
    assert lines[1].startswith("n=8 ")
    total = float(lines[1].split("diff_total=")[1])
    assert total > 0.0


def test_sweep_eps(tiny_cfg, capsys):
    assert main(["sweep", "--config", tiny_cfg, "--eps", "0.2,0.05"]) == 0
    lines = _lines(capsys)
    assert lines[0].startswith("eps=0.2 ")
    assert lines[1].startswith("eps=0.05 ")
    assert lines[2].startswith("e0_unregularized")


def test_sweep_requires_exactly_one_mode(tiny_cfg, capsys):
    assert main(["sweep", "--config", tiny_cfg]) == 1
    assert main(["sweep", "--config", tiny_cfg, "--modes", "8,16",
                 "--eps", "0.1,0.2"]) == 1
    assert main(["sweep", "--config", tiny_cfg, "--modes", "8"]) == 1


@pytest.mark.parametrize("flag, value, token", [
    ("--modes", "16,abc", "'abc'"),
    ("--eps", "0.1,x", "'x'"),
])
def test_sweep_names_a_bad_token(tiny_cfg, capsys, flag, value, token):
    assert main(["sweep", "--config", tiny_cfg, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: ")
    assert token in err


@pytest.mark.parametrize("key, count, nearest", [
    ("n_modes_u", 441, "the nearest valid count is 121"),
    # valid at 32^2, but it splits the |k|^2 = 41 shell at 16^2
    ("n_modes_phi", 113, "the nearest valid counts are 109 and 117"),
])
def test_sweep_checks_every_grid_before_the_first_run(tmp_path, monkeypatch, capsys,
                                                      key, count, nearest):
    path = tmp_path / "modes.cfg"
    path.write_text(TINY.replace("n1 = 8\nn2 = 8", "n1 = 32\nn2 = 32") + f"{key} = {count}\n")

    def no_run(*args, **kwargs):
        raise AssertionError("sweep stepped before checking every grid")

    monkeypatch.setattr("achns.cli.run_integrator", no_run)
    assert main(["sweep", "--config", str(path), "--modes", "32,16"]) == 1
    err = capsys.readouterr().err
    assert f"[time] {key} on the 16x16 sweep grid" in err
    assert nearest in err


def test_sweep_checks_every_grid_dt_before_the_first_run(tiny_cfg, monkeypatch, capsys):
    # dt = 0.004 is stable at 16^2 but not at 64^2 (bound 0.000640675)
    def no_run(*args, **kwargs):
        raise AssertionError("sweep stepped before checking every grid")

    monkeypatch.setattr("achns.cli.run_integrator", no_run)
    assert main(["sweep", "--config", tiny_cfg, "--modes", "16,64"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "runtime error: dt=0.004 exceeds the stability bound 0.000640675\n"


def test_sweep_checks_every_width_before_the_first_run(tiny_cfg, monkeypatch, capsys):
    # 0.5 is past the default well's admissible width
    def no_run(*args, **kwargs):
        raise AssertionError("sweep stepped before checking every width")

    monkeypatch.setattr("achns.cli.run_integrator", no_run)
    assert main(["sweep", "--config", tiny_cfg, "--eps", "0.2,0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: regularization eps=0.5 outside the admissible range\n"


# --- parser ------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
