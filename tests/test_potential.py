import numpy as np
import pytest

from achns.errors import DomainError
from achns.potential import (
    PotentialSpec,
    eps_threshold,
    f_eps,
    f_eps_prime,
    f_eps_second,
    f_log,
    f_log_prime,
    g_log,
    g_log_prime,
    validate_eps,
)

SPEC = PotentialSpec(1.0, 0.5, 0.1)


def test_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec(0.5, 0.5, 0.1)
    with pytest.raises(DomainError):
        PotentialSpec(1.0, -0.1, 0.1)
    with pytest.raises(DomainError):
        PotentialSpec(1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        PotentialSpec(1.0, 0.5, 1.0)
    assert PotentialSpec(2.0, 0.5, 0.05).knot == 0.95


def test_closed_form_values():
    # F(0) = l1/2 - l2 ln 2, F'(0) = 0
    assert f_log(SPEC, 0.0) == pytest.approx(0.5 - 0.5 * np.log(2.0), abs=1e-15)
    assert f_log_prime(SPEC, 0.0) == 0.0
    # convex-part slope at s = 0.9 with l2 = 1/2: (1/4) ln 19
    assert g_log_prime(SPEC, 0.9) == pytest.approx(0.25 * np.log(19.0), abs=1e-15)
    # symmetry: even value, odd slope
    s = np.linspace(-0.95, 0.95, 101)
    np.testing.assert_allclose(g_log(SPEC, s), g_log(SPEC, -s), atol=1e-15)
    np.testing.assert_allclose(g_log_prime(SPEC, s), -g_log_prime(SPEC, -s), atol=1e-15)


def test_log_domain_errors():
    for bad in (1.0, -1.0, 1.5, np.array([0.2, -1.0])):
        with pytest.raises(DomainError):
            f_log(SPEC, bad)
        with pytest.raises(DomainError):
            f_log_prime(SPEC, bad)
    with pytest.raises(DomainError):
        f_eps(SPEC, np.inf)
    with pytest.raises(DomainError):
        f_eps(SPEC, np.array([0.0, np.nan]))


def test_scalar_and_array_returns():
    assert isinstance(f_eps(SPEC, 0.3), float)
    out = f_eps(SPEC, np.array([0.3, 2.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert out[0] == f_eps(SPEC, 0.3)


def test_extension_matches_interior_exactly():
    s = np.linspace(-SPEC.knot, SPEC.knot, 257)
    np.testing.assert_array_equal(f_eps(SPEC, s), f_log(SPEC, s))
    # slope agrees to the last bit up to the sign-symmetric log rewrite
    np.testing.assert_allclose(f_eps_prime(SPEC, s), f_log_prime(SPEC, s), atol=5e-16)


def test_c2_matching_at_knots():
    for a in (SPEC.knot, -SPEC.knot):
        for d in (1e-12, 1e-13):
            lo, hi = a - d * np.sign(a), a + d * np.sign(a)
            assert abs(f_eps(SPEC, hi) - f_eps(SPEC, lo)) < 1e-9
            assert abs(f_eps_prime(SPEC, hi) - f_eps_prime(SPEC, lo)) < 1e-9
            assert abs(f_eps_second(SPEC, hi) - f_eps_second(SPEC, lo)) < 1e-9


def test_second_derivative_branches():
    # center: -l1 + l2; beyond the knots: -l1 + l2 / (eps (2 - eps))
    assert f_eps_second(SPEC, 0.0) == pytest.approx(-0.5, abs=1e-15)
    outer = -1.0 + 0.5 / (0.1 * 1.9)
    for s in (0.95, 1.0, 3.0, -2.0, 50.0):
        assert f_eps_second(SPEC, s) == pytest.approx(outer, abs=1e-13)
    # inside the knots: -l1 + G'' = -l1 + l2 / (1 - s^2)
    assert f_eps_second(SPEC, 0.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert f_eps_second(SPEC, 0.9) == pytest.approx(-1.0 + 0.5 / 0.19, abs=1e-14)
    s = np.linspace(-SPEC.knot, SPEC.knot, 257)
    np.testing.assert_allclose(f_eps_second(SPEC, s), 0.5 / (1 - s * s) - 1.0, rtol=1e-14)


def test_quadratic_tail_second_differences_constant():
    h = 0.01
    s = np.arange(1.0, 3.0, h)
    d2 = np.diff(f_eps(SPEC, s), 2) / h**2
    np.testing.assert_allclose(d2, d2[0], atol=1e-9)


def test_tail_value_reconstructed_independently():
    # beyond the knot the extension is the quadratic with Taylor data
    # (G(a), G'(a), G''(a)) read off at a = 1 - eps
    a, l2 = 0.9, 0.5
    ga = 0.5 * l2 * (1.9 * np.log(0.95) + 0.1 * np.log(0.05))
    gpa = 0.5 * l2 * np.log(19.0)
    gsa = l2 / 0.19
    s = 5.0
    expect = 0.5 * 1.0 * (1 - s * s) + ga + gpa * (s - a) + 0.5 * gsa * (s - a) ** 2
    assert f_eps(SPEC, s) == pytest.approx(expect, rel=1e-14)
    assert expect > 0


def test_derivatives_match_central_differences():
    h = 1e-6
    s = np.linspace(-2.5, 2.5, 1201)
    fd1 = (f_eps(SPEC, s + h) - f_eps(SPEC, s - h)) / (2 * h)
    err = np.abs(fd1 - f_eps_prime(SPEC, s)) / np.maximum(np.abs(fd1), 1.0)
    assert err.max() < 1e-6
    fd2 = (f_eps_prime(SPEC, s + h) - f_eps_prime(SPEC, s - h)) / (2 * h)
    err2 = np.abs(fd2 - f_eps_second(SPEC, s)) / np.maximum(np.abs(fd2), 1.0)
    # away from the knots (third derivative jumps there and degrades FD)
    smooth = np.abs(np.abs(s) - SPEC.knot) > 3 * h
    assert err2[smooth].max() < 1e-6
    assert err2[~smooth].max() < 1e-4
    si = np.linspace(-0.9, 0.9, 601)
    fdl = (f_log(SPEC, si + h) - f_log(SPEC, si - h)) / (2 * h)
    assert np.abs(fdl - f_log_prime(SPEC, si)).max() < 1e-6


def test_eps_threshold_closed_form():
    assert eps_threshold(1.0, 0.5) == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-12)
    assert validate_eps(PotentialSpec(1.0, 0.5, 0.29))
    assert not validate_eps(PotentialSpec(1.0, 0.5, 0.30))
    # l2 close to l1 admits nearly any eps in (0, 1)
    assert validate_eps(PotentialSpec(1.0, 1.0 - 1e-9, 0.9))


def test_extension_never_exceeds_original():
    # holds for any eps in (0, 1), admissible or not
    s = np.linspace(-1 + 1e-9, 1 - 1e-9, 10_001)
    for spec in (SPEC, PotentialSpec(1.0, 0.5, 0.5), PotentialSpec(2.0, 0.3, 0.02)):
        gap = f_log(spec, s) - f_eps(spec, s)
        assert gap.min() >= -1e-13


def test_derivative_envelope_for_small_eps():
    # |F_eps'| <= |F'| on (-1, 1) requires the slope of the convex part
    # at the knot to dominate l1 (1 - eps); eps = 0.03 satisfies that
    spec = PotentialSpec(1.0, 0.5, 0.03)
    assert g_log_prime(spec, spec.knot) >= spec.lambda1 * spec.knot
    s = np.linspace(-1 + 1e-9, 1 - 1e-9, 10_001)
    assert np.all(np.abs(f_eps_prime(spec, s)) <= np.abs(f_log_prime(spec, s)) + 1e-13)


def test_derivative_envelope_fails_for_large_eps():
    # with eps = 0.1 the linearized slope overshoots the true one just
    # past the knot, where F' itself is nearly zero
    s = np.linspace(0.90, 0.99, 2001)
    bad = np.abs(f_eps_prime(SPEC, s)) > np.abs(f_log_prime(SPEC, s))
    assert bad.any()


def test_monotone_in_eps_beyond_knots():
    specs = [PotentialSpec(1.0, 0.5, e) for e in (0.2, 0.1, 0.05)]
    s = np.linspace(-1.2, 1.2, 4001)
    v = [f_eps(sp, s) for sp in specs]
    assert np.all(v[0] <= v[1] + 1e-13)
    assert np.all(v[1] <= v[2] + 1e-13)
    deep = np.abs(s) > 0.95
    assert np.all(v[0][deep] < v[1][deep])


def test_floor_is_slightly_negative():
    s = np.linspace(-4, 4, 20_001)
    m = f_eps(SPEC, s).min()
    assert -0.02 < m < 0.0
    # beyond the scan the quadratic tails only climb
    far = np.linspace(-10, 10, 10_001)
    assert f_eps(SPEC, far).min() >= m - 1e-12
    # deeper wells for a stiffer mixture
    assert f_eps(PotentialSpec(2.0, 0.5, 0.1), s).min() < -0.5


def test_quadratic_growth_constants():
    # F_eps(s) > m s^2 for |s| > c, with m half the s^2 coefficient of
    # the outer branch, (l2 / (eps (2 - eps)) - l1) / 4; here c = 3.43
    m = 0.25 * (0.5 / 0.19 - 1.0)
    assert m == pytest.approx(0.40789, abs=1e-5)
    s = np.linspace(4.0, 50.0, 5000)
    s = np.concatenate([s, -s])
    assert np.all(f_eps(SPEC, s) > m * s * s)
    # and the bound fails just inside the crossing
    assert f_eps(SPEC, 3.4) < m * 3.4 ** 2
