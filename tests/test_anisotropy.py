import numpy as np
import pytest

from achns.anisotropy import (
    AnisotropyModel,
    check_hypotheses,
    gamma_sq,
    quadratic_form,
    taylor_cahn_matrix,
    xi_cap,
)
from achns.errors import DimensionError, DomainError


CUBIC_HALF = taylor_cahn_matrix(0.5)  # diagonal 3, off-diagonal -1


def test_cubic_matrix_entries():
    m = CUBIC_HALF.matrix
    assert np.allclose(m, np.array([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]], float))
    assert np.allclose(taylor_cahn_matrix(0.0).matrix, np.eye(3))


def test_gamma_sq_values():
    assert gamma_sq(CUBIC_HALF, np.array([1.0, 0, 0])) == pytest.approx(3.0, abs=1e-14)
    assert gamma_sq(CUBIC_HALF, np.zeros(3)) == 0.0
    # (1,1,1) is the eigenvector of eigenvalue 1
    assert gamma_sq(CUBIC_HALF, np.ones(3)) == pytest.approx(3.0, abs=1e-14)


def test_homogeneity():
    rng = np.random.default_rng(2)
    for model in (CUBIC_HALF, quadratic_form([[2.0, 0.3], [0.3, 1.0]])):
        p = rng.standard_normal((100, model.dim))
        for s in (0.5, 2.0, 7.3):
            a = gamma_sq(model, s * p)
            b = s * s * gamma_sq(model, p)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_xi_cap_values_and_linearity():
    xi = xi_cap(CUBIC_HALF, np.array([1.0, 0, 0]))
    assert np.allclose(xi, [3.0, -1.0, -1.0], atol=1e-14)
    iso = quadratic_form(np.eye(2))
    rng = np.random.default_rng(3)
    p = rng.standard_normal((50, 2))
    assert np.max(np.abs(xi_cap(iso, p) - p)) < 1e-14
    # linearity for quadratic forms
    q = rng.standard_normal((100, 3))
    r = rng.standard_normal((100, 3))
    gap = xi_cap(CUBIC_HALF, q + r) - xi_cap(CUBIC_HALF, q) - xi_cap(CUBIC_HALF, r)
    assert np.max(np.abs(gap)) < 1e-14 * max(1.0, np.max(np.abs(q + r)))


def test_euler_identity():
    rng = np.random.default_rng(4)
    p = rng.standard_normal((500, 3))
    lhs = np.einsum("...i,...i->...", p, xi_cap(CUBIC_HALF, p))
    rhs = gamma_sq(CUBIC_HALF, p)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_gradient_consistency_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    p = rng.standard_normal((200, 3))
    xi = xi_cap(CUBIC_HALF, p)
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        fd = (gamma_sq(CUBIC_HALF, p + dp) - gamma_sq(CUBIC_HALF, p - dp)) / (4 * h)
        denom = np.maximum(np.abs(xi[:, i]), 1.0)
        assert np.max(np.abs(fd - xi[:, i]) / denom) < 1e-6


def test_check_hypotheses_quadratic():
    rep = check_hypotheses(CUBIC_HALF)
    assert rep.r == pytest.approx(1.0, abs=1e-12)
    assert rep.R == pytest.approx(4.0, abs=1e-12)
    assert rep.all_hold()

    rep_iso = check_hypotheses(quadratic_form(np.eye(3)))
    assert rep_iso.r == rep_iso.R == pytest.approx(1.0, abs=1e-13)
    assert rep_iso.all_hold()

    indefinite = quadratic_form(np.diag([1.0, -1.0]))
    rep_bad = check_hypotheses(indefinite)
    assert not rep_bad.h1_holds and not rep_bad.h3_holds and rep_bad.h2_holds
    assert rep_bad.witness is not None
    # the witness reproduces the violation
    assert gamma_sq(indefinite, rep_bad.witness) < 0
    assert np.allclose(np.abs(rep_bad.witness), [0.0, 1.0], atol=1e-12)


def test_positivity_threshold_is_computed():
    # eigenvalues are {1, 1+6b}: positive just above b = -1/6, not below
    assert check_hypotheses(taylor_cahn_matrix(-0.16)).h1_holds
    rep = check_hypotheses(taylor_cahn_matrix(-0.17))
    assert not rep.h1_holds
    assert rep.r == pytest.approx(1 + 6 * (-0.17), abs=1e-12)


def test_sandwich_bounds():
    rng = np.random.default_rng(6)
    rep = check_hypotheses(CUBIC_HALF)
    p = rng.standard_normal((10000, 3))
    g = gamma_sq(CUBIC_HALF, p)
    nsq = np.sum(p * p, axis=1)
    assert np.all(g >= rep.r * nsq - 1e-10)
    assert np.all(g <= rep.R * nsq + 1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_entry_is_refused(bad):
    with pytest.raises(DomainError, match="non-finite"):
        quadratic_form([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(DomainError, match="non-finite"):
        taylor_cahn_matrix(bad)


def test_model_is_a_symmetrized_read_only_square_matrix():
    model = AnisotropyModel(np.array([[2.0, 0.3], [0.3 + 1e-13, 1.0]]))
    assert model.dim == 2
    assert model.matrix[0, 1] == model.matrix[1, 0]
    with pytest.raises(ValueError):
        model.matrix[0, 0] = 5.0
    with pytest.raises(DimensionError):
        quadratic_form(np.ones((2, 3)))
    with pytest.raises(DomainError, match="symmetric"):
        quadratic_form([[1.0, 0.5], [0.0, 1.0]])
