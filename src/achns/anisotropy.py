"""Directional surface-energy laws and their hypothesis checks.

The energy density is ``0.5 * gamma_sq(grad phi)`` for a
degree-one-homogeneous map Gamma. Two families are supported:

* quadratic forms ``Gamma^2(p) = p^T M p`` with symmetric M, the only
  family admissible in the dynamics, since the capillary vector must be
  linear in p;
* the cubic-crystal family with parameters (alpha, beta) in three
  dimensions, kept for evaluation and hypothesis checking. Its
  capillary vector is nonlinear for alpha != 0 and kinked where a
  product p_i p_j vanishes.

The three structural hypotheses are: (1) two-sided spectral bounds
``r |p|^2 <= Gamma^2(p) <= R |p|^2`` with r > 0, (2) linearity of the
capillary vector, (3) nonnegativity of ``p . (Gamma xi)(p)``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionError, DomainError, KinkError

QUADRATIC_FORM = "quadratic_form"
TAYLOR_CAHN = "taylor_cahn"


@dataclass(frozen=True)
class AnisotropyModel:
    kind: str
    dim: int
    matrix: Optional[np.ndarray] = None
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind == QUADRATIC_FORM:
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (self.dim, self.dim):
                raise DimensionError(f"matrix shape {m.shape} != ({self.dim}, {self.dim})")
            if np.max(np.abs(m - m.T)) > 1e-12:
                raise DomainError("quadratic-form matrix must be symmetric to 1e-12")
            object.__setattr__(self, "matrix", 0.5 * (m + m.T))
            self.matrix.setflags(write=False)
        elif self.kind == TAYLOR_CAHN:
            if self.dim != 3:
                raise DimensionError("the (alpha, beta) family is three-dimensional")
            if self.alpha <= -1 or self.beta <= -1:
                raise DomainError("alpha and beta must exceed -1")
        else:
            raise DomainError(f"unknown anisotropy kind {self.kind!r}")


def quadratic_form(matrix) -> AnisotropyModel:
    matrix = np.asarray(matrix, dtype=float)
    return AnisotropyModel(kind=QUADRATIC_FORM, dim=matrix.shape[0], matrix=matrix)


def taylor_cahn(alpha: float, beta: float) -> AnisotropyModel:
    return AnisotropyModel(kind=TAYLOR_CAHN, dim=3, alpha=float(alpha), beta=float(beta))


def taylor_cahn_matrix(beta: float) -> AnisotropyModel:
    """Quadratic-form model reproducing the alpha=0 cubic family.

    M = (1 + 6 beta) I - 2 beta J with J the all-ones 3x3 matrix; the
    eigenvalues are 1 (along (1,1,1)) and 1 + 6 beta (doubly). Validity
    is the caller's job via check_hypotheses; no threshold is baked in.
    """
    m = (1.0 + 6.0 * beta) * np.eye(3) - 2.0 * beta * np.ones((3, 3))
    return quadratic_form(m)


def _check_p(model, p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != model.dim:
        raise DimensionError(f"point dimension {p.shape[-1]} != model dimension {model.dim}")
    if not np.all(np.isfinite(p)):
        raise DomainError("non-finite input vector")
    return p


def gamma_sq(model: AnisotropyModel, p):
    """Squared surface-energy density Gamma^2(p); vectorized over leading axes."""
    p = _check_p(model, p)
    if model.kind == QUADRATIC_FORM:
        return np.einsum("...i,ij,...j->...", p, model.matrix, p)
    p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2]
    iso = p1**2 + p2**2 + p3**2
    cross = np.abs(p1 * p2) + np.abs(p1 * p3) + np.abs(p2 * p3)
    diff = (p1 - p2) ** 2 + (p1 - p3) ** 2 + (p2 - p3) ** 2
    return iso + 2.0 * model.alpha * cross + 2.0 * model.beta * diff


def xi_cap(model: AnisotropyModel, p):
    """Capillary vector (Gamma xi)(p) = 0.5 * grad_p Gamma^2(p).

    For quadratic forms this is M p. For the cubic family with
    alpha != 0 the map is kinked where any product p_i p_j vanishes and
    evaluation there raises instead of silently picking a subgradient.
    """
    p = _check_p(model, p)
    if model.kind == QUADRATIC_FORM:
        return np.einsum("ij,...j->...i", model.matrix, p)
    p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2]
    if model.alpha != 0.0:
        prods = np.stack([p1 * p2, p1 * p3, p2 * p3], axis=-1)
        bad = np.any(prods == 0.0, axis=-1)
        if np.any(bad):
            where = p[bad][0] if p.ndim > 1 else p
            raise KinkError(
                f"capillary vector is not differentiable at {np.asarray(where)} "
                "(a coordinate product vanishes and alpha != 0)",
                p=np.asarray(where),
            )
    a, b = model.alpha, model.beta
    s12, s13, s23 = np.sign(p1 * p2), np.sign(p1 * p3), np.sign(p2 * p3)
    out = np.empty_like(p)
    out[..., 0] = p1 + a * (s12 * p2 + s13 * p3) + 2 * b * (2 * p1 - p2 - p3)
    out[..., 1] = p2 + a * (s12 * p1 + s23 * p3) + 2 * b * (2 * p2 - p1 - p3)
    out[..., 2] = p3 + a * (s13 * p1 + s23 * p2) + 2 * b * (2 * p3 - p1 - p2)
    return out


def capillary_stress(model: AnisotropyModel, grad_phi):
    """Outer product (Gamma xi)(grad phi) (x) grad phi, entry (i, j) = xi_i p_j."""
    if model.kind != QUADRATIC_FORM:
        raise DomainError("capillary stress requires a quadratic-form model")
    p = _check_p(model, grad_phi)
    xi = xi_cap(model, p)
    return np.einsum("...i,...j->...ij", xi, p)


@dataclass(frozen=True)
class HypothesisReport:
    r: float
    R: float
    h1_holds: bool
    h2_holds: bool
    h3_holds: bool
    witness: Optional[np.ndarray] = None

    def all_hold(self) -> bool:
        return self.h1_holds and self.h2_holds and self.h3_holds

    def __str__(self):
        lines = [
            f"spectral bounds: r = {self.r:.12g}, R = {self.R:.12g}",
            f"H1 (positive two-sided bounds): {'holds' if self.h1_holds else 'FAILS'}",
            f"H2 (linear capillary vector):   {'holds' if self.h2_holds else 'FAILS'}",
            f"H3 (nonnegative p . xi):        {'holds' if self.h3_holds else 'FAILS'}",
        ]
        if self.witness is not None:
            lines.append(f"witness: {np.array2string(self.witness, precision=6)}")
        return "\n".join(lines)


def _ratio(model, p):
    return gamma_sq(model, p) / np.sum(p * p, axis=-1)


def check_hypotheses(model: AnisotropyModel, n_samples: int = 1000) -> HypothesisReport:
    """Verify the three structural hypotheses.

    Quadratic forms are handled exactly by a symmetric eigen-solve;
    the (alpha, beta) family is sampled on unit vectors with local
    refinement of the extreme Rayleigh-type ratios. Always returns a
    report; failures carry a witness.
    """
    if n_samples < 100:
        raise DomainError("n_samples must be at least 100")
    if model.kind == QUADRATIC_FORM:
        vals, vecs = np.linalg.eigh(model.matrix)
        r, big = float(vals[0]), float(vals[-1])
        h1 = r > 0.0
        h3 = r >= 0.0
        witness = None if h1 else vecs[:, 0].copy()
        return HypothesisReport(r=r, R=big, h1_holds=h1, h2_holds=True, h3_holds=h3, witness=witness)

    rng = np.random.default_rng(20240917)
    p = rng.standard_normal((n_samples, model.dim))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    ratios = _ratio(model, p)

    def refine(p0, sign):
        res = minimize(
            lambda q: sign * _ratio(model, q.reshape(-1)),
            p0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        return sign * res.fun, res.x / np.linalg.norm(res.x)

    r, p_min = refine(p[np.argmin(ratios)], +1.0)
    big, _ = refine(p[np.argmax(ratios)], -1.0)
    big = float(max(np.max(ratios), big))
    r = float(min(np.min(ratios), r))

    # H2: additivity of the capillary vector on generic sample pairs
    h2 = True
    witness = None
    q = rng.standard_normal((n_samples, model.dim))
    scale = np.maximum(np.linalg.norm(p, axis=1), np.linalg.norm(q, axis=1))
    try:
        gap = xi_cap(model, p + q) - xi_cap(model, p) - xi_cap(model, q)
        bad = np.linalg.norm(gap, axis=1) > 1e-10 * scale
        if np.any(bad):
            h2 = False
            i = int(np.argmax(bad))
            witness = np.stack([p[i], q[i]])
    except KinkError as err:
        h2 = False
        witness = err.p

    # H3 via the Euler identity p . xi = Gamma^2: nonnegativity of the form
    h3 = r >= 0.0
    h1 = r > 0.0
    if not h1 and witness is None:
        witness = p_min
    return HypothesisReport(r=r, R=big, h1_holds=h1, h2_holds=h2, h3_holds=h3, witness=witness)
