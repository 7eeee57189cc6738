"""Quadratic surface-energy laws and their hypothesis checks.

The energy density is ``0.5 * gamma_sq(grad phi)`` with
``Gamma^2(p) = p^T M p`` for a symmetric matrix M. Gamma is then
degree-one homogeneous and the capillary vector ``(Gamma xi)(p) = M p``
is linear in p, which the dynamics need.

The three structural hypotheses are: (1) two-sided spectral bounds
``r |p|^2 <= Gamma^2(p) <= R |p|^2`` with r > 0, (2) linearity of the
capillary vector, (3) nonnegativity of ``p . (Gamma xi)(p)``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True)
class AnisotropyModel:
    """The quadratic form ``Gamma^2(p) = p^T M p``; M is stored symmetrized
    and read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"matrix shape {m.shape} is not square")
        if not np.all(np.isfinite(m)):
            raise DomainError("quadratic-form matrix has a non-finite entry")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise DomainError("quadratic-form matrix must be symmetric to 1e-12")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def quadratic_form(matrix) -> AnisotropyModel:
    return AnisotropyModel(matrix)


def taylor_cahn_matrix(beta: float) -> AnisotropyModel:
    """Quadratic-form model reproducing the alpha=0 cubic family.

    M = (1 + 6 beta) I - 2 beta J with J the all-ones 3x3 matrix; the
    eigenvalues are 1 (along (1,1,1)) and 1 + 6 beta (doubly). Validity
    is the caller's job via check_hypotheses; no threshold is baked in.
    """
    # an infinite beta makes NaN entries here, which quadratic_form refuses
    with np.errstate(invalid="ignore"):
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
    return np.einsum("...i,ij,...j->...", p, model.matrix, p)


def xi_cap(model: AnisotropyModel, p):
    """Capillary vector (Gamma xi)(p) = 0.5 * grad_p Gamma^2(p) = M p."""
    p = _check_p(model, p)
    return np.einsum("ij,...j->...i", model.matrix, p)


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


def check_hypotheses(model: AnisotropyModel) -> HypothesisReport:
    """Verify the three structural hypotheses by a symmetric eigen-solve.

    r and R are the extreme eigenvalues of M. H2 holds for every
    quadratic form, and H3 holds iff r >= 0, since p . M p = Gamma^2(p).
    Always returns a report; an H1 failure carries the eigenvector of r
    as its witness.
    """
    vals, vecs = np.linalg.eigh(model.matrix)
    r, big = float(vals[0]), float(vals[-1])
    h1 = r > 0.0
    h3 = r >= 0.0
    witness = None if h1 else vecs[:, 0].copy()
    return HypothesisReport(r=r, R=big, h1_holds=h1, h2_holds=True, h3_holds=h3, witness=witness)
