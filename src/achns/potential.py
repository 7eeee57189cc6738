"""Logarithmic mixing potential and its smooth quadratic extension.

The physical potential on (-1, 1) is

    F(s) = (l1/2)(1 - s^2) + G(s),
    G(s) = (l2/2) [ (1+s) ln((1+s)/2) + (1-s) ln((1-s)/2) ],

with 0 < l2 < l1. Simulation uses the C^2 extension F_eps defined on
all of R: G is replaced outside [-(1-eps), 1-eps] by its second-order
Taylor polynomial about the nearest knot, which keeps the extension
concave-corrected and quadratic at infinity. The admissible range of
eps is (0, 1 - sqrt(1 - l2/l1)); inside it the outer branch of F_eps
has strictly positive curvature.

All evaluators are vectorized and accept scalars or arrays.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PotentialSpec:
    lambda1: float
    lambda2: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.lambda2 < self.lambda1):
            raise DomainError(
                f"need 0 < lambda2 < lambda1, got lambda1={self.lambda1}, lambda2={self.lambda2}"
            )
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"eps must lie in (0, 1), got {self.eps}")

    @property
    def knot(self) -> float:
        return 1.0 - self.eps


def eps_threshold(lambda1: float, lambda2: float) -> float:
    """Upper end of the admissible regularization range."""
    return 1.0 - np.sqrt(1.0 - lambda2 / lambda1)


def validate_eps(spec: PotentialSpec) -> bool:
    return 0.0 < spec.eps < eps_threshold(spec.lambda1, spec.lambda2)


def _as_array(s):
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DomainError("non-finite input")
    return s


def _elementwise(fn):
    """fn(spec, s) on s as a finite float array; a scalar s gives a float."""
    @functools.wraps(fn)
    def wrapped(spec, s):
        out = fn(spec, _as_array(s))
        return float(out) if np.ndim(s) == 0 else out
    return wrapped


def _g(l2, t):
    """G at t in (-1, 1), for l2 = lambda2."""
    return 0.5 * l2 * ((1 + t) * np.log((1 + t) / 2) + (1 - t) * np.log((1 - t) / 2))


# --- the singular potential on (-1, 1) -------------------------------------

def _inside(s):
    if np.any(np.abs(s) >= 1.0):
        raise DomainError("logarithmic potential is defined for |s| < 1")
    return s


@_elementwise
def g_log(spec, s):
    return _g(spec.lambda2, _inside(s))


@_elementwise
def g_log_prime(spec, s):
    s = _inside(s)
    return 0.5 * spec.lambda2 * np.log((1 + s) / (1 - s))


@_elementwise
def f_log(spec, s):
    return 0.5 * spec.lambda1 * (1 - s ** 2) + g_log(spec, s)


@_elementwise
def f_log_prime(spec, s):
    return -spec.lambda1 * s + g_log_prime(spec, s)


# --- the C^2 extension ------------------------------------------------------

def _branches(spec, s):
    """G is kept for |s| <= knot and replaced outside by its Taylor
    polynomial about the knot, by the symmetry G(-s) = G(s). Returns the
    interior mask, |s| there and 0 outside it (where the logs stay
    finite), and the offset |s| - knot of the outer branch."""
    t = np.abs(s)
    inner = t <= spec.knot
    return inner, np.where(inner, t, 0.0), t - spec.knot


# G' and G'' at the knot
def _knot_first(spec):
    return 0.5 * spec.lambda2 * np.log((2 - spec.eps) / spec.eps)


def _knot_second(spec):
    return spec.lambda2 / (spec.eps * (2 - spec.eps))


@_elementwise
def f_eps(spec, s):
    inner, ti, d = _branches(spec, s)
    eps = spec.eps
    ga = 0.5 * spec.lambda2 * ((2 - eps) * np.log((2 - eps) / 2) + eps * np.log(eps / 2))
    go = ga + _knot_first(spec) * d + 0.5 * _knot_second(spec) * d * d
    return 0.5 * spec.lambda1 * (1 - s * s) + np.where(inner, _g(spec.lambda2, ti), go)


@_elementwise
def f_eps_prime(spec, s):
    inner, ti, d = _branches(spec, s)
    gpo = _knot_first(spec) + _knot_second(spec) * d
    gpi = 0.5 * spec.lambda2 * np.log((1 + ti) / (1 - ti))
    return -spec.lambda1 * s + np.sign(s) * np.where(inner, gpi, gpo)


@_elementwise
def f_eps_second(spec, s):
    inner, ti, _ = _branches(spec, s)
    return -spec.lambda1 + np.where(inner, spec.lambda2 / (1 - ti * ti), _knot_second(spec))

