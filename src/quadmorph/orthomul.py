"""Orthogonal multiplications: bilinear maps that multiply norms.

A multiplication is stored through its coefficient slices: slice i is the
matrix sending y to the i-th block of mu(e_i, y), so mu(x, y) = sum_i x_i *
(slices[i] @ y).  Norm preservation |mu(x, y)| = |x| |y| polarizes to the
slice identities s_i^T s_j + s_j^T s_i = 2 delta_ij I, which verification
checks for every slice shape; measure reports the same residual without
raising.

The square case is interchangeable with orthogonal member tuples, and every
multiplication with matching factor and output dimensions induces a
quadratic harmonic morphism on the doubled space (the Hopf construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import osystem as _osystem
from .core import (
    IDENTITY_TOL,
    _orthogonal_relation,
    as_matrix,
    common_mode,
    is_exact,
    symmetric_off_diagonal,
    to_float,
    to_point,
)
from .errors import DimensionMismatch, NotNormPreserving, NotSquare, ShapeMismatch, UnsupportedDimension
from .generators import left_multiplication_matrices

__all__ = [
    "OrthogonalMultiplication",
    "MultiplicationReport",
    "verify_orthomul",
    "check_orthomul",
    "multiply",
    "from_osystem",
    "to_osystem",
    "standard_multiplication",
    "hopf_construction",
]


@dataclass(frozen=True)
class OrthogonalMultiplication:
    """Bilinear norm multiplier R^p x R^q -> R^d with d = n_out.

    slices[i] is the d x q matrix of y -> mu(e_i, y).
    """

    p: int
    q: int
    n_out: int
    slices: tuple


@dataclass(frozen=True)
class MultiplicationReport:
    norm_preserving: bool
    max_defect: float
    exact: bool


@np.errstate(over="ignore", invalid="ignore")
def multiply(mu: OrthogonalMultiplication, x, y) -> np.ndarray:
    """mu(x, y), with inf or NaN entries beyond the float64 range."""
    xv, yv = to_point(x), to_point(y)
    if xv.shape[0] != mu.p or yv.shape[0] != mu.q:
        raise DimensionMismatch(
            f"expected factors of dimension {mu.p} and {mu.q}, "
            f"got {xv.shape[0]} and {yv.shape[0]}")
    out = np.zeros(mu.n_out)
    for xi, s in zip(xv, mu.slices):
        out += xi * (to_float(s) @ yv)
    return out


def check_orthomul(candidate_slices, tol: float = IDENTITY_TOL):
    """The checks of verify_orthomul; returns (multiplication, worst
    residuals), the residuals as {"max_norm_defect": ...}."""
    mats = [as_matrix(s) for s in candidate_slices]
    if not mats:
        raise ShapeMismatch("a multiplication needs at least one slice")
    d, q = mats[0].shape if mats[0].ndim == 2 else (0, 0)
    if any(s.ndim != 2 or s.shape != (d, q) for s in mats):
        raise ShapeMismatch("all slices must share one shape")
    mats = list(common_mode(*mats))
    worst, failure = _orthogonal_relation(mats, tol)
    if failure:
        raise NotNormPreserving(*failure)
    mu = OrthogonalMultiplication(p=len(mats), q=q, n_out=d, slices=tuple(mats))
    return mu, {"max_norm_defect": worst}


def verify_orthomul(candidate_slices,
                    tol: float = IDENTITY_TOL) -> OrthogonalMultiplication:
    """Validate d x q coefficient slices as a norm-preserving multiplication
    through the slice identities with I = I_q: bit for bit on exact slices,
    within tol (relative Frobenius) on float ones."""
    return check_orthomul(candidate_slices, tol)[0]


def measure(mu: OrthogonalMultiplication,
            tol: float = IDENTITY_TOL) -> MultiplicationReport:
    """The slice identities of a multiplication as a report: max_defect is
    the worst residual, check_orthomul's max_norm_defect, or on slices that
    fail them the failing pair's residual, with norm_preserving False."""
    worst, failure = _orthogonal_relation(list(mu.slices), tol)
    return MultiplicationReport(norm_preserving=failure is None,
                                max_defect=failure[2] if failure else worst,
                                exact=is_exact(mu.slices[0]))


def from_osystem(os, tol: float = IDENTITY_TOL) -> OrthogonalMultiplication:
    """Members of an orthogonal tuple become the coefficient slices, which
    are verified as a multiplication (verify_orthomul)."""
    return verify_orthomul(os.matrices, tol)


def to_osystem(mu: OrthogonalMultiplication,
               tol: float = IDENTITY_TOL):
    """Square multiplications viewed as orthogonal member tuples, which are
    verified as an O-system (verify_osystem)."""
    if mu.q != mu.n_out:
        raise NotSquare(f"slices are {mu.n_out} x {mu.q}; need square slices")
    return _osystem.verify_osystem(mu.slices, tol)


def standard_multiplication(n: int) -> OrthogonalMultiplication:
    """Real, complex, quaternion or octonion multiplication on R^n.

    Slice i is the left-multiplication matrix of the i-th basis unit, so the
    entries are 0 and +-1 and the multiplication is exact.
    """
    if n not in (1, 2, 4, 8):
        raise UnsupportedDimension(
            f"norm-multiplying products with equal dimensions exist only for "
            f"n in (1, 2, 4, 8), not {n}")
    slices = tuple(left_multiplication_matrices(n))
    return OrthogonalMultiplication(p=n, q=n, n_out=n, slices=slices)


def hopf_construction(mu: OrthogonalMultiplication,
                      tol: float = IDENTITY_TOL):
    """Quadratic map (|x|^2 - |y|^2, 2 mu(x, y)) on R^(p+q) as a verified
    harmonic morphism; requires p = q so the first component stays conformal
    with the rest."""
    from . import qhm as _qhm

    if mu.p != mu.q:
        raise ShapeMismatch(
            f"the doubled map needs equal factor dimensions, got {mu.p} and {mu.q}")
    stack = np.stack(common_mode(*[as_matrix(s) for s in mu.slices]))
    first = np.diag([1] * mu.p + [-1] * mu.q).astype(stack.dtype)
    # component k + 1 couples x and y through the p x q matrix of mu(., .)_k
    later = [symmetric_off_diagonal(stack[:, k, :]) for k in range(mu.n_out)]
    return _qhm.verify_qhm([first] + later, tol)
