"""Orthogonal multiplications: bilinear maps that multiply norms.

A multiplication is stored through its coefficient slices: slice i is the
matrix sending y to the i-th block of mu(e_i, y), so mu(x, y) = sum_i x_i *
(slices[i] @ y).  Norm preservation |mu(x, y)| = |x| |y| polarizes to the
slice identities s_i^T s_j + s_j^T s_i = 2 delta_ij I, which verification
checks for every slice shape; measure only reports sampled norm defects.

The square case is interchangeable with orthogonal member tuples, and every
multiplication with matching factor and output dimensions induces a
quadratic harmonic morphism on the doubled space (the Hopf construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import osystem as _osystem
from .core import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    as_matrix,
    common_mode,
    identity_matrix,
    is_exact,
    pairwise_relation,
    sample_points,
    symmetric_off_diagonal,
    to_float,
    to_point,
)
from .errors import DimensionMismatch, NotNormPreserving, NotSquare, ShapeMismatch, UnsupportedDimension
from .generators import left_multiplication_matrix

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
    samples: int


def multiply(mu: OrthogonalMultiplication, x, y) -> np.ndarray:
    xv, yv = to_point(x), to_point(y)
    if xv.shape[0] != mu.p or yv.shape[0] != mu.q:
        raise DimensionMismatch(
            f"expected factors of dimension {mu.p} and {mu.q}, "
            f"got {xv.shape[0]} and {yv.shape[0]}")
    out = np.zeros(mu.n_out)
    for xi, s in zip(xv, mu.slices):
        out += xi * (to_float(s) @ yv)
    return out


def check_orthomul(candidate_slices, tol: TolerancePolicy = DEFAULT_TOLERANCES):
    """The checks of verify_orthomul; returns (multiplication, worst
    residuals), the residuals as {"max_norm_defect": ...}."""
    mats = [as_matrix(s) for s in candidate_slices]
    if not mats:
        raise ShapeMismatch("a multiplication needs at least one slice")
    d, q = mats[0].shape if mats[0].ndim == 2 else (0, 0)
    if any(s.ndim != 2 or s.shape != (d, q) for s in mats):
        raise ShapeMismatch("all slices must share one shape")
    mats = list(common_mode(*mats))
    eye = identity_matrix(q, exact=is_exact(mats[0]))
    worst, failure = pairwise_relation(mats, eye, transpose=True, tol=tol)
    if failure:
        raise NotNormPreserving(*failure)
    mu = OrthogonalMultiplication(p=len(mats), q=q, n_out=d, slices=tuple(mats))
    return mu, {"max_norm_defect": worst}


def verify_orthomul(candidate_slices,
                    tol: TolerancePolicy = DEFAULT_TOLERANCES) -> OrthogonalMultiplication:
    """Validate d x q coefficient slices as a norm-preserving multiplication
    through the slice identities with I = I_q: bit for bit on exact slices,
    within tol.identity_tol (relative Frobenius) on float ones."""
    return check_orthomul(candidate_slices, tol)[0]


def measure(mu: OrthogonalMultiplication, samples: int = 64, seed: int = 0,
            tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MultiplicationReport:
    """Sampled norm defects |mu(x, y)| - |x| |y| at seeded pairs, as a
    report; no verifier consults it."""
    floats = np.stack([to_float(s) for s in mu.slices])
    X = sample_points(mu.p, samples, seed)
    Y = sample_points(mu.q, samples, seed + 1)
    # mu(x, y)_d = sum_q (sum_i x_i slices[i])_dq y_q, the sum over i as one product
    prods = (X @ floats.reshape(mu.p, -1)).reshape(samples, mu.n_out, mu.q)
    prods *= Y[:, None, :]
    prods = prods.sum(axis=-1)
    lhs = np.sqrt(np.sum(prods * prods, axis=1))
    rhs = np.sqrt(np.sum(X * X, axis=1) * np.sum(Y * Y, axis=1))
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)))
    exact = is_exact(mu.slices[0]) and mu.q == mu.n_out
    return MultiplicationReport(norm_preserving=worst <= tol.identity_tol,
                                max_defect=worst, exact=exact, samples=samples)


def from_osystem(os, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> OrthogonalMultiplication:
    """Members of an orthogonal tuple become the coefficient slices."""
    return verify_orthomul(os.matrices, tol)


def to_osystem(mu: OrthogonalMultiplication,
               tol: TolerancePolicy = DEFAULT_TOLERANCES):
    """Square multiplications viewed as orthogonal member tuples."""
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
    slices = tuple(left_multiplication_matrix(n, i) for i in range(n))
    return OrthogonalMultiplication(p=n, q=n, n_out=n, slices=slices)


def hopf_construction(mu: OrthogonalMultiplication,
                      tol: TolerancePolicy = DEFAULT_TOLERANCES):
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
