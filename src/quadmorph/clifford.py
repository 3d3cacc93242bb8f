"""Clifford systems: tuples of symmetric anticommuting square roots of I.

A system is n symmetric matrices P_1..P_n on an even-dimensional space with

    P_i P_j + P_j P_i = 2 delta_ij I.

This module verifies the relation, constructs irreducible systems at the
minimal dimensions, reduces a system to the eigenspace-split block form
(P_1 diagonal +/-I, the rest off-diagonal with orthogonal blocks), which is
core.eigenspace_split with D = I, tests irreducibility through the
closed-form symmetric commutant, and decides algebraic equivalence from
dimension and the trace of the ordered member product, with an orthogonal
conjugating certificate for equivalent systems.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    EIG_PAIR_TOL,
    TolerancePolicy,
    block_diag2,
    check_symmetric,
    eigenspace_split,
    identity_matrix,
    is_exact,
    pairwise_relation,
    rel_residual,
    square_matrices,
    to_float,
)
from .errors import AnticommutationViolated, ArityMismatch, OddDimension, ShapeMismatch
from .generators import skew_anticommuting_family

__all__ = [
    "CliffordSystem",
    "EquivalenceStatus",
    "EquivalenceVerdict",
    "verify_clifford",
    "check_clifford",
    "minimal_domain_dimension",
    "construct_irreducible",
    "direct_sum",
    "to_standard_representation",
    "is_irreducible",
    "symmetric_commutant_dimension",
    "algebraically_equivalent",
    "find_orthogonal_intertwiner",
]


@dataclass(frozen=True)
class CliffordSystem:
    two_m: int
    n: int
    matrices: tuple


class EquivalenceStatus(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: EquivalenceStatus
    certificate: Optional[np.ndarray]
    reason: str


# ---------------------------------------------------------------------------
# verification


def check_clifford(candidate, tol: TolerancePolicy = DEFAULT_TOLERANCES):
    """The checks of verify_clifford; returns (system, worst residuals), the
    residuals as {"max_relation_residual": ...}."""
    mats = square_matrices(candidate, "members")
    size = mats[0].shape[0]
    if size % 2 != 0:
        raise OddDimension(size)
    check_symmetric(mats, tol)
    eye = identity_matrix(size, exact=is_exact(mats[0]))
    worst, failure = pairwise_relation(mats, eye, tol=tol)
    if failure:
        raise AnticommutationViolated(*failure)
    system = CliffordSystem(two_m=size, n=len(mats), matrices=tuple(mats))
    return system, {"max_relation_residual": worst}


def verify_clifford(candidate, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> CliffordSystem:
    """Check the defining relations and return the validated system.

    Exact-mode inputs are checked with zero tolerance; float inputs within
    tol.identity_tol (relative Frobenius).
    """
    return check_clifford(candidate, tol)[0]


# ---------------------------------------------------------------------------
# construction


def minimal_domain_dimension(n: int) -> int:
    """Smallest m such that an irreducible system with n+1 members fits in 2m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = (1, 2, 4, 4, 8, 8, 8, 8)
    m = 1
    while n > 8:
        n -= 8
        m *= 16
    return m * base[n - 1]


def construct_irreducible(n: int) -> CliffordSystem:
    """An irreducible system of n+1 members on dimension 2*m(n), exact entries.

    The first n canonical members on the minimal space (identity, then the
    maximal skew family), doubled by osystem.to_clifford, whose one relation
    check covers theirs; minimality of the dimension forces irreducibility.
    """
    from .osystem import OSystem, to_clifford

    m = minimal_domain_dimension(n)
    members = ([identity_matrix(m)] + skew_anticommuting_family(m))[:n]
    return to_clifford(OSystem(m=m, n=n, matrices=tuple(members)))


def direct_sum(a: CliffordSystem, b: CliffordSystem) -> CliffordSystem:
    if a.n != b.n:
        raise ArityMismatch(f"operands have {a.n} and {b.n} members")
    summed = [block_diag2(x, y) for x, y in zip(a.matrices, b.matrices)]
    return verify_clifford(summed)


# ---------------------------------------------------------------------------
# standard representation


def to_standard_representation(cs: CliffordSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES):
    """Orthogonal A with A P_1 A^T = diag(I, -I) and the other members in
    off-diagonal block form; returns (A, the orthogonal block tuple as a
    validated O-system).

    This is core.eigenspace_split with D = I: inputs already in that shape
    pass through with A = I in their own mode.
    """
    from .osystem import verify_osystem

    if cs.n < 2:
        raise ValueError("need at least two members to split eigenspaces against")
    A, _, taus, defects = eigenspace_split(cs.matrices, tol)
    for idx, defect in enumerate(defects, start=2):
        if not defect <= 100 * tol.identity_tol:
            raise AnticommutationViolated(
                1, idx, defect,
                note="member does not anticommute with the first; cannot reach block form")
    return A, verify_osystem(taus, tol)


# ---------------------------------------------------------------------------
# irreducibility via the symmetric commutant


def _ordered_product_trace(mats) -> float:
    prod = mats[0]
    for P in mats[1:]:
        prod = prod @ P
    return float(np.trace(to_float(prod)))


def _commutant_dimension(cs: CliffordSystem, trace: float) -> int:
    """Symmetric commutant dimension of a verified system of n members on
    R^s whose ordered member product has the given trace t:

        (s^2 + t^2 + s * sum_k C(n, k) (-1)^(k(k-1)/2)) / 2^(n+1).

    This averages the character of Sym^2 R^s over the group of signed member
    products +-P_I; P_I squares to (-1)^(k(k-1)/2) I for |I| = k, and
    anticommutation makes every P_I traceless except I and P_1...P_n.
    """
    s, n, t = cs.two_m, cs.n, round(trace)
    signs = sum(math.comb(n, k) * (-1) ** (k * (k - 1) // 2) for k in range(n + 1))
    return (s * s + t * t + s * signs) // 2 ** (n + 1)


def symmetric_commutant_dimension(matrices, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Dimension of {S symmetric : S P = P S for every member P}.

    The members must form a Clifford system: they are verified first, so
    other input raises the verifier's VerificationError, and the dimension
    then follows in closed form from the member count, the size and the
    trace of the ordered member product.
    """
    cs = verify_clifford(matrices, tol)
    return _commutant_dimension(cs, _ordered_product_trace(cs.matrices))


def is_irreducible(cs: CliffordSystem) -> bool:
    """True iff only scalar multiples of I commute symmetrically with all members."""
    return _commutant_dimension(cs, _ordered_product_trace(cs.matrices)) == 1


# ---------------------------------------------------------------------------
# equivalence


def find_orthogonal_intertwiner(targets, sources, seed: int = 0) -> Optional[np.ndarray]:
    """Orthogonal R with targets[i] @ R = R @ sources[i] for all i, or None.

    Both lists hold the members of Clifford systems of one size, so the maps
    X -> T_i X S_i are commuting self-adjoint involutions and the product of
    the (I + (X -> T_i X S_i)) / 2 projects orthogonally onto the
    intertwiners.  That projection of one seeded Gaussian matrix is
    invertible whenever the systems are equivalent (almost surely), and its
    orthogonal polar factor intertwines as well.  Returns None when the
    result fails verification, which it always does for inequivalent
    systems.  Both lists must be the same nonzero length; an unconstrained
    search (no relations) is the caller's case.
    """
    if not targets or len(targets) != len(sources):
        raise ValueError("need matching nonempty target and source lists")
    pairs = [(to_float(T), to_float(S)) for T, S in zip(targets, sources)]
    m = pairs[0][1].shape[0]
    X = np.random.default_rng(seed).standard_normal((m, m))
    for T, S in pairs:
        X = (X + T @ X @ S) / 2
    u, s, vt = np.linalg.svd(X)
    if s[-1] <= 1e-10 * max(1.0, s[0]):
        return None  # not invertible enough to trust the polar factor
    R = u @ vt
    if all(rel_residual(T @ R, R @ S) <= EIG_PAIR_TOL for T, S in pairs):
        return R
    return None


def algebraically_equivalent(a: CliffordSystem, b: CliffordSystem,
                             tol: TolerancePolicy = DEFAULT_TOLERANCES,
                             seed: int = 0) -> EquivalenceVerdict:
    """Three-valued equivalence check with an explicit certificate on success.

    Dimension, member count and the trace of the ordered member product fix
    the class of a system, so differing symmetric commutant dimensions or
    product traces decide NOT_EQUIVALENT and agreeing ones mean the systems
    are equivalent.  The certificate is the orthogonal intertwiner of the
    members; UNKNOWN is reported only when it fails numerically.
    """
    if a.two_m != b.two_m or a.n != b.n:
        raise ShapeMismatch("systems must share dimension and member count")
    trace_a = _ordered_product_trace(a.matrices)
    trace_b = _ordered_product_trace(b.matrices)
    dim_a = _commutant_dimension(a, trace_a)
    dim_b = _commutant_dimension(b, trace_b)
    if dim_a != dim_b:
        return EquivalenceVerdict(
            EquivalenceStatus.NOT_EQUIVALENT, None,
            f"symmetric commutant dimensions differ ({dim_a} vs {dim_b})")
    if abs(trace_a - trace_b) > tol.identity_tol * max(1.0, abs(trace_a), abs(trace_b)):
        return EquivalenceVerdict(
            EquivalenceStatus.NOT_EQUIVALENT, None,
            f"ordered product traces differ ({trace_a:g} vs {trace_b:g})")
    R = find_orthogonal_intertwiner(b.matrices, a.matrices, seed)
    if R is None:
        return EquivalenceVerdict(EquivalenceStatus.UNKNOWN, None,
                                  "the projected intertwiner failed verification")
    worst = max(rel_residual(R @ to_float(P) @ R.T, to_float(Q))
                for P, Q in zip(a.matrices, b.matrices))
    if worst <= tol.identity_tol:
        return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, R,
                                  f"projected onto the intertwiners; certificate residual {worst:.3e}")
    return EquivalenceVerdict(EquivalenceStatus.UNKNOWN, None,
                              f"candidate conjugation failed verification ({worst:.3e})")
