"""Clifford systems: tuples of symmetric anticommuting square roots of I.

A system is n symmetric matrices P_1..P_n on an even-dimensional space with

    P_i P_j + P_j P_i = 2 delta_ij I.

This module verifies the relation, constructs irreducible systems at the
minimal dimensions, reduces a system to the eigenspace-split block form
(P_1 diagonal +/-I, the rest off-diagonal with orthogonal blocks), which is
core.eigenspace_split with D = I behind P_1's own gates, decides
irreducibility from the dimension alone, gives the symmetric commutant
dimension in closed form, and decides algebraic equivalence from the trace
of the ordered member product alone, with an orthogonal certificate.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    IDENTITY_TOL,
    _orthogonal_relation,
    block_diag2,
    check_symmetric,
    eigenspace_split,
    frobenius,
    identity_matrix,
    is_exact,
    ordered_product,
    spectral_decompose,
    square_matrices,
    to_float,
)
from .errors import AnticommutationViolated, ArityMismatch, OddDimension, ShapeMismatch, UnbalancedEigenspaces
from .generators import minimal_domain_dimension, skew_anticommuting_family

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


def check_clifford(candidate, tol: float = IDENTITY_TOL):
    """The checks of verify_clifford; returns (system, worst residuals), the
    residuals as {"max_relation_residual": ...}."""
    mats = square_matrices(candidate, "members")
    size = mats[0].shape[0]
    if size % 2 != 0:
        raise OddDimension(size)
    check_symmetric(mats, tol)  # a Clifford system is an O-system of symmetric members
    worst, failure = _orthogonal_relation(mats, tol)
    if failure:
        raise AnticommutationViolated(*failure)
    system = CliffordSystem(two_m=size, n=len(mats), matrices=tuple(mats))
    return system, {"max_relation_residual": worst}


def verify_clifford(candidate, tol: float = IDENTITY_TOL) -> CliffordSystem:
    """Check the defining relations and return the validated system.

    Exact-mode inputs are checked with zero tolerance; float inputs within
    tol (relative Frobenius).
    """
    return check_clifford(candidate, tol)[0]


# ---------------------------------------------------------------------------
# construction


def construct_irreducible(n: int) -> CliffordSystem:
    """An irreducible system of n+1 members on dimension 2*m(n), exact entries.

    The first n canonical members on the minimal space (identity, then the
    maximal skew family), doubled by osystem.to_clifford, which checks them
    once at m x m; minimality of the dimension forces irreducibility.
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


def to_standard_representation(cs: CliffordSystem, tol: float = IDENTITY_TOL):
    """Orthogonal A with A P_1 A^T = diag(I, -I) and the other members in
    off-diagonal block form; returns (A, the orthogonal block tuple as a
    validated O-system).

    This is core.eigenspace_split with D = I: inputs already in that shape
    pass through with A = I in their own mode.  Gates and split read
    spectral_decompose(P_1), whose eigenvalues, exact on an exact diagonal,
    must split evenly by sign (UnbalancedEigenspaces) and be +-1, exactly
    when exact (AnticommutationViolated(1, 1)).
    """
    from .osystem import verify_osystem

    if cs.n < 2:
        raise ValueError("need at least two members to split eigenspaces against")
    sd = spectral_decompose(cs.matrices[0], tol)
    eigs = sd.eigenvalues
    pos, neg = int(np.sum(eigs > 0)), int(np.sum(eigs < 0))
    if 2 * pos != len(eigs) or 2 * neg != len(eigs):
        raise UnbalancedEigenspaces(f"eigenvalue signs split {pos}/{neg}")
    gap = (eigs.astype(object) if is_exact(eigs) else eigs) ** 2 - 1  # P_1^2 - I, diagonalized
    residual = frobenius(gap) / (1.0 if is_exact(gap) else max(1.0, math.sqrt(len(eigs))))
    if (np.any(gap) if is_exact(gap) else not residual <= tol):
        raise AnticommutationViolated(1, 1, residual, note="the first member's eigenvalues are not +-1")
    A, _, taus, defects = eigenspace_split(cs.matrices, sd)
    for idx, defect in enumerate(defects, start=2):
        if not defect <= 100 * tol:
            raise AnticommutationViolated(
                1, idx, defect, note="member does not anticommute with the first; cannot reach block form")
    return A, verify_osystem(taus, tol)


# ---------------------------------------------------------------------------
# irreducibility and the symmetric commutant


def _ordered_product_trace(mats) -> float:
    """Trace of Q = P_1 ... P_n for the members of a Clifford system.

    Q is traceless unless n = 1 (mod 4), so for other n this is 0.0 and no
    product is formed: for even n, Q anticommutes with P_1, so
    tr Q = tr(P_1 Q P_1) = -tr Q; for n = 3 (mod 4), Q^2 = -I, so Q's
    eigenvalues are +-i in conjugate pairs.  For n = 1 (mod 4) and exact
    members it is the float of the exact trace (ValueError beyond the
    float64 range, as in to_float)."""
    if len(mats) % 4 != 1:
        return 0.0
    prod = ordered_product(mats)
    if is_exact(prod):
        return float(to_float(np.array(sum(np.diagonal(prod).tolist()))))
    return float(np.trace(prod))


def symmetric_commutant_dimension(matrices, tol: float = IDENTITY_TOL) -> int:
    """Dimension of {S symmetric : S P = P S for every member P}.

    The members must form a Clifford system: they are verified first, so
    other input raises the verifier's VerificationError.  For n members on
    R^s whose ordered member product has trace t the dimension is

        (s^2 + t^2 + s * sum_k C(n, k) (-1)^(k(k-1)/2)) / 2^(n+1).

    This averages the character of Sym^2 R^s over the group of signed member
    products +-P_I; P_I squares to (-1)^(k(k-1)/2) I for |I| = k, and
    anticommutation makes every P_I traceless except I and P_1...P_n.  That
    last trace can be nonzero only for n = 1 (mod 4), so only then is the
    product formed; for other n, t = 0.
    """
    cs = verify_clifford(matrices, tol)
    s, n, t = cs.two_m, cs.n, round(_ordered_product_trace(cs.matrices))
    signs = sum(math.comb(n, k) * (-1) ** (k * (k - 1) // 2) for k in range(n + 1))
    return (s * s + t * t + s * signs) // 2 ** (n + 1)


def is_irreducible(cs: CliffordSystem) -> bool:
    """True iff only scalar multiples of I commute symmetrically with all members.

    Decided by the dimension alone.  The members are symmetric, so every
    invariant subspace has an invariant orthogonal complement and a system
    is an orthogonal direct sum of irreducible ones; every irreducible system
    of n >= 2 members lives on 2 * minimal_domain_dimension(n - 1), both
    classes included when there are two.  One member is never irreducible
    on an even dimension."""
    return _irreducible_shape(cs.n, cs.two_m)


def _irreducible_shape(n: int, two_m: int) -> bool:
    return n >= 2 and two_m == 2 * minimal_domain_dimension(n - 1)


# ---------------------------------------------------------------------------
# equivalence


@functools.lru_cache(maxsize=16)
def _seeded_start(seed: int, m: int) -> np.ndarray:
    """The seeded standard-normal m x m start of the projection, drawn once
    per (seed, m) and read-only: find_orthogonal_intertwiner projects a copy."""
    X = np.random.default_rng(seed).standard_normal((m, m))
    X.flags.writeable = False
    return X


def find_orthogonal_intertwiner(targets, sources, seed: int = 0) -> Optional[np.ndarray]:
    """Orthogonal R with targets[i] @ R = R @ sources[i] for all i, or None.

    Both hold the members of Clifford systems of one size, as lists or
    (n, m, m) stacks, so the maps X -> T_i X S_i are commuting self-adjoint
    involutions and the product of the (I + (X -> T_i X S_i)) / 2 projects
    orthogonally onto the intertwiners.  That projection X of one seeded
    Gaussian matrix is invertible whenever the systems are equivalent
    (almost surely), and its orthogonal polar factor intertwines as well.

    When the sources are irreducible (is_irreducible's dimension rule), the
    polar factor has a closed form: X X^T is symmetric and commutes with
    every target, so it is c I by Schur's lemma, with c = |X|_F^2 / m, and
    the polar factor is X / sqrt(c).  Two Newton-Schulz steps
    R <- R (1.5 I - 0.5 R^T R) then take the rounding and noise of float
    members out of R R^T - I.  Reducible sources take the polar factor
    from an SVD.  Returns None for a singular projection, as for
    inequivalent systems: sqrt(c) at most 1e-10 in the closed form, the
    least singular value at most 1e-10 * max(1, the largest) otherwise,
    and for a non-finite one, which the SVD cannot take.  On the closed
    form a projection whose norm overflows or holds a NaN gives a zero or
    NaN R, which the callers' certificate rejects.  The callers certify R
    (R S_i R^T = T_i, which is T_i R = R S_i for orthogonal R).  Both must
    be the same nonzero length (ValueError), with members square of one
    size (ShapeMismatch); an unconstrained search is the caller's.
    """
    if not len(targets) or len(targets) != len(sources):
        raise ValueError("need matching nonempty target and source lists")
    try:
        targets, sources = np.asarray(targets), np.asarray(sources)
    except ValueError:  # a list of members of two sizes, refused below
        targets = sources = np.empty(0)
    targets, sources = to_float(targets), to_float(sources)
    if sources.ndim != 3 or targets.shape != sources.shape or sources.shape[1] != sources.shape[2]:
        raise ShapeMismatch("targets and sources must be square matrices of one size")
    m = sources.shape[-1]
    X = _seeded_start(seed, m).copy()
    TX, Y = np.empty_like(X), np.empty_like(X)
    for T, S in zip(targets, sources):
        # X = (X + T @ X @ S) / 2 in place; halving is exact
        np.matmul(T, X, out=TX)
        np.matmul(TX, S, out=Y)
        X += Y
        X *= 0.5
    if _irreducible_shape(len(sources), m):
        root_c = math.sqrt(np.vdot(X, X) / m)
        if root_c <= 1e-10:
            return None  # not invertible enough to trust the polar factor
        R = X / root_c
        for _ in range(2):
            R = R @ (1.5 * np.eye(m) - 0.5 * (R.T @ R))
        return R
    if not np.all(np.isfinite(X)):
        return None  # a NaN or inf entry, which the SVD cannot take
    u, s, vt = np.linalg.svd(X)
    if s[-1] <= 1e-10 * max(1.0, s[0]):
        return None  # not invertible enough to trust the polar factor
    return u @ vt


def algebraically_equivalent(a: CliffordSystem, b: CliffordSystem,
                             tol: float = IDENTITY_TOL,
                             seed: int = 0) -> EquivalenceVerdict:
    """Three-valued equivalence check with an explicit certificate on success.

    Dimension, member count and the trace of the ordered member product fix
    the class of a system, so differing product traces decide NOT_EQUIVALENT
    and agreeing ones mean the systems are equivalent.  The traces are
    formed only for n = 1 (mod 4) members: for other n both are 0 by the
    Clifford relation, which the inputs are trusted to satisfy, and the
    certificate decides.  Differing symmetric commutant dimensions need no
    check of their own: the dimension is a function of round(trace)^2, so
    their traces lie at least 1 apart, which any tol below 1 / two_m
    rejects, and the reason names the traces.  Both traces are exact for
    exact members (core.ordered_product never wraps).  The certificate is
    the orthogonal intertwiner of the members, checked once here at tol on
    one float64 stack per system; UNKNOWN is reported only when it fails
    numerically, a NaN residual included.
    """
    if a.two_m != b.two_m or a.n != b.n:
        raise ShapeMismatch("systems must share dimension and member count")
    trace_a = _ordered_product_trace(a.matrices)
    trace_b = _ordered_product_trace(b.matrices)
    if trace_a != trace_b and abs(trace_a - trace_b) > tol * max(1.0, abs(trace_a), abs(trace_b)):
        return EquivalenceVerdict(
            EquivalenceStatus.NOT_EQUIVALENT, None,
            f"ordered product traces differ ({trace_a:g} vs {trace_b:g})")
    stack_a, stack_b = to_float(np.asarray(a.matrices)), to_float(np.asarray(b.matrices))
    R = find_orthogonal_intertwiner(stack_b, stack_a, seed)
    if R is None:
        return EquivalenceVerdict(EquivalenceStatus.UNKNOWN, None,
                                  "the projected intertwiner failed verification")
    # rel_residual per member, bit for bit, on the rows of one stacked difference
    diff = R @ stack_a @ R.T - stack_b
    worst = float(np.max([frobenius(d) / max(1.0, frobenius(Q)) for d, Q in zip(diff, stack_b)]))
    if worst <= tol:
        return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, R,
                                  f"projected onto the intertwiners; certificate residual {worst:.3e}")
    return EquivalenceVerdict(EquivalenceStatus.UNKNOWN, None,
                              f"candidate conjugation failed verification ({worst:.3e})")
