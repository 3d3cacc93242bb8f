"""Clifford systems: tuples of symmetric anticommuting square roots of I.

A system is n symmetric matrices P_1..P_n on an even-dimensional space with

    P_i P_j + P_j P_i = 2 delta_ij I.

This module verifies the relation, constructs irreducible systems at the
minimal dimensions, reduces a system to the eigenspace-split block form
(P_1 diagonal +/-I, the rest off-diagonal with orthogonal blocks), tests
irreducibility through the symmetric commutant, and decides algebraic
equivalence partially, producing an explicit conjugating certificate when
it succeeds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    as_matrix,
    check_symmetric,
    common_mode,
    frobenius,
    identity_matrix,
    is_exact,
    block_diag2,
    in_off_diagonal_form,
    pairwise_relation,
    rel_residual,
    spectral_decompose,
    square_matrices,
    symmetric_pair_index,
    nullspace_dimension_exact,
    to_float,
)
from .errors import (
    AnticommutationViolated,
    ArityMismatch,
    OddDimension,
    ShapeMismatch,
    UnbalancedEigenspaces,
)

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

    Built from the first n members of the maximal anticommuting family on the
    minimal space; minimality of the dimension forces irreducibility.
    """
    from .osystem import construct_range_maximal, sub_system, to_clifford

    m = minimal_domain_dimension(n)
    family = construct_range_maximal(m)
    return to_clifford(sub_system(family, range(n)))


def direct_sum(a: CliffordSystem, b: CliffordSystem) -> CliffordSystem:
    if a.n != b.n:
        raise ArityMismatch(f"operands have {a.n} and {b.n} members")
    summed = [block_diag2(x, y) for x, y in zip(a.matrices, b.matrices)]
    return verify_clifford(summed)


# ---------------------------------------------------------------------------
# standard representation


def _is_standard_form(mats) -> bool:
    eye = identity_matrix(mats[0].shape[0] // 2)
    return (np.array_equal(to_float(mats[0]), to_float(block_diag2(eye, -eye)))
            and in_off_diagonal_form(mats[1:], eye.shape[0]))


def to_standard_representation(cs: CliffordSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES):
    """Orthogonal A with A P_1 A^T = diag(I, -I) and the other members in
    off-diagonal block form; returns (A, the orthogonal block tuple as a
    validated O-system).

    Inputs already in that shape pass through with A = I and exact blocks.
    """
    from .osystem import verify_osystem

    if cs.n < 2:
        raise ValueError("need at least two members to split eigenspaces against")
    size = cs.two_m
    m = size // 2
    if _is_standard_form(cs.matrices):
        taus = [M[:m, m:].copy() for M in cs.matrices[1:]]
        A = identity_matrix(size, exact=is_exact(cs.matrices[0]))
        return A, verify_osystem(taus, tol)
    sd = spectral_decompose(cs.matrices[0], tol)
    if np.sum(sd.eigenvalues > 0) != m or np.sum(sd.eigenvalues < 0) != m:
        raise UnbalancedEigenspaces(
            f"eigenvalue signs split {int(np.sum(sd.eigenvalues > 0))}/{int(np.sum(sd.eigenvalues < 0))}"
        )
    A = sd.eigenvectors.T
    taus = []
    for idx, P in enumerate(cs.matrices[1:], start=2):
        M = A @ to_float(P) @ A.T
        diag_defect = max(frobenius(M[:m, :m]), frobenius(M[m:, m:])) / max(1.0, frobenius(M))
        if diag_defect > 100 * tol.identity_tol:
            raise AnticommutationViolated(
                1, idx, diag_defect,
                note="member does not anticommute with the first; cannot reach block form")
        taus.append(M[:m, m:])
    return A, verify_osystem(taus, tol)


# ---------------------------------------------------------------------------
# irreducibility via the symmetric commutant


def symmetric_commutant_dimension(matrices, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Dimension of {S symmetric : S P = P S for every member P}.

    Exact inputs go through sparse rational elimination; float inputs through
    a dense nullspace by singular values.  For symmetric P the commutator
    S P - P S is skew, so only the strictly upper equations are generated.
    """
    mats = list(common_mode(*[as_matrix(M) for M in matrices]))
    size = mats[0].shape[0]
    index = symmetric_pair_index(size)
    if is_exact(mats[0]):
        rows = []
        for P in mats:
            for i in range(size):
                for j in range(i + 1, size):
                    row = {}
                    for a in range(size):
                        pa = P[a, j]
                        if pa:
                            k = index[(min(i, a), max(i, a))]
                            row[k] = row.get(k, 0) + Fraction(pa)
                        pb = P[i, a]
                        if pb:
                            k = index[(min(a, j), max(a, j))]
                            row[k] = row.get(k, 0) - Fraction(pb)
                    if row:
                        rows.append(row)
        return nullspace_dimension_exact(rows, len(index))
    rows = []
    for P in mats:
        Pf = to_float(P)
        for i in range(size):
            for j in range(i + 1, size):
                row = np.zeros(len(index))
                for a in range(size):
                    row[index[(min(i, a), max(i, a))]] += Pf[a, j]
                    row[index[(min(a, j), max(a, j))]] -= Pf[i, a]
                rows.append(row)
    system = np.array(rows)
    s = np.linalg.svd(system, compute_uv=False)
    rank = int(np.sum(s > tol.rank_tol * s[0])) if s.size and s[0] > 0 else 0
    return len(index) - rank


def is_irreducible(cs: CliffordSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> bool:
    """True iff only scalar multiples of I commute symmetrically with all members."""
    return symmetric_commutant_dimension(cs.matrices, tol) == 1


# ---------------------------------------------------------------------------
# equivalence


def _ordered_product_trace(cs: CliffordSystem) -> float:
    prod = cs.matrices[0]
    for P in cs.matrices[1:]:
        prod = prod @ P
    return float(np.trace(to_float(prod)))


def find_orthogonal_intertwiner(targets, sources, tol: TolerancePolicy = DEFAULT_TOLERANCES,
                                seed: int = 0, attempts: int = 8) -> Optional[np.ndarray]:
    """Search for orthogonal R with targets[i] @ R = R @ sources[i] for all i.

    Computes the full intertwiner space {X : T X = X S} as an SVD nullspace,
    then takes the orthogonal polar factor of the projection of the identity
    onto that space, falling back to seeded random combinations.  Returns None
    when no verified orthogonal intertwiner is found (including the provably
    empty case, where none exists).  Both lists must be the same nonzero
    length; an unconstrained search (no relations) is the caller's case.
    """
    if not targets or len(targets) != len(sources):
        raise ValueError("need matching nonempty target and source lists")
    m = sources[0].shape[0]
    blocks = [np.kron(np.eye(m), to_float(T)) - np.kron(to_float(S).T, np.eye(m))
              for T, S in zip(targets, sources)]
    stacked = np.vstack(blocks)
    _, svals, vt = np.linalg.svd(stacked)
    cutoff = max(1.0, svals[0]) * 1e-10 if svals.size else 0.0
    rank = int(np.sum(svals > cutoff))
    null = vt[rank:]
    if null.shape[0] == 0:
        return None
    # rows of null are an orthonormal basis of vec'd intertwiners
    basis = [null[k].reshape((m, m), order="F") for k in range(null.shape[0])]
    eye_flat = np.eye(m).flatten(order="F")
    candidates = [sum((null[k] @ eye_flat) * basis[k] for k in range(len(basis)))]
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        coeffs = rng.standard_normal(len(basis))
        candidates.append(sum(c * B for c, B in zip(coeffs, basis)))
    for X in candidates:
        u, s, vtx = np.linalg.svd(X)
        if s.size == 0 or s[-1] <= 1e-10 * max(1.0, s[0]):
            continue  # not invertible enough to trust the polar factor
        R = u @ vtx
        ok = all(rel_residual(to_float(T) @ R, R @ to_float(S)) <= tol.eig_pair_tol
                 for T, S in zip(targets, sources))
        if ok:
            return R
    return None


def _normalized_products(taus):
    first = to_float(taus[0])
    return [to_float(t) @ first.T for t in taus[1:]]


def algebraically_equivalent(a: CliffordSystem, b: CliffordSystem,
                             tol: TolerancePolicy = DEFAULT_TOLERANCES,
                             seed: int = 0) -> EquivalenceVerdict:
    """Three-valued equivalence check with an explicit certificate on success.

    Cheap conjugation invariants (symmetric commutant dimension, trace of the
    ordered member product) decide the negative direction.  The positive
    direction reduces both systems to block form, cancels the two-sided
    freedom of that reduction by passing to the products tau_i tau_1^T, and
    searches for an orthogonal intertwiner, which lifts to a full conjugation.
    Anything unresolved is reported as unknown, never guessed.
    """
    if a.two_m != b.two_m or a.n != b.n:
        raise ShapeMismatch("systems must share dimension and member count")
    dim_a = symmetric_commutant_dimension(a.matrices, tol)
    dim_b = symmetric_commutant_dimension(b.matrices, tol)
    if dim_a != dim_b:
        return EquivalenceVerdict(
            EquivalenceStatus.NOT_EQUIVALENT, None,
            f"symmetric commutant dimensions differ ({dim_a} vs {dim_b})")
    trace_a = _ordered_product_trace(a)
    trace_b = _ordered_product_trace(b)
    if abs(trace_a - trace_b) > tol.identity_tol * max(1.0, abs(trace_a), abs(trace_b)):
        return EquivalenceVerdict(
            EquivalenceStatus.NOT_EQUIVALENT, None,
            f"ordered product traces differ ({trace_a:g} vs {trace_b:g})")
    if a.n == 1:
        sd_a = spectral_decompose(a.matrices[0], tol)
        sd_b = spectral_decompose(b.matrices[0], tol)
        cert = sd_b.eigenvectors @ sd_a.eigenvectors.T
        return _certified(a, b, cert, tol, "eigenvalue multiplicities match")
    coords_a, os_a = to_standard_representation(a, tol)
    coords_b, os_b = to_standard_representation(b, tol)
    sources = _normalized_products(os_a.matrices)
    targets = _normalized_products(os_b.matrices)
    if sources:
        R = find_orthogonal_intertwiner(targets, sources, tol, seed)
        if R is None:
            # distinguish a provably empty intertwiner space from search failure
            stacked = np.vstack([np.kron(np.eye(os_a.m), T) - np.kron(S.T, np.eye(os_a.m))
                                 for T, S in zip(targets, sources)])
            svals = np.linalg.svd(stacked, compute_uv=False)
            nullity = int(np.sum(svals <= max(1.0, svals[0]) * 1e-10)) + stacked.shape[1] - len(svals)
            if nullity == 0:
                return EquivalenceVerdict(
                    EquivalenceStatus.NOT_EQUIVALENT, None,
                    "normalized reductions admit no intertwiner")
            return EquivalenceVerdict(
                EquivalenceStatus.UNKNOWN, None,
                "no orthogonal intertwiner found in the candidate search")
    else:
        R = np.eye(os_a.m)
    t1 = to_float(os_a.matrices[0])
    s1 = to_float(os_b.matrices[0])
    right = t1.T @ R.T @ s1  # the S^T of the two-sided move tau -> R tau S^T
    block = np.zeros((a.two_m, a.two_m))
    mhalf = a.two_m // 2
    block[:mhalf, :mhalf] = R
    block[mhalf:, mhalf:] = right.T
    cert = to_float(coords_b).T @ block @ to_float(coords_a)
    return _certified(a, b, cert, tol, "aligned through block-form reduction")


def _certified(a, b, cert, tol, how) -> EquivalenceVerdict:
    worst = max(rel_residual(cert @ to_float(P) @ cert.T, to_float(Q))
                for P, Q in zip(a.matrices, b.matrices))
    if worst <= tol.identity_tol:
        return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, cert,
                                  f"{how}; certificate residual {worst:.3e}")
    return EquivalenceVerdict(EquivalenceStatus.UNKNOWN, None,
                              f"candidate conjugation failed verification ({worst:.3e})")
