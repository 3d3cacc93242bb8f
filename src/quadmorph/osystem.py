"""O-systems: tuples of orthogonal matrices with anticommuting transposes.

A system is n orthogonal matrices tau_1..tau_n on R^m with

    tau_i^T tau_j + tau_j^T tau_i = 2 delta_ij I.

The maximal n for given m is the classical Radon-Hurwitz number sigma(m),
computed here from the unique factorization m = (2r+1) 2^(c+4d) with
0 <= c <= 3 as sigma = 2^c + 8d.  The module verifies the relation, builds
range-maximal integer families, moves back and forth to Clifford systems
(one extra member, doubled dimension), and provides transpose, subset and
direct-sum closure operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import CliffordSystem, to_standard_representation, verify_clifford
from .core import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    block_diag2,
    identity_matrix,
    is_exact,
    pairwise_relation,
    square_matrices,
    symmetric_off_diagonal,
)
from .errors import AnticommutationViolated, ArityMismatch, BadIndices, NotOrthogonal
from .generators import skew_anticommuting_family

__all__ = [
    "OSystem",
    "SigmaDecomposition",
    "verify_osystem",
    "check_osystem",
    "hurwitz_radon",
    "construct_range_maximal",
    "from_clifford",
    "to_clifford",
    "transpose_system",
    "sub_system",
    "direct_sum",
]


@dataclass(frozen=True)
class OSystem:
    m: int
    n: int
    matrices: tuple


@dataclass(frozen=True)
class SigmaDecomposition:
    """m = (2r+1) * 2^(c+4d) with 0 <= c <= 3; sigma = 2^c + 8d."""

    m: int
    r: int
    c: int
    d: int
    sigma: int


# ---------------------------------------------------------------------------
# verification


def check_osystem(candidate, tol: TolerancePolicy = DEFAULT_TOLERANCES):
    """The checks of verify_osystem; returns (system, worst residuals), the
    residuals as {"max_relation_residual": ...}."""
    mats = square_matrices(candidate, "members")
    size = mats[0].shape[0]
    eye = identity_matrix(size, exact=is_exact(mats[0]))
    worst, failure = pairwise_relation(mats, eye, transpose=True, tol=tol)
    if failure:
        i, j, resid = failure
        if i == j:
            raise NotOrthogonal(i, resid)
        note = ""
        if size % 2 == 1:
            note = (f"no O-system with two or more members exists on an "
                    f"odd-dimensional space (m={size})")
        raise AnticommutationViolated(i, j, resid, note=note)
    system = OSystem(m=size, n=len(mats), matrices=tuple(mats))
    return system, {"max_relation_residual": worst}


def verify_osystem(candidate, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> OSystem:
    """Check orthogonality and pairwise transpose-anticommutation."""
    return check_osystem(candidate, tol)[0]


# ---------------------------------------------------------------------------
# the Radon-Hurwitz count


def hurwitz_radon(m: int) -> SigmaDecomposition:
    if m < 1:
        raise ValueError("m must be >= 1")
    odd, v = m, 0
    while odd % 2 == 0:
        odd //= 2
        v += 1
    c, d = v % 4, v // 4
    return SigmaDecomposition(m=m, r=(odd - 1) // 2, c=c, d=d, sigma=2**c + 8 * d)


# ---------------------------------------------------------------------------
# construction and conversions


def construct_range_maximal(m: int) -> OSystem:
    """The canonical system with sigma(m) members: identity plus the maximal
    skew anticommuting family.  Entries are exact integers in {0, +1, -1}."""
    members = [identity_matrix(m)] + skew_anticommuting_family(m)
    return verify_osystem(members)


def to_clifford(os: OSystem) -> CliffordSystem:
    """Double the dimension: diag(I, -I) first, then each tau in an
    off-diagonal symmetric block.  One more member than the input."""
    eye = identity_matrix(os.m, exact=is_exact(os.matrices[0]))
    members = [block_diag2(eye, -eye)] + [symmetric_off_diagonal(tau) for tau in os.matrices]
    return verify_clifford(members)


def from_clifford(cs: CliffordSystem) -> OSystem:
    """Inverse direction: split off the first member's eigenspaces and read
    the orthogonal blocks.  Needs at least two members."""
    _, os = to_standard_representation(cs)
    return os


# ---------------------------------------------------------------------------
# closure operations


def transpose_system(os: OSystem) -> OSystem:
    return verify_osystem([M.T.copy() for M in os.matrices])


def sub_system(os: OSystem, indices) -> OSystem:
    """Subsystem at the given 0-based positions (order preserved)."""
    idx = list(indices)
    if not idx:
        raise BadIndices("need at least one index")
    if len(set(idx)) != len(idx):
        raise BadIndices("indices must be distinct")
    if any(i < 0 or i >= os.n for i in idx):
        raise BadIndices(f"indices must lie in [0, {os.n - 1}]")
    return verify_osystem([os.matrices[i] for i in idx])


def direct_sum(a: OSystem, b: OSystem) -> OSystem:
    if a.n != b.n:
        raise ArityMismatch(f"operands have {a.n} and {b.n} members")
    return verify_osystem([block_diag2(x, y) for x, y in zip(a.matrices, b.matrices)])
