"""O-systems: tuples of orthogonal matrices with anticommuting transposes.

A system is n orthogonal matrices tau_1..tau_n on R^m with

    tau_i^T tau_j + tau_j^T tau_i = 2 delta_ij I.

The maximal n for given m is the classical Radon-Hurwitz number sigma(m),
which generators.hurwitz_radon computes and this module re-exports with
SigmaDecomposition.  The module verifies the relation, builds
range-maximal integer families, moves back and forth to Clifford systems
(one extra member, doubled dimension), and forms direct sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import CliffordSystem, to_standard_representation
from .core import (
    IDENTITY_TOL,
    _orthogonal_relation,
    block_diag2,
    identity_matrix,
    square_matrices,
    symmetric_off_diagonal,
)
from .errors import AnticommutationViolated, ArityMismatch, NotOrthogonal
from .generators import SigmaDecomposition, hurwitz_radon, skew_anticommuting_family

__all__ = [
    "OSystem",
    "SigmaDecomposition",
    "verify_osystem",
    "check_osystem",
    "hurwitz_radon",
    "construct_range_maximal",
    "from_clifford",
    "to_clifford",
    "direct_sum",
]


@dataclass(frozen=True)
class OSystem:
    m: int
    n: int
    matrices: tuple


# ---------------------------------------------------------------------------
# verification


def check_osystem(candidate, tol: float = IDENTITY_TOL):
    """The checks of verify_osystem; returns (system, worst residuals), the
    residuals as {"max_relation_residual": ...}."""
    mats = square_matrices(candidate, "members")
    size = mats[0].shape[0]
    worst, failure = _orthogonal_relation(mats, tol)
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


def verify_osystem(candidate, tol: float = IDENTITY_TOL) -> OSystem:
    """Check orthogonality and pairwise transpose-anticommutation."""
    return check_osystem(candidate, tol)[0]


# ---------------------------------------------------------------------------
# construction and conversions


def construct_range_maximal(m: int) -> OSystem:
    """The canonical system with sigma(m) members: identity plus the maximal
    skew anticommuting family.  Entries are exact integers in {0, +1, -1}."""
    members = [identity_matrix(m)] + skew_anticommuting_family(m)
    return verify_osystem(members)


def to_clifford(os: OSystem, tol: float = IDENTITY_TOL) -> CliffordSystem:
    """Double the dimension: diag(I, -I) first, then each tau in an
    off-diagonal symmetric block.  One more member than the input.

    Only the m x m members are verified (verify_osystem).  The doubled
    relation, diag(tau_i tau_j^T + tau_j tau_i^T, tau_i^T tau_j + tau_j^T tau_i),
    follows on exact input; on float input the squares keep their residual
    and the anticommutators' shrinks by about 1/sqrt(2).
    """
    half = verify_osystem(os.matrices, tol)
    eye = identity_matrix(half.m).astype(half.matrices[0].dtype)
    members = [block_diag2(eye, -eye)] + [symmetric_off_diagonal(tau) for tau in half.matrices]
    return CliffordSystem(two_m=2 * half.m, n=len(members), matrices=tuple(members))


def from_clifford(cs: CliffordSystem, tol: float = IDENTITY_TOL) -> OSystem:
    """Inverse direction: split off the first member's eigenspaces and read
    the orthogonal blocks.  Needs at least two members."""
    return to_standard_representation(cs, tol)[1]


# ---------------------------------------------------------------------------
# direct sums


def direct_sum(a: OSystem, b: OSystem) -> OSystem:
    if a.n != b.n:
        raise ArityMismatch(f"operands have {a.n} and {b.n} members")
    return verify_osystem([block_diag2(x, y) for x, y in zip(a.matrices, b.matrices)])
