"""Quadratic harmonic morphisms as tuples of symmetric component matrices.

A map phi(X) = (X^T A_1 X, ..., X^T A_n X) is a harmonic morphism exactly
when every A_alpha is traceless, distinct components anticommute, and all
A_alpha^2 agree.  Verification runs those matrix identities and, as an
independent oracle, a finite-difference check of the harmonicity and
conformality conditions at seeded sample points (central differences are
exact for quadratics, so both paths must agree).

On top of verification: rank/spectrum classification, the block normal form
of full-rank maps, kernel projection for rank-deficient ones, splitting into
scaled umbilical summands, representation of all components as one quadratic
function composed with orthogonal maps, extension of domain-minimal maps
with additional components up to the Radon-Hurwitz bound, counting of sign
classes, and sphere-restriction / isoparametric sample checks.  The normal
form comes from core.eigenspace_split, and the single-function transforms
come from the normal form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import clifford as _clifford
from . import osystem as _osystem
from .core import (
    EIG_PAIR_TOL,
    IDENTITY_TOL,
    RANK_TOL,
    _peak,
    as_matrix,
    block_diag2,
    check_symmetric,
    eigenspace_split,
    eigenvalue_clusters,
    frobenius,
    is_exact,
    is_exactly_zero,
    numeric_rank,
    pairwise_relation,
    rel_residual,
    sample_points,
    spectral_decompose,
    square_matrices,
    symmetric_off_diagonal,
    to_float,
    to_point,
)
from .errors import (
    AlreadyRangeMaximal,
    ArityMismatch,
    DimensionMismatch,
    NotDomainMinimal,
    NotExtendable,
    NotHarmonic,
    NotHorizontallyConformal,
    NotUmbilical,
    OddRank,
    QSingular,
    RankMismatch,
    SampleDisagreement,
    SharedKernelViolated,
    ZeroMap,
)

__all__ = [
    "QuadraticHarmonicMorphism",
    "NormalForm",
    "ClassificationReport",
    "SingleFunctionRepresentation",
    "SampleReport",
    "IsoparametricReport",
    "SphereRestrictionReport",
    "verify_qhm",
    "check_qhm",
    "sampled_check",
    "evaluate",
    "quadratic_form_value",
    "from_clifford",
    "clifford_system",
    "direct_sum",
    "scale",
    "classify",
    "normal_form",
    "assemble_normal_form",
    "project_nonsingular",
    "single_function_representation",
    "range_extend",
    "count_biequivalence_classes",
    "verify_isoparametric",
    "sphere_restriction_check",
]


@dataclass(frozen=True)
class QuadraticHarmonicMorphism:
    m: int
    n: int
    components: tuple


@dataclass(frozen=True)
class NormalForm:
    """change_of_coords G with G A_1 G^T = diag(D, -D), D positive diagonal
    descending, and every later component carried to [[0, B],[B^T, 0]].

    The blocks obey D B_i = B_i D, B_i^T B_i = D^2 and
    B_i^T B_j = -B_j^T B_i for i != j.
    """

    change_of_coords: np.ndarray
    D: np.ndarray
    B: tuple


@dataclass(frozen=True)
class ClassificationReport:
    """Rank, spectrum and splitting data of a verified map.

    splitting lists (scale, summand) pairs in descending scale order; with
    z = split_change @ X chopped into consecutive blocks matching the summand
    domain dimensions, phi(X) = sum_j scale_j * summand_j(z_j).  projection
    is the kernel-removing row map when the input was rank-deficient.
    """

    q_rank: int
    positive_eigenvalues: tuple
    zero_count: int
    is_q_nonsingular: bool
    is_umbilical: bool
    splitting: tuple
    split_change: np.ndarray
    projection: Optional[np.ndarray]


@dataclass(frozen=True)
class SingleFunctionRepresentation:
    """One quadratic function reproducing every component.

    matrix is diag(D, -D) in descending order; scales/block_sizes describe
    its block structure (distinct positive eigenvalues with multiplicities).
    transforms[alpha] is orthogonal with
    phi^alpha(X) = quadratic_form_value(matrix, transforms[alpha] @ X).
    """

    scales: tuple
    block_sizes: tuple
    matrix: np.ndarray
    transforms: tuple


@dataclass(frozen=True)
class SampleReport:
    samples: int
    max_harmonic_defect: float
    max_offdiagonal_defect: float
    max_diagonal_spread: float
    passed: bool


@dataclass(frozen=True)
class IsoparametricReport:
    holds: bool
    scale: float
    laplacian_coefficient: float
    max_gradient_defect: float
    max_laplacian_defect: float
    samples: int


@dataclass(frozen=True)
class SphereRestrictionReport:
    holds: bool
    radius: float
    max_defect: float
    samples: int


# ---------------------------------------------------------------------------
# evaluation


@np.errstate(over="ignore", invalid="ignore")
def evaluate(phi: QuadraticHarmonicMorphism, x) -> np.ndarray:
    """Componentwise quadratic form values at a point (inf or NaN beyond float64)."""
    vec = to_point(x)
    if vec.shape[0] != phi.m:
        raise DimensionMismatch(f"point has dimension {vec.shape[0]}, map domain is {phi.m}")
    return np.array([vec @ to_float(A) @ vec for A in phi.components])


@np.errstate(over="ignore", invalid="ignore")
def quadratic_form_value(matrix, x) -> float:
    vec = to_point(x)
    return float(vec @ to_float(as_matrix(matrix)) @ vec)


def _form_values(A, P):
    """x^T A x for every x along the last axis of P, from one matrix product
    over all the points."""
    flat = P.reshape(-1, P.shape[-1])
    prod = flat @ A
    prod *= flat
    return prod.sum(axis=-1).reshape(P.shape[:-1])


# ---------------------------------------------------------------------------
# verification


def _unit_scale(mats):
    """(mats / u, u), u the power of two that puts the largest absolute entry in
    [1, 2), divided exactly: np.ldexp in float64, Fractions in object mode.
    int64 and zero maps pass with u = 1; ValueError if u is no float64."""
    peak = Fraction(0 if mats[0].dtype == np.int64 else max(np.max(np.abs(M)) for M in mats))
    e = peak.numerator.bit_length() - peak.denominator.bit_length()
    e -= peak < Fraction(2) ** e
    if not peak or not e:
        return list(mats), 1
    if not -1074 <= e <= 1023:
        raise ValueError("the map's scale lies beyond the float64 range")
    return [M / Fraction(2) ** e if M.dtype == object else np.ldexp(M, -e) for M in mats], 2.0 ** e


def _unit_map(phi):
    mats, u = _unit_scale(phi.components)
    return replace(phi, components=tuple(mats)), u


def _times(M, u):  # back in the caller's units, exactly in either mode
    return M if u == 1 else M * (Fraction(u) if M.dtype == object else u)


# Byte budget for one block of the sampled route: the points x + e_k/2 and
# x - e_k/2 of the block's samples and one form's products at them.  A block
# holds at least one sample, whatever its size.
_SAMPLE_BLOCK_BYTES = 4 << 20


def _central_differences(mats_float, X):
    """Gradients (form, point, coordinate) and Laplacians (form, point) of the
    forms x^T A x at the rows of X, by central differences with step 1/2,
    which are exact for quadratics up to rounding.  Each form is evaluated
    at every shifted point x +- e_k / 2, for blocks of whole samples sized by
    _SAMPLE_BLOCK_BYTES; every sample's values come from its own rows, so the
    blocking changes no value."""
    m = X.shape[1]
    step = max(1, _SAMPLE_BLOCK_BYTES // (3 * m * m * X.itemsize))
    blocks = [_central_differences_block(mats_float, X[lo:lo + step])
              for lo in range(0, X.shape[0], step)]
    return (np.concatenate([g for g, _ in blocks], axis=1),
            np.concatenate([lap for _, lap in blocks], axis=1))


def _central_differences_block(mats_float, X):
    h = 0.5
    shift = h * np.eye(X.shape[1])
    Xp = X[:, None, :] + shift[None, :, :]
    Xm = X[:, None, :] - shift[None, :, :]
    grads, laps = [], []
    for A in mats_float:
        vals0 = _form_values(A, X)
        vals_p = _form_values(A, Xp)
        vals_m = _form_values(A, Xm)
        grads.append((vals_p - vals_m) / (2 * h))
        laps.append(np.sum(vals_p + vals_m - 2 * vals0[:, None], axis=1) / h**2)
    return np.stack(grads), np.stack(laps)


def sampled_check(candidate, samples: int = 64, seed: int = 0,
                  tol: float = IDENTITY_TOL) -> SampleReport:
    """Finite-difference test of harmonicity and conformality at seeded points.

    Uses central differences with step 1/2, which are exact for quadratics up
    to rounding: the Laplacian of each component must vanish, gradients of
    distinct components must be orthogonal, and all gradient norms must agree
    pointwise (their common value is the squared dilation at the point).
    The map is judged at unit scale (_unit_scale), so 2^k phi gets phi's
    defects; they reduce with NaN-propagating maxima, so a NaN never passes.
    """
    mats = [to_float(M) for M in _unit_scale(square_matrices(candidate, "components"))[0]]
    X = sample_points(mats[0].shape[0], samples, seed)
    grads, laps = _central_differences(mats, X)
    scales = np.array([frobenius(A) or 1.0 for A in mats])  # a zero form's Laplacian is 0
    max_harm = float(np.max(np.max(np.abs(laps), axis=1) / scales))
    G = np.einsum("api,bpi->pab", grads, grads)
    diag = np.einsum("paa->pa", G)
    point_scale = np.maximum(1.0, np.max(diag, axis=1))
    off_mask = ~np.eye(len(mats), dtype=bool)
    max_off = float(np.max(np.abs(G[:, off_mask]) / point_scale[:, None], initial=0.0))
    max_spread = float(np.max((np.max(diag, axis=1) - np.min(diag, axis=1)) / point_scale))
    passed = all(x <= tol for x in (max_harm, max_off, max_spread))
    return SampleReport(samples=samples, max_harmonic_defect=max_harm,
                        max_offdiagonal_defect=max_off, max_diagonal_spread=max_spread,
                        passed=passed)


def check_qhm(candidate, tol: float = IDENTITY_TOL,
              samples: int = 64, seed: int = 0):
    """The checks of verify_qhm; returns (map, worst residuals), the residuals
    being the three defects of the sampled route.  A map is zero when every
    entry is 0; float maps are judged at unit scale (_unit_scale)."""
    mats = square_matrices(candidate, "components")
    if all(is_exactly_zero(M) for M in mats):
        raise ZeroMap("all components vanish")
    exact = is_exact(mats[0])
    unit, u = (mats, 1) if exact else _unit_scale(mats)
    check_symmetric(unit, tol)
    for i, M in enumerate(unit):
        tr = sum(M.diagonal().tolist()) if exact else float(np.trace(M))
        if (tr != 0) if exact else not abs(tr) <= tol * frobenius(M):
            raise NotHarmonic(i + 1, tr * u)
    _, failure = pairwise_relation(unit, tol=tol)
    if failure:
        i, j, resid = failure
        if i == j:
            raise NotHorizontallyConformal(1, i, resid, note="component squares differ")
        raise NotHorizontallyConformal(i, j, resid)
    phi = QuadraticHarmonicMorphism(m=mats[0].shape[0], n=len(mats), components=tuple(mats))
    report = sampled_check(unit, samples=samples, seed=seed, tol=tol)
    if not report.passed:
        raise SampleDisagreement(
            f"matrix identities accept but the sampled check rejects: {report}")
    return phi, {"max_harmonic_defect": report.max_harmonic_defect,
                 "max_offdiagonal_defect": report.max_offdiagonal_defect,
                 "max_diagonal_spread": report.max_diagonal_spread}


def verify_qhm(candidate, tol: float = IDENTITY_TOL,
               samples: int = 64, seed: int = 0) -> QuadraticHarmonicMorphism:
    """Validate a component tuple through both the matrix identities and the
    sampled finite-difference oracle; both must accept."""
    return check_qhm(candidate, tol, samples, seed)[0]


# ---------------------------------------------------------------------------
# constructors


def from_clifford(cs, tol: float = IDENTITY_TOL) -> QuadraticHarmonicMorphism:
    """Use the system members directly as component matrices.

    Valid whenever the members are traceless (always true with two or more
    members); the result has all positive eigenvalues equal to 1.
    """
    return verify_qhm(cs.matrices, tol)


def direct_sum(a: QuadraticHarmonicMorphism, b: QuadraticHarmonicMorphism) -> QuadraticHarmonicMorphism:
    if a.n != b.n:
        raise ArityMismatch(f"operands have {a.n} and {b.n} components")
    return verify_qhm([block_diag2(x, y) for x, y in zip(a.components, b.components)])


def scale(phi: QuadraticHarmonicMorphism, factor) -> QuadraticHarmonicMorphism:
    """Multiply every component by a scalar.  int64 components times an
    integer stay exact: int64 while every entry stays below 2^32, as in
    as_matrix, Python integers beyond.  Not re-verified: a zero factor gives
    the zero tuple, which is only usable inside direct sums."""
    mats = phi.components
    if (isinstance(factor, (int, np.integer)) and all(M.dtype == np.int64 for M in mats)
            and max(_peak(M) for M in mats) * abs(int(factor)) >= 2**32):
        mats, factor = [M.astype(object) for M in mats], int(factor)
    return QuadraticHarmonicMorphism(m=phi.m, n=phi.n, components=tuple(M * factor for M in mats))


# ---------------------------------------------------------------------------
# rank, spectrum, projection


def classify(phi: QuadraticHarmonicMorphism,
             tol: float = IDENTITY_TOL) -> ClassificationReport:
    """Rank and spectrum facts plus the splitting into scaled umbilical pieces.

    Rank-deficient maps are first projected onto the shared non-kernel
    subspace; the splitting then regroups block-form coordinates by distinct
    positive eigenvalue.  Of the components only the first is ranked and
    decomposed (the projected core once more): A_i^2 = A_1^2 and
    anticommutation give every component the rank and spectrum of A_1, and
    the shared-kernel check, the normal form's corner bound and the block
    relations re-check every later component.  All of it runs at unit scale
    (_unit_scale): 2^k phi gives phi's report, eigenvalues and scales * 2^k.
    """
    phi, u = _unit_map(phi)
    q_rank = numeric_rank(phi.components[0])
    if q_rank == 0:
        raise RankMismatch("all components are zero")
    if q_rank % 2 != 0:
        raise OddRank(q_rank)
    sd = spectral_decompose(phi.components[0], tol)
    eigs = sd.eigenvalues
    cutoff = RANK_TOL * float(np.max(np.abs(eigs)))
    pos = eigs[eigs > cutoff]
    neg = eigs[eigs < -cutoff]
    zero_count = phi.m - len(pos) - len(neg)
    if len(pos) != q_rank // 2 or len(neg) != q_rank // 2:
        raise RankMismatch("the nonzero eigenvalues of component 1 do not pair as +/-, "
                           "so the map has no umbilical splitting")
    is_nonsingular = q_rank == phi.m
    projection = None
    core = phi
    if not is_nonsingular:
        projection, core = _project_nonsingular(phi, tol, q_rank, sd)
    nf = _normal_form_core(core, tol, sd if projection is None else None)
    d = np.diag(to_float(nf.D))
    k = len(d)
    groups = [list(range(lo, hi)) for lo, hi in eigenvalue_clusters(d, EIG_PAIR_TOL)]
    bmats = [to_float(B) for B in nf.B]
    label = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    off_group = label[:, None] != label[None, :]
    if any(not np.all(np.abs(B[off_group]) <= 1e3 * tol * d[0]) for B in bmats):
        raise RankMismatch("blocks couple distinct eigenvalue groups; not a valid map")
    order = []
    for g in groups:
        order.extend(g)
        order.extend(k + i for i in g)
    perm = np.zeros((2 * k, 2 * k))
    perm[np.arange(2 * k), order] = 1.0
    split_change = perm @ to_float(nf.change_of_coords)
    if projection is not None:
        split_change = split_change @ to_float(projection)
    splitting = []
    for g in groups:
        lam = float(d[g[0]])
        kk = len(g)
        head = np.diag(np.concatenate([np.ones(kk), -np.ones(kk)]))
        members = [head] + [symmetric_off_diagonal(B[np.ix_(g, g)] / lam) for B in bmats]
        summand = QuadraticHarmonicMorphism(m=2 * kk, n=phi.n, components=tuple(members))
        splitting.append((lam * u, summand))
    return ClassificationReport(
        q_rank=q_rank,
        positive_eigenvalues=tuple(float(v) * u for v in pos),
        zero_count=zero_count,
        is_q_nonsingular=is_nonsingular,
        is_umbilical=len(groups) == 1,
        splitting=tuple(splitting),
        split_change=split_change,
        projection=projection,
    )


def project_nonsingular(phi: QuadraticHarmonicMorphism,
                        tol: float = IDENTITY_TOL):
    """Remove the common kernel of a rank-deficient map.

    Returns (projection, core): projection has orthonormal rows spanning the
    non-kernel subspace, core is the restricted map with full rank, and
    phi(X) = core(projection @ X).  Rejects inputs whose later components do
    not annihilate the kernel of the first.  Judged at unit scale, like classify.
    """
    unit, u = _unit_map(phi)
    proj, core = _project_nonsingular(unit, tol, numeric_rank(unit.components[0]))
    return proj, replace(core, components=tuple(_times(M, u) for M in core.components))


def _project_nonsingular(phi, tol, q_rank, sd=None):
    """project_nonsingular; q_rank is the rank of the components and sd,
    when given, the spectral decomposition of the first component."""
    if q_rank >= phi.m:
        raise ValueError("map already has full rank; nothing to project")
    exact = is_exact(phi.components[0])
    # axis-aligned fast path: rows that vanish in every component
    row_tol = 0 if exact else RANK_TOL * max(frobenius(M) for M in phi.components)
    zero_rows = [i for i in range(phi.m)
                 if all(np.max(np.abs(M[i, :])) <= row_tol for M in phi.components)]
    if len(zero_rows) == phi.m - q_rank:
        keep = [i for i in range(phi.m) if i not in zero_rows]
        proj = np.eye(phi.m, dtype=np.int64 if exact else np.float64)[keep]
        core_mats = [M[np.ix_(keep, keep)] for M in phi.components]
        return proj, QuadraticHarmonicMorphism(m=q_rank, n=phi.n, components=tuple(core_mats))
    if sd is None:
        sd = spectral_decompose(phi.components[0], tol)
    eigs = sd.eigenvalues
    cutoff = RANK_TOL * float(np.max(np.abs(eigs)))
    keep_mask = np.abs(eigs) > cutoff
    if int(np.sum(keep_mask)) != q_rank:
        raise RankMismatch("eigenvalue zero pattern disagrees with the rank")
    kernel = sd.eigenvectors[:, ~keep_mask]
    for idx, M in enumerate(phi.components, start=1):
        leak, size = frobenius(to_float(M) @ kernel), frobenius(M)
        if not leak <= tol * size:
            raise SharedKernelViolated(
                f"component {idx} does not annihilate the kernel of component 1 "
                f"(defect {leak / size:.3e})")
    proj = sd.eigenvectors[:, keep_mask].T
    core_mats = [proj @ to_float(M) @ proj.T for M in phi.components]
    return proj, QuadraticHarmonicMorphism(m=q_rank, n=phi.n, components=tuple(core_mats))


# ---------------------------------------------------------------------------
# normal form


def _normal_form_core(phi, tol, sd=None) -> NormalForm:
    """Normal form of a full-rank map; sd, when given, is the spectral
    decomposition of its first component."""
    G, D, B, corners = eigenspace_split(phi.components, tol, sd)
    for idx, corner in enumerate(corners, start=2):
        if not corner <= 1e3 * tol:
            raise NotHorizontallyConformal(
                1, idx, corner, note="component does not reach off-diagonal block form")
    nf = NormalForm(change_of_coords=G, D=D, B=B)
    _check_block_relations(nf, tol)
    return nf


def _check_block_relations(nf: NormalForm, tol):
    D = to_float(nf.D)
    blocks = [to_float(B) for B in nf.B]
    if not blocks:
        return
    if any(not rel_residual(D @ B, B @ D) <= tol for B in blocks):
        raise RankMismatch("eigenvalue matrix does not commute with a block")
    _, failure = pairwise_relation(blocks, D @ D, transpose=True, tol=tol)
    if failure:
        raise RankMismatch("block gram matrix does not match the squared eigenvalues"
                           if failure[0] == failure[1] else
                           "blocks fail the transpose anticommutation relation")


def _require_full_rank(phi):
    """QSingular unless component 1, and so every component, has full rank."""
    if numeric_rank(phi.components[0]) != phi.m:
        raise QSingular("components are rank-deficient; project the kernel away first")


def normal_form(phi: QuadraticHarmonicMorphism,
                tol: float = IDENTITY_TOL) -> NormalForm:
    """Block normal form of a full-rank map with at least two components, at unit scale."""
    phi, u = _unit_map(phi)
    if phi.n < 2:
        raise ValueError("normal form needs at least two components")
    if phi.m % 2 != 0:
        raise QSingular(f"odd domain dimension {phi.m} cannot carry a full-rank map")
    _require_full_rank(phi)
    nf = _normal_form_core(phi, tol)
    return replace(nf, D=_times(nf.D, u), B=tuple(_times(B, u) for B in nf.B))


def assemble_normal_form(nf: NormalForm):
    """Rebuild component matrices from (G, D, B); inverse of normal_form."""
    D = to_float(nf.D)
    G = to_float(nf.change_of_coords)
    blocks = [block_diag2(D, -D)] + [symmetric_off_diagonal(to_float(B)) for B in nf.B]
    return [G.T @ M @ G for M in blocks]


# ---------------------------------------------------------------------------
# single-function representation


def single_function_representation(phi: QuadraticHarmonicMorphism,
                                   tol: float = IDENTITY_TOL,
                                   samples: int = 100,
                                   seed: int = 0) -> SingleFunctionRepresentation:
    """Express every component as F composed with an orthogonal map.

    F's matrix is diag(D, -D) of the normal form (G, D, B_alpha):
    transform_1 = G, transform_alpha = H diag(I, D^-1 B_alpha) G with
    H = [[I, I], [I, -I]] / sqrt(2), orthogonal as D B = B D and B^T B = D^2,
    and H diag(D, -D) H = [[0, D], [D, 0]] carries F to A_alpha.  The
    identity phi^alpha(X) = F(transform_alpha @ X) is verified at seeded
    points, at unit scale.
    """
    phi, u = _unit_map(phi)
    _require_full_rank(phi)
    nf = _normal_form_core(phi, tol)
    d = np.diag(to_float(nf.D))
    MF = np.diag(np.concatenate([d, -d]))
    G, eye = to_float(nf.change_of_coords), np.eye(len(d))
    H = np.block([[eye, eye], [eye, -eye]]) / math.sqrt(2)
    transforms = [G] + [H @ block_diag2(eye, to_float(B) / d[:, None]) @ G for B in nf.B]
    groups = eigenvalue_clusters(d, EIG_PAIR_TOL)
    scales = tuple(float(d[lo]) * u for lo, _ in groups)
    block_sizes = tuple(hi - lo for lo, hi in groups)
    X = sample_points(phi.m, samples, seed)
    defects = []
    for A, Gt in zip(phi.components, transforms):
        lhs = _form_values(to_float(A), X)
        rhs = _form_values(MF, X @ Gt.T)
        defects.append(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
    worst = float(np.max(defects))
    if not worst <= tol:
        raise SampleDisagreement(
            f"single-function identity fails at sample points (defect {worst:.3e})")
    return SingleFunctionRepresentation(scales=scales, block_sizes=block_sizes,
                                        matrix=MF * u, transforms=tuple(transforms))


# ---------------------------------------------------------------------------
# range extension


def clifford_system(phi: QuadraticHarmonicMorphism, tol: float = IDENTITY_TOL):
    """The Clifford system phi / lambda of an umbilical map, lambda being its
    common positive eigenvalue from classify(phi)."""
    report = classify(phi, tol)
    if not report.is_umbilical:
        raise NotUmbilical("only umbilical maps scale to a system")
    lam = report.positive_eigenvalues[0]
    if is_exact(phi.components[0]) and lam == 1.0:
        mats = phi.components
    else:
        mats = [to_float(A) / lam for A in phi.components]
    return _clifford.verify_clifford(mats, tol)


@functools.lru_cache(maxsize=8)
def _canonical_members(sigma: int) -> tuple:
    """The members of construct_irreducible(sigma) in float64, read-only:
    the canonical range-maximal system is built and checked once per sigma
    per process."""
    members = tuple(P.astype(np.float64) for P in _clifford.construct_irreducible(sigma).matrices)
    for P in members:
        P.flags.writeable = False
    return members


def range_extend(phi: QuadraticHarmonicMorphism,
                 tol: float = IDENTITY_TOL,
                 seed: int = 0) -> QuadraticHarmonicMorphism:
    """Append components to a domain-minimal map up to the Radon-Hurwitz bound.

    The scaled components form a Clifford system, irreducible exactly on the
    minimal domain, which an orthogonal certificate C conjugates onto the
    leading members of the canonical range-maximal system; each missing
    canonical member P adds the component lambda * C P C^T, and verify_qhm
    certifies the result once.  Raises rather than guessing when the
    profile or the certificate fails.
    """
    if phi.n == 1:
        if phi.m != 2:
            raise NotDomainMinimal(
                "a single-component map is domain-minimal only on the plane")
        A = phi.components[0]  # [[a, b], [b, -a]], anticommuting with [[-b, a], [a, b]]
        (a, b), _ = A
        return verify_qhm([A, np.array([[-b, a], [a, b]], dtype=A.dtype)], tol)
    report = classify(phi, tol)
    if not report.is_q_nonsingular:
        raise NotDomainMinimal("map has a kernel; project it away first")
    if not report.is_umbilical:
        raise NotDomainMinimal("distinct eigenvalue scales: the map splits off summands")
    lam = report.positive_eigenvalues[0]
    m_half = phi.m // 2
    sigma = _osystem.hurwitz_radon(m_half).sigma
    if phi.n - 1 >= sigma:
        raise AlreadyRangeMaximal(
            f"{phi.n} components is the maximum for domain dimension {phi.m}")
    # phi / lambda is a Clifford system, irreducible only on the minimal domain
    if m_half != _clifford.minimal_domain_dimension(phi.n - 1):
        raise NotDomainMinimal("the associated system splits; the map is not domain-minimal")
    # Only 4j + 1 members have two irreducible classes (told apart by the
    # product trace), and on their minimal domain sigma = 4j already; so
    # here the class is unique and the canonical prefix needs no sign choice.
    # The minimal m_half is a power of two, so this is the doubled canonical
    # range-maximal system on R^m_half.
    canon = _canonical_members(sigma)
    members = [to_float(A) / lam for A in phi.components]
    C = _clifford.find_orthogonal_intertwiner(members, canon[: phi.n], seed)
    if C is None:
        raise NotExtendable("no orthogonal intertwiner onto the canonical system")
    new_components = [lam * (C @ P @ C.T) for P in canon[phi.n:]]
    return verify_qhm([to_float(A) for A in phi.components] + new_components, tol)


# ---------------------------------------------------------------------------
# class counting


def count_biequivalence_classes(n: int, k: int) -> int:
    """Number of sign classes of k-fold sums of minimal maps to R^(n+1):
    one unless n is a multiple of 4, else 2^(k-1)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return 2 ** (k - 1) if n % 4 == 0 else 1


# ---------------------------------------------------------------------------
# sampled geometric checks


def verify_isoparametric(f_matrix, samples: int = 64, seed: int = 0,
                         tol: float = IDENTITY_TOL) -> IsoparametricReport:
    """Sample check that F(x) = x^T M x has gradient norm 4*scale^2*|x|^2 and
    constant Laplacian; scale^2 is estimated as trace(M^2)/m; M is judged at unit scale."""
    (M,), u = _unit_scale(square_matrices([f_matrix], "function matrices"))
    check_symmetric([M], tol)
    Mf = to_float(M)
    m = Mf.shape[0]
    scale_sq = float(np.trace(Mf @ Mf)) / m
    c = 2.0 * float(np.trace(Mf))
    X = sample_points(m, samples, seed)
    grads, laps = _central_differences([Mf], X)
    grad, lap = grads[0], laps[0]
    grad_sq = np.sum(grad * grad, axis=1)
    target = 4.0 * scale_sq * np.sum(X * X, axis=1)
    grad_defect = float(np.max(np.abs(grad_sq - target) / np.maximum(1.0, target)))
    lap_defect = float(np.max(np.abs(lap - c))) / max(1.0, abs(c))
    holds = grad_defect <= tol and lap_defect <= tol
    return IsoparametricReport(holds=holds, scale=math.sqrt(scale_sq) * u,
                               laplacian_coefficient=c * u,
                               max_gradient_defect=grad_defect,
                               max_laplacian_defect=lap_defect, samples=samples)


def sphere_restriction_check(phi: QuadraticHarmonicMorphism, samples: int = 64,
                             seed: int = 0,
                             tol: float = IDENTITY_TOL) -> SphereRestrictionReport:
    """Check |phi(x)| = radius * |x|^2 at seeded points, where radius is the
    common positive eigenvalue of an umbilical map (so spheres map to spheres)."""
    report = classify(phi, tol)
    if not report.is_umbilical:
        raise NotUmbilical("positive eigenvalues are not all equal")
    radius = report.positive_eigenvalues[0]
    X = sample_points(phi.m, samples, seed)
    vals = np.column_stack([_form_values(to_float(A), X) for A in phi.components])
    norms = np.sqrt(np.sum(vals * vals, axis=1))
    target = radius * np.sum(X * X, axis=1)
    defect = float(np.max(np.abs(norms - target) / target))
    return SphereRestrictionReport(holds=defect <= tol, radius=radius,
                                   max_defect=defect, samples=samples)
