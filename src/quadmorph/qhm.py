"""Quadratic harmonic morphisms as tuples of symmetric component matrices.

A map phi(X) = (X^T A_1 X, ..., X^T A_n X) is a harmonic morphism exactly
when every A_alpha is traceless, distinct components anticommute, and all
A_alpha^2 agree.  Verification runs those matrix identities and, as an
independent oracle, a finite-difference check of the harmonicity and
conformality conditions at seeded sample points (central differences are
exact for quadratics, so both paths must agree).  sampled_check is the one
routine that draws sample points.

On top of verification: classification by rank and spectrum, the block
normal form, kernel projection, umbilical splitting, one quadratic function
behind every component, extension up to the Radon-Hurwitz bound, sign-class
counting, and the sphere-restriction and isoparametric reports.  Six
readers share one decomposition (_decompose), which ranks, projects and
splits a map from one eigendecomposition of A_1 and owns the rank, +/-
pairing and block-relation gates; only classify builds the splitting.
lambda^2 = tr(A_1^2) / m (_square_scale) is the scale of the isoparametric
identity and of clifford_system, which reads umbilicity from the Clifford
relation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import clifford as _clifford
from .core import (
    EIG_PAIR_TOL,
    IDENTITY_TOL,
    RANK_TOL,
    SpectralDecomposition,
    as_matrix,
    block_diag2,
    check_symmetric,
    common_mode,
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
    AnticommutationViolated,
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
from .generators import hurwitz_radon, minimal_domain_dimension

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

    matrix is diag(D, -D, 0) with D descending and one 0 per kernel
    dimension; scales/block_sizes describe its block structure (distinct
    positive eigenvalues with multiplicities).  transforms[alpha] is
    orthogonal with phi^alpha(X) = quadratic_form_value(matrix, transforms[alpha] @ X).
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


@dataclass(frozen=True)
class SphereRestrictionReport:
    holds: bool
    radius: float
    max_defect: float


# ---------------------------------------------------------------------------
# evaluation


@np.errstate(over="ignore", invalid="ignore")
def evaluate(phi: QuadraticHarmonicMorphism, x) -> np.ndarray:
    """Componentwise quadratic form values at a point (inf or NaN beyond float64)."""
    vec = to_point(x)
    if vec.shape[0] != phi.m:
        raise DimensionMismatch(f"point has dimension {vec.shape[0]}, map domain is {phi.m}")
    return np.array([vec @ to_float(A) @ vec for A in phi.components])


def quadratic_form_value(matrix, x) -> float:
    """x^T M x for a square M, as evaluate computes it for the map (M,)."""
    (M,) = square_matrices([matrix], "function matrices")
    return float(evaluate(QuadraticHarmonicMorphism(m=len(M), n=1, components=(M,)), x)[0])


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


def _square_scale(M):
    """tr(M^2) / m for a symmetric M, its mean squared entry: a Fraction on
    exact M (no int64 wraparound), else one float64 vdot (at unit scale)."""
    if is_exact(M):
        return Fraction(sum(v * v for v in M.ravel().tolist()), len(M))
    return float(np.vdot(M, M)) / len(M)


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


@np.errstate(over="ignore", invalid="ignore")
def scale(phi: QuadraticHarmonicMorphism, factor) -> QuadraticHarmonicMorphism:
    """Multiply every component by a scalar in their common_mode: by an exact
    factor as Python numbers, by a float one in float64 (to_float).  Every
    product is stored by as_matrix's rule: int64 below 2^32, Python integers
    beyond, float64 for floats.  A NaN or infinite factor, or a float value
    beyond the float64 range, raises ValueError.  Not re-verified: a zero
    factor gives the zero tuple, which is only usable inside direct sums."""
    if isinstance(factor, str):  # a Python integer times a string repeats it
        raise TypeError(f"unsupported factor {factor!r}")
    return replace(phi, components=tuple(as_matrix(np.multiply(*common_mode(
        M.astype(object) if is_exact(M) else M, np.asarray(factor)))) for M in phi.components))


# ---------------------------------------------------------------------------
# rank, spectrum, projection


def _decompose(phi, tol):
    """The one decomposition of a map, at unit scale (_unit_scale): (unit
    map, u, projection and kernel rows or None, the full-rank core, its
    normal form, its diagonal d, d's groups as (lo, hi) ranges).

    One eigendecomposition of A_1 serves all of it: A_i^2 = A_1^2 and
    anticommutation give every component A_1's rank and spectrum.  Its
    eigenvalues above RANK_TOL times the largest are kept: they count a
    float map's rank (numeric_rank an exact one's), must pair as +/- by
    count and by value, and with the identity decompose a core projected
    along their eigenvectors.  The shared-kernel check, the corner bound
    and the block relations (NormalForm's) re-check every later component.
    """
    mats, u = _unit_scale(phi.components)
    phi = replace(phi, components=tuple(mats))
    sd = spectral_decompose(mats[0], tol)
    eigs = sd.eigenvalues
    cutoff = RANK_TOL * float(np.max(np.abs(eigs)))
    keep = np.abs(eigs) > cutoff
    q_rank = numeric_rank(mats[0]) if is_exact(mats[0]) else int(np.count_nonzero(keep))
    if q_rank == 0:
        raise RankMismatch("all components are zero")
    if q_rank % 2 != 0:
        raise OddRank(q_rank)
    pos, neg = eigs[eigs > cutoff], eigs[eigs < -cutoff]
    if (len(pos) != q_rank // 2 or len(neg) != q_rank // 2
            or np.max(np.abs(pos + neg[::-1])) > EIG_PAIR_TOL * max(1.0, float(pos[0]))):
        raise RankMismatch("the nonzero eigenvalues of component 1 do not pair as +/-, "
                           "so the map has no umbilical splitting")
    projection, kernel, core, sd = (_project_nonsingular(phi, tol, sd, keep) if q_rank < phi.m
                                    else (None, None, phi, sd))
    G, D, B, corners = eigenspace_split(core.components, tol, sd)
    for idx, corner in enumerate(corners, start=2):
        if not corner <= 1e3 * tol:
            raise NotHorizontallyConformal(
                1, idx, corner, note="component does not reach off-diagonal block form")
    Df, blocks = to_float(D), [to_float(M) for M in B]
    if blocks:
        if any(not rel_residual(Df @ M, M @ Df) <= tol for M in blocks):
            raise RankMismatch("eigenvalue matrix does not commute with a block")
        _, failure = pairwise_relation(blocks, Df @ Df, tol=tol)
        if failure:
            raise RankMismatch("block gram matrix does not match the squared eigenvalues"
                               if failure[0] == failure[1] else
                               "blocks fail the transpose anticommutation relation")
    d = np.diag(Df)
    return (phi, u, projection, kernel, core, NormalForm(change_of_coords=G, D=D, B=B), d,
            eigenvalue_clusters(d))


def classify(phi: QuadraticHarmonicMorphism,
             tol: float = IDENTITY_TOL) -> ClassificationReport:
    """Rank and spectrum facts plus the splitting into scaled umbilical pieces.

    Rank-deficient maps are first projected onto the shared non-kernel
    subspace; the splitting then regroups block-form coordinates by distinct
    positive eigenvalue.  All of it reads _decompose, at unit scale:
    2^k phi gives phi's report, eigenvalues and scales * 2^k.
    """
    phi, u, projection, _, _, nf, d, clusters = _decompose(phi, tol)
    k = len(d)
    groups = [list(range(lo, hi)) for lo, hi in clusters]
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
        q_rank=2 * k,
        positive_eigenvalues=tuple(float(v) * u for v in d),
        zero_count=phi.m - 2 * k,
        is_q_nonsingular=projection is None,
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
    phi(X) = core(projection @ X).  Read from _decompose at unit scale, like
    classify, so it raises its gates; ValueError on a full-rank map.
    """
    _, u, projection, _, core, _, _, _ = _decompose(phi, tol)
    if projection is None:
        raise ValueError("map already has full rank; nothing to project")
    return projection, replace(core, components=tuple(_times(M, u) for M in core.components))


def _project_nonsingular(phi, tol, sd, keep):
    """(projection, kernel rows, core, the core's decomposition or None) of a
    map whose A_1 has the decomposition sd and keeps the eigenvalues keep:
    rows that vanish in every component are dropped as they are (the core
    is then decomposed on its own), else the kept eigenvectors project, and
    the core's decomposition is the kept eigenvalues with the identity."""
    exact = is_exact(phi.components[0])
    # axis-aligned fast path: rows that vanish in every component
    row_tol = 0 if exact else RANK_TOL * max(frobenius(M) for M in phi.components)
    zero_rows = [i for i in range(phi.m)
                 if all(np.max(np.abs(M[i, :])) <= row_tol for M in phi.components)]
    if len(zero_rows) == np.count_nonzero(~keep):
        kept = [i for i in range(phi.m) if i not in zero_rows]
        eye = np.eye(phi.m, dtype=np.int64 if exact else np.float64)
        core_mats = tuple(M[np.ix_(kept, kept)] for M in phi.components)
        return eye[kept], eye[zero_rows], replace(phi, m=len(kept), components=core_mats), None
    kernel = sd.eigenvectors[:, ~keep]
    for idx, M in enumerate(phi.components, start=1):
        leak, size = frobenius(to_float(M) @ kernel), frobenius(M)
        if not leak <= tol * size:
            raise SharedKernelViolated(
                f"component {idx} does not annihilate the kernel of component 1 "
                f"(defect {leak / size:.3e})")
    proj = sd.eigenvectors[:, keep].T
    core_mats = tuple(proj @ to_float(M) @ proj.T for M in phi.components)
    return (proj, kernel.T, replace(phi, m=len(proj), components=core_mats),
            SpectralDecomposition(sd.eigenvalues[keep], np.eye(len(proj))))


# ---------------------------------------------------------------------------
# normal form


def normal_form(phi: QuadraticHarmonicMorphism,
                tol: float = IDENTITY_TOL) -> NormalForm:
    """Block normal form of a full-rank map with at least two components,
    read from _decompose at unit scale."""
    if phi.n < 2:
        raise ValueError("normal form needs at least two components")
    _, u, projection, _, _, nf, _, _ = _decompose(phi, tol)
    if projection is not None:
        raise QSingular("components are rank-deficient; project the kernel away first")
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
                                   tol: float = IDENTITY_TOL) -> SingleFunctionRepresentation:
    """Express every component as F composed with an orthogonal map.

    With _decompose's kernel projection P and kernel basis K (orthonormal
    rows) and the core's normal form (G, D, B_alpha):
    F = diag(D, -D, 0) and transform_alpha stacks S_alpha P over K, where
    S_1 = G and S_alpha = H diag(I, D^-1 B_alpha) G, H = [[I, I], [I, -I]]
    / sqrt(2), is orthogonal as D B = B D and B^T B = D^2.  phi^alpha(X) =
    F(transform_alpha @ X) for every X iff transform_alpha^T F
    transform_alpha = A_alpha; that identity is checked at unit scale, and
    the first component that fails raises NotHorizontallyConformal(1, alpha).
    """
    phi, u, proj, kernel, _, nf, d, groups = _decompose(phi, tol)
    MF = np.diag(np.concatenate([d, -d, np.zeros(phi.m - 2 * len(d))]))
    G, eye = to_float(nf.change_of_coords), np.eye(len(d))
    H = np.block([[eye, eye], [eye, -eye]]) / math.sqrt(2)
    transforms = [G] + [H @ block_diag2(eye, to_float(B) / d[:, None]) @ G for B in nf.B]
    if proj is not None:
        proj = to_float(proj)
        transforms = [np.vstack([S @ proj, kernel]) for S in transforms]
    T = np.stack(transforms)
    residuals = [rel_residual(rebuilt, to_float(A))
                 for rebuilt, A in zip(T.transpose(0, 2, 1) @ MF @ T, phi.components)]
    if not np.max(residuals) <= tol:  # np.max propagates a NaN, which fails
        alpha = next(a for a, r in enumerate(residuals, start=1) if not r <= tol)
        raise NotHorizontallyConformal(1, alpha, residuals[alpha - 1],
                                       note="component is not F composed with its transform")
    return SingleFunctionRepresentation(scales=tuple(float(d[lo]) * u for lo, _ in groups),
                                        block_sizes=tuple(hi - lo for lo, hi in groups),
                                        matrix=MF * u, transforms=tuple(transforms))


# ---------------------------------------------------------------------------
# range extension


def clifford_system(phi: QuadraticHarmonicMorphism, tol: float = IDENTITY_TOL):
    """The Clifford system phi / lambda of an umbilical map, lambda^2 =
    tr(A_1^2) / m (_square_scale at unit scale); exact members with
    lambda^2 = 1 pass through, and a zero A_1 raises ZeroMap.  Umbilicity,
    A_1^2 = lambda^2 I, is pair (1, 1) of verify_clifford's relation, so a
    failure there (a kernel, two scales) raises NotUmbilical, as odd m does:
    a traceless A_1 with A_1^2 = lambda^2 I has even m."""
    unit, u = _unit_scale(phi.components)
    lam_sq = _square_scale(unit[0])
    if not lam_sq:
        raise ZeroMap("component 1 vanishes, so the map has no scale lambda")
    if phi.m % 2:
        raise NotUmbilical(f"A_1^2 is not lambda^2 I (odd m = {phi.m} leaves a kernel)")
    passes_through = is_exact(unit[0]) and lam_sq * Fraction(u) ** 2 == 1
    mats = phi.components if passes_through else [to_float(A) / math.sqrt(lam_sq) for A in unit]
    try:
        return _clifford.verify_clifford(mats, tol)
    except AnticommutationViolated as exc:
        if (exc.i, exc.j) != (1, 1):
            raise
        raise NotUmbilical(f"A_1^2 is not lambda^2 I (residual {exc.residual:.3e})") from exc


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
    certifies the result once.  The system being irreducible, C is
    find_orthogonal_intertwiner's closed form (the projection over its
    Schur scale, then two Newton-Schulz steps), with no SVD.  Raises rather
    than guessing when the profile or the certificate fails.
    """
    if phi.n == 1:
        if phi.m != 2:
            raise NotDomainMinimal(
                "a single-component map is domain-minimal only on the plane")
        A = phi.components[0]  # [[a, b], [b, -a]], anticommuting with [[-b, a], [a, b]]
        (a, b), _ = A
        return verify_qhm([A, np.array([[-b, a], [a, b]], dtype=A.dtype)], tol)
    _, u, projection, _, _, _, d, groups = _decompose(phi, tol)
    if projection is not None:
        raise NotDomainMinimal("map has a kernel; project it away first")
    if len(groups) != 1:
        raise NotDomainMinimal("distinct eigenvalue scales: the map splits off summands")
    lam = float(d[0]) * u
    m_half = phi.m // 2
    sigma = hurwitz_radon(m_half).sigma
    if phi.n - 1 >= sigma:
        raise AlreadyRangeMaximal(
            f"{phi.n} components is the maximum for domain dimension {phi.m}")
    # phi / lambda is a Clifford system, irreducible only on the minimal domain
    if m_half != minimal_domain_dimension(phi.n - 1):
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
# geometric reports


def verify_isoparametric(f_matrix, tol: float = IDENTITY_TOL) -> IsoparametricReport:
    """Whether F(x) = x^T M x has gradient norm |grad F|^2 = 4 scale^2 |x|^2
    and constant Laplacian.

    |grad F|^2 = 4 x^T M^2 x, so the gradient condition holds for every x
    iff M^2 = scale^2 I, and then scale^2 = tr(M^2) / m (_square_scale).
    That identity is checked at unit scale through pairwise_relation: bit
    for bit on exact input, the Fraction scale^2 on the diagonal of an
    object target, and within tol on float input; max_gradient_defect is
    its residual.  The Laplacian of x^T M x is the constant 2 tr M
    (laplacian_coefficient), so max_laplacian_defect is 0.0.
    """
    (M,), u = _unit_scale(square_matrices([f_matrix], "function matrices"))
    check_symmetric([M], tol)
    scale_sq = _square_scale(M)
    target = np.diag(np.full(len(M), scale_sq, dtype=object if is_exact(M) else float))
    worst, failure = pairwise_relation([M], target, tol=tol)
    return IsoparametricReport(holds=failure is None, scale=math.sqrt(scale_sq) * u,
                               laplacian_coefficient=2.0 * float(np.trace(to_float(M))) * u,
                               max_gradient_defect=failure[2] if failure else worst,
                               max_laplacian_defect=0.0)


def sphere_restriction_check(phi: QuadraticHarmonicMorphism,
                             tol: float = IDENTITY_TOL) -> SphereRestrictionReport:
    """Whether |phi(x)| = radius * |x|^2, radius being the common positive
    eigenvalue lambda of an umbilical map (_decompose), so that spheres map
    to spheres.

    It holds iff phi has no kernel and n = m/2 + 1.  max_defect is the
    supremum of ||phi(x)| - lambda |x|^2| / (lambda |x|^2) over the unit
    sphere: 0.0 when it holds, 1.0 otherwise.  Write m = 2l and
    P_i = A_i / lambda on a map without kernel.
    * The vectors P_i x are orthogonal with length |x|, so
      sum_i <P_i x, x>^2 <= |x|^4 and |phi(x)| <= lambda |x|^2; with a
      kernel the same holds for the projected point, no longer than x.
    * The mean of that sum over the unit sphere is n / (l + 1), since
      E <P x, x>^2 = 2 tr P^2 / (2l (2l + 2)) for traceless P with P^2 = I;
      so n <= l + 1, and for n = l + 1 the gap |x|^4 - sum is nonnegative
      with mean 0, so it vanishes everywhere.
    * For n <= l, write x = (a, b) in to_standard_representation
      coordinates, where phi(x) / lambda = (|a|^2 - |b|^2, 2 <a, tau_1 b>,
      ..., 2 <a, tau_(n-1) b>).  A unit b and a unit a orthogonal to
      tau_1 b, ..., tau_(n-1) b give phi(x) = 0, and so does a kernel vector.
    """
    _, u, projection, _, _, _, d, groups = _decompose(phi, tol)
    if len(groups) != 1:
        raise NotUmbilical("positive eigenvalues are not all equal")
    holds = projection is None and phi.n == phi.m // 2 + 1
    return SphereRestrictionReport(holds=holds, radius=float(d[0]) * u,
                                   max_defect=0.0 if holds else 1.0)
