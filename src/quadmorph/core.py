"""Dense matrix arithmetic with a dual scalar model.

Matrices are plain 2-D numpy arrays in one of two modes:

* exact mode: integer dtype, or object dtype holding python ints and
  ``fractions.Fraction`` values.  Algebraic identities are checked bit for
  bit in this mode, with no tolerance.
* approx mode: float64.  Checks compare relative residuals with a float
  tolerance, ``IDENTITY_TOL`` by default.

Mixed arithmetic promotes exact to approx, never the reverse.  All spectral
work (eigendecomposition, rank by singular values, seeded orthogonal
generation) happens in approx mode on top of LAPACK via numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "IDENTITY_TOL",
    "EIG_PAIR_TOL",
    "RANK_TOL",
    "SpectralDecomposition",
    "as_matrix",
    "is_exact",
    "to_float",
    "to_point",
    "common_mode",
    "identity_matrix",
    "block_diag2",
    "symmetric_off_diagonal",
    "frobenius",
    "rel_residual",
    "is_exactly_zero",
    "square_matrices",
    "check_symmetric",
    "pairwise_relation",
    "ordered_product",
    "spectral_decompose",
    "eigenspace_split",
    "numeric_rank",
    "exact_rank",
    "random_orthogonal",
    "sample_points",
]

from .errors import NoConvergence, NotSymmetric, ShapeMismatch


# ---------------------------------------------------------------------------
# tolerances


IDENTITY_TOL = 1e-9  # relative Frobenius tolerance for matrix identities on float input
EIG_PAIR_TOL = 1e-8  # relative gap that matches eigenvalues into clusters and +/- pairs
RANK_TOL = 1e-9  # scales the largest singular value when counting rank


# ---------------------------------------------------------------------------
# scalar/matrix mode handling


def _coerce_scalar(x):
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, np.floating)):
        return float(x)
    raise TypeError(f"unsupported scalar {x!r}")


def as_matrix(rows):
    """Build a matrix from nested data, picking the tightest mode: the one
    owner of that rule.  Accepts an ndarray, or nested sequences of ints,
    Fractions, floats, and rational strings like "2/3".  All-integer data
    lands in int64 below 2^32 and in Python integers (object) beyond, exact
    rationals in object dtype, anything float in float64; NaN and inf raise
    ValueError, and nested data that is no rectangular table ShapeMismatch.
    int64 arrays pass through; a 2-D object array is read entry by entry
    as the same table in a list (other object arrays pass through to the
    caller's shape check).  A table of Python integers is read by one int64
    array call; other tables are coerced entry by entry.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype == np.int64 or (rows.dtype == object and rows.ndim != 2):
            return rows
        if np.issubdtype(rows.dtype, np.integer):
            return _integer_storage(rows)
        if np.issubdtype(rows.dtype, np.floating):
            return _finite(rows.astype(np.float64, copy=False))
        if rows.dtype != object:
            raise TypeError(f"unsupported dtype {rows.dtype}")
        rows = rows.tolist()
    widths = {len(row) if isinstance(row, (list, tuple, np.ndarray)) else -1 for row in rows}
    if len(widths) != 1 or -1 in widths:
        raise ShapeMismatch("matrix data must be a rectangular table of rows")
    return _table_matrix(rows, set(map(type, itertools.chain.from_iterable(rows))))


def _table_matrix(rows, types):
    """as_matrix of a rectangular table whose entries' distinct types are types."""
    if not all(issubclass(t, int) for t in types):
        rows = [[_coerce_scalar(x) for x in row] for row in rows]
        flat = [x for row in rows for x in row]
        if any(isinstance(x, float) for x in flat):
            return _finite(to_float(np.array(rows, dtype=object)))
        if not all(isinstance(x, int) for x in flat):
            return np.array(rows, dtype=object)
    try:
        return _integer_storage(np.array(rows, dtype=np.int64))
    except OverflowError:  # beyond int64
        return np.array([[int(x) for x in row] for row in rows], dtype=object)


def _integer_storage(a):
    """int64 below 2^32 in absolute value, Python integers (object) beyond."""
    return a.astype(np.int64 if _peak(a) < 2**32 else object, copy=False)


def _finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite numbers")
    return a


def is_exact(a) -> bool:
    return a.dtype != np.float64


def to_float(a) -> np.ndarray:
    """The matrix in float64; ValueError, as for non-finite input, when exact
    entries lie beyond the float64 range."""
    if a.dtype == np.float64:
        return a
    try:
        return a.astype(np.float64)
    except OverflowError:
        raise ValueError("matrix entries must be finite numbers") from None


def to_point(x) -> np.ndarray:
    """A point as a flat float64 vector, with the ValueError of to_float for
    coordinates that are not finite or lie beyond the float64 range."""
    return _finite(to_float(np.asarray(x).reshape(-1)))


def common_mode(*arrays):
    """Promote a group of matrices to a shared mode (exact -> approx only, any float dtype)."""
    if any(a.dtype.kind == "f" for a in arrays):
        return tuple(to_float(a) for a in arrays)
    if any(a.dtype == object for a in arrays):
        return tuple(a if a.dtype == object else a.astype(object) for a in arrays)
    return arrays


def identity_matrix(n, exact=True):
    return np.eye(n, dtype=np.int64 if exact else np.float64)


def block_diag2(a, b):
    a, b = common_mode(a, b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def symmetric_off_diagonal(tau):
    """The symmetric block matrix [[0, tau], [tau^T, 0]] in tau's dtype."""
    p, q = tau.shape
    out = np.zeros((p + q, p + q), dtype=tau.dtype)
    out[:p, p:] = tau
    out[p:, :p] = tau.T
    return out


# ---------------------------------------------------------------------------
# residuals


def frobenius(a) -> float:
    """The Frobenius norm, bit for bit np.linalg.norm's value: the square
    root of the flat BLAS dot product, as norm computes it for a real
    matrix.  np.vdot runs the same ddot as ndarray.dot but raises no
    overflow warning, so a norm beyond the float64 range is a quiet inf and
    a NaN entry gives NaN."""
    try:
        v = to_float(a).ravel(order="K")
    except ValueError:  # exact entries beyond the float64 range
        return math.inf
    return math.sqrt(np.vdot(v, v))


def rel_residual(actual, expected) -> float:
    """Frobenius residual of actual against expected, relative with floor 1."""
    return frobenius(actual - expected) / max(1.0, frobenius(expected))


def is_exactly_zero(a) -> bool:
    return not np.any(a)


# ---------------------------------------------------------------------------
# shared verification steps


def square_matrices(candidate, noun: str) -> list:
    """The candidate's members as matrices of one mode; ShapeMismatch unless
    there is at least one and all are square of one size."""
    mats = [as_matrix(M) for M in candidate]
    if not mats:
        raise ShapeMismatch(f"need at least one of the {noun}")
    square = mats[0].shape[:1] * 2  # () for a 0-D member, which no square shape matches
    if any(M.ndim != 2 or M.shape != square for M in mats):
        raise ShapeMismatch(f"all {noun} must be square matrices of one size")
    return list(common_mode(*mats))


@np.errstate(over="ignore", invalid="ignore")
def check_symmetric(mats, tol: float = IDENTITY_TOL) -> None:
    """NotSymmetric (1-based) for the first matrix unequal to its transpose:
    bit for bit in exact mode, beyond tol relative otherwise (M - M^T may
    overflow on finite input: an inf or NaN defect rejects)."""
    for i, M in enumerate(mats, start=1):
        if is_exact(M):
            if not np.array_equal(M, M.T):
                raise NotSymmetric(i)
        else:
            defect = rel_residual(M, M.T)
            if not defect <= tol:
                raise NotSymmetric(i, defect)


def _peak(M) -> int:
    return max(abs(int(M.max())), abs(int(M.min()))) if M.size else 0


def _product_dtype(mats, inner: int, target=None):
    """The dtype in which products of the exact matrices mats over an inner
    dimension of length inner, and sums of two such products, come out exact,
    an integer target being compared with them: float64 or object.

    Every partial sum of a product is bounded by inner * peak^2.  Up to 2^53
    (the target's entries too) it is an integer float64 holds exactly, so
    BLAS computes the products exactly, and a nonzero integer sum of two of
    them never rounds to 0: float64.  Beyond that, and for object members,
    Python integers: object.  int64 is storage only; no product runs in it.
    """
    if mats[0].dtype == object:
        return object
    bound = inner * max(_peak(M) for M in mats) ** 2
    if target is not None and np.issubdtype(target.dtype, np.integer):
        bound = max(bound, _peak(target))
    return np.float64 if bound <= 2**53 else object


def _exact_matmul(a, b):
    """a @ b for exact a and b in the dtype of _product_dtype: float64
    products come back as int64, the others as Python integers (object)."""
    dtype = _product_dtype([a, b], b.shape[0])
    prod = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return prod.astype(np.int64) if dtype == np.float64 else prod


def ordered_product(mats):
    """The ordered product M_1 M_2 ... M_k of square d x d matrices.

    Float and object members multiply in order as they are.  Integer members
    never wrap around: when (d * peak)^k <= 2^53, a bound on every entry and
    partial sum of every partial product and on the trace, the whole chain
    runs in float64 through BLAS, exactly; otherwise each step multiplies in
    the dtype of _product_dtype for the running product and the next member
    (float64, or Python integers once a partial sum could pass 2^53).  An
    integer product comes back as int64 when every step ran in float64, and
    as object otherwise.
    """
    if not all(np.issubdtype(M.dtype, np.integer) for M in mats):
        return functools.reduce(np.matmul, mats)
    stack = np.stack(mats)
    if (stack.shape[-1] * _peak(stack)) ** len(stack) <= 2**53:
        return functools.reduce(np.matmul, stack.astype(np.float64)).astype(np.int64)
    return functools.reduce(_exact_matmul, mats)


@np.errstate(over="ignore", invalid="ignore")
def pairwise_relation(mats, target=None, tol: float = IDENTITY_TOL):
    """Check M_i^T M_j + M_j^T M_i = 2 delta_ij T over the pairs i <= j in
    row order, T defaulting to M_1^T M_1 (all M_i^T M_i agree), with one
    product X = M_i^T M_j per off-diagonal pair, summed as X + X^T.  On
    symmetric members this is the Clifford relation; its callers check
    symmetry first.  Exact members compare bit for bit; float members
    compare rel_residual(M_i^T M_i, T) and
    |M_i^T M_j + M_j^T M_i| / max(1, |M_i| |M_j|) against tol.
    Returns (worst residual, first failing pair as 1-based (i, j, residual)
    or None); an exact failure reports its absolute Frobenius residual.
    Float products may overflow on finite input: an inf or NaN residual
    rejects.
    """
    exact = is_exact(mats[0])
    if exact:
        dtype = _product_dtype(mats, mats[0].shape[0], target)
        mats = [M.astype(dtype, copy=False) for M in mats]
        if target is not None and dtype == np.float64:
            target = target.astype(np.float64)
    if target is None:
        target = mats[0].T @ mats[0]
    norms = [1.0 if exact else frobenius(M) for M in mats]
    target_norm = 1.0 if exact else frobenius(target)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            if i == j:
                value, expected, scale = mats[i].T @ mats[i], target, target_norm
            else:
                product = mats[i].T @ mats[j]
                value, expected, scale = product + product.T, 0, norms[i] * norms[j]
            if exact:
                failed = not np.all(value == expected)
                resid = frobenius(value - expected) if failed else 0.0
            else:
                resid = frobenius(value - expected) / max(1.0, scale)
                failed = not (resid <= tol)
            if failed:
                return worst, (i + 1, j + 1, resid)
            worst = max(worst, resid)
    return worst, None


def _orthogonal_relation(mats, tol):
    """pairwise_relation with T = I_q on d x q matrices of one mode: O-system
    members, orthomul's slices, and symmetry-checked Clifford members."""
    eye = identity_matrix(mats[0].shape[1], exact=is_exact(mats[0]))
    return pairwise_relation(mats, eye, tol=tol)


# ---------------------------------------------------------------------------
# spectral decomposition with deterministic tie-breaking


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues descending, eigenvector columns aligned and orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigenvalue_clusters(values):
    """Split a descending sequence into runs apart by relative gaps > EIG_PAIR_TOL."""
    groups, start = [], 0
    n = len(values)
    for i in range(1, n + 1):
        if i == n or values[i - 1] - values[i] > EIG_PAIR_TOL * max(1.0, abs(values[i - 1])):
            groups.append((start, i))
            start = i
    return groups


def _sign_normalize(col):
    k = int(np.argmax(np.abs(col)))
    return -col if col[k] < 0 else col


def spectral_decompose(a, tol: float = IDENTITY_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, descending, deterministic.

    Within an eigenvalue cluster (relative gap below EIG_PAIR_TOL) the
    eigenvector columns are rebuilt from the cluster projector P: its columns
    P e_i are taken in index order, each minus its projection onto the basis
    chosen so far (one product pair per column), and kept, normalized and
    sign-normalized, when that residual exceeds 1e-6.  That makes
    repeated-eigenvalue output reproducible and, for exactly diagonal input,
    a signed permutation.
    """
    A = to_float(a)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(1, None)
    check_symmetric([A], tol)
    S = (A + A.T) / 2.0
    try:
        w, v = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    n = len(w)
    for lo, hi in eigenvalue_clusters(w):
        if hi - lo == 1:
            v[:, lo] = _sign_normalize(v[:, lo])
            continue
        proj = v[:, lo:hi] @ v[:, lo:hi].T
        basis, r = np.empty((n, hi - lo)), 0
        for i in range(n):
            chosen = basis[:, :r]
            cand = proj[:, i] - chosen @ (chosen.T @ proj[:, i])
            nrm = np.linalg.norm(cand)
            # a rank-(hi-lo) projector always leaves some column with
            # residual norm >= sqrt((hi-lo-r)/n) > 1e-6
            if nrm > 1e-6:
                basis[:, r] = _sign_normalize(cand / nrm)
                r += 1
                if r == hi - lo:
                    break
        v[:, lo:hi] = basis
    recon = rel_residual(v @ np.diag(w) @ v.T, S)
    if not recon <= tol:
        raise NoConvergence(f"reconstruction residual {recon:.3e} exceeds tolerance")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def eigenspace_split(mats, tol: float = IDENTITY_TOL, sd=None):
    """Split along the eigenspaces of the first member: (G, D, blocks, defects)
    with G orthogonal, G M_1 G^T = diag(D, -D) and D positive descending, the
    negative eigenvectors taken in reverse order so that -D mirrors D.

    blocks[i] is the upper-right k x k block of G M_(i+2) G^T, and defects[i]
    the larger Frobenius norm of its two diagonal blocks relative to
    max(1, |G M_(i+2) G^T|), which the split drops and the caller bounds.
    Input already in that layout, later members with exactly vanishing
    diagonal blocks, passes through with G = I in its own mode; sd, when
    given, is the spectral decomposition of M_1.  The split only builds: its
    callers gate M_1's eigenvalues (qhm._decompose, to_standard_representation).
    """
    first, k = mats[0], len(mats[0]) // 2
    d = np.diag(first)
    head = d[:k]
    if (np.array_equal(first, np.diag(d)) and np.all(head > 0) and np.all(head[:-1] >= head[1:])
            and np.array_equal(d[k:], -head)
            and all(is_exactly_zero(M[:k, :k]) and is_exactly_zero(M[k:, k:]) for M in mats[1:])):
        return (identity_matrix(len(first), exact=is_exact(first)), first[:k, :k].copy(),
                tuple(M[:k, k:].copy() for M in mats[1:]), (0.0,) * (len(mats) - 1))
    if sd is None:
        sd = spectral_decompose(first, tol)
    G = np.column_stack([sd.eigenvectors[:, :k], sd.eigenvectors[:, k:][:, ::-1]]).T
    rotated = [G @ to_float(P) @ G.T for P in mats[1:]]
    defects = tuple(max(frobenius(M[:k, :k]), frobenius(M[k:, k:])) / max(1.0, frobenius(M))
                    for M in rotated)
    return G, np.diag(sd.eigenvalues[:k]), tuple(M[:k, k:] for M in rotated), defects


# ---------------------------------------------------------------------------
# rank


def exact_rank(a) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in a.tolist()]
    ncols = a.shape[1]
    rank, pivot_row = 0, 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        piv = rows[pivot_row][col]
        rows[pivot_row] = [x / piv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def numeric_rank(a) -> int:
    """Rank of a matrix.

    Exact mode reads it from the exact Gram matrix A A^T (A^2 for symmetric
    A), which has the rank of A: when that is diagonal, the rows of A are
    orthogonal and the rank is its count of nonzero diagonal entries;
    otherwise one exact_rank elimination.  The product runs in the dtype of
    _product_dtype, float64 through BLAS up to 2^53 and Python integers past
    it, so int64 input never wraps around.  Approx mode counts
    the singular values above RANK_TOL times the largest.
    """
    if is_exact(a):
        M = a.astype(_product_dtype([a], a.shape[1]), copy=False)
        gram = M @ M.T
        nonzero = int(np.count_nonzero(np.diagonal(gram)))
        return nonzero if np.count_nonzero(gram) == nonzero else exact_rank(a)
    s = np.linalg.svd(to_float(a), compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


# ---------------------------------------------------------------------------
# seeded generators


def random_orthogonal(m: int, seed: int) -> np.ndarray:
    """Deterministic near-Haar orthogonal matrix from a seeded Gaussian QR."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def sample_points(dim: int, count: int, seed: int) -> np.ndarray:
    """count x dim standard-normal sample, deterministic per (dim, count, seed)."""
    if count < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, dim))

