"""Known answers, computed with plain numpy and integer arithmetic.

Nothing here calls quadmorph: each check restates the defining identity of
an object kind, or a closed form from the theory, and compares the program's
output against it.  Checks return None on agreement and a reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

TOL = 1e-8


def matrix(rows) -> np.ndarray:
    """Float matrix from document rows (ints, floats or 'p/q' strings)."""
    if any(isinstance(v, str) for row in rows for v in row):
        return np.array([[float(Fraction(v)) for v in row] for row in rows])
    return np.array(rows, dtype=np.float64)


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _pairwise(mats, left):
    """Worst relative defect of left(M_i) @ M_j + left(M_j) @ M_i - 2 delta_ij I."""
    eye = np.eye(mats[0].shape[1])
    worst = 0.0
    for i, a in enumerate(mats):
        for j in range(i, len(mats)):
            b = mats[j]
            anti = left(a) @ b + left(b) @ a
            target = 2.0 * eye if i == j else 0.0
            worst = max(worst, _norm(anti - target) / max(1.0, _norm(a) * _norm(b)))
    return worst


def clifford_defect(mats) -> float:
    """P_i symmetric with P_i P_j + P_j P_i = 2 delta_ij I."""
    if mats[0].shape[0] % 2:
        return np.inf
    sym = max(_norm(P - P.T) / max(1.0, _norm(P)) for P in mats)
    return max(sym, _pairwise(mats, lambda M: M))


def osystem_defect(mats) -> float:
    """tau_i^T tau_j + tau_j^T tau_i = 2 delta_ij I."""
    return _pairwise(mats, lambda M: M.T)


def orthomul_defect(slices) -> float:
    """Square slices multiply norms iff they form an orthogonal tuple."""
    if slices[0].shape[0] != slices[0].shape[1]:
        return np.inf
    return osystem_defect(slices)


def qhm_defect(mats) -> float:
    """Symmetric, traceless, pairwise anticommuting, equal squares."""
    worst = 0.0
    square = mats[0] @ mats[0]
    for A in mats:
        scale = max(1.0, _norm(A))
        worst = max(worst, _norm(A - A.T) / scale, abs(float(np.trace(A))) / scale,
                    _norm(A @ A - square) / max(1.0, _norm(square)))
    off = 0.0
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            off = max(off, _norm(a @ b + b @ a) / max(1.0, _norm(a) * _norm(b)))
    return max(worst, off)


DEFECT = {"clifford": clifford_defect, "osystem": osystem_defect,
          "orthomul": orthomul_defect, "qhm": qhm_defect}


def sigma(m: int) -> int:
    """Radon-Hurwitz number: m = odd * 2^(c + 4d) with 0 <= c <= 3 gives 2^c + 8d."""
    v = 0
    while m % 2 == 0:
        m //= 2
        v += 1
    return 2 ** (v % 4) + 8 * (v // 4)


def integer_clifford_accepts(mats) -> bool:
    """Exact verdict for integer members, in unbounded Python integers."""
    size = len(mats[0])
    for i, a in enumerate(mats):
        if any(a[r][c] != a[c][r] for r in range(size) for c in range(size)):
            return False
        for b in mats[i:]:
            for r in range(size):
                for c in range(size):
                    s = sum(a[r][k] * b[k][c] + b[r][k] * a[k][c] for k in range(size))
                    if s != (2 if (a is b and r == c) else 0):
                        return False
    return True


# ---------------------------------------------------------------------------
# checks on CLI results


def _tail(text: str) -> str:
    lines = (text or "").strip().splitlines()
    return f" ({lines[-1][:160]})" if lines else ""


def expect(code: int, then=None):
    """Exit ``code``; on success ``then(payload)`` checks the parsed JSON output,
    on rejection nothing may be printed."""
    def check(res):
        if res.exit != code:
            return f"exit {res.exit}, expected {code}{_tail(res.stderr)}"
        if code != 0:
            return "printed a result while rejecting" if res.output else None
        return then(json.loads(res.output)) if then is not None else None
    return check


def expect_rejection(res):
    """Input the mathematics rejects: exit 1 (rejected) or 2 (malformed), no result."""
    if res.exit not in (1, 2):
        return f"exit {res.exit}: accepted input that is not a valid object"
    return "printed a result while rejecting" if res.output else None


def document(kind: str, dims: dict, exact=None):
    """An emitted document of ``kind`` and ``dims`` that satisfies its identities."""
    def check(doc):
        if doc.get("kind") != kind or doc.get("dims") != dims:
            return f"document {doc.get('kind')} {doc.get('dims')}, expected {kind} {dims}"
        if exact is not None and (doc.get("scalars") == "rational") != exact:
            return f"scalars {doc.get('scalars')!r}"
        mats = [matrix(rows) for rows in doc["matrices"]]
        defect = DEFECT[kind](mats)
        if not defect <= TOL:
            return f"{kind} identities fail by {defect:.3e}"
        return None
    return check


def verified(kind: str, dims: dict):
    def check(payload):
        if payload.get("valid") is not True or payload.get("kind") != kind \
                or payload.get("dims") != dims:
            return f"verify payload {payload.get('kind')} {payload.get('dims')} valid={payload.get('valid')}"
        return None
    return check


def _close(a, b, rel=1e-6) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= rel * max(1.0, abs(y)) for x, y in zip(a, b))


def classified(m: int, scales, summand_dims, zero_count: int = 0):
    """A map on R^m with a ``zero_count``-dimensional common kernel whose
    umbilical summands have these scales and sizes."""
    def check(payload):
        got = (payload.get("q_rank"), payload.get("zero_count"), payload.get("is_umbilical"),
               payload.get("summand_dims"))
        want = (m - zero_count, zero_count, len(scales) == 1, list(summand_dims))
        if got != want or not _close(payload.get("scales", []), scales):
            return f"classify {got} scales {payload.get('scales')}, expected {want} scales {scales}"
        return None
    return check


def split_reassembles(components, scales, summand_dims):
    """phi(X) = sum_j scale_j summand_j(z_j) with z = split_change @ X, checked
    as C^T diag(scale_j S_j) C = A for every component."""
    m = components[0].shape[0]
    classify_check = classified(m, scales, summand_dims, m - sum(summand_dims))

    def check(payload):
        reason = classify_check(payload)
        if reason:
            return reason
        C = np.array(payload["split_change"], dtype=np.float64)
        parts = [[matrix(rows) for rows in doc["matrices"]] for doc in payload["summands"]]
        for alpha, A in enumerate(components):
            block = np.zeros((C.shape[0], C.shape[0]))
            lo = 0
            for lam, mats in zip(payload["scales"], parts):
                hi = lo + mats[alpha].shape[0]
                block[lo:hi, lo:hi] = lam * mats[alpha]
                lo = hi
            defect = _norm(C.T @ block @ C - A) / max(1.0, _norm(A))
            if not defect <= TOL:
                return f"split does not reassemble component {alpha + 1} ({defect:.3e})"
        return None
    return check


def scaled_copy(kind: str, dims: dict, source, factor: float):
    """A ``kind`` document whose matrices are ``source / factor`` and valid."""
    doc_check = document(kind, dims)

    def check(doc):
        reason = doc_check(doc)
        if reason:
            return reason
        for M, S in zip(doc["matrices"], source):
            if not _norm(matrix(M) - S / factor) <= TOL * max(1.0, _norm(S)):
                return "converted matrices are not the scaled input"
        return None
    return check


def extension(components, total: int):
    """A valid map with ``total`` components whose first ones are the input."""
    def check(mats):
        if len(mats) != total:
            return f"{len(mats)} components, expected {total}"
        defect = qhm_defect(mats)
        if not defect <= TOL:
            return f"extended map fails its identities by {defect:.3e}"
        for M, A in zip(mats, components):
            if not _norm(M - A) <= TOL * max(1.0, _norm(A)):
                return "extension changed an input component"
        return None
    return check


def extended(components, total: int):
    """The CLI form of ``extension``: a qhm document."""
    dims = {"m": components[0].shape[0], "n": total}
    extension_check = extension(components, total)

    def check(doc):
        if doc.get("kind") != "qhm" or doc.get("dims") != dims:
            return f"document {doc.get('kind')} {doc.get('dims')}, expected qhm {dims}"
        return extension_check([matrix(rows) for rows in doc["matrices"]])
    return check


def values(expected):
    def check(payload):
        got = payload.get("values", [])
        if not _close(got, list(expected), rel=1e-9):
            return f"values {got}, expected {list(expected)}"
        return None
    return check
