"""JSON interchange for systems, multiplications and quadratic maps.

One document shape covers all four object kinds:

    {
      "kind":     "clifford" | "osystem" | "orthomul" | "qhm",
      "dims":     {...},            # per-kind dimension fields
      "scalars":  "rational" | "float",
      "matrices": [[[...], ...], ...],
      "meta":     {"command": ..., "seed": ..., "version": ...}
    }

Rational entries are JSON integers or strings like "2/3"; float entries
are JSON numbers (repr round-trips, so dumps is byte-deterministic
and lossless).  decode checks structure only; run the matching verifier on
the result before trusting the mathematics.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .clifford import CliffordSystem
from .core import as_matrix, is_exact
from .errors import DocumentFormatError
from .orthomul import OrthogonalMultiplication
from .osystem import OSystem
from .qhm import QuadraticHarmonicMorphism

__all__ = ["encode", "decode", "dumps", "loads", "kind_of"]

_DIM_FIELDS = {
    "clifford": ("two_m", "n"),
    "osystem": ("m", "n"),
    "orthomul": ("p", "q", "n_out"),
    "qhm": ("m", "n"),
}


def kind_of(obj) -> str:
    if isinstance(obj, CliffordSystem):
        return "clifford"
    if isinstance(obj, OSystem):
        return "osystem"
    if isinstance(obj, OrthogonalMultiplication):
        return "orthomul"
    if isinstance(obj, QuadraticHarmonicMorphism):
        return "qhm"
    raise DocumentFormatError(f"cannot serialize objects of type {type(obj).__name__}")


def _matrices_of(obj):
    if isinstance(obj, OrthogonalMultiplication):
        return obj.slices
    if isinstance(obj, QuadraticHarmonicMorphism):
        return obj.components
    return obj.matrices


def _rational_to_json(v):
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    raise DocumentFormatError(f"exact matrix holds a non-rational entry {v!r}")


def _matrix_to_json(M, exact: bool):
    """Nested lists of JSON numbers, and of rational strings in an exact
    document; float and int64 matrices convert in one tolist()."""
    if not exact:
        return M.astype(np.float64, copy=False).tolist()
    if M.dtype == np.int64:
        return M.tolist()
    return [[_rational_to_json(v) for v in row] for row in M.tolist()]


def encode(obj, command: str = "library", seed=None, version: str = "") -> dict:
    """Document dict for a system, multiplication, or map."""
    kind = kind_of(obj)
    mats = _matrices_of(obj)
    exact = all(is_exact(M) for M in mats)
    return {
        "kind": kind,
        "dims": {f: int(getattr(obj, f)) for f in _DIM_FIELDS[kind]},
        "scalars": "rational" if exact else "float",
        "matrices": [_matrix_to_json(M, exact) for M in mats],
        "meta": {"command": command, "seed": seed, "version": version},
    }


def _require(cond, msg):
    if not cond:
        raise DocumentFormatError(msg)


def _decode_matrix(rows, scalars: str, pos: int):
    _require(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
             f"matrix {pos} is not a non-empty list of rows")
    width = len(rows[0])
    _require(width > 0 and all(len(r) == width for r in rows),
             f"matrix {pos} is not rectangular")
    for r in rows:
        for v in r:
            if scalars == "rational":
                _require(isinstance(v, (int, str)) and not isinstance(v, bool),
                         f"matrix {pos}: rational entries must be integers or 'p/q' strings")
            else:
                _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                         f"matrix {pos}: float entries must be numbers")
    try:
        if scalars == "float":
            return as_matrix(np.array(rows, dtype=np.float64))
        return as_matrix(rows)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DocumentFormatError(f"matrix {pos}: {exc}") from exc


def decode(doc: dict):
    """Rebuild the object named by a document; structural validation only."""
    _require(isinstance(doc, dict), "document must be a JSON object")
    extra = set(doc) - {"kind", "dims", "scalars", "matrices", "meta"}
    _require(not extra, f"unexpected document keys: {sorted(extra)}")
    for key in ("kind", "dims", "scalars", "matrices"):
        _require(key in doc, f"document is missing the '{key}' key")
    kind = doc["kind"]
    _require(kind in _DIM_FIELDS, f"unknown kind {kind!r}")
    scalars = doc["scalars"]
    _require(scalars in ("rational", "float"),
             f"scalars must be 'rational' or 'float', not {scalars!r}")
    dims = doc["dims"]
    fields = _DIM_FIELDS[kind]
    _require(isinstance(dims, dict) and set(dims) == set(fields),
             f"dims for kind {kind!r} must have exactly the keys {list(fields)}")
    for f in fields:
        _require(isinstance(dims[f], int) and not isinstance(dims[f], bool) and dims[f] >= 1,
                 f"dims.{f} must be a positive integer")
    raw = doc["matrices"]
    _require(isinstance(raw, list) and raw, "matrices must be a non-empty list")
    mats = [_decode_matrix(rows, scalars, pos) for pos, rows in enumerate(raw, start=1)]
    if scalars == "rational":
        _require(all(is_exact(M) for M in mats),
                 "scalars says rational but an entry decoded to a float")
    if kind == "clifford":
        _require(len(mats) == dims["n"], f"expected {dims['n']} matrices, found {len(mats)}")
        _require(all(M.shape == (dims["two_m"], dims["two_m"]) for M in mats),
                 "matrix shapes disagree with dims.two_m")
        return CliffordSystem(two_m=dims["two_m"], n=dims["n"], matrices=tuple(mats))
    if kind == "osystem":
        _require(len(mats) == dims["n"], f"expected {dims['n']} matrices, found {len(mats)}")
        _require(all(M.shape == (dims["m"], dims["m"]) for M in mats),
                 "matrix shapes disagree with dims.m")
        return OSystem(m=dims["m"], n=dims["n"], matrices=tuple(mats))
    if kind == "orthomul":
        _require(len(mats) == dims["p"], f"expected {dims['p']} slices, found {len(mats)}")
        _require(all(M.shape == (dims["n_out"], dims["q"]) for M in mats),
                 "slice shapes disagree with dims.n_out x dims.q")
        return OrthogonalMultiplication(p=dims["p"], q=dims["q"], n_out=dims["n_out"],
                                        slices=tuple(mats))
    _require(len(mats) == dims["n"], f"expected {dims['n']} matrices, found {len(mats)}")
    _require(all(M.shape == (dims["m"], dims["m"]) for M in mats),
             "matrix shapes disagree with dims.m")
    return QuadraticHarmonicMorphism(m=dims["m"], n=dims["n"], components=tuple(mats))


def dumps(doc: dict) -> str:
    """Canonical serialization: sorted keys, no whitespace, one trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _reject_constant(name):
    raise DocumentFormatError(f"non-finite number {name} in the document")


def loads(text: str) -> dict:
    """Parse a document; NaN and Infinity tokens raise DocumentFormatError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"invalid JSON: {exc}") from exc
