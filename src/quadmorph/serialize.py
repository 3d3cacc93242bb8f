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
from typing import NamedTuple

import numpy as np

from .clifford import CliffordSystem
from .core import as_matrix, is_exact
from .errors import DocumentFormatError
from .orthomul import OrthogonalMultiplication
from .osystem import OSystem
from .qhm import QuadraticHarmonicMorphism

__all__ = ["encode", "decode", "dumps", "loads", "kind_of"]


class _Kind(NamedTuple):
    cls: type
    attr: str  # the attribute that holds the matrices
    dims: tuple  # the dims fields
    count: str  # the dims field that counts the members
    shape: tuple  # the dims fields that give each member's shape


_KINDS = {
    "clifford": _Kind(CliffordSystem, "matrices", ("two_m", "n"), "n", ("two_m", "two_m")),
    "osystem": _Kind(OSystem, "matrices", ("m", "n"), "n", ("m", "m")),
    "orthomul": _Kind(OrthogonalMultiplication, "slices", ("p", "q", "n_out"), "p",
                      ("n_out", "q")),
    "qhm": _Kind(QuadraticHarmonicMorphism, "components", ("m", "n"), "n", ("m", "m")),
}


def kind_of(obj) -> str:
    for kind, k in _KINDS.items():
        if isinstance(obj, k.cls):
            return kind
    raise DocumentFormatError(f"cannot serialize objects of type {type(obj).__name__}")


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
    mats = getattr(obj, _KINDS[kind].attr)
    exact = all(is_exact(M) for M in mats)
    return {
        "kind": kind,
        "dims": {f: int(getattr(obj, f)) for f in _KINDS[kind].dims},
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
    _require(isinstance(kind, str) and kind in _KINDS, f"unknown kind {kind!r}")
    scalars = doc["scalars"]
    _require(scalars in ("rational", "float"),
             f"scalars must be 'rational' or 'float', not {scalars!r}")
    dims = doc["dims"]
    k = _KINDS[kind]
    _require(isinstance(dims, dict) and set(dims) == set(k.dims),
             f"dims for kind {kind!r} must have exactly the keys {list(k.dims)}")
    for f in k.dims:
        _require(isinstance(dims[f], int) and not isinstance(dims[f], bool) and dims[f] >= 1,
                 f"dims.{f} must be a positive integer")
    raw = doc["matrices"]
    _require(isinstance(raw, list) and raw, "matrices must be a non-empty list")
    mats = [_decode_matrix(rows, scalars, pos) for pos, rows in enumerate(raw, start=1)]
    count = dims[k.count]
    _require(len(mats) == count, f"expected {count} matrices, found {len(mats)}")
    _require(all(M.shape == tuple(dims[f] for f in k.shape) for M in mats),
             "matrix shapes disagree with " + " x ".join(f"dims.{f}" for f in k.shape))
    return k.cls(**dims, **{k.attr: tuple(mats)})


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
