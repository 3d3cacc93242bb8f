"""Input documents for the CLI workloads, written without the code under test.

Exact inputs start from the library's integer constructions; everything the
benchmark derives from them (seeded orthogonal conjugates, scaled direct
sums, perturbed and malformed documents) is plain numpy and json here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DIM_FIELDS = {"clifford": ("two_m", "n"), "osystem": ("m", "n"),
              "orthomul": ("p", "q", "n_out"), "qhm": ("m", "n")}


def orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def conjugate(mats, rng):
    """Q M Q^T for one seeded orthogonal Q: preserves every identity checked."""
    Q = orthogonal(mats[0].shape[0], rng)
    return [Q @ np.asarray(M, dtype=np.float64) @ Q.T for M in mats]


def scaled_sum(mats, scales):
    """Components of the direct sum of scale_k * phi over the given scales."""
    return [np.kron(np.diag(np.asarray(scales, dtype=np.float64)), M) for M in mats]


def dims_of(kind: str, mats) -> dict:
    size = mats[0].shape
    values = {"clifford": (size[0], len(mats)), "osystem": (size[0], len(mats)),
              "orthomul": (len(mats), size[1], size[0]), "qhm": (size[0], len(mats))}[kind]
    return dict(zip(DIM_FIELDS[kind], (int(v) for v in values)))


def make_doc(kind: str, mats) -> dict:
    exact = all(np.issubdtype(np.asarray(M).dtype, np.integer) for M in mats)
    return {"kind": kind, "dims": dims_of(kind, mats),
            "scalars": "rational" if exact else "float",
            "matrices": [np.asarray(M).tolist() for M in mats],
            "meta": {"command": "benchmark input", "seed": None, "version": ""}}


def write(path: Path, doc) -> Path:
    """Write a document (or raw text); NaN is written as the bare JSON extension."""
    text = doc if isinstance(doc, str) else json.dumps(doc, separators=(",", ":"))
    path.write_text(text + "\n")
    return path
