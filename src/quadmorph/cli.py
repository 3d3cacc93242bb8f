"""Command line front end.

Subcommands: sigma, construct, verify, classify, convert, extend, split,
eval.  Documents travel as the JSON interchange format of
:mod:`quadmorph.serialize`; all output is byte-deterministic for a fixed
command, seed and version.

Exit codes: 0 success, 1 mathematical rejection (the input parsed but fails
a defining identity or structural precondition), 2 usage or format problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import __version__, serialize
from . import clifford as _clifford
from . import orthomul as _orthomul
from . import osystem as _osystem
from . import qhm as _qhm
from .core import DEFAULT_TOLERANCES, to_float
from .errors import QuadmorphError, VerificationError

__all__ = ["run", "main"]


def _default_seed() -> int:
    try:
        return int(os.environ.get("QHM_SEED", "0"))
    except ValueError:
        return 0


def _tolerances(args):
    return dataclasses.replace(DEFAULT_TOLERANCES, identity_tol=args.tol)


def _read_document(path: str) -> dict:
    if path == "-":
        return serialize.loads(sys.stdin.read())
    try:
        return serialize.loads(Path(path).read_text())
    except OSError as exc:
        raise QuadmorphError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


_CHECKS = {"clifford": _clifford.check_clifford, "osystem": _osystem.check_osystem,
           "orthomul": _orthomul.check_orthomul, "qhm": _qhm.check_qhm}


def _verify_object(obj, args):
    """Run the kind's checks once; returns (validated, worst residuals)."""
    kind = serialize.kind_of(obj)
    sampled = {"samples": args.samples, "seed": args.seed} if kind == "qhm" else {}
    return _CHECKS[kind](getattr(obj, serialize._KINDS[kind].attr), _tolerances(args), **sampled)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sigma(args) -> int:
    d = _osystem.hurwitz_radon(args.m)
    if args.format == "json":
        payload = {"m": d.m, "r": d.r, "c": d.c, "d": d.d, "sigma": d.sigma}
        _emit(serialize.dumps(payload), args.out)
    else:
        _emit(f"m={d.m} r={d.r} c={d.c} d={d.d} sigma={d.sigma}\n", args.out)
    return 0


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "clifford":
        if args.n is None:
            raise QuadmorphError("construct clifford needs --n")
        obj = _clifford.construct_irreducible(args.n)
        command = f"construct clifford --n {args.n}"
    elif kind == "osystem":
        if args.m is None:
            raise QuadmorphError("construct osystem needs --m")
        obj = _osystem.construct_range_maximal(args.m)
        command = f"construct osystem --m {args.m}"
    elif kind == "orthomul":
        if args.n is None:
            raise QuadmorphError("construct orthomul needs --n")
        obj = _orthomul.standard_multiplication(args.n)
        command = f"construct orthomul --n {args.n}"
    else:
        if (args.hopf is None) == (args.n is None):
            raise QuadmorphError("construct qhm needs exactly one of --hopf or --n")
        if args.hopf is not None:
            obj = _orthomul.hopf_construction(_orthomul.standard_multiplication(args.hopf))
            command = f"construct qhm --hopf {args.hopf}"
        else:
            obj = _qhm.from_clifford(_clifford.construct_irreducible(args.n))
            command = f"construct qhm --n {args.n}"
    doc = serialize.encode(obj, command=command, seed=args.seed, version=__version__)
    _emit(serialize.dumps(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    doc = _read_document(args.file)
    obj = serialize.decode(doc)
    _, residuals = _verify_object(obj, args)
    payload = {"kind": doc["kind"], "dims": doc["dims"], "scalars": doc["scalars"],
               "valid": True, "residuals": residuals}
    _emit(serialize.dumps(payload), args.out)
    return 0


def _classification_payload(report) -> dict:
    return {
        "q_rank": report.q_rank,
        "zero_count": report.zero_count,
        "is_q_nonsingular": report.is_q_nonsingular,
        "is_umbilical": report.is_umbilical,
        "positive_eigenvalues": [float(v) for v in report.positive_eigenvalues],
        "scales": [float(lam) for lam, _ in report.splitting],
        "summand_dims": [summand.m for _, summand in report.splitting],
    }


def _decoded_qhm(args, what: str):
    doc = _read_document(args.file)
    obj = serialize.decode(doc)
    if doc["kind"] != "qhm":
        raise QuadmorphError(f"{what} expects a qhm document, found kind {doc['kind']!r}")
    return _qhm.verify_qhm(obj.components, _tolerances(args),
                           samples=args.samples, seed=args.seed)


def _cmd_classify(args) -> int:
    phi = _decoded_qhm(args, "classify")
    report = _qhm.classify(phi, _tolerances(args))
    _emit(serialize.dumps(_classification_payload(report)), args.out)
    return 0


_CONVERSIONS = {
    ("qhm", "clifford"): lambda phi, tol: _qhm.clifford_system(phi, _qhm.classify(phi, tol), tol),
    ("clifford", "qhm"): _qhm.from_clifford,
    ("clifford", "osystem"): lambda cs, tol: _clifford.to_standard_representation(cs, tol)[1],
    ("osystem", "clifford"): _osystem.to_clifford,
    ("osystem", "orthomul"): _orthomul.from_osystem,
    ("orthomul", "osystem"): _orthomul.to_osystem,
}


def _cmd_convert(args) -> int:
    doc = _read_document(args.file)
    obj = serialize.decode(doc)
    src = doc["kind"]
    to = args.to
    tol = _tolerances(args)
    obj, _ = _verify_object(obj, args)
    if (src, to) not in _CONVERSIONS:
        raise QuadmorphError(f"no conversion from {src} to {to}")
    result = _CONVERSIONS[src, to](obj, tol)
    out_doc = serialize.encode(result, command=f"convert {src} {to}",
                               seed=args.seed, version=__version__)
    _emit(serialize.dumps(out_doc), args.out)
    return 0


def _cmd_extend(args) -> int:
    phi = _decoded_qhm(args, "extend")
    extended = _qhm.range_extend(phi, _tolerances(args), seed=args.seed)
    out_doc = serialize.encode(extended, command="extend", seed=args.seed,
                               version=__version__)
    _emit(serialize.dumps(out_doc), args.out)
    return 0


def _cmd_split(args) -> int:
    phi = _decoded_qhm(args, "split")
    report = _qhm.classify(phi, _tolerances(args))
    summands = [serialize.encode(summand, command=f"split summand {i}",
                                 seed=args.seed, version=__version__)
                for i, (_, summand) in enumerate(report.splitting, start=1)]
    payload = _classification_payload(report)
    payload["summands"] = summands
    payload["split_change"] = [[float(v) for v in row] for row in report.split_change]
    payload["projection"] = (None if report.projection is None else
                             [[float(v) for v in row] for row in to_float(report.projection)])
    _emit(serialize.dumps(payload), args.out)
    return 0


def _parse_vector(text: str, what: str):
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise QuadmorphError(f"{what} must be comma-separated numbers: {exc}") from exc


def _cmd_eval(args) -> int:
    doc = _read_document(args.file)
    obj = serialize.decode(doc)
    if doc["kind"] == "qhm":
        if args.point is None:
            raise QuadmorphError("eval on a qhm document needs --point")
        values = _qhm.evaluate(obj, _parse_vector(args.point, "--point"))
        payload = {"kind": "qhm", "values": [float(v) for v in values]}
    elif doc["kind"] == "orthomul":
        if args.x is None or args.y is None:
            raise QuadmorphError("eval on an orthomul document needs --x and --y")
        values = _orthomul.multiply(obj, _parse_vector(args.x, "--x"),
                                    _parse_vector(args.y, "--y"))
        payload = {"kind": "orthomul", "values": [float(v) for v in values]}
    else:
        raise QuadmorphError(f"eval supports qhm and orthomul documents, found {doc['kind']!r}")
    _emit(serialize.dumps(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadmorph",
        description="Construct, verify, convert and classify anticommuting "
                    "matrix systems and quadratic harmonic morphisms.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    common.add_argument("--seed", type=int, default=_default_seed(),
                        help="seed for sampled checks and searches (env QHM_SEED overrides the default)")
    common.add_argument("--samples", type=int, default=64, help="sample count for the sampled route of qhm documents")
    common.add_argument("--tol", type=float, default=1e-9, help="identity tolerance for float checks")
    common.add_argument("--format", choices=["json"], default=None,
                        help="force JSON output (sigma prints a text line by default)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", parents=[common],
                       help="Hurwitz-Radon decomposition and member bound for a dimension")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a canonical object document")
    p.add_argument("kind", choices=["clifford", "osystem", "orthomul", "qhm"])
    p.add_argument("--n", type=int, default=None,
                   help="members minus one (clifford/qhm) or factor dimension (orthomul)")
    p.add_argument("--m", type=int, default=None, help="ambient dimension (osystem)")
    p.add_argument("--hopf", type=int, default=None,
                   help="build the doubled norm-split map of the standard multiplication on this dimension")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="check a document's defining identities")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", parents=[common],
                       help="rank, spectrum and splitting report for a qhm document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("convert", parents=[common], help="convert between object kinds")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=["clifford", "osystem", "orthomul", "qhm"])
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("extend", parents=[common],
                       help="append components to a domain-minimal qhm up to the dimension bound")
    p.add_argument("file")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("split", parents=[common],
                       help="decompose a qhm into scaled umbilical summands")
    p.add_argument("file")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("eval", parents=[common], help="evaluate a map or multiplication at points")
    p.add_argument("file")
    p.add_argument("--point", default=None, help="comma-separated domain point (qhm)")
    p.add_argument("--x", default=None, help="comma-separated left factor (orthomul)")
    p.add_argument("--y", default=None, help="comma-separated right factor (orthomul)")
    p.set_defaults(func=_cmd_eval)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except QuadmorphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
