"""Command line front end.

Subcommands: sigma, construct, verify, classify, convert, extend, split,
eval.  Documents travel as the JSON interchange format of
:mod:`quadmorph.serialize`; all output is byte-deterministic for a fixed
command, seed and version.

Exit codes: 0 success, 1 mathematical rejection (the input parsed but fails
a defining identity or structural precondition), 2 usage or format problems
and requests too large for memory.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__, serialize
from . import clifford as _clifford
from . import orthomul as _orthomul
from . import osystem as _osystem
from . import qhm as _qhm
from .core import IDENTITY_TOL, to_float
from .errors import QuadmorphError, VerificationError

__all__ = ["run", "main"]


def _read(args):
    """The document named by args.file ('-' for stdin) and the object it
    decodes to."""
    if args.file == "-":
        doc = serialize.loads(sys.stdin.read())
    else:
        try:
            doc = serialize.loads(Path(args.file).read_text())
        except OSError as exc:
            raise QuadmorphError(f"cannot read {args.file}: {exc}") from exc
    return doc, serialize.decode(doc)


def _document(obj, command: str, args) -> dict:
    return serialize.encode(obj, command=command, seed=args.seed, version=__version__)


def _emit(payload, args) -> int:
    """Write a JSON payload, or a text line as it is, to --out or stdout;
    returns the exit code 0."""
    text = payload if isinstance(payload, str) else serialize.dumps(payload)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify_object(obj, args):
    """Run the kind's checks once; returns (validated, worst residuals)."""
    kind = serialize.kind_of(obj)
    row = serialize._KINDS[kind]
    sampled = {"samples": args.samples, "seed": args.seed} if kind == "qhm" else {}
    return row.check(getattr(obj, row.attr), args.tol, **sampled)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sigma(args) -> int:
    d = _osystem.hurwitz_radon(args.m)
    if args.format == "json":
        return _emit({"m": d.m, "r": d.r, "c": d.c, "d": d.d, "sigma": d.sigma}, args)
    return _emit(f"m={d.m} r={d.r} c={d.c} d={d.d} sigma={d.sigma}\n", args)


# (kind, flag) -> constructor from the flag's value; a kind takes exactly one
# of its flags and ignores the flags of other kinds
_CONSTRUCTORS = {
    ("clifford", "n"): _clifford.construct_irreducible,
    ("osystem", "m"): _osystem.construct_range_maximal,
    ("orthomul", "n"): _orthomul.standard_multiplication,
    ("qhm", "hopf"): lambda d: _orthomul.hopf_construction(_orthomul.standard_multiplication(d)),
    ("qhm", "n"): lambda n: _qhm.from_clifford(_clifford.construct_irreducible(n)),
}


def _cmd_construct(args) -> int:
    flags = [flag for kind, flag in _CONSTRUCTORS if kind == args.kind]
    given = [flag for flag in flags if getattr(args, flag) is not None]
    if len(given) != 1:
        options = " or ".join(f"--{flag}" for flag in flags)
        raise QuadmorphError(f"construct {args.kind} needs "
                             + (f"exactly one of {options}" if len(flags) > 1 else options))
    value = getattr(args, given[0])
    obj = _CONSTRUCTORS[args.kind, given[0]](value)
    return _emit(_document(obj, f"construct {args.kind} --{given[0]} {value}", args), args)


def _cmd_verify(args) -> int:
    doc, obj = _read(args)
    _, residuals = _verify_object(obj, args)
    return _emit({"kind": doc["kind"], "dims": doc["dims"], "scalars": doc["scalars"],
                  "valid": True, "residuals": residuals}, args)


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
    doc, obj = _read(args)
    if doc["kind"] != "qhm":
        raise QuadmorphError(f"{what} expects a qhm document, found kind {doc['kind']!r}")
    return _verify_object(obj, args)[0]


def _cmd_classify(args) -> int:
    phi = _decoded_qhm(args, "classify")
    return _emit(_classification_payload(_qhm.classify(phi, args.tol)), args)


# (source, target) -> (conversion, whether the conversion itself verifies
# the source's identity on its own members, so the CLI does not check it first)
_CONVERSIONS = {
    ("qhm", "clifford"): (_qhm.clifford_system, False),
    ("clifford", "qhm"): (_qhm.from_clifford, False),
    ("clifford", "osystem"): (_osystem.from_clifford, False),
    ("osystem", "clifford"): (_osystem.to_clifford, True),
    ("osystem", "orthomul"): (_orthomul.from_osystem, True),
    ("orthomul", "osystem"): (_orthomul.to_osystem, True),
}


def _cmd_convert(args) -> int:
    doc, obj = _read(args)
    src, to = doc["kind"], args.to
    if (src, to) not in _CONVERSIONS:
        raise QuadmorphError(f"no conversion from {src} to {to}")
    convert, checks_source = _CONVERSIONS[src, to]
    if not checks_source:
        obj, _ = _verify_object(obj, args)
    return _emit(_document(convert(obj, args.tol), f"convert {src} {to}", args), args)


def _cmd_extend(args) -> int:
    phi = _decoded_qhm(args, "extend")
    extended = _qhm.range_extend(phi, args.tol, seed=args.seed)
    return _emit(_document(extended, "extend", args), args)


def _cmd_split(args) -> int:
    phi = _decoded_qhm(args, "split")
    report = _qhm.classify(phi, args.tol)
    payload = _classification_payload(report)
    payload["summands"] = [_document(summand, f"split summand {i}", args)
                           for i, (_, summand) in enumerate(report.splitting, start=1)]
    payload["split_change"] = report.split_change.tolist()
    payload["projection"] = (None if report.projection is None else
                             to_float(report.projection).tolist())
    return _emit(payload, args)


def _parse_vector(text: str, what: str):
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise QuadmorphError(f"{what} must be comma-separated numbers: {exc}") from exc


def _cmd_eval(args) -> int:
    doc, obj = _read(args)
    if doc["kind"] == "qhm":
        if args.point is None:
            raise QuadmorphError("eval on a qhm document needs --point")
        values = _qhm.evaluate(obj, _parse_vector(args.point, "--point"))
    elif doc["kind"] == "orthomul":
        if args.x is None or args.y is None:
            raise QuadmorphError("eval on an orthomul document needs --x and --y")
        values = _orthomul.multiply(obj, _parse_vector(args.x, "--x"),
                                    _parse_vector(args.y, "--y"))
    else:
        raise QuadmorphError(f"eval supports qhm and orthomul documents, found {doc['kind']!r}")
    return _emit({"kind": doc["kind"], "values": [float(v) for v in values]}, args)


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
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks and searches")
    common.add_argument("--samples", type=int, default=64, help="sample count for the sampled route of qhm documents")
    common.add_argument("--tol", type=float, default=IDENTITY_TOL, help="identity tolerance for float checks")
    common.add_argument("--format", choices=["json"], default=None,
                        help="force JSON output (sigma prints a text line by default)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", parents=[common],
                       help="Hurwitz-Radon decomposition and member bound for a dimension")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a canonical object document")
    p.add_argument("kind", choices=list(serialize._KINDS))
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
    p.add_argument("--to", required=True, choices=list(serialize._KINDS))
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
        if not 0 < args.tol < math.inf:  # NaN as well
            raise QuadmorphError(f"--tol must be a positive number, got {args.tol}")
        return args.func(args)
    except VerificationError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (QuadmorphError, ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
