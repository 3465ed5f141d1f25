"""Command-line front end.

Subcommands cover each pipeline: wronskian, polarize, kernel-basis, sos,
artin, realize, herglotz-scan, crosscheck. Output is a JSON document on
stdout (schema version 1), optionally copied to --output. Exit codes:
0 success or agreeing/passing verdicts, 1 no certificate (infeasibility
evidence or an inconclusive search; `status` says which), failed scan or
disagreement, 2 errors. Errors are structured JSON on stderr, and _dump is
the one JSON writer for errors and documents alike. No randomness is
exposed; identical invocations produce byte-identical documents.

argparse parses the command line. A polynomial, number or file name may
start with '-'; main NUL-prefixes each such token after the subcommand
(not -h) so that argparse takes it for a value, and strips the NUL from
the parsed values. No command-line argument can contain a NUL.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .errors import NoCertificateError, ParseError, SospencilError, StructuralError
from .gramkernel import kernel_basis
from .herglotz import (
    crosscheck_slice_criterion,
    default_halfplane_points,
    default_real_axis,
    slice_scan,
)
from .parsing import max_variable_index, parse_polynomial
from .polarize import product_polarization, verify_pencil
from .polycore import RationalFunction, build_basis, wronskian
from .realize import wronskian_realization
from .soscert import (
    SosCertificate,
    _minimize_certified,
    artin_certify,
    default_artin_candidates,
    sos_certify,
)


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(doc, args):
    text = _dump({"schema": 1, "command": args.command, **doc})
    sys.stdout.write(text)
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text)


def _parse_all(texts):
    """Parse several polynomials over a shared inferred variable count."""
    nvars = max((max_variable_index(t) for t in texts), default=0)
    nvars = max(nvars, 1)
    return [parse_polynomial(t, nvars) for t in texts], nvars


def _number(convert, token, option):
    """convert(token), or a StructuralError naming the option and the token."""
    try:
        return convert(token)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise StructuralError(f"{option}: {token!r} is not {kind}") from None


def _csv_floats(text, option):
    return [_number(float, x, option) for x in text.split(",") if x.strip() != ""]


def _scan_grids(args):
    real_grid = None
    if args.xhat_values is not None:
        real_grid = _csv_floats(args.xhat_values, "--xhat-values")
    halfplane_grid = None
    if args.z1_real is not None or args.z1_imag is not None:
        reals = (
            _csv_floats(args.z1_real, "--z1-real")
            if args.z1_real
            else default_real_axis()
        )
        imags = (
            _csv_floats(args.z1_imag, "--z1-imag")
            if args.z1_imag
            else sorted({z.imag for z in default_halfplane_points()})
        )
        halfplane_grid = [complex(x, y) for x in reals for y in imags]
    return real_grid, halfplane_grid


def _cmd_wronskian(args):
    (q, p), nvars = _parse_all([args.q, args.p])
    W = wronskian(q, p, args.k)
    _emit(
        {
            "nvars": nvars,
            "axis": args.k,
            "wronskian": serialize.polynomial_json(W),
        },
        args,
    )
    return 0


def _cmd_polarize(args):
    (q, p), nvars = _parse_all([args.q, args.p])
    pencil = product_polarization(q, p)
    ok, issues = verify_pencil(pencil, q, p)
    _emit(
        {
            "nvars": nvars,
            "pencil": serialize.pencil_json(pencil),
            "verified": ok,
            "issues": issues,
        },
        args,
    )
    return 0


def _cmd_kernel_basis(args):
    caps = tuple(_number(int, x, "--caps") for x in args.caps.split(","))
    basis = build_basis(args.n, caps)
    elements = kernel_basis(basis)
    _emit(
        {
            "basis": serialize.basis_json(basis),
            "count": len(elements),
            "elements": [serialize.kernel_element_json(el) for el in elements],
        },
        args,
    )
    return 0


def _cmd_sos(args):
    (F,), nvars = _parse_all([args.polynomial])
    outcome = sos_certify(F)
    _emit(serialize.sos_outcome_json(F, outcome), args)
    return 0 if isinstance(outcome, SosCertificate) else 1


def _cmd_artin(args):
    polys, nvars = _parse_all([args.polynomial] + (args.candidates or []))
    F, candidates = polys[0], polys[1:] or None
    found = artin_certify(F, candidates)
    doc = serialize.artin_json(found)
    if found is not None and args.minimize:
        s, cert = found
        if candidates is None:
            defaults = default_artin_candidates(F.nvars)
            power = defaults.index(s) + 1
            factored = [(defaults[0], power)]
        else:
            factored = [(s, 1)]
        # cert already certifies s^2 F for the full factored s
        reduced, reduced_cert = _minimize_certified(F, factored, cert)
        doc["minimized"] = {
            "factors": [
                [serialize.polynomial_json(f), mult] for f, mult in reduced
            ],
            "certificate": serialize.certificate_json(reduced_cert),
        }
    _emit(doc, args)
    return 0 if found is not None else 1


def _cmd_realize(args):
    (p, q, s), nvars = _parse_all([args.p, args.q, args.s])
    try:
        realization = wronskian_realization(p, q, s)
    except NoCertificateError as exc:
        _emit(
            {
                "status": "no_certificate",
                "message": str(exc),
                "evidence": serialize.evidence_json(exc.evidence),
            },
            args,
        )
        return 1
    _emit(
        {
            "status": "realization",
            "realization": serialize.realization_json(realization),
        },
        args,
    )
    return 0


def _cmd_herglotz_scan(args):
    (p, q), nvars = _parse_all([args.p, args.q])
    report = slice_scan(RationalFunction(p, q), *_scan_grids(args))
    _emit({"report": serialize.scan_report_json(report)}, args)
    return 0 if report.verdict == "pass" else 1


def _cmd_crosscheck(args):
    (p, q), nvars = _parse_all([args.p, args.q])
    report = crosscheck_slice_criterion(p, q, *_scan_grids(args))
    _emit({"report": serialize.crosscheck_json(report)}, args)
    return 0 if report.verdict.startswith("AGREE") else 1


def _add_output(sub):
    sub.add_argument("--output", help="also write the JSON document to this path")


def _add_grid_options(sub):
    sub.add_argument(
        "--xhat-values",
        help="comma-separated real values for the pinned coordinates",
    )
    sub.add_argument(
        "--z1-real", help="comma-separated real parts for the z1 grid"
    )
    sub.add_argument(
        "--z1-imag",
        help="comma-separated positive imaginary parts for the z1 grid",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sospencil",
        description="Exact SOS certification of partial Wronskians and "
        "symmetric pencil realizations of rational functions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("wronskian", help="partial Wronskian q dp/dz_k - p dq/dz_k")
    sub.add_argument("q")
    sub.add_argument("p")
    sub.add_argument("k", type=_int)
    _add_output(sub)
    sub.set_defaults(func=_cmd_wronskian)

    sub = commands.add_parser("polarize", help="product pencil for q(zeta) p(z)")
    sub.add_argument("q")
    sub.add_argument("p")
    _add_output(sub)
    sub.set_defaults(func=_cmd_polarize)

    sub = commands.add_parser("kernel-basis", help="spanning basis of the Gram kernel space")
    sub.add_argument("--n", type=_int, required=True, help="total degree cap")
    sub.add_argument(
        "--caps", required=True, help="comma-separated per-variable caps"
    )
    _add_output(sub)
    sub.set_defaults(func=_cmd_kernel_basis)

    sub = commands.add_parser("sos", help="decide SOS membership with an exact certificate")
    sub.add_argument("polynomial")
    _add_output(sub)
    sub.set_defaults(func=_cmd_sos)

    sub = commands.add_parser("artin", help="search denominators s with s^2 F SOS")
    sub.add_argument("polynomial")
    sub.add_argument(
        "--candidates",
        action="append",
        help="candidate denominator (repeat the flag for more)",
    )
    sub.add_argument(
        "--minimize", action="store_true", help="greedily drop redundant factors"
    )
    _add_output(sub)
    sub.set_defaults(func=_cmd_artin)

    sub = commands.add_parser("realize", help="symmetric pencil realization of p/q")
    sub.add_argument("p")
    sub.add_argument("q")
    sub.add_argument("s")
    _add_output(sub)
    sub.set_defaults(func=_cmd_realize)

    sub = commands.add_parser("herglotz-scan", help="scan Im p/q on half-plane slices")
    sub.add_argument("p")
    sub.add_argument("q")
    _add_grid_options(sub)
    _add_output(sub)
    sub.set_defaults(func=_cmd_herglotz_scan)

    sub = commands.add_parser(
        "crosscheck", help="SOS decision vs Herglotz slice scan agreement"
    )
    sub.add_argument("p")
    sub.add_argument("q")
    _add_grid_options(sub)
    _add_output(sub)
    sub.set_defaults(func=_cmd_crosscheck)

    return parser


def _shield(token):
    """NUL-prefix a token other than -h that argparse would take for an option."""
    if token[:1] == "-" and token[1:2] not in ("", "-") and token != "-h":
        return "\0" + token
    return token


def _unshield(value):
    if isinstance(value, list):
        return [_unshield(item) for item in value]
    return value[1:] if isinstance(value, str) and value[:1] == "\0" else value


def _int(token):
    """int for argparse, whose error quotes the token as typed."""
    token = _unshield(token)
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


_PARSER = build_parser()


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        argv[1:] = map(_shield, argv[1:])
    args, extras = _PARSER.parse_known_args(argv)
    if extras:
        _PARSER.error("unrecognized arguments: " + " ".join(map(_unshield, extras)))
    vars(args).update({name: _unshield(value) for name, value in vars(args).items()})
    try:
        return args.func(args)
    except SospencilError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            error["line"] = exc.line
            error["col"] = exc.col
        sys.stderr.write(_dump({"schema": 1, "error": error}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
