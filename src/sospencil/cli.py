"""Command-line front end.

Subcommands cover each pipeline: wronskian, polarize, kernel-basis, sos,
artin, realize, herglotz-scan, crosscheck. Output is a JSON document on
stdout (schema version 1), optionally copied to --output. Exit codes:
0 success or agreeing/passing verdicts, 1 no certificate (infeasibility
evidence or an inconclusive search; `status` says which), failed scan or
disagreement, 2 errors. Errors are
structured JSON on stderr. No randomness is exposed; identical invocations
produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .errors import NoCertificateError, ParseError, SospencilError
from .gramkernel import kernel_basis
from .herglotz import crosscheck_slice_criterion, slice_scan
from .parsing import max_variable_index, parse_polynomial
from .polarize import product_polarization, verify_pencil
from .polycore import RationalFunction, build_basis, wronskian
from .realize import wronskian_realization
from .soscert import (
    SosCertificate,
    artin_certify,
    artin_minimize,
    default_artin_candidates,
    sos_certify,
)


def _emit(doc, args):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text)


def _parse_all(texts):
    """Parse several polynomials over a shared inferred variable count."""
    nvars = max((max_variable_index(t) for t in texts), default=0)
    nvars = max(nvars, 1)
    return [parse_polynomial(t, nvars) for t in texts], nvars


def _csv_floats(text):
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _scan_grids(args):
    real_grid = None
    if args.xhat_values is not None:
        real_grid = _csv_floats(args.xhat_values)
    halfplane_grid = None
    if args.z1_real is not None or args.z1_imag is not None:
        reals = _csv_floats(args.z1_real) if args.z1_real else [x / 2.0 for x in range(-6, 7)]
        imags = _csv_floats(args.z1_imag) if args.z1_imag else [0.1, 0.5, 1.0, 2.0]
        halfplane_grid = [complex(x, y) for x in reals for y in imags]
    return real_grid, halfplane_grid


def _cmd_wronskian(args):
    (q, p), nvars = _parse_all([args.q, args.p])
    W = wronskian(q, p, args.k)
    _emit(
        {
            "schema": 1,
            "command": "wronskian",
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
            "schema": 1,
            "command": "polarize",
            "nvars": nvars,
            "pencil": serialize.pencil_json(pencil),
            "verified": ok,
            "issues": issues,
        },
        args,
    )
    return 0


def _cmd_kernel_basis(args):
    caps = tuple(int(x) for x in args.caps.split(","))
    basis = build_basis(args.n, caps)
    elements = kernel_basis(basis)
    _emit(
        {
            "schema": 1,
            "command": "kernel-basis",
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
    if isinstance(outcome, SosCertificate):
        _emit(
            {
                "schema": 1,
                "command": "sos",
                "status": "certificate",
                "certificate": serialize.certificate_json(outcome),
            },
            args,
        )
        return 0
    _emit(
        {
            "schema": 1,
            "command": "sos",
            "status": serialize.evidence_status(F, outcome),
            "evidence": serialize.evidence_json(outcome),
        },
        args,
    )
    return 1


def _cmd_artin(args):
    texts = [args.polynomial] + (args.candidates or [])
    polys, nvars = _parse_all(texts)
    F, custom = polys[0], polys[1:]
    candidates = custom if custom else None
    found = artin_certify(F, candidates)
    if found is None:
        _emit(
            {
                "schema": 1,
                "command": "artin",
                "status": "no_certificate_in_family",
            },
            args,
        )
        return 1
    s, cert = found
    doc = {
        "schema": 1,
        "command": "artin",
        "status": "certificate",
        "denominator": serialize.polynomial_json(s),
        "certificate": serialize.certificate_json(cert),
    }
    if args.minimize:
        if candidates is None:
            defaults = default_artin_candidates(F.nvars)
            power = defaults.index(s) + 1
            factored = [(defaults[0], power)]
        else:
            factored = [(s, 1)]
        reduced, reduced_cert = artin_minimize(F, factored)
        doc["minimized"] = {
            "factors": [
                [serialize.polynomial_json(f), mult] for f, mult in reduced
            ],
            "certificate": serialize.certificate_json(reduced_cert),
        }
    _emit(doc, args)
    return 0


def _cmd_realize(args):
    (p, q, s), nvars = _parse_all([args.p, args.q, args.s])
    try:
        realization = wronskian_realization(p, q, s)
    except NoCertificateError as exc:
        _emit(
            {
                "schema": 1,
                "command": "realize",
                "status": "no_certificate",
                "message": str(exc),
                "evidence": serialize.evidence_json(exc.evidence)
                if exc.evidence is not None
                else None,
            },
            args,
        )
        return 1
    _emit(
        {
            "schema": 1,
            "command": "realize",
            "status": "realization",
            "realization": serialize.realization_json(realization),
        },
        args,
    )
    return 0


def _cmd_herglotz_scan(args):
    (p, q), nvars = _parse_all([args.p, args.q])
    real_grid, halfplane_grid = _scan_grids(args)
    report = slice_scan(RationalFunction(p, q), real_grid, halfplane_grid)
    _emit(
        {
            "schema": 1,
            "command": "herglotz-scan",
            "report": serialize.scan_report_json(report),
        },
        args,
    )
    return 0 if report.verdict == "pass" else 1


def _cmd_crosscheck(args):
    texts = [args.p, args.q] + (args.candidates or [])
    polys, nvars = _parse_all(texts)
    p, q, custom = polys[0], polys[1], polys[2:]
    real_grid, halfplane_grid = _scan_grids(args)
    report = crosscheck_slice_criterion(
        p,
        q,
        candidates=custom if custom else None,
        real_grid=real_grid,
        halfplane_grid=halfplane_grid,
    )
    _emit(
        {
            "schema": 1,
            "command": "crosscheck",
            "report": serialize.crosscheck_json(report),
        },
        args,
    )
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
    sub.add_argument("k", type=int)
    _add_output(sub)
    sub.set_defaults(func=_cmd_wronskian)

    sub = commands.add_parser("polarize", help="product pencil for q(zeta) p(z)")
    sub.add_argument("q")
    sub.add_argument("p")
    _add_output(sub)
    sub.set_defaults(func=_cmd_polarize)

    sub = commands.add_parser("kernel-basis", help="spanning basis of the Gram kernel space")
    sub.add_argument("--n", type=int, required=True, help="total degree cap")
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
    sub.add_argument(
        "--candidates",
        action="append",
        help="Artin candidate for diagnostics (repeat the flag for more)",
    )
    _add_grid_options(sub)
    _add_output(sub)
    sub.set_defaults(func=_cmd_crosscheck)

    return parser


_FLAG_OPTIONS = {"--minimize", "-h", "--help"}
_VALUED_OPTIONS = {
    "--output",
    "--candidates",
    "--xhat-values",
    "--z1-real",
    "--z1-imag",
    "--n",
    "--caps",
}


def _reorder(argv):
    """Move options ahead of positionals so polynomials may start with '-'.

    Every valued option is rewritten to --name=value form; everything else
    after the subcommand is treated as a positional and placed behind a
    '--' separator.
    """
    if not argv or argv[0].startswith("-"):
        return list(argv)
    head, rest = argv[0], list(argv[1:])
    options, positionals = [], []
    i = 0
    while i < len(rest):
        token = rest[i]
        name = token.split("=", 1)[0]
        if name in _FLAG_OPTIONS:
            options.append(token)
        elif name in _VALUED_OPTIONS:
            if "=" in token:
                options.append(token)
            elif i + 1 < len(rest):
                options.append(f"{name}={rest[i + 1]}")
                i += 1
            else:
                options.append(token)
        else:
            positionals.append(token)
        i += 1
    if not positionals:
        return [head] + options
    return [head] + options + ["--"] + positionals


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_reorder(list(argv)))
    try:
        return args.func(args)
    except SospencilError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            error["line"] = exc.line
            error["col"] = exc.col
        if isinstance(exc, NoCertificateError) and exc.evidence is not None:
            error["evidence"] = serialize.evidence_json(exc.evidence)
        sys.stderr.write(
            json.dumps({"schema": 1, "error": error}, sort_keys=True, indent=2)
            + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
