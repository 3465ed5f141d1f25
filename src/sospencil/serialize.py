"""JSON-ready dictionaries for every public result object.

Builders return plain dicts/lists with deterministic ordering so that
json.dumps(..., sort_keys=True) yields byte-identical documents for
identical inputs. Rationals serialize as [numerator, denominator] pairs,
complex numbers as [re, im] pairs, polynomials as grammar text.

Each outcome block has one builder, sos_outcome_json for an SOS outcome and
artin_json for an Artin search; the `sos` and `artin` commands build their
documents on them, and crosscheck_json reuses sos_outcome_json for its
report.
"""

from __future__ import annotations

from fractions import Fraction

from .soscert import SosCertificate


def fraction_json(value):
    f = Fraction(value)
    return [f.numerator, f.denominator]


def polynomial_json(poly):
    return str(poly)


def complex_json(z):
    z = complex(z)
    return [z.real, z.imag]


def symmatrix_json(matrix):
    entries = sorted(
        ((i, j, value) for (i, j), value in matrix.entries()),
        key=lambda t: (t[0], t[1]),
    )
    return {
        "size": matrix.size,
        "entries": [
            [i, j, value.numerator, value.denominator] for i, j, value in entries
        ],
    }


def basis_json(basis):
    return {
        "total_cap": basis.total_cap,
        "var_caps": list(basis.var_caps),
        "monomials": [list(m) for m in basis.monomials],
    }


def pencil_json(pencil):
    return {
        "basis": basis_json(pencil.basis),
        "matrices": [symmatrix_json(m) for m in pencil.matrices],
    }


def kernel_element_json(element):
    return {
        "kind": element.kind,
        "beta": list(element.beta),
        "support": list(element.support),
        "matrix": symmatrix_json(element.matrix),
    }


def certificate_json(cert):
    L_entries = []
    for r, row in enumerate(cert.L):
        for c, value in enumerate(row):
            if value:
                L_entries.append([r, c, value.numerator, value.denominator])
    return {
        "basis": basis_json(cert.basis),
        "gram": symmatrix_json(cert.gram),
        "perm": list(cert.perm),
        "L": L_entries,
        "D": [fraction_json(v) for v in cert.D],
        "squares": [
            {"weight": fraction_json(w), "polynomial": polynomial_json(poly)}
            for w, poly in cert.squares
        ],
    }


def evidence_status(F, evidence):
    """Status of an SOS outcome that carries no certificate for F.

    Evidence that passed the gate (it has a margin) and odd total degree,
    which rules F out exactly, are "infeasible"; every other outcome is
    "inconclusive".
    """
    if evidence.margin is not None or F.degree() % 2:
        return "infeasible"
    return "inconclusive"


def sos_outcome_json(F, outcome):
    """The block of sos_certify's outcome for F: its certificate, or the
    status and evidence of an outcome without one."""
    if isinstance(outcome, SosCertificate):
        return {"status": "certificate", "certificate": certificate_json(outcome)}
    return {"status": evidence_status(F, outcome), "evidence": evidence_json(outcome)}


def artin_json(found):
    """The block of artin_certify's result: (s, certificate) or None."""
    if found is None:
        return {"status": "no_certificate_in_family"}
    s, cert = found
    return {
        "status": "certificate",
        "denominator": polynomial_json(s),
        "certificate": certificate_json(cert),
    }


def evidence_json(evidence):
    return {
        "margin": evidence.margin,
        "residuals": dict(evidence.residuals) if evidence.residuals else None,
        "reason": evidence.reason,
        "dual_matrix": [list(row) for row in evidence.dual_matrix]
        if evidence.dual_matrix is not None
        else None,
    }


def scan_report_json(report):
    return {
        "verdict": report.verdict,
        "min_im": report.min_im,
        "witness": [complex_json(z) for z in report.witness],
        "samples": report.samples,
        "skipped": report.skipped,
        "grid": {
            "real_axis": list(report.real_axis),
            "halfplane": [complex_json(z) for z in report.halfplane],
        },
    }


def crosscheck_json(report):
    outcome = report.certificate if report.certificate is not None else report.evidence
    return {
        "verdict": report.verdict,
        "wronskian": polynomial_json(report.wronskian),
        "sos": sos_outcome_json(report.wronskian, outcome),
        "scan": scan_report_json(report.scan),
    }


def realization_json(realization):
    return {
        "p": polynomial_json(realization.p),
        "q": polynomial_json(realization.q),
        "s": polynomial_json(realization.s),
        "pencil": pencil_json(realization.pencil),
        "psd_axes": list(realization.psd_axes),
        "certificate": certificate_json(realization.certificate),
    }
