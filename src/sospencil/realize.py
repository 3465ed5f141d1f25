"""Positive pencil realization of a rational function p/q.

Given p, q and a helper denominator s with s^2 W_1[q, p] a certified sum of
squares, builds symmetric matrices A_0..A_d over the product-pencil basis
(total cap max(deg p, deg q) + deg s, per-variable caps accordingly) with

    Psi(zeta) (A_0 + z_1 A_1 + ... + z_d A_d) Psi(z)^T
        = q(zeta)s(zeta) * p(z)s(z),

Psi A_k Psi^T = s^2 W_k[q, p] for every k, and A_1 positive semidefinite
equal to the certificate's Gram matrix. The recipe: take the product pencil
B for (qs, ps), swap its axis-1 matrix for the certified Gram matrix, and
repair the damage (a kernel matrix) with a defect completion on axis 1.

Each construction invariant is checked once, by the stage that needs it.
`sos_certify` accepts the Gram matrix only if it represents s^2 W_1 and
factors as PSD. `defect_completion` checks that the defect gram - B_1
annihilates Psi and vanishes on the rows at the top z1 degree (B_1 does,
and so does any PSD Gram matrix, since s^2 W_1 has z1-degree below twice
that cap), and that its completion annihilates Psi. `verify_realization`
then re-derives every invariant of the finished pencil.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalConsistencyError,
    NoCertificateError,
    PreconditionError,
    StructuralError,
)
from .exactlinalg import is_psd
from .gramkernel import defect_completion
from .polarize import (
    SymmetricPencil,
    _identity_residuals,
    product_polarization,
    quadratic_form_polynomial,
)
from .polycore import Polynomial, wronskian
from .soscert import SosCertificate, sos_certify


@dataclass(frozen=True)
class Realization:
    """Symmetric pencil realization with a PSD axis-1 matrix."""

    pencil: SymmetricPencil
    p: Polynomial
    q: Polynomial
    s: Polynomial
    certificate: SosCertificate


def wronskian_realization(p, q, s):
    """Build and fully verify a Realization for (p, q, s)."""
    for name, poly in (("p", p), ("q", q), ("s", s)):
        if not isinstance(poly, Polynomial):
            raise StructuralError(f"{name} must be a Polynomial")
    if not (p.nvars == q.nvars == s.nvars):
        raise StructuralError("p, q, s must share the variable count")
    if p.nvars == 0:
        raise StructuralError("at least one variable is required")
    if q.is_zero():
        raise StructuralError("q must be nonzero (p/q is a rational function)")
    if s.is_zero():
        raise PreconditionError("the helper denominator s must be nonzero")

    B = product_polarization(q * s, p * s)
    outcome = sos_certify(s * s * wronskian(q, p, 1), basis=B.basis)
    if not isinstance(outcome, SosCertificate):
        raise NoCertificateError(
            "s^2 W_1[q, p] did not certify as a sum of squares over the "
            "pencil basis",
            evidence=outcome,
        )

    try:
        completion = defect_completion(outcome.gram - B.matrices[1], B.basis, 1)
    except PreconditionError as exc:
        raise InternalConsistencyError(
            f"the axis-1 defect matrix violates the completion hypotheses: {exc}"
        ) from exc
    realization = Realization(
        pencil=B + completion, p=p, q=q, s=s, certificate=outcome
    )
    ok, report = verify_realization(realization)
    if not ok:
        failed = ", ".join(k for k, v in report.items() if v is False)
        raise InternalConsistencyError(
            f"constructed realization failed verification: {failed}"
        )
    return realization


def verify_realization(realization):
    """Re-derive every Realization invariant exactly; (ok, report)."""
    pencil = realization.pencil
    basis = pencil.basis
    d = basis.nvars
    p, q, s = realization.p, realization.q, realization.s
    cert = realization.certificate
    report = {}

    # W_k[qs, ps] = s^2 W_k[q, p] exactly, so the pencil identities of
    # (qs, ps) are the realization's
    cross, diagonals = _identity_residuals(pencil, q * s, p * s)
    report["cross_product"] = cross.is_zero()
    for k, diff in enumerate(diagonals, 1):
        report[f"wronskian_diagonal_{k}"] = diff.is_zero()

    squares = Polynomial.zero(d)
    for weight, poly in cert.squares:
        squares = squares + poly * poly * weight
    report["certificate_squares"] = (
        cert.basis == basis
        and quadratic_form_polynomial(pencil.matrices[1], basis) == squares
    )

    report["axis1_psd"] = is_psd(pencil.matrices[1])

    return all(report.values()), report
