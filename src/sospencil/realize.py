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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalConsistencyError,
    NoCertificateError,
    PreconditionError,
    StructuralError,
)
from .exactlinalg import SymMatrix, is_psd
from .gramkernel import defect_completion
from .polarize import (
    SymmetricPencil,
    cross_product_polynomial,
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


def _top_derivative_kill(matrix, basis, axis):
    """Check M d^cap Psi^T / d z_axis^cap == 0.

    The cap is the largest axis exponent present in the basis; only
    monomials attaining it survive the derivative, and distinct ones have
    distinct derivatives. So the product vanishes exactly when no stored
    entry lies in a row or column whose monomial attains the cap.
    """
    cap = max(m[axis - 1] for m in basis.monomials)
    if cap == 0:
        # the derivative of the constant-in-axis vector is zero already
        return True
    top = {j for j, mono in enumerate(basis.monomials) if mono[axis - 1] == cap}
    return not any(i in top or j in top for (i, j), _ in matrix.entries())


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
    basis = B.basis
    B1 = B.matrices[1]
    if not _top_derivative_kill(B1, basis, 1):
        raise InternalConsistencyError(
            "the product pencil's axis-1 matrix fails to kill the top "
            "axis-1 derivative of the basis vector"
        )

    target = s * s * wronskian(q, p, 1)
    outcome = sos_certify(target, basis=basis)
    if not isinstance(outcome, SosCertificate):
        raise NoCertificateError(
            "s^2 W_1[q, p] did not certify as a sum of squares over the "
            "pencil basis",
            evidence=outcome,
        )

    cap1 = max(m[0] for m in basis.monomials)
    A1 = outcome.gram.copy()
    for i, mono in enumerate(basis.monomials):
        if mono[0] == cap1 and A1.get(i, i):
            A1.set(i, i, Fraction(0))
    if quadratic_form_polynomial(A1, basis) != target:
        raise InternalConsistencyError(
            "zeroing the top axis-1 diagonal entries changed the certified "
            "quadratic form"
        )
    if not _top_derivative_kill(A1, basis, 1):
        raise InternalConsistencyError(
            "the certified Gram matrix fails to kill the top axis-1 "
            "derivative of the basis vector"
        )

    S1 = A1 - B1
    try:
        completion = defect_completion(S1, basis, 1)
    except PreconditionError as exc:
        raise InternalConsistencyError(
            f"the axis-1 defect matrix violates the completion hypotheses: {exc}"
        ) from exc
    A = B + completion

    realization = Realization(pencil=A, p=p, q=q, s=s, certificate=outcome)
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

    qs, ps = q * s, p * s
    cross = cross_product_polynomial(pencil)
    zeta_qs = Polynomial(2 * d, {exps + (0,) * d: c for exps, c in qs.terms()})
    z_ps = Polynomial(2 * d, {(0,) * d + exps: c for exps, c in ps.terms()})
    report["cross_product"] = cross == zeta_qs * z_ps

    for k in range(1, d + 1):
        lhs = quadratic_form_polynomial(pencil.matrices[k], basis)
        rhs = s * s * wronskian(q, p, k)
        report[f"wronskian_diagonal_{k}"] = lhs == rhs

    squares = Polynomial.zero(d)
    for weight, poly in cert.squares:
        squares = squares + poly * poly * weight
    report["certificate_squares"] = (
        cert.basis == basis
        and quadratic_form_polynomial(pencil.matrices[1], basis) == squares
    )

    report["axis1_psd"] = is_psd(pencil.matrices[1])

    return all(report.values()), report
