"""Positive pencil realizations of a rational function p/q.

Given p, q and a helper denominator s, builds symmetric matrices A_0..A_d
over the product-pencil basis of (qs, ps) with

    Psi(zeta) (A_0 + z_1 A_1 + ... + z_d A_d) Psi(z)^T
        = q(zeta)s(zeta) * p(z)s(z),

so Psi A_k Psi^T = s^2 W_k[q, p], and A_k positive semidefinite on every
axis when the search allows it (Bessmertnyi's long-resolvent
representations, Oper. Theory Adv. Appl. 134, 2002), else on axis 1 alone.

Every such pencil is B + sum lam_i K_i, with B the product pencil and K_i
the null pencils (polarize.null_pencils). B is taken when its wanted axes
are PSD; otherwise one _solve_family call searches the block-diagonal
family diag(B_k) + sum lam_i diag(K_i,k). A row whose diagonal is zero
in B_k and in every K_i,k goes in as an exact zero, since a PSD member
vanishes on it. `verify_realization` re-derives every invariant exactly,
each identity as an integer residual that builds no Fraction when it holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalConsistencyError,
    NoCertificateError,
    PreconditionError,
    StructuralError,
)
from .exactlinalg import SymMatrix, is_psd
from .polarize import (
    SymmetricPencil,
    _form_numerators,
    _identity_residuals,
    null_pencils,
    product_polarization,
)
from .polycore import Polynomial, _difference, _squares_numerators, wronskian
from .soscert import (
    _INFEAS_TOL,
    _NO_EXACT_ROUNDING,
    InfeasibilityEvidence,
    SosCertificate,
    _affine_point,
    _certificate_from_gram,
    _numeric_evidence,
    _solve_family,
)


@dataclass(frozen=True)
class Realization:
    """Symmetric pencil realization, PSD on each axis in psd_axes (axis 1
    always among them)."""

    pencil: SymmetricPencil
    p: Polynomial
    q: Polynomial
    s: Polynomial
    certificate: SosCertificate
    psd_axes: tuple


def wronskian_realization(p, q, s):
    """Build and fully verify a Realization for (p, q, s).

    Raises NoCertificateError when no pencil B + sum lam_i K_i has a PSD
    axis-1 matrix, with the axis-1 search's evidence (a dual matrix indexed
    by the basis, zero on the pinned rows), and CapacityError when the null
    pencils are needed over more than GRAM_CAPACITY basis monomials.
    """
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
    d = B.nvars
    null = None
    for axes in [tuple(range(1, d + 1))] + [(1,)] * (d > 1):
        if all(is_psd(B.matrices[k]) for k in axes):
            pencil = B
            break
        if null is None:
            null = null_pencils(B.basis)
        pencil, evidence = _psd_member(B, null, axes)
        if pencil is not None:
            break
    else:
        raise NoCertificateError(
            "no pencil B + sum lam_i K_i over the product-pencil basis has a "
            "PSD axis-1 matrix",
            evidence=evidence,
        )

    certificate = _certificate_from_gram(
        s * s * wronskian(q, p, 1), B.basis, pencil.matrices[1]
    )
    if certificate is None:
        raise InternalConsistencyError("the axis-1 matrix lost semidefiniteness")
    realization = Realization(
        pencil=pencil, p=p, q=q, s=s, certificate=certificate, psd_axes=axes
    )
    ok, report = verify_realization(realization)
    if not ok:
        failed = ", ".join(k for k, v in report.items() if v is False)
        raise InternalConsistencyError(
            f"constructed realization failed verification: {failed}"
        )
    return realization


def _psd_member(B, null, axes):
    """(pencil, None) with pencil = B + sum lam_i K_i PSD on every axis in
    axes, or (None, evidence) when the search finds none."""
    N = len(B.basis)
    size = len(axes) * N

    def blocks(pencil):
        out = SymMatrix(size)
        for n, k in enumerate(axes):
            out._entries.update(
                ((i + n * N, j + n * N), v) for (i, j), v in pencil.matrices[k].entries()
            )
        return out

    A0 = blocks(B)
    directions = [blocks(K) for K in null]
    diagonal = {i for S in (A0, *directions) for (i, j), _ in S.entries() if i == j}
    zeros = [
        [int(i == r) for i in range(size)]
        for r in range(size)
        if r not in diagonal
    ]
    gram, lam, solve = _solve_family(A0, directions, size, zeros)
    if gram is not None:
        matrices = tuple(
            _affine_point(B.matrices[k], [K.matrices[k] for K in null], lam)
            for k in range(B.nvars + 1)
        )
        return SymmetricPencil(B.basis, matrices), None
    if solve is None:
        return None, InfeasibilityEvidence(
            reason="no pencil B + sum lam_i K_i vanishes on the rows its zero "
            f"diagonal entries pin on axes {list(axes)}"
        )
    if solve.t < -_INFEAS_TOL:
        return None, _numeric_evidence(
            solve, reason=f"no pencil B + sum lam_i K_i is PSD on axes {list(axes)}"
        )
    return None, InfeasibilityEvidence(reason=_NO_EXACT_ROUNDING)


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

    report["certificate_squares"] = (
        cert.basis == basis
        and _difference(
            d,
            _form_numerators(pencil.matrices[1], basis.monomials),
            _squares_numerators(cert.squares),
        ).is_zero()
    )

    for k in realization.psd_axes:
        report[f"axis{k}_psd"] = is_psd(pencil.matrices[k])

    return all(report.values()), report
