"""Exact identity checks as integer residuals, against their Fraction forms.

The Wronskian, the quadratic form, the weighted squares and the pencil
identities are computed by the package on integer numerators over one
common denominator. ``tests/_fraction_reference.py`` keeps them as Fraction
polynomials; these tests require the same results, the same nonzero
residuals, and the same reports and errors built from them.
"""

import dataclasses
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import _fraction_reference as ref
from sospencil import polarize, soscert
from sospencil.errors import InternalConsistencyError
from sospencil.exactlinalg import SymMatrix, psd_factor
from sospencil.parsing import parse_polynomial
from sospencil.polarize import (
    SymmetricPencil,
    _identity_residuals,
    product_polarization,
    quadratic_form_polynomial,
    verify_pencil,
)
from sospencil.polycore import (
    Polynomial,
    _difference,
    _integer_terms,
    _over,
    _squares_numerators,
    build_basis,
)
from sospencil.realize import Realization, verify_realization, wronskian_realization
from sospencil.soscert import _certificate_from_gram, sos_certify

# mixed denominators of both signs, zero included, so that common
# denominators and cancellation are exercised
coefficients = st.fractions(min_value=-12, max_value=12, max_denominator=30)
nonzero = coefficients.filter(bool)


def polynomials(nvars, max_exp=2, max_terms=4):
    """Polynomials in nvars variables, the zero polynomial among them."""
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * nvars), coefficients, max_size=max_terms
    )
    return terms.map(lambda t: Polynomial(nvars, t))


@st.composite
def operand_pairs(draw, max_vars=3):
    nvars = draw(st.integers(1, max_vars))
    return nvars, draw(polynomials(nvars)), draw(polynomials(nvars))


@st.composite
def matrices_over(draw, size):
    """A SymMatrix of order size with a few rational entries."""
    cells = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    entries = draw(st.dictionaries(cells, nonzero, max_size=2 * size))
    out = SymMatrix(size)
    for (i, j), value in entries.items():
        out.add(i, j, value)
    return out


def poly(text, nvars=None):
    return parse_polynomial(text, nvars=nvars)


def assert_terms(result, nvars):
    """The term invariant of Polynomial._trusted."""
    assert result.nvars == nvars
    for exps, coeff in result._terms.items():
        assert type(exps) is tuple and len(exps) == nvars
        assert type(coeff) is Fraction and coeff != 0


class TestKernels:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_quadratic_form(self, data):
        nvars = data.draw(st.integers(1, 3))
        caps = data.draw(st.tuples(*[st.integers(0, 2)] * nvars))
        basis = build_basis(data.draw(st.integers(0, 2)), caps)
        matrix = data.draw(matrices_over(len(basis)))
        result = quadratic_form_polynomial(matrix, basis)
        assert result == ref.quadratic_form_polynomial(matrix, basis)
        assert_terms(result, nvars)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_weighted_squares(self, data):
        nvars = data.draw(st.integers(1, 3))
        squares = data.draw(st.lists(st.tuples(nonzero, polynomials(nvars)), max_size=4))
        result = _over(nvars, *_squares_numerators(squares))
        assert result == ref.squares_sum(nvars, squares)
        assert_terms(result, nvars)

    @settings(max_examples=150, deadline=None)
    @given(operand_pairs())
    def test_difference(self, operands):
        nvars, q, p = operands
        for a, b in ((q, p), (p, q), (q, q)):
            result = _difference(nvars, _integer_terms(a._terms), _integer_terms(b._terms))
            assert result == a - b
            assert_terms(result, nvars)

    def test_a_holding_identity_builds_no_fraction(self):
        q, p = poly("1/3*z1^2 - 2*z2 + 1/5"), poly("z1*z2 - 7/4")
        pencil = product_polarization(q, p)
        construct = Fraction.__new__
        built = []

        def counting(cls, *args, **kwargs):
            built.append(args)
            return construct(cls, *args, **kwargs)

        with mock.patch.object(Fraction, "__new__", counting):
            cross, diagonals = _identity_residuals(pencil, q, p)
            assert Fraction(1, 2) == construct(Fraction, 1, 2)
        assert cross.is_zero() and all(r.is_zero() for r in diagonals)
        assert built == [(1, 2)]


@st.composite
def perturbed_pencils(draw):
    """(pencil, q, p): the product pencil of q and p, with one entry of one
    matrix moved by a nonzero amount unless the draw leaves it exact."""
    nvars, q, p = draw(operand_pairs())
    if q.is_zero() and p.is_zero():
        q = Polynomial.one(nvars)
    pencil = product_polarization(q, p)
    if draw(st.booleans()):
        N = len(pencil.basis)
        k = draw(st.integers(0, nvars))
        i, j = sorted(draw(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))))
        pencil.matrices[k].add(i, j, draw(nonzero))
    return pencil, q, p


class TestPencilIdentities:
    @settings(max_examples=100, deadline=None)
    @given(perturbed_pencils())
    def test_residuals(self, case):
        pencil, q, p = case
        cross, diagonals = _identity_residuals(pencil, q, p)
        expected_cross, expected_diagonals = ref.identity_residuals(pencil, q, p)
        assert cross == expected_cross
        assert diagonals == expected_diagonals
        for residual in (cross, *diagonals):
            assert_terms(residual, residual.nvars)

    @settings(max_examples=100, deadline=None)
    @given(perturbed_pencils())
    def test_verify_pencil_issues(self, case):
        pencil, q, p = case
        ok, issues = verify_pencil(pencil, q, p)
        with mock.patch.object(polarize, "_identity_residuals", ref.identity_residuals):
            assert verify_pencil(pencil, q, p) == (ok, issues)
        assert ok == (not issues)


REALIZED = [
    ("-1", "z1", 1),
    ("-(z1 + z2)", "z1*z2", 2),
    ("-1", "z1 + 2*z2 - 1/3*z3", 3),
]


def moved(pencil, k, i, j, delta):
    matrices = tuple(m.copy() for m in pencil.matrices)
    matrices[k].add(i, j, delta)
    return SymmetricPencil(pencil.basis, matrices)


class TestRealizationReport:
    @pytest.mark.parametrize("p_text, q_text, nvars", REALIZED)
    def test_every_single_entry_move(self, p_text, q_text, nvars):
        r = wronskian_realization(poly(p_text, nvars), poly(q_text, nvars), poly("1", nvars))
        assert verify_realization(r) == (True, ref.realization_report(r))
        N = len(r.pencil.basis)
        for k in range(nvars + 1):
            for i, j in ((0, 0), (0, N - 1), (N - 1, N - 1)):
                for delta in (Fraction(-1, 2), Fraction(3)):
                    broken = Realization(
                        pencil=moved(r.pencil, k, i, j, delta),
                        p=r.p, q=r.q, s=r.s, certificate=r.certificate, psd_axes=r.psd_axes,
                    )
                    ok, report = verify_realization(broken)
                    assert report == ref.realization_report(broken)
                    assert not ok

    def test_a_moved_square_weight(self):
        r = wronskian_realization(poly("-(z1 + z2)"), poly("z1*z2"), poly("1", 2))
        cert = r.certificate
        (w, g), *rest = cert.squares
        broken = Realization(
            pencil=r.pencil, p=r.p, q=r.q, s=r.s,
            certificate=dataclasses.replace(cert, squares=((w * 2, g), *rest)),
            psd_axes=r.psd_axes,
        )
        ok, report = verify_realization(broken)
        assert not ok and report == ref.realization_report(broken)
        assert [key for key, value in report.items() if not value] == ["certificate_squares"]


class TestCertificateFromGram:
    F = poly("(z1^2 - 1/2*z2)^2 + (1/3*z1*z2 + 2)^2 + 5/7*z2^2")

    def test_accepts_the_certified_gram(self):
        cert = sos_certify(self.F)
        again = _certificate_from_gram(self.F, cert.basis, cert.gram)
        assert again == cert
        assert ref.squares_sum(2, again.squares) == self.F

    @pytest.mark.parametrize("corner", ["diagonal", "off-diagonal"])
    def test_a_moved_gram_entry(self, corner):
        cert = sos_certify(self.F)
        gram = cert.gram.copy()
        N = gram.size
        gram.add(N - 1, N - 1 if corner == "diagonal" else 0, Fraction(1, 9))
        with pytest.raises(InternalConsistencyError, match="does not represent F"):
            _certificate_from_gram(self.F, cert.basis, gram)

    def test_a_moved_square_weight(self):
        cert = sos_certify(self.F)

        def wrong_weight(matrix):
            perm, L, D = psd_factor(matrix)
            return perm, L, [D[0] * Fraction(5, 4), *D[1:]]

        with mock.patch.object(soscert, "psd_factor", wrong_weight):
            with pytest.raises(InternalConsistencyError, match="do not reconstruct F"):
                _certificate_from_gram(self.F, cert.basis, cert.gram)


class TestFullFamilyEvidence:
    def test_a_term_without_a_pair_is_a_fault(self):
        F = poly("z1^4 + 1")
        basis = build_basis(1, (1,))
        classes = soscert._symmetric_classes(F, basis.monomials)
        with pytest.raises(InternalConsistencyError, match=r"\(4,\) of F has no pair"):
            soscert._full_family_evidence(F, basis, classes)
