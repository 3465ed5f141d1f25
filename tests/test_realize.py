"""Positive pencil realizations: construction, invariants, verification."""

import cmath
import random
from fractions import Fraction

import pytest

from sospencil.errors import (
    InternalConsistencyError,
    NoCertificateError,
    PreconditionError,
    StructuralError,
)
from sospencil.exactlinalg import is_psd
from sospencil.parsing import parse_polynomial
from sospencil.polarize import (
    SymmetricPencil,
    null_pencils,
    pencil_row_action,
    product_polarization,
    quadratic_form_polynomial,
)
from sospencil.polycore import Polynomial, wronskian
from sospencil.realize import (
    Realization,
    verify_realization,
    wronskian_realization,
)
from sospencil.soscert import InfeasibilityEvidence


def poly(text, nvars=None):
    return parse_polynomial(text, nvars=nvars)


def assert_valid(realization):
    ok, report = verify_realization(realization)
    assert ok, report
    assert all(report.values())
    assert 1 in realization.psd_axes
    for k in realization.psd_axes:
        assert is_psd(realization.pencil.matrices[k])


class TestConstruction:
    def test_reciprocal_of_minus_x(self):
        # f = -1/z1 is the basic Herglotz example
        p, q, s = poly("-1", 1), poly("z1"), poly("1", 1)
        r = wronskian_realization(p, q, s)
        assert_valid(r)
        basis = r.pencil.basis
        assert set(basis.monomials) == {(0,), (1,)}
        # axis-1 form is s^2 W_1[q, p] = 1
        form = quadratic_form_polynomial(r.pencil.matrices[1], basis)
        assert form == Polynomial.constant(1, 1)

    def test_two_variable_symmetric_pair(self):
        p, q = poly("-(z1 + z2)"), poly("z1*z2")
        r = wronskian_realization(p, q, poly("1", 2))
        assert_valid(r)
        basis = r.pencil.basis
        f1 = quadratic_form_polynomial(r.pencil.matrices[1], basis)
        f2 = quadratic_form_polynomial(r.pencil.matrices[2], basis)
        assert f1 == poly("z2^2")
        assert f2 == poly("z1^2", 2)
        assert r.psd_axes == (1, 2)

    @pytest.mark.parametrize("p, q", [("z1 - z2", "1"), ("-1", "z1 - z2")])
    def test_slice_only_function_is_psd_on_axis_one(self, p, q):
        # W_2 = -W_1 is not SOS, so no realization is PSD on axis 2
        r = wronskian_realization(poly(p, 2), poly(q, 2), poly("1", 2))
        assert_valid(r)
        assert r.psd_axes == (1,)

    def test_zero_numerator_gives_zero_pencil(self):
        r = wronskian_realization(poly("0", 1), poly("1", 1), poly("1", 1))
        assert_valid(r)
        for matrix in r.pencil.matrices:
            assert not list(matrix.entries())

    def test_constant_in_axis_short_circuit(self):
        # p/q = 1 has W_1 = 0, so A_1 carries the zero form
        p = poly("z1")
        r = wronskian_realization(p, p, poly("1", 1))
        assert_valid(r)
        basis = r.pencil.basis
        form = quadratic_form_polynomial(r.pencil.matrices[1], basis)
        assert form.is_zero()

    def test_nontrivial_helper_denominator(self):
        p, q, s = poly("-1", 1), poly("z1"), poly("z1")
        r = wronskian_realization(p, q, s)
        assert_valid(r)
        basis = r.pencil.basis
        # caps grow with deg s: basis now reaches z1^2
        assert max(m[0] for m in basis.monomials) == 2
        form = quadratic_form_polynomial(r.pencil.matrices[1], basis)
        assert form == poly("z1^2")

    def test_mixed_degree_pair(self):
        p, q = poly("3*z1 + 1"), poly("z1 + 5")
        r = wronskian_realization(p, q, poly("1", 1))
        assert_valid(r)
        basis = r.pencil.basis
        form = quadratic_form_polynomial(r.pencil.matrices[1], basis)
        assert form == s_squared_wronskian(p, q, poly("1", 1))


# a two-variable function whose product pencil B is PSD on neither axis
COMPLETED_DEFECT = (
    "z1^3 + 5*z1^2*z2 + 8*z1*z2^2 + 4*z2^3 + 2*z1^2 + 13/2*z1*z2 + 5*z2^2"
    " - 29/4*z1 - 8*z2 - 31/4",
    "(z1 + z2 + 1/2)*(z1 + 2*z2 + 3)",
)


class TestCompletedDefect:
    def test_nonzero_defect_is_completed(self):
        p, q = poly(COMPLETED_DEFECT[0]), poly(COMPLETED_DEFECT[1])
        s = poly("1", 2)
        r = wronskian_realization(p, q, s)
        assert_valid(r)
        assert r.psd_axes == (1, 2)
        B = product_polarization(q * s, p * s)
        assert not is_psd(B.matrices[1]) and not is_psd(B.matrices[2])
        # the realization is B plus a null pencil that touches every matrix
        K = [a - b for a, b in zip(r.pencil.matrices, B.matrices)]
        assert all(not m.is_zero() for m in K)
        assert all(row.is_zero() for row in pencil_row_action(K, B.basis))
        assert r.pencil.matrices[1] == r.certificate.gram


def herglotz_pair(rng, d, npoles):
    """(p, q) for f = a z1 + l_0 - sum_k c_k / (z1 + l_k) with a >= 0,
    c_k > 0 and l_k affine in z2..zd, so that
    W_1[q, p] = a q^2 + sum_k c_k prod_{j != k} (z1 + l_j)^2 is SOS."""

    def var(k, coeff=1):
        return Polynomial.monomial(tuple(int(i == k) for i in range(d)), coeff)

    def affine():
        out = Polynomial.constant(Fraction(rng.randint(-4, 4), 2), d)
        for k in range(1, d):
            out = out + var(k, Fraction(rng.randint(0, 4), 2))
        return out

    factors = [var(0) + affine() for _ in range(npoles)]

    def product(polys):
        out = Polynomial.constant(1, d)
        for factor in polys:
            out = out * factor
        return out

    q = product(factors)
    p = (var(0, rng.randint(0, 2)) + affine()) * q
    for k in range(npoles):
        residue = Polynomial.constant(Fraction(rng.randint(1, 6), 2), d)
        p = p - residue * product(factors[:k] + factors[k + 1:])
    return p, q


class TestHerglotzPairs:
    def test_every_axis_is_psd(self):
        # at d = 1 the product pencil is the only realization, and it is
        # PSD; at d = 3 the search imposes rows pinned to zero
        rng = random.Random(1307)
        for d, npoles in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2)):
            helpers = [Polynomial.constant(1, d)]
            if d < 3:  # z1 + 1/2
                helpers.append(Polynomial(d, {(1,) + (0,) * (d - 1): 1, (0,) * d: Fraction(1, 2)}))
            for _ in range(3):
                p, q = herglotz_pair(rng, d, npoles)
                for s in helpers:
                    r = wronskian_realization(p, q, s)
                    assert_valid(r)
                    assert r.psd_axes == tuple(range(1, d + 1)), (p, q, s)

    def test_pinned_rows_are_imposed(self):
        # this pair realizes only with the rows that zero diagonal entries
        # pin imposed as exact zeros; without them no rounding is PSD
        p, q = herglotz_pair(random.Random(3), 2, 3)
        r = wronskian_realization(p, q, Polynomial.constant(1, 2))
        assert_valid(r)
        assert r.psd_axes == (1, 2)

    def test_flipped_pair_is_refused(self):
        # -f has W_1[q, -p] = -W_1[q, p], which is not SOS. The axis-1
        # search drops the pinned rows; its dual comes back indexed by the
        # basis, zero on those rows
        rng = random.Random(5)
        for d, npoles in ((1, 2), (2, 2), (2, 3)):
            p, q = herglotz_pair(rng, d, npoles)
            with pytest.raises(NoCertificateError) as info:
                wronskian_realization(-p, q, Polynomial.constant(1, d))
            evidence = info.value.evidence
            assert isinstance(evidence, InfeasibilityEvidence)
            assert evidence.reason
            B = product_polarization(q, -p)
            N = len(B.basis)
            axis1 = [B.matrices[1], *(K.matrices[1] for K in null_pencils(B.basis))]
            pinned = [r for r in range(N) if all(S.get(r, r) == 0 for S in axis1)]
            dual = evidence.dual_matrix
            assert pinned and dual is not None
            assert len(dual) == N and all(len(row) == N for row in dual)
            assert all(dual[r][c] == dual[c][r] == 0 for r in pinned for c in range(N))
            assert abs(sum(dual[r][r] for r in range(N)) - 1) < 1e-9


def s_squared_wronskian(p, q, s):
    return s * s * wronskian(q, p, 1)


class TestRejected:
    def test_zero_denominator(self):
        with pytest.raises(StructuralError):
            wronskian_realization(poly("z1"), poly("0", 1), poly("1", 1))

    def test_zero_helper(self):
        with pytest.raises(PreconditionError):
            wronskian_realization(poly("-1", 1), poly("z1"), poly("0", 1))

    def test_variable_count_mismatch(self):
        with pytest.raises(StructuralError):
            wronskian_realization(poly("-1", 1), poly("z1*z2"), poly("1", 2))

    def test_non_polynomial_input(self):
        with pytest.raises(StructuralError):
            wronskian_realization("-1", poly("z1"), poly("1", 1))

    def test_uncertifiable_wronskian(self):
        # W_1[1, z1^2] = 2 z1 has odd degree, so no helper s = 1 certificate
        with pytest.raises(NoCertificateError) as info:
            wronskian_realization(poly("z1^2"), poly("1", 1), poly("1", 1))
        assert isinstance(info.value.evidence, InfeasibilityEvidence)
        assert info.value.evidence.reason


class TestVerification:
    def test_psd_failure_detected(self):
        r = wronskian_realization(poly("-1", 1), poly("z1"), poly("1", 1))
        matrices = list(r.pencil.matrices)
        bad = matrices[1].copy()
        for i in range(bad.size):
            bad.set(i, i, bad.get(i, i) - 1)
        matrices[1] = bad
        broken = Realization(
            pencil=SymmetricPencil(r.pencil.basis, tuple(matrices)),
            p=r.p,
            q=r.q,
            s=r.s,
            certificate=r.certificate,
            psd_axes=r.psd_axes,
        )
        ok, report = verify_realization(broken)
        assert not ok
        assert report["axis1_psd"] is False

    def test_constant_matrix_tamper_detected(self):
        r = wronskian_realization(poly("-(z1 + z2)"), poly("z1*z2"), poly("1", 2))
        matrices = list(r.pencil.matrices)
        bad = matrices[0].copy()
        bad.set(0, 0, bad.get(0, 0) + Fraction(1, 3))
        matrices[0] = bad
        broken = Realization(
            pencil=SymmetricPencil(r.pencil.basis, tuple(matrices)),
            p=r.p,
            q=r.q,
            s=r.s,
            certificate=r.certificate,
            psd_axes=r.psd_axes,
        )
        ok, report = verify_realization(broken)
        assert not ok
        assert report["cross_product"] is False

    def test_axis2_tamper_detected(self):
        r = wronskian_realization(poly("-(z1 + z2)"), poly("z1*z2"), poly("1", 2))
        matrices = list(r.pencil.matrices)
        bad = matrices[2].copy()
        bad.add(0, 1, Fraction(1, 2))
        matrices[2] = bad
        broken = Realization(
            pencil=SymmetricPencil(r.pencil.basis, tuple(matrices)),
            p=r.p,
            q=r.q,
            s=r.s,
            certificate=r.certificate,
            psd_axes=r.psd_axes,
        )
        ok, report = verify_realization(broken)
        assert not ok
        assert report == {
            "cross_product": False,
            "wronskian_diagonal_1": True,
            "wronskian_diagonal_2": False,
            "certificate_squares": True,
            "axis1_psd": True,
            "axis2_psd": False,
        }

    def test_report_keys(self):
        r = wronskian_realization(poly("-(z1 + z2)"), poly("z1*z2"), poly("1", 2))
        ok, report = verify_realization(r)
        assert ok
        expected = {
            "cross_product",
            "wronskian_diagonal_1",
            "wronskian_diagonal_2",
            "certificate_squares",
            "axis1_psd",
            "axis2_psd",
        }
        assert set(report) == expected


class TestHerglotzConsequence:
    def test_imaginary_part_formula(self):
        # Im f(z1, x2) = Im z1 * v A_1 v^* with v = Psi / (q s), away from
        # zeros of q s; spot check the identity numerically
        p, q, s = poly("-(z1 + z2)"), poly("z1*z2"), poly("1", 2)
        r = wronskian_realization(p, q, s)
        basis = r.pencil.basis
        dense = r.pencil.matrices[1].to_dense()
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            z1 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            x2 = rng.uniform(-3, 3)
            point = (z1, complex(x2))
            qs = (q * s).eval_complex(point)
            if abs(qs) < 1e-6:
                continue
            psi = [
                Polynomial.monomial(m, 1).eval_complex(point)
                for m in basis.monomials
            ]
            v = [value / qs for value in psi]
            quad = sum(
                float(dense[i][j]) * v[i] * v[j].conjugate()
                for i in range(len(v))
                for j in range(len(v))
            )
            f = p.eval_complex(point) / q.eval_complex(point)
            assert abs(f.imag - z1.imag * quad.real) < 1e-9
            checked += 1


class TestRandomized:
    def test_random_certifiable_pairs(self):
        # q and p chosen so W_1[q, p] is itself a perfect square
        rng = random.Random(2024)
        built = 0
        while built < 6:
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            # W_1[b z1 + c, -a] = a b, a positive constant (an SOS)
            c = rng.randint(-3, 3)
            q = Polynomial(1, {(1,): Fraction(b), (0,): Fraction(c)})
            p = Polynomial.constant(-a, 1)
            r = wronskian_realization(p, q, poly("1", 1))
            assert_valid(r)
            built += 1
