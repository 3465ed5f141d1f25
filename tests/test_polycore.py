"""Exact polynomial arithmetic, bases, and the partial Wronskian."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sospencil.errors import StructuralError
from sospencil.parsing import parse_polynomial
from sospencil.polycore import (
    MonomialBasis,
    Polynomial,
    RationalFunction,
    basis_key,
    build_basis,
    wronskian,
)


def poly(text, nvars=None):
    return parse_polynomial(text, nvars=nvars)


def small_polys(nvars=2, max_degree=3, max_terms=4):
    term = st.tuples(
        st.tuples(*([st.integers(0, max_degree)] * nvars)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    def assemble(terms):
        p = Polynomial.zero(nvars)
        for exps, coeff in terms:
            p = p + Polynomial.monomial(exps, coeff)
        return p
    return st.lists(term, max_size=max_terms).map(assemble)


class TestArithmetic:
    def test_ring_identities(self):
        p = poly("z1^2 - 2*z2 + 3")
        zero = Polynomial.zero(2)
        one = Polynomial.one(2)
        assert p + zero == p
        assert p * one == p
        assert p - p == zero
        assert p * zero == zero

    def test_known_product(self):
        assert poly("z1 + z2") * poly("z1 - z2", 2) == poly("z1^2 - z2^2")

    def test_power(self):
        p = poly("z1 + 1")
        assert p ** 3 == poly("z1^3 + 3*z1^2 + 3*z1 + 1")
        assert p ** 0 == Polynomial.one(1)

    def test_degrees(self):
        p = poly("z1^3*z2 + z2^2")
        assert p.degree() == 4
        assert p.degree_in(1) == 3
        assert p.degree_in(2) == 2
        assert Polynomial.zero(2).degree() == float("-inf")

    def test_float_coefficients_rejected(self):
        with pytest.raises(StructuralError):
            Polynomial.monomial((1, 0), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c

    def test_evaluation(self):
        p = poly("z1^2*z2 - 3")
        value = p.eval_complex((1j, 2.0))
        assert abs(value - (-5 + 0j)) < 1e-12


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_scale(a, s):
    return {e: c * s for e, c in a.items() if c * s}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_diff(a, index):
    k = index - 1
    out = {}
    for e, c in a.items():
        if e[k]:
            out[e[:k] + (e[k] - 1,) + e[k + 1 :]] = c * e[k]
    return out


def ref_wronskian(q, p, index):
    return ref_add(ref_mul(q, ref_diff(p, index)), ref_mul(p, ref_diff(q, index)), -1)


def assert_matches(result, reference, nvars):
    """result equals the dict-of-Fraction reference and keeps the term
    invariant: int-tuple keys of length nvars, nonzero Fraction values."""
    assert result.nvars == nvars
    assert result._terms == reference
    for exps, coeff in result._terms.items():
        assert type(exps) is tuple and len(exps) == nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is Fraction and coeff != 0


@st.composite
def ring_operands(draw):
    """nvars in 0..3 and three polynomials with their reference dicts.

    Few exponents and large denominators, so supports overlap and the
    common-denominator scaling of products is exercised."""
    nvars = draw(st.integers(0, 3))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=36)
    terms = st.dictionaries(
        st.tuples(*([st.integers(0, 2)] * nvars)), coeff, max_size=5
    )
    out = []
    for _ in range(3):
        raw = draw(terms)
        out.append((Polynomial(nvars, raw), {e: c for e, c in raw.items() if c}))
    return nvars, out


scalars = st.sampled_from([0, Fraction(0)]) | st.integers(-7, 7) | st.fractions(
    min_value=-9, max_value=9, max_denominator=20
)


class TestAgainstDictReference:
    @settings(max_examples=200, deadline=None)
    @given(ring_operands(), scalars, st.integers(0, 3))
    def test_operations_match_reference(self, operands, scalar, n):
        nvars, [(p, P), (q, Q), (r, R)] = operands
        zero = Polynomial.zero(nvars)
        assert_matches(p, P, nvars)
        for a, A in ((p, P), (zero, {})):
            for b, B in ((q, Q), (zero, {}), (a, A)):
                assert_matches(a + b, ref_add(A, B), nvars)
                assert_matches(a - b, ref_add(A, B, -1), nvars)
                assert_matches(a * b, ref_mul(A, B), nvars)
            assert_matches(-a, ref_scale(A, -1), nvars)
            assert_matches(a * scalar, ref_scale(A, Fraction(scalar)), nvars)
            assert_matches(scalar * a, ref_scale(A, Fraction(scalar)), nvars)
            assert_matches(a**n, ref_pow(A, n, nvars), nvars)
            for k in range(1, nvars + 1):
                assert_matches(a.diff(k), ref_diff(A, k), nvars)
                assert_matches(wronskian(a, q, k), ref_wronskian(A, Q, k), nvars)
        # forced cancellation, whole and partial
        assert_matches(p * q - q * p, {}, nvars)
        assert_matches(p + (-p), {}, nvars)
        assert_matches((p + r) - r, P, nvars)
        assert_matches((r - p) + p, R, nvars)


class TestConstructorValidates:
    @pytest.mark.parametrize(
        "nvars, terms",
        [
            (2, {(1,): 1}),  # wrong arity
            (1, {(-1,): 1}),  # negative exponent
            (1, {(1,): 0.5}),  # float coefficient
            (1, {(True,): 1}),  # bool exponent
            (2, {(1, False): 1}),
        ],
    )
    def test_bad_terms_rejected(self, nvars, terms):
        with pytest.raises(StructuralError):
            Polynomial(nvars, terms)

    def test_zero_scalar_gives_zero(self):
        p = poly("z1^2 - 2*z2 + 1/3")
        assert (p * 0).is_zero()
        assert (p * Fraction(0)).is_zero()
        assert (0 * p).is_zero()


class TestBases:
    def test_ordering_is_graded(self):
        basis = build_basis(2, (2, 2))
        keys = [basis_key(m) for m in basis.monomials]
        assert keys == sorted(keys)
        assert basis.monomials[0] == (0, 0)

    def test_membership_matches_caps(self):
        basis = build_basis(3, (2, 1))
        expected = sorted(
            (
                exps
                for exps in itertools.product(range(4), range(4))
                if sum(exps) <= 3 and exps[0] <= 2 and exps[1] <= 1
            ),
            key=basis_key,
        )
        assert list(basis.monomials) == expected

    def test_zero_cap_excludes_variable(self):
        basis = build_basis(2, (2, 0))
        assert all(m[1] == 0 for m in basis.monomials)

    def test_counts(self):
        # full degree-n basis in d variables has C(n+d, d) monomials
        assert len(build_basis(3, (3, 3, 3)).monomials) == 20
        assert len(build_basis(0, (0,)).monomials) == 1

    @pytest.mark.parametrize(
        "total, caps",
        [
            (True, (True, False)),  # would serialize "total_cap": true
            (True, (1, 1)),
            (2, (2, False)),
            (-1, (1,)),
            (2, (1.0,)),
            (2, ()),
        ],
    )
    def test_bad_caps_rejected(self, total, caps):
        with pytest.raises(StructuralError):
            build_basis(total, caps)


class TestWronskian:
    def test_reference_case(self):
        q = poly("z1*z2")
        p = poly("-(z1 + z2)")
        assert wronskian(q, p, 1) == poly("z2^2", 2)
        assert wronskian(q, p, 2) == poly("z1^2", 2)

    def test_antisymmetry_and_diagonal(self):
        q = poly("z1^2 + z2")
        p = poly("z1*z2 - 1")
        assert wronskian(q, p, 1) == -wronskian(p, q, 1)
        assert wronskian(q, q, 2).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_common_factor_scaling(self, q, p, s):
        # W_k[q*s, p*s] = s^2 * W_k[q, p], the denominator-change identity
        left = wronskian(q * s, p * s, 1)
        right = s * s * wronskian(q, p, 1)
        assert left == right

    @settings(max_examples=30, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_bilinearity(self, q, p1, p2):
        left = wronskian(q, p1 + p2, 2)
        assert left == wronskian(q, p1, 2) + wronskian(q, p2, 2)

    def test_index_out_of_range(self):
        for q, p, index, message in (
            (poly("z1"), poly("z1"), 2, r"variable index 2 out of range 1\.\.1"),
            (poly("z1", 2), poly("z2^2 + 1", 2), 0, r"variable index 0 out of range 1\.\.2"),
            (poly("z1", 2), poly("z2^2 + 1", 2), 3, r"variable index 3 out of range 1\.\.2"),
            (poly("z1"), poly("z2"), 1, "share the variable count"),
        ):
            with pytest.raises(StructuralError, match=message):
                wronskian(q, p, index)


class TestRationalFunction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(StructuralError):
            RationalFunction(poly("z1"), Polynomial.zero(1))
