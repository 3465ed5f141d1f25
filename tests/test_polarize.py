"""Chain pencils, pair pencils, and product polarization identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _fraction_reference as reference
from _helpers import random_nonzero_polynomial, random_polynomial
from sospencil.errors import PreconditionError, StructuralError
from sospencil.exactlinalg import SymMatrix, is_psd, psd_factor, rref, solve_sparse, sparse_rank
from sospencil.parsing import parse_polynomial
from sospencil.polarize import (
    SymmetricPencil,
    _pair_pencil_entries,
    chain_pencil,
    cross_product_polynomial,
    null_pencils,
    pair_pencil,
    pencil_row_action,
    product_polarization,
    quadratic_form_polynomial,
    verify_pencil,
)
from sospencil.polycore import MonomialBasis, Polynomial, build_basis, wronskian


def poly(text, nvars=None):
    return parse_polynomial(text, nvars=nvars)


def entry_lists(matrices):
    """Each matrix's entries, values and order."""
    return [list(m.entries()) for m in matrices]


def chain_action(pencil):
    """Column C(s) * (s^mu_1, ..., s^mu_m)^T as slot-variable polynomials."""
    size = pencil.size
    columns = [Polynomial.monomial(mu) for mu in pencil.mu]
    rows = []
    for i in range(size):
        total = Polynomial.zero(size)
        for j in range(size):
            for m, mat in enumerate(pencil.matrices):
                coeff = mat.get(i, j)
                if coeff:
                    exps = tuple(1 if v == m else 0 for v in range(size))
                    total = total + Polynomial.monomial(exps, coeff) * columns[j]
        rows.append(total)
    return rows


class TestChainPencil:
    def test_size_zero(self):
        cp = chain_pencil(0)
        assert cp.size == 1
        assert cp.matrices[0].get(0, 0) == 1
        assert cp.mu == ((0,),)

    @pytest.mark.parametrize("k", range(4))
    def test_annihilation_identity(self, k):
        cp = chain_pencil(k)
        rows = chain_action(cp)
        assert rows[0] == Polynomial.monomial(cp.nu)
        assert all(r.is_zero() for r in rows[1:])

    def test_k1_reference_matrices(self):
        cp = chain_pencil(1)
        c1 = SymMatrix(3)
        c1.set(0, 1, Fraction(1, 2))
        c2 = SymMatrix(3)
        c2.set(1, 2, Fraction(-1, 2))
        c3 = SymMatrix(3)
        c3.set(0, 2, Fraction(1, 2))
        assert cp.matrices == (c1, c2, c3)
        # column monomials (s2, s3, s1), product lands as s1*s3
        assert cp.mu == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        assert cp.nu == (1, 0, 1)

    def test_invalid_k(self):
        with pytest.raises(StructuralError):
            chain_pencil(-1)

    @pytest.mark.parametrize("k", [True, False, 1.0])
    def test_non_int_k_rejected(self, k):
        with pytest.raises(StructuralError):
            chain_pencil(k)


class TestPairPencil:
    def test_diagonal_case_is_unit_entry(self):
        basis = build_basis(2, (2, 1))
        alpha = (1, 1)
        pencil = pair_pencil(alpha, alpha, basis)
        idx = basis.monomials.index(alpha)
        constant = pencil.matrices[0]
        assert constant.get(idx, idx) == 1
        assert sum(1 for _ in constant.entries()) == 1
        assert all(not any(True for _ in m.entries()) for m in pencil.matrices[1:])

    @pytest.mark.parametrize(
        "alpha,beta,caps",
        [
            ((1,), (0,), (1,)),
            ((1, 0), (0, 1), (1, 1)),
            ((2, 0), (1, 2), (2, 2)),
            ((0, 1, 1), (2, 0, 0), (2, 1, 1)),
        ],
    )
    def test_action_identity(self, alpha, beta, caps):
        basis = build_basis(max(sum(alpha), sum(beta)), caps)
        pencil = pair_pencil(alpha, beta, basis)
        rows = pencil_row_action(pencil.matrices, basis)
        target = Polynomial.monomial(beta)
        idx = basis.monomials.index(alpha)
        for i, row in enumerate(rows):
            assert row == (target if i == idx else Polynomial.zero(len(caps)))

    def test_alpha_not_in_basis(self):
        with pytest.raises(StructuralError):
            pair_pencil((3, 0), (0, 0), build_basis(2, (2, 2)))

    def test_beta_caps_violated(self):
        with pytest.raises(PreconditionError):
            pair_pencil((1, 0), (0, 3), build_basis(2, (2, 2)))

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            ((1, 0), (0, -1)),
            ((-1, 1), (0, 1)),
            ((1, 0), (0, 1.0)),
            ((1.0, 0), (0, 1)),
            ((True, 0), (0, 1)),
            ((1, 0), (0, True)),
        ],
    )
    def test_bad_exponents_rejected(self, alpha, beta):
        with pytest.raises(StructuralError, match="nonnegative integers"):
            pair_pencil(alpha, beta, build_basis(2, (2, 2)))

    def test_permuted_basis_matches_reference(self):
        ordered = build_basis(2, (2, 1))
        monomials = list(ordered.monomials)
        random.Random(5).shuffle(monomials)
        basis = MonomialBasis(ordered.total_cap, ordered.var_caps, tuple(monomials))
        assert basis.monomials != ordered.monomials
        for alpha in basis:
            for beta in basis:
                pencil = pair_pencil(alpha, beta, basis)
                expected = reference.pair_pencil(alpha, beta, basis)
                assert entry_lists(pencil.matrices) == entry_lists(expected), (alpha, beta)


class TestProductPolarization:
    def test_reference_pairs(self):
        pen = product_polarization(poly("z1"), poly("-1", 1))
        assert cross_product_polynomial(pen) == poly("-z1", 2)
        assert quadratic_form_polynomial(pen.matrices[1], pen.basis) == poly("1", 1)

        pen2 = product_polarization(poly("1", 1), poly("z1"))
        assert cross_product_polynomial(pen2) == poly("z2", 2)

        pen3 = product_polarization(poly("z1*z2"), poly("-(z1 + z2)"))
        assert quadratic_form_polynomial(pen3.matrices[1], pen3.basis) == poly("z2^2", 2)
        assert quadratic_form_polynomial(pen3.matrices[2], pen3.basis) == poly("z1^2", 2)

    def test_wronskian_slices_match_oracle(self):
        rng = random.Random(31)
        for _ in range(8):
            nvars = rng.randint(1, 3)
            q = random_nonzero_polynomial(rng, nvars, 3, 3)
            p = random_nonzero_polynomial(rng, nvars, 3, 3)
            pen = product_polarization(q, p)
            for k in range(1, nvars + 1):
                form = quadratic_form_polynomial(pen.matrices[k], pen.basis)
                assert form == wronskian(q, p, k)

    def test_verify_pencil_accepts_and_reports(self):
        q = poly("z1*z2")
        p = poly("-(z1 + z2)")
        pen = product_polarization(q, p)  # basis 1, z1, z2, z1*z2
        ok, issues = verify_pencil(pen, q, p)
        assert ok and issues == []

        broken = [m.copy() for m in pen.matrices]
        broken[0].set(0, 0, broken[0].get(0, 0) + 1)
        ok, issues = verify_pencil(SymmetricPencil(pen.basis, tuple(broken)), q, p)
        # A_0 takes no part in the diagonal identities
        assert not ok
        assert issues == [
            "cross-product identity fails at zeta-exponents (0, 0), "
            "z-exponents (0, 0): residual coefficient 1"
        ]

        broken = [m.copy() for m in pen.matrices]
        broken[2].add(0, 1, Fraction(1, 2))
        ok, issues = verify_pencil(SymmetricPencil(pen.basis, tuple(broken)), q, p)
        assert not ok
        assert issues == [
            "cross-product identity fails at zeta-exponents (1, 0), "
            "z-exponents (0, 1): residual coefficient 1/2",
            "wronskian diagonal identity fails for variable 2 at exponents "
            "(1, 0): residual coefficient 1",
        ]

    def test_axis_matrices_vanish_on_cap_rows(self):
        # A_k is zero on every row whose monomial attains the basis's z_k
        # cap: z_k A_k would otherwise give (A_0 + sum z_j A_j) Psi^T, whose
        # rows are multiples of p, a z_k-degree above that cap
        rng = random.Random(8191)
        for _ in range(100):
            d = rng.randint(1, 3)
            q = random_nonzero_polynomial(rng, d, rng.randint(0, 4), rng.randint(1, 4))
            p = random_polynomial(rng, d, rng.randint(0, 4), rng.randint(1, 4))
            pen = product_polarization(q, p)
            monomials = pen.basis.monomials
            for k in range(1, d + 1):
                cap = max(m[k - 1] for m in monomials)
                top = {i for i, m in enumerate(monomials) if m[k - 1] == cap}
                touched = [
                    (i, j)
                    for (i, j), value in pen.matrices[k].entries()
                    if value and (i in top or j in top)
                ]
                assert touched == [], (q, p, k)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(StructuralError):
            product_polarization(Polynomial.zero(2), Polynomial.zero(2))

    def test_constant_pair(self):
        pen = product_polarization(poly("2", 1), poly("3", 1))
        ok, issues = verify_pencil(pen, poly("2", 1), poly("3", 1))
        assert ok, issues


@st.composite
def polynomial_pairs(draw):
    """q, p in 1..3 variables of degree <= 4 with coefficients over mixed
    denominators, or +-1 so that entries cancel; either one, but not both,
    may be zero."""
    d = draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, 4), min_size=d, max_size=d).filter(
        lambda e: sum(e) <= 4
    ).map(tuple)
    coeff = st.sampled_from([Fraction(1), Fraction(-1)]) | st.fractions(
        min_value=-12, max_value=12, max_denominator=30
    )
    terms = st.dictionaries(exponents, coeff, max_size=5)
    nonzero = st.dictionaries(exponents, coeff.filter(bool), min_size=1, max_size=5)
    q = Polynomial(d, draw(terms))
    p = Polynomial(d, draw(nonzero if q.is_zero() else terms))
    return q, p


class TestAgainstFractionReference:
    @settings(max_examples=60, deadline=None)
    @given(polynomial_pairs())
    def test_product_polarization_matches_reference(self, pair):
        q, p = pair
        pencil = product_polarization(q, p)
        basis, matrices = reference.product_polarization(q, p)
        assert pencil.basis == basis
        assert entry_lists(pencil.matrices) == entry_lists(matrices)

    def test_cancelled_entry_returns_at_the_end(self):
        # an entry whose sum reaches zero leaves its matrix and, when a
        # later pair pencil adds to it again, comes back last
        q, p = poly("z1^2 + z1 + 1"), poly("-z1^2 + z1 - 1")
        pencil = product_polarization(q, p)
        _, matrices = reference.product_polarization(q, p)
        assert entry_lists(pencil.matrices) == entry_lists(matrices)

    def test_one_factor_zero(self):
        q = poly("1/3*z1^2 + 1/2*z2 - 2/5")
        zero = Polynomial.zero(2)
        for left, right in ((q, zero), (zero, q)):
            pencil = product_polarization(left, right)
            assert pencil.basis == reference.product_polarization(left, right)[0]
            assert all(m.is_zero() for m in pencil.matrices)


class TestPairPencilMemo:
    def test_returned_matrices_are_fresh(self):
        basis = build_basis(2, (2, 2))
        first = pair_pencil((1, 0), (0, 2), basis)
        for m in first.matrices:
            m.add(0, 0, Fraction(7, 3))
            m.set(1, 1, 5)
        again = pair_pencil((1, 0), (0, 2), basis)
        expected = reference.pair_pencil((1, 0), (0, 2), basis)
        assert entry_lists(again.matrices) == entry_lists(expected)

        q, p = poly("z1*z2 - 1/2"), poly("3/4*z1^2 + z2")
        pencil = product_polarization(q, p)
        for m in pencil.matrices:
            m.add(0, 1, Fraction(1, 9))
        _, matrices = reference.product_polarization(q, p)
        assert entry_lists(product_polarization(q, p).matrices) == entry_lists(matrices)

    def test_cold_and_warm_calls_agree(self):
        q = poly("1/3*z1^2 + 1/2*z2 - 2/5")
        p = poly("5/6*z1*z2 - 7/4*z2^2 + 1/7")
        _pair_pencil_entries.cache_clear()
        cold = product_polarization(q, p)
        misses = _pair_pencil_entries.cache_info().misses
        assert misses == 9
        warm = product_polarization(q, p)
        assert _pair_pencil_entries.cache_info().misses == misses
        assert warm.basis == cold.basis
        assert entry_lists(warm.matrices) == entry_lists(cold.matrices)

    def test_each_basis_gets_its_own_pencil(self):
        small, large = build_basis(2, (2, 2)), build_basis(3, (3, 2))
        alpha, beta = (1, 0), (1, 1)
        for basis in (small, large, small):
            pencil = pair_pencil(alpha, beta, basis)
            assert pencil.basis is basis
            assert all(m.size == len(basis) for m in pencil.matrices)
            expected = reference.pair_pencil(alpha, beta, basis)
            assert entry_lists(pencil.matrices) == entry_lists(expected)

    def test_errors_survive_a_cached_entry(self):
        basis = build_basis(2, (2,))
        pair_pencil((1,), (1,), basis)
        chain_pencil(1)
        for bad in ((True,), (1.0,), (-1,)):
            with pytest.raises(StructuralError):
                pair_pencil(bad, (1,), basis)
            with pytest.raises(StructuralError):
                pair_pencil((1,), bad, basis)
        with pytest.raises(StructuralError):
            chain_pencil(True)


class TestFloatEntriesRejected:
    def test_float_entry_rejected_by_every_builder(self):
        # SymMatrix is the exact core's door: a float never gets into one,
        # so the pencil builders only ever sum Fractions
        matrix = SymMatrix(2)
        with pytest.raises(StructuralError):
            matrix.add(0, 1, 0.5)
        with pytest.raises(StructuralError):
            matrix.set(0, 1, 0.1)
        with pytest.raises(StructuralError):
            matrix.scale(0.5)
        assert matrix.is_zero()
        dense = [[Fraction(1), 0.5], [0.5, Fraction(1)]]
        for builder in (SymMatrix.from_dense, psd_factor, is_psd):
            with pytest.raises(StructuralError):
                builder(dense)
        with pytest.raises(StructuralError):
            rref([[Fraction(1), 0.5]])
        with pytest.raises(StructuralError):
            solve_sparse([{0: 0.5}], [Fraction(1)], 1)
        with pytest.raises(StructuralError):
            solve_sparse([{0: Fraction(1)}], [0.5], 1)


class TestSymmetricPencil:
    def test_matrix_count_must_match_variables(self):
        basis = build_basis(1, (1,))
        with pytest.raises(StructuralError):
            SymmetricPencil(basis, (SymMatrix(2),))

    def test_addition_requires_same_basis(self):
        a = product_polarization(poly("z1"), poly("-1", 1))
        b = product_polarization(poly("z1^2"), poly("-1", 1))
        with pytest.raises(TypeError):
            a + b

    def test_addition_adds_matrices(self):
        a = product_polarization(poly("z1"), poly("-1", 1))
        doubled = a + a
        for single, double in zip(a.matrices, doubled.matrices):
            assert single + single == double


class TestNullPencils:
    @staticmethod
    def nullity(basis):
        """Unknowns minus the rank of the map from a pencil's entries to its
        row action, each unknown's image taken from pencil_row_action of the
        pencil with that one entry."""
        N, d = len(basis), basis.nvars
        keys, images = {}, []
        for k in range(d + 1):
            for i in range(N):
                for j in range(i, N):
                    matrices = [SymMatrix(N) for _ in range(d + 1)]
                    matrices[k].set(i, j, 1)
                    rows = pencil_row_action(matrices, basis)
                    images.append({
                        keys.setdefault((r, exps), len(keys)): value
                        for r, row in enumerate(rows)
                        for exps, value in row.terms()
                    })
        return len(images) - sparse_rank(images)

    @pytest.mark.parametrize(
        "total, caps, count",
        [
            (1, (1,), 0),
            (3, (3,), 0),
            (5, (5,), 0),
            (3, (3, 3), 15),
            (4, (4, 4), 45),
            (2, (2, 2, 2), 20),
            (3, (3, 3, 3), 140),
        ],
    )
    def test_a_basis_of_the_null_pencils(self, total, caps, count):
        basis = build_basis(total, caps)
        pencils = null_pencils(basis)
        assert len(pencils) == count == self.nullity(basis)
        for K in pencils:
            assert K.basis == basis
            assert all(row.is_zero() for row in pencil_row_action(K.matrices, basis))
        vectors = [
            {(k, i, j): v for k, m in enumerate(K.matrices) for (i, j), v in m.entries()}
            for K in pencils
        ]
        columns = {key: n for n, key in enumerate({key for v in vectors for key in v})}
        assert sparse_rank([{columns[key]: x for key, x in v.items()} for v in vectors]) == count


@pytest.mark.parametrize(
    "basis", [list(build_basis(1, (1, 1)).monomials), "abc"], ids=["list", "str"]
)
class TestBasisArgument:
    """A basis that is not a MonomialBasis raises StructuralError."""

    def test_symmetric_pencil(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            SymmetricPencil(basis, (SymMatrix(3),) * 3)

    def test_pencil_row_action(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            pencil_row_action((SymMatrix(3),) * 3, basis)

    def test_quadratic_form_polynomial(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            quadratic_form_polynomial(SymMatrix(3), basis)

    def test_pair_pencil(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            pair_pencil((1, 0), (0, 1), basis)

    def test_null_pencils(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            null_pencils(basis)
