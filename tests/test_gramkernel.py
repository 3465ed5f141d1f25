"""Gram-kernel bases and the representation-defect completion."""

import itertools
import random
from fractions import Fraction

import pytest

from sospencil import gramkernel, soscert
from sospencil.errors import CapacityError, PreconditionError, StructuralError
from sospencil.exactlinalg import SymMatrix, sparse_rank
from sospencil.gramkernel import (
    _pair_classes,
    defect_completion,
    elementary_transform,
    kernel_basis,
    kernel_dimension_oracle,
    pairs_for_beta,
)
from sospencil.polarize import pencil_row_action, quadratic_form_polynomial
from sospencil.polycore import Polynomial, build_basis


# every basis with d <= 3, per-variable caps <= 3 and total cap <= 4
CENSUS = [
    (total, caps)
    for d in (1, 2, 3)
    for caps in itertools.product(range(4), repeat=d)
    for total in range(5)
]


def vectorize(matrix):
    return {i * matrix.size + j: v for (i, j), v in matrix.entries()}


def assert_kernel_properties(basis):
    elements = kernel_basis(basis)
    assert len(elements) == kernel_dimension_oracle(basis)
    for el in elements:
        assert quadratic_form_polynomial(el.matrix, basis).is_zero()
        assert el.kind in ("triple", "quad")
        assert el.support == tuple(sorted(el.support))
    rank = sparse_rank([vectorize(el.matrix) for el in elements])
    assert rank == len(elements)
    return elements


class TestPairsAndTransforms:
    def test_pairs_match_brute_force(self):
        basis = build_basis(2, (2, 2))
        monos = basis.monomials
        beta = (2, 2)
        expected = sorted(
            (i, j)
            for i in range(len(monos))
            for j in range(i, len(monos))
            if tuple(a + b for a, b in zip(monos[i], monos[j])) == beta
        )
        got = pairs_for_beta(beta, basis)
        assert sorted(got.pairs) == expected
        assert got.beta == beta

    @pytest.mark.parametrize("beta", [(True, 0), (1, False), (1.0, 1), (-1, 3), (1,)])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(StructuralError):
            pairs_for_beta(beta, build_basis(2, (2, 2)))

    def test_pairs_match_brute_force_on_census(self):
        for total, caps in CENSUS:
            basis = build_basis(total, caps)
            monos = basis.monomials
            products = {}
            for i, j in itertools.combinations_with_replacement(range(len(monos)), 2):
                beta = tuple(a + b for a, b in zip(monos[i], monos[j]))
                products.setdefault(beta, []).append((i, j))
            for beta, pairs in products.items():
                assert pairs_for_beta(beta, basis).pairs == tuple(pairs)
            assert pairs_for_beta((2 * total + 1,) + caps[1:], basis).pairs == ()

    def test_pairs_by_lookup(self, monkeypatch):
        # one beta is answered without enumerating every pair class
        calls = []

        def spy(monos):
            calls.append(len(monos))
            return _pair_classes(monos)

        monkeypatch.setattr(gramkernel, "_pair_classes", spy)
        basis = build_basis(4, (2, 2, 2))
        got = pairs_for_beta((2, 2, 2), basis)
        assert calls == []
        assert got.pairs == tuple(_pair_classes(basis.monomials)[(2, 2, 2)])

    @pytest.mark.parametrize(
        "basis", [list(build_basis(1, (1, 1)).monomials), "abc"], ids=["list", "str"]
    )
    def test_basis_must_be_a_monomial_basis(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            pairs_for_beta((1, 1), basis)

    def test_one_pair_class_enumeration(self):
        assert soscert._pair_classes is _pair_classes

    def test_elementary_transform_moves_one_unit(self):
        assert elementary_transform((1, 0), 2, 1, (1, 1)) == (0, 1)
        assert elementary_transform((0, 2, 1), 1, 2, (2, 2, 2)) == (1, 1, 1)

    def test_inapplicable_transform_rejected(self):
        with pytest.raises(PreconditionError):
            elementary_transform((0, 0), 1, 2, (1, 1))  # nothing to move
        with pytest.raises(PreconditionError):
            elementary_transform((1, 1), 2, 1, (1, 1))  # target at cap


class TestKernelBasis:
    def test_univariate_quadratic_reference(self):
        basis = build_basis(2, (2,))
        elements = assert_kernel_properties(basis)
        assert len(elements) == 1
        expected = SymMatrix(3)
        expected.set(0, 2, Fraction(-1))
        expected.set(1, 1, Fraction(2))
        assert elements[0].matrix == expected
        assert elements[0].kind == "triple"

    def test_capacity(self):
        # one capacity for a Gram family over a basis, shared with sos_certify
        assert soscert.GRAM_CAPACITY == gramkernel.GRAM_CAPACITY == 120
        assert len(kernel_basis(build_basis(7, (7, 7, 7)))) > 0  # N = 120
        with pytest.raises(CapacityError, match="165 monomials, capacity 120"):
            kernel_basis(build_basis(8, (8, 8, 8)))

    @pytest.mark.parametrize(
        "basis", [list(build_basis(1, (1, 1)).monomials), "abc"], ids=["list", "str"]
    )
    def test_basis_must_be_a_monomial_basis(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            kernel_basis(basis)

    def test_trivial_bases_have_empty_kernel(self):
        for caps in ((0,), (1,), (1, 1)):
            basis = build_basis(sum(caps), caps)
            if caps == (1, 1):
                # multiaffine square-free basis still has one relation class
                elements = assert_kernel_properties(basis)
                assert all(el.kind == "quad" for el in elements)
            else:
                assert kernel_basis(basis) == []

    @pytest.mark.parametrize("caps,total", [((2, 2), 2), ((3,), 3), ((1, 1, 1), 3), ((2, 1), 3)])
    def test_oracle_and_independence(self, caps, total):
        assert_kernel_properties(build_basis(total, caps))


def unit_shift(exps, inc, dec):
    """exps + e_inc - e_dec, 1-based positions."""
    return tuple(
        e + (k + 1 == inc) - (k + 1 == dec) for k, e in enumerate(exps)
    )


def assert_corners(element, basis):
    """The element is the edge its matrix and move say it is: the matrix is
    w E_up - E_vc, and the move (r, l) sends u to v and p to c."""
    (plus, w), (minus, one) = list(element.matrix.entries())
    assert one == -1
    r, l = element.move
    hom = [m + (basis.total_cap - sum(m),) for m in basis.monomials]
    index = {h: i for i, h in enumerate(hom)}
    u, p = next(
        (u, p)
        for u, p in (plus, plus[::-1])
        if {index.get(unit_shift(hom[u], r, l)), index.get(unit_shift(hom[p], l, r))}
        == set(minus)
    )
    assert element.beta == tuple(
        a + b for a, b in zip(basis.monomials[u], basis.monomials[p])
    )
    triple = u == p
    assert w == (2 if triple else 1)
    assert element.kind == ("triple" if triple else "quad")
    assert element.support == tuple(sorted({*plus, *minus}))
    assert len(element.support) == (3 if triple else 4)
    if triple:
        assert r < l


class TestCorners:
    def test_kernel_basis_corners(self):
        for total, caps in CENSUS:
            basis = build_basis(total, caps)
            for el in kernel_basis(basis):
                assert_corners(el, basis)

    def test_reference_corners(self):
        # 1, z1, z1^2: the squared z1 comes first, and the move raises the
        # lower-numbered variable z1 at the auxiliary variable's expense
        (el,) = kernel_basis(build_basis(2, (2,)))
        assert list(el.matrix.entries()) == [((1, 1), 2), ((0, 2), -1)]
        assert el.move == (1, 2)
        # the multiaffine basis 1, z1, z2, z1*z2 has one relation: 1 * z1z2 = z1 * z2
        (el,) = kernel_basis(build_basis(2, (1, 1)))
        assert el.kind == "quad"
        assert {key for key, _ in el.matrix.entries()} == {(0, 3), (1, 2)}


class TestDefectCompletion:
    def test_zero_input_gives_zero_pencil(self):
        basis = build_basis(2, (2, 2))
        pen = defect_completion(SymMatrix(len(basis.monomials)), basis, 2)
        assert all(not list(m.entries()) for m in pen.matrices)

    def test_triple_block_reference(self):
        # kernel element on (z1^2, z1*z2, z2^2); completion couples the
        # axis monomials z3*z1 and z3*z2 exactly as in the 5x5 block solution
        basis = build_basis(2, (2, 2, 1))
        mon = {m: i for i, m in enumerate(basis.monomials)}
        S = SymMatrix(len(basis.monomials))
        S.set(mon[(2, 0, 0)], mon[(0, 2, 0)], Fraction(-1))
        S.set(mon[(1, 1, 0)], mon[(1, 1, 0)], Fraction(2))
        pen = defect_completion(S, basis, 3)

        def entries(k):
            return sorted(((i, j), v) for (i, j), v in pen.matrices[k].entries())

        idx = lambda m: mon[m]
        assert not list(pen.matrices[0].entries())
        assert entries(1) == sorted(
            [
                ((min(idx((1, 0, 1)), idx((0, 2, 0))), max(idx((1, 0, 1)), idx((0, 2, 0)))), Fraction(1)),
                ((min(idx((0, 1, 1)), idx((1, 1, 0))), max(idx((0, 1, 1)), idx((1, 1, 0)))), Fraction(-1)),
            ]
        )
        assert entries(2) == sorted(
            [
                ((min(idx((1, 0, 1)), idx((1, 1, 0))), max(idx((1, 0, 1)), idx((1, 1, 0)))), Fraction(-1)),
                ((min(idx((0, 1, 1)), idx((2, 0, 0))), max(idx((0, 1, 1)), idx((2, 0, 0)))), Fraction(1)),
            ]
        )
        assert pen.matrices[3] == S
        assert all(r.is_zero() for r in pencil_row_action(pen.matrices, basis))

    def test_quad_block_reference(self):
        # kernel element pairing (z1, z1*z2^2) against (z2, z1^2*z2); the
        # completion couples z3 and z1*z2*z3 as in the 6x6 block solution
        basis = build_basis(3, (2, 2, 1))
        mon = {m: i for i, m in enumerate(basis.monomials)}
        S = SymMatrix(len(basis.monomials))
        S.set(mon[(1, 0, 0)], mon[(1, 2, 0)], Fraction(1))
        S.set(mon[(0, 1, 0)], mon[(2, 1, 0)], Fraction(-1))
        pen = defect_completion(S, basis, 3)

        def pair(a, b):
            i, j = mon[a], mon[b]
            return (min(i, j), max(i, j))

        assert not list(pen.matrices[0].entries())
        assert dict(pen.matrices[1].entries()) == {
            pair((1, 1, 1), (0, 1, 0)): Fraction(1),
            pair((0, 0, 1), (1, 2, 0)): Fraction(-1),
        }
        assert dict(pen.matrices[2].entries()) == {
            pair((1, 1, 1), (1, 0, 0)): Fraction(-1),
            pair((0, 0, 1), (2, 1, 0)): Fraction(1),
        }
        assert pen.matrices[3] == S
        assert all(r.is_zero() for r in pencil_row_action(pen.matrices, basis))

    def test_random_combinations_annihilate(self):
        rng = random.Random(47)
        basis = build_basis(3, (2, 2, 2))
        axis = 3
        cap = max(m[axis - 1] for m in basis.monomials)
        top_rows = {i for i, m in enumerate(basis.monomials) if m[axis - 1] == cap}
        usable = [
            el
            for el in kernel_basis(basis)
            if not (set(el.support) & top_rows) and axis not in el.move
        ]
        assert usable
        for _ in range(10):
            S = SymMatrix(len(basis.monomials))
            for el in rng.sample(usable, rng.randint(1, min(4, len(usable)))):
                S = S + el.matrix.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            pen = defect_completion(S, basis, axis)
            assert pen.matrices[axis] == S
            assert all(r.is_zero() for r in pencil_row_action(pen.matrices, basis))

    def test_axis_coupled_defect_has_no_completion(self):
        # the hypotheses alone do not make this triple completable on axis 1;
        # the exact solution space of the pencil identity is empty for it
        basis = build_basis(3, (3, 3))
        mon = {m: i for i, m in enumerate(basis.monomials)}
        S = SymMatrix(len(basis.monomials))
        S.set(mon[(2, 0)], mon[(0, 2)], Fraction(-1))
        S.set(mon[(1, 1)], mon[(1, 1)], Fraction(2))
        with pytest.raises(PreconditionError, match="no pencil completion"):
            defect_completion(S, basis, 1)

    def test_degree_move_folds_onto_diagonal(self):
        # element pairing (z1, z1^2*z3) against (z1^2, z1*z3): its block
        # solution collides two labels and must fold exactly
        basis = build_basis(3, (2, 2, 2))
        mon = {m: i for i, m in enumerate(basis.monomials)}
        S = SymMatrix(len(basis.monomials))
        S.set(mon[(1, 0, 0)], mon[(2, 0, 1)], Fraction(1))
        S.set(mon[(2, 0, 0)], mon[(1, 0, 1)], Fraction(-1))
        pen = defect_completion(S, basis, 3)
        assert pen.matrices[3] == S
        assert all(r.is_zero() for r in pencil_row_action(pen.matrices, basis))

    @pytest.mark.parametrize(
        "basis", [list(build_basis(1, (1, 1)).monomials), "abc"], ids=["list", "str"]
    )
    def test_basis_must_be_a_monomial_basis(self, basis):
        with pytest.raises(StructuralError, match="basis must be a MonomialBasis"):
            defect_completion(SymMatrix(3), basis, 1)

    def test_nonannihilating_input_rejected(self):
        basis = build_basis(2, (2, 2))
        S = SymMatrix(len(basis.monomials))
        S.set(0, 0, Fraction(1))
        with pytest.raises(PreconditionError, match="gram annihilation hypothesis fails"):
            defect_completion(S, basis, 2)

    def test_top_axis_rows_must_vanish(self):
        basis = build_basis(2, (2, 2))
        mon = {m: i for i, m in enumerate(basis.monomials)}
        S = SymMatrix(len(basis.monomials))
        # annihilating, but touches the top z2-degree row of z2^2
        S.set(mon[(2, 0)], mon[(0, 2)], Fraction(-1))
        S.set(mon[(1, 1)], mon[(1, 1)], Fraction(2))
        with pytest.raises(PreconditionError, match="derivative annihilation hypothesis fails"):
            defect_completion(S, basis, 2)
