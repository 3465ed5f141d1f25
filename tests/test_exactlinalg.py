"""Rational linear algebra: elimination, nullspaces, pivoted LDL^T."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sospencil.exactlinalg import (
    SymMatrix,
    is_psd,
    nullspace,
    psd_factor,
    rref,
    solve_affine,
    sparse_rank,
)


def frac_matrix(rng, rows, cols, density=0.8):
    return [
        [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) if rng.random() < density else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def mat_vec(rows, x):
    return [sum((r[j] * x[j] for j in range(len(x))), Fraction(0)) for r in rows]


class TestSymMatrix:
    def test_symmetric_storage(self):
        m = SymMatrix(3)
        m.set(0, 2, Fraction(5, 2))
        assert m.get(2, 0) == Fraction(5, 2)
        assert m.to_dense()[0][2] == Fraction(5, 2)

    def test_add_sub_scale(self):
        a = SymMatrix(2)
        a.set(0, 0, Fraction(1))
        b = a.scale(Fraction(3))  # scale returns a new matrix
        assert (a + b).get(0, 0) == Fraction(4)
        assert (b - a).get(0, 0) == Fraction(2)
        assert a.get(0, 0) == Fraction(1)

    def test_dense_round_trip(self):
        a = SymMatrix(2)
        a.set(0, 1, Fraction(-7, 3))
        a.set(1, 1, Fraction(2))
        assert SymMatrix.from_dense(a.to_dense()) == a


class TestElimination:
    def test_rref_known(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        reduced, pivots = rref(rows)
        assert pivots == [0]
        assert reduced[0] == [Fraction(1), Fraction(2)]
        assert all(v == 0 for v in reduced[1])

    def test_solve_affine_recovers_solution(self):
        rng = random.Random(11)
        for _ in range(25):
            rows = frac_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            x = [Fraction(rng.randint(-3, 3)) for _ in rows[0]]
            rhs = mat_vec(rows, x)
            particular, homogeneous = solve_affine(rows, rhs)
            assert mat_vec(rows, particular) == rhs
            for h in homogeneous:
                assert all(v == 0 for v in mat_vec(rows, h))
            assert homogeneous == nullspace(rows, len(rows[0]))

    def test_solve_affine_inconsistent(self):
        rows = [[Fraction(1)], [Fraction(1)]]
        assert solve_affine(rows, [Fraction(0), Fraction(1)]) is None

    def test_nullspace_rank_nullity(self):
        rng = random.Random(23)
        for _ in range(25):
            cols = rng.randint(1, 5)
            rows = frac_matrix(rng, rng.randint(1, 4), cols)
            kernel = nullspace(rows, cols)
            sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
            assert len(kernel) == cols - sparse_rank(sparse)
            for v in kernel:
                assert all(value == 0 for value in mat_vec(rows, v))


class TestPsdFactor:
    def reconstruct(self, perm, L, D, size):
        out = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                out[i][j] = sum(L[i][k] * D[k] * L[j][k] for k in range(size))
        return out

    def test_gram_of_random_factor(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            b = frac_matrix(rng, rng.randint(1, n), n)
            a = [[sum((r[i] * r[j] for r in b), Fraction(0)) for j in range(n)] for i in range(n)]
            result = psd_factor(a)
            assert result is not None
            perm, L, D = result
            assert all(d >= 0 for d in D)
            assert all(L[i][i] == 1 for i in range(n))
            recon = self.reconstruct(perm, L, D, n)
            for i in range(n):
                for j in range(n):
                    assert a[perm[i]][perm[j]] == recon[i][j]

    def test_indefinite_rejected(self):
        hyperbolic = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert psd_factor(hyperbolic) is None
        assert not is_psd(hyperbolic)

    def test_rank_deficient_psd(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        perm, L, D = psd_factor(a)
        assert sorted(D) == [Fraction(0), Fraction(1)]
        assert is_psd(a)

    def test_negative_diagonal_rejected(self):
        assert psd_factor([[Fraction(-1)]]) is None

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=3))
    def test_integer_gram_always_factors(self, rows):
        b = [[Fraction(v) for v in r] for r in rows]
        a = [[sum((r[i] * r[j] for r in b), Fraction(0)) for j in range(3)] for i in range(3)]
        assert psd_factor(a) is not None
        assert is_psd(SymMatrix.from_dense(a))
