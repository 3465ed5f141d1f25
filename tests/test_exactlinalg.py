"""Rational linear algebra: elimination, nullspaces, pivoted LDL^T."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _fraction_reference as reference
from sospencil.errors import StructuralError
from sospencil.exactlinalg import (
    SymMatrix,
    is_psd,
    psd_factor,
    rref,
    solve_sparse,
    sparse_rank,
)


def frac_matrix(rng, rows, cols, density=0.8):
    return [
        [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) if rng.random() < density else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def solve_dense(rows, rhs):
    """solve_sparse on dense rows, every entry (zeros too) kept as a column."""
    return solve_sparse([dict(enumerate(row)) for row in rows], rhs, len(rows[0]))


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

    def test_len_is_the_order(self):
        assert len(SymMatrix(4)) == 4
        assert len(SymMatrix.from_dense([])) == 0

    def test_entries_are_fractions(self):
        a = SymMatrix(2)
        a.set(0, 1, 3)
        a.add(1, 1, 2)
        a.add(1, 1, Fraction(1, 2))
        assert all(type(v) is Fraction for _, v in a.entries())
        assert all(type(v) is Fraction for _, v in a.scale(2).entries())
        assert all(type(v) is Fraction for _, v in SymMatrix.from_dense([[1, 2], [2, 0]]).entries())

    def test_ragged_from_dense_rejected(self):
        # row 2 is short; reading entry (2, 1) first used to raise IndexError
        ragged = [[1, 2, 3], [2, 1, 5], [3]]
        for builder in (SymMatrix.from_dense, psd_factor, is_psd):
            with pytest.raises(StructuralError):
                builder(ragged)

    def test_non_exact_entries_rejected(self):
        for value in (0.0, "1/2", None):
            with pytest.raises(StructuralError):
                SymMatrix.from_dense([[value]])
            with pytest.raises(StructuralError):
                SymMatrix(1).add(0, 0, value)
            with pytest.raises(StructuralError):
                SymMatrix(1).set(0, 0, value)


# The re-indexing loops that SymMatrix.reindexed replaced, kept as references.


def embed_reference(gram_small, alive, size):
    out = SymMatrix(size)
    for (i, j), value in gram_small.entries():
        out.set(alive[i], alive[j], value)
    return out


def restrict_reference(sym, keep):
    pos = {full: small for small, full in enumerate(keep)}
    out = SymMatrix(len(keep))
    for (i, j), value in sym.entries():
        if i in pos and j in pos:
            a, b = pos[i], pos[j]
            out.set(min(a, b), max(a, b), value)
    return out


def copy_reference(S, to_sub, size):
    out = SymMatrix(size)
    for (i, j), value in S.entries():
        out.set(to_sub[i], to_sub[j], value)
    return out


@st.composite
def sparse_sym_matrices(draw, max_size=7):
    """A SymMatrix built by random add calls, so its entry order is arbitrary."""
    n = draw(st.integers(0, max_size))
    out = SymMatrix(n)
    if n:
        index = st.integers(0, n - 1)
        for _ in range(draw(st.integers(0, 2 * n))):
            out.add(draw(index), draw(index), draw(st.sampled_from([Fraction(-1), Fraction(1, 3), Fraction(2)])))
    return out


class TestReindexed:
    @settings(max_examples=150, deadline=None)
    @given(sparse_sym_matrices(), st.data())
    def test_restrict(self, S, data):
        keep = sorted(data.draw(st.sets(st.integers(0, max(S.size - 1, 0)), max_size=S.size)))
        pos = {full: small for small, full in enumerate(keep)}
        out = S.reindexed(pos, len(keep))
        expected = restrict_reference(S, keep)
        assert out == expected
        assert list(out.entries()) == list(expected.entries())

    @settings(max_examples=150, deadline=None)
    @given(sparse_sym_matrices(), st.data())
    def test_embed_and_copy(self, S, data):
        size = S.size + data.draw(st.integers(0, 3))
        alive = sorted(data.draw(st.permutations(range(size)))[:S.size])
        out = S.reindexed(dict(enumerate(alive)), size)
        for expected in (
            embed_reference(S, alive, size),
            copy_reference(S, dict(enumerate(alive)), size),
        ):
            assert out == expected
            assert list(out.entries()) == list(expected.entries())

    def test_source_untouched_and_bounds_checked(self):
        S = SymMatrix.from_dense([[1, 2], [2, 3]])
        T = S.reindexed({0: 1, 1: 2}, 3)
        assert T.to_dense() == [[0, 0, 0], [0, 1, 2], [0, 2, 3]]
        assert S.to_dense() == [[1, 2], [2, 3]]
        with pytest.raises(StructuralError):
            S.reindexed({0: 1, 1: 2}, 2)


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
            particular, homogeneous = solve_dense(rows, rhs)
            assert mat_vec(rows, particular) == rhs
            for h in homogeneous:
                assert all(v == 0 for v in mat_vec(rows, h))
            assert homogeneous == solve_dense(rows, [0] * len(rows))[1]

    def test_solve_affine_inconsistent(self):
        rows = [[Fraction(1)], [Fraction(1)]]
        assert solve_dense(rows, [Fraction(0), Fraction(1)]) is None

    def test_nullspace_rank_nullity(self):
        rng = random.Random(23)
        for _ in range(25):
            cols = rng.randint(1, 5)
            rows = frac_matrix(rng, rng.randint(1, 4), cols)
            kernel = solve_dense(rows, [0] * len(rows))[1]
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


# -- integer elimination against the Fraction reference -----------------------------

# Denominators up to 10^6, and a small integer pool whose repeats make
# pivot ties and exact cancellations likely.
wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
small_rationals = st.sampled_from([Fraction(v) for v in (-2, -1, 0, 0, 0, 1, 1, 2)] + [Fraction(1, 2)])
entries = st.one_of(wide_rationals, small_rationals)


@st.composite
def symmetric_matrices(draw, max_size=6):
    n = draw(st.integers(0, max_size))
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@st.composite
def psd_matrices(draw, max_size=6):
    """B^T diag(w) B with w >= 0, rank at most len(B), plus trailing zero
    rows and columns, then a symmetric permutation."""
    n = draw(st.integers(0, max_size))
    rank = draw(st.integers(0, n))
    B = [[draw(entries) for _ in range(n)] for _ in range(rank)]
    w = [draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 7)])) for _ in range(rank)]
    A = [[sum((w[r] * B[r][i] * B[r][j] for r in range(rank)), Fraction(0)) for j in range(n)] for i in range(n)]
    pad = draw(st.integers(0, 2))
    A = [row + [Fraction(0)] * pad for row in A] + [[Fraction(0)] * (n + pad) for _ in range(pad)]
    order = draw(st.permutations(range(n + pad)))
    return [[A[i][j] for j in order] for i in order]


@st.composite
def block_diagonal_matrices(draw):
    """Integer blocks over a random denominator, PSD (B^T B) or not
    (arbitrary symmetric), singleton zero and negative diagonals among them,
    placed on the diagonal and then symmetrically permuted."""
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("psd", "general", "zero", "negative")))
        if kind == "zero":
            block = [[0]]
        elif kind == "negative":
            block = [[-draw(st.integers(1, 9))]]
        else:
            n = draw(st.integers(1, 4))
            ints = st.integers(-3, 3)
            if kind == "psd":
                B = [[draw(ints) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
                block = [[sum(row[i] * row[j] for row in B) for j in range(n)] for i in range(n)]
            else:
                upper = {(i, j): draw(ints) for i in range(n) for j in range(i, n)}
                block = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        den = draw(st.sampled_from((1, 2, 7)))
        blocks.append([[Fraction(x, den) for x in row] for row in block])
    size = sum(len(block) for block in blocks)
    A = [[Fraction(0)] * size for _ in range(size)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            A[start + i][start:start + len(row)] = row
        start += len(block)
    order = draw(st.permutations(range(size)))
    return [[A[i][j] for j in order] for i in order]


@st.composite
def rectangular_matrices(draw):
    """Rows of rationals with zero rows and zero columns spliced in."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for c in sorted(draw(st.lists(st.integers(0, ncols), max_size=2))):
        rows = [row[:c] + [Fraction(0)] + row[c:] for row in rows]
    for r in draw(st.lists(st.integers(0, nrows), max_size=2)):
        rows.insert(r, [Fraction(0)] * len(rows[0]))
    return rows


class TestAgainstFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices())
    def test_psd_factor_general_symmetric(self, a):
        assert psd_factor(a) == reference.psd_factor(a)
        assert is_psd(a) == (reference.psd_factor(a) is not None)

    @settings(max_examples=150, deadline=None)
    @given(psd_matrices())
    def test_psd_factor_psd(self, a):
        expected = reference.psd_factor(a)
        assert expected is not None
        assert psd_factor(a) == expected
        assert is_psd(a)
        assert is_psd(SymMatrix.from_dense(a))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(symmetric_matrices(), psd_matrices(), block_diagonal_matrices()))
    def test_psd_factor_on_sym_matrix(self, a):
        # a dense matrix goes through from_dense, so both forms agree exactly
        S = SymMatrix.from_dense(a)
        expected = reference.psd_factor(a)
        assert psd_factor(S) == psd_factor(S.to_dense()) == expected
        assert is_psd(S) == is_psd(S.to_dense()) == (expected is not None)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices())
    def test_is_psd_on_sym_matrix(self, a):
        assert is_psd(SymMatrix.from_dense(a)) == (reference.psd_factor(a) is not None)

    @settings(max_examples=200, deadline=None)
    @given(block_diagonal_matrices())
    def test_is_psd_per_block(self, a):
        # is_psd tests each connected component of a SymMatrix on its own
        assert is_psd(SymMatrix.from_dense(a)) == (reference.psd_factor(a) is not None)

    @settings(max_examples=150, deadline=None)
    @given(rectangular_matrices())
    def test_rref(self, rows):
        assert rref(rows) == reference.rref(rows)

    @pytest.mark.parametrize(
        "a",
        [
            [],
            [[Fraction(0)]],
            [[Fraction(5, 3)]],
            [[Fraction(-1, 10**6)]],
            # equal diagonal entries: the first index wins the tie
            [[Fraction(2), Fraction(1), Fraction(1)], [Fraction(1), Fraction(2), Fraction(1)], [Fraction(1), Fraction(1), Fraction(2)]],
            [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(1), Fraction(3), Fraction(2)], [Fraction(0), Fraction(2), Fraction(3)]],
            # positive diagonal, negative pivot after one step
            [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]],
            [[Fraction(3), Fraction(1), Fraction(2)], [Fraction(1), Fraction(3), Fraction(-2)], [Fraction(2), Fraction(-2), Fraction(1)]],
            # a zero block left after elimination, with and without an off-diagonal entry in it
            [[Fraction(4), Fraction(2), Fraction(0)], [Fraction(2), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(0)]],
            [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(0)]],
            # denominators up to 10^6
            [[Fraction(1, 999983), Fraction(1, 10**6)], [Fraction(1, 10**6), Fraction(7, 999979)]],
        ],
    )
    def test_psd_factor_cases(self, a):
        expected = reference.psd_factor(a)
        assert psd_factor(a) == expected
        assert is_psd(a) == (expected is not None)
        assert is_psd(SymMatrix.from_dense(a)) == (expected is not None)

    def test_factor_entries_are_fractions(self):
        perm, L, D = psd_factor([[2, 1], [1, 2]])
        assert all(type(x) is Fraction for row in L for x in row)
        assert all(type(x) is Fraction for x in D)
        assert D == [Fraction(2), Fraction(3, 2)]

    @pytest.mark.parametrize(
        "rows",
        [
            [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
            [[Fraction(0), Fraction(1, 10**6), Fraction(0)], [Fraction(0), Fraction(3), Fraction(0)]],
            [[Fraction(2), Fraction(4)], [Fraction(0), Fraction(0)], [Fraction(1), Fraction(2)]],
            [[], []],
        ],
    )
    def test_rref_cases(self, rows):
        assert rref(rows) == reference.rref(rows)


class TestStructuralErrors:
    def test_non_symmetric_rejected(self):
        # x^2 + 5xy + y^2 is indefinite; reading one triangle would hide that
        for a in ([[1, 5], [0, 1]], [[1, 0], [5, 1]]):
            with pytest.raises(StructuralError):
                psd_factor(a)
            with pytest.raises(StructuralError):
                is_psd(a)

    def test_ragged_or_non_square_rejected(self):
        for a in ([[1, 0], [0]], [[1, 0]], [[1], [0]]):
            with pytest.raises(StructuralError):
                psd_factor(a)
            with pytest.raises(StructuralError):
                is_psd(a)

    def test_rref_ragged_rows(self):
        with pytest.raises(StructuralError):
            rref([[1, 2, 3], [4, 5]])

    def test_solve_sparse_length_mismatch(self):
        # each extra right-hand side used to be dropped, each missing one
        # took its row with it
        with pytest.raises(StructuralError):
            solve_sparse([{0: 1}, {1: 1}], [1], 2)
        with pytest.raises(StructuralError):
            solve_sparse([{0: 1}], [1, 2], 2)

    @pytest.mark.parametrize("column", [-1, 2, 5, 1.0, "0", None])
    def test_solve_sparse_column_outside_range(self, column):
        # {-1: 1} used to solve for the last column, {5: 1} to read as
        # inconsistent, and {2: 1} to overwrite the right-hand side
        with pytest.raises(StructuralError):
            solve_sparse([{column: 1}], [1], 2)
        with pytest.raises(StructuralError):
            solve_sparse([{0: 1}, {column: 1, 1: 1}], [1, 0], 2)


# -- sparse systems against the Fraction reference ----------------------------------

def sparse_entry(rng):
    """A nonzero rational: a small value, or one with a denominator up to 10^6."""
    if rng.random() < 0.5:
        return Fraction(rng.choice((-2, -1, 1, 1, 2, 3)), rng.choice((1, 1, 2)))
    return Fraction(rng.randint(1, 50 * 10**6) * rng.choice((-1, 1)), rng.randint(1, 10**6))


@st.composite
def sparse_systems(draw):
    """(rows, rhs, kind): a dense-stored system at 1-10% density.

    Scaled copies of rows (with their right-hand sides scaled alike) and
    zero rows are spliced in, and the rows are shuffled. The right-hand
    side is rows @ x ("consistent"), arbitrary ("arbitrary"), or the system
    gains a copy of a row or a zero row whose right-hand side disagrees
    ("inconsistent"). The entries come from a Random that hypothesis seeds.
    """
    nrows, ncols = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    density = draw(st.floats(0.01, 0.10))
    kind = draw(st.sampled_from(["consistent", "arbitrary", "inconsistent"]))
    copies, zeros = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for _ in range(max(1, round(density * nrows * ncols))):
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = sparse_entry(rng)
    x = [rng.choice((Fraction(0), Fraction(1), Fraction(-3, 2))) for _ in range(ncols)]
    rhs = mat_vec(rows, x)
    for _ in range(copies):
        i, k = rng.randrange(len(rows)), sparse_entry(rng)
        rows.append([k * v for v in rows[i]])
        rhs.append(k * rhs[i])
    for _ in range(zeros):
        rows.append([Fraction(0)] * ncols)
        rhs.append(Fraction(0))
    if kind == "arbitrary":
        rhs = [sparse_entry(rng) if rng.random() < 0.5 else Fraction(0) for _ in rows]
    elif kind == "inconsistent":
        i = rng.randrange(-1, len(rows))
        copied = rows[i] if i >= 0 else [Fraction(0)] * ncols
        rows.append(list(copied))
        rhs.append((rhs[i] if i >= 0 else 0) + sparse_entry(rng))
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order], [rhs[i] for i in order], kind


def sparse_rows(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


FACE_SYSTEMS = json.loads((Path(__file__).parent / "data" / "face_systems.json").read_text())


class TestSparseAgainstFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(sparse_systems())
    def test_rref(self, system):
        rows, _rhs, _kind = system
        assert rref(rows) == reference.rref(rows)

    @settings(max_examples=150, deadline=None)
    @given(sparse_systems())
    def test_solve_affine(self, system):
        rows, rhs, kind = system
        expected = reference.solve_affine(rows, rhs)
        if kind == "consistent":
            assert expected is not None
        elif kind == "inconsistent":
            assert expected is None
        assert solve_dense(rows, rhs) == expected
        assert solve_sparse(sparse_rows(rows), rhs, len(rows[0])) == expected

    @settings(max_examples=100, deadline=None)
    @given(sparse_systems())
    def test_sparse_rank(self, system):
        rows, _rhs, _kind = system
        assert sparse_rank(sparse_rows(rows)) == len(reference.rref(rows)[1])

    @pytest.mark.parametrize("name", sorted(FACE_SYSTEMS))
    def test_captured_face_system(self, name):
        # A(lam) v = 0 as the face step builds it for s^2 F, s the sum of
        # the squared variables: the ternary Motzkin form gives 60 x 72,
        # Robinson's form 180 x 115
        system = FACE_SYSTEMS[name]
        ncols = system["ncols"]
        sparse = [{c: Fraction(v) for c, v in row} for row in system["rows"]]
        rhs = [Fraction(b) for b in system["rhs"]]
        rows = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in sparse]
        expected = reference.solve_affine(rows, rhs)
        assert expected is not None
        assert solve_dense(rows, rhs) == expected
        assert solve_sparse(sparse, rhs, ncols) == expected
        assert rref(rows) == reference.rref(rows)
