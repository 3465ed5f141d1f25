"""Exact rational linear algebra on dense and symmetric-sparse matrices.

Fraction at the interface, integers inside; float never enters. Every
entry passes _fraction (ints and Fractions only, else StructuralError):
in SymMatrix.add, set and from_dense, the one validator of dense input,
and in the eliminations' rows. Dense matrices are lists of lists, sparse
rows are dicts {column: value}, and symmetric matrices store one triangle.
The PSD test is a pivoted LDL^T factorization with complete diagonal
pivoting, which is exact and doubles as the square-extraction backend for
certificates. It runs fraction-free (Bareiss) elimination on the integer
matrix lcm * A (_integer_matrix): psd_factor over all indices, is_psd per
connected component of the nonzero entries. Every other elimination
(rref, solve_sparse, sparse_nullspace, sparse_rank) is one Gauss-Jordan
elimination on sparse integer rows, each kept primitive (_sparse_rref).
Both return the same Fractions as elimination done in Fraction (the tests
keep that elimination as their reference).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import StructuralError


def _fraction(x):
    """x as an exact rational; ints and Fractions pass through, a float or
    any other type raises StructuralError."""
    if not isinstance(x, (int, Fraction)):
        raise StructuralError(
            f"cannot use {type(x).__name__} {x!r} as an exact entry; use Fraction or int"
        )
    return x


class SymMatrix:
    """Sparse symmetric matrix of order ``size``; entries indexed (i, j) with
    i <= j stored once, every one a nonzero Fraction.

    add/get treat (i, j) and (j, i) as the same symmetric entry.
    """

    __slots__ = ("size", "_entries")

    def __init__(self, size, entries=None):
        self.size = size
        self._entries = {}
        for (i, j), value in (entries or {}).items():
            self.add(i, j, value)

    def _key(self, i, j):
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise StructuralError(f"index ({i}, {j}) outside a {self.size}x{self.size} matrix")
        return (i, j) if i <= j else (j, i)

    def get(self, i, j):
        return self._entries.get(self._key(i, j), Fraction(0))

    def __len__(self):
        return self.size

    def add(self, i, j, value):
        key = self._key(i, j)
        value = self._entries.get(key, Fraction(0)) + _fraction(value)
        if value:
            self._entries[key] = value
        else:
            self._entries.pop(key, None)

    def set(self, i, j, value):
        key = self._key(i, j)
        value = Fraction(_fraction(value))
        if value:
            self._entries[key] = value
        else:
            self._entries.pop(key, None)

    def entries(self):
        """Upper-triangle ((i, j), value) pairs, i <= j, unordered."""
        return self._entries.items()

    def is_zero(self):
        return not self._entries

    def copy(self):
        out = SymMatrix(self.size)
        out._entries = dict(self._entries)
        return out

    def scale(self, factor):
        factor = _fraction(factor)
        out = SymMatrix(self.size)
        if factor:
            out._entries = {k: v * factor for k, v in self._entries.items()}
        return out

    def __add__(self, other):
        if not isinstance(other, SymMatrix) or other.size != self.size:
            return NotImplemented
        out = self.copy()
        for (i, j), value in other._entries.items():
            out.add(i, j, value)
        return out

    def __sub__(self, other):
        if not isinstance(other, SymMatrix) or other.size != self.size:
            return NotImplemented
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.size == other.size and self._entries == other._entries

    def __hash__(self):
        return hash((self.size, frozenset(self._entries.items())))

    def reindexed(self, index, size):
        """Entry (i, j) moved to (index[i], index[j]) of an order-``size``
        matrix, in the same entry order; ``index`` is an increasing dict of
        indices, and entries at an index it does not map are dropped."""
        out = SymMatrix(size)
        for (i, j), value in self._entries.items():
            if i in index and j in index:
                out._entries[out._key(index[i], index[j])] = value
        return out

    def to_dense(self):
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for (i, j), value in self._entries.items():
            rows[i][j] = value
            rows[j][i] = value
        return rows

    @classmethod
    def from_dense(cls, rows):
        """The one validator of dense input: StructuralError unless square,
        symmetric and exact."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise StructuralError("matrix is not square")
        out = cls(n)
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != rows[j][i]:
                    raise StructuralError(f"matrix is not symmetric at ({i}, {j})")
                out.set(i, j, rows[i][j])
        return out

    def __repr__(self):
        return f"SymMatrix({self.size}, nnz={len(self._entries)})"


# -- elimination ---------------------------------------------------------------


def _primitive(row):
    """The sparse integer row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _integer_row(row):
    """A rational row {column: value} as a primitive {column: int}, zeros dropped."""
    row = {c: _fraction(x) for c, x in row.items() if x}
    scale = math.lcm(1, *(x.denominator for x in row.values()))
    return _primitive({c: x.numerator * (scale // x.denominator) for c, x in row.items()})


def _clear(row, top, c):
    """row with column c cleared by the pivot row top, kept primitive.

    With p = top[c], m = row[c] and g = gcd(p, m) the result is
    (p/g) * row - (m/g) * top divided by the gcd of its entries.
    """
    p, m = top[c], row[c]
    g = math.gcd(p, m)
    a, b = p // g, m // g
    out = {k: a * x for k, x in row.items()}
    for k, y in top.items():
        x = out.get(k, 0) - b * y
        if x:
            out[k] = x
        else:
            del out[k]
    return _primitive(out)


def _sparse_rref(rows):
    """RREF of sparse integer rows, each pivot row up to a nonzero scale.

    Returns {pivot column: primitive row}. The rows are taken one at a
    time. A row is cleared at every pivot column it has; the pivot rows
    vanish at one another's pivot columns, so this brings in no other pivot
    column. What is left, if anything, becomes a pivot row at its lowest
    column, and that column is cleared from the earlier pivot rows. Each
    pivot row's lowest column thus stays its pivot, and the rows span the
    input's row space, so they are its RREF up to scale: dividing each by
    its pivot gives the rational RREF, which is unique.
    """
    pivots = {}
    for row in rows:
        for c in [c for c in row if c in pivots]:
            row = _clear(row, pivots[c], c)
        if not row:
            continue
        c = min(row)
        for k, top in pivots.items():
            if c in top:
                pivots[k] = _clear(top, row, c)
        pivots[c] = row
    return pivots


def rref(rows):
    """Reduced row echelon form of a dense Fraction matrix.

    Returns (new_rows, pivot_columns); the input is not modified. The
    elimination runs on sparse primitive integer rows (see _sparse_rref);
    each pivot row is divided by its pivot once, at the end, and the zero
    rows follow the pivot rows.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise StructuralError("rref needs rows of equal length")
    reduced = _sparse_rref([_integer_row(dict(enumerate(row))) for row in rows])
    pivots = sorted(reduced)
    zero = Fraction(0)
    out = []
    for c in pivots:
        row = reduced[c]
        dense = [zero] * ncols
        for k, x in row.items():
            dense[k] = Fraction(x, row[c])
        out.append(dense)
    out.extend([zero] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def _homogeneous(reduced, ncols):
    """The homogeneous basis of a _sparse_rref over ncols unknowns, as
    sparse vectors: one per free column, in increasing order, equal to 1
    there and 0 at the other free columns."""
    basis = {free: {free: Fraction(1)} for free in range(ncols) if free not in reduced}
    for c, row in reduced.items():
        # a pivot row vanishes at the other pivot columns
        for k, x in row.items():
            if k != c and k != ncols:
                basis[k][c] = Fraction(-x, row[c])
    return list(basis.values())


def solve_sparse(rows, rhs, ncols):
    """All solutions x (of length ncols) of rows @ x = rhs, rows sparse.

    Each row is a dict {column: rational}, columns below ncols. Returns
    (particular, homogeneous_basis) as dense Fraction vectors, read off one
    RREF of the augmented system (the right-hand side is column ncols):
    the particular solution is zero at the free columns, and the basis is
    _homogeneous's. Returns None when the system is inconsistent. Raises
    StructuralError when rhs and rows differ in length or a column is not
    an int in [0, ncols).
    """
    if len(rhs) != len(rows):
        raise StructuralError(f"solve_sparse got {len(rows)} rows but {len(rhs)} right-hand sides")
    for row in rows:
        for c in row:
            if not isinstance(c, int) or not 0 <= c < ncols:
                raise StructuralError(f"solve_sparse got column {c!r} outside [0, {ncols})")
    reduced = _sparse_rref([_integer_row({**row, ncols: b}) for row, b in zip(rows, rhs)])
    if ncols in reduced:
        return None
    zero = Fraction(0)
    particular = [zero] * ncols
    for c, row in reduced.items():
        if ncols in row:
            particular[c] = Fraction(row[ncols], row[c])
    basis = []
    for vector in _homogeneous(reduced, ncols):
        basis.append([zero] * ncols)
        for c, x in vector.items():
            basis[-1][c] = x
    return particular, basis


def sparse_nullspace(rows, ncols):
    """The homogeneous basis of solve_sparse(rows, [0, ...], ncols), each
    vector a dict {column: Fraction} without its zeros. The columns are
    not checked against ncols."""
    return _homogeneous(_sparse_rref([_integer_row(row) for row in rows]), ncols)


def sparse_rank(rows):
    """Rank of a matrix given as sparse rows (dicts column -> rational)."""
    return len(_sparse_rref([_integer_row(row) for row in rows]))


# -- exact PSD factorization ---------------------------------------------------


def _integer_matrix(entries, members):
    """(U, scale): the upper triangle of scale * A as int rows over members.

    ``entries`` are SymMatrix entries ((i, j), value) with i and j in
    ``members``, an increasing list of indices; row and column k of U stand
    for members[k], and scale is the lcm of the entries' denominators.
    """
    pos = {i: k for k, i in enumerate(members)}
    scale = math.lcm(1, *(v.denominator for _, v in entries))
    U = [[0] * len(pos) for _ in pos]
    for (i, j), v in entries:
        U[pos[i]][pos[j]] = v.numerator * (scale // v.denominator)
    return U, scale


def _symmetric_bareiss(U, columns=None, divisors=None):
    """Fraction-free LDL^T of an integer symmetric matrix, in place.

    Only the upper triangle of U is read and written. Step k replaces the
    remaining block B by (p_k * B' - b b^T) / prev, with p_k the pivot, b
    its row and B' the rest of the block: the division by the previous
    pivot is exact (Bareiss). The new block is then divided by the gcd of
    its entries; a block so divided starts a fresh chain, whose first step
    divides by 1. Each block is a positive multiple of the rational Schur
    complement, so complete diagonal pivoting (largest remaining diagonal
    entry, first index on ties), the signs and the zero test agree with
    rational elimination.

    Returns (perm, pivots), or None when U is not PSD. With ``columns`` (one
    list per row) row i gets b_ik at step k, so that L[i][k] = b_ik / p_k.
    With ``divisors`` step k appends the whole divisor d_k of its block, so
    that the Schur complement's scale s_k (block k = Schur complement / s_k)
    obeys s_{k+1} = s_k * d_k / p_k and D[k] = s_k * p_k.
    """
    n = len(U)
    perm = list(range(n))
    pivots = []
    prev = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: U[i][i])
        pv = U[p][p]
        if pv < 0:
            return None
        if pv == 0:
            if any(U[i][j] for i in range(k, n) for j in range(i, n)):
                return None
            break
        if p != k:
            _symmetric_swap(U, k, p)
            perm[k], perm[p] = perm[p], perm[k]
            if columns is not None:
                columns[k], columns[p] = columns[p], columns[k]
        top = U[k]
        for i in range(k + 1, n):
            m = top[i]
            row = U[i]
            if m:
                row[i:] = [(pv * a - m * b) // prev for a, b in zip(row[i:], top[i:])]
            elif pv != prev:
                row[i:] = [pv * a // prev for a in row[i:]]
            if columns is not None:
                columns[i].append(m)
        pivots.append(pv)
        content = math.gcd(*[a for i in range(k + 1, n) for a in U[i][i:]])
        if divisors is not None:
            divisors.append(prev * max(content, 1))
        if content > 1:
            for i in range(k + 1, n):
                U[i][i:] = [a // content for a in U[i][i:]]
            prev = 1
        else:
            prev = pv
    return perm, pivots


def _symmetric_swap(U, k, p):
    """Exchange indices k < p of the block U[k:, k:], upper triangle only."""
    U[k][k], U[p][p] = U[p][p], U[k][k]
    for m in range(k + 1, p):
        U[k][m], U[m][p] = U[m][p], U[k][m]
    rk, rp = U[k], U[p]
    rk[p + 1:], rp[p + 1:] = rp[p + 1:], rk[p + 1:]


def psd_factor(matrix):
    """Pivoted LDL^T of a SymMatrix, or None when it is not PSD.

    A dense matrix is converted by SymMatrix.from_dense, which raises
    StructuralError unless it is square and symmetric. Returns (perm, L, D)
    with A[perm[i]][perm[j]] == (L @ diag(D) @ L.T)[i][j], L unit lower
    triangular, D nonnegative. Uses complete diagonal pivoting: when the
    largest remaining diagonal entry is zero, the matrix is PSD exactly
    when the whole remaining block vanishes. The elimination runs on the
    integer matrix lcm * A (see _symmetric_bareiss); L and D are built as
    Fractions once, at the end.
    """
    if not isinstance(matrix, SymMatrix):
        matrix = SymMatrix.from_dense(matrix)
    n = matrix.size
    U, scale = _integer_matrix(matrix.entries(), range(n))
    columns = [[] for _ in range(n)]
    divisors = []
    factored = _symmetric_bareiss(U, columns, divisors)
    if factored is None:
        return None
    perm, pivots = factored
    zero, one = Fraction(0), Fraction(1)
    D = [zero] * n
    s = Fraction(1, scale)
    for k, (pv, d) in enumerate(zip(pivots, divisors)):
        D[k] = s * pv
        s = s * d / pv
    L = []
    for i, column in enumerate(columns):
        row = [Fraction(b, pivots[k]) if b else zero for k, b in enumerate(column)]
        row.extend(one if j == i else zero for j in range(len(column), n))
        L.append(row)
    return perm, L, D


def _blocks(entries, size):
    """Symmetric entries ((i, j), value) of an order-``size`` matrix, one
    list per connected component.

    Indices i and j are connected when entry (i, j) is nonzero; the
    components come from a union-find with path halving, inlined. Indices
    with no entry at all are in no component. ``entries`` is iterated
    twice, so it must be a collection, such as SymMatrix.entries().
    """
    parent = list(range(size))
    for (i, j), _ in entries:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[max(i, j)] = min(i, j)
    blocks = {}
    for key, value in entries:
        i = key[0]
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        blocks.setdefault(i, []).append((key, value))
    return list(blocks.values())


def _is_psd_entries(entries, size):
    """is_psd of the order-``size`` matrix with upper-triangle entries
    ((i, j), value), each value a nonzero int or Fraction.

    The test is scale-invariant, so integer numerators over any positive
    common denominator may stand for the rational matrix.
    """
    for block in _blocks(entries, size):
        members = sorted({k for key, _ in block for k in key})
        if _symmetric_bareiss(_integer_matrix(block, members)[0]) is None:
            return False
    return True


def is_psd(matrix):
    """Exact PSD test for a SymMatrix (a dense matrix as in psd_factor).

    Runs the elimination of psd_factor without building L or D, once per
    connected component of the nonzero entries (_blocks): a block-diagonal
    matrix is PSD exactly when every block is, and rows with no entry are
    zero.
    """
    if not isinstance(matrix, SymMatrix):
        matrix = SymMatrix.from_dense(matrix)
    return _is_psd_entries(matrix.entries(), matrix.size)
