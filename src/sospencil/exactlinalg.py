"""Exact rational linear algebra on dense and symmetric-sparse matrices.

Everything here works in Fraction; float never enters. Dense matrices are
lists of lists, symmetric matrices store one triangle. The PSD test is a
pivoted LDL^T factorization with complete diagonal pivoting, which is exact
and doubles as the square-extraction backend for certificates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError


class SymMatrix:
    """Sparse symmetric matrix; entries indexed (i, j) with i <= j stored once.

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

    def add(self, i, j, value):
        key = self._key(i, j)
        value = self._entries.get(key, Fraction(0)) + value
        if value:
            self._entries[key] = value
        else:
            self._entries.pop(key, None)

    def set(self, i, j, value):
        key = self._key(i, j)
        if value:
            self._entries[key] = Fraction(value)
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
        factor = Fraction(factor)
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

    def to_dense(self):
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for (i, j), value in self._entries.items():
            rows[i][j] = value
            rows[j][i] = value
        return rows

    @classmethod
    def from_dense(cls, rows):
        n = len(rows)
        out = cls(n)
        for i in range(n):
            if len(rows[i]) != n:
                raise StructuralError("matrix is not square")
            for j in range(i, n):
                if rows[i][j] != rows[j][i]:
                    raise StructuralError(f"matrix is not symmetric at ({i}, {j})")
                out.set(i, j, Fraction(rows[i][j]))
        return out

    def __repr__(self):
        return f"SymMatrix({self.size}, nnz={len(self._entries)})"


# -- dense elimination --------------------------------------------------------


def rref(rows):
    """Reduced row echelon form of a dense Fraction matrix.

    Returns (new_rows, pivot_columns); the input is not modified.
    """
    if not rows:
        return [], []
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} as Fraction vectors (free-variable form)."""
    if not rows:
        return [
            [Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
            for j in range(ncols)
        ]
    return solve_affine(rows, [Fraction(0)] * len(rows))[1]


def solve_affine(rows, rhs):
    """All solutions of rows @ x = rhs.

    Returns (particular, homogeneous_basis) or None when inconsistent. Both
    are read off one RREF of the augmented system, whose first ncols
    columns are the RREF of rows.
    """
    if not rows:
        raise StructuralError("solve_affine needs at least one equation row")
    ncols = len(rows[0])
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][ncols]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
        basis.append(vec)
    return particular, basis


def sparse_rank(rows):
    """Rank of a matrix given as sparse rows (dicts column -> Fraction)."""
    pivots = {}
    rank = 0
    for row in rows:
        current = {c: Fraction(v) for c, v in row.items() if v}
        while current:
            lead = min(current)
            if lead not in pivots:
                inv = 1 / current[lead]
                pivots[lead] = {c: v * inv for c, v in current.items()}
                rank += 1
                break
            factor = current[lead]
            for c, v in pivots[lead].items():
                value = current.get(c, Fraction(0)) - factor * v
                if value:
                    current[c] = value
                else:
                    current.pop(c, None)
        # a row that reduces to nothing contributes no rank
    return rank


# -- exact PSD factorization ---------------------------------------------------


def psd_factor(dense):
    """Pivoted LDL^T of a symmetric Fraction matrix, or None when not PSD.

    Returns (perm, L, D) with A[perm[i]][perm[j]] == (L @ diag(D) @ L.T)[i][j],
    L unit lower triangular, D nonnegative. Uses complete diagonal pivoting:
    when the largest remaining diagonal entry is zero, the matrix is PSD
    exactly when the whole remaining block vanishes.
    """
    n = len(dense)
    A = [[Fraction(x) for x in row] for row in dense]
    perm = list(range(n))
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    for k in range(n):
        p = max(range(k, n), key=lambda i: A[i][i])
        if A[p][p] < 0:
            return None
        if A[p][p] == 0:
            for i in range(k, n):
                for j in range(k, n):
                    if A[i][j]:
                        return None
            break
        if p != k:
            A[k], A[p] = A[p], A[k]
            for row in A:
                row[k], row[p] = row[p], row[k]
            perm[k], perm[p] = perm[p], perm[k]
            for c in range(k):
                L[k][c], L[p][c] = L[p][c], L[k][c]
        d = A[k][k]
        D[k] = d
        column = [A[i][k] for i in range(k + 1, n)]
        for offset, i in enumerate(range(k + 1, n)):
            L[i][k] = column[offset] / d
        for ii, i in enumerate(range(k + 1, n)):
            for jj, j in enumerate(range(k + 1, n)):
                A[i][j] -= column[ii] * column[jj] / d
    return perm, L, D


def is_psd(matrix):
    """Exact PSD test for a SymMatrix or dense symmetric Fraction matrix."""
    dense = matrix.to_dense() if isinstance(matrix, SymMatrix) else matrix
    return psd_factor(dense) is not None
