"""Elimination done step by step in Fraction, kept as the tests' reference.

These are the textbook rational algorithms: Gauss–Jordan RREF, the affine
solver read off it, and pivoted LDL^T with complete diagonal pivoting
(largest diagonal entry, first index on ties). ``sospencil.exactlinalg``
computes the same results by fraction-free integer elimination; the tests
require exact equality.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
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


def solve_affine(rows, rhs):
    """(particular, homogeneous_basis) of rows @ x = rhs, or None.

    Read off the RREF of the augmented matrix: the particular solution is
    zero at the free columns, and the basis has one vector per free column,
    in increasing order.
    """
    ncols = len(rows[0])
    reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][ncols]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
        basis.append(vec)
    return particular, basis


def psd_factor(dense):
    """Pivoted LDL^T of a symmetric matrix, or None when it is not PSD."""
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
