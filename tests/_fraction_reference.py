"""Exact algorithms done step by step in Fraction, kept as the tests' reference.

These are the textbook rational algorithms: Gauss–Jordan RREF, the affine
solver read off it, and pivoted LDL^T with complete diagonal pivoting
(largest diagonal entry, first index on ties). ``sospencil.exactlinalg``
computes the same results by fraction-free integer elimination; the tests
require exact equality.

The affine Gram point A0 + sum lam_i S_i is summed here entry by entry with
``SymMatrix.add``. ``sospencil.soscert`` sums integer numerators over one
common denominator; the tests require the same entries, in the same order.

The pair pencil and the product polarization are built here from a fresh
chain pencil per term pair, with every entry summed by ``SymMatrix.add``.
``sospencil.polarize`` memoizes the pair pencils and sums integer
numerators; the tests require the same basis and the same entries, in the
same order.

The exact identity checks are written here as Fraction polynomials: the
quadratic form summed entry by entry, the cross form from the pencil's row
action, the weighted squares from polynomial products, and each pencil
identity as the difference of two polynomials, its Wronskian from two
products, two derivatives and a subtraction.
The package computes each as integer numerators over one denominator; the
tests require the same polynomials and the same residuals.
"""

from fractions import Fraction

from sospencil.exactlinalg import SymMatrix, is_psd
from sospencil.polarize import chain_pencil, pencil_row_action
from sospencil.polycore import Polynomial, build_basis


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


def affine_point(A0, kernel_mats, lam):
    """A0 + sum lam_i S_i, each product added by SymMatrix.add."""
    A = A0.copy()
    for value, S in zip(lam, kernel_mats):
        if value:
            for (i, j), entry in S.entries():
                A.add(i, j, value * entry)
    return A


def pair_pencil(alpha, beta, basis):
    """The d+1 matrices of the pair pencil of (alpha, beta) over ``basis``;
    the input must be valid (int exponents within the basis caps)."""
    d = basis.nvars
    alpha, beta = tuple(alpha), tuple(beta)
    a, b = sum(alpha), sum(beta)
    m = max(a, b - 1)
    alpha_pad = alpha + (m - a,)
    beta_pad = beta + (m + 1 - b,)
    gamma = tuple(min(x, y) for x, y in zip(alpha_pad, beta_pad))
    m1 = tuple(x - g for x, g in zip(alpha_pad, gamma))
    m2 = tuple(y - g for y, g in zip(beta_pad, gamma))
    chain = chain_pencil(sum(m1))
    size = chain.size
    slot_var = [None] * size
    even_vars = [v for v in range(d + 1) for _ in range(m1[v])]
    odd_vars = [v for v in range(d + 1) for _ in range(m2[v])]
    for slot, var in zip(range(1, size, 2), even_vars):
        slot_var[slot] = var
    for slot, var in zip(range(0, size, 2), odd_vars):
        slot_var[slot] = var

    unique, collapse = [], []
    for mu in chain.mu:
        label = list(gamma)
        for slot, mult in enumerate(mu):
            label[slot_var[slot]] += mult
        label = tuple(label)
        if label not in unique:
            unique.append(label)
        collapse.append(unique.index(label))

    merged = [
        [[Fraction(0)] * len(unique) for _ in range(len(unique))] for _ in range(d + 1)
    ]
    for slot in range(size):
        var = slot_var[slot]
        for (i, j), value in chain.matrices[slot].entries():
            for r, c in ((i, j), (j, i)) if i != j else ((i, i),):
                merged[var][collapse[r]][collapse[c]] += value

    out = [SymMatrix(len(basis)) for _ in range(d + 1)]
    positions = [basis.index_of(label[:d]) for label in unique]
    for var in range(d + 1):
        target = out[0] if var == d else out[var + 1]  # aux set to 1
        block = merged[var]
        for i in range(len(unique)):
            for j in range(i, len(unique)):
                if block[i][j]:
                    target.add(positions[i], positions[j], block[i][j])
    return out


def product_polarization(q, p):
    """(basis, matrices) of the product pencil of q(zeta) p(z): the pair
    pencils of every term pair, weighted by the coefficient product."""
    d = q.nvars
    nonzero = [poly for poly in (q, p) if not poly.is_zero()]
    total = max(int(poly.degree()) for poly in nonzero)
    caps = tuple(max(int(poly.degree_in(k)) for poly in nonzero) for k in range(1, d + 1))
    basis = build_basis(total, caps)
    matrices = [SymMatrix(len(basis)) for _ in range(d + 1)]
    for alpha, a_coeff in q.terms():
        for beta, b_coeff in p.terms():
            piece = pair_pencil(alpha, beta, basis)
            weight = a_coeff * b_coeff
            for k in range(d + 1):
                for (i, j), value in piece[k].entries():
                    matrices[k].add(i, j, value * weight)
    return basis, matrices


def quadratic_form_polynomial(matrix, basis):
    """Psi(z) M Psi(z)^T, every entry added as a Fraction."""
    terms = {}
    for (i, j), value in matrix.entries():
        exps = tuple(a + b for a, b in zip(basis.monomials[i], basis.monomials[j]))
        weight = value if i == j else 2 * value
        terms[exps] = terms.get(exps, Fraction(0)) + weight
    return Polynomial(basis.nvars, terms)


def cross_product_polynomial(pencil):
    """Psi(zeta) A(z) Psi(z)^T in (zeta_1..zeta_d, z_1..z_d): row r of
    A(z) Psi(z)^T times zeta^(basis monomial r)."""
    basis = pencil.basis
    rows = pencil_row_action(pencil.matrices, basis)
    terms = {m + e: c for m, row in zip(basis.monomials, rows) for e, c in row.terms()}
    return Polynomial(2 * basis.nvars, terms)


def squares_sum(nvars, squares):
    """sum of w * g^2 over (w, g) in ``squares``."""
    total = Polynomial.zero(nvars)
    for weight, poly in squares:
        total = total + poly * poly * weight
    return total


def identity_residuals(pencil, q, p):
    """(cross, diagonals) of polarize._identity_residuals: the pencil's side
    minus the product's, as polynomials."""
    basis = pencil.basis
    d = basis.nvars
    pad = (0,) * d
    zeta_q = Polynomial(2 * d, {exps + pad: c for exps, c in q.terms()})
    z_p = Polynomial(2 * d, {pad + exps: c for exps, c in p.terms()})
    cross = cross_product_polynomial(pencil) - zeta_q * z_p
    diagonals = [
        quadratic_form_polynomial(pencil.matrices[k], basis)
        - (q * p.diff(k) - p * q.diff(k))
        for k in range(1, d + 1)
    ]
    return cross, diagonals


def realization_report(realization):
    """The report of realize.verify_realization."""
    pencil = realization.pencil
    basis = pencil.basis
    s = realization.s
    cert = realization.certificate
    cross, diagonals = identity_residuals(pencil, realization.q * s, realization.p * s)
    report = {"cross_product": cross.is_zero()}
    for k, diff in enumerate(diagonals, 1):
        report[f"wronskian_diagonal_{k}"] = diff.is_zero()
    report["certificate_squares"] = cert.basis == basis and quadratic_form_polynomial(
        pencil.matrices[1], basis
    ) == squares_sum(basis.nvars, cert.squares)
    for k in realization.psd_axes:
        report[f"axis{k}_psd"] = is_psd(pencil.matrices[k])
    return report
