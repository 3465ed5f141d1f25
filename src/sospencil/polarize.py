"""Symmetric matrix-pencil constructions for polynomial products.

The target objects are affine pencils A(z) = A_0 + z_1 A_1 + ... + z_d A_d
with symmetric rational coefficient matrices, indexed by a monomial basis
Psi, satisfying the cross-product identity

    q(zeta) p(z) = Psi(zeta) A(z) Psi(z)^T        (identity in 2d variables)

and consequently the wronskian diagonal identities

    Psi(z) A_k Psi(z)^T = q dp/dz_k - p dq/dz_k   for every k.

The construction is bottom-up: a chain pencil in abstract slot variables,
specialized to a pencil for a single monomial pair (alpha, beta), summed
bilinearly over the terms of q and p. Everything is exact.

Any two pencils with the same identity differ by a null pencil, one whose
identity has right-hand side zero. ``_identity_system`` writes that
identity as one sparse linear system over the pencil's entries;
``null_pencils`` returns its homogeneous solutions, and
``gramkernel.defect_completion`` solves it with one matrix given.

The identities are checked as integer residuals (``_identity_residuals``):
each side is summed on integer numerators over one denominator, and only a
nonzero residual term becomes a Fraction (``polycore._difference``).

A pair pencil depends only on (alpha, beta, basis), so it is built once and
kept in a bounded memo, a ``functools.lru_cache`` of ``_PAIR_MEMO_SIZE``
(1024) keys. The key is the validated exponent tuples and the basis, which
hashes by value; the value is an immutable tuple of integer numerators over
one denominator. ``product_polarization`` sums those numerators times the
integer numerators of q and p over the lcm of their denominators, and builds
one Fraction per nonzero entry of the result. Callers always get fresh
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import CapacityError, InternalConsistencyError, PreconditionError, StructuralError
from .exactlinalg import SymMatrix, sparse_nullspace
from .polycore import (
    MonomialBasis,
    Polynomial,
    _difference,
    _integer_terms,
    _over,
    _wronskian_numerators,
    check_basis,
)

# Largest basis over which an exact family is built: null_pencils here,
# kernel_basis in gramkernel and sos_certify in soscert. A Gram family has
# about N^2 / 2 pairs, the null-pencil system (d + 1) times as many columns.
GRAM_CAPACITY = 120

# Pair pencils kept by _pair_pencil_entries; one wronskian-batch round of
# the benchmark needs 128.
_PAIR_MEMO_SIZE = 1024


@dataclass(frozen=True)
class ChainPencil:
    """Pencil C(s) = s_1 C_1 + ... + s_{2k+1} C_{2k+1} in slot variables.

    Annihilation shape: C(s) applied to the column (s^{mu_1}, ..., s^{mu_{2k+1}})
    yields (s^nu, 0, ..., 0) with nu the product of the odd slots.
    """

    k: int
    matrices: tuple  # matrices[j] is the coefficient matrix of slot j+1
    mu: tuple  # mu[i] is the exponent vector of mu_{i+1} over the slots
    nu: tuple

    @property
    def size(self):
        return 2 * self.k + 1


def chain_pencil(k):
    """Chain pencil of size 2k+1; the k = 0 pencil is the 1x1 matrix (s_1)."""
    if type(k) is not int or k < 0:
        raise StructuralError("chain size parameter k must be a nonnegative integer")
    size = 2 * k + 1
    matrices = [SymMatrix(size) for _ in range(size)]
    if k == 0:
        matrices[0].set(0, 0, Fraction(1))
    else:
        for i in range(1, size):  # |i - j| = 1, slot index min(i, j), sign by max
            sign = -1 if (i + 1) % 2 else 1
            matrices[i - 1].set(i - 1, i, Fraction(sign, 2))
        matrices[size - 1].set(0, size - 1, Fraction(1, 2))  # corner, |i - j| = 2k

    def slot_product(slots):
        exps = [0] * size
        for s in slots:
            exps[s - 1] = 1
        return tuple(exps)

    mu = [None] * size
    mu[0] = slot_product(range(2, size, 2))  # even slots; empty product for k = 0
    if k:
        mu[1] = slot_product(range(3, size + 1, 2))  # odd slots except the first
    for j in range(3, size + 1):
        step = list(mu[j - 3])
        step[j - 3] += 1  # multiply by slot j-2
        step[j - 2] -= 1  # divide by slot j-1
        if step[j - 2] < 0:
            raise InternalConsistencyError("chain monomial recurrence left the lattice")
        mu[j - 1] = tuple(step)
    nu = slot_product(range(1, size + 1, 2))
    return ChainPencil(k, tuple(matrices), tuple(mu), nu)


@dataclass(frozen=True)
class SymmetricPencil:
    """Affine pencil A_0 + z_1 A_1 + ... + z_d A_d over a monomial basis."""

    basis: MonomialBasis
    matrices: tuple  # length d+1, constant matrix first, all SymMatrix

    def __post_init__(self):
        check_basis(self.basis)
        if len(self.matrices) != self.basis.nvars + 1:
            raise StructuralError(
                f"pencil needs {self.basis.nvars + 1} matrices, got {len(self.matrices)}"
            )
        for m in self.matrices:
            if m.size != len(self.basis):
                raise StructuralError("pencil matrix size does not match the basis")

    @property
    def nvars(self):
        return self.basis.nvars

    def __add__(self, other):
        if not isinstance(other, SymmetricPencil) or other.basis is not self.basis and other.basis != self.basis:
            return NotImplemented
        return SymmetricPencil(
            self.basis, tuple(a + b for a, b in zip(self.matrices, other.matrices))
        )


def pencil_row_action(matrices, basis):
    """Rows of (M_0 + z_1 M_1 + ... + z_d M_d) Psi(z)^T as polynomials."""
    check_basis(basis)
    d = basis.nvars
    rows = [{} for _ in range(len(basis))]
    for k, matrix in enumerate(matrices):
        shift = [0] * d
        if k:
            shift[k - 1] = 1
        for (i, j), value in matrix.entries():
            for r, c in ((i, j), (j, i)) if i != j else ((i, i),):
                exps = tuple(e + s for e, s in zip(basis.monomials[c], shift))
                row = rows[r]
                row[exps] = row[exps] + value if exps in row else value
    return [Polynomial._nonzero(d, terms) for terms in rows]


def quadratic_form_polynomial(matrix, basis):
    """Psi(z) M Psi(z)^T for a single symmetric matrix M."""
    check_basis(basis)
    return _over(basis.nvars, *_form_numerators(matrix, basis.monomials))


def _form_numerators(matrix, monomials):
    """Psi M Psi^T over the listed monomials as (den, pairs), the sides of
    polycore._difference: den is the lcm of M's denominators, and entry
    (i, j) adds its numerator, twice when i != j, at m_i + m_j."""
    entries = matrix.entries()
    den = math.lcm(1, *(v.denominator for _, v in entries))
    sums = {}
    for (i, j), v in entries:
        exps = tuple(map(add, monomials[i], monomials[j]))
        n = v.numerator * (den // v.denominator)
        sums[exps] = sums.get(exps, 0) + (n if i == j else 2 * n)
    return den, sums.items()


def cross_product_polynomial(pencil):
    """Psi(zeta) A(z) Psi(z)^T as a polynomial in (zeta_1..zeta_d, z_1..z_d)."""
    return _over(2 * pencil.basis.nvars, *_cross_numerators(pencil))


def _cross_numerators(pencil):
    """Psi(zeta) A(z) Psi(z)^T as (den, pairs), the sides of
    polycore._difference: den is the lcm of the entries' denominators, and
    entry (i, j) of A_k adds its numerator at zeta^m_i z^(m_j + e_k), and at
    zeta^m_j z^(m_i + e_k) when i != j."""
    monos = pencil.basis.monomials
    den = math.lcm(
        1, *(v.denominator for matrix in pencil.matrices for _, v in matrix.entries())
    )
    sums = {}
    for k, matrix in enumerate(pencil.matrices):
        shifted = monos if k == 0 else [m[: k - 1] + (m[k - 1] + 1,) + m[k:] for m in monos]
        for (i, j), v in matrix.entries():
            n = v.numerator * (den // v.denominator)
            exps = monos[i] + shifted[j]
            sums[exps] = sums.get(exps, 0) + n
            if i != j:
                exps = monos[j] + shifted[i]
                sums[exps] = sums.get(exps, 0) + n
    return den, sums.items()


def _pencil_over(basis, den, entries):
    """Fresh pencil with numerator / den at (i, j) of matrix k for each
    (k, i, j, numerator) in ``entries``: i <= j, numerators nonzero, each
    key once. Each matrix keeps the order of its entries."""
    matrices = [SymMatrix(len(basis)) for _ in range(basis.nvars + 1)]
    for k, i, j, numerator in entries:
        matrices[k]._entries[i, j] = Fraction(numerator, den)
    return SymmetricPencil(basis, tuple(matrices))


def pair_pencil(alpha, beta, basis):
    """Pencil B with B(z) Psi(z)^T = z^beta e_{idx(alpha)} exactly.

    Construction: pad both monomials with an auxiliary variable to degrees
    m and m+1, split off the common factor gamma, instantiate the chain
    pencil on the disjoint remainders, substitute concrete variables into
    slots (descending graded-lex order, repeats with multiplicity, so aux
    powers land on the highest slots of their parity class), merge duplicate
    row monomials keeping the first occurrence, set aux = 1, and embed into
    the full basis.
    """
    check_basis(basis)
    d = basis.nvars
    alpha = tuple(alpha)
    beta = tuple(beta)
    if len(alpha) != d or len(beta) != d:
        raise StructuralError("monomial arity does not match the basis")
    if any(type(e) is not int or e < 0 for e in alpha + beta):
        raise StructuralError("monomial exponents must be nonnegative integers")
    if alpha not in basis:
        raise StructuralError(f"alpha {alpha} is not a member of the basis")
    n, caps = basis.total_cap, basis.var_caps
    if max(sum(alpha), sum(beta)) > n or any(
        max(a, b) > c for a, b, c in zip(alpha, beta, caps)
    ):
        raise PreconditionError("pair degrees exceed the basis caps")

    return _pencil_over(basis, *_pair_pencil_entries(alpha, beta, basis))


@lru_cache(maxsize=_PAIR_MEMO_SIZE)
def _pair_pencil_entries(alpha, beta, basis):
    """pair_pencil as (den, ((k, i, j, numerator), ...)): matrix k holds
    numerator / den at (i, j), i <= j, each matrix's entries in the order
    the construction reaches them. The caller validates the input."""
    d = basis.nvars
    a, b = sum(alpha), sum(beta)
    m = max(a, b - 1)
    aux = d  # 0-based position of the auxiliary variable
    alpha_pad = alpha + (m - a,)
    beta_pad = beta + (m + 1 - b,)
    gamma = tuple(min(x, y) for x, y in zip(alpha_pad, beta_pad))
    m1 = tuple(x - g for x, g in zip(alpha_pad, gamma))
    m2 = tuple(y - g for y, g in zip(beta_pad, gamma))
    k = sum(m1)
    if sum(m2) != k + 1:
        raise InternalConsistencyError("padded degree split is not (k, k+1)")

    chain = chain_pencil(k)
    size = chain.size
    # slot -> hom variable, 0-based slots; hom variables z_1..z_d, aux are
    # indices 0..d, which is their descending graded-lex order
    slot_var = [None] * size
    even_vars = [v for v in range(d + 1) for _ in range(m1[v])]
    odd_vars = [v for v in range(d + 1) for _ in range(m2[v])]
    for slot, var in zip(range(1, size, 2), even_vars):  # slots 2, 4, ... (1-based)
        slot_var[slot] = var
    for slot, var in zip(range(0, size, 2), odd_vars):  # slots 1, 3, ... (1-based)
        slot_var[slot] = var

    def substituted_mu(mu_exps):
        label = list(gamma)
        for slot, mult in enumerate(mu_exps):
            if mult:
                label[slot_var[slot]] += mult
        return tuple(label)

    row_labels = [substituted_mu(mu) for mu in chain.mu]
    rep = {}
    collapse = []
    unique = []
    for label in row_labels:
        if label not in rep:
            rep[label] = len(unique)
            unique.append(label)
        collapse.append(rep[label])

    # collapse the per-variable chain matrices through the duplicate-row map
    merged = [
        [[Fraction(0)] * len(unique) for _ in range(len(unique))] for _ in range(d + 1)
    ]
    for slot in range(size):
        var = slot_var[slot]
        for (i, j), value in chain.matrices[slot].entries():
            pairs = ((i, j), (j, i)) if i != j else ((i, i),)
            for r, c in pairs:
                merged[var][collapse[r]][collapse[c]] += value

    # rows have one total degree, so distinct labels land on distinct positions
    positions = []
    for label in unique:
        inhom = label[:d]
        if inhom not in basis:
            raise InternalConsistencyError(
                f"row monomial {inhom} escaped the basis caps"
            )
        positions.append(basis.index_of(inhom))
    # aux variable set to 1: its matrix joins the constant part
    entries = []
    for var in range(d + 1):
        target = 0 if var == aux else var + 1
        block = merged[var]
        for i in range(len(unique)):
            for j in range(i, len(unique)):
                if block[i][j]:
                    r, c = sorted((positions[i], positions[j]))
                    entries.append((target, r, c, block[i][j]))
    den = math.lcm(*(value.denominator for *_, value in entries))
    return den, tuple(
        (target, r, c, value.numerator * (den // value.denominator))
        for target, r, c, value in entries
    )


def product_polarization(q, p):
    """Pencil A with q(zeta) p(z) = Psi(zeta) A(z) Psi(z)^T exactly.

    The basis is the capped monomial basis with total cap max(deg q, deg p)
    and per-variable caps max(deg_k q, deg_k p). One of q, p may be zero
    (zero pencil); both zero is rejected as degenerate.
    """
    from .polycore import build_basis

    if q.nvars != p.nvars:
        raise StructuralError("polynomials must share the variable count")
    if q.is_zero() and p.is_zero():
        raise StructuralError("degenerate input: q and p are both zero")
    d = q.nvars
    if d == 0:
        raise StructuralError("at least one variable is required")

    def caps_of(*polys):
        total = 0
        per_var = [0] * d
        for poly in polys:
            if poly.is_zero():
                continue
            total = max(total, int(poly.degree()))
            for k in range(d):
                per_var[k] = max(per_var[k], int(poly.degree_in(k + 1)))
        return total, tuple(per_var)

    n, caps = caps_of(q, p)
    basis = build_basis(n, caps)
    # every term of q and p lies within the caps, so no pair needs validation
    q_den, q_terms = _integer_terms(dict(q.terms()))
    p_den, p_terms = _integer_terms(dict(p.terms()))
    pieces = [
        (a * b, _pair_pencil_entries(alpha, beta, basis))
        for alpha, a in q_terms
        for beta, b in p_terms
    ]
    scale = math.lcm(*(den for _, (den, _) in pieces))
    # integer sums in SymMatrix.add's order: a key that cancels leaves, and
    # comes back at the end if a later pair pencil adds to it
    sums = {}
    for weight, (den, entries) in pieces:
        weight *= scale // den
        for k, i, j, numerator in entries:
            key = (k, i, j)
            total = sums.get(key, 0) + weight * numerator
            if total:
                sums[key] = total
            else:
                del sums[key]
    return _pencil_over(
        basis, q_den * p_den * scale, (key + (n,) for key, n in sums.items())
    )


def _identity_system(basis):
    """Coefficient equations of (K_0 + z_1 K_1 + ... + z_d K_d) Psi(z)^T == 0.

    Returns (columns, rows). Column c stands for entry (i, j), i <= j, of
    K_k with columns[c] = (k, i, j): every entry of K_1, then of K_2, ...,
    K_d, and last of K_0, the matrix of the auxiliary variable in the
    homogenized order. Each row is one coefficient z^e of one row of the
    product, as a sparse dict {column: 1}: entry (i, j) of K_k reaches
    z^(m_j + e_k) in row i and z^(m_i + e_k) in row j.
    """
    d = basis.nvars
    N = len(basis)
    columns = [(k, i, j) for k in (*range(1, d + 1), 0) for i in range(N) for j in range(i, N)]
    shifted = [basis.monomials]
    for k in range(d):
        shifted.append([m[:k] + (m[k] + 1,) + m[k + 1:] for m in basis.monomials])
    equations = {}
    for c, (k, i, j) in enumerate(columns):
        equations.setdefault((i, shifted[k][j]), {})[c] = 1
        if i != j:
            equations.setdefault((j, shifted[k][i]), {})[c] = 1
    return columns, list(equations.values())


def _check_capacity(N):
    """Raise CapacityError for a family over more than GRAM_CAPACITY
    basis monomials."""
    if N > GRAM_CAPACITY:
        raise CapacityError(f"Gram basis has {N} monomials, capacity {GRAM_CAPACITY}")


def null_pencils(basis):
    """A basis of the null pencils over ``basis``: the symmetric pencils K
    with (K_0 + z_1 K_1 + ... + z_d K_d) Psi(z)^T == 0, the homogeneous
    solutions of _identity_system, one per free column. Raises
    CapacityError above GRAM_CAPACITY basis monomials."""
    check_basis(basis)
    _check_capacity(len(basis))
    columns, rows = _identity_system(basis)
    pencils = []
    for vector in sparse_nullspace(rows, len(columns)):
        matrices = [SymMatrix(len(basis)) for _ in range(basis.nvars + 1)]
        for c, value in sorted(vector.items()):
            k, i, j = columns[c]
            matrices[k]._entries[i, j] = value
        pencils.append(SymmetricPencil(basis, tuple(matrices)))
    return pencils


def _identity_residuals(pencil, q, p):
    """Residuals of the pencil identities for q(zeta) p(z).

    Returns (cross, diagonals): Psi(zeta) A(z) Psi(z)^T - q(zeta) p(z) in
    (zeta_1..zeta_d, z_1..z_d), and Psi A_k Psi^T - W_k[q, p] for k = 1..d.
    Each identity holds exactly when its residual is zero. Both sides are
    summed on integer numerators (polycore._difference): the pencil's side
    by _cross_numerators and _form_numerators, and the term pair
    a zeta^alpha, b z^beta of q and p subtracts a b at zeta^alpha z^beta.
    """
    d = pencil.basis.nvars
    monos = pencil.basis.monomials
    q_den, q_terms = _integer_terms(q._terms)
    p_den, p_terms = _integer_terms(p._terms)
    product = [(alpha + beta, a * b) for alpha, a in q_terms for beta, b in p_terms]
    cross = _difference(2 * d, _cross_numerators(pencil), (q_den * p_den, product))
    diagonals = [
        _difference(
            d, _form_numerators(pencil.matrices[k], monos), _wronskian_numerators(q, p, k)
        )
        for k in range(1, d + 1)
    ]
    return cross, diagonals


def verify_pencil(pencil, q, p):
    """Exact check of the defining identities; (ok, issues) with issues naming
    the first offending coefficient per failed identity."""
    basis = pencil.basis
    d = basis.nvars
    if q.nvars != d or p.nvars != d:
        raise StructuralError("polynomials must match the pencil's variable count")
    for poly, name in ((q, "q"), (p, "p")):
        if poly.is_zero():
            continue
        if poly.degree() > basis.total_cap or any(
            poly.degree_in(k + 1) > basis.var_caps[k] for k in range(d)
        ):
            raise PreconditionError(f"basis caps do not cover {name}")

    issues = []
    cross, diagonals = _identity_residuals(pencil, q, p)
    if not cross.is_zero():
        exps, coeff = cross.leading_term()
        issues.append(
            "cross-product identity fails at zeta-exponents "
            f"{exps[:d]}, z-exponents {exps[d:]}: residual coefficient {coeff}"
        )
    for k, diff in enumerate(diagonals, 1):
        if not diff.is_zero():
            exps, coeff = diff.leading_term()
            issues.append(
                f"wronskian diagonal identity fails for variable {k} at "
                f"exponents {exps}: residual coefficient {coeff}"
            )
    return not issues, issues
