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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError, PreconditionError, StructuralError
from .exactlinalg import SymMatrix
from .polycore import MonomialBasis, Polynomial, wronskian


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
    if not isinstance(k, int) or k < 0:
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
    d = basis.nvars
    rows = [{} for _ in range(len(basis))]
    for k, matrix in enumerate(matrices):
        shift = [0] * d
        if k:
            shift[k - 1] = 1
        for (i, j), value in matrix.entries():
            for r, c in ((i, j), (j, i)) if i != j else ((i, i),):
                exps = tuple(e + s for e, s in zip(basis.monomials[c], shift))
                rows[r][exps] = rows[r].get(exps, Fraction(0)) + value
    return [Polynomial(d, terms) for terms in rows]


def quadratic_form_polynomial(matrix, basis):
    """Psi(z) M Psi(z)^T for a single symmetric matrix M."""
    d = basis.nvars
    terms = {}
    for (i, j), value in matrix.entries():
        exps = tuple(a + b for a, b in zip(basis.monomials[i], basis.monomials[j]))
        weight = value if i == j else 2 * value
        terms[exps] = terms.get(exps, Fraction(0)) + weight
    return Polynomial(d, terms)


def cross_product_polynomial(pencil):
    """Psi(zeta) A(z) Psi(z)^T as a polynomial in (zeta_1..zeta_d, z_1..z_d)."""
    basis = pencil.basis
    d = basis.nvars
    terms = {}
    for k, matrix in enumerate(pencil.matrices):
        shift = [0] * d
        if k:
            shift[k - 1] = 1
        for (i, j), value in matrix.entries():
            for r, c in ((i, j), (j, i)) if i != j else ((i, i),):
                exps = basis.monomials[r] + tuple(
                    e + s for e, s in zip(basis.monomials[c], shift)
                )
                terms[exps] = terms.get(exps, Fraction(0)) + value
    return Polynomial(2 * d, terms)


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
    d = basis.nvars
    alpha = tuple(alpha)
    beta = tuple(beta)
    if len(alpha) != d or len(beta) != d:
        raise StructuralError("monomial arity does not match the basis")
    if alpha not in basis:
        raise StructuralError(f"alpha {alpha} is not a member of the basis")
    n, caps = basis.total_cap, basis.var_caps
    if max(sum(alpha), sum(beta)) > n or any(
        max(a, b) > c for a, b, c in zip(alpha, beta, caps)
    ):
        raise PreconditionError("pair degrees exceed the basis caps")

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

    # aux variable set to 1: its matrix joins the constant part
    N = len(basis)
    out = [SymMatrix(N) for _ in range(d + 1)]
    positions = []
    for label in unique:
        inhom = label[:d]
        if inhom not in basis:
            raise InternalConsistencyError(
                f"row monomial {inhom} escaped the basis caps"
            )
        positions.append(basis.index_of(inhom))
    for var in range(d + 1):
        target = out[0] if var == aux else out[var + 1]
        block = merged[var]
        for i in range(len(unique)):
            for j in range(i, len(unique)):
                if block[i][j]:
                    target.add(positions[i], positions[j], block[i][j])
    return SymmetricPencil(basis, tuple(out))


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
    matrices = [SymMatrix(len(basis)) for _ in range(d + 1)]
    for alpha, a_coeff in q.terms():
        for beta, b_coeff in p.terms():
            piece = pair_pencil(alpha, beta, basis)
            weight = a_coeff * b_coeff
            for k in range(d + 1):
                for (i, j), value in piece.matrices[k].entries():
                    matrices[k].add(i, j, value * weight)
    return SymmetricPencil(basis, tuple(matrices))


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
    cross = cross_product_polynomial(pencil)
    zeta_q = Polynomial(
        2 * d, {exps + (0,) * d: c for exps, c in q.terms()}
    )
    z_p = Polynomial(2 * d, {(0,) * d + exps: c for exps, c in p.terms()})
    diff = cross - zeta_q * z_p
    if not diff.is_zero():
        exps, coeff = diff.leading_term()
        issues.append(
            "cross-product identity fails at zeta-exponents "
            f"{exps[:d]}, z-exponents {exps[d:]}: residual coefficient {coeff}"
        )
    for k in range(1, d + 1):
        diff_k = quadratic_form_polynomial(pencil.matrices[k], basis) - wronskian(
            q, p, k
        )
        if not diff_k.is_zero():
            exps, coeff = diff_k.leading_term()
            issues.append(
                f"wronskian diagonal identity fails for variable {k} at "
                f"exponents {exps}: residual coefficient {coeff}"
            )
    return not issues, issues
