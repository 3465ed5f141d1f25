"""The kernel space of a monomial basis and its defect completion.

A symmetric matrix S with Psi(z) S Psi(z)^T identically zero redistributes
Gram weight among monomial pairs sharing a product. This module enumerates
a canonical basis of that space (one element per spanning-tree edge of the
per-product elementary-transformation graph, computed on the homogenized
basis so that the auxiliary variable provides the connecting moves) and
extends a single annihilating matrix to a full pencil (S_0, S_1, ..., S_d)
with (S_0 + z_1 S_1 + ... + z_d S_d) Psi(z)^T identically zero. The
product classes come from _pair_classes, the one pair-class enumeration
(soscert builds its Gram families from it too).

The completion is the paper's construction, kept outside the realization
pipeline: one exact solve of the pencil identity's coefficient equations
(polarize._identity_system) with the given matrix on the right-hand side.
It is complete: it finds a completion whenever one exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapacityError,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from .exactlinalg import SymMatrix, solve_sparse, sparse_rank
from .polarize import (
    GRAM_CAPACITY,
    SymmetricPencil,
    _check_capacity,
    _identity_system,
    quadratic_form_polynomial,
)
from .polycore import basis_key, check_basis


@dataclass(frozen=True)
class PairClass:
    """All unordered basis-index pairs whose monomial product is z^beta."""

    beta: tuple
    pairs: tuple  # (i, j) with i <= j


@dataclass(frozen=True)
class KernelElement:
    """One spanning-tree edge of a product class, as an annihilating matrix.

    The edge joins the pair (u, p) to the pair (v, c) by ``move`` = (r, l),
    an elementary transformation in 1-based homogenized variable positions
    (the auxiliary variable is position d+1) that sends u to v (exponent +1
    at r, -1 at l) and p to c. The matrix is w E_up - E_vc. Triple kind: (u, p) is a
    squared monomial, w = 2 and the move is normalized to r < l. Quad kind:
    four distinct monomials, w = 1, (u, p) the tree-parent pair.
    """

    matrix: SymMatrix
    beta: tuple
    kind: str
    support: tuple
    move: tuple


def _pair_classes(monos):
    """Product exponents -> the pairs (i, j), i <= j, of monos multiplying to
    them, in lexicographic order."""
    classes = {}
    for i in range(len(monos)):
        for j in range(i, len(monos)):
            prod = tuple(a + b for a, b in zip(monos[i], monos[j]))
            classes.setdefault(prod, []).append((i, j))
    return classes


def pairs_for_beta(beta, basis):
    """Enumerate the unordered pairs of basis monomials multiplying to z^beta:
    (i, j) for each index i whose complement beta - alpha_i is in the basis
    at an index j >= i, in lexicographic order."""
    check_basis(basis)
    beta = tuple(beta)
    if len(beta) != basis.nvars or any(type(e) is not int or e < 0 for e in beta):
        raise StructuralError(f"bad product exponents {beta}")
    pairs = []
    for i, alpha in enumerate(basis.monomials):
        complement = tuple(b - a for a, b in zip(alpha, beta))
        if complement in basis and (j := basis.index_of(complement)) >= i:
            pairs.append((i, j))
    return PairClass(beta, tuple(pairs))


def elementary_transform(exps, r, l, caps):
    """Shift one exponent unit from variable l to variable r (1-based)."""
    exps = tuple(exps)
    caps = tuple(caps)
    if not (1 <= r <= len(exps) and 1 <= l <= len(exps)) or r == l:
        raise StructuralError(f"bad transformation variables ({r}, {l})")
    if exps[r - 1] >= caps[r - 1] or exps[l - 1] == 0:
        raise PreconditionError(
            f"transformation ({r} <- {l}) is inapplicable to {exps} under caps {caps}"
        )
    out = list(exps)
    out[r - 1] += 1
    out[l - 1] -= 1
    return tuple(out)


def _hom(exps, n):
    return tuple(exps) + (n - sum(exps),)


def _shift(exps, inc, dec):
    """exps + e_inc - e_dec with 1-based positions, or None off the lattice."""
    out = list(exps)
    out[inc - 1] += 1
    out[dec - 1] -= 1
    if out[dec - 1] < 0:
        return None
    return tuple(out)


def _edge_element(corners, move, beta, N):
    """The element of the BFS step from pair (u, p) to pair (v, c)."""
    u, p, v, c = corners
    r, l = move
    if v == c:  # the squared pair goes first: walk the step backwards
        u, p, v, c, r, l = v, c, u, p, l, r
    if u == p and r > l:  # normalize to r < l: the opposite move swaps v and c
        v, c, r, l = c, v, l, r
    matrix = SymMatrix(N)
    matrix.set(u, p, Fraction(2 if u == p else 1))
    matrix.set(v, c, Fraction(-1))
    return KernelElement(
        matrix=matrix,
        beta=beta,
        kind="triple" if u == p else "quad",
        support=tuple(sorted({u, p, v, c})),
        move=(r, l),
    )


def kernel_basis(basis):
    """Canonical basis of {S symmetric : Psi S Psi^T = 0}, one element per
    spanning-tree edge; count per product class is (number of pairs) - 1.
    Raises CapacityError above GRAM_CAPACITY basis monomials.

    The trees are built per product class on the homogenized basis, where
    every class is transformation-connected: one BFS from the class's
    first pair reaches all of it.
    """
    check_basis(basis)
    _check_capacity(len(basis))
    d = basis.nvars
    n = basis.total_cap
    hom = [_hom(m, n) for m in basis.monomials]
    hom_index = {h: i for i, h in enumerate(hom)}
    nhom = d + 1
    classes = _pair_classes(hom)

    def transforms(pair):
        i, j = pair
        members = ((i, j),) if i == j else ((i, j), (j, i))
        for u_idx, other_idx in members:
            u, other = hom[u_idx], hom[other_idx]
            for l in range(1, nhom + 1):
                if u[l - 1] == 0:
                    continue
                for r in range(1, nhom + 1):
                    if r == l:
                        continue
                    u2 = _shift(u, r, l)
                    other2 = _shift(other, l, r)
                    if (
                        u2 is None
                        or other2 is None
                        or u2 not in hom_index
                        or other2 not in hom_index
                    ):
                        continue
                    v, c = hom_index[u2], hom_index[other2]
                    neighbor = (min(v, c), max(v, c))
                    if neighbor == pair:
                        continue
                    yield neighbor, (u_idx, other_idx, v, c), (r, l)

    elements = []
    for prod in sorted(classes, key=basis_key):
        pairs = classes[prod]
        if len(pairs) < 2:
            continue
        beta = prod[:d]
        reached = {pairs[0]}
        queue = deque(reached)
        while queue:
            node = queue.popleft()
            for neighbor, corners, move in transforms(node):
                if neighbor in reached:
                    continue
                reached.add(neighbor)
                elements.append(_edge_element(corners, move, beta, len(basis)))
                queue.append(neighbor)
        if len(reached) < len(pairs):
            raise InternalConsistencyError(
                f"product class {prod} is not transformation-connected"
            )
    return elements


def kernel_dimension_oracle(basis):
    """Nullity of the direct coefficient-matching system, via independent
    sparse Gaussian elimination on the inhomogeneous basis."""
    N = len(basis)
    if N > 60:
        raise CapacityError(f"oracle limited to 60 basis monomials, got {N}")
    column = {}
    for i in range(N):
        for j in range(i, N):
            column[(i, j)] = len(column)
    rows = {}
    for (i, j), col in column.items():
        prod = tuple(a + b for a, b in zip(basis.monomials[i], basis.monomials[j]))
        weight = Fraction(1) if i == j else Fraction(2)
        rows.setdefault(prod, {})[col] = weight
    return len(column) - sparse_rank(list(rows.values()))


def defect_completion(S_last, basis, axis):
    """Extend one annihilating matrix to a pencil annihilating Psi.

    Returns (S_0, ..., S_d) with S_axis = S_last and
    (S_0 + z_1 S_1 + ... + z_d S_d) Psi(z)^T = 0 exactly: the coefficient
    equations of that identity (polarize._identity_system) with S_axis
    moved to the right-hand side, solved once; the particular solution is
    zero at every free column. A completion exists only when S_last
    annihilates Psi as a quadratic form and vanishes on every row whose
    monomial attains the basis's top axis degree; PreconditionError when
    none exists.
    """
    check_basis(basis)
    d = basis.nvars
    N = len(basis)
    if not isinstance(S_last, SymMatrix) or S_last.size != N:
        raise StructuralError("defect matrix size does not match the basis")
    if not 1 <= axis <= d:
        raise StructuralError(f"axis {axis} out of range 1..{d}")

    residual = quadratic_form_polynomial(S_last, basis)
    if not residual.is_zero():
        raise PreconditionError(
            "gram annihilation hypothesis fails: Psi S Psi^T has leading term "
            f"{residual.leading_term()}"
        )
    attained = max(m[axis - 1] for m in basis.monomials)
    top = {i for i, m in enumerate(basis.monomials) if m[axis - 1] == attained}
    for (i, j), value in S_last.entries():
        if value and (i in top or j in top):
            raise PreconditionError(
                "derivative annihilation hypothesis fails: the defect touches "
                f"monomial pair ({basis.monomials[i]}, {basis.monomials[j]}) at the "
                f"top axis degree {attained}"
            )

    columns, rows = _identity_system(basis)
    unknown = {c: n for n, c in enumerate(c for c, (k, _, _) in enumerate(columns) if k != axis)}
    system, rhs = [], []
    for row in rows:
        system.append({unknown[c]: x for c, x in row.items() if c in unknown})
        known = (x * S_last.get(*columns[c][1:]) for c, x in row.items() if c not in unknown)
        rhs.append(-sum(known, Fraction(0)))
    solution = solve_sparse(system, rhs, len(unknown))
    if solution is None:
        raise PreconditionError("the defect admits no pencil completion over this basis")
    matrices = [SymMatrix(N) for _ in range(d + 1)]
    matrices[axis] = S_last.copy()
    for c, value in zip(unknown, solution[0]):
        if value:
            k, i, j = columns[c]
            matrices[k].set(i, j, value)
    return SymmetricPencil(basis, tuple(matrices))
