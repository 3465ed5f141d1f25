"""The kernel space of a monomial basis and its defect completion.

A symmetric matrix S with Psi(z) S Psi(z)^T identically zero redistributes
Gram weight among monomial pairs sharing a product. This module enumerates
a canonical basis of that space (one element per spanning-tree edge of the
per-product elementary-transformation graph, computed on the homogenized
basis so that the auxiliary variable provides the connecting moves) and
extends a single annihilating matrix to a full pencil (S_0, S_1, ..., S_d)
with (S_0 + z_1 S_1 + ... + z_d S_d) Psi(z)^T identically zero.

Each element records the four monomials its edge joins (its corners), and
the completion places every element's block from those corners alone. The
product classes come from _pair_classes, the one pair-class enumeration
(soscert builds its Gram families from it too).

The completion construction is sound but not complete. It completes a defect
over a spanning forest of the moves that avoid the completion axis, the only
moves with a per-element block completion, and fails honestly (with a
precondition error) when the defect lies outside that forest's span.
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
from .polarize import SymmetricPencil, pencil_row_action, quadratic_form_polynomial
from .polycore import basis_key, build_basis, check_basis

# Largest basis over which a Gram family is built: kernel_basis here, and
# sos_certify in soscert. The family has about N^2 / 2 pairs.
GRAM_CAPACITY = 120


@dataclass(frozen=True)
class PairClass:
    """All unordered basis-index pairs whose monomial product is z^beta."""

    beta: tuple
    pairs: tuple  # (i, j) with i <= j


@dataclass(frozen=True)
class KernelElement:
    """One spanning-tree edge of a product class, as an annihilating matrix.

    The edge joins the pair (u, p) to the pair (v, c) of
    ``corners = (u, p, v, c)`` by ``move`` = (r, l), an elementary
    transformation in 1-based homogenized variable positions (the auxiliary
    variable is position d+1) that sends u to v (exponent +1 at r, -1 at l)
    and p to c. The matrix is w E_up - E_vc. Triple kind: (u, p) is a
    squared monomial, w = 2 and the move is normalized to r < l. Quad kind:
    four distinct monomials, w = 1, (u, p) the tree-parent pair.
    """

    matrix: SymMatrix
    beta: tuple
    kind: str
    support: tuple
    move: tuple
    corners: tuple


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


def _spanning_elements(basis, avoid_axis=None):
    """Kernel elements of per-class spanning forests on the homogenized basis.

    Without ``avoid_axis`` every product class is transformation-connected,
    so the forest is one spanning tree per class: a basis of the kernel.
    With ``avoid_axis`` set (1-based variable position in the homogenized
    order), moves touching that variable are skipped, and the result is a
    spanning forest of the axis-avoiding moves.
    """
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
                    if r == l or avoid_axis in (r, l):
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
        reached = set()
        components = 0
        for root in pairs:  # spanning forest, BFS per component
            if root in reached:
                continue
            components += 1
            reached.add(root)
            queue = deque([root])
            while queue:
                node = queue.popleft()
                for neighbor, corners, move in transforms(node):
                    if neighbor in reached:
                        continue
                    reached.add(neighbor)
                    elements.append(_edge_element(corners, move, beta, len(basis)))
                    queue.append(neighbor)
        if components > 1 and avoid_axis is None:
            raise InternalConsistencyError(
                f"product class {prod} is not transformation-connected"
            )
    return elements


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
        corners=(u, p, v, c),
    )


def _check_capacity(N):
    """Raise CapacityError for a Gram family over more than GRAM_CAPACITY
    basis monomials."""
    if N > GRAM_CAPACITY:
        raise CapacityError(f"Gram basis has {N} monomials, capacity {GRAM_CAPACITY}")


def kernel_basis(basis):
    """Canonical basis of {S symmetric : Psi S Psi^T = 0}, one element per
    spanning-tree edge; count per product class is (number of pairs) - 1.
    Raises CapacityError above GRAM_CAPACITY basis monomials."""
    check_basis(basis)
    _check_capacity(len(basis))
    return _spanning_elements(basis, avoid_axis=None)


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


class _SpanError(Exception):
    """The target matrix is not in the span of the supplied elements."""


def _decompose_over_elements(S, elements, basis):
    """Unique coefficients of S over per-class kernel elements."""
    by_beta = {}
    for idx, el in enumerate(elements):
        by_beta.setdefault(el.beta, []).append(idx)
    target_by_beta = {}
    for (i, j), value in S.entries():
        beta = tuple(a + b for a, b in zip(basis.monomials[i], basis.monomials[j]))
        target_by_beta.setdefault(beta, {})[(i, j)] = value

    lam = [Fraction(0)] * len(elements)
    for beta in sorted(set(by_beta) | set(target_by_beta), key=basis_key):
        indices = by_beta.get(beta, [])
        target = target_by_beta.get(beta, {})
        if not indices:
            if any(target.values()):
                raise _SpanError(
                    f"weight outside the kernel span at product {beta}"
                )
            continue
        rows = {pair: {} for pair in target}
        for col, idx in enumerate(indices):
            for pair, value in elements[idx].matrix.entries():
                rows.setdefault(pair, {})[col] = value
        pairs = sorted(rows)
        solution = solve_sparse(
            [rows[pair] for pair in pairs],
            [target.get(pair, Fraction(0)) for pair in pairs],
            len(indices),
        )
        if solution is None:
            raise _SpanError(
                f"not decomposable over the kernel elements at product {beta}"
            )
        particular, homogeneous = solution
        if homogeneous:
            raise InternalConsistencyError(
                "kernel elements of a single product class are dependent"
            )
        for idx, value in zip(indices, particular):
            lam[idx] = value
    return lam


def defect_completion(S_last, basis, axis):
    """Extend one annihilating matrix to a pencil annihilating Psi.

    Returns (S_0, ..., S_d) with S_axis = S_last and
    (S_0 + z_1 S_1 + ... + z_d S_d) Psi(z)^T = 0 exactly. Preconditions: S_last
    annihilates Psi as a quadratic form, and every row whose monomial attains
    the maximal axis degree present in the basis is zero (equivalently,
    S_last kills the top axis-derivative of Psi^T).
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

    matrices = [SymMatrix(N) for _ in range(d + 1)]
    matrices[axis] = S_last.copy()
    pencil = SymmetricPencil(basis, tuple(matrices))
    if S_last.is_zero():
        return pencil

    sub_caps = list(basis.var_caps)
    sub_caps[axis - 1] = attained - 1
    sub_basis = build_basis(basis.total_cap, tuple(sub_caps))
    to_full = [basis.index_of(m) for m in sub_basis.monomials]

    # The defect stays off the top rows, so it lives on the sub-basis. Only
    # transformations that avoid the axis variable admit the block
    # completion; defects outside their span have no completion at all
    # (verified against the exact solution space of the pencil identity).
    to_sub = {full: sub for sub, full in enumerate(to_full)}
    S_sub = S_last.reindexed(to_sub, len(sub_basis))
    elements = _spanning_elements(sub_basis, avoid_axis=axis)
    try:
        lam = _decompose_over_elements(S_sub, elements, sub_basis)
    except _SpanError as exc:
        raise PreconditionError(
            "the defect admits no pencil completion over this basis: "
            f"{exc} (only kernel weight on transformations avoiding variable "
            f"z{axis} is completable)"
        ) from None

    # Each element's block completion, from its corners (u, p, v, c) and
    # move (r, l): the axis monomials q2 = u + e_axis - e_l and
    # q1 = p + e_axis - e_r pair with the corners in S_l and S_r, where the
    # auxiliary variable's matrix is S_0. A pair entry folded onto the
    # diagonal doubles up.
    hom = [_hom(m, basis.total_cap) for m in basis.monomials]
    hom_index = {h: i for i, h in enumerate(hom)}
    for value, el in zip(lam, elements):
        if not value:
            continue
        r, l = el.move
        u, p, v, c = (to_full[i] for i in el.corners)
        q2 = hom_index[_shift(hom[u], axis, l)]
        q1 = hom_index[_shift(hom[p], axis, r)]
        for var, a, b, weight in (
            (l, q2, p, -value),
            (l, q1, v, value),
            (r, q2, c, value),
            (r, q1, u, -value),
        ):
            matrices[var % (d + 1)].add(a, b, 2 * weight if a == b else weight)

    pencil = SymmetricPencil(basis, tuple(matrices))
    for i, row in enumerate(pencil_row_action(pencil.matrices, basis)):
        if not row.is_zero():
            raise InternalConsistencyError(
                f"annihilator completion identity fails at row {i}: {row}"
            )
    return pencil
