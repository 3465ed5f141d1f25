"""Sum-of-squares certification over the affine Gram-matrix family.

A polynomial F is SOS over a monomial basis Psi exactly when some matrix in
the affine family A(lam) = A0 + sum_i lam_i S_i is positive semidefinite,
where A0 is any particular Gram matrix of F and the S_i span the kernel
space (Psi S Psi^T = 0). Floating point only proposes points; acceptance is
always an exact rational LDL^T with complete diagonal pivoting.

Before any numerics, monomials whose squared product class pins the
corresponding diagonal entry to zero are eliminated iteratively (a zero
diagonal in a PSD matrix forces its whole row to vanish); a diagonal pinned
to a negative value is already an exact dual witness of infeasibility. One
chain, _solve_family, then searches the family: it imposes any known exact
zeros v (A(lam) v = 0, a sparse integer system), solves, rounds and lifts.
When the optimum lands on a singular face that rounding does not resolve,
the face step (partial facial reduction, Permenter-Parrilo, Math. Prog.
171, 2018) feeds the rationalized near-kernel vectors of the optimum to
that chain as zeros. Only when that finds nothing does the vertex hunt run:
it rounds extreme points of the PSD slice, which also reaches faces that
have no rational description.

The search also uses F's sign symmetries (Gatermann-Parrilo, J. Pure Appl.
Algebra 192, 2004; Lofberg, IEEE TAC 54, 2009). Flipping the signs of a set
s of variables fixes F exactly when s . beta is even for every exponent
beta of F, and the average of a PSD Gram matrix of F over those flips is
again one. That average vanishes on every product class beta whose parity
beta mod 2 lies outside the GF(2) span of the parities of F's terms, since
some flip changes its sign. So such classes are dropped (_symmetric_classes)
without losing any certificate. Every matrix of the family is then
block-diagonal up to a permutation, with one block per set of basis
monomials whose parities differ by an element of that span, and the
exact PSD test runs per block.

Every numeric solve of a family with kernel directions goes through one
deterministic numpy primal-dual interior point method (_ipm), which factors
X and Z together by stacked LAPACK calls. Its six LAPACK calls per
iteration go straight to the gufuncs behind numpy.linalg: at the sizes
most solves have (N from 3 to 18 on the benchmark's inputs) numpy.linalg's
per-call wrapper costs more than LAPACK itself. numpy.linalg's error
handling (_lapack_errors) is entered once per solve, around the whole
loop, since entering it costs as much as a small call; a LAPACK failure
or an invalid value in an iteration ends the solve at its best iterate.
A family with no directions needs no search: its max-min-eigenvalue
problem is solved by one eigendecomposition per connected block of A0
(_least_eigenpair).
Infeasibility is reported as numeric dual evidence (a witness W >= 0 with
trace 1, orthogonal to the kernel directions, making <W, A0> negative),
never as a proof, and only when the solve converged and the witness passes
the EVIDENCE_TOL gate.

Every rounding follows one schedule, _DENOMINATOR_BOUNDS = (10, 100,
10**4): a numeric point lam, and the face step's near-kernel vectors
alike, are rounded to Fraction(x).limit_denominator(b) for each bound b in
turn, all bounds from one continued-fraction expansion of each value
(_roundings), and each rounding is checked exactly (Peyrl-Parrilo, Theor.
Comput. Sci. 409, 2008). A bound that gives the same rounding as the last
one is skipped. Each rounded point A0 + sum lam_i S_i is summed on integer
numerators over one common denominator (_affine_numerators), and the exact
PSD test reads those numerators, so a failed rounding builds no Fraction.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from .exactlinalg import (
    SymMatrix,
    _blocks,
    _is_psd_entries,
    is_psd,
    psd_factor,
    rref,
    solve_sparse,
)
from .gramkernel import _pair_classes
from .polarize import GRAM_CAPACITY, _check_capacity, _form_numerators
from .polycore import (
    MonomialBasis,
    Polynomial,
    _difference,
    _integer_terms,
    _squares_numerators,
    basis_key,
    build_basis,
)

ARTIN_MAX_POWER = 3

# Numeric dual evidence is reported only when the solver converged, the
# margin is positive and every dual residual is at most EVIDENCE_TOL.
EVIDENCE_TOL = 1e-8

_INFEAS_TOL = 1e-7
_IPM_TOL = 1e-10
_IPM_MAX_ITERS = 100
_IPM_STALL = 5
_STEP_FRACTION = 0.98
_SCHUR_BLOCK = 1 << 20  # entries of the products X F_l Zi held at once
_HUNT_SLACK = 1e-6
# the one rounding schedule, for lam and for the face step's vectors
_DENOMINATOR_BOUNDS = (10, 100, 10**4)
# why a search that came near feasibility is undecided
_NO_EXACT_ROUNDING = "numeric search found a near-feasible point but no exact rounding succeeded"

# The gufuncs behind np.linalg.cholesky, inv, eigvalsh and solve (1-D right
# side), called as those functions call them; see _lapack_errors.
_cholesky = _umath_linalg.cholesky_lo
_inv = _umath_linalg.inv
_eigvalsh = _umath_linalg.eigvalsh_lo
_solve1 = _umath_linalg.solve1


@dataclass(frozen=True)
class SosCertificate:
    """Exact SOS witness: PSD Gram matrix with its pivoted LDL^T.

    gram[perm[i]][perm[j]] == (L diag(D) L^T)[i][j] with D >= 0, and
    F == sum of weight * square**2 over ``squares`` exactly.
    """

    basis: MonomialBasis
    gram: SymMatrix
    perm: tuple
    L: tuple
    D: tuple
    squares: tuple


@dataclass(frozen=True)
class InfeasibilityEvidence:
    """Numeric dual witness that the Gram family misses the PSD cone.

    W (dual_matrix) satisfies W >= 0, tr W = 1, <W, S_i> ~ 0 and
    <W, A0> = -margin; residuals quantify how well W meets those
    constraints, each at most EVIDENCE_TOL. Not a proof. When no witness
    passes that gate, or the outcome is structural (odd degree) or
    inconclusive, dual_matrix and margin are None and reason says why.
    """

    dual_matrix: tuple | None = None
    margin: float | None = None
    residuals: dict | None = None
    reason: str | None = None


def _diagonal_reduction(F, monos, classes):
    """Delete monomials whose squared class pins the diagonal entry.

    If the only surviving pair in the product class of 2*alpha (classes as
    built by _symmetric_classes over monos, which keeps every class 2*alpha)
    is (alpha, alpha), the diagonal entry equals the coefficient of
    z^(2 alpha) in every Gram matrix: zero forces the whole row of a PSD
    matrix to vanish (monomial deleted), negative is an exact infeasibility.
    Returns (alive_indices, forced) with forced = (index,
    negative_coefficient) or None.
    """
    coeff = dict(F.terms())
    alive = set(range(len(monos)))
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            double = tuple(2 * e for e in monos[i])
            if any(
                pair != (i, i) and alive.issuperset(pair) for pair in classes[double]
            ):
                continue
            pinned = coeff.get(double, Fraction(0))
            if pinned == 0:
                alive.remove(i)
                changed = True
            elif pinned < 0:
                return sorted(alive), (i, pinned)
    return sorted(alive), None


def _parity(exps):
    """The exponents mod 2, as the bits of an int."""
    return sum(1 << k for k, e in enumerate(exps) if e % 2)


def _symmetric_classes(F, monos):
    """The product classes over monos that F's sign symmetries leave nonzero.

    A class beta is kept when beta mod 2 lies in the GF(2) span of the
    exponent parities of F's terms (see the module docstring). The span is
    an xor basis keyed by leading bit. Every class holding a term of F, and
    every squared class 2 alpha, is kept; when the span is everything, as
    for the Herglotz Wronskians, no sign flip fixes F and every class is.
    """
    span = {}

    def residue(v):
        while v and v.bit_length() in span:
            v ^= span[v.bit_length()]
        return v

    for beta in F.support():
        if len(span) == F.nvars:
            break
        v = residue(_parity(beta))
        if v:
            span[v.bit_length()] = v
    classes = _pair_classes(monos)
    if len(span) == F.nvars:
        return classes
    parities = [_parity(alpha) for alpha in monos]
    return {
        beta: pairs
        for beta, pairs in classes.items()
        if not residue(parities[pairs[0][0]] ^ parities[pairs[0][1]])
    }


def _alive_classes(classes, alive):
    """The classes restricted to the pairs with both ends in alive (an
    increasing index list), reindexed to positions in alive; classes left
    with no pair are dropped. Over the monomials at alive, this is what
    _symmetric_classes builds, pair order included."""
    position = {i: k for k, i in enumerate(alive)}
    out = {}
    for beta, pairs in classes.items():
        kept = [
            (position[i], position[j])
            for i, j in pairs
            if i in position and j in position
        ]
        if kept:
            out[beta] = kept
    return out


def _gram_over(F, monos, classes):
    """Particular Gram matrix over an arbitrary monomial list.

    Returns (A0, missing) where missing lists coefficients of F with no
    available pair.
    """
    A0 = SymMatrix(len(monos))
    missing = []
    for beta, coeff in F.terms():
        pairs = classes.get(beta)
        if not pairs:
            missing.append(beta)
            continue
        squared = [pair for pair in pairs if pair[0] == pair[1]]
        if squared:
            i, _ = squared[0]
            A0.add(i, i, coeff)
        else:
            share = coeff / (2 * len(pairs))
            for i, j in pairs:
                A0.add(i, j, share)
    return A0, missing


def _star_kernel(classes, size):
    """Sparse basis of the kernel space over an arbitrary monomial list.

    Each product class contributes one balance equation, so its solution
    space is spanned by two-pair elements anchoring every pair to the
    class's first one (diagonal pairs weigh 1, off-diagonal 2).
    """
    mats = []
    for prod in sorted(classes, key=basis_key):
        pairs = sorted(classes[prod])
        if len(pairs) < 2:
            continue
        anchor = pairs[0]
        anchor_weight = 1 if anchor[0] == anchor[1] else 2
        for pair in pairs[1:]:
            weight = 1 if pair[0] == pair[1] else 2
            g = math.gcd(anchor_weight, weight)
            S = SymMatrix(size)
            S.set(anchor[0], anchor[1], Fraction(weight, g))
            S.set(pair[0], pair[1], Fraction(-anchor_weight, g))
            mats.append(S)
    return mats


def _represents(F, monomials, gram):
    """Whether Psi gram Psi^T == F over the listed monomials, as an integer
    residual (polycore._difference)."""
    residual = _difference(
        F.nvars, _form_numerators(gram, monomials), _integer_terms(F._terms)
    )
    return residual.is_zero()


def _certificate_from_gram(F, basis, gram):
    """Exact LDL^T acceptance; None when gram is not PSD.

    Both identities, Psi gram Psi^T == F and sum of w g^2 == F over the
    squares read off the factors, are checked as integer residuals.
    """
    if not _represents(F, basis.monomials, gram):
        raise InternalConsistencyError("candidate Gram matrix does not represent F")
    factored = psd_factor(gram)
    if factored is None:
        return None
    perm, L, D = factored
    monos = basis.monomials
    squares = []
    for i, weight in enumerate(D):
        if not weight:
            continue
        column = {monos[perm[r]]: L[r][i] for r in range(len(monos)) if L[r][i]}
        squares.append((weight, Polynomial._trusted(basis.nvars, column)))
    residual = _difference(
        F.nvars, _squares_numerators(squares), _integer_terms(F._terms)
    )
    if not residual.is_zero():
        raise InternalConsistencyError("weighted squares do not reconstruct F")
    return SosCertificate(
        basis=basis,
        gram=gram,
        perm=tuple(perm),
        L=tuple(tuple(row) for row in L),
        D=tuple(D),
        squares=tuple(squares),
    )


def _to_array(sym, size):
    out = np.zeros((size, size))
    for (i, j), value in sym.entries():
        out[i, j] = out[j, i] = float(value)
    return out


def _affine_numerators(A0, kernel_mats, lam):
    """(sums, den) with A0 + sum lam_i S_i = sums / den entrywise.

    sums maps (i, j), i <= j, to a nonzero int, and den is the lcm of the
    denominators of A0's entries and of each lam_i times its S_i's. The
    terms with lam_i = 0 are skipped. The sums run in SymMatrix.add's
    order: a key that cancels leaves, and comes back at the end if a later
    term adds to it.
    """
    terms = [(x, S.entries()) for x, S in zip(lam, kernel_mats) if x]
    den = math.lcm(
        1,
        *(v.denominator for _, v in A0.entries()),
        *(x.denominator * v.denominator for x, entries in terms for _, v in entries),
    )
    sums = {key: v.numerator * (den // v.denominator) for key, v in A0.entries()}
    for x, entries in terms:
        xn, xd = x.numerator, x.denominator
        for key, v in entries:
            total = sums.get(key, 0) + xn * v.numerator * (den // (xd * v.denominator))
            if total:
                sums[key] = total
            else:
                del sums[key]
    return sums, den


def _affine_point(A0, kernel_mats, lam):
    """A0 + sum lam_i S_i, one Fraction per nonzero entry (_affine_numerators)."""
    sums, den = _affine_numerators(A0, kernel_mats, lam)
    out = SymMatrix(A0.size)
    out._entries = {key: Fraction(n, den) for key, n in sums.items()}
    return out


def _roundings(x, bounds):
    """[Fraction(x).limit_denominator(b) for b in bounds], bounds increasing,
    from one continued-fraction expansion of x.

    This is limit_denominator's walk, resumed from bound to bound: it stops
    before the first convergent p/q with q above the bound, and the answer
    is the closer of the last convergent and the largest semiconvergent
    within the bound, the convergent on a tie.
    """
    num, den = x.as_integer_ratio()
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    for bound in bounds:
        if den <= bound:
            out.append(Fraction(num, den))
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        if 2 * d * (q0 + k * q1) <= den:
            out.append(Fraction(p1, q1))
        else:
            out.append(Fraction(p0 + k * p1, q0 + k * q1))
    return out


def _rounded(values, bounds):
    """The lists [Fraction(x).limit_denominator(b) for x in values] for b
    in bounds, in order, each value expanded once (_roundings). A list
    equal to the previous bound's is left out: its test would repeat."""
    columns = [_roundings(x, bounds) for x in values]
    previous = None
    for k in range(len(bounds)):
        rounded = [column[k] for column in columns]
        if rounded != previous:
            yield rounded
        previous = rounded


# -- numeric stage: one primal-dual interior point solver ---------------------


class _Family:
    """Sparse symmetric directions F_k for the interior point solver.

    F_k = sum over its entries e = (p, q, v) of v (E_pq + E_qp), with p <= q;
    a diagonal entry stores half its matrix value so that one formula covers
    both cases. A direction may have any number of entries, none included:
    Gram-kernel elements have one or two, the identity direction has N.

    The scatter that makes each Schur block's directions dense is built
    once per family, by its first schur call, so a family that is only
    combined (the face step's) never builds it. schur's results are those
    of scattering afresh on every call, bit for bit.
    """

    def __init__(self, mats, size, identity=None):
        rows, cols, vals, starts = [], [], [], []
        for S in mats:
            starts.append(len(vals))
            for (i, j), value in sorted(S.entries()):
                rows.append(i)
                cols.append(j)
                vals.append(float(value) / 2 if i == j else float(value))
        if identity is not None:  # one more direction: identity * I
            starts.append(len(vals))
            rows.extend(range(size))
            cols.extend(range(size))
            vals.extend([identity / 2] * size)
        self.size = size
        self.count = len(starts)
        rows = np.array(rows, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        self.vals = np.array(vals)
        self.starts = np.array(starts, dtype=np.intp)
        self.ends = np.append(self.starts[1:], len(vals))
        lengths = self.ends - self.starts
        self.owner = np.repeat(np.arange(self.count), lengths)
        # reduceat repeats an element for a zero-length segment, so it only
        # sees the directions that have entries
        self.nonempty = np.flatnonzero(lengths)
        self.heads = self.starts[self.nonempty]
        # flat indices of (p, q) and (q, p) in an N x N matrix
        self.pq = rows * size + cols
        self.qp = cols * size + rows
        self.scatter = None  # the Schur blocks, built by the first schur call

    def inner(self, G):
        """tr(F_k G) for every k (G need not be symmetric)."""
        G = G.ravel()
        weights = self.vals * (G[self.pq] + G[self.qp])
        return np.bincount(self.owner, weights, self.count)

    def combine(self, y):
        """sum_k y_k F_k as a dense array."""
        cells = self.size * self.size
        weights = self.vals * np.asarray(y, dtype=float)[self.owner]
        out = np.bincount(self.pq, weights, cells)
        out += np.bincount(self.qp, weights, cells)
        return out.reshape(self.size, self.size)

    def _schur_blocks(self):
        """Blocks of whole directions l0..l1-1, each holding at most
        _SCHUR_BLOCK entries of G, with the flat indices and weights whose
        bincount is the block's dense stack of F_l as l1 - l0 rows of N^2.

        The indices list every (p, q) cell, then every (q, p) cell. A
        direction's entries are distinct cells with p <= q, so a cell
        repeats within a block only for a diagonal entry, which sums
        0 + v + v as the two scatters of the plain formulation do.
        """
        cells = self.size * self.size
        step = max(1, _SCHUR_BLOCK // cells)
        blocks = []
        for l0 in range(0, self.count, step):
            l1 = min(self.count, l0 + step)
            e0, e1 = self.starts[l0], self.ends[l1 - 1]
            base = (self.owner[e0:e1] - l0) * cells
            index = np.concatenate((base + self.pq[e0:e1], base + self.qp[e0:e1]))
            weights = np.tile(self.vals[e0:e1], 2)
            blocks.append((l0, l1, index, weights, (l1 - l0) * cells))
        return blocks

    def schur(self, X, Zi):
        """M_kl = tr(F_k X F_l Zi), symmetrized.

        For a block of whole directions (_schur_blocks), the F_l are made
        dense by one bincount, and G_l = X F_l Zi is formed for all of them
        by two batched products; column l of M is then read from G_l at the
        entries of every F_k. M is symmetric in exact arithmetic, and
        (M + M^T) / 2 keeps it so in floating point.
        """
        if self.scatter is None:
            self.scatter = self._schur_blocks()
        N = self.size
        M = np.zeros((self.count, self.count))
        for l0, l1, index, weights, length in self.scatter:
            F = np.bincount(index, weights, length).reshape(-1, N, N)
            G = ((X @ F).reshape(-1, N) @ Zi).reshape(-1, N * N).T
            T = (G[self.pq] + G[self.qp]) * self.vals[:, None]
            M[self.nonempty, l0:l1] = np.add.reduceat(T, self.heads, axis=0)
        return 0.5 * (M + M.T)


def _raise_linalg_error(err, flag):
    raise np.linalg.LinAlgError(f"LAPACK call failed ({err} value)")


def _lapack_errors():
    """numpy.linalg's error state for its gufuncs: a LAPACK failure, which
    the gufunc flags as an invalid value, raises LinAlgError, and the
    other floating-point flags are ignored. _ipm enters it once per solve,
    around its whole loop, since entering it costs about as much as a small
    LAPACK call; an invalid value in the loop's other arithmetic then
    raises too, in place of a warning and a NaN iterate that could never
    become the best one."""
    return np.errstate(
        call=_raise_linalg_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


def _max_steps(L, dXZ):
    """The largest alphas with X + alpha dX and Z + alpha dZ still PSD, for
    the stacked pair dXZ = (dX, dZ) and L with L[0] X L[0]^T = I and
    L[1] Z L[1]^T = I, from one stacked eigvalsh; call it under
    _lapack_errors."""
    S = L @ dXZ @ L.transpose(0, 2, 1)
    low = _eigvalsh(S, signature="d->d")[:, 0]
    return [math.inf if v >= 0 else -1.0 / v for v in low.tolist()]


def _ipm(C, fam, b):
    """Primal-dual interior point method for a dual pair of SDPs.

    Solves  max b.y  s.t.  Z = C + sum_k y_k F_k >= 0  together with
    min <C, X>  s.t.  tr(F_k X) = -b_k, X >= 0,  from the infeasible start
    X, Z = multiples of I, y = 0. Search directions are HKM
    (Helmberg-Rendl-Vanderbei-Wolkowicz 1996) with Mehrotra's
    predictor-corrector; the run is deterministic.

    The error of an iterate is the largest of its relative gap and its
    relative primal and dual infeasibilities. The solver stops when the
    error reaches _IPM_TOL (converged), or when it has not improved for
    _IPM_STALL iterations, the Newton system breaks down in floating point
    or _IPM_MAX_ITERS is reached (not converged). Returns the best iterate
    as (y, X, converged).

    An iteration makes few numpy calls: the stacked pairs (X, Z) and
    (dX, dZ) live in buffers allocated once per call, the family's Schur
    scatter is built once (_Family.schur), and the predictor (target 0, no
    second-order term) has its own formula. Its six LAPACK calls (the
    stacked Cholesky and inverse, two stacked eigvalsh and two Schur
    solves) skip numpy.linalg's wrapper, whose type checks and promotion
    cost more than LAPACK at small N, and call its gufuncs on the float64
    arrays the wrapper would pass. The whole loop runs under numpy.linalg's
    error state (_lapack_errors), entered once per solve: a LAPACK failure
    or an invalid value anywhere in an iteration raises LinAlgError, which
    ends the solve at its best iterate. Every floating-point operation is
    that of the plain formulation kept in tests/_ipm_reference.py, which
    calls numpy.linalg, in the same order, so the iterates are that
    formulation's bit for bit.
    """
    N = C.shape[0]
    c_norm = 1.0 + float(np.linalg.norm(C))
    b_norm = 1.0 + float(np.linalg.norm(b))
    start = max(10.0, math.sqrt(N), c_norm)
    inner, combine, schur = fam.inner, fam.combine, fam.schur
    vdot, sqrt = np.vdot, math.sqrt
    XZ = np.empty((2, N, N))
    predictor = np.empty((2, N, N))
    corrector = np.empty((2, N, N))
    dXa, dZa = predictor
    dXc, dZc = corrector
    X, Z = start * np.eye(N), start * np.eye(N)
    y = np.zeros(fam.count)
    best = (math.inf, y, X)
    since_best = 0
    with _lapack_errors(), suppress(np.linalg.LinAlgError):
        for _ in range(_IPM_MAX_ITERS):
            rp = -b - inner(X)
            Rd = C + combine(y) - Z
            rd = Rd.ravel()
            gap = float(vdot(X, Z))
            scale = 1.0 + abs(float(vdot(C, X))) + abs(float(b @ y))
            # sqrt(v @ v) is np.linalg.norm(v), bit for bit
            error = max(gap / scale, sqrt(rp @ rp) / b_norm, sqrt(rd @ rd) / c_norm)
            if error < best[0]:
                best, since_best = (error, y, X), 0
            else:
                since_best += 1
            if error <= _IPM_TOL or since_best >= _IPM_STALL:
                break
            mu = gap / N
            XZ[0] = X
            XZ[1] = Z
            L = _inv(_cholesky(XZ, signature="d->d"), signature="d->d")
            Zi = L[1].T @ L[1]
            M = schur(X, Zi)
            XRdZi = X @ Rd @ Zi
            # the HKM direction for target t and second-order term corr is
            #   dy = M^-1 (inner(t Zi - X - X Rd Zi - corr) - rp),
            #   dZ = Rd + combine(dy),  dX = sym(t Zi - X - X dZ Zi - corr).
            # The predictor has t = 0 and corr = 0. It computes t Zi - X
            # once and drops the "- 0.0", which changes no bit; -X in place
            # of 0.0 Zi - X would change the sign of some zeros.
            head = 0.0 * Zi - X
            dy = _solve1(M, inner(head - XRdZi) - rp, signature="dd->d")
            np.add(Rd, combine(dy), out=dZa)
            dX = head - X @ dZa @ Zi
            np.multiply(0.5, dX + dX.T, out=dXa)
            ap, ad = (min(1.0, step) for step in _max_steps(L, predictor))
            mu_aff = float(vdot(X + ap * dXa, Z + ad * dZa)) / N
            sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** 3)
            target, corr = sigma * mu, dXa @ dZa @ Zi
            dy = _solve1(M, inner(target * Zi - X - XRdZi - corr) - rp, signature="dd->d")
            np.add(Rd, combine(dy), out=dZc)
            dX = target * Zi - X - X @ dZc @ Zi - corr
            np.multiply(0.5, dX + dX.T, out=dXc)
            ap, ad = (min(1.0, _STEP_FRACTION * step) for step in _max_steps(L, corrector))
            X = X + ap * dXc
            y = y + ad * dy
            Z = Z + ad * dZc
    error, y, X = best
    return y, X, error <= _IPM_TOL


@dataclass(frozen=True)
class _MaxMinEig:
    """Numeric optimum of max t s.t. A0 + sum lam_i S_i - t I >= 0."""

    lam: tuple
    t: float
    dual: np.ndarray  # W >= 0, tr W = 1, <W, S_i> = 0 up to residuals
    margin: float  # -<W, A0>
    residuals: dict
    converged: bool


def _least_eigenpair(A0, C):
    """Least eigenvalue t of C = _to_array(A0) and W = v v^T, v a unit
    eigenvector of t that lives on one connected block of A0.

    Each connected component of A0's nonzero entries (exactlinalg._blocks)
    is eigendecomposed on its own; an index with no entry is a 1 x 1 block
    with eigenvalue 0. The block with the least eigenvalue wins, the one
    with the smallest index on a tie. W is +0.0 outside that block's rows
    and columns, so it keeps every block structure of A0 by construction.
    """
    size = C.shape[0]
    members = [
        sorted({k for key, _ in entries for k in key})
        for entries in _blocks(A0.entries(), size)
    ]
    covered = {k for block in members for k in block}
    members += [[k] for k in range(size) if k not in covered]
    best = None
    for block in sorted(members):  # disjoint, so ordered by smallest index
        values, vectors = np.linalg.eigh(C[np.ix_(block, block)])
        if best is None or values[0] < best[0]:
            best = (float(values[0]), block, vectors[:, 0])
    t, block, v = best
    W = np.zeros((size, size))
    W[np.ix_(block, block)] = np.outer(v, v) + 0.0  # + 0.0 turns -0.0 into 0.0
    return t, W


def _max_min_eig(A0, kernel_mats, size):
    """Solve the max-min-eigenvalue SDP over the Gram family.

    Its dual is  min <W, A0>  s.t.  W >= 0, tr W = 1, <W, S_i> = 0, so the
    solver's primal matrix is the dual witness of infeasibility. With no
    kernel directions the optimum t is the least eigenvalue of A0, with
    the projector onto one of its unit eigenvectors as dual
    (Vandenberghe-Boyd, SIAM Rev. 38, 1996), so _least_eigenpair takes
    the place of _ipm.
    """
    fam = _Family(kernel_mats, size, identity=-1.0)
    C = _to_array(A0, size)
    if kernel_mats:
        b = np.zeros(fam.count)
        b[-1] = 1.0
        y, X, converged = _ipm(C, fam, b)
        W = X / np.trace(X)
    else:
        t, W = _least_eigenpair(A0, C)
        y, converged = np.array([t]), True
    orthogonality = fam.inner(W)[:-1]
    residuals = {
        "kernel_orthogonality_max": float(np.abs(orthogonality).max(initial=0.0)),
        "dual_psd_violation": max(0.0, -float(np.linalg.eigvalsh(W)[0])),
        "trace_gap": abs(float(np.trace(W)) - 1.0),
    }
    return _MaxMinEig(
        lam=tuple(float(x) for x in y[:-1]),
        t=float(y[-1]),
        dual=W,
        margin=-float(np.vdot(W, C)),
        residuals=residuals,
        converged=converged,
    )


def _round_lam(A0, kernel_mats, lam_floats):
    """First rounding of lam (by growing denominator bound, see _rounded)
    that is PSD. The exact PSD test reads the point's integer numerators,
    so a failed rounding builds no Fraction."""
    for lam in _rounded(lam_floats, _DENOMINATOR_BOUNDS):
        if _is_psd_entries(_affine_numerators(A0, kernel_mats, lam)[0].items(), A0.size):
            return lam
    return None


def _vertex_hunt(A0, kernel_mats, size, t):
    """Round minimizers of weighted-trace objectives over the PSD slice.

    The fallback after _face_step. On a face whose common kernel is
    irrational the face step has no rational vectors to impose, but linear
    objectives still pick out extreme points, often exactly the rational
    low-rank Gram matrices sought. The slice is relaxed to A(lam) >= -delta
    I with delta = max(0, -t) + _HUNT_SLACK so that it has an interior even
    when the family touches the PSD cone only on a face. Returns an exact
    PSD Gram matrix or None.
    """
    if not kernel_mats:
        return None
    fam = _Family(kernel_mats, size)
    C = _to_array(A0, size) + (max(0.0, -t) + _HUNT_SLACK) * np.eye(size)
    weightings = [
        np.ones(size),
        1.0 + np.arange(size),
        1.0 + np.arange(size)[::-1],
    ]
    for w in weightings:
        # minimize the weighted trace <diag(w), A(lam)>, i.e. max -c.lam
        y, _X, _converged = _ipm(C, fam, -fam.inner(np.diag(w)))
        lam = _round_lam(A0, kernel_mats, y)
        if lam is not None:
            return _affine_point(A0, kernel_mats, lam)
    return None


def _float_rref(rows):
    """Reduced echelon form with complete pivoting and unit pivots.

    Picking the globally largest remaining entry keeps the reduced rows
    O(1) in magnitude, which is what makes them rationalizable. Entries
    below 1e-7 count as zero.
    """
    M = np.array(rows, dtype=float)
    if M.size == 0:
        return M
    nrows, ncols = M.shape
    r = 0
    done_cols = set()
    while r < nrows:
        sub = np.abs(M[r:])
        for c in done_cols:
            sub[:, c] = 0.0
        flat = int(np.argmax(sub))
        pr, pc = divmod(flat, ncols)
        if sub[pr, pc] < 1e-7:
            break
        pr += r
        M[[r, pr]] = M[[pr, r]]
        M[r] = M[r] / M[r, pc]
        for other in range(nrows):
            if other != r and abs(M[other, pc]) > 0:
                M[other] = M[other] - M[other, pc] * M[r]
        done_cols.add(pc)
        r += 1
    M = M[:r]
    M[np.abs(M) < 1e-7] = 0.0
    return M


def _face_system(A0, kernel_mats, vectors):
    """A(lam) v = 0 for every v, as sparse rows over lam with right-hand sides.

    Each v is scaled to integers first; the equations are homogeneous in v.
    Row r of v holds (S_i v)_r in column i and -(A0 v)_r as its right-hand
    side. The rows are built from the entries of the directions and of A0
    (column K = len(kernel_mats) while building), so a direction's few
    entries reach only the rows they touch. Integral entries are taken as
    ints, which makes the columns of star-kernel directions integer.
    """
    K = len(kernel_mats)
    entries = [
        (p, q, col, value.numerator if value.denominator == 1 else value)
        for col, S in enumerate([*kernel_mats, A0])
        for (p, q), value in S.entries()
    ]
    rows, rhs = [], []
    for vec in vectors:
        scale = math.lcm(*(x.denominator for x in vec))
        v = [x.numerator * (scale // x.denominator) for x in vec]
        by_row = {}
        for p, q, col, value in entries:
            if v[q]:
                row = by_row.setdefault(p, {})
                row[col] = row.get(col, 0) + value * v[q]
            if p != q and v[p]:
                row = by_row.setdefault(q, {})
                row[col] = row.get(col, 0) + value * v[p]
        for r in sorted(by_row):
            row = by_row[r]
            rhs.append(-row.pop(K, 0))
            rows.append(row)
    return rows, rhs


def _solve_family(A0, kernel_mats, size, zeros=()):
    """The one search of a Gram family A0 + sum lam_i S_i.

    The exact vectors v in zeros are imposed first (A(lam) v = 0, see
    _face_system), and the search runs on the coordinates outside their
    pivots (a symmetric matrix annihilating them is PSD exactly when that
    restriction is). The max-min-eig optimum is rounded and lifted back.
    Returns (gram, lam, solve): an exact PSD member gram = A0 + sum lam_i S_i
    and its lam over the given directions, or None and None, and the
    _MaxMinEig the search ended on; (None, None, None) when no member
    annihilates the zeros. With zeros, the _MaxMinEig's dual is lifted back
    to the given size, zero on the pivots; its margin and residuals are
    those of the restricted family.
    """
    family = A0, kernel_mats
    given = size
    if zeros:
        solution = solve_sparse(*_face_system(A0, kernel_mats, zeros), len(kernel_mats))
        if solution is None:
            return None, None, None
        lam_p, H = solution
        A0 = _affine_point(A0, kernel_mats, lam_p)
        kernel_mats = [_affine_point(SymMatrix(size), kernel_mats, h) for h in H]
        pivots = set(rref(zeros)[1])
        keep = {j: k for k, j in enumerate(j for j in range(size) if j not in pivots)}
        size = len(keep)
        family = A0.reindexed(keep, size), [S.reindexed(keep, size) for S in kernel_mats]
    solve = _max_min_eig(*family, size)
    if zeros:
        dual = np.zeros((given, given))
        dual[np.ix_(list(keep), list(keep))] = solve.dual
        solve = replace(solve, dual=dual)
    if solve.t < -_INFEAS_TOL:
        return None, None, solve
    lam = _round_lam(*family, solve.lam)
    if lam is None:
        return None, None, solve
    gram = _affine_point(A0, kernel_mats, lam)
    if zeros:  # lam_p + sum lam_h h over the homogeneous basis H
        full = list(lam_p)
        for x, h in zip(lam, H):
            if x:
                for i, v in enumerate(h):
                    if v:
                        full[i] += x * v
        lam = full
    return gram, lam, solve


def _face_step(A0, kernel_mats, size, lam_floats):
    """One step of partial facial reduction at a near-singular optimum.

    Runs after rounding the max-min-eig optimum fails, before the vertex
    hunt. The near-kernel vectors of A(lam_floats) are rationalized at each
    denominator bound that changes them (_rounded) and go to _solve_family
    as zeros. Its optimum has the face's full rank whenever the face
    allows, where the hunt finds an extreme point of lower rank. Returns an
    exact PSD Gram matrix or None.
    """
    A = _to_array(A0, size) + _Family(kernel_mats, size).combine(lam_floats)
    eigvals, eigvecs = np.linalg.eigh(A)
    scale = max(1.0, float(np.abs(eigvals).max()))
    reduced = _float_rref(eigvecs[:, eigvals < 1e-5 * scale].T)
    if reduced.size == 0:
        return None
    width = reduced.shape[1]
    for flat in _rounded(reduced.ravel(), _DENOMINATOR_BOUNDS):
        vectors = [flat[r:r + width] for r in range(0, len(flat), width)]
        gram, _lam, _solve = _solve_family(A0, kernel_mats, size, zeros=vectors)
        if gram is not None:
            return gram
    return None


def _numeric_evidence(solve, reason=None):
    """Dual evidence from a max-min-eig solve, behind the evidence gate.

    A dual that fails the gate is no witness: it is reported with neither
    matrix nor margin, and the reason names the failed checks.
    """
    failed = [] if solve.converged else ["solver did not converge"]
    if not solve.margin > 0:
        failed.append("margin not positive")
    failed += [
        f"{name} above {EVIDENCE_TOL:g}"
        for name, value in solve.residuals.items()
        if not value <= EVIDENCE_TOL
    ]
    if failed:
        gate = "numeric dual failed the evidence gate: " + ", ".join(failed)
        return InfeasibilityEvidence(
            residuals=solve.residuals, reason=f"{reason}; {gate}" if reason else gate
        )
    return InfeasibilityEvidence(
        dual_matrix=tuple(tuple(float(x) for x in row) for row in solve.dual),
        margin=solve.margin,
        residuals=solve.residuals,
        reason=reason,
    )


def _full_family_evidence(F, basis, classes, reason=None):
    """Dual evidence against the Gram family of the whole basis.

    classes are the basis's sign-symmetric product classes
    (_symmetric_classes), so the diagonal reduction is undone. Both solves
    keep the family's block structure, _ipm in each iterate and
    _least_eigenpair by construction, so the witness vanishes at
    every pair of a dropped class and is orthogonal to its kernel
    directions too.

    The default basis holds two monomials whose product is any term of F,
    and the sign-symmetric classes keep the class of every term, so every
    term has a pair; a term without one is a fault of this module.
    """
    A0, missing = _gram_over(F, basis.monomials, classes)
    if missing:
        raise InternalConsistencyError(
            f"term with exponents {missing[0]} of F has no pair in the default basis"
        )
    solve = _max_min_eig(A0, _star_kernel(classes, len(basis)), len(basis))
    return _numeric_evidence(solve, reason=reason)


def sos_certify(F):
    """Decide SOS membership of F over its default basis, whose caps are
    half of F's total and per-variable degrees.

    Returns an exact SosCertificate or numeric InfeasibilityEvidence.
    """
    if not isinstance(F, Polynomial):
        raise StructuralError("sos_certify expects a Polynomial")
    if F.nvars == 0:  # constants live in a one-variable ring for basis purposes
        F = Polynomial(1, {(0,): v for _, v in F.terms()})
    d = F.nvars
    if F.is_zero():
        basis = build_basis(0, (0,) * d)
        cert = _certificate_from_gram(F, basis, SymMatrix(len(basis)))
        if cert is None:
            raise InternalConsistencyError("zero Gram matrix rejected as PSD")
        return cert
    degree = int(F.degree())
    if degree % 2:
        return InfeasibilityEvidence(reason="odd total degree")
    caps = tuple(-(-int(max(F.degree_in(k + 1), 0)) // 2) for k in range(d))
    basis = build_basis(degree // 2, caps)
    N = len(basis)
    _check_capacity(N)

    classes = _symmetric_classes(F, basis.monomials)
    alive, forced = _diagonal_reduction(F, basis.monomials, classes)
    if forced is not None:
        return _full_family_evidence(
            F,
            basis,
            classes,
            reason="exact preprocessing pinned a diagonal Gram entry to a "
            "negative value",
        )
    monos = [basis.monomials[i] for i in alive]
    alive_classes = _alive_classes(classes, alive)
    A0, missing = _gram_over(F, monos, alive_classes)
    if missing:
        return _full_family_evidence(
            F,
            basis,
            classes,
            reason="a coefficient of F is reachable only through Gram rows "
            "that exact preprocessing pinned to zero",
        )
    if not _represents(F, monos, A0):
        raise InternalConsistencyError("initial Gram matrix does not represent F")
    to_full = dict(enumerate(alive))
    kernel_mats = _star_kernel(alive_classes, len(monos))

    gram = A0 if is_psd(A0) else None
    if gram is None:
        gram, _lam, solve = _solve_family(A0, kernel_mats, len(monos))
        if solve.t < -_INFEAS_TOL:
            if len(alive) == N:
                return _numeric_evidence(solve)
            # report evidence against the full requested family
            return _full_family_evidence(F, basis, classes)
        if gram is None:
            gram = _face_step(A0, kernel_mats, len(monos), solve.lam)
        if gram is None:
            gram = _vertex_hunt(A0, kernel_mats, len(monos), solve.t)
        if gram is None:
            # a near-feasible optimum is no evidence of infeasibility
            return InfeasibilityEvidence(reason=_NO_EXACT_ROUNDING)

    cert = _certificate_from_gram(F, basis, gram.reindexed(to_full, N))
    if cert is None:
        raise InternalConsistencyError("embedded Gram matrix lost semidefiniteness")
    return cert


def default_artin_candidates(nvars):
    """Powers 1..ARTIN_MAX_POWER of the coordinate sum of squares."""
    if nvars == 0:
        return [Polynomial.one(0)]
    base = Polynomial.zero(nvars)
    for k in range(1, nvars + 1):
        v = Polynomial.variable(k, nvars)
        base = base + v * v
    return [base**m for m in range(1, ARTIN_MAX_POWER + 1)]


def artin_certify(F, candidates=None):
    """First denominator s (list order) with s^2 F certifiably SOS, or None."""
    if not isinstance(F, Polynomial):
        raise StructuralError("artin_certify expects a Polynomial")
    if candidates is None:
        candidates = default_artin_candidates(F.nvars)
    for s in candidates:
        if not isinstance(s, Polynomial) or s.nvars != F.nvars:
            raise StructuralError("candidate denominator has mismatched arity")
        if s.is_zero():
            raise StructuralError("candidate denominator is zero")
    for s in candidates:
        outcome = sos_certify(s * s * F)
        if isinstance(outcome, SosCertificate):
            return s, outcome
    return None


def artin_minimize(F, s_factored):
    """Greedy removal of redundant denominator factors, one occurrence at a
    time in list order; a removal is kept iff certification still succeeds.

    Returns (reduced factor list, certificate for the reduced denominator).
    """
    s_factored = list(s_factored)
    for factor, mult in s_factored:
        if not isinstance(factor, Polynomial) or factor.is_zero():
            raise StructuralError("denominator factors must be nonzero polynomials")
        if not isinstance(mult, int) or mult < 0:
            raise StructuralError("factor multiplicities must be nonnegative ints")
    outcome = sos_certify(_denominator_square(F, s_factored))
    if not isinstance(outcome, SosCertificate):
        raise PreconditionError(
            "the supplied factored denominator does not certify F"
        )
    return _minimize_certified(F, s_factored, outcome)


def _denominator_square(F, s_factored):
    """s^2 F for s the product of the factors to their multiplicities."""
    s = Polynomial.one(F.nvars)
    for factor, mult in s_factored:
        s = s * factor**mult
    return s * s * F


def _minimize_certified(F, s_factored, certificate):
    """The greedy loop of artin_minimize, started from a certificate of
    s^2 F for the full factored denominator s."""
    factors = [list(f) for f in s_factored]
    for idx in range(len(factors)):
        while factors[idx][1] > 0:
            trial = [list(f) for f in factors]
            trial[idx][1] -= 1
            candidate = sos_certify(_denominator_square(F, trial))
            if isinstance(candidate, SosCertificate):
                factors = trial
                certificate = candidate
            else:
                break
    reduced = [(factor, mult) for factor, mult in factors if mult > 0]
    return reduced, certificate
