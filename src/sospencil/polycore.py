"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable maps from exponent tuples to nonzero Fractions.
Everything downstream (pencil construction, Gram algebra, certification)
relies on this module staying exact: floats are rejected at the door (the
public constructor here; SymMatrix.add, set and from_dense for the matrices
whose forms are summed into polynomials), and products run on integer
numerators over one common denominator, giving one Fraction per result
term. ``wronskian`` is one such pass over the term pairs of q and p.

The exact identity checks of the pipeline (pencil identities, Gram forms,
weighted squares) run the same way: each side is a ``(den, pairs)`` list of
integer numerators over one denominator, and ``_difference`` subtracts them
over the lcm. Only a nonzero residual term becomes a Fraction, so an
identity that holds builds none.

The public constructor validates and merges its terms. Results the module
builds itself go through ``Polynomial._trusted``, which stores its terms
unchecked under one invariant: every key is a tuple of ``nvars``
nonnegative ints, and every value is a nonzero Fraction.

Two monomial orders appear throughout:

* ``grlex_key`` ranks by total degree, then lexicographically with z1
  heaviest. Leading terms and text rendering use it.
* ``basis_key`` ranks by total degree, then reverse-lexicographically, so
  that basis listings come out as 1, z1, z2, z1^2, z1*z2, z2^2, ...

Variable indices in the public API are 1-based (z1 .. zd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import NotRepresentableError, StructuralError

NEG_INF = float("-inf")


def grlex_key(exps):
    """Graded lexicographic sort key, z1 heaviest. Max = leading term."""
    return (sum(exps), exps)


def basis_key(exps):
    """Graded reverse-lexicographic sort key used for basis listings."""
    return (sum(exps), tuple(-e for e in exps))


def _coerce(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise StructuralError(
            "float coefficients are not allowed; use Fraction or int"
        )
    raise StructuralError(f"cannot use {type(value).__name__} as a coefficient")


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables over Q."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=None):
        if not isinstance(nvars, int) or nvars < 0:
            raise StructuralError("nvars must be a nonnegative integer")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
                raise StructuralError(f"bad exponent tuple {exps} for nvars={nvars}")
            coeff = _coerce(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, nvars, terms):
        """A polynomial over ``terms`` as given, without validation.

        The caller guarantees the invariant: every key is a tuple of
        ``nvars`` nonnegative ints, and every value is a nonzero Fraction.
        ``terms`` is kept, not copied, so the caller must not change it.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        return poly

    @classmethod
    def _nonzero(cls, nvars, sums):
        """``_trusted`` over the nonzero entries of ``sums``, in their order.

        For sums that may cancel. The keys must carry the invariant and the
        values must be Fractions, as SymMatrix entries are.
        """
        return cls._trusted(nvars, {e: c for e, c in sums.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    @classmethod
    def constant(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: _coerce(value)})

    @classmethod
    def variable(cls, index, nvars):
        """The monomial z_index, with 1-based index."""
        if not 1 <= index <= nvars:
            raise StructuralError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): _coerce(coeff)})

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def terms(self):
        """Exponent/coefficient pairs in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(e) for e in self._terms)

    def degree_in(self, index):
        """Degree in z_index (1-based); NEG_INF for the zero polynomial."""
        if not 1 <= index <= self.nvars:
            raise StructuralError(f"variable index {index} out of range 1..{self.nvars}")
        if not self._terms:
            return NEG_INF
        return max(e[index - 1] for e in self._terms)

    def leading_term(self):
        """(exponents, coefficient) maximal in graded-lex order."""
        if not self._terms:
            raise StructuralError("zero polynomial has no leading term")
        exps = max(self._terms, key=grlex_key)
        return exps, self._terms[exps]

    def support(self):
        return set(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_ring(self, other):
        if self.nvars != other.nvars:
            raise StructuralError(
                f"mixed arities: {self.nvars} vs {other.nvars} variables"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            if exps in terms:
                coeff += terms[exps]
                if not coeff:
                    del terms[exps]
                    continue
            terms[exps] = coeff
        return Polynomial._trusted(self.nvars, terms)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            coeff = terms[exps] - coeff if exps in terms else -coeff
            if coeff:
                terms[exps] = coeff
            else:
                del terms[exps]
        return Polynomial._trusted(self.nvars, terms)

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_same_ring(other)
            da, a = _integer_terms(self._terms)
            db, b = _integer_terms(other._terms)
            sums = {}
            for e1, n1 in a:
                for e2, n2 in b:
                    exps = tuple(map(add, e1, e2))
                    sums[exps] = sums.get(exps, 0) + n1 * n2
            return _over(self.nvars, da * db, sums.items())
        coeff = _coerce(other)
        if not coeff:
            return Polynomial._trusted(self.nvars, {})
        return Polynomial._trusted(
            self.nvars, {e: c * coeff for e, c in self._terms.items()}
        )

    def __rmul__(self, other):
        return self * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise StructuralError("polynomial powers must be nonnegative integers")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def diff(self, index):
        """Partial derivative with respect to z_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise StructuralError(f"variable index {index} out of range 1..{self.nvars}")
        k = index - 1
        terms = {}
        for exps, coeff in self._terms.items():
            e = exps[k]
            if e:
                terms[exps[:k] + (e - 1,) + exps[k + 1 :]] = coeff * e
        return Polynomial._trusted(self.nvars, terms)

    # -- evaluation ----------------------------------------------------------

    def eval_complex(self, point):
        """Floating evaluation at a tuple of complex numbers."""
        if len(point) != self.nvars:
            raise StructuralError(f"expected {self.nvars} coordinates, got {len(point)}")
        total = 0j
        for exps, coeff in self._terms.items():
            term = complex(float(coeff))
            for x, e in zip(point, exps):
                if e:
                    term *= complex(x) ** e
            total += term
        return total

    # -- comparison / rendering -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for exps, coeff in self.terms():
            parts = []
            for k, e in enumerate(exps):
                if e == 1:
                    parts.append(f"z{k + 1}")
                elif e > 1:
                    parts.append(f"z{k + 1}^{e}")
            mono = "*".join(parts)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def _integer_terms(terms):
    """(lcm of the denominators, [(exponents, lcm * coefficient)]) of a
    term map; the scaled coefficients are ints."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


def _over(nvars, den, pairs):
    """The polynomial sum of numerator / den over ``pairs`` of (exponents,
    int), each key once: one Fraction per nonzero numerator."""
    return Polynomial._trusted(nvars, {e: Fraction(n, den) for e, n in pairs if n})


def _difference(nvars, left, right):
    """left - right as a polynomial, for sides given as (den, pairs) the way
    _integer_terms returns them: int numerators over a positive
    denominator, each key at most once per side. The sides are subtracted
    over the lcm of their denominators, so a Fraction is built only for a
    nonzero residual term."""
    (ld, lpairs), (rd, rpairs) = left, right
    den = math.lcm(ld, rd)
    lf, rf = den // ld, den // rd
    sums = {e: n * lf for e, n in lpairs}
    for e, n in rpairs:
        sums[e] = sums.get(e, 0) - n * rf
    return _over(nvars, den, sums.items())


def _squares_numerators(squares):
    """sum of w * g^2 over (w, g) in ``squares`` as (den, pairs), for a
    Fraction weight w and a Polynomial g per square. Each square adds the
    products of its terms' numerators, an unequal pair twice; den is the
    lcm over the squares of w's denominator times the square of g's."""
    scaled = []
    for weight, poly in squares:
        gd, g = _integer_terms(poly._terms)
        scaled.append((weight.numerator, weight.denominator * gd * gd, g))
    den = math.lcm(1, *(wd for _, wd, _ in scaled))
    sums = {}
    for wn, wd, g in scaled:
        f = wn * (den // wd)
        for a, (e1, n1) in enumerate(g):
            exps = tuple(e + e for e in e1)
            sums[exps] = sums.get(exps, 0) + f * n1 * n1
            n1 *= 2 * f
            for e2, n2 in g[a + 1 :]:
                exps = tuple(map(add, e1, e2))
                sums[exps] = sums.get(exps, 0) + n1 * n2
    return den, sums.items()


# -- monomial bases -------------------------------------------------------------


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials with total degree <= total_cap and z_k degree <= var_caps[k-1].

    Listed in ascending graded reverse-lex order, so position 0 is the
    constant monomial and z1 precedes z2 within each degree block.
    """

    total_cap: int
    var_caps: tuple
    monomials: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {m: i for i, m in enumerate(self.monomials)}
        )

    @property
    def nvars(self):
        return len(self.var_caps)

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __contains__(self, exps):
        return tuple(exps) in self._index

    def index_of(self, exps):
        exps = tuple(exps)
        try:
            return self._index[exps]
        except KeyError:
            raise NotRepresentableError(
                f"monomial with exponents {exps} is outside the basis"
            ) from None


def check_basis(basis):
    """Raise StructuralError unless ``basis`` is a MonomialBasis."""
    if not isinstance(basis, MonomialBasis):
        raise StructuralError("basis must be a MonomialBasis")


def build_basis(total_cap, var_caps):
    """Enumerate the capped monomial basis in ascending graded reverse-lex order."""
    if type(total_cap) is not int or total_cap < 0:
        raise StructuralError("total degree cap must be a nonnegative integer")
    var_caps = tuple(var_caps)
    if not var_caps:
        raise StructuralError("at least one variable is required")
    if any(type(c) is not int or c < 0 for c in var_caps):
        raise StructuralError("per-variable caps must be nonnegative integers")

    monomials = []

    def extend(prefix, remaining):
        if not remaining:
            monomials.append(tuple(prefix))
            return
        budget = total_cap - sum(prefix)
        for e in range(min(remaining[0], budget) + 1):
            extend(prefix + [e], remaining[1:])

    extend([], list(var_caps))
    monomials.sort(key=basis_key)
    return MonomialBasis(total_cap, var_caps, tuple(monomials))


def wronskian(q, p, index):
    """q * dp/dz_index - p * dq/dz_index."""
    return _over(q.nvars, *_wronskian_numerators(q, p, index))


def _wronskian_numerators(q, p, index):
    """wronskian(q, p, index) as (den, pairs), in one pass over the term
    pairs: a z^alpha of q and b z^beta of p add (beta_k - alpha_k) a b to
    z^(alpha + beta - e_k), with k = index - 1."""
    if q.nvars != p.nvars:
        raise StructuralError("wronskian operands must share the variable count")
    if not 1 <= index <= q.nvars:
        raise StructuralError(f"variable index {index} out of range 1..{q.nvars}")
    k = index - 1
    da, a = _integer_terms(q._terms)
    db, b = _integer_terms(p._terms)
    sums = {}
    for e1, n1 in a:
        x = e1[k]
        for e2, n2 in b:
            w = e2[k] - x
            if w:
                exps = list(map(add, e1, e2))
                exps[k] -= 1
                exps = tuple(exps)
                sums[exps] = sums.get(exps, 0) + w * n1 * n2
    return da * db, sums.items()


# -- rational functions -------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """A quotient p / q with q nonzero; construction performs no reduction."""

    p: Polynomial
    q: Polynomial

    def __post_init__(self):
        if self.p.nvars != self.q.nvars:
            raise StructuralError("numerator and denominator arities differ")
        if self.q.is_zero():
            raise StructuralError("denominator must be nonzero")

    @property
    def nvars(self):
        return self.p.nvars

    def __str__(self):
        return f"({self.p}) / ({self.q})"
