"""Exact arithmetic for the benchmark's own checks, independent of sospencil.

Polynomials are plain dicts mapping exponent tuples to nonzero Fractions.
Nothing here imports the package under test: the checks recompute what the
program claims with this code and compare.
"""

from __future__ import annotations

import re
from fractions import Fraction


def const(value, nvars):
    value = Fraction(value)
    return {(0,) * nvars: value} if value else {}


def var(index, nvars, coeff=1):
    """coeff * z_index, with 1-based index."""
    if not coeff:
        return {}
    exps = [0] * nvars
    exps[index - 1] = 1
    return {tuple(exps): Fraction(coeff)}


def add(*polys):
    out = {}
    for poly in polys:
        for exps, coeff in poly.items():
            value = out.get(exps, 0) + coeff
            if value:
                out[exps] = value
            else:
                out.pop(exps, None)
    return out


def scale(poly, factor):
    factor = Fraction(factor)
    return {e: c * factor for e, c in poly.items()} if factor else {}


def mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(poly, exponent, nvars):
    out = const(1, nvars)
    for _ in range(exponent):
        out = mul(out, poly)
    return out


def product(polys, nvars):
    out = const(1, nvars)
    for poly in polys:
        out = mul(out, poly)
    return out


def evaluate(poly, point):
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term *= x**e
        total += term
    return total


def monomial_value(exps, point):
    value = Fraction(1)
    for x, e in zip(point, exps):
        if e:
            value *= x**e
    return value


def coordinate_square_sum(nvars):
    return add(*(mul(var(k, nvars), var(k, nvars)) for k in range(1, nvars + 1)))


_TERM = re.compile(r"^(?:(\d+)(?:/(\d+))?)?\*?((?:z\d+(?:\^\d+)?\*?)*)$")
_FACTOR = re.compile(r"z(\d+)(?:\^(\d+))?")


def parse_rendered(text, nvars):
    """Read the program's printed form of a polynomial, such as
    ``3/2*z1^2*z2 - z3 + 1``: terms joined by ' + ' or ' - ', each an
    optional rational coefficient and a product of powers."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out = {}
    for chunk in re.split(r" ([+-]) ", text):
        if chunk in "+-":
            sign = 1 if chunk == "+" else -1
            continue
        match = _TERM.match(chunk)
        if match is None or not chunk:
            raise ValueError(f"unreadable term {chunk!r} in {text!r}")
        num, den, mono = match.groups()
        coeff = Fraction(int(num or 1), int(den or 1)) * sign
        exps = [0] * nvars
        for index, exponent in _FACTOR.findall(mono):
            exps[int(index) - 1] += int(exponent or 1)
        out = add(out, {tuple(exps): coeff})
    return out


def is_psd(rows):
    """Exact PSD test by pivoted LDL^T with Fractions."""
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A)
    remaining = list(range(n))
    while remaining:
        p = max(remaining, key=lambda i: A[i][i])
        pivot = A[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            return all(A[i][j] == 0 for i in remaining for j in remaining)
        remaining.remove(p)
        for i in remaining:
            if A[i][p]:
                factor = A[i][p] / pivot
                for j in remaining:
                    A[i][j] -= factor * A[p][j]
    return True


def square_sum(squares):
    """Sum of weight * g^2 over (weight, g) pairs of dict polynomials."""
    return add(*(scale(mul(g, g), w) for w, g in squares))


def basis_monomials(total_cap, var_caps):
    """Monomials under the caps in graded reverse-lex order: by total
    degree, then with higher powers of earlier variables first."""
    out = [()]
    for cap in var_caps:
        out = [m + (e,) for m in out for e in range(cap + 1)]
    out = [m for m in out if sum(m) <= total_cap]
    return sorted(out, key=lambda m: (sum(m), tuple(-e for e in m)))


def render(poly):
    """Text in the program's input grammar."""
    if not poly:
        return "0"
    parts = []
    for exps, coeff in sorted(poly.items(), reverse=True):
        mono = "*".join(
            f"z{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(exps) if e
        )
        parts.append(f"({coeff})" + (f"*{mono}" if mono else ""))
    return " + ".join(parts)
