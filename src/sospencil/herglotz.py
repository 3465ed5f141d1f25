"""Numeric scanner for the Herglotz slice criterion.

For a rational function f = p/q, the criterion asks that every slice
z_1 -> f(z_1, x_2, ..., x_d) with the remaining coordinates pinned to real
values maps the upper half-plane into the closed upper half-plane. The
scanner samples Im f on finite grids; it can refute the criterion with a
witness but can only report "pass" up to grid resolution. The crosscheck
pairs this scan with the exact SOS decision on the axis-1 Wronskian and
reports whether the two sides agree.

Everything here is floating point by design. Skipped points (denominator
too small) are counted, never silently dropped. The scan and the
holomorphy sampler evaluate p and q in numpy, one block of the grid at a
time (one value of its outermost coordinate), so a scan minimum may
differ in its last bits from per-point evaluation with
Polynomial.eval_complex; the witness is the first minimum in
itertools.product order of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconclusiveScanError,
    PreconditionError,
    StructuralError,
)
from .polycore import Polynomial, RationalFunction, wronskian
from .soscert import (
    InfeasibilityEvidence,
    SosCertificate,
    artin_certify,
    sos_certify,
)

SCAN_TOLERANCE = 1e-9
DENOMINATOR_THRESHOLD = 1e-12


def default_real_axis():
    """Half-integer lattice points in [-3, 3] for the pinned coordinates."""
    return tuple(x / 2.0 for x in range(-6, 7))


def default_halfplane_points():
    """Grid x + iy with x in [-3, 3] step 0.5 and y in {0.1, 0.5, 1, 2}."""
    points = []
    for re2 in range(-6, 7):
        for im in (0.1, 0.5, 1.0, 2.0):
            points.append(complex(re2 / 2.0, im))
    return tuple(points)


def default_holomorphy_points():
    """Per-coordinate grid x + iy covering the open upper half-plane."""
    points = []
    for re in range(-3, 4):
        for im in (0.5, 1.0, 2.0):
            points.append(complex(float(re), im))
    return tuple(points)


def _z1_groups(poly):
    """Terms of poly grouped by their exponent of z_1.

    Each group is (e1, coefficients, exponents of z_2..z_d as a
    (terms, d - 1) integer array), with float coefficients.
    """
    groups = {}
    for exps, coeff in poly.terms():
        groups.setdefault(exps[0], []).append((exps[1:], float(coeff)))
    return [
        (
            e1,
            np.array([c for _, c in terms]),
            np.array([e for e, _ in terms], dtype=np.intp),
        )
        for e1, terms in sorted(groups.items())
    ]


def _top_exponent(*polys):
    """Largest exponent of any single variable in the polynomials."""
    return max((max(e, default=0) for f in polys for e, _ in f.terms()), default=0)


def _power_table(values, top):
    """table[e] = values ** e for e = 0..top, by repeated multiplication."""
    table = np.ones((top + 1, len(values)), dtype=values.dtype)
    for e in range(1, top + 1):
        table[e] = table[e - 1] * values
    return table


def _block_values(groups, z1_table, tables):
    """A polynomial's values over one grid block, as a (rows, columns) array.

    The columns are the z_1 values whose power table is z1_table. The rows
    run, in itertools.product order, over the product of the values of
    z_2..z_d whose power tables are tables. The terms sharing one exponent
    of z_1 are summed over the rows first, then multiplied across the
    columns by that power of z_1.
    """
    rows = math.prod(table.shape[1] for table in tables)
    out = np.zeros((rows, z1_table.shape[1]), dtype=complex)
    for e1, coeffs, exps in groups:
        factor = coeffs[:, None]
        for k, table in enumerate(tables):
            factor = (factor[:, :, None] * table[exps[:, k]][:, None, :]).reshape(
                len(coeffs), -1
            )
        out += np.multiply.outer(factor.sum(axis=0), z1_table[e1])
    return out


def _product_point(axis, repeat, index):
    """The index-th tuple of itertools.product(axis, repeat=repeat)."""
    digits = []
    for _ in range(repeat):
        index, digit = divmod(index, len(axis))
        digits.append(axis[digit])
    return tuple(reversed(digits))


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one slice scan; witness attains min_im."""

    min_im: float
    witness: tuple
    samples: int
    skipped: int
    verdict: str
    real_axis: tuple
    halfplane: tuple


def slice_scan(f, real_grid=None, halfplane_grid=None):
    """Minimum of Im f over the slice grid; fails below -1e-9.

    real_grid lists the values taken by each pinned coordinate (the same
    axis is used for all of them); halfplane_grid lists the z_1 samples,
    all with positive imaginary part.
    """
    if not isinstance(f, RationalFunction):
        raise StructuralError("slice_scan expects a RationalFunction")
    d = f.nvars
    if d == 0:
        raise StructuralError("at least one variable is required")
    real_axis = (
        default_real_axis() if real_grid is None else tuple(float(x) for x in real_grid)
    )
    halfplane = (
        default_halfplane_points()
        if halfplane_grid is None
        else tuple(complex(z) for z in halfplane_grid)
    )
    if not halfplane or (d > 1 and not real_axis):
        raise StructuralError("scan grids must be nonempty")
    for z in halfplane:
        if z.imag <= 0:
            raise StructuralError(
                f"half-plane grid point {z} has nonpositive imaginary part"
            )

    p_groups, q_groups = _z1_groups(f.p), _z1_groups(f.q)
    top = _top_exponent(f.p, f.q)
    z1_table = _power_table(np.array(halfplane, dtype=complex), top)
    x_table = _power_table(np.array(real_axis, dtype=float), top)
    # one block per value of x_2, the outermost coordinate of the product order
    if d == 1:
        blocks = [[]]
    else:
        blocks = (
            [x_table[:, b : b + 1]] + [x_table] * (d - 2)
            for b in range(len(real_axis))
        )
    rows = len(real_axis) ** max(d - 2, 0)

    min_im = None
    witness = None
    samples = 0
    skipped = 0
    for b, tables in enumerate(blocks):
        qv = _block_values(q_groups, z1_table, tables)
        keep = np.flatnonzero(np.abs(qv) > DENOMINATOR_THRESHOLD)
        samples += keep.size
        skipped += qv.size - keep.size
        if not keep.size:
            continue
        pv = _block_values(p_groups, z1_table, tables)
        values = (pv.ravel()[keep] / qv.ravel()[keep]).imag
        first = int(np.argmin(values))
        value = float(values[first])
        if min_im is None or value < min_im:
            row, col = divmod(int(keep[first]), len(halfplane))
            xhat = _product_point(real_axis, d - 1, b * rows + row)
            min_im = value
            witness = (halfplane[col],) + tuple(complex(x) for x in xhat)
    if min_im is None:
        raise InconclusiveScanError(
            "every grid point fell below the denominator threshold"
        )
    verdict = "fail" if min_im < -SCAN_TOLERANCE else "pass"
    return ScanReport(
        min_im=min_im,
        witness=witness,
        samples=samples,
        skipped=skipped,
        verdict=verdict,
        real_axis=real_axis,
        halfplane=halfplane,
    )


def holomorphy_sample_check(q, grid=None):
    """Necessary-condition sampler: q must not vanish on the sampled points
    of the open poly-halfplane. (True, None) or (False, witness). Passing is
    not a holomorphy proof.
    """
    if not isinstance(q, Polynomial):
        raise StructuralError("holomorphy_sample_check expects a Polynomial")
    d = q.nvars
    if d == 0:
        return (not q.is_zero()), None
    axis = (
        default_holomorphy_points()
        if grid is None
        else tuple(complex(z) for z in grid)
    )
    if not axis:
        raise StructuralError("holomorphy grid must be nonempty")
    for z in axis:
        if z.imag <= 0:
            raise StructuralError(
                f"holomorphy grid point {z} has nonpositive imaginary part"
            )
    groups = _z1_groups(q)
    table = _power_table(np.array(axis, dtype=complex), _top_exponent(q))
    rows = len(axis) ** (d - 1)
    # one block per value of z_1, the outermost coordinate of the product order
    for b in range(len(axis)):
        values = _block_values(groups, table[:, b : b + 1], [table] * (d - 1))
        bad = np.flatnonzero(np.abs(values) <= DENOMINATOR_THRESHOLD)
        if bad.size:
            return False, _product_point(axis, d, b * rows + int(bad[0]))
    return True, None


@dataclass(frozen=True)
class CrosscheckReport:
    """Both sides of the slice-criterion equivalence on one input."""

    verdict: str
    wronskian: Polynomial
    certificate: object
    evidence: object
    scan: ScanReport
    artin_result: object
    artin_attempted: bool


def crosscheck_slice_criterion(
    p,
    q,
    candidates=None,
    real_grid=None,
    halfplane_grid=None,
    holomorphy_grid=None,
):
    """Exact SOS decision vs numeric slice scan for f = p/q.

    Verdicts: AGREE_SOS_HERGLOTZ, AGREE_NONSOS_NONHERGLOTZ, or DISAGREE.
    A DISAGREE is flagged for manual review (grid artifact or numeric
    failure), never auto-resolved; an Artin certification attempt on the
    Wronskian is attached to it as extra diagnostic context.
    """
    for name, poly in (("p", p), ("q", q)):
        if not isinstance(poly, Polynomial):
            raise StructuralError(f"{name} must be a Polynomial")
    if p.nvars != q.nvars:
        raise StructuralError("p and q must share the variable count")
    ok, bad_point = holomorphy_sample_check(q, holomorphy_grid)
    if not ok:
        raise PreconditionError(
            f"q vanishes at the sampled poly-halfplane point {bad_point}; "
            "f is not holomorphic there"
        )

    W = wronskian(q, p, 1)
    outcome = sos_certify(W)
    certificate = outcome if isinstance(outcome, SosCertificate) else None
    evidence = outcome if isinstance(outcome, InfeasibilityEvidence) else None

    scan = slice_scan(RationalFunction(p, q), real_grid, halfplane_grid)

    if certificate is not None and scan.verdict == "pass":
        verdict = "AGREE_SOS_HERGLOTZ"
    elif certificate is None and scan.verdict == "fail":
        verdict = "AGREE_NONSOS_NONHERGLOTZ"
    else:
        verdict = "DISAGREE"

    artin_result = None
    artin_attempted = False
    if verdict == "DISAGREE":
        artin_attempted = True
        artin_result = artin_certify(W, candidates)

    return CrosscheckReport(
        verdict=verdict,
        wronskian=W,
        certificate=certificate,
        evidence=evidence,
        scan=scan,
        artin_result=artin_result,
        artin_attempted=artin_attempted,
    )
