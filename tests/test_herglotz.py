"""Slice-criterion scanning and the exact-vs-numeric crosscheck."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sospencil import herglotz, soscert
from sospencil.errors import (
    InconclusiveScanError,
    PreconditionError,
    StructuralError,
)
from sospencil.herglotz import (
    DENOMINATOR_THRESHOLD,
    SCAN_TOLERANCE,
    CrosscheckReport,
    ScanReport,
    crosscheck_slice_criterion,
    default_halfplane_points,
    default_holomorphy_points,
    default_real_axis,
    holomorphy_sample_check,
    slice_scan,
)
from sospencil.parsing import parse_polynomial
from sospencil.polycore import Polynomial, RationalFunction
from sospencil.soscert import InfeasibilityEvidence, SosCertificate


def poly(text, nvars=None):
    return parse_polynomial(text, nvars=nvars)


def ratio(p_text, q_text, nvars=None):
    return RationalFunction(poly(p_text, nvars), poly(q_text, nvars))


# -- per-point references: one eval_complex call per grid point ---------------


def reference_scan(f, real_axis, halfplane):
    """(min_im, witness, samples, skipped) in itertools.product order."""
    min_im = witness = None
    samples = skipped = 0
    for xhat in itertools.product(real_axis, repeat=f.nvars - 1):
        for z1 in halfplane:
            point = (z1,) + tuple(complex(x) for x in xhat)
            qv = f.q.eval_complex(point)
            if abs(qv) <= DENOMINATOR_THRESHOLD:
                skipped += 1
                continue
            value = (f.p.eval_complex(point) / qv).imag
            samples += 1
            if min_im is None or value < min_im:
                min_im, witness = value, point
    return min_im, witness, samples, skipped


def reference_holomorphy(q, axis):
    for point in itertools.product(axis, repeat=q.nvars):
        if abs(q.eval_complex(point)) <= DENOMINATOR_THRESHOLD:
            return False, point
    return True, None


# the block evaluator sums in another order than eval_complex; fixed before
# any comparison was run, from float64 rounding on these small inputs
MIN_IM_RTOL = 1e-12
HALF_INTEGERS = tuple(x / 2 for x in range(-6, 7))


@st.composite
def sparse_polys(draw, nvars):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars),
            st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3))),
            min_size=1,
            max_size=4,
        )
    )
    return Polynomial(nvars, terms)


@st.composite
def scan_cases(draw):
    d = draw(st.integers(1, 4))
    p = draw(sparse_polys(d))
    q = draw(sparse_polys(d))
    if q.is_zero():
        q = Polynomial.one(d)
    if d > 1 and draw(st.booleans()):
        q = q * Polynomial.variable(2, d)  # vanishes on the grid where x_2 = 0
    real_axis = draw(
        st.lists(st.sampled_from(HALF_INTEGERS), min_size=1, max_size=3, unique=True)
    )
    halfplane = draw(
        st.lists(
            st.builds(
                complex, st.sampled_from(HALF_INTEGERS), st.sampled_from((0.1, 0.5, 1.0, 2.0))
            ),
            min_size=1,
            max_size=4,
        )
    )
    return RationalFunction(p, q), tuple(real_axis), tuple(halfplane)


class TestDefaultGrids:
    def test_shapes(self):
        assert len(default_real_axis()) == 13
        assert len(default_halfplane_points()) == 52
        assert len(default_holomorphy_points()) == 21
        assert all(z.imag > 0 for z in default_halfplane_points())
        assert all(z.imag > 0 for z in default_holomorphy_points())


class TestSliceScan:
    def test_herglotz_function_passes(self):
        report = slice_scan(ratio("-1", "z1", 1))
        assert isinstance(report, ScanReport)
        assert report.verdict == "pass"
        assert report.min_im >= 0
        assert report.skipped == 0
        assert report.samples == 52

    def test_sign_flip_fails_with_witness(self):
        # Im(1/z1) = -Im z1 / |z1|^2, most negative at the grid point 0.1j
        report = slice_scan(ratio("1", "z1", 1))
        assert report.verdict == "fail"
        assert report.witness == (0.1j,)
        assert abs(report.min_im + 10.0) < 1e-9

    def test_polynomial_slice_failure(self):
        report = slice_scan(ratio("z1*z2", "1", 2))
        assert report.verdict == "fail"
        # Im(z1 x2) = x2 Im z1, minimized at x2 = -3, Im z1 = 2
        assert abs(report.min_im + 6.0) < 1e-9

    def test_two_variable_pass_counts_samples(self):
        report = slice_scan(ratio("-(z1 + z2)", "z1*z2", 2))
        # the x2 = 0 slice kills the denominator at every z1 sample
        assert report.verdict == "pass"
        assert report.skipped == 52
        assert report.samples == 12 * 52

    def test_pinned_denominator_skips(self):
        report = slice_scan(ratio("1", "z2", 2))
        assert report.skipped == 52
        assert report.samples == 12 * 52
        assert report.verdict == "pass"
        assert abs(report.min_im) < 1e-12

    def test_all_points_skipped(self):
        with pytest.raises(InconclusiveScanError):
            slice_scan(ratio("1", "z2", 2), real_grid=[0])

    def test_custom_grids_recorded(self):
        report = slice_scan(
            ratio("-1", "z1", 1), halfplane_grid=[1j, 0.5 + 2j]
        )
        assert report.halfplane == (1j, 0.5 + 2j)
        assert report.samples == 2

    def test_rejects_lower_halfplane_point(self):
        with pytest.raises(StructuralError):
            slice_scan(ratio("-1", "z1", 1), halfplane_grid=[1 - 1j])

    def test_rejects_real_axis_point(self):
        with pytest.raises(StructuralError):
            slice_scan(ratio("-1", "z1", 1), halfplane_grid=[1.5 + 0j])

    def test_rejects_empty_grid(self):
        with pytest.raises(StructuralError):
            slice_scan(ratio("-1", "z1", 1), halfplane_grid=[])

    def test_rejects_plain_polynomial(self):
        with pytest.raises(StructuralError):
            slice_scan(poly("z1"))

    @pytest.mark.parametrize(
        "p_text, q_text, nvars",
        [
            ("-1", "z1", 1),
            ("1", "z1", 1),
            ("z1*z2", "1", 2),
            ("-(z1 + z2)", "z1*z2", 2),
            ("1", "z2", 2),
        ],
    )
    def test_fixtures_match_reference_exactly(self, p_text, q_text, nvars):
        f = ratio(p_text, q_text, nvars)
        report = slice_scan(f)
        expected = reference_scan(f, default_real_axis(), default_halfplane_points())
        assert (report.min_im, report.witness, report.samples, report.skipped) == expected
        assert all(type(z) is complex for z in report.witness)

    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_blocks_match_per_point_reference(self, case):
        f, real_axis, halfplane = case
        ref_min, _, samples, skipped = reference_scan(f, real_axis, halfplane)
        if ref_min is None:
            with pytest.raises(InconclusiveScanError):
                slice_scan(f, real_axis, halfplane)
            return
        report = slice_scan(f, real_axis, halfplane)
        assert (report.samples, report.skipped) == (samples, skipped)
        assert report.verdict == ("fail" if ref_min < -SCAN_TOLERANCE else "pass")
        tolerance = MIN_IM_RTOL * max(1.0, abs(ref_min))
        assert abs(report.min_im - ref_min) <= tolerance
        # near-ties may pick another witness: it need only attain min_im
        z1, *xhat = report.witness
        assert z1 in halfplane
        assert all(x.imag == 0 and x.real in real_axis for x in xhat)
        assert all(type(z) is complex for z in report.witness)
        qv = f.q.eval_complex(report.witness)
        assert abs(qv) > DENOMINATOR_THRESHOLD
        value = (f.p.eval_complex(report.witness) / qv).imag
        assert abs(value - report.min_im) <= tolerance


class TestHolomorphyCheck:
    def test_nonvanishing_passes(self):
        ok, witness = holomorphy_sample_check(poly("z1", 1))
        assert ok and witness is None

    def test_zero_in_halfplane_found(self):
        ok, witness = holomorphy_sample_check(poly("z1^2 + 1"))
        assert not ok
        assert witness == (1j,)

    def test_rejects_bad_grid(self):
        with pytest.raises(StructuralError):
            holomorphy_sample_check(poly("z1"), grid=[0.5 - 1j])

    def test_first_witness_in_product_order(self):
        q = poly("(z1^2 + 1)*(z2^2 + 4)")
        result = holomorphy_sample_check(q)
        assert result == reference_holomorphy(q, default_holomorphy_points())
        # z1 is the outermost coordinate: its first grid value, then z2 = 2i
        assert result == (False, (-3 + 0.5j, 2j))

    def test_three_variable_pass(self):
        q = poly("z1 + z2 + z3")
        assert holomorphy_sample_check(q) == (True, None)
        assert reference_holomorphy(q, default_holomorphy_points()) == (True, None)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(z1 + z2 + 2*z3 + z4 + 1)*(z1 + 2*z2 + z3 + 3*z4 + 3)", (True, None)),
            # (z1^2 + 4) + 3 (z4^2 + 1): on this grid, zero only where z1 = 2i
            # (the 12th of 21 runs) and z4 = i
            ("z1^2 + 3*z4^2 + 7", (False, (2j, -3 + 0.5j, -3 + 0.5j, 1j))),
        ],
    )
    def test_four_variables_share_row_sums(self, text, expected, monkeypatch):
        # 21^3 points per z1 run: each of the 21 blocks holds one run, and
        # all of them use the one set of z2..z4 row sums
        q = poly(text)
        calls = []
        row_sums = herglotz._row_sums

        def spy(*args):
            calls.append(args)
            return row_sums(*args)

        monkeypatch.setattr(herglotz, "_row_sums", spy)
        axis = default_holomorphy_points()
        assert len(herglotz._blocks(len(axis), len(axis) ** 3)) == 21
        assert holomorphy_sample_check(q) == expected
        assert len(calls) == 1
        assert reference_holomorphy(q, axis) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_point_reference(self, data):
        # products of factors z_k^2 + c vanish exactly at the grid points i sqrt(c)
        d = data.draw(st.integers(1, 3))
        q = Polynomial.one(d)
        for k, c in data.draw(
            st.lists(st.tuples(st.integers(1, d), st.sampled_from((1, 4))), max_size=3)
        ):
            q = q * (Polynomial.variable(k, d) * Polynomial.variable(k, d) + Polynomial.constant(c, d))
        axis = data.draw(
            st.lists(st.sampled_from((1j, 2j, 0.5 + 1j, -1 + 0.5j, 3 + 2j)), min_size=1, max_size=4)
        )
        assert holomorphy_sample_check(q, axis) == reference_holomorphy(q, tuple(axis))


class TestNonFiniteGrids:
    # nan compares false with everything, so a nan grid value used to pass
    # the half-plane check and become the scan minimum, printed as NaN
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scan_rejects_real_value(self, value):
        with pytest.raises(StructuralError, match="not finite"):
            slice_scan(ratio("-z1*z2^2", "1", 2), real_grid=[value, 1.0])

    @pytest.mark.parametrize(
        "point",
        [complex(0, math.nan), complex(math.nan, 1), complex(math.inf, 1), complex(1, math.inf)],
    )
    def test_scan_rejects_halfplane_point(self, point):
        with pytest.raises(StructuralError, match="not finite"):
            slice_scan(ratio("-1", "z1", 1), halfplane_grid=[1j, point])

    def test_scan_rejects_real_value_at_one_variable(self):
        # the report records the real axis even where no coordinate is pinned
        with pytest.raises(StructuralError, match="not finite"):
            slice_scan(ratio("-1", "z1", 1), real_grid=[math.nan])

    @pytest.mark.parametrize("point", [complex(0, math.nan), complex(math.inf, 2)])
    def test_holomorphy_rejects_point(self, point):
        # complex(0, nan) used to give (True, None)
        for grid in ([point], [1j, point]):
            with pytest.raises(StructuralError, match="not finite"):
                holomorphy_sample_check(poly("z1 + z2"), grid=grid)


# -- block size: a result must not depend on how the grid is cut ----------------

QUARTER_INTEGERS = tuple(x / 4 for x in range(-20, 21))
# holds i and 2i, where the factors z_k^2 + 1 and z_k^2 + 4 vanish
HALFPLANE_POOL = tuple(
    complex(x / 4, y) for x in range(-8, 9) for y in (0.5, 1.0, 2.0)
)
# the longest real axis (scans) or holomorphy axis drawn at each d
SCAN_AXIS_MAX = {1: 40, 2: 40, 3: 40, 4: 12}
HOLOMORPHY_AXIS_MAX = {1: 40, 2: 40, 3: 12, 4: 6}


def under_budgets(budgets, call):
    """call() with herglotz._BLOCK_POINTS at each budget: results, or error types."""
    results = []
    for budget in budgets:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(herglotz, "_BLOCK_POINTS", budget)
            try:
                results.append(call())
            except InconclusiveScanError as exc:
                results.append(type(exc))
    return results


def ragged_budget(draw, runs, run_points):
    """A budget of k runs and a part of one, with k not dividing runs if it can."""
    ks = [k for k in range(2, runs) if runs % k] or [1]
    return draw(st.sampled_from(ks)) * run_points + draw(st.integers(0, run_points - 1))


@st.composite
def wide_polys(draw, nvars):
    # up to 16 terms in z_2..z_d degree 9: one exponent of z_1 can hold 8 or
    # more terms, which numpy would sum pairwise along a one-row block
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 2), *[st.integers(0, 9)] * (nvars - 1)),
            st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3))),
            min_size=1,
            max_size=16,
        )
    )
    return Polynomial(nvars, terms)


class TestBlockSizeIndependence:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_scan(self, data):
        d = data.draw(st.integers(1, 4))
        p = data.draw(st.one_of(sparse_polys(d), wide_polys(d)))
        q = data.draw(st.one_of(sparse_polys(d), wide_polys(d)))
        if q.is_zero():
            q = Polynomial.one(d)
        real_axis = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(QUARTER_INTEGERS),
                    min_size=1,
                    max_size=SCAN_AXIS_MAX[d],
                    unique=True,
                )
            )
        )
        halfplane = tuple(
            data.draw(st.lists(st.sampled_from(HALFPLANE_POOL), min_size=1, max_size=4))
        )
        runs = len(real_axis) if d > 1 else 1
        run_points = len(real_axis) ** max(d - 2, 0) * len(halfplane)
        budgets = (1, ragged_budget(data.draw, runs, run_points), herglotz._BLOCK_POINTS)
        f = RationalFunction(p, q)
        results = under_budgets(budgets, lambda: slice_scan(f, real_axis, halfplane))
        # ScanReport equality: min_im, witness, samples and skipped exactly
        assert results == [results[0]] * 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_holomorphy(self, data):
        d = data.draw(st.integers(1, 4))
        q = Polynomial.one(d)
        for k, c in data.draw(
            st.lists(st.tuples(st.integers(1, d), st.sampled_from((1, 4))), max_size=3)
        ):
            q = q * (Polynomial.variable(k, d) * Polynomial.variable(k, d) + Polynomial.constant(c, d))
        if data.draw(st.booleans()):
            q = q + data.draw(wide_polys(d))
        axis = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(HALFPLANE_POOL),
                    min_size=1,
                    max_size=HOLOMORPHY_AXIS_MAX[d],
                    unique=True,
                )
            )
        )
        budgets = (1, ragged_budget(data.draw, len(axis), len(axis) ** (d - 1)), herglotz._BLOCK_POINTS)
        results = under_budgets(budgets, lambda: holomorphy_sample_check(q, axis))
        assert results == [results[0]] * 3

    def test_scan_witness_in_ragged_last_block(self):
        # Im f = Im z1 * P(x2) with P of 12 terms, least at x2 = 5/4, the
        # last of 19 axis values; six runs per block leave it alone in the
        # last. Summed pairwise, as numpy sums a one-row block, P(5/4)
        # differs from the term-order sum in its last bit
        coeffs = {(1, k): Fraction((-1) ** k * (k + 3), 7 + k) for k in range(12)}
        f = RationalFunction(Polynomial(2, coeffs), Polynomial.one(2))
        real_axis = tuple(x / 8 for x in range(-8, 11))
        halfplane = (0.5 + 1j, 2j, -1 + 0.5j)
        budgets = (1, 6 * len(halfplane), 6 * len(halfplane) + 2, herglotz._BLOCK_POINTS)
        results = under_budgets(budgets, lambda: slice_scan(f, real_axis, halfplane))
        assert results == [results[0]] * 4
        report = results[0]
        assert report.witness == (2j, 1.25 + 0j)
        assert report.verdict == "fail"
        ref_min, ref_witness, _, _ = reference_scan(f, real_axis, halfplane)
        assert ref_witness == report.witness
        assert abs(report.min_im - ref_min) <= MIN_IM_RTOL * abs(ref_min)

    def test_first_holomorphy_zero_in_ragged_last_block(self):
        # q = a^2 + b^2 vanishes only where a = b = 0 on this grid: at
        # (2i, i), with z1 = 2i the last z1 value, alone in the last block
        # of three runs, and z2 = i the fourth z2 value
        q = poly("(z1^2 + 4)^2 + (z2^2 + 1)^2")
        axis = (0.5 + 1j, -1 + 0.5j, 1 + 2j, 1j, 0.5 + 0.5j, -0.5 + 2j, 2j)
        budgets = (1, 3 * len(axis), 3 * len(axis) + 5, herglotz._BLOCK_POINTS)
        results = under_budgets(budgets, lambda: holomorphy_sample_check(q, axis))
        assert results == [(False, (2j, 1j))] * 4
        assert reference_holomorphy(q, axis) == (False, (2j, 1j))


class TestCrosscheck:
    def test_agree_positive_single_variable(self):
        report = crosscheck_slice_criterion(poly("-1", 1), poly("z1"))
        assert isinstance(report, CrosscheckReport)
        assert report.verdict == "AGREE_SOS_HERGLOTZ"
        assert isinstance(report.certificate, SosCertificate)
        assert report.evidence is None
        assert report.scan.verdict == "pass"

    def test_agree_positive_two_variables(self):
        report = crosscheck_slice_criterion(poly("-(z1 + z2)"), poly("z1*z2"))
        assert report.verdict == "AGREE_SOS_HERGLOTZ"

    def test_agree_negative_single_variable(self):
        report = crosscheck_slice_criterion(poly("1", 1), poly("z1"))
        assert report.verdict == "AGREE_NONSOS_NONHERGLOTZ"
        assert report.certificate is None
        assert isinstance(report.evidence, InfeasibilityEvidence)
        assert report.scan.verdict == "fail"

    def test_agree_negative_two_variables(self):
        report = crosscheck_slice_criterion(poly("z1*z2"), poly("1", 2))
        assert report.verdict == "AGREE_NONSOS_NONHERGLOTZ"

    def test_disagreement_reports_both_sides(self):
        # a coarse custom grid misses the slice failure of f = z1^2, while
        # the exact side correctly rejects the odd Wronskian: DISAGREE, and
        # the report holds the two sides and nothing else
        report = crosscheck_slice_criterion(
            poly("z1^2"),
            poly("1", 1),
            halfplane_grid=[1 + 0.5j, 2 + 1j],
        )
        assert report.verdict == "DISAGREE"
        assert report.wronskian == poly("2*z1")
        assert report.certificate is None
        assert report.evidence.reason == "odd total degree"
        assert report.scan.verdict == "pass"
        assert [field.name for field in dataclasses.fields(report)] == [
            "verdict",
            "wronskian",
            "certificate",
            "evidence",
            "scan",
        ]

    @pytest.mark.parametrize(
        "p, q, verdict",
        [("z1^3", "1", "DISAGREE"), ("-1", "z1", "AGREE_SOS_HERGLOTZ")],
    )
    def test_one_sos_decision_whatever_the_verdict(self, monkeypatch, p, q, verdict):
        # z1^3 has the SOS Wronskian 3*z1^2 but fails the scan
        calls = []
        certify = soscert.sos_certify

        def counted(F):
            calls.append(F)
            return certify(F)

        monkeypatch.setattr(soscert, "sos_certify", counted)
        monkeypatch.setattr(herglotz, "sos_certify", counted)
        report = crosscheck_slice_criterion(poly(p, 1), poly(q, 1))
        assert report.verdict == verdict
        assert calls == [report.wronskian]

    def test_holomorphy_gate(self):
        with pytest.raises(PreconditionError):
            crosscheck_slice_criterion(poly("z1"), poly("z1^2 + 1"))

    def test_variable_count_mismatch(self):
        with pytest.raises(StructuralError):
            crosscheck_slice_criterion(poly("z1"), poly("z1*z2"))

    def test_non_polynomial_rejected(self):
        with pytest.raises(StructuralError):
            crosscheck_slice_criterion("-1", poly("z1"))

    @pytest.mark.parametrize(
        "grids, message",
        [
            ({"real_grid": [math.nan]}, "not finite"),
            ({"real_grid": [0.0, math.inf]}, "not finite"),
            ({"halfplane_grid": [1j, 2.0 + 0j]}, "nonpositive imaginary part"),
            ({"halfplane_grid": [1 - 1j]}, "nonpositive imaginary part"),
            ({"halfplane_grid": [complex(0, math.nan)]}, "not finite"),
            ({"halfplane_grid": []}, "nonempty"),
        ],
    )
    def test_scan_grids_checked_before_exact_work(self, grids, message, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("ran before the scan grids were checked")

        for name in ("holomorphy_sample_check", "wronskian", "sos_certify"):
            monkeypatch.setattr(herglotz, name, must_not_run)
        with pytest.raises(StructuralError, match=message):
            crosscheck_slice_criterion(poly("-(z1 + z2)"), poly("z1*z2"), **grids)
