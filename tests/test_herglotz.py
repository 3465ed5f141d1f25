"""Slice-criterion scanning and the exact-vs-numeric crosscheck."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


class TestCrosscheck:
    def test_agree_positive_single_variable(self):
        report = crosscheck_slice_criterion(poly("-1", 1), poly("z1"))
        assert isinstance(report, CrosscheckReport)
        assert report.verdict == "AGREE_SOS_HERGLOTZ"
        assert isinstance(report.certificate, SosCertificate)
        assert report.evidence is None
        assert report.scan.verdict == "pass"
        assert not report.artin_attempted

    def test_agree_positive_two_variables(self):
        report = crosscheck_slice_criterion(poly("-(z1 + z2)"), poly("z1*z2"))
        assert report.verdict == "AGREE_SOS_HERGLOTZ"

    def test_agree_negative_single_variable(self):
        report = crosscheck_slice_criterion(poly("1", 1), poly("z1"))
        assert report.verdict == "AGREE_NONSOS_NONHERGLOTZ"
        assert report.certificate is None
        assert isinstance(report.evidence, InfeasibilityEvidence)
        assert report.scan.verdict == "fail"
        assert not report.artin_attempted

    def test_agree_negative_two_variables(self):
        report = crosscheck_slice_criterion(poly("z1*z2"), poly("1", 2))
        assert report.verdict == "AGREE_NONSOS_NONHERGLOTZ"

    def test_disagreement_attaches_artin_attempt(self):
        # a coarse custom grid misses the slice failure of f = z1^2, while
        # the exact side correctly rejects the odd Wronskian: DISAGREE
        report = crosscheck_slice_criterion(
            poly("z1^2"),
            poly("1", 1),
            halfplane_grid=[1 + 0.5j, 2 + 1j],
        )
        assert report.verdict == "DISAGREE"
        assert report.artin_attempted
        assert report.artin_result is None
        assert report.scan.verdict == "pass"
        assert report.certificate is None

    def test_holomorphy_gate(self):
        with pytest.raises(PreconditionError):
            crosscheck_slice_criterion(poly("z1"), poly("z1^2 + 1"))

    def test_variable_count_mismatch(self):
        with pytest.raises(StructuralError):
            crosscheck_slice_criterion(poly("z1"), poly("z1*z2"))

    def test_non_polynomial_rejected(self):
        with pytest.raises(StructuralError):
            crosscheck_slice_criterion("-1", poly("z1"))
