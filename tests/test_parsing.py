"""Polynomial text grammar: accepted forms and positioned errors."""

from fractions import Fraction

import pytest

from sospencil.errors import ParseError
from sospencil.parsing import max_variable_index, parse_polynomial
from sospencil.polycore import Polynomial


class TestAccepted:
    def test_basic_terms(self):
        p = parse_polynomial("z1^2 + 2*z1*z2 - 3")
        assert p.nvars == 2
        assert p == parse_polynomial("-3 + z1*z1 + z2*2*z1")

    def test_rational_coefficients(self):
        p = parse_polynomial("1/2*z1 - 3/4")
        assert p == Polynomial(1, {(1,): Fraction(1, 2), (0,): Fraction(-3, 4)})

    def test_parentheses_and_unary_minus(self):
        assert parse_polynomial("-(z1 + z2)^2") == -(parse_polynomial("z1 + z2") ** 2)

    def test_power_binds_tighter_than_product(self):
        assert parse_polynomial("2*z1^3") == parse_polynomial("2*(z1^3)")

    def test_whitespace_insensitive(self):
        assert parse_polynomial(" z1+ z2 ") == parse_polynomial("z1+z2")

    def test_constant_has_no_variables(self):
        p = parse_polynomial("7")
        assert p.nvars == 0 and not p.is_zero()

    def test_str_round_trip(self):
        texts = ["z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1", "-z1 + 1/2", "z3^2"]
        for text in texts:
            p = parse_polynomial(text)
            assert parse_polynomial(str(p), nvars=p.nvars) == p


class TestVariableCounting:
    def test_inferred_from_largest_index(self):
        assert parse_polynomial("z3").nvars == 3
        assert max_variable_index("z2 + z5*z1") == 5
        assert max_variable_index("4") == 0

    def test_explicit_nvars_widens(self):
        p = parse_polynomial("z1", nvars=3)
        assert p.nvars == 3
        assert p == Polynomial.variable(1, 3)

    def test_explicit_nvars_too_small(self):
        with pytest.raises(ParseError):
            parse_polynomial("z3", nvars=2)


class TestRejected:
    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("2.5*z1", 1, 2),  # floats are not rational literals
            ("z0", 1, 1),  # variable indices start at 1
            ("z1 +", 1, 5),
            ("2z1", 1, 2),  # products need an explicit *
            ("z1**2", 1, 4),
            ("(z1", 1, 4),
            ("", 1, 1),
        ],
    )
    def test_position_reported(self, text, line, col):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert info.value.line == line
        assert info.value.col == col

    def test_multiline_position(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("z1 +\n @")
        assert info.value.line == 2
