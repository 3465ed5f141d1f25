"""Command-line interface: exit codes, JSON documents, error reporting."""

import json

import pytest

from sospencil.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestWronskian:
    def test_reference_pair(self, capsys):
        code, doc = run_json(capsys, "wronskian", "z1*z2", "-(z1+z2)", "1")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["wronskian"] == "z2^2"
        assert doc["axis"] == 1

    def test_axis_zero_is_error(self, capsys):
        code, out, err = run(capsys, "wronskian", "z1", "1", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "StructuralError"


class TestPolarize:
    def test_verified_pencil(self, capsys):
        code, doc = run_json(capsys, "polarize", "z1*z2", "-(z1+z2)")
        assert code == 0
        assert doc["verified"] is True
        assert doc["issues"] == []
        assert len(doc["pencil"]["matrices"]) == 3


class TestKernelBasis:
    def test_counts_elements(self, capsys):
        code, doc = run_json(capsys, "kernel-basis", "--n", "2", "--caps", "1,1")
        assert code == 0
        assert doc["count"] == len(doc["elements"]) == 1
        assert doc["elements"][0]["kind"] == "quad"

    def test_trivial_kernel(self, capsys):
        code, doc = run_json(capsys, "kernel-basis", "--n", "1", "--caps", "1")
        assert code == 0
        assert doc["count"] == 0


class TestSos:
    def test_certificate_exit_zero(self, capsys):
        code, doc = run_json(capsys, "sos", "z1^2 + 1")
        assert code == 0
        assert doc["status"] == "certificate"
        assert doc["certificate"]["squares"]

    def test_motzkin_exit_one(self, capsys):
        code, doc = run_json(
            capsys, "sos", "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1"
        )
        assert code == 1
        assert doc["status"] == "infeasible"
        assert doc["evidence"]["margin"] > 0

    def test_odd_degree_is_infeasible(self, capsys):
        code, doc = run_json(capsys, "sos", "z1^3 + 1")
        assert code == 1
        assert doc["status"] == "infeasible"
        assert doc["evidence"]["reason"] == "odd total degree"

    def test_unrounded_sum_of_squares_is_inconclusive(self, capsys):
        # a sum of squares whose Gram matrices all share an irrational
        # kernel: no rounding is found, which is no evidence of infeasibility
        code, doc = run_json(
            capsys,
            "sos",
            "(-4*z3^2 + 3*z1 - 5*z2)^2 + (-5*z1*z3 - z2^2 + 1/2)^2"
            " + (-1/2*z1^2 - 1/2*z2*z3)^2",
        )
        assert code == 1
        assert doc["status"] == "inconclusive"
        assert doc["evidence"]["margin"] is None


class TestArtin:
    def test_default_family_covers_motzkin(self, capsys):
        code, doc = run_json(
            capsys, "artin", "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1"
        )
        assert code == 0
        assert doc["status"] == "certificate"
        assert doc["denominator"] == "z1^2 + z2^2"

    def test_minimize_reports_factors(self, capsys):
        code, doc = run_json(
            capsys,
            "artin",
            "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1",
            "--candidates",
            "(z1^2 + z2^2)^2",
            "--minimize",
        )
        assert code == 0
        # factors echo in expanded grammar form
        assert doc["minimized"]["factors"] == [
            ["z1^4 + 2*z1^2*z2^2 + z2^4", 1]
        ]

    def test_failure_exit_one(self, capsys):
        code, doc = run_json(capsys, "artin", "-1", "--candidates", "z1")
        assert code == 1
        assert doc["status"] == "no_certificate_in_family"


class TestRealize:
    def test_basic_realization(self, capsys):
        code, doc = run_json(capsys, "realize", "-1", "z1", "1")
        assert code == 0
        assert doc["status"] == "realization"
        assert doc["realization"]["pencil"]["matrices"]

    def test_uncertifiable_exit_one(self, capsys):
        code, doc = run_json(capsys, "realize", "z1^2", "1", "1")
        assert code == 1
        assert doc["status"] == "no_certificate"
        assert doc["evidence"]["reason"]


class TestHerglotzScan:
    def test_pass_exit_zero(self, capsys):
        code, doc = run_json(capsys, "herglotz-scan", "-1", "z1")
        assert code == 0
        assert doc["report"]["verdict"] == "pass"

    def test_fail_exit_one(self, capsys):
        code, doc = run_json(capsys, "herglotz-scan", "1", "z1")
        assert code == 1
        assert doc["report"]["verdict"] == "fail"
        assert doc["report"]["witness"] == [[0.0, 0.1]]

    def test_custom_grid_options(self, capsys):
        code, doc = run_json(
            capsys,
            "herglotz-scan",
            "-(z1+z2)",
            "z1*z2",
            "--xhat-values",
            "1,2",
            "--z1-real",
            "0,1",
            "--z1-imag",
            "0.5,1",
        )
        assert code == 0
        assert doc["report"]["samples"] == 8
        assert doc["report"]["grid"]["real_axis"] == [1.0, 2.0]


class TestCrosscheck:
    def test_agreement_exit_zero(self, capsys):
        code, doc = run_json(capsys, "crosscheck", "-1", "z1")
        assert code == 0
        assert doc["report"]["verdict"] == "AGREE_SOS_HERGLOTZ"

    def test_negative_agreement_still_agrees(self, capsys):
        # both sides reject, which is agreement, so the crosscheck succeeds
        code, doc = run_json(capsys, "crosscheck", "1", "z1")
        assert code == 0
        assert doc["report"]["verdict"] == "AGREE_NONSOS_NONHERGLOTZ"

    def test_disagreement_attaches_artin(self, capsys):
        code, doc = run_json(
            capsys,
            "crosscheck",
            "z1^2",
            "1",
            "--z1-real",
            "1,2",
            "--z1-imag",
            "0.5",
        )
        assert code == 1
        assert doc["report"]["verdict"] == "DISAGREE"
        assert doc["report"]["artin"]["status"] == "no_certificate_in_family"


class TestPlumbing:
    def test_leading_dash_positional(self, capsys):
        code, doc = run_json(capsys, "wronskian", "z1", "-(z1+z2)", "2")
        assert code == 0
        assert doc["wronskian"] == "-z1"

    def test_parse_error_structured(self, capsys):
        code, out, err = run(capsys, "sos", "z1 +")
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError"
        assert error["line"] == 1
        assert error["col"] == 5

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, out, err = run(
            capsys, "sos", "z1^2 + 1", "--output", str(target)
        )
        assert code == 0
        assert target.read_text() == out

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "crosscheck", "-(z1+z2)", "z1*z2")
        _, second, _ = run(capsys, "crosscheck", "-(z1+z2)", "z1*z2")
        assert first == second

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2
