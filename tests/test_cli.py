"""Command-line interface: exit codes, JSON documents, error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sospencil
from sospencil import serialize, soscert
from sospencil.cli import main
from sospencil.parsing import parse_polynomial
from sospencil.soscert import artin_certify, artin_minimize


DATA = Path(__file__).parent / "data"
MOTZKIN = "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1"
TERNARY_MOTZKIN = "z1^4*z2^2 + z1^2*z2^4 + z3^6 - 3*z1^2*z2^2*z3^2"
ROBINSON = (
    "z1^6 + z2^6 + 1 - z1^4*z2^2 - z1^2*z2^4 - z1^4 - z2^4 - z1^2 - z2^2"
    " + 3*z1^2*z2^2"
)
# a realization whose product pencil B is PSD on neither axis, so the
# realization adds a nonzero combination of null pencils to it
DEFECT_P = (
    "z1^3 + 5*z1^2*z2 + 8*z1*z2^2 + 4*z2^3 + 2*z1^2 + 13/2*z1*z2"
    " + 5*z2^2 - 29/4*z1 - 8*z2 - 31/4"
)
DEFECT_Q = "(z1 + z2 + 1/2)*(z1 + 2*z2 + 3)"
POLE = "z1 + z2 + 2*z3 + 1"
# f = -1/z1 - 1/(z1+1) - 1/(z1+2)
THREE_POLES = ("-((z1+1)*(z1+2) + z1*(z1+2) + z1*(z1+1))", "z1*(z1+1)*(z1+2)", "1")
# documents that must not depend on the hash seed, with their exit codes:
# the sign-symmetric refutation and the minimized Artin certificate of
# Robinson's form, a refutation solved by eigendecomposition, face-step,
# vertex-hunt and no-direction certificates, realizations searched over
# null pencils, taken as the product pencil and PSD on axis 1 alone, the
# first with its Wronskian and product pencil, a kernel basis, a
# mixed-denominator product pencil, Herglotz scans and crosschecks in three
# variables, a DISAGREE crosscheck (the SOS Wronskian of z1^3 against its
# failing scan) and an Artin search that finds nothing
CI_LOOP = [
    (("sos", ROBINSON), 1),
    (("sos", "2*z2 - z1^2"), 1),
    (("artin", "--minimize", ROBINSON), 0),
    (("sos", f"(z1^2 + z2^2)^2*({MOTZKIN})"), 0),
    (("artin", TERNARY_MOTZKIN), 0),
    (("sos", "(-4/3*z1^2 + 4*z1*z2 - 9/2*z2)^2 + (-5*z1*z2 + 7/2)^2"), 0),
    (("sos", "196/9*z1^4 + z1^2*z2^2 + 140/3*z1^2*z2 + 10*z1*z2 + 25*z2^2 + 25"), 0),
    (("realize", DEFECT_P, DEFECT_Q, "1"), 0),
    (("realize", *THREE_POLES), 0),
    (("realize", "z1 - z2", "1", "1"), 0),
    (("kernel-basis", "--n", "3", "--caps", "2,2,1"), 0),
    (("wronskian", DEFECT_Q, DEFECT_P, "1"), 0),
    (("polarize", DEFECT_Q, DEFECT_P), 0),
    (("polarize", "1/3*z1^2 + 1/2*z2 - 2/5", "5/6*z1*z2 - 7/4*z2^2 + 1/7"), 0),
    (("herglotz-scan", f"(z1 + z3)*({POLE}) - 2", POLE), 0),
    (("herglotz-scan", f"(z1 + z3)*({POLE}) + 2", POLE), 1),
    (("crosscheck", f"(z1 + z3)*({POLE}) - 2", POLE), 0),
    (("crosscheck", f"(z1 + z3)*({POLE}) + 2", POLE), 0),
    (("crosscheck", "z1^3", "1"), 1),
    (("artin", "z1^2 - 1"), 1),
]
# runs each command of its JSON argument through cli.main and prints one
# JSON line [exit code, document] per command
CI_LOOP_CHILD = """
import contextlib, io, json, sys
from sospencil.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([code, out.getvalue()]))
"""


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

    def test_capacity_exit_two(self, capsys):
        # N = 165 basis monomials, above GRAM_CAPACITY
        code, out, err = run(capsys, "kernel-basis", "--n", "8", "--caps", "8,8,8")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "CapacityError"


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

    def test_coefficient_behind_pinned_rows_gives_full_family_evidence(self, capsys):
        # z1^2 and z2^2 are absent, so their rows are pinned to zero and
        # z1*z2 is out of reach: the evidence is against the whole basis
        code, doc = run_json(capsys, "sos", "z1*z2")
        assert code == 1
        assert doc["status"] == "infeasible"
        evidence = doc["evidence"]
        assert evidence["reason"] == (
            "a coefficient of F is reachable only through Gram rows that exact "
            "preprocessing pinned to zero"
        )
        assert evidence["margin"] > 0
        assert len(evidence["dual_matrix"]) == 3  # 1, z1, z2
        assert all(value <= 1e-8 for value in evidence["residuals"].values())

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

    @pytest.mark.parametrize(
        "text, candidates, factor, kept",
        [
            ("z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1", (), "z1^2 + z2^2", 1),
            (
                "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1",
                ("--candidates", "(z1^2 + z2^2)^2"),
                "(z1^2 + z2^2)^2",
                1,
            ),
            # F is SOS itself, so the greedy loop drops the whole denominator
            ("z1^2 + 1", ("--candidates", "z1^2 + 2"), "z1^2 + 2", 0),
        ],
    )
    def test_minimized_certificate_matches_library(
        self, capsys, text, candidates, factor, kept
    ):
        code, doc = run_json(capsys, "artin", text, *candidates, "--minimize")
        assert code == 0
        nvars = 2 if "z2" in text else 1
        F, s = parse_polynomial(text, nvars=nvars), parse_polynomial(factor, nvars=nvars)
        reduced, cert = artin_minimize(F, [(s, 1)])
        expected = json.loads(json.dumps(serialize.certificate_json(cert)))
        assert doc["minimized"]["certificate"] == expected
        assert doc["minimized"]["factors"] == [
            [serialize.polynomial_json(f), mult] for f, mult in reduced
        ]
        assert reduced == ([(s, 1)] if kept else [])

    def test_failure_exit_one(self, capsys):
        code, doc = run_json(capsys, "artin", "-1", "--candidates", "z1")
        assert code == 1
        assert doc["status"] == "no_certificate_in_family"


class TestGoldenDocuments:
    """Documents pinned byte for byte. The s^2 M and ternary Motzkin
    certificates come from a failed rounding of the max-min-eig optimum,
    then a face step that rounds; sample #42's comes from the vertex hunt,
    and the 196/9 input's from a face with no free direction. The kernel
    basis lists triple and quad elements, and the realization completes a
    nonzero defect. The outcome blocks of serialize are pinned by three
    more: the crosscheck of z1^3 (crosscheck_disagree_z1cubed.json), a
    DISAGREE whose report carries the SOS certificate of its Wronskian and
    the failing scan; the Artin search on z1^2 - 1
    (artin_no_certificate.json), which finds none; and the minimized Artin
    certificate of Robinson's form (artin_minimize_robinson.json)."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("sos", f"(z1^2 + z2^2)^2*({MOTZKIN})"), "sos_s2_motzkin.json"),
            (("artin", TERNARY_MOTZKIN), "artin_ternary_motzkin.json"),
        ],
    )
    def test_document_is_unchanged(self, capsys, monkeypatch, argv, name):
        stages = []
        for stage in ("_round_lam", "_face_step"):

            def spy(*args, _name=stage, _stage=getattr(soscert, stage)):
                result = _stage(*args)
                stages.append((_name, result is not None))
                return result

            monkeypatch.setattr(soscert, stage, spy)
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.encode() == (DATA / name).read_bytes()
        assert ("_round_lam", False) in stages and ("_face_step", True) in stages

    @pytest.mark.parametrize(
        "text, name, path",
        [
            # criterion-5 sample #42: no rational face, so the vertex hunt
            # finds the certificate
            pytest.param(
                "(-4/3*z1^2 + 4*z1*z2 - 9/2*z2)^2 + (-5*z1*z2 + 7/2)^2",
                "sos_hunt_sample42.json",
                [("_face_step", False), ("_vertex_hunt", True)],
                id="sample42",
            ),
            # the face step's face leaves no free direction
            pytest.param(
                "196/9*z1^4 + z1^2*z2^2 + 140/3*z1^2*z2 + 10*z1*z2 + 25*z2^2 + 25",
                "sos_face_no_directions.json",
                [("_face_step", True)],
                id="face_no_directions",
            ),
        ],
    )
    def test_hunt_and_face_documents(self, capsys, monkeypatch, text, name, path):
        stages = []
        for stage in ("_face_step", "_vertex_hunt"):

            def spy(*args, _name=stage, _stage=getattr(soscert, stage)):
                result = _stage(*args)
                stages.append((_name, result is not None))
                return result

            monkeypatch.setattr(soscert, stage, spy)
        code, out, err = run(capsys, "sos", text)
        assert code == 0 and err == ""
        assert out.encode() == (DATA / name).read_bytes()
        assert stages == path

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("kernel-basis", "--n", "3", "--caps", "2,2,1"), "kernel_basis_n3_caps221.json"),
            (("realize", DEFECT_P, DEFECT_Q, "1"), "realize_defect.json"),
        ],
    )
    def test_kernel_and_realization_documents(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.encode() == (DATA / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, expected, name",
        [
            (("crosscheck", "z1^3", "1"), 1, "crosscheck_disagree_z1cubed.json"),
            (("artin", "z1^2 - 1"), 1, "artin_no_certificate.json"),
            (("artin", "--minimize", ROBINSON), 0, "artin_minimize_robinson.json"),
        ],
    )
    def test_outcome_block_documents(self, capsys, argv, expected, name):
        code, out, err = run(capsys, *argv)
        assert code == expected and err == ""
        assert out.encode() == (DATA / name).read_bytes()


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

    def test_completed_defect_exit_zero(self, capsys):
        # B is PSD on neither axis, so the realization adds null pencils
        code, doc = run_json(
            capsys,
            "realize",
            "z1^3 + 5*z1^2*z2 + 8*z1*z2^2 + 4*z2^3 + 2*z1^2 + 13/2*z1*z2"
            " + 5*z2^2 - 29/4*z1 - 8*z2 - 31/4",
            "(z1 + z2 + 1/2)*(z1 + 2*z2 + 3)",
            "1",
        )
        assert code == 0
        assert doc["command"] == "realize"
        assert doc["status"] == "realization"
        assert len(doc["realization"]["pencil"]["matrices"]) == 3
        assert doc["realization"]["psd_axes"] == [1, 2]

    def test_capacity_exit_two(self, capsys):
        # B is PSD on no axis and its basis has N = 126 monomials, above
        # GRAM_CAPACITY, so the null pencils are refused
        code, out, err = run(capsys, "realize", "z1^5 + z2^5 + z3^5 + z4^5", "1", "1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "message": "Gram basis has 126 monomials, capacity 120",
            "type": "CapacityError",
        }

    def test_three_pole_realizes_on_every_axis(self, capsys):
        # f = -1/z1 - 1/(z1+1) - 1/(z1+2): its product pencil is PSD
        code, doc = run_json(capsys, "realize", *THREE_POLES)
        assert code == 0
        assert doc["status"] == "realization"
        assert doc["realization"]["psd_axes"] == [1]


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

    @pytest.mark.parametrize(
        "option, values",
        [
            ("--z1-imag", "0.1,0.5,1,2"),
            ("--z1-real", "-3,-2.5,-2,-1.5,-1,-0.5,0,0.5,1,1.5,2,2.5,3"),
        ],
    )
    def test_default_axis_values_give_default_grid(self, capsys, option, values):
        # the other axis then falls back to its default
        _, default, _ = run(capsys, "herglotz-scan", "-1", "z1")
        _, explicit, _ = run(capsys, "herglotz-scan", "-1", "z1", option, values)
        assert explicit == default

    @pytest.mark.parametrize(
        "option, values",
        [
            ("--xhat-values", "nan,1"),
            ("--xhat-values", "1,inf"),
            ("--z1-real", "0,nan"),
            ("--z1-imag", "nan"),
            ("--z1-imag", "1,inf"),
        ],
    )
    def test_non_finite_grid_value_exits_two(self, capsys, option, values):
        # --xhat-values nan,1 used to print "min_im": NaN, which is not JSON,
        # with a pass verdict and exit 0, though Im f = -y < 0 at x2 = 1
        code, out, err = run(capsys, "herglotz-scan", "-z1*z2^2", "1", option, values)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "StructuralError"
        assert "not finite" in error["message"]

    @pytest.mark.parametrize("option", ["--xhat-values", "--z1-real", "--z1-imag"])
    def test_empty_grid_value_exits_two(self, capsys, option):
        # an empty --z1-real or --z1-imag used to scan that axis's default
        # values, with a full report and exit 1
        code, out, err = run(capsys, "herglotz-scan", "-z1*z2^2", "1", option, "")
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error == {"message": "scan grids must be nonempty", "type": "StructuralError"}


class TestCrosscheck:
    def test_non_finite_grid_value_exits_two(self, capsys):
        code, out, err = run(capsys, "crosscheck", "-1", "z1", "--z1-imag", "nan")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "StructuralError"

    @pytest.mark.parametrize("option", ["--z1-real", "--z1-imag"])
    def test_empty_axis_exits_two(self, capsys, option):
        code, out, err = run(capsys, "crosscheck", "-1", "z1", option, "")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["message"] == "scan grids must be nonempty"

    def test_agreement_exit_zero(self, capsys):
        code, doc = run_json(capsys, "crosscheck", "-1", "z1")
        assert code == 0
        assert doc["report"]["verdict"] == "AGREE_SOS_HERGLOTZ"

    def test_negative_agreement_still_agrees(self, capsys):
        # both sides reject, which is agreement, so the crosscheck succeeds
        code, doc = run_json(capsys, "crosscheck", "1", "z1")
        assert code == 0
        assert doc["report"]["verdict"] == "AGREE_NONSOS_NONHERGLOTZ"

    def test_disagreement_exit_one(self, capsys):
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
        assert set(doc["report"]) == {"verdict", "wronskian", "sos", "scan"}

    def test_candidates_is_no_option(self, capsys):
        # Artin candidates belong to the artin command alone
        with pytest.raises(SystemExit) as info:
            main(["crosscheck", "-1", "z1", "--candidates", "z1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --candidates z1" in capsys.readouterr().err


class TestPlumbing:
    def test_leading_dash_positional(self, capsys):
        code, doc = run_json(capsys, "wronskian", "z1", "-(z1+z2)", "2")
        assert code == 0
        assert doc["wronskian"] == "-z1"

    @pytest.mark.parametrize(
        "command, positionals, options",
        [
            ("wronskian", ("-(z1+z2)", "z1", "1"), (("--output", "doc.json"),)),
            ("polarize", ("-(z1+z2)", "z1*z2"), (("--output", "doc.json"),)),
            ("kernel-basis", (), (("--n", "2"), ("--caps", "1,1"), ("--output", "doc.json"))),
            ("sos", ("-z1 + z1^2 + z1 + 1",), (("--output", "doc.json"),)),
            (
                "artin",
                ("-z1^2 + 2*z1^2 + 1",),
                (("--candidates", "z1^2 + 2"), ("--minimize", None), ("--output", "doc.json")),
            ),
            ("realize", ("-1", "z1", "1"), (("--output", "doc.json"),)),
            (
                "herglotz-scan",
                ("-(z1+z2)", "z1*z2"),
                (
                    ("--xhat-values", "1,2"),
                    ("--z1-real", "-1,0,1"),
                    ("--z1-imag", "0.5,1"),
                    ("--output", "doc.json"),
                ),
            ),
            (
                "crosscheck",
                ("-(z1+z2)", "z1*z2"),
                (
                    ("--xhat-values", "1"),
                    ("--z1-real", "-1,1"),
                    ("--z1-imag", "0.5"),
                    ("--output", "doc.json"),
                ),
            ),
        ],
    )
    def test_options_after_positionals(self, capsys, tmp_path, command, positionals, options):
        target = tmp_path / "doc.json"
        options = [
            (name, str(target) if name == "--output" else value) for name, value in options
        ]
        spaced = [
            token
            for name, value in options
            for token in ((name,) if value is None else (name, value))
        ]
        joined = [name if value is None else f"{name}={value}" for name, value in options]
        code, first, err = run(capsys, command, *spaced, *positionals)
        assert code in (0, 1) and err == ""
        assert json.loads(first)["command"] == command
        for argv in ((command, *positionals, *spaced), (command, *positionals, *joined)):
            assert run(capsys, *argv) == (code, first, "")
            assert target.read_text() == first

    def test_double_dash_separator(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        expected = run(capsys, "sos", "-z1+z1+1")
        assert expected[0] == 0
        assert run(capsys, "sos", "--", "-z1+z1+1") == expected
        assert run(capsys, "sos", "--output", str(target), "--", "-z1+z1+1") == expected
        assert target.read_text() == expected[1]
        # after '--' an option name is a positional too: a second polynomial
        with pytest.raises(SystemExit) as info:
            main(["sos", "--", "z1^2 + 1", "--output", str(target)])
        assert info.value.code == 2

    def test_unique_option_prefix(self, capsys):
        expected = run(capsys, "artin", "z1^2 + 1", "--candidates", "z1^2 + 2", "--minimize")
        assert expected[0] == 0
        for argv in (
            ("artin", "z1^2 + 1", "--cand", "z1^2 + 2", "--min"),
            ("artin", "--cand=z1^2 + 2", "z1^2 + 1", "--minimize"),
        ):
            assert run(capsys, *argv) == expected

    def test_ambiguous_option_prefix_exits_two(self, capsys):
        # --z1 is a prefix of both --z1-real and --z1-imag
        with pytest.raises(SystemExit) as info:
            main(["herglotz-scan", "-(z1+z2)", "z1*z2", "--z1", "0.5"])
        assert info.value.code == 2
        assert "ambiguous option" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option, token",
        [
            (("kernel-basis", "--n", "2", "--caps", "1,x"), "--caps", "x"),
            (("kernel-basis", "--n", "2", "--caps", ""), "--caps", ""),
            (("herglotz-scan", "-1", "z1", "--xhat-values", "0,abc"), "--xhat-values", "abc"),
            (("herglotz-scan", "-1", "z1", "--z1-real", "a"), "--z1-real", "a"),
            (("crosscheck", "-1", "z1", "--z1-imag", "b"), "--z1-imag", "b"),
            # an empty token is no number
            *(
                (("herglotz-scan", "-1", "z1", option, values), option, "")
                for option in ("--xhat-values", "--z1-real", "--z1-imag")
                for values in ("1,,2", "1,", ",")
            ),
        ],
    )
    def test_malformed_number_is_structured(self, capsys, argv, option, token):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "StructuralError"
        assert option in error["message"] and repr(token) in error["message"]

    def test_unwritable_output_is_structured(self, capsys, tmp_path):
        code, out, err = run(capsys, "sos", "z1^2 + 1", "--output", str(tmp_path))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "StructuralError"
        assert error["message"] == f"--output: cannot write {str(tmp_path)!r}: Is a directory"

    @pytest.mark.parametrize("text, col", [("-z1 +* 2", 6), ("  -z1 +* 2", 8)])
    def test_parse_error_column_of_dash_leading_polynomial(self, capsys, text, col):
        code, out, err = run(capsys, "sos", text)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError" and error["col"] == col

    def test_dash_leading_option_values_reach_the_command(
        self, capsys, monkeypatch, tmp_path
    ):
        code, _, err = run(capsys, "kernel-basis", "--n", "2", "--caps", "-x")
        assert code == 2
        assert json.loads(err)["error"]["message"] == "--caps: '-x' is not an integer"
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "sos", "z1^2 + 1", "--output", "-x.json")
        assert code == 0 and err == ""
        assert (tmp_path / "-x.json").read_text() == out
        F = parse_polynomial("z1^2 + 1")
        found = artin_certify(F, [-parse_polynomial("z1"), parse_polynomial("z1")])
        expected = {"schema": 1, "command": "artin", **serialize.artin_json(found)}
        code, doc = run_json(
            capsys, "artin", "z1^2 + 1", "--candidates", "-z1", "--candidates", "z1"
        )
        assert code == 0
        assert doc == json.loads(json.dumps(expected))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("kernel-basis", "--n", "-x", "--caps", "1"), "--n: invalid int value: '-x'"),
            (("wronskian", "z1", "1", "-x"), "k: invalid int value: '-x'"),
            (("sos", "z1^2 + 1", "-x"), "unrecognized arguments: -x"),
        ],
    )
    def test_usage_errors_quote_dash_leading_tokens_as_typed(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f" {message}\n")

    def test_help_after_the_subcommand_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sos", "-h"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sospencil sos")

    def test_double_dash_token_that_is_no_option_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sos", "--z1"])
        assert info.value.code == 2

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
        motzkin = "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1"
        for argv in (
            ("crosscheck", "-(z1+z2)", "z1*z2"),
            # full-family evidence after exact preprocessing
            ("sos", motzkin),
            # a face step certifies one of the minimization's trials
            ("artin", motzkin, "--candidates", "(z1^2 + z2^2)^2", "--minimize"),
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second

    def test_documents_do_not_depend_on_blas_threads(self):
        src = str(Path(sospencil.__file__).resolve().parents[1])
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))
            )
            outputs[threads] = [
                subprocess.run(
                    [sys.executable, "-m", "sospencil", *argv],
                    capture_output=True, env=env, check=False,
                ).stdout
                for argv in (
                    ("sos", "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1"),
                    ("artin", "z1^4*z2^2 + z1^2*z2^4 + z3^6 - 3*z1^2*z2^2*z3^2"),
                )
            ]
        assert all(outputs["1"])
        assert outputs["1"] == outputs["2"]

    def test_ci_documents_do_not_depend_on_the_hash_seed(self):
        # output that depends on dict or set order, or on the float path,
        # differs between two hash seeds
        src = str(Path(sospencil.__file__).resolve().parents[1])
        argvs = json.dumps([argv for argv, _ in CI_LOOP])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", CI_LOOP_CHILD, argvs],
                capture_output=True, env=env, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        results = [json.loads(line) for line in outputs[0].splitlines()]
        assert [code for code, _ in results] == [code for _, code in CI_LOOP]
        # the zero dual entries of the eigendecomposition solve print as 0.0
        assert "-0.0" not in results[1][1]

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2
