"""JSON builders: deterministic, lossless shapes for every result object."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from sospencil import serialize
from sospencil.exactlinalg import SymMatrix
from sospencil.gramkernel import kernel_basis
from sospencil.herglotz import crosscheck_slice_criterion, slice_scan
from sospencil.parsing import parse_polynomial
from sospencil.polarize import product_polarization
from sospencil.polycore import RationalFunction, build_basis
from sospencil.realize import wronskian_realization
from sospencil.soscert import InfeasibilityEvidence, artin_certify, sos_certify


def poly(text, nvars=None):
    return parse_polynomial(text, nvars=nvars)


def test_fraction_and_complex_pairs():
    assert serialize.fraction_json(Fraction(-3, 6)) == [-1, 2]
    assert serialize.fraction_json(7) == [7, 1]
    assert serialize.complex_json(1.5 - 2j) == [1.5, -2.0]


def test_symmatrix_sorted_entries():
    m = SymMatrix(3)
    m.set(1, 2, Fraction(5))
    m.set(0, 0, Fraction(-1, 2))
    assert serialize.symmatrix_json(m) == {
        "size": 3,
        "entries": [[0, 0, -1, 2], [1, 2, 5, 1]],
    }


def test_basis_shape():
    doc = serialize.basis_json(build_basis(1, (1, 1)))
    assert doc["total_cap"] == 1
    assert doc["var_caps"] == [1, 1]
    assert [0, 0] in doc["monomials"]


def test_pencil_round_shape():
    pencil = product_polarization(poly("z1"), poly("-1", 1))
    doc = serialize.pencil_json(pencil)
    assert len(doc["matrices"]) == pencil.basis.nvars + 1
    assert doc["basis"]["monomials"]


def test_kernel_element_fields():
    element = kernel_basis(build_basis(2, (1, 1)))[0]
    doc = serialize.kernel_element_json(element)
    assert set(doc) == {"kind", "beta", "support", "matrix"}


def test_certificate_and_evidence_docs():
    cert = serialize.certificate_json(sos_certify(poly("z1^2 + 1")))
    assert cert["squares"]
    assert all(len(entry) == 4 for entry in cert["L"])
    evidence = serialize.evidence_json(sos_certify(poly("-1", 1)))
    assert evidence["reason"]


def test_reports_serialize_to_json():
    scan = slice_scan(RationalFunction(poly("-1", 1), poly("z1")))
    cross = crosscheck_slice_criterion(poly("-1", 1), poly("z1"))
    realization = wronskian_realization(poly("-1", 1), poly("z1"), poly("1", 1))
    blob = json.dumps(
        {
            "scan": serialize.scan_report_json(scan),
            "cross": serialize.crosscheck_json(cross),
            "realization": serialize.realization_json(realization),
        },
        sort_keys=True,
    )
    parsed = json.loads(blob)
    assert parsed["scan"]["verdict"] == "pass"
    assert parsed["cross"]["verdict"] == "AGREE_SOS_HERGLOTZ"
    assert parsed["realization"]["p"] == "-1"


@pytest.mark.parametrize("p, q", [("z1^3", "1"), ("1", "z1")])
def test_crosscheck_reuses_outcome_blocks(p, q):
    # z1^3 disagrees on a certified Wronskian; 1/z1 agrees on a refuted one
    report = crosscheck_slice_criterion(poly(p, 1), poly(q, 1))
    W = report.wronskian
    doc = serialize.crosscheck_json(report)
    assert doc["sos"] == serialize.sos_outcome_json(W, sos_certify(W))
    assert doc["scan"] == serialize.scan_report_json(report.scan)
    assert set(doc) == {"verdict", "wronskian", "sos", "scan"}


def test_disagreement_with_artin_certificate():
    # the report of a coarse-grid DISAGREE, its Wronskian replaced by
    # Motzkin's form, which is not SOS but has an Artin certificate: the
    # document holds the gated evidence and the scan, and no Artin block
    report = crosscheck_slice_criterion(
        poly("z1^2"), poly("1", 1), halfplane_grid=[1 + 0.5j, 2 + 1j]
    )
    motzkin = poly("z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1")
    evidence = sos_certify(motzkin)
    assert isinstance(evidence, InfeasibilityEvidence)
    assert artin_certify(motzkin, candidates=[poly("z1^2 + z2^2")]) is not None
    report = replace(report, wronskian=motzkin, evidence=evidence)
    doc = json.loads(json.dumps(serialize.crosscheck_json(report), sort_keys=True))
    assert set(doc) == {"verdict", "wronskian", "sos", "scan"}
    assert doc["verdict"] == "DISAGREE"
    assert doc["sos"]["status"] == "infeasible"
    assert doc["sos"]["evidence"]["margin"] > 0
    assert doc["scan"]["verdict"] == "pass"
