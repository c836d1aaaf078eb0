"""Every violation and mismatch message of the certificate verifiers,
pinned word for word. The violations reach users as the "violation: ..."
lines that `shellcert verify` writes to stderr, so they are part of the
command's output.

All certificates are checked against convex K_6, where face 4 is the
unbounded face (bounded by every vertex) and face 0 is the triangle next
to the hull edge 0-1 (bounded by vertices 0 and 1 only)."""

import json

import pytest

from corpus import convex
from oracles import face_views
from shellcert.cli import main
from shellcert.documents import certificate_to_document, dump_document
from shellcert.drawing import trace_faces
from shellcert.errors import CertificateMismatchError, quoted
from shellcert.generators import convex_document
from shellcert.shellability import (BishellCertificate, SeqShellCertificate,
                                    check_certificate_refs, verify_bishell_certificate,
                                    verify_seq_certificate)

OUTER, EDGE_01 = 4, 0
NOT_INCIDENT = "is not incident to the face containing the reference face"


def test_faces_of_the_fixture():
    d = convex(6)
    on = [sorted({a for a, _ in walk if a in d.vertex_set})
          for walk in face_views(trace_faces(d)).faces]
    assert on[OUTER] == [0, 1, 2, 3, 4, 5]
    assert on[EDGE_01] == [0, 1]


SEQ_CASES = {
    "valid": ((OUTER, (0, 1), ((1, 2), (2,))), ()),
    "repeated a-vertex": (
        (OUTER, (0, 0), ((1, 2), (2,))),
        ("vertex sequence repeats a vertex",
         "a_1 = 0 was already deleted")),
    "a-vertex off the face": (
        (EDGE_01, (3,), ((1,),)),
        (f"a_0 = 3 {NOT_INCIDENT}",)),
    "wrong length": (
        (OUTER, (0,), ((1, 2),)),
        ("S_0 must have length 1, has 2",)),
    "repeat inside a simple sequence": (
        (OUTER, (0, 1), ((2, 2), (3,))),
        ("S_0 repeats a vertex",
         "S_0[1] = 2 is not present in the subdrawing")),
    "owner in its own sequence": (
        (OUTER, (0,), ((0,),)),
        ("S_0 contains its owner 0",
         "S_0 contains excluded vertices [0]")),
    "earlier a-vertex in a later sequence": (
        (OUTER, (0, 1), ((1, 2), (0,))),
        ("S_1 contains excluded vertices [0]",
         "S_1[0] = 0 is not present in the subdrawing")),
    "sequence member off the face": (
        (EDGE_01, (0,), ((3,),)),
        (f"S_0[0] = 3 {NOT_INCIDENT}",)),
}

BISHELL_CASES = {
    "valid": ((OUTER, (0, 1), (2, 3)), ()),
    "repeated vertex": (
        (OUTER, (0, 0), (1, 2)),
        ("a-sequence repeats a vertex",
         "a_1 = 0 was already deleted")),
    "a-vertex off the face": (
        (EDGE_01, (3,), (0,)),
        (f"a_0 = 3 {NOT_INCIDENT}",)),
    "b-vertex off the face": (
        (EDGE_01, (0,), (4,)),
        (f"b_0 = 4 {NOT_INCIDENT}",)),
    "b-vertex already deleted": (
        (OUTER, (0, 1), (2, 2)),
        ("b-sequence repeats a vertex",
         "b_1 = 2 was already deleted")),
    "disjointness": (
        (OUTER, (0, 1), (1, 0)),
        ("disjointness fails: a_0 = b_1 = 0 with i + j <= s",
         "disjointness fails: a_1 = b_0 = 1 with i + j <= s")),
}


@pytest.mark.parametrize("case", SEQ_CASES)
def test_seq_violation_messages(case):
    args, want = SEQ_CASES[case]
    result = verify_seq_certificate(convex(6), SeqShellCertificate(*args))
    assert result.violations == want
    assert result.ok == (not want)


@pytest.mark.parametrize("case", BISHELL_CASES)
def test_bishell_violation_messages(case):
    args, want = BISHELL_CASES[case]
    result = verify_bishell_certificate(convex(6), BishellCertificate(*args))
    assert result.violations == want
    assert result.ok == (not want)


MISMATCHES = [
    (verify_seq_certificate, SeqShellCertificate(26, (0,), ((1,),)),
     "face 26 does not exist in the drawing"),
    (verify_seq_certificate, SeqShellCertificate(-1, (0,), ((1,),)),
     "face -1 does not exist in the drawing"),
    (verify_seq_certificate, SeqShellCertificate("4", (0,), ((1,),)),
     "face '4' does not exist in the drawing"),
    (verify_seq_certificate, SeqShellCertificate(OUTER, (0,), ((9, 7),)),
     "unknown vertices [7, 9]"),
    (verify_seq_certificate, SeqShellCertificate(OUTER, (), ()),
     "certificate must carry one simple sequence per vertex"),
    (verify_seq_certificate, SeqShellCertificate(OUTER, (0, 1), ((1, 2),)),
     "certificate must carry one simple sequence per vertex"),
    (verify_bishell_certificate, BishellCertificate(26, (0,), (1,)),
     "face 26 does not exist in the drawing"),
    (verify_bishell_certificate, BishellCertificate(OUTER, (0, 6), (1, 2)),
     "unknown vertices [6]"),
    (verify_bishell_certificate, BishellCertificate(OUTER, (), ()),
     "certificate must carry two sequences of equal length"),
    (verify_bishell_certificate, BishellCertificate(OUTER, (0, 1), (2,)),
     "certificate must carry two sequences of equal length"),
]


@pytest.mark.parametrize("verify, cert, message", MISMATCHES)
def test_mismatch_messages(verify, cert, message):
    with pytest.raises(CertificateMismatchError) as info:
        verify(convex(6), cert)
    assert str(info.value) == message


FIELD_MISMATCHES = [
    (SeqShellCertificate(OUTER, (0,), (5,)),
     "certificate field sequences[0] must be a tuple or list, got 5"),
    (SeqShellCertificate(OUTER, (0, 1), ((1, 2), None)),
     "certificate field sequences[1] must be a tuple or list, got None"),
    (SeqShellCertificate(OUTER, 0, ((1,),)),
     "certificate field vertices must be a tuple or list, got 0"),
    (SeqShellCertificate(OUTER, (0,), 5),
     "certificate field sequences must be a tuple or list, got 5"),
    (BishellCertificate(OUTER, None, (1,)),
     "certificate field a_sequence must be a tuple or list, got None"),
    (BishellCertificate(OUTER, (0,), "1"),
     "certificate field b_sequence must be a tuple or list, got '1'"),
]


@pytest.mark.parametrize("cert, message", FIELD_MISMATCHES)
def test_a_field_that_holds_no_vertices_is_a_mismatch(cert, message):
    verify = (verify_seq_certificate if isinstance(cert, SeqShellCertificate)
              else verify_bishell_certificate)
    for check in (verify, check_certificate_refs):
        with pytest.raises(CertificateMismatchError) as info:
            check(convex(6), cert)
        assert str(info.value) == message


@pytest.mark.parametrize("check, cert, message", [
    (check_certificate_refs, 5, "5 is not a certificate"),
    (verify_seq_certificate, 5, "5 is not a seq-shellability certificate"),
    (verify_bishell_certificate, None, "None is not a bishellability certificate"),
    (verify_seq_certificate, BishellCertificate(OUTER, (0,), (1,)),
     "a BishellCertificate is not a seq-shellability certificate"),
    (verify_bishell_certificate, SeqShellCertificate(OUTER, (0,), ((1,),)),
     "a SeqShellCertificate is not a bishellability certificate"),
])
def test_an_object_of_another_kind_is_refused(check, cert, message):
    with pytest.raises(ValueError) as info:
        check(convex(6), cert)
    assert str(info.value) == message


@pytest.mark.parametrize("vertex", [[1], 1.0, True, 10 ** 5000],
                         ids=["list", "float", "bool", "huge"])
def test_a_vertex_that_is_no_plain_int_is_unknown(vertex):
    # 1.0 and True equal vertex 1, which the drawing has; neither is it
    certs = [(verify_seq_certificate, SeqShellCertificate(OUTER, (vertex, 2), ((1, 3), (3,)))),
             (verify_seq_certificate, SeqShellCertificate(OUTER, (0, 2), ((vertex, 3), (3,)))),
             (verify_bishell_certificate, BishellCertificate(OUTER, (vertex, 2), (3, 4))),
             (verify_bishell_certificate, BishellCertificate(OUTER, (0, 2), (3, vertex)))]
    for verify, cert in certs:
        for check in (verify, check_certificate_refs):
            with pytest.raises(CertificateMismatchError) as info:
                check(convex(6), cert)
            assert str(info.value) == f"unknown vertices {quoted([vertex])}"


def test_unknown_ints_come_first_once_each_and_ascending():
    cert = SeqShellCertificate(OUTER, (9, 1.0), ((7, 9), (7,)))
    with pytest.raises(CertificateMismatchError) as info:
        check_certificate_refs(convex(6), cert)
    assert str(info.value) == "unknown vertices [7, 9, 1.0]"


def test_violations_reach_stderr_in_order(tmp_path, capsys):
    drawing = tmp_path / "k6.json"
    drawing.write_text(json.dumps(convex_document(6)))
    cert = tmp_path / "cert.json"
    dump_document(certificate_to_document(BishellCertificate(OUTER, (0, 1), (1, 0))), cert)
    assert main(["verify", "--input", str(drawing), "--certificate", str(cert)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("violation: disjointness fails: a_0 = b_1 = 0 with i + j <= s\n"
                   "violation: disjointness fails: a_1 = b_0 = 1 with i + j <= s\n")
