"""Command-line interface: pipelines and the exit-code contract."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import not_good_k7_document, rerouted_document
from shellcert import cli, kedges
from shellcert.cli import main
from shellcert.documents import certificate_to_document, load_drawing
from shellcert.drawing import validate_goodness
from shellcert.errors import ShellcertError, StructureError
from shellcert.generators import random_rectilinear
from shellcert.shellability import decide_seq_shellable

DOCUMENTED_EXITS = {0, 1, 2, 3, 4}


@pytest.fixture
def k6(tmp_path):
    path = tmp_path / "k6.json"
    assert main(["generate", "--family", "cylindrical", "--n", "6",
                 "--output", str(path)]) == 0
    return path


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestGenerate:
    def test_families(self, tmp_path):
        for family in ("convex", "cylindrical", "rectilinear"):
            out = tmp_path / f"{family}.json"
            code = main(["generate", "--family", family, "--n", "5",
                         "--seed", "3", "--output", str(out)])
            assert code == 0
            assert read(out)["mode"] == "geometric"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["generate", "--family", "convex", "--n", "6",
                  "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestAnalyze:
    def test_report_content(self, k6, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(k6), "--face", "0",
                     "--output", str(out)]) == 0
        report = read(out)
        assert report["crossings"] == 3
        assert report["harary_hill"] == 3
        assert report["goodness"]["pass"] is True
        assert report["profiles"][0]["face"] == 0
        assert sum(report["profiles"][0]["counts"]) == 15

    def test_face_auto_covers_all(self, k6, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(k6), "--output", str(out)]) == 0
        report = read(out)
        assert len(report["profiles"]) == report["faces"]["count"]

    def test_point_selector(self, k6, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(k6), "--face", "at:1,1",
                     "--output", str(out)]) == 0
        assert len(read(out)["profiles"]) == 1

    def test_convex_k5_outer_profile_in_report(self, tmp_path):
        drawing = tmp_path / "k5.json"
        main(["generate", "--family", "convex", "--n", "5",
              "--output", str(drawing)])
        out = tmp_path / "report.json"
        far = str(10 ** 8)
        assert main(["analyze", "--input", str(drawing),
                     "--face", f"at:{far},{far}", "--output", str(out)]) == 0
        profile = read(out)["profiles"][0]
        assert profile["cumulated"] == [5, 15]

    def test_report_bytes_deterministic(self, k6, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["analyze", "--input", str(k6), "--face", "0",
                         "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_document_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        assert main(["analyze", "--input", str(bad)]) == 2

    def test_unparseable_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["analyze", "--input", str(bad)]) == 2

    def test_auto_builds_one_labelling(self, tmp_path, monkeypatch):
        # however many faces are analyzed, the triangles are classified once
        calls = []
        build = kedges._build_labelling

        def counting(drawing, faces):
            calls.append(drawing)
            return build(drawing, faces)

        monkeypatch.setattr(kedges, "_build_labelling", counting)
        drawing = tmp_path / "k9.json"
        main(["generate", "--family", "convex", "--n", "9",
              "--output", str(drawing)])
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(drawing), "--face", "auto",
                     "--output", str(out)]) == 0
        report = read(out)
        assert len(report["profiles"]) == report["faces"]["count"] == 155
        assert len(calls) == 1


class TestDecideVerify:
    def test_decide_emits_verifiable_certificate(self, k6, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(k6), "--mode", "seq",
                     "--output", str(cert)]) == 0
        doc = read(cert)
        assert doc["kind"] == "seq-shell" and doc["k"] == 1
        assert main(["verify", "--input", str(k6),
                     "--certificate", str(cert)]) == 0

    def test_bishell_mode(self, k6, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(k6), "--mode", "bishell",
                     "--k", "1", "--output", str(cert)]) == 0
        assert read(cert)["kind"] == "bishell"
        assert main(["verify", "--input", str(k6),
                     "--certificate", str(cert)]) == 0

    def test_tampered_certificate_exit_1(self, k6, tmp_path):
        cert = tmp_path / "cert.json"
        main(["decide", "--input", str(k6), "--mode", "seq",
              "--output", str(cert)])
        doc = read(cert)
        doc["S"][0] = [doc["a"][0]] + doc["S"][0][1:]
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(k6),
                     "--certificate", str(cert)]) == 1

    def test_certificate_for_other_drawing_exit_3(self, k6, tmp_path):
        cert = tmp_path / "cert.json"
        main(["decide", "--input", str(k6), "--mode", "seq",
              "--output", str(cert)])
        other = tmp_path / "other.json"
        main(["generate", "--family", "convex", "--n", "6",
              "--output", str(other)])
        assert main(["verify", "--input", str(other),
                     "--certificate", str(cert)]) == 3

    def test_unknown_vertex_reference_exit_3(self, k6, tmp_path):
        cert = tmp_path / "cert.json"
        main(["decide", "--input", str(k6), "--mode", "seq",
              "--output", str(cert)])
        doc = read(cert)
        del doc["drawing_sha256"]
        doc["a"] = [99] + doc["a"][1:]
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(k6),
                     "--certificate", str(cert)]) == 3

    def test_k_out_of_range_exit_2(self, k6):
        assert main(["decide", "--input", str(k6), "--mode", "seq",
                     "--k", "5"]) == 2

    def test_negative_decision_exit_1(self, tmp_path):
        # a drawing that is 1-seq-shellable but searched at a face with no
        # vertices cannot produce a certificate
        drawing = tmp_path / "k5.json"
        main(["generate", "--family", "convex", "--n", "5",
              "--output", str(drawing)])
        from shellcert.documents import load_drawing
        from shellcert.drawing import trace_faces, vertices_on_face
        d = load_drawing(read(drawing))
        fs = trace_faces(d)
        empty = next(f for f in fs.face_ids()
                     if not vertices_on_face(d, fs, f))
        assert main(["decide", "--input", str(drawing), "--mode", "seq",
                     "--face", str(empty)]) == 1


class TestExport:
    def test_svg_written(self, k6, tmp_path):
        out = tmp_path / "k6.svg"
        assert main(["export", "--input", str(k6), "--output", str(out),
                     "--labels", "0"]) == 0
        assert out.read_text().startswith("<svg ")

    def test_certificate_overlay(self, k6, tmp_path):
        cert = tmp_path / "cert.json"
        main(["decide", "--input", str(k6), "--mode", "seq",
              "--output", str(cert)])
        out = tmp_path / "k6.svg"
        assert main(["export", "--input", str(k6), "--output", str(out),
                     "--certificate", str(cert)]) == 0
        assert "<rect" in out.read_text()

    def test_missing_geometry_exit_4(self, k6, tmp_path):
        from shellcert.documents import drawing_to_document, load_drawing
        comb_doc = tmp_path / "comb.json"
        comb_doc.write_text(json.dumps(
            drawing_to_document(load_drawing(read(k6)), "combinatorial")))
        assert main(["export", "--input", str(comb_doc),
                     "--output", str(tmp_path / "x.svg")]) == 4


class TestNotGood:
    @pytest.fixture
    def not_good(self, tmp_path):
        path = tmp_path / "not_good.json"
        path.write_text(json.dumps(not_good_k7_document()))
        return path

    def test_fixture_loads_but_is_not_good(self, not_good):
        assert not validate_goodness(load_drawing(read(not_good))).ok

    @pytest.mark.parametrize("mode", ["seq", "bishell"])
    def test_decide_exit_2(self, not_good, mode, capsys):
        assert main(["decide", "--input", str(not_good), "--mode", mode]) == 2
        assert "goodness" in capsys.readouterr().err

    def test_verify_exit_2(self, not_good, tmp_path, capsys):
        good = tmp_path / "good.json"
        main(["generate", "--family", "rectilinear", "--n", "7", "--seed", "1",
              "--output", str(good)])
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(good), "--mode", "seq",
                     "--output", str(cert)]) == 0
        doc = read(cert)
        del doc["drawing_sha256"]
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(not_good),
                     "--certificate", str(cert)]) == 2
        assert "goodness" in capsys.readouterr().err

    def test_export_labels_exit_2(self, not_good, tmp_path, capsys):
        out = tmp_path / "labels.svg"
        assert main(["export", "--input", str(not_good), "--output", str(out),
                     "--labels", "0"]) == 2
        assert "goodness" in capsys.readouterr().err
        assert not out.exists()

    def test_plain_export_draws_it(self, not_good, tmp_path):
        out = tmp_path / "plain.svg"
        assert main(["export", "--input", str(not_good), "--output", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_any_library_error_exit_2(self, k6, monkeypatch):
        def broken(*args):
            raise StructureError("segment (1, 2) appears in two chains")

        monkeypatch.setattr(cli, "decide_seq_shellable", broken)
        assert main(["decide", "--input", str(k6), "--mode", "seq"]) == 2


@lru_cache(maxsize=None)
def _certificate_text(n, seed):
    """A seq certificate of the unmodified drawing, with no digest."""
    drawing = random_rectilinear(n, seed)
    cert = decide_seq_shellable(drawing, kedges.max_k(n) - 1, None)
    return json.dumps(certificate_to_document(cert))


@st.composite
def rerouted_documents(draw):
    n = draw(st.integers(6, 8))
    seed = draw(st.integers(1, 3))
    u = draw(st.integers(0, n - 2))
    v = draw(st.integers(u + 1, n - 1))
    # two interior points near the centre: most such detours cross some
    # edge twice, and about half of the documents still load
    coord = st.integers(-30_000, 30_000)
    points = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=2,
                           unique=True))
    return n, seed, rerouted_document(n, seed, (u, v), points)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(rerouted_documents())
def test_rerouted_edge_gets_documented_exit(case):
    n, seed, doc = case
    try:
        good = validate_goodness(load_drawing(doc)).ok
    except ShellcertError:
        good = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        drawing, cert = tmp / "drawing.json", tmp / "cert.json"
        drawing.write_text(json.dumps(doc))
        cert.write_text(_certificate_text(n, seed))
        codes = {
            "analyze": main(["analyze", "--input", str(drawing), "--face", "0",
                             "--output", str(tmp / "report.json")]),
            "decide": main(["decide", "--input", str(drawing), "--mode", "seq",
                            "--output", str(tmp / "found.json")]),
            "verify": main(["verify", "--input", str(drawing),
                            "--certificate", str(cert)]),
            "export": main(["export", "--input", str(drawing), "--labels", "0",
                            "--output", str(tmp / "drawing.svg")]),
        }
    assert set(codes.values()) <= DOCUMENTED_EXITS
    if not good:
        assert codes["analyze"] == codes["decide"] == codes["verify"] == 2
