"""Command-line interface: pipelines and the exit-code contract."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (not_good_k7_document, rectilinear_document_text,
                    rerouted_document, top_level_lines, two_page_drawing)
from oracles import reference_profile, reference_report
from shellcert import cli, kedges
from shellcert import drawing as drawing_module
from shellcert.cli import main
from shellcert.documents import (_compact, certificate_to_document, drawing_to_document,
                                 dumps_document, load_drawing)
from shellcert.drawing import trace_faces, validate_goodness
from shellcert.errors import DocumentError, ShellcertError, StructureError, quoted
from shellcert.generators import convex_document, random_rectilinear
from shellcert.shellability import decide_seq_shellable

DOCUMENTED_EXITS = {0, 1, 2, 3, 4}
SRC = Path(__file__).resolve().parent.parent / "src"


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

    @pytest.mark.parametrize("scale", ["0", "-3"])
    @pytest.mark.parametrize("family", ["convex", "cylindrical", "rectilinear"])
    def test_non_positive_scale_exit_2(self, tmp_path, family, scale, capsys):
        out = tmp_path / "doc.json"
        assert main(["generate", "--family", family, "--n", "5",
                     "--scale", scale, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: scale must be a positive integer, got {scale}\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("fault", ["long-loop-edge", "deep-vertex-id"])
    def test_loader_message_is_bounded(self, tmp_path, fault):
        # The message names the item's position and never echoes the item.
        # A fresh interpreter parses the 985-deep id.
        drawing = tmp_path / "k4.json"
        main(["generate", "--family", "convex", "--n", "4", "--output", str(drawing)])
        doc = read(drawing)
        if fault == "long-loop-edge":
            doc["edges"][0] = {"u": 0, "v": 0, "polyline": [[x, 0] for x in range(50000)]}
            text, message = json.dumps(doc), "edges[0]: endpoints must be distinct vertex ids"
        else:
            text = _deep_vertex_id_text(doc)
            message = "vertices[0]: id and coordinates must be integers"
        drawing.write_text(text)
        proc = _run_fresh(["analyze", "--input", str(drawing)])
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert len(proc.stderr.encode()) < 200

    def test_deep_document_is_judged_as_a_fresh_interpreter_judges_it(self, tmp_path,
                                                                        capsys):
        # Called from 900 frames deep, the JSON parser alone would give up
        # on the 985-deep id; the outcome must be the subprocess's.
        drawing = tmp_path / "k4.json"
        main(["generate", "--family", "convex", "--n", "4", "--output", str(drawing)])
        drawing.write_text(_deep_vertex_id_text(read(drawing)))
        argv = ["analyze", "--input", str(drawing)]
        capsys.readouterr()

        def descend(levels):
            return descend(levels - 1) if levels else main(argv)

        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        assert depth < 850
        code = descend(900 - depth)
        proc = _run_fresh(argv)
        assert (code, capsys.readouterr().err) == (proc.returncode, proc.stderr) == (
            2, "error: vertices[0]: id and coordinates must be integers\n")

    @pytest.mark.parametrize("kmax", ["-3", "-1", "2", "9"])
    def test_explicit_kmax_is_range_checked(self, tmp_path, kmax, capsys):
        # convex K7 has bound levels 0..1; only the default may skip the table
        drawing = tmp_path / "k7.json"
        main(["generate", "--family", "convex", "--n", "7", "--output", str(drawing)])
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(drawing), "--face", "0",
                     "--kmax", kmax, "--output", str(out)]) == 2
        assert "kmax must lie in 0..1" in capsys.readouterr().err
        assert not out.exists()

    def test_default_kmax_table_is_empty_for_k3(self, tmp_path):
        drawing = tmp_path / "k3.json"
        main(["generate", "--family", "convex", "--n", "3", "--output", str(drawing)])
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(drawing), "--face", "0",
                     "--output", str(out)]) == 0
        assert read(out)["profiles"][0]["bounds"] == []
        assert main(["analyze", "--input", str(drawing), "--face", "0",
                     "--kmax", "0", "--output", str(out)]) == 2

    def test_explicit_kmax_on_k3_names_the_empty_range(self, tmp_path, capsys):
        drawing = tmp_path / "k3.json"
        main(["generate", "--family", "convex", "--n", "3", "--output", str(drawing)])
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(drawing), "--face", "0",
                     "--kmax", "0", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "a drawing on 3 vertices has no bound levels" in err
        assert "0..-1" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["seq", "bishell"])
    def test_decide_on_k3_without_k_names_the_missing_default(self, tmp_path, capsys, mode):
        # the default level n//2-2 does not exist on 3 vertices; an explicit
        # --k in 0..1 is decided, and positive
        drawing = tmp_path / "k3.json"
        main(["generate", "--family", "convex", "--n", "3", "--output", str(drawing)])
        out = tmp_path / "cert.json"
        assert main(["decide", "--input", str(drawing), "--mode", mode,
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: a drawing on 3 vertices has no default k (n//2-2); give --k in 0..1\n")
        assert not out.exists()
        for k in ("0", "1"):
            assert main(["decide", "--input", str(drawing), "--mode", mode, "--k", k,
                         "--output", str(out)]) == 0

    def test_unparseable_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["analyze", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("data, message", [
        (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM"),
        (b"{\xff}", "'utf-8' codec can't decode byte 0xff")])
    def test_bom_or_invalid_utf8_exit_2(self, tmp_path, data, message, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert main(["analyze", "--input", str(bad)]) == 2
        assert message in capsys.readouterr().err

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

    def test_one_build_walks_the_sweep_once(self, tmp_path, monkeypatch):
        # the build makes the words of all the seeds in one walk of the
        # sweep and reads their fields with one separation word
        calls = {"_face_words": 0, "_separation_word": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(kedges, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(kedges, name, counting)
        builds = []
        build = kedges._build_labelling

        def counting_build(drawing, faces):
            before = dict(calls)
            lab = build(drawing, faces)
            builds.append({name: calls[name] - before[name] for name in calls})
            return lab

        monkeypatch.setattr(kedges, "_build_labelling", counting_build)
        drawing = tmp_path / "k9.json"
        main(["generate", "--family", "cylindrical", "--n", "9", "--output", str(drawing)])
        assert main(["analyze", "--input", str(drawing), "--face", "auto",
                     "--output", str(tmp_path / "report.json")]) == 0
        assert builds == [{"_face_words": 1, "_separation_word": 1}]

    @pytest.mark.parametrize("family, heads", [("convex", 1), ("cylindrical", None)])
    def test_auto_work_counts(self, family, heads, tmp_path, monkeypatch):
        """Deterministic work counts of analyze --face auto on K12: one
        labelling, no face read through the per-drawing profile cache (each
        comes from one bulk walk of the sweep), and one row head per
        distinct counts tuple, which is one on convex K12."""
        calls = {"_build_labelling": 0, "_profile": 0, "_profile_head": 0}
        for module, name in ((kedges, "_build_labelling"), (kedges, "_profile"),
                             (cli, "_profile_head")):
            def counting(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counting)
        drawing = tmp_path / "k12.json"
        main(["generate", "--family", family, "--n", "12", "--output", str(drawing)])
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(drawing), "--face", "auto",
                     "--output", str(out)]) == 0
        report = read(out)
        assert len(report["profiles"]) == report["faces"]["count"] > 1
        distinct = {tuple(row["counts"]) for row in report["profiles"]}
        assert calls == {"_build_labelling": 1, "_profile": 0,
                         "_profile_head": len(distinct)}
        if heads is not None:
            assert len(distinct) == heads

    def test_auto_builds_one_goodness_report(self, tmp_path, monkeypatch):
        # the payload's report, the labelling's goodness check and every
        # profile after it share one report per drawing
        drawing = tmp_path / "k9.json"
        main(["generate", "--family", "convex", "--n", "9",
              "--output", str(drawing)])
        reports = []
        build = drawing_module.ValidationReport

        def counting(ok, violations):
            reports.append(ok)
            return build(ok, violations)

        monkeypatch.setattr(drawing_module, "ValidationReport", counting)
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(drawing), "--face", "auto",
                     "--output", str(out)]) == 0
        assert len(read(out)["profiles"]) == 155
        assert reports == [True]

    def test_each_selector_reads_only_what_it_reports(self, k6, tmp_path, monkeypatch):
        # every selector takes the route of all faces: one table of every
        # face's vertices per job, and no cached profile
        tables, drawings = [], []
        table, load = cli.face_vertex_table, cli.load_drawing

        def counting(drawing):
            tables.append(drawing)
            return table(drawing)

        def loading(doc):
            drawings.append(load(doc))
            return drawings[-1]

        monkeypatch.setattr(cli, "face_vertex_table", counting)
        monkeypatch.setattr(cli, "load_drawing", loading)
        out = tmp_path / "report.json"
        selected = {"2": lambda d: [2],
                    "at:1,1": lambda d: [cli.locate_face(d, (1, 1))],
                    "auto": lambda d: list(cli.trace_faces(d).face_ids())}
        for selector, faces in selected.items():
            del tables[:]
            assert main(["analyze", "--input", str(k6), "--face", selector,
                         "--output", str(out)]) == 0
            drawing = drawings[-1]
            assert tables == [drawing], selector
            built = [key[0] for key in drawing._cache]
            assert built.count(drawing_module.face_vertex_table.__wrapped__) == 1, selector
            assert kedges._profile.__wrapped__ not in built, selector
            report = read(out)
            assert report["faces"]["analyzed"] == faces(drawing), selector
            assert [p["face"] for p in report["profiles"]] == faces(drawing), selector


def _deep_vertex_id_text(doc):
    """The document's text with vertex 0's id a list nested 985 deep."""
    doc["vertices"][0]["id"] = "DEEP"
    return json.dumps(doc).replace('"DEEP"', "[" * 985 + "]" * 985)


def _run_fresh(argv):
    """The CLI run on argv in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in (os.environ.get("PYTHONPATH"),) if p]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from shellcert.cli import main; sys.exit(main())",
         *argv], capture_output=True, text=True, env=env, timeout=60)


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
                     if not vertices_on_face(d, f))
        assert main(["decide", "--input", str(drawing), "--mode", "seq",
                     "--face", str(empty)]) == 1


class TestIntegerArguments:
    """Integers on the command line are read as document keys are read:
    canonical decimal only, so no spelling names another number."""

    @pytest.mark.parametrize("face", ["1_0", " 3", "3 ", "+3", "03", "٣", "0x3", ""])
    def test_face_id_must_be_canonical(self, k6, face, capsys):
        assert main(["decide", "--input", str(k6), "--mode", "seq", "--face", face]) == 2
        assert capsys.readouterr().err == f"error: bad face selector {quoted(face)}\n"

    @pytest.mark.parametrize("point", ["at:1_000,2", "at:+1,1", "at:1, 1", "at:01,1",
                                       "at:1,٢"])
    def test_point_coordinates_must_be_canonical(self, k6, point, capsys):
        assert main(["analyze", "--input", str(k6), "--face", point]) == 2
        assert capsys.readouterr().err == (
            f'error: bad point selector {quoted(point)}; want "at:x,y"\n')

    @pytest.mark.parametrize("argv, flag, value", [
        (["generate", "--family", "convex"], "--n", "0_6"),
        (["generate", "--family", "convex", "--n", "6"], "--seed", "+1"),
        (["generate", "--family", "convex", "--n", "6"], "--scale", "1_000"),
        (["decide", "--mode", "seq"], "--k", "01"),
        (["analyze"], "--kmax", " 1"),
        (["export", "--output", "out.svg"], "--size", "7_20"),
    ], ids=["n", "seed", "scale", "k", "kmax", "size"])
    def test_integer_options_must_be_canonical(self, k6, argv, flag, value, capsys):
        if argv[0] != "generate":
            argv = [*argv, "--input", str(k6)]
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, value])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid decimal value: {value!r}\n")

    def test_negative_values_are_canonical(self, k6, capsys):
        assert main(["decide", "--input", str(k6), "--mode", "seq", "--face", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: face -1 does not exist")


FULL_USAGE = "usage: shellcert [-h] [--version] {analyze,decide,verify,generate,export} ...\n"


# help, version, errors above and within each subcommand, leftovers and
# commands that run: main must answer each exactly as the full parser does
ARGV_BATTERY = [
    [], ["-h"], ["--version"], ["--vers"], ["bogus"], ["ver"], ["--"], ["-x"],
    ["--version", "verify"], ["verify", "--version"], ["-h", "verify"],
    *[[name, "-h"] for name in ("analyze", "decide", "verify", "generate", "export")],
    ["verify"], ["decide", "--input", "in.json", "--mode", "nope"],
    ["generate", "--family", "convex", "--n", "x"], ["analyze", "--input"],
    ["analyze", "--inp", "in.json"], ["analyze", "--input", "in.json", "extra"],
    ["verify", "--input", "a", "--certificate", "b", "c", "d"],
    ["verify", "--bogus", "--input", "a"], ["verify", "--", "x"],
    ["generate", "--family", "convex", "--n", "4"],
    ["generate", "--fam", "convex", "--n", "4", "--bogus"],
    ["export", "--input", "in.json", "--output", "out.svg"],
]


def _argv_id(argv):
    return " ".join(argv) or "(empty)"


def _outcome(argv, capsys):
    """The exit code of main(argv), or of the SystemExit it raises, and
    what it printed."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


class TestArgumentHandling:
    """Errors above the subcommand print the usage line of all five commands."""

    @pytest.mark.parametrize("argv, error", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'analyze', "
                    "'decide', 'verify', 'generate', 'export')"),
        (["verify", "--input", "x", "--certificate", "y", "extra"],
         "unrecognized arguments: extra"),
    ], ids=["required", "invalid-choice", "unrecognized"])
    def test_top_level_errors(self, argv, error, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr() == ("", f"{FULL_USAGE}shellcert: error: {error}\n")

    @pytest.mark.parametrize("columns", ["80", "30"])
    @pytest.mark.parametrize("argv", ARGV_BATTERY, ids=_argv_id)
    def test_same_bytes_as_the_full_parser(self, argv, columns, monkeypatch, tmp_path,
                                           capsys):
        monkeypatch.setenv("COLUMNS", columns)
        monkeypatch.chdir(tmp_path)
        named = _outcome(argv, capsys)
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: build([]))
        assert named == _outcome(argv, capsys)

    @pytest.mark.parametrize("argv, built", [
        *[([name, "-h"], 1) for name in cli._COMMANDS],
        (["generate", "--family", "convex", "--n", "4"], 1),
        (["-h"], 5),
        ([], 5),
        (["bogus"], 5),
        (["verify", "--input", "x", "--certificate", "y", "extra"], 1 + 5),
    ], ids=lambda value: _argv_id(value) if isinstance(value, list) else f"builds {value}")
    def test_subparsers_built(self, argv, built, monkeypatch, capsys):
        """A named command builds its own subparser only; the other four
        are built for help and errors above the subcommand."""
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        _outcome(argv, capsys)
        assert len(calls) == built

    def test_tuple_and_sys_argv(self, k6, tmp_path, monkeypatch, capsys):
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(k6), "--mode", "seq",
                     "--output", str(cert)]) == 0
        argv = ["verify", "--input", str(k6), "--certificate", str(cert)]
        listed = _outcome(argv, capsys)
        assert listed == (0, "certificate verified\n", "")
        assert _outcome(tuple(argv), capsys) == listed
        monkeypatch.setattr(sys, "argv", ["shellcert", *argv])
        assert _outcome(None, capsys) == listed


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

    def test_certificate_for_other_drawing_exit_3(self, tmp_path, capsys):
        # export reads certificates as verify does, digest check included
        cylindrical, convex = tmp_path / "k9.json", tmp_path / "k7.json"
        main(["generate", "--family", "cylindrical", "--n", "9", "--output", str(cylindrical)])
        main(["generate", "--family", "convex", "--n", "7", "--output", str(convex)])
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(cylindrical), "--mode", "seq",
                     "--output", str(cert)]) == 0
        capsys.readouterr()
        out = tmp_path / "k7.svg"
        for argv in (["verify"], ["export", "--output", str(out)]):
            assert main([*argv, "--input", str(convex), "--certificate", str(cert)]) == 3
            assert capsys.readouterr().err == ("certificate mismatch: certificate was "
                                               "issued for a different drawing document\n")
        assert not out.exists()

    @pytest.mark.parametrize("face, a, message", [
        (99, [0, 1, 8], "face 99 does not exist in the drawing"),
        (0, [0, 1, 8], "unknown vertices [8]"),
    ], ids=["unknown-face", "unknown-vertex"])
    def test_certificate_without_digest_checked_exit_3(self, tmp_path, capsys,
                                                       face, a, message):
        # with no digest to compare, export still checks the certificate's
        # face and vertices against the drawing, as verify does
        cylindrical, convex = tmp_path / "k9.json", tmp_path / "k7.json"
        main(["generate", "--family", "cylindrical", "--n", "9", "--output", str(cylindrical)])
        main(["generate", "--family", "convex", "--n", "7", "--output", str(convex)])
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(cylindrical), "--mode", "seq",
                     "--output", str(cert)]) == 0
        doc = read(cert)
        del doc["drawing_sha256"]
        doc.update(face=face, a=a)
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "k7.svg"
        for argv in (["verify"], ["export", "--output", str(out)]):
            assert main([*argv, "--input", str(convex), "--certificate", str(cert)]) == 3
            assert capsys.readouterr().err == f"certificate mismatch: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("size", ["-5", "0"])
    def test_size_below_one_pixel_exit_2(self, tmp_path, size, capsys):
        drawing = tmp_path / "k7.json"
        main(["generate", "--family", "convex", "--n", "7", "--output", str(drawing)])
        out = tmp_path / "k7.svg"
        assert main(["export", "--input", str(drawing), "--output", str(out),
                     "--size", size]) == 2
        assert "size must be a positive number of pixels" in capsys.readouterr().err
        assert not out.exists()

    def test_size_beyond_float_range_exit_2(self, k6, tmp_path, capsys):
        out = tmp_path / "k6.svg"
        assert main(["export", "--input", str(k6), "--output", str(out),
                     "--size", str(10 ** 400)]) == 2
        assert capsys.readouterr().err == (
            "error: size must be at most 10**300 pixels, got a number of 401 digits\n")
        assert not out.exists()

    def test_coordinates_beyond_float_range_exit_4(self, tmp_path, capsys):
        # a valid convex K6 scaled by 10**320: it loads and analyzes, but its
        # coordinates have no float to be drawn at
        doc = convex_document(6)
        for v in doc["vertices"]:
            v["x"], v["y"] = v["x"] * 10 ** 320, v["y"] * 10 ** 320
        for e in doc["edges"]:
            e["polyline"] = [[x * 10 ** 320, y * 10 ** 320] for x, y in e["polyline"]]
        drawing, out = tmp_path / "k6.json", tmp_path / "k6.svg"
        drawing.write_text(json.dumps(doc))
        assert main(["analyze", "--input", str(drawing), "--face", "at:0,0",
                     "--output", str(tmp_path / "report.json")]) == 0
        assert main(["export", "--input", str(drawing), "--output", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: rendering needs every coordinate within +-10**300, "
            "since SVG numbers are floats\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--face", "--labels"])
    def test_auto_selector_exit_2(self, k6, tmp_path, flag, capsys):
        # an SVG shows one face; "auto" (every face) used to fall back to face 0
        out = tmp_path / "k6.svg"
        assert main(["export", "--input", str(k6), "--output", str(out),
                     flag, "auto"]) == 2
        assert f"export {flag} takes one face" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_geometry_exit_4(self, k6, tmp_path):
        from shellcert.documents import drawing_to_document, load_drawing
        comb_doc = tmp_path / "comb.json"
        comb_doc.write_text(json.dumps(
            drawing_to_document(load_drawing(read(k6)), "combinatorial")))
        assert main(["export", "--input", str(comb_doc),
                     "--output", str(tmp_path / "x.svg")]) == 4


def emitted(monkeypatch):
    """The payloads cli._emit is handed, in order."""
    payloads = []
    emit = cli._emit

    def recording(payload, path):
        payloads.append(payload)
        emit(payload, path)

    monkeypatch.setattr(cli, "_emit", recording)
    return payloads


class TestReadOnce:
    def test_each_command_opens_its_drawing_once(self, k6, tmp_path, monkeypatch):
        # the digest recorded or checked comes from the bytes that were parsed
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(k6), "--mode", "seq",
                     "--output", str(cert)]) == 0
        opened = []
        real_open = open

        def counting(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting)
        commands = {
            "analyze": ["analyze", "--input", str(k6), "--face", "0",
                        "--output", str(tmp_path / "report.json")],
            "decide": ["decide", "--input", str(k6), "--mode", "bishell",
                       "--output", str(tmp_path / "bishell.json")],
            "verify": ["verify", "--input", str(k6), "--certificate", str(cert)],
            "export": ["export", "--input", str(k6), "--output", str(tmp_path / "k6.svg"),
                       "--certificate", str(cert)],
        }
        for name, argv in commands.items():
            opened.clear()
            assert main(argv) == 0, name
            assert opened.count(str(k6)) == 1, (name, opened)
            assert opened.count(str(cert)) == (name in ("verify", "export")), (name, opened)


UNPARSEABLE = {
    "nested_200000_deep": b"[" * 200_000 + b"]" * 200_000,
    "not_utf8": b'{"format": "\xff"}',
    "int_of_5000_digits": b'{"n": ' + b"7" * 5000 + b"}",
}

# (command, argv with BAD for the unparseable file, DRAWING and CERT for
# a good drawing and its certificate, OUT for an output file)
READERS = {
    "analyze": ["analyze", "--input", "BAD", "--output", "OUT"],
    "decide": ["decide", "--input", "BAD", "--mode", "seq", "--output", "OUT"],
    "verify": ["verify", "--input", "BAD", "--certificate", "CERT"],
    "verify --certificate": ["verify", "--input", "DRAWING", "--certificate", "BAD"],
    "export": ["export", "--input", "BAD", "--output", "OUT"],
    "export --certificate": ["export", "--input", "DRAWING", "--certificate", "BAD",
                             "--output", "OUT"],
}


class TestParseFailures:
    """A file that is not JSON the parser can read, too deep, not UTF-8 or
    holding an integer too long to convert, exits 2 with an error naming
    it, whichever command reads it and in whichever role; never 1."""

    @pytest.mark.parametrize("content", UNPARSEABLE)
    def test_one_document_error_names_the_path(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(UNPARSEABLE[content])
        with pytest.raises(DocumentError) as info:
            cli._read_document(str(bad))
        assert str(info.value).startswith(f"{bad}: not valid JSON: ")

    @pytest.mark.parametrize("content", UNPARSEABLE)
    @pytest.mark.parametrize("reader", READERS)
    def test_exit_2_naming_the_file(self, k6, tmp_path, reader, content, capsys):
        cert = tmp_path / "cert.json"
        assert main(["decide", "--input", str(k6), "--mode", "seq",
                     "--output", str(cert)]) == 0
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_bytes(UNPARSEABLE[content])
        paths = {"BAD": bad, "DRAWING": k6, "CERT": cert, "OUT": out}
        capsys.readouterr()
        assert main([str(paths.get(arg, arg)) for arg in READERS[reader]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: not valid JSON: ")
        assert captured.out == ""
        assert not out.exists()


class TestWriter:
    """Reports and certificates: the same JSON value as the payload, with
    one line per profile, and the same bytes on every run."""

    def test_analyze_report_parses_to_payload(self, k6, tmp_path):
        path = tmp_path / "zeichnung-ü-図.json"
        path.write_bytes(k6.read_bytes())
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(path), "--output", str(out)]) == 0
        report = read(out)
        drawing = load_drawing(read(path))
        assert report == reference_report(
            drawing, str(path), hashlib.sha256(path.read_bytes()).hexdigest(),
            trace_faces(drawing).face_ids())
        assert report["input"]["path"] == str(path)
        assert report["goodness"]["violations"] == []

    def test_not_good_report_parses_to_payload(self, tmp_path, monkeypatch):
        payloads = emitted(monkeypatch)
        path = tmp_path / "not_good.json"
        path.write_text(json.dumps(not_good_k7_document()))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(path), "--output", str(out)]) == 2
        report = read(out)
        assert report == payloads[0]
        assert report["profiles"] == [] and report["deciders"] is None

    @pytest.mark.parametrize("mode", ["seq", "bishell"])
    def test_certificate_parses_to_payload(self, k6, tmp_path, monkeypatch, mode):
        payloads = emitted(monkeypatch)
        out = tmp_path / "cert.json"
        assert main(["decide", "--input", str(k6), "--mode", mode, "--k", "1",
                     "--output", str(out)]) == 0
        assert read(out) == payloads[0]
        assert read(out)["kind"] == {"seq": "seq-shell", "bishell": "bishell"}[mode]

    def test_stdout_and_file_bytes_agree(self, k6, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["decide", "--input", str(k6), "--mode", "seq"]) == 0
        printed = capsys.readouterr().out
        assert main(["decide", "--input", str(k6), "--mode", "seq",
                     "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == printed

    def test_certificate_bytes_deterministic(self, k6, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["decide", "--input", str(k6), "--mode", "bishell",
                         "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_line_per_profile(self, k6, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(k6), "--face", "auto",
                     "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        assert len(report["profiles"]) == report["faces"]["count"] > 1
        lines = top_level_lines(text, "profiles")
        assert [json.loads(line) for line in lines] == report["profiles"]
        assert text.endswith("}\n") and "\n\n" not in text


REPORT_CASES = {
    # name: (family, n, analyze options); rectilinear drawings take seed 1
    "convex3-auto": ("convex", 3, ["--face", "auto"]),  # no bound levels
    "convex4-kmax0": ("convex", 4, ["--kmax", "0"]),
    **{f"{family}{n}-auto": (family, n, ["--face", "auto"])
       for family in ("convex", "cylindrical", "rectilinear") for n in (9, 10, 11, 12)},
    "cylindrical10-face7": ("cylindrical", 10, ["--face", "7"]),
    "convex9-at": ("convex", 9, ["--face", "at:0,0"]),
    "convex21-face0": ("convex", 21, ["--face", "0"]),  # k-values up to 9
    "convex22-face0": ("convex", 22, ["--face", "0"]),  # k-values up to 10
}

# sha256 of each report as written with every profile a per-face dict
# (oracles.reference_profile) that the writer's encoder dumps
REPORT_SHA256 = {
    "convex3-auto":
        "5c0bc9a267e25b550dc58d14824f29d84ab350607f68685ce6136b879296fbfb",
    "convex4-kmax0":
        "5620a30a1c119e974840a1b9b38a491e5cef90eac3e773ea4309548bb1d39a55",
    "convex9-auto":
        "b989f6616e2ab14b4509154ca942d412653f33947d3b9466fbd1f6f6d9c8eda6",
    "convex10-auto":
        "ab6144c936d65ce543600f4d98520616f25aa0424715f819f5b34ff3ee5cbe2f",
    "convex11-auto":
        "b04f5ca78414d8dff9d220da64f3bf3063885bb649277553dc7fdd38768aa75c",
    "convex12-auto":
        "1194f997c44deeb40487346f4bbd5a81d849e3f3615ab435b6162e9b857b87a7",
    "cylindrical9-auto":
        "89d56ecd3fb7e8e0380c91fcc55a08578287c63b3c6e386f3d9781cbb5fdc746",
    "cylindrical10-auto":
        "ccd0160c8964e7cd67902aaaf7052dbaa1848e5f8f378a5a85e5ed635e113cc5",
    "cylindrical11-auto":
        "bc417e408e500311c4bbe9407d653bc304cda1b66fb0744d1d03b48f1c8e213d",
    "cylindrical12-auto":
        "3b93f284f22d68c25f7e6e8838e532aa66604b902c0c9eea43ea2a9c7a886bcd",
    "rectilinear9-auto":
        "070e539c24abb93974b4e0dfcfbb0dc39480b36cee6440f4f7387a7ba4cd7e4a",
    "rectilinear10-auto":
        "9a2920c1a41c2e177155dda5e9a366e7e301af0933fbf603b07097210dcf1fa5",
    "rectilinear11-auto":
        "60ee6ec4380a6de17eef493221e44a9d6bf5a5a94ad84a49f9aa929bb1ba32f5",
    "rectilinear12-auto":
        "378b04280d8f926ec22389343802480d06e8e74ffd9574696ea0be0ccae86a66",
    "cylindrical10-face7":
        "00d0cb63f0b87131a3d37ccba820dfbf5961c6afe48797d151999a2e6abf913f",
    "convex9-at":
        "abf35431af95779f8c05ee4b34b8383a0a7755251a5897d0bfbdb50b8dff27f5",
    "convex21-face0":
        "9ef3c65b77d3c8b8af76598ce4608ec5b47f75578bdd29b8ff319319bdbd9d94",
    "convex22-face0":
        "1bba904bfef2d475d5c5d193a6b71263f282d56824b2725ab5201395772b307d",
}


class TestReportBytes:
    """analyze reports byte for byte, and each profile line against the
    compact dump of the per-face dict it stands for."""

    @staticmethod
    def analyze(name, tmp_path, monkeypatch):
        # relative paths, so the report's input path is the same on every run
        family, n, options = REPORT_CASES[name]
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--family", family, "--n", str(n), "--seed", "1",
                     "--output", "drawing.json"]) == 0
        assert main(["analyze", "--input", "drawing.json", *options,
                     "--output", "report.json"]) == 0
        return (tmp_path / "report.json").read_bytes()

    @pytest.mark.parametrize("name", REPORT_CASES)
    def test_report_sha256(self, name, tmp_path, monkeypatch):
        report = self.analyze(name, tmp_path, monkeypatch)
        assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[name]

    @pytest.mark.parametrize("name", REPORT_CASES)
    def test_every_row_is_the_reference_dict(self, name, tmp_path, monkeypatch):
        text = self.analyze(name, tmp_path, monkeypatch).decode("utf-8")
        options = REPORT_CASES[name][2]
        kmax = int(options[1]) if options[0] == "--kmax" else None
        drawing = load_drawing(read(tmp_path / "drawing.json"))
        analyzed = json.loads(text)["faces"]["analyzed"]
        rows = [line.lstrip() for line in top_level_lines(text, "profiles")]
        assert len(rows) == len(analyzed) > 0
        for face, row in zip(analyzed, rows):
            assert row == _compact(reference_profile(drawing, face, kmax)), face
        if name.startswith("cylindrical") and name.endswith("-auto"):
            assert any('"pass":false' in row for row in rows)
        if name == "convex21-face0":  # the largest n whose k-values are one digit
            assert max(json.loads(rows[0])["k_values"].values()) == 9
        if name == "convex22-face0":  # the template's k-values past one digit
            assert max(json.loads(rows[0])["k_values"].values()) == 10


# (family, n, analyze options) of each streamed report; "not-good" is the
# K7 whose report carries no profiles and exits 2
STREAMED_CASES = {
    "auto": ("cylindrical", 9, ["--face", "auto"]),
    "face-id": ("rectilinear", 10, ["--face", "5"]),
    "at": ("convex", 9, ["--face", "at:0,0"]),
    "convex3-auto": ("convex", 3, ["--face", "auto"]),  # empty bound table
    "not-good": (None, 7, ["--face", "auto"]),
    "kmax0": ("convex", 8, ["--face", "auto", "--kmax", "0"]),
}


class TestStreamedReport:
    """analyze writes its report row by row, to a file and to stdout, in
    the bytes dumps_document gives the whole report."""

    @staticmethod
    def expected(name, tmp_path):
        """The analyze argv of the case without --output, its exit code,
        and dumps_document of the whole report with every row built by
        oracles.reference_profile."""
        family, n, options = STREAMED_CASES[name]
        path = tmp_path / "drawing.json"
        if family is None:
            path.write_text(json.dumps(not_good_k7_document()))
        else:
            assert main(["generate", "--family", family, "--n", str(n), "--seed", "1",
                         "--output", str(path)]) == 0
        drawing = load_drawing(read(path))
        selector = options[1]
        if selector == "auto":
            faces = list(trace_faces(drawing).face_ids())
        elif selector.startswith("at:"):
            faces = [cli.locate_face(drawing, tuple(map(int, selector[3:].split(","))))]
        else:
            faces = [int(selector)]
        kmax = int(options[3]) if options[2:3] == ["--kmax"] else None
        report = reference_report(drawing, str(path),
                                  hashlib.sha256(path.read_bytes()).hexdigest(), faces, kmax)
        code = 0 if report["goodness"]["pass"] else 2
        return ["analyze", "--input", str(path), *options], code, dumps_document(report)

    @pytest.mark.parametrize("name", STREAMED_CASES)
    def test_file_bytes(self, name, tmp_path):
        argv, code, text = self.expected(name, tmp_path)
        out = tmp_path / "report.json"
        assert main([*argv, "--output", str(out)]) == code
        assert out.read_bytes() == text.encode("utf-8")
        assert ('"profiles":[]' in text) == (name == "not-good")

    @pytest.mark.parametrize("name", STREAMED_CASES)
    def test_stdout_bytes(self, name, tmp_path, capsys):
        argv, code, text = self.expected(name, tmp_path)
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().out == text

    def test_memory_follows_the_drawing(self, tmp_path):
        """The peak of traced allocations of an in-process analyze of every
        face stays under twice that of one face: no job holds its report,
        which is larger than the whole one-face peak. Holding it as rows
        and as one text, the job on this K20 peaked at 30 MB against
        5.5 MB for one face."""
        rng = random.Random(20)
        drawing = two_page_drawing(20, "".join(rng.choice("01") for _ in range(comb(20, 2))))
        path = tmp_path / "k20.json"
        path.write_text(json.dumps(drawing_to_document(drawing, "combinatorial")))
        peaks = {}
        for selector in ("0", "auto"):
            tracemalloc.start()
            try:
                assert main(["analyze", "--input", str(path), "--face", selector,
                             "--output", str(tmp_path / "report.json")]) == 0
                peaks[selector] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "report.json").stat().st_size > peaks["0"]
        assert peaks["auto"] < 2 * peaks["0"]


class TestRefusedAnalyze:
    """An analyze job refused after its drawing loads, whatever the check
    that refuses it, exits 2 and creates no output file. (A drawing that
    is not good still gets its whole report: TestStreamedReport.)"""

    @pytest.mark.parametrize("options, message", [
        (["--face", "99999"], "face 99999 does not exist"),
        (["--face", "0", "--kmax", "5"], "kmax must lie in 0..1"),
        (["--face", "auto", "LABELLING"], "at most 257 vertices"),
    ], ids=["face", "kmax", "labelling"])
    def test_no_file(self, options, message, tmp_path, monkeypatch, capsys):
        if options[-1] == "LABELLING":
            # the refusal of a drawing on more than 257 vertices, raised
            # when the first row is read
            options = options[:-1]

            def refused(drawing):
                raise ValueError("k-values are read for drawings on at most 257 vertices")

            monkeypatch.setattr(kedges, "_labelling", refused)
        drawing = tmp_path / "k7.json"
        assert main(["generate", "--family", "convex", "--n", "7",
                     "--output", str(drawing)]) == 0
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["analyze", "--input", str(drawing), *options,
                     "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert main(["analyze", "--input", str(drawing), *options]) == 2
        assert capsys.readouterr().out == ""


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
    return rerouted_document(n, seed, (u, v), points), n, seed


@lru_cache(maxsize=None)
def _combinatorial_text(n, seed):
    return json.dumps(drawing_to_document(random_rectilinear(n, seed), "combinatorial"))


def _assert_documented_exits(doc, n, seed):
    """Run analyze, decide, verify and export --labels on the document:
    each exits 0-4 without a traceback, and all four exit 2 if it does not
    load or is not good."""
    try:
        good = validate_goodness(load_drawing(doc)).ok
    except ShellcertError:
        good = False
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
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
    assert "Traceback" not in err.getvalue()
    if not good:
        assert set(codes.values()) == {2}, codes


@settings(max_examples=12, deadline=None, derandomize=True)
@given(rerouted_documents())
def test_rerouted_edge_gets_documented_exit(case):
    _assert_documented_exits(*case)


@st.composite
def mutated_combinatorial_documents(draw):
    """A rectilinear K6-K8 as a combinatorial document with one mutation:
    two neighbours swapped in one rotation, one chain reversed or emptied,
    one rotation emptied, one crossing node dropped (from the nodes, the
    rotations and its chains), or an orphan crossing node added that no
    chain passes through."""
    n = draw(st.integers(6, 8))
    seed = draw(st.integers(1, 3))
    doc = json.loads(_combinatorial_text(n, seed))
    kind = draw(st.sampled_from(("swap", "reverse", "drop", "empty-chain",
                                 "empty-rotation", "orphan")))
    if kind == "empty-chain":
        doc["chains"][draw(st.sampled_from(sorted(doc["chains"])))] = []
    elif kind == "empty-rotation":
        doc["rotations"][draw(st.sampled_from(sorted(doc["rotations"])))] = []
    elif kind == "orphan":
        node = max(x["id"] for x in doc["nodes"]) + 1
        doc["nodes"].append({"id": node, "kind": "crossing", "edges": [[0, 1], [2, 3]]})
        doc["rotations"][str(node)] = []
    elif kind == "swap":
        rot = doc["rotations"][draw(st.sampled_from(sorted(doc["rotations"])))]
        i, j = draw(st.lists(st.integers(0, len(rot) - 1), min_size=2, max_size=2,
                             unique=True))
        rot[i], rot[j] = rot[j], rot[i]
    elif kind == "reverse":
        doc["chains"][draw(st.sampled_from(sorted(doc["chains"])))].reverse()
    else:
        node = draw(st.sampled_from([x["id"] for x in doc["nodes"]
                                     if x["kind"] == "crossing"]))
        doc["nodes"] = [x for x in doc["nodes"] if x["id"] != node]
        del doc["rotations"][str(node)]
        for chain in doc["chains"].values():
            if node in chain:
                chain.remove(node)
    return doc, n, seed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mutated_combinatorial_documents())
def test_mutated_combinatorial_document_gets_documented_exit(case):
    _assert_documented_exits(*case)


def _selector():
    """A face selector: an id (out of range when large or negative),
    "auto", or a point, which may lie on the drawing."""
    coord = st.integers(-120_000, 120_000)
    return st.one_of(st.just("auto"), st.integers(-2, 400).map(str),
                     st.tuples(coord, coord).map(lambda p: f"at:{p[0]},{p[1]}"))


@st.composite
def flag_cases(draw):
    """A rectilinear K5-K8 document and one analyze, decide or export run
    with drawn --kmax, --k, --size and --face/--labels values."""
    n = draw(st.integers(5, 8))
    seed = draw(st.integers(1, 3))
    command = draw(st.sampled_from(("analyze", "decide", "export")))
    if command == "analyze":
        flags = ["--face", draw(_selector())]
        kmax = draw(st.none() | st.integers(-3, 5))
        if kmax is not None:
            flags += ["--kmax", str(kmax)]
    elif command == "decide":
        flags = ["--mode", draw(st.sampled_from(("seq", "bishell"))),
                 "--face", draw(_selector())]
        k = draw(st.none() | st.integers(-2, 8))
        if k is not None:
            flags += ["--k", str(k)]
    else:
        flags = ["--size", str(draw(st.integers(-3, 64)))]
        for name in ("--face", "--labels"):
            if draw(st.booleans()):
                flags += [name, draw(_selector())]
    return n, seed, command, flags


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flag_cases())
def test_drawn_flags_get_documented_exit(case):
    n, seed, command, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        drawing = tmp / "drawing.json"
        drawing.write_text(rectilinear_document_text(n, seed))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--input", str(drawing),
                         "--output", str(tmp / "out"), *flags])
    assert code in DOCUMENTED_EXITS, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
