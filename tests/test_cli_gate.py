"""No-crash gate: malformed arguments and documents get their documented
exit code from analyze, decide, verify and export, never a traceback.

Every row runs cli.main in-process on small documents. Exit codes: 2
invalid input or usage (argparse's own usage errors included, which leave
through SystemExit(2)), 3 certificate not of the drawing, 4 capability
missing; rows that load and answer exit 0. Where a message quotes an
integer from outside that is hundreds of digits long, it gives the number
of digits instead, so every line of stderr stays short.
"""

import contextlib
import io
import json

import pytest

from corpus import not_good_k7_document
from shellcert import cli
from shellcert.documents import (certificate_to_document, drawing_to_document,
                                 dump_document, load_drawing)
from shellcert.errors import quoted
from shellcert.generators import convex_document, cylindrical_document
from shellcert.shellability import decide_seq_shellable

HUGE = str(10 ** 400)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Name -> path of the documents the rows read."""
    tmp = tmp_path_factory.mktemp("gate")
    k6 = convex_document(6)
    scaled = json.loads(json.dumps(k6))
    for v in scaled["vertices"]:
        v["x"], v["y"] = v["x"] * 10 ** 320, v["y"] * 10 ** 320
    for e in scaled["edges"]:
        e["polyline"] = [[x * 10 ** 320, y * 10 ** 320] for x, y in e["polyline"]]
    other = load_drawing(cylindrical_document(7))
    cert = certificate_to_document(decide_seq_shellable(load_drawing(k6), 1))
    unknown_face = dict(cert, face=999)
    documents = {
        "k6": k6,
        "scaled": scaled,
        "combinatorial": drawing_to_document(load_drawing(k6), "combinatorial"),
        "not-good": not_good_k7_document(),
        "other-cert": certificate_to_document(decide_seq_shellable(other, 1),
                                              drawing_sha256="0" * 64),
        "unknown-face-cert": unknown_face,
        "huge-face-cert": dict(cert, face=10 ** 400),
        "huge-k-cert": dict(cert, k=10 ** 400),
        "huge-vertex-cert": dict(cert, a=[10 ** 400, *cert["a"][1:]]),
    }
    paths = {}
    for name, doc in documents.items():
        paths[name] = tmp / f"{name}.json"
        dump_document(doc, paths[name])
    for name, text in (("truncated", "{"), ("list", "[1]"), ("huge-int", f'{{"n": {HUGE}}}')):
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(text)
    paths["missing"] = tmp / "missing.json"
    paths["out"] = tmp / "out"
    return paths


# (command and flags, with {name} for the path of that document; exit code)
ROWS = {
    "analyze-unknown-face": ("analyze --input {k6} --face 99", 2),
    "analyze-negative-face": ("analyze --input {k6} --face -1", 2),
    "analyze-word-face": ("analyze --input {k6} --face outer", 2),
    "analyze-huge-face": (f"analyze --input {{k6}} --face {HUGE}", 2),
    "analyze-one-coordinate": ("analyze --input {k6} --face at:1", 2),
    "analyze-float-point": ("analyze --input {k6} --face at:1.5,2", 2),
    "analyze-huge-kmax": (f"analyze --input {{k6}} --face 0 --kmax {HUGE}", 2),
    "analyze-word-kmax": ("analyze --input {k6} --kmax two", 2),
    "analyze-point-far-away": (f"analyze --input {{k6}} --face at:{HUGE},-{HUGE}", 0),
    "analyze-scaled": ("analyze --input {scaled} --face at:0,0", 0),
    "analyze-point-on-combinatorial": ("analyze --input {combinatorial} --face at:0,0", 4),
    "analyze-truncated-json": ("analyze --input {truncated}", 2),
    "analyze-list-document": ("analyze --input {list}", 2),
    "analyze-huge-n": ("analyze --input {huge-int}", 2),
    "analyze-missing-file": ("analyze --input {missing}", 2),
    "analyze-not-good": ("analyze --input {not-good}", 2),
    "decide-huge-k": (f"decide --input {{k6}} --mode seq --k {HUGE}", 2),
    "decide-negative-k": ("decide --input {k6} --mode seq --k -1", 2),
    "decide-unknown-face": ("decide --input {k6} --mode bishell --face 99", 2),
    "decide-unknown-mode": ("decide --input {k6} --mode triple", 2),
    "decide-point-on-combinatorial": ("decide --input {combinatorial} --mode seq "
                                      "--face at:0,0", 4),
    "decide-not-good": ("decide --input {not-good} --mode seq", 2),
    "verify-other-drawing": ("verify --input {k6} --certificate {other-cert}", 3),
    "verify-unknown-face": ("verify --input {k6} --certificate {unknown-face-cert}", 3),
    "verify-list-certificate": ("verify --input {k6} --certificate {list}", 2),
    "verify-truncated-certificate": ("verify --input {k6} --certificate {truncated}", 2),
    "verify-drawing-as-certificate": ("verify --input {k6} --certificate {k6}", 2),
    "verify-missing-certificate": ("verify --input {k6} --certificate {missing}", 2),
    "export-zero-size": ("export --input {k6} --output {out} --size 0", 2),
    "export-negative-size": ("export --input {k6} --output {out} --size -720", 2),
    "export-huge-size": (f"export --input {{k6}} --output {{out}} --size {HUGE}", 2),
    "export-word-size": ("export --input {k6} --output {out} --size large", 2),
    "export-unknown-face": ("export --input {k6} --output {out} --face 99", 2),
    "export-huge-labels": (f"export --input {{k6}} --output {{out}} --labels {HUGE}", 2),
    "export-auto-face": ("export --input {k6} --output {out} --face auto", 2),
    "export-auto-labels": ("export --input {k6} --output {out} --labels auto", 2),
    "export-combinatorial": ("export --input {combinatorial} --output {out}", 4),
    "export-combinatorial-face": ("export --input {combinatorial} --output {out} "
                                  "--face 0", 4),
    "export-combinatorial-point": ("export --input {combinatorial} --output {out} "
                                   "--labels at:0,0", 4),
    "export-scaled": ("export --input {scaled} --output {out}", 4),
    "export-scaled-face": ("export --input {scaled} --output {out} --face 0", 4),
    "export-other-certificate": ("export --input {k6} --output {out} "
                                 "--certificate {other-cert}", 3),
    "export-unknown-face-certificate": ("export --input {k6} --output {out} "
                                        "--certificate {unknown-face-cert}", 3),
    "export-labels-not-good": ("export --input {not-good} --output {out} --labels 0", 2),
    "export-truncated-json": ("export --input {truncated} --output {out}", 2),
}


def run(command, files):
    """(exit code, stderr) of cli.main on the command's words."""
    argv = [word.format_map({k: str(p) for k, p in files.items()})
            for word in command.split()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("row", ROWS)
def test_malformed_call_gets_its_documented_exit(row, files):
    command, expected = ROWS[row]
    code, err = run(command, files)
    assert code == expected, err
    assert "Traceback" not in err
    if code:
        assert len(err) < 1000
        assert not files["out"].exists()


# Calls whose message quotes an integer of 401 digits: (command, exit code)
HUGE_ECHOES = {
    "analyze-huge-face": (f"analyze --input {{k6}} --face {HUGE}", 2),
    "decide-huge-k": (f"decide --input {{k6}} --mode seq --k {HUGE}", 2),
    "export-huge-face": (f"export --input {{k6}} --output {{out}} --face {HUGE}", 2),
    "export-huge-negative-size": (f"export --input {{k6}} --output {{out}} --size -{HUGE}", 2),
    "verify-huge-face": ("verify --input {k6} --certificate {huge-face-cert}", 3),
    "verify-huge-k": ("verify --input {k6} --certificate {huge-k-cert}", 2),
    "verify-huge-vertex": ("verify --input {k6} --certificate {huge-vertex-cert}", 3),
}


@pytest.mark.parametrize("row", HUGE_ECHOES)
def test_huge_integers_are_quoted_by_their_digit_count(row, files):
    command, expected = HUGE_ECHOES[row]
    code, err = run(command, files)
    assert code == expected, err
    assert "401 digits" in err
    assert all(len(line.encode()) < 200 for line in err.splitlines()), err


@pytest.mark.parametrize("value, words", [
    (-1, "-1"), (10 ** 20 - 1, "9" * 20), (-(10 ** 20) + 1, "-" + "9" * 20),
    (10 ** 20, "a number of 21 digits"), (10 ** 400 - 1, "a number of 400 digits"),
    (-(10 ** 400), "a negative number of 401 digits"),
    # beyond the 4300 digits str() converts
    (10 ** 5000 + 1, "a number of 5001 digits"), ("4", "'4'")],
    ids=["short", "20-digits", "20-digits-negative", "21-digits", "400-digits",
         "401-digits-negative", "5001-digits", "not-an-int"])
def test_quoted_writes_out_20_digits_and_counts_longer_ones(value, words):
    assert quoted(value) == words
