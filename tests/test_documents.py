"""Interchange document parsing: strictness and round-trips."""

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import convex, top_level_lines
from oracles import canonical_form
from shellcert.documents import (certificate_from_document,
                                 certificate_to_document, drawing_to_document,
                                 dump_document, dumps_document, load_drawing)
from shellcert.drawing import Drawing
from shellcert.generators import cylindrical_document
from shellcert.errors import CertificateMismatchError, DocumentError, ShellcertError
from shellcert.planarize import Geometry
from shellcert.shellability import BishellCertificate, SeqShellCertificate
from test_drawing import convex_k4_doc, triangle_doc


def test_header_required():
    with pytest.raises(DocumentError, match="format"):
        load_drawing({"mode": "geometric", "n": 3})


def test_unknown_mode():
    doc = triangle_doc()
    doc["mode"] = "freehand"
    with pytest.raises(DocumentError, match="mode"):
        load_drawing(doc)


def test_version_checked():
    doc = triangle_doc()
    doc["version"] = 2
    with pytest.raises(DocumentError, match="version"):
        load_drawing(doc)


def test_n_too_small():
    doc = triangle_doc()
    doc["n"] = 2
    with pytest.raises(DocumentError):
        load_drawing(doc)


def test_unknown_keys_rejected():
    doc = triangle_doc()
    doc["extra"] = 1
    with pytest.raises(DocumentError, match="unknown keys"):
        load_drawing(doc)


def test_missing_edge_rejected():
    doc = triangle_doc()
    doc["edges"] = doc["edges"][:2]
    with pytest.raises(DocumentError, match="every vertex pair"):
        load_drawing(doc)


def test_duplicate_edge_rejected():
    doc = triangle_doc()
    doc["edges"][2] = dict(doc["edges"][1])
    with pytest.raises(DocumentError):
        load_drawing(doc)


def test_non_integer_coordinates_rejected():
    doc = triangle_doc()
    doc["vertices"][0]["x"] = 0.5
    with pytest.raises(DocumentError, match="integer"):
        load_drawing(doc)


def test_bool_is_not_an_integer():
    doc = triangle_doc()
    doc["vertices"][0]["x"] = True
    with pytest.raises(DocumentError, match="integer"):
        load_drawing(doc)


def test_polyline_endpoint_mismatch():
    doc = triangle_doc()
    doc["edges"][0]["polyline"] = [[0, 0], [5, 0]]
    with pytest.raises(DocumentError, match="start and end"):
        load_drawing(doc)


def test_reversed_edge_orientation_accepted():
    doc = triangle_doc()
    doc["edges"][0] = {"u": 1, "v": 0, "polyline": [[4, 0], [0, 0]]}
    d = load_drawing(doc)
    assert d.n == 3


def test_repeated_polyline_point_rejected():
    doc = triangle_doc()
    doc["edges"][0]["polyline"] = [[0, 0], [0, 0], [4, 0]]
    with pytest.raises(DocumentError, match="repeats"):
        load_drawing(doc)


class TestCombinatorialMode:
    def doc(self):
        return drawing_to_document(load_drawing(convex_k4_doc()), "combinatorial")

    def test_roundtrip(self):
        doc = self.doc()
        d = load_drawing(doc)
        assert d.n == 4 and d.crossing_count() == 1

    def test_rotation_order_declared(self):
        doc = self.doc()
        del doc["rotation_order"]
        with pytest.raises(DocumentError, match="rotation_order"):
            load_drawing(doc)

    def test_chain_keys_validated(self):
        doc = self.doc()
        doc["chains"]["0-0"] = [0, 0]
        with pytest.raises(DocumentError):
            load_drawing(doc)

    def test_broken_rotation_rejected(self):
        doc = self.doc()
        crossing = next(n["id"] for n in doc["nodes"] if n["kind"] == "crossing")
        rot = doc["rotations"][str(crossing)]
        # swapping two entries breaks the opposite-segments rule
        rot[0], rot[1] = rot[1], rot[0]
        with pytest.raises(DocumentError, match="opposite"):
            load_drawing(doc)

    def test_non_spherical_rotation_rejected(self):
        # flipping one vertex rotation changes the genus of the embedding
        doc = drawing_to_document(convex(5), "combinatorial")
        doc["rotations"]["0"] = list(reversed(doc["rotations"]["0"]))
        from shellcert.errors import EmbeddingError
        with pytest.raises(EmbeddingError, match="sphere"):
            load_drawing(doc)

    def test_missing_chain_rejected(self):
        doc = self.doc()
        del doc["chains"]["0-1"]
        with pytest.raises(DocumentError):
            load_drawing(doc)


class TestSizeChecks:
    """A document that lists too few edges or chains is rejected before
    the loader builds the quadratic set of all vertex pairs."""

    N = 1500

    def peak_while_rejected(self, doc, match):
        tracemalloc.start()
        try:
            with pytest.raises(DocumentError, match=match):
                load_drawing(doc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_geometric_without_edges(self):
        doc = {"format": "shellcert-drawing", "version": 1, "mode": "geometric",
               "n": self.N, "edges": [],
               "vertices": [{"id": i, "x": i, "y": i * i} for i in range(self.N)]}
        assert self.peak_while_rejected(doc, "every vertex pair") < 2 * 2 ** 20

    def test_combinatorial_without_chains(self):
        doc = {"format": "shellcert-drawing", "version": 1, "mode": "combinatorial",
               "n": self.N, "rotation_order": "ccw", "rotations": {}, "chains": {},
               "nodes": [{"id": i, "kind": "vertex"} for i in range(self.N)]}
        assert self.peak_while_rejected(doc, "every vertex pair") < 2 * 2 ** 20


class TestDrawingExport:
    def test_geometric_export_needs_geometry(self):
        doc = drawing_to_document(load_drawing(triangle_doc()), "combinatorial")
        d = load_drawing(doc)
        with pytest.raises(ValueError, match="geometry"):
            drawing_to_document(d, "geometric")

    def test_geometric_export_needs_integer_polylines(self):
        # the loader admits integer points only, so the drawing is built
        # by hand around a geometry whose edge (0, 1) bends at x = 1/2
        d = load_drawing(triangle_doc())
        positions = {0: (0, 0), 1: (4, 0), 2: (0, 4)}
        polylines = {(0, 1): [(0, 0), (Fraction(1, 2), -1), (4, 0)],
                     (0, 2): [(0, 0), (0, 4)], (1, 2): [(4, 0), (0, 4)]}
        bent = Drawing(d.vertices, d.crossings, d.rotations, d.chains,
                       Geometry(positions, polylines, [], {}))
        with pytest.raises(ValueError,
                           match=r"^edge \(0, 1\): polyline is not integer-valued$"):
            drawing_to_document(bent, "geometric")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown mode 'svg'$"):
            drawing_to_document(convex(5), "svg")

    def test_entries_equal_to_node_ids_are_written_as_node_ids(self):
        # Drawing matches rotations and chains by equality, so it keeps
        # True for node 1 and 5.0 for crossing 5
        plain = convex(5)
        bools = Drawing(plain.vertices, plain.crossings,
                        {True if x == 1 else x: tuple(True if y == 1 else y for y in rot)
                         for x, rot in plain.rotations.items()}, plain.chains)
        floats = Drawing(plain.vertices, plain.crossings, plain.rotations,
                         {e: (ch[0], *map(float, ch[1:-1]), ch[-1])
                          for e, ch in plain.chains.items()})
        assert True in bools.rotations and any(type(x) is float for x in floats.chains[(0, 2)])
        text = dumps_document(drawing_to_document(plain, "combinatorial"))
        for d in (bools, floats):
            doc = drawing_to_document(d, "combinatorial")
            assert dumps_document(doc) == text
            assert canonical_form(load_drawing(doc)) == canonical_form(plain)

    def test_subdrawing_export_requires_contiguous_ids(self):
        from shellcert.drawing import child_drawing
        child, _, _ = child_drawing(convex(5), 2)
        with pytest.raises(ValueError, match="0..n-1"):
            drawing_to_document(child, "combinatorial")


class TestCertificateDocuments:
    def test_seq_roundtrip(self):
        cert = SeqShellCertificate(3, (0, 1), ((1, 2), (2,)))
        doc = certificate_to_document(cert, drawing_sha256="ab" * 32)
        back, digest = certificate_from_document(doc)
        assert back == cert and digest == "ab" * 32

    def test_bishell_roundtrip(self):
        cert = BishellCertificate(0, (0, 2), (1, 3))
        back, digest = certificate_from_document(certificate_to_document(cert))
        assert back == cert and digest is None

    def test_arity_mismatch_rejected(self):
        doc = certificate_to_document(SeqShellCertificate(0, (0, 1), ((1, 2), (2,))))
        doc["a"] = [0]
        with pytest.raises(DocumentError):
            certificate_from_document(doc)

    def test_only_certificates_are_written(self):
        with pytest.raises(ValueError, match="^not a certificate$"):
            certificate_to_document(object())

    @pytest.mark.parametrize("cert, digest, message", [
        (SeqShellCertificate(0, (0, 1), ((1, 2), (2,))), 5, "bad drawing_sha256"),
        (BishellCertificate(0, (True,), (1,)), None, '"a" must list k+1 = 1 vertex ids'),
        (BishellCertificate("0", (0,), (1,)), None,
         '"face" and "k" must be integers, k nonnegative'),
        (SeqShellCertificate(0, (), ()), None, '"face" and "k" must be integers, k nonnegative'),
        (BishellCertificate(0, (0, 1), (2,)), None, '"b" must list k+1 = 2 vertex ids'),
        (SeqShellCertificate(0, (0, 1), ((2,),)), None,
         '"S" must list one vertex sequence per a-vertex'),
    ], ids=["int-digest", "bool-vertex", "str-face", "empty", "short-b", "short-S"])
    def test_the_writer_refuses_what_the_reader_refuses(self, cert, digest, message):
        with pytest.raises(ValueError) as info:
            certificate_to_document(cert, drawing_sha256=digest)
        assert str(info.value) == message

    @pytest.mark.parametrize("cert, message", [
        (SeqShellCertificate(0, 5, 6),
         "certificate field vertices must be a tuple or list, got 5"),
        (SeqShellCertificate(0, (0,), (3,)),
         "certificate field sequences[0] must be a tuple or list, got 3"),
        (BishellCertificate(0, (0,), 6),
         "certificate field b_sequence must be a tuple or list, got 6"),
    ])
    def test_a_field_that_holds_no_sequence_is_named(self, cert, message):
        with pytest.raises(CertificateMismatchError) as info:
            certificate_to_document(cert)
        assert str(info.value) == message

    def test_unknown_kind_rejected(self):
        doc = certificate_to_document(BishellCertificate(0, (0,), (1,)))
        doc["kind"] = "mono"
        with pytest.raises(DocumentError, match="kind"):
            certificate_from_document(doc)


def ordered(text):
    """A JSON text as nested lists, object entries in the order written."""
    return json.loads(text, object_pairs_hook=list)


class TestWriter:
    """dumps_document: one value, one layout, the same bytes every time."""

    def documents(self):
        geometric = cylindrical_document(6)
        combinatorial = drawing_to_document(load_drawing(geometric), "combinatorial")
        return geometric, combinatorial

    def test_documents_parse_back_with_keys_in_sorted_order(self):
        for doc in self.documents():
            text = dumps_document(doc)
            assert json.loads(text) == doc
            assert ordered(text) == ordered(json.dumps(doc, sort_keys=True))
            assert text.endswith("}\n")

    def test_certificates_parse_back(self):
        for cert in (SeqShellCertificate(3, (0, 1), ((1, 2), (2,))),
                     BishellCertificate(0, (0, 2), (1, 3))):
            doc = certificate_to_document(cert, drawing_sha256="ab" * 32)
            text = dumps_document(doc)
            assert json.loads(text) == doc
            assert certificate_from_document(json.loads(text)) == (cert, "ab" * 32)

    def test_written_document_loads_to_the_same_drawing(self, tmp_path):
        for doc in self.documents():
            path = tmp_path / f"{doc['mode']}.json"
            dump_document(doc, path)
            with open(path, "r", encoding="utf-8") as fh:
                back = load_drawing(json.load(fh))
            assert canonical_form(back) == canonical_form(load_drawing(doc))
            assert path.read_text(encoding="utf-8") == dumps_document(doc)

    def test_one_line_per_edge_node_rotation_and_chain(self):
        geometric, combinatorial = self.documents()
        for doc, key in ((geometric, "edges"), (geometric, "vertices"),
                         (combinatorial, "nodes")):
            lines = top_level_lines(dumps_document(doc), key)
            assert [json.loads(line) for line in lines] == doc[key]
        for key in ("rotations", "chains"):
            lines = top_level_lines(dumps_document(combinatorial), key)
            assert dict(json.loads("{" + line + "}").popitem() for line in lines) \
                == combinatorial[key]

    def test_empty_containers_non_ascii_and_non_string_keys(self):
        value = {"path": "zeichnungen/ü/図.json", "empty": [], "none": {},
                 "nested": {"a": [], "b": {}, "c": [[], {}, "é"]},
                 "rows": [[], {}, (1, 2)], "by_id": {2: {3: [4]}, 1: 0.5}}
        for doc in (value, {2: {3: [4]}, 1: [None, True]}):
            text = dumps_document(doc)
            assert ordered(text) == ordered(json.dumps(doc, sort_keys=True))
            assert text.isascii()
        assert '"empty":[]' in dumps_document(value)
        assert '"none":{}' in dumps_document(value)

    def test_insertion_order_does_not_matter(self):
        doc = self.documents()[1]
        shuffled = {key: doc[key] for key in reversed(list(doc))}
        shuffled["chains"] = dict(reversed(list(doc["chains"].items())))
        assert dumps_document(shuffled) == dumps_document(doc)

    def test_scalars_and_empty_documents(self):
        for value in ({}, [], None, 3, "x"):
            assert dumps_document(value) == json.dumps(value) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_writer_matches_the_sorted_encoder(value):
    text = dumps_document(value)
    assert ordered(text) == ordered(json.dumps(value, sort_keys=True))
    assert text.endswith("\n") and text.isascii()


# what a certificate field might hold instead of a sequence of vertex ids
_ITEMS = st.one_of(st.integers(-2, 6), st.booleans(), st.sampled_from(["0", 1.0, None, [1]]))
_ODD = st.one_of(_ITEMS, st.just("012"), st.lists(_ITEMS, max_size=4),
                 st.lists(_ITEMS, max_size=4).map(tuple))


@st.composite
def certificate_shapes(draw):
    """A certificate of either kind with k = 0..3, on most draws with one
    field, one simple sequence or the digest replaced by something odd,
    and any of its sequences given as a list."""
    k = draw(st.integers(0, 3))
    ids = st.lists(st.integers(0, 6), min_size=k + 1, max_size=k + 1)
    fields = {"face": draw(st.integers(0, 3)), "a": draw(ids)}
    bishell = draw(st.booleans())
    if bishell:
        fields["b"] = draw(ids)
    else:
        fields["S"] = [draw(st.lists(st.integers(0, 6), max_size=3)) for _ in range(k + 1)]
    digest = draw(st.sampled_from([None, "ab" * 32]))
    odd = draw(st.sampled_from([None, "digest", "sequence", *fields]))
    if odd == "digest":
        digest = draw(st.sampled_from([5, b"ab", ["ab"]]))
    elif odd == "sequence" and not bishell:
        fields["S"][draw(st.integers(0, k))] = draw(_ODD)
    elif odd in fields:
        fields[odd] = draw(_ODD)
    shape = st.sampled_from([tuple, list])
    for name in ("a", "b"):
        if isinstance(fields.get(name), list):
            fields[name] = draw(shape)(fields[name])
    if isinstance(fields.get("S"), list):
        fields["S"] = draw(shape)(draw(shape)(s) if isinstance(s, list) else s
                                  for s in fields["S"])
    if bishell:
        return BishellCertificate(fields["face"], fields["a"], fields["b"]), digest
    return SeqShellCertificate(fields["face"], fields["a"], fields["S"]), digest


def _as_read(cert):
    """The certificate as the reader returns it: every sequence a tuple."""
    if isinstance(cert, BishellCertificate):
        return BishellCertificate(cert.face, tuple(cert.a_sequence), tuple(cert.b_sequence))
    return SeqShellCertificate(cert.face, tuple(cert.vertices), tuple(map(tuple, cert.sequences)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(certificate_shapes())
def test_a_written_certificate_reads_back_or_is_refused(shape):
    """Whatever its fields hold, a certificate is written as a document its
    reader returns it from, or refused by a precise error."""
    cert, digest = shape
    try:
        doc = certificate_to_document(cert, drawing_sha256=digest)
    except (ValueError, ShellcertError):
        return
    assert certificate_from_document(json.loads(json.dumps(doc))) == (_as_read(cert), digest)
