"""Faces over integer darts: the arrays the tracer keeps.

trace_faces numbers the darts by node and then in rotation order and
keeps, as ints, each dart's reverse (twin), the face on its left
(face_of), each face's boundary walk (walks) and the node each dart
leaves (tails). The (tail, head) views the test oracles build from these
arrays must equal the reference tracer's, which walks (tail, head) darts
by a predecessor map, key order included. A face's vertices, which the
library reads off each vertex's darts, must be those of its walk.
"""

import json
import random
from itertools import chain

import pytest
from hypothesis import given, settings

from corpus import convex, cylindrical, not_good_k7_document, rectilinear
from oracles import face_views, path_darts, reference_trace, walk_face_vertex_table
from shellcert import drawing as drawing_module
from shellcert.cli import main
from shellcert.documents import drawing_to_document, load_drawing
from shellcert.drawing import (Drawing, FaceSet, delete_vertex, face_vertex_table,
                               trace_faces, vertices_on_face)
from shellcert.errors import ShellcertError
from shellcert.generators import convex_document, cylindrical_document, rectilinear_document
from test_drawing import double_crossing_k5_doc
from test_load_messages import mutated_documents


def check_darts(drawing):
    """The invariants of the drawing's dart arrays and the tuple views built
    from them."""
    fs = trace_faces(drawing)
    twin, walks, face_of = fs.twin, fs.walks, fs.face_of
    darts = range(len(twin))
    # twin is an involution without fixed points
    assert all(twin[twin[i]] == i != twin[i] for i in darts)
    # the walks partition the darts, and face_of names each dart's walk
    assert sorted(chain.from_iterable(walks)) == list(darts)
    assert len(face_of) == len(twin)
    assert all(face_of[i] == f for f, walk in enumerate(walks) for i in walk)
    # the numbering: by node, then in rotation order; path_darts inverts it
    rot = drawing.rotations
    numbered = [(x, y) for x in sorted(rot) for y in rot[x]]
    assert list(zip(fs.tails, map(fs.tails.__getitem__, twin))) == numbered
    assert [path_darts(fs, dart) for dart in numbered] == [[i] for i in darts]
    # the views built from the arrays equal the reference tracer's, key
    # order included
    views, ref = face_views(fs), reference_trace(drawing)
    assert views.faces == ref.faces
    assert list(views.dart_face.items()) == list(ref.dart_face.items())


def relabelled(drawing, seed):
    """The drawing with its vertices permuted and its crossings given
    scattered ids, by a seeded shuffle; rotations keep their order."""
    rng = random.Random(seed)
    order = list(drawing.vertices)
    rng.shuffle(order)
    node = dict(zip(drawing.vertices, order))
    ids = rng.sample(range(drawing.n, 10 * (drawing.n + len(drawing.crossings))),
                     len(drawing.crossings))
    node.update(zip(drawing.crossings, ids))
    chains = {}
    for ch in drawing.chains.values():
        ch = [node[x] for x in ch]
        chains[min(ch[0], ch[-1]), max(ch[0], ch[-1])] = ch if ch[0] < ch[-1] else ch[::-1]
    return Drawing(order, {node[c]: [tuple(sorted(node[u] for u in e)) for e in pair]
                           for c, pair in drawing.crossings.items()},
                   {node[x]: [node[y] for y in rot] for x, rot in drawing.rotations.items()},
                   chains)


CORPUS = {
    **{f"convex{n}": (convex, n) for n in range(3, 13)},
    **{f"cylindrical{n}": (cylindrical, n) for n in range(5, 13)},
    **{f"rectilinear{n}-{seed}": (rectilinear, n, seed)
       for n in range(5, 11) for seed in (1, 2)},
    "not-good-k7": (lambda: load_drawing(not_good_k7_document()),),
}


@pytest.mark.parametrize("name", CORPUS)
def test_dart_arrays_on_the_corpus(name):
    factory, *args = CORPUS[name]
    drawing = factory(*args)
    check_darts(drawing)
    for seed in range(3):
        check_darts(relabelled(drawing, f"{name}:{seed}"))
    # children of a deletion keep gaps in their node ids
    if drawing.n > 3 and name != "not-good-k7":
        for v in drawing.vertices[::3]:
            check_darts(delete_vertex(drawing, v)[0])


@pytest.mark.parametrize("factory, seed", ((convex, ()), (cylindrical, ()), (rectilinear, (1,))),
                         ids=("convex", "cylindrical", "rectilinear"))
def test_face_vertex_table_is_the_walk_read(factory, seed):
    """The table read in one pass over each vertex's darts lists, on every
    face, the vertices of its boundary walk, ascending; also with the
    vertices permuted and the crossings renumbered, and in the children
    of a deletion, whose node ids have gaps. vertices_on_face reads the
    same sets off the table, built once per drawing."""
    for n in range(4, 13):
        drawing = factory(n, *seed)
        for d in (drawing, relabelled(drawing, f"{factory.__name__}{n}"),
                  delete_vertex(drawing, drawing.vertices[n // 2])[0]):
            walk = walk_face_vertex_table(d)
            assert [vertices_on_face(d, f) for f in trace_faces(d).face_ids()] == [
                frozenset(verts) for verts in walk], (n, d.vertices)
            table = face_vertex_table(d)
            assert table == walk, (n, d.vertices)
            assert face_vertex_table(d) is table
            assert [key[0] for key in d._cache].count(face_vertex_table.__wrapped__) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_documents())
def test_dart_arrays_on_mutated_documents(doc):
    try:
        drawing = load_drawing(json.loads(json.dumps(doc)))
    except ShellcertError:
        return
    check_darts(drawing)


@pytest.fixture
def face_sets(monkeypatch):
    """The FaceSets that trace_faces builds while the test runs."""
    built = []

    def counted(*fields):
        built.append(FaceSet(*fields))
        return built[-1]

    monkeypatch.setattr(drawing_module, "FaceSet", counted)
    return built


@pytest.mark.parametrize("document", [
    lambda: convex_document(7), lambda: cylindrical_document(8),
    lambda: rectilinear_document(9, 3), double_crossing_k5_doc,
], ids=["convex", "cylindrical", "rectilinear", "bent-edges"])
def test_a_geometric_load_traces_faces_on_their_first_read(face_sets, document):
    drawing = load_drawing(document())
    assert face_sets == []
    faces = trace_faces(drawing)
    assert face_sets == [faces]
    # Euler's formula, which trace_faces checks as it builds
    assert faces.face_count() - len(drawing.segment_edge) + len(drawing.rotations) == 2
    assert trace_faces(drawing) is faces and len(face_sets) == 1


def test_plain_export_traces_no_faces(face_sets, tmp_path):
    doc = tmp_path / "k8.json"
    doc.write_text(json.dumps(cylindrical_document(8)))
    assert main(["export", "--input", str(doc), "--output", str(tmp_path / "k8.svg")]) == 0
    assert face_sets == []


def test_a_combinatorial_load_traces_its_faces(face_sets):
    """A rotation system from outside may not be a sphere, so the loader
    checks Euler's formula at once."""
    document = drawing_to_document(convex(6), "combinatorial")
    face_sets.clear()
    drawing = load_drawing(document)
    assert len(face_sets) == 1
    assert trace_faces(drawing) is face_sets[0]
