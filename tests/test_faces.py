"""Faces over integer darts: the arrays the tracer keeps, the tuple views
it builds only when read, and the jobs that never read those views.

trace_faces numbers the darts by node and then in rotation order and
keeps, as ints, each dart's reverse (twin), the face on its left
(face_of) and each face's boundary walk (walks). faces and dart_face,
the (tail, head) tuple views, are built on their first read and must
equal the reference tracer's, which walks (tail, head) darts by a
predecessor map, key order included.
"""

import json
import random
from functools import cached_property
from itertools import chain

import pytest
from hypothesis import given, settings

from corpus import convex, cylindrical, not_good_k7_document, rectilinear
from oracles import reference_trace
from shellcert import cli
from shellcert.documents import drawing_to_document, dump_document, load_drawing
from shellcert.drawing import Drawing, FaceSet, delete_vertex, trace_faces
from shellcert.errors import ShellcertError
from test_lazy_geometry import FAMILIES
from test_load_messages import mutated_documents


def check_darts(drawing):
    """The invariants of the drawing's dart arrays and their tuple views."""
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
    assert [fs.path_darts(dart) for dart in numbered] == [[i] for i in darts]
    # the lazy views equal the reference tracer's, key order included
    ref = reference_trace(drawing)
    assert fs.faces == ref.faces
    assert list(fs.dart_face.items()) == list(ref.dart_face.items())


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_documents())
def test_dart_arrays_on_mutated_documents(doc):
    try:
        drawing = load_drawing(json.loads(json.dumps(doc)))
    except ShellcertError:
        return
    check_darts(drawing)


@pytest.fixture
def views(monkeypatch):
    """The builds of FaceSet.faces and FaceSet.dart_face, by name."""
    built = []
    for name in ("faces", "dart_face"):
        def counted(fs, build=getattr(FaceSet, name).func, name=name):
            built.append(name)
            return build(fs)

        view = cached_property(counted)
        view.__set_name__(FaceSet, name)  # setattr on a class does not call it
        monkeypatch.setattr(FaceSet, name, view)
    return built


@pytest.mark.parametrize("mode", ["geometric", "combinatorial"])
@pytest.mark.parametrize("family", FAMILIES)
def test_each_job_builds_only_the_face_views_it_reads(family, mode, views, tmp_path,
                                                      capsys):
    path, out = tmp_path / "drawing.json", tmp_path / "out"
    dump_document(drawing_to_document(load_drawing(FAMILIES[family]()), mode), path)
    seq, bishell = tmp_path / "seq.json", tmp_path / "bishell.json"
    # a single-face decide may be negative (exit 1); the others are not
    assert cli.main(["decide", "--mode", "bishell", "--k", "1", "--face", "2",
                     "--input", str(path)]) in (0, 1)
    assert views == []
    jobs = [["decide", "--mode", "seq", "--k", "1", "--output", str(seq)],
            ["decide", "--mode", "bishell", "--k", "1", "--output", str(bishell)],
            ["verify", "--certificate", str(seq)],
            ["verify", "--certificate", str(bishell)],
            ["analyze", "--face", "3"],
            ["analyze", "--face", "auto"]]
    if mode == "geometric":
        jobs += [["export", "--output", str(out)],
                 ["export", "--labels", "2", "--output", str(out)],
                 ["analyze", "--face", "at:1,1"]]
    for argv in jobs:
        assert cli.main([*argv, "--input", str(path)]) == 0, argv
        assert views == [], argv
    if mode == "geometric":
        # a face highlight draws the face's darts from their tuples
        for face in ("2", "at:1,1"):
            assert cli.main(["export", "--face", face, "--input", str(path),
                             "--output", str(out)]) == 0
            assert views == ["faces"], face
            del views[:]
    capsys.readouterr()
