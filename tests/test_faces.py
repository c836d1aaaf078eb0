"""Faces over integer darts: the arrays the tracer keeps.

trace_faces numbers the darts by node and then in rotation order and
keeps, as ints, each dart's reverse (twin), the face on its left
(face_of), each face's boundary walk (walks) and the node each dart
leaves (tails). The (tail, head) views the test oracles build from these
arrays must equal the reference tracer's, which walks (tail, head) darts
by a predecessor map, key order included.
"""

import json
import random
from itertools import chain

import pytest
from hypothesis import given, settings

from corpus import convex, cylindrical, not_good_k7_document, rectilinear
from oracles import face_views, reference_trace
from shellcert.documents import load_drawing
from shellcert.drawing import Drawing, delete_vertex, trace_faces
from shellcert.errors import ShellcertError
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
    assert [fs.path_darts(dart) for dart in numbered] == [[i] for i in darts]
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_documents())
def test_dart_arrays_on_mutated_documents(doc):
    try:
        drawing = load_drawing(json.loads(json.dumps(doc)))
    except ShellcertError:
        return
    check_darts(drawing)
