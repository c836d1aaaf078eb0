"""Geometry is built on its first read, and nothing outlives its drawing.

The planarizer keeps the records its Geometry is made from, and
drawing.geometry builds it once, on first access. Jobs that never read it
(analyze on face ids or all faces, decide) must never build it; the jobs
that do read it (export, at:x,y selectors, point location, geometric
export of the document) must see the same bytes as when the geometry was
built with the drawing. The digests pinned below were recorded with the
eager builder, on convex, cylindrical and rectilinear drawings in four
quarter turns.

Per-drawing data (labelling, packed masks, profiles, lazy geometry) lives
on the drawing, so dropping the drawing frees it: no process-wide cache.
"""

import gc
import hashlib
import importlib
import weakref

import pytest

from test_planarize import _turned_document
from shellcert import cli
from shellcert.documents import (drawing_to_document, dump_document, dumps_document,
                                 load_drawing)
from shellcert.drawing import trace_faces
from shellcert.generators import convex_document, cylindrical_document, rectilinear_document
from shellcert.kedges import invariant_edges, k_edge_profile
from shellcert.planarize import locate_face, outer_face
from shellcert.svg import render_svg

# the package's planarize function hides the module of the same name
planarize_module = importlib.import_module("shellcert.planarize")

FAMILIES = {
    "convex": lambda: convex_document(7),
    "cylindrical": lambda: cylindrical_document(7),
    "rectilinear": lambda: rectilinear_document(7, 3),
}

# sha256 of geometry_outputs(family) for each family, as the drawing
# built its geometry eagerly
PINNED = {
    "convex": "da2edfb15564107ce08611bf02b3a89ad47dc978e3e7362516e3a3d79107f4e4",
    "cylindrical": "6290260dc057924f5f263378477f47b4a9d74d4e58c4362e6a0e4d0f67254ef0",
    "rectilinear": "ede5f3aa7d3fea3584be9bf46eb8e02ed0e413d56b3f6f6418f5abc776072143",
}


def _answer(drawing, point):
    try:
        return str(locate_face(drawing, point))
    except ValueError as exc:
        return str(exc)


def geometry_outputs(family) -> bytes:
    """Everything that reads the geometry, in four quarter turns: SVGs
    plain and with a highlighted and a labelled face, point location on
    and beside every node and at the lattice points around the drawing,
    and the geometric document written back."""
    out = []
    for turns in range(4):
        drawing = load_drawing(_turned_document(FAMILIES[family](), turns))
        out.append(render_svg(drawing, size=300))
        out.append(render_svg(drawing, size=300, face_highlight=outer_face(drawing),
                              label_face=1))
        points = drawing.geometry.points
        xs = [int(x) for x, _ in points.values()]
        ys = [int(y) for _, y in points.values()]
        step = max(1, (max(xs) - min(xs)) // 5)
        queries = [(int(x) + dx, int(y)) for x, y in points.values() for dx in (-1, 0, 1)]
        queries += [(x, y) for x in range(min(xs) - step, max(xs) + 2 * step, step)
                    for y in range(min(ys) - step, max(ys) + 2 * step, step)]
        out.extend(f"{q}:{_answer(drawing, q)}" for q in queries)
        out.append(dumps_document(drawing_to_document(drawing, "geometric")))
    return "\n".join(out).encode()


@pytest.mark.parametrize("family", FAMILIES)
def test_geometry_outputs_match_the_eager_build(family):
    assert hashlib.sha256(geometry_outputs(family)).hexdigest() == PINNED[family]


@pytest.fixture
def builds(monkeypatch):
    """Counts the calls of planarize._build_geometry."""
    calls = []
    build = planarize_module._build_geometry

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(planarize_module, "_build_geometry", counted)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
def test_jobs_that_never_read_geometry_never_build_it(family, builds, tmp_path, capsys):
    path = tmp_path / "drawing.json"
    dump_document(FAMILIES[family](), path)
    for argv in (["analyze", "--face", "3"], ["analyze", "--face", "auto"],
                 ["decide", "--mode", "seq", "--k", "1"],
                 ["decide", "--mode", "bishell", "--k", "1", "--face", "2"]):
        assert cli.main([*argv, "--input", str(path)]) in (0, 1)
    assert builds == []
    # the jobs that read it build it once per load
    for argv in (["analyze", "--face", "at:-99999,-99999"],
                 ["export", "--output", str(tmp_path / "out.svg")]):
        assert cli.main([*argv, "--input", str(path)]) == 0
    assert len(builds) == 2
    capsys.readouterr()


def test_geometry_is_built_once(builds):
    drawing = load_drawing(convex_document(6))
    for face in trace_faces(drawing).face_ids():
        k_edge_profile(drawing, face)
    assert builds == []
    first = drawing.geometry
    assert drawing.geometry is first
    assert outer_face(drawing) == outer_face(drawing)
    assert len(builds) == 1
    combinatorial = load_drawing(drawing_to_document(drawing, "combinatorial"))
    assert combinatorial.geometry is None


@pytest.mark.parametrize("read_geometry", (False, True))
def test_dropped_drawings_are_freed(read_geometry):
    drawing = load_drawing(cylindrical_document(8))
    for face in trace_faces(drawing).face_ids():
        k_edge_profile(drawing, face)
        invariant_edges(drawing, face, face % drawing.n)
    if read_geometry:
        render_svg(drawing, label_face=0)
    ref = weakref.ref(drawing)
    del drawing
    gc.collect()
    assert ref() is None
