"""Geometry keeps the planarizer's integers and makes Fractions only for
the points a job reads; nothing outlives its drawing.

The planarizer hands the drawing a Geometry over its own records: the
vertex positions, the polylines and the crossing records with their
integer points (x, y, d); drawing.geometry is that one object on every
read, and it builds no whole-drawing view. Jobs that never draw or
locate a point (analyze on face ids or all faces, decide) make no
Fraction; a plain export, one with k-value labels and writing the
geometric document back draw from the integers and make none either;
point location makes the query point's two and none for the drawing,
and a face highlight makes them for that face's crossings only. Every
job that reads the geometry must see the same bytes as when it was built
with the drawing. The digests in PINNED were recorded while the geometry
was built eagerly, on convex, cylindrical and rectilinear drawings in
four quarter turns; those in EXPORT_PINNED with the renderer that read
the Fraction points, on plain exports of the ingest benchmark's families
and sizes.
Geometry.point and Geometry.piece must equal the exact points and the
segment paths of the test oracles, which build those views whole.

Per-drawing data (labelling, packed masks, profiles) lives on the
drawing, so dropping the drawing frees it: no process-wide cache.
"""

import gc
import hashlib
import importlib
import weakref
from fractions import Fraction

import pytest

from oracles import exact_points, segment_paths
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


# sha256 of the plain export (default size) of cylindrical K12-K16 in
# 0, 1 and 2 quarter turns and rectilinear K8-K12 with seeds 1 and 2, as
# the renderer read geometry.points
EXPORT_PINNED = {
    "cylindrical-k12-q0": "e5dbff8316c882c49df26113d510afba3ee6dac4f0ef596ba22ff35b43960878",
    "cylindrical-k12-q1": "ab2de9453ad99a25e44e1c1ee8448bcd04c1d122b5e0b2035633d63901eb54b9",
    "cylindrical-k12-q2": "f110a46b2cb4e836de6628cfdf41382036f7a64baf5c70a32df93436cdae378a",
    "cylindrical-k13-q0": "3e4f38cfa4a771f9177f091d59682c4c8e3addcd31ccef77fa8ac256a9eaea50",
    "cylindrical-k13-q1": "be25ceac39e229aa33a71fcdfe10fd61e02c9c8ce23dc902958a917b6760a876",
    "cylindrical-k13-q2": "638437a976f9ccecebaaaf550689c2d6ae095f584b6a0e83d1a731950443efd7",
    "cylindrical-k14-q0": "57a3aeec88c4e4221c01907cf767b645bae77c3b83bcba54e905017c3a83fba2",
    "cylindrical-k14-q1": "4e66cf84495603d97c8bc3c4c203a163078ca68004420d1dc0654f84ff014464",
    "cylindrical-k14-q2": "0a26e8209a284a3426f478f3aba150708b7dedc99ffe81de5ee8a254bdae291a",
    "cylindrical-k15-q0": "d5422d2eff511b57d333315a938483c13fb2f4dae2e1a44bc8cea65c225fcc78",
    "cylindrical-k15-q1": "77e72971d5d44729ef78a7943a250bdc290a2262ad2b4d21d529d59fc953db19",
    "cylindrical-k15-q2": "55b94619e320f4222bb2a2006e7ae4a618049b795881ff281f4c79340aca8a22",
    "cylindrical-k16-q0": "499f1b11e0f6beb7bf487bdcd956bb618d6df59516f5fe2fead6eb57093028a0",
    "cylindrical-k16-q1": "d07bab85c436b6dee1730b076b2537b4d9c2984295c277d7bd0bc78794f492c3",
    "cylindrical-k16-q2": "d0cdf9f8fc6837a4bce636f7057b88c9ef4b14e992b1fc54bc1f0b97b2f7f661",
    "rectilinear-k8-s1": "e6a94f1630203f71f1d5ca517983c7fcf31397df70a68c6eecf821f5f2ce0598",
    "rectilinear-k8-s2": "db2f700971931d4a6911f3f5f2cba682c51929db5e3822c00376bb5d8630eb4c",
    "rectilinear-k9-s1": "b062b6119350abd8177d8f5c7c10760fd46ded954841977a31a6e5462d9ffeb3",
    "rectilinear-k9-s2": "8b729e1537f6c4743a87e524a52555c1dfd1a5672e407c7c7122fb693ef48a70",
    "rectilinear-k10-s1": "40c0178e26d7d363f3551ebed48e258aeba15912bf49e88ca8363b73c7feb1ce",
    "rectilinear-k10-s2": "3804164bdff21b3e06af014002823e0f7f7f7181bd5a992778193b3fefe47dc5",
    "rectilinear-k11-s1": "78e6482fc40d56611c8da2917f7863bde997dd4d868aef9e20dfc4a9c08623ae",
    "rectilinear-k11-s2": "94f91e181b3ff4f859f5142e5c3da95c8bf942e44f51b4857868fd22d0a9d866",
    "rectilinear-k12-s1": "93e2f34a6bcd9f0eba7d92c10f42113168c88c81969df138e6569e97385ad328",
    "rectilinear-k12-s2": "edaf688082e37c3703b5cb64524bff9fbcd63bb9e27add35bdda5918b9f2b7bb",
}


def _export_document(name):
    family, n, variant = name.split("-")
    n = int(n[1:])
    if family == "cylindrical":
        return _turned_document(cylindrical_document(n), int(variant[1:]))
    return rectilinear_document(n, int(variant[1:]))


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
        points = exact_points(drawing.geometry)
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
def fractions(monkeypatch):
    """The arguments of every Fraction the planarize module makes: the
    points of crossings, and the query point of a point location."""
    made = []

    def fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(planarize_module, "Fraction", fraction)
    return made


def face_fractions(drawing, face):
    """The arguments of the Fractions a highlight of the face makes: the
    exact points of the crossing ends of each of its darts."""
    faces = trace_faces(drawing)
    n, records = drawing.n, drawing.geometry._crossings
    made = []
    for i in faces.walks[face]:
        for node in (faces.tails[i], faces.tails[faces.twin[i]]):
            if node >= n:
                x, y, d = records[node - n][4]
                made += [(x, d), (y, d)]
    return sorted(made)


@pytest.mark.parametrize("family", FAMILIES)
def test_jobs_that_never_read_geometry_never_build_it(family, fractions, tmp_path, capsys):
    path = tmp_path / "drawing.json"
    dump_document(FAMILIES[family](), path)
    for argv in (["analyze", "--face", "3"], ["analyze", "--face", "auto"],
                 ["decide", "--mode", "seq", "--k", "1"],
                 ["decide", "--mode", "bishell", "--k", "1", "--face", "2"],
                 ["export", "--output", str(tmp_path / "out.svg")]):
        assert cli.main([*argv, "--input", str(path)]) in (0, 1)
    assert fractions == []
    # point location makes the query point alone
    assert cli.main(["analyze", "--face", "at:-99999,-99999", "--input", str(path)]) == 0
    assert fractions == [(-99999,), (-99999,)]
    capsys.readouterr()


def test_geometry_is_built_once(fractions):
    drawing = load_drawing(convex_document(6))
    for face in trace_faces(drawing).face_ids():
        k_edge_profile(drawing, face)
    first = drawing.geometry
    assert drawing.geometry is first
    assert outer_face(drawing) == outer_face(drawing)
    assert fractions == []
    locate_face(drawing, (1, 1))
    assert fractions == [(1,), (1,)]
    assert drawing.geometry is first
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


@pytest.mark.parametrize("name", EXPORT_PINNED)
def test_plain_export_matches_the_fraction_renderer(name, tmp_path):
    path, out = tmp_path / "drawing.json", tmp_path / "drawing.svg"
    dump_document(_export_document(name), path)
    assert cli.main(["export", "--input", str(path), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_PINNED[name]


@pytest.mark.parametrize("family", FAMILIES)
def test_each_job_builds_only_the_parts_it_reads(family, fractions, tmp_path, capsys):
    path, out = tmp_path / "drawing.json", tmp_path / "drawing.svg"
    dump_document(FAMILIES[family](), path)
    drawing = load_drawing(FAMILIES[family]())
    located = locate_face(drawing, (1, 1))
    for argv, made in ((["export"], []),
                       (["export", "--labels", "2"], []),
                       (["export", "--face", "2"], face_fractions(drawing, 2)),
                       (["export", "--face", "at:1,1"],
                        sorted([(1,), (1,), *face_fractions(drawing, located)]))):
        del fractions[:]
        assert cli.main([*argv, "--input", str(path), "--output", str(out)]) == 0
        assert sorted(fractions) == made, argv
    capsys.readouterr()

    del fractions[:]
    assert drawing_to_document(drawing, "geometric") == FAMILIES[family]()
    assert fractions == []


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("turns", range(4))
def test_float_points_are_the_floats_of_the_exact_points(family, turns):
    geo = load_drawing(_turned_document(FAMILIES[family](), turns)).geometry
    points = exact_points(geo)
    nodes = list(points)
    assert [geo.point(node) for node in nodes] == list(points.values())
    assert geo._float_points(nodes) == [(float(x), float(y)) for x, y in points.values()]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("turns", range(4))
def test_pieces_are_the_segment_paths(family, turns):
    drawing = load_drawing(_turned_document(FAMILIES[family](), turns))
    paths = segment_paths(drawing.geometry)
    pieces = {(ch[k], ch[k + 1]): drawing.geometry.piece(e, k)
              for e, ch in drawing.chains.items() for k in range(len(ch) - 1)}
    assert pieces == paths
