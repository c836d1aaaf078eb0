"""Drawing loading, face tracing, goodness, deletion, and face merging."""

import pytest

from corpus import convex, cylindrical, rectilinear
from shellcert.documents import drawing_to_document, load_drawing
from shellcert.drawing import (delete_vertex, edge_key, face_containing,
                               seg_key, trace_faces, validate_goodness,
                               vertices_on_face)
from shellcert.errors import DocumentError
from shellcert.planarize import locate_face, outer_face


def geometric_doc(n, verts, edges):
    return {"format": "shellcert-drawing", "version": 1, "mode": "geometric",
            "n": n,
            "vertices": [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(verts)],
            "edges": [{"u": u, "v": v, "polyline": [list(p) for p in poly]}
                      for (u, v), poly in edges.items()]}


def triangle_doc():
    return geometric_doc(3, [(0, 0), (4, 0), (0, 4)], {
        (0, 1): [(0, 0), (4, 0)],
        (0, 2): [(0, 0), (0, 4)],
        (1, 2): [(4, 0), (0, 4)],
    })


SQUARE_VERTS = [(0, 0), (100, 0), (100, 100), (0, 100)]


def square_doc(edge01):
    """Convex K_4 on a square, with a custom polyline for edge {0, 1}."""
    return geometric_doc(4, SQUARE_VERTS, {
        (0, 1): edge01,
        (0, 2): [(0, 0), (100, 100)],
        (0, 3): [(0, 0), (0, 100)],
        (1, 2): [(100, 0), (100, 100)],
        (1, 3): [(100, 0), (0, 100)],
        (2, 3): [(100, 100), (0, 100)],
    })


def convex_k4_doc():
    return square_doc([(0, 0), (100, 0)])


class TestGeometricLoad:
    def test_triangle(self):
        d = load_drawing(triangle_doc())
        assert d.n == 3
        assert d.crossing_count() == 0
        assert trace_faces(d).face_count() == 2

    def test_convex_k4_planarization(self):
        d = load_drawing(convex_k4_doc())
        assert d.crossing_count() == 1
        assert d.segment_count() == 8
        fs = trace_faces(d)
        assert fs.face_count() == 5  # = segments - nodes + 2 = 8 - 5 + 2
        crossing = next(iter(d.crossings))
        assert d.crossings[crossing] == frozenset({(0, 2), (1, 3)})
        assert d.chains[(0, 2)] == (0, crossing, 2)

    def test_euler_formula_on_corpus(self):
        for d in (convex(5), convex(7), cylindrical(6), cylindrical(9),
                  rectilinear(6, 11)):
            fs = trace_faces(d)
            assert fs.face_count() - d.segment_count() + len(d.rotations) == 2

    def test_convex_k5_face_count(self):
        # 10 edges with 5 crossings planarize to 20 segments and 10 nodes
        d = convex(5)
        assert d.segment_count() == 20
        assert trace_faces(d).face_count() == 12

    def test_crossing_rotation_alternates(self):
        d = cylindrical(8)
        for c in d.crossings:
            rot = d.rotations[c]
            e0 = d.segment_edge[seg_key(c, rot[0])]
            e2 = d.segment_edge[seg_key(c, rot[2])]
            assert e0 == e2

    def test_vertex_degree(self):
        d = convex(6)
        for v in d.vertices:
            assert len(d.rotations[v]) == 5


class TestVerticesOnFace:
    def test_triangle_faces_carry_all_vertices(self):
        d = load_drawing(triangle_doc())
        fs = trace_faces(d)
        for f in fs.face_ids():
            assert vertices_on_face(d, fs, f) == frozenset({0, 1, 2})

    def test_convex_outer_face_has_all_vertices(self):
        for n in (4, 5, 7):
            d = convex(n)
            fs = trace_faces(d)
            assert vertices_on_face(d, fs, outer_face(d)) == frozenset(range(n))

    def test_convex_k4_face_vertex_census(self):
        d = load_drawing(convex_k4_doc())
        fs = trace_faces(d)
        sizes = sorted(len(vertices_on_face(d, fs, f)) for f in fs.face_ids())
        assert sizes == [2, 2, 2, 2, 4]

    def test_faces_without_vertices_are_possible(self):
        # the central face of convex K_5 is bounded by crossing segments only
        d = convex(5)
        fs = trace_faces(d)
        assert any(not vertices_on_face(d, fs, f) for f in fs.face_ids())


class TestGoodness:
    def test_generated_drawings_are_good(self):
        for d in (convex(6), cylindrical(7), rectilinear(5, 3)):
            assert validate_goodness(d).ok

    def test_adjacent_crossing_reported(self):
        # {0,1} arcs over the square's diagonal crossing, cutting both
        # diagonals, each of which shares one of its endpoints
        d = load_drawing(square_doc([(0, 0), (40, 70), (60, 70), (100, 0)]))
        report = validate_goodness(d)
        assert not report.ok
        conditions = {c for c, _ in report.violations}
        assert conditions == {5}
        pairs = {pair for _, pair in report.violations}
        assert ((0, 1), (0, 2)) in pairs and ((0, 1), (1, 3)) in pairs

    def test_double_crossing_reported(self):
        # K_5 where {0,1} sails over the top edge {2,3} twice; the rim
        # edges to vertex 4 separate the two crossings on {2,3}
        doc = geometric_doc(5, [(0, 0), (100, 0), (100, 100), (0, 100), (50, 150)], {
            (0, 1): [(0, 0), (30, 160), (70, 160), (100, 0)],
            (0, 2): [(0, 0), (103, -5), (103, 98), (100, 100)],
            (0, 3): [(0, 0), (0, 100)],
            (0, 4): [(0, 0), (50, 150)],
            (1, 2): [(100, 0), (100, 100)],
            (1, 3): [(100, 0), (50, -20), (-10, -10), (-10, 50), (0, 100)],
            (1, 4): [(100, 0), (50, 150)],
            (2, 3): [(100, 100), (0, 100)],
            (2, 4): [(100, 100), (50, 150)],
            (3, 4): [(0, 100), (50, 150)],
        })
        d = load_drawing(doc)
        report = validate_goodness(d)
        assert report.violations == ((4, ((0, 1), (2, 3))),)

    def test_goodness_closed_under_deletion(self):
        d = rectilinear(7, 21)
        assert validate_goodness(d).ok
        fs = trace_faces(d)
        for v in d.vertices:
            child, _, _ = delete_vertex(d, fs, v)
            assert validate_goodness(child).ok


class TestDeletion:
    def test_k4_delete_smooths_crossing(self):
        d = load_drawing(convex_k4_doc())
        fs = trace_faces(d)
        child, child_faces, face_map = delete_vertex(d, fs, 3)
        assert child.n == 3
        assert child.crossing_count() == 0
        assert child_faces.face_count() == 2
        # both faces flanking any deleted segment merge
        for e in ((0, 3), (1, 3), (2, 3)):
            ch = d.chains[e]
            for a, b in zip(ch, ch[1:]):
                f1, f2 = fs.segment_sides[seg_key(a, b)]
                assert face_map[f1] == face_map[f2]

    def test_convex_deletion_stays_convex(self):
        d = convex(5)
        fs = trace_faces(d)
        child, _, _ = delete_vertex(d, fs, 2)
        assert child.crossing_count() == 1  # convex K_4
        assert child.vertices == (0, 1, 3, 4)
        assert set(child.chains) == {(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4)}

    def test_cannot_delete_from_triangle(self):
        d = load_drawing(triangle_doc())
        fs = trace_faces(d)
        with pytest.raises(ValueError):
            delete_vertex(d, fs, 0)

    def test_delete_unknown_vertex(self):
        d = convex(4)
        with pytest.raises(ValueError):
            delete_vertex(d, trace_faces(d), 9)

    def test_outer_face_tracks_through_hull_deletions(self):
        # children carry no geometry; in a convex drawing the outer face is
        # the only face bounded by every vertex
        d = convex(6)
        fs = trace_faces(d)
        face = outer_face(d)
        for v in (5, 4):
            child, child_faces, face_map = delete_vertex(d, fs, v)
            face = face_containing(face_map, face)
            assert child.geometry is None
            full = [f for f in child_faces.face_ids()
                    if vertices_on_face(child, child_faces, f) == child.vertex_set]
            assert full == [face]
            d, fs = child, child_faces

    def test_face_map_covers_every_parent_face(self):
        d = rectilinear(6, 8)
        fs = trace_faces(d)
        for v in d.vertices:
            child, child_faces, face_map = delete_vertex(d, fs, v)
            assert set(face_map.mapping) == set(fs.face_ids())
            assert set(face_map.mapping.values()) == set(child_faces.face_ids())


class TestEdgeTouchesFaceFullyOrNotAtAll:
    def test_face_incident_vertex_pairs(self):
        # for u, v both on a face, the edge uv either bounds that face
        # along every segment of its chain or along none
        for d in (convex(6), cylindrical(7), rectilinear(7, 4)):
            fs = trace_faces(d)
            for f in fs.face_ids():
                verts = sorted(vertices_on_face(d, fs, f))
                for i, u in enumerate(verts):
                    for v in verts[i + 1:]:
                        ch = d.chains[edge_key(u, v)]
                        touching = sum(
                            f in fs.segment_sides[seg_key(a, b)]
                            for a, b in zip(ch, ch[1:]))
                        assert touching in (0, len(ch) - 1)


class TestCrossModeEquality:
    def test_roundtrip_matches_planarization(self):
        for d in (load_drawing(convex_k4_doc()), convex(5), cylindrical(6)):
            doc = drawing_to_document(d, "combinatorial")
            again = load_drawing(doc)
            assert again.canonical_form() == d.canonical_form()

    def test_geometric_roundtrip(self):
        d = convex(5)
        doc = drawing_to_document(d, "geometric")
        again = load_drawing(doc)
        assert again.canonical_form() == d.canonical_form()


class TestLocateFace:
    def test_far_point_is_outer(self):
        d = convex(6)
        assert locate_face(d, (10 ** 9, 10 ** 9)) == outer_face(d)

    def test_point_on_drawing_rejected(self):
        d = load_drawing(triangle_doc())
        with pytest.raises(ValueError):
            locate_face(d, (2, 0))

    def test_interior_point_of_triangle(self):
        d = load_drawing(triangle_doc())
        inner = locate_face(d, (1, 1))
        assert inner != outer_face(d)


class TestLoaderRejections:
    def test_adjacent_crossing_without_separator_unrepresentable(self):
        doc = geometric_doc(3, [(0, 0), (100, 0), (50, 100)], {
            (0, 1): [(0, 0), (20, 60), (100, 0)],
            (0, 2): [(0, 0), (50, 100)],
            (1, 2): [(100, 0), (50, 100)],
        })
        with pytest.raises(DocumentError, match="side by side"):
            load_drawing(doc)

    def test_three_concurrent_segments(self):
        # regular hexagon: the three main diagonals meet in the center
        import math
        pts = [(round(1000 * math.cos(i * math.pi / 3)),
                round(1000 * math.sin(i * math.pi / 3))) for i in range(6)]
        edges = {(u, v): [pts[u], pts[v]] for u in range(6) for v in range(u + 1, 6)}
        with pytest.raises(DocumentError, match="concurrent"):
            load_drawing(geometric_doc(6, pts, edges))

    def test_vertex_on_foreign_edge(self):
        doc = geometric_doc(3, [(0, 0), (4, 0), (2, 0 + 4)], {
            (0, 1): [(0, 0), (4, 0)],
            (0, 2): [(0, 0), (2, 4)],
            (1, 2): [(4, 0), (2, 4)],
        })
        doc["vertices"][2] = {"id": 2, "x": 2, "y": 0}  # sits on edge {0,1}
        doc["edges"][1]["polyline"] = [[0, 0], [2, 0]]
        doc["edges"][2]["polyline"] = [[4, 0], [2, 0]]
        with pytest.raises(DocumentError):
            load_drawing(doc)

    def test_overlapping_edges(self):
        doc = geometric_doc(3, [(0, 0), (4, 0), (0, 4)], {
            (0, 1): [(0, 0), (0, 3), (4, 0)],
            (0, 2): [(0, 0), (0, 4)],
            (1, 2): [(4, 0), (0, 4)],
        })
        with pytest.raises(DocumentError, match="overlap"):
            load_drawing(doc)

    def test_self_intersecting_edge(self):
        doc = geometric_doc(3, [(0, 0), (40, 0), (0, 40)], {
            (0, 1): [(0, 0), (30, 10), (30, -10), (10, 10), (40, 0)],
            (0, 2): [(0, 0), (0, 40)],
            (1, 2): [(40, 0), (0, 40)],
        })
        with pytest.raises(DocumentError, match="intersects itself"):
            load_drawing(doc)
