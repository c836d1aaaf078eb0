"""Drawing loading, face tracing, goodness, deletion, and face merging."""

import re

import pytest

from corpus import convex, cylindrical, not_good_k7_document, rectilinear
from oracles import (ReferenceDrawing, canonical_form, face_views,
                     reference_goodness_violations, reference_planarization)
from shellcert import cli
from shellcert.documents import drawing_to_document, dump_document, load_drawing
from shellcert.drawing import (child_drawing, delete_vertex, edge_key, seg_key, trace_faces,
                               validate_goodness, vertices_on_face)
from shellcert.errors import CapabilityError, DocumentError, StructureError
from shellcert.generators import convex_document, cylindrical_document
from shellcert.kedges import KEdgeProfile, k_edge_profile
from shellcert.planarize import locate_face, outer_face, planarize
from test_planarize import _turned, document


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


def double_crossing_k5_doc():
    """K_5 where {0,1} sails over the top edge {2,3} twice; the rim edges
    to vertex 4 separate the two crossings on {2,3}."""
    return geometric_doc(5, [(0, 0), (100, 0), (100, 100), (0, 100), (50, 150)], {
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
        assert len(d.segment_edge) == 8
        fs = trace_faces(d)
        assert fs.face_count() == 5  # = segments - nodes + 2 = 8 - 5 + 2
        crossing = next(iter(d.crossings))
        assert d.crossings[crossing] == frozenset({(0, 2), (1, 3)})
        assert d.chains[(0, 2)] == (0, crossing, 2)

    def test_euler_formula_on_corpus(self):
        for d in (convex(5), convex(7), cylindrical(6), cylindrical(9),
                  rectilinear(6, 11)):
            fs = trace_faces(d)
            assert fs.face_count() - len(d.segment_edge) + len(d.rotations) == 2

    def test_convex_k5_face_count(self):
        # 10 edges with 5 crossings planarize to 20 segments and 10 nodes
        d = convex(5)
        assert len(d.segment_edge) == 20
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
            assert vertices_on_face(d, f) == frozenset({0, 1, 2})

    def test_convex_outer_face_has_all_vertices(self):
        for n in (4, 5, 7):
            d = convex(n)
            assert vertices_on_face(d, outer_face(d)) == frozenset(range(n))

    def test_convex_k4_face_vertex_census(self):
        d = load_drawing(convex_k4_doc())
        fs = trace_faces(d)
        sizes = sorted(len(vertices_on_face(d, f)) for f in fs.face_ids())
        assert sizes == [2, 2, 2, 2, 4]

    def test_faces_without_vertices_are_possible(self):
        # the central face of convex K_5 is bounded by crossing segments only
        d = convex(5)
        fs = trace_faces(d)
        assert any(not vertices_on_face(d, f) for f in fs.face_ids())

    @pytest.mark.parametrize("face", [-1, 26])
    def test_face_outside_the_drawing(self, face):
        # convex K_6 has faces 0..25; -1 used to index the last face
        with pytest.raises(ValueError, match=f"^face {face} does not exist$"):
            vertices_on_face(convex(6), face)


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
        d = load_drawing(double_crossing_k5_doc())
        report = validate_goodness(d)
        assert report.violations == ((4, ((0, 1), (2, 3))),)

    def test_reports_equal_the_full_listing(self):
        # counting the crossing pairs reports what sorting and listing
        # every crossing reports, on drawings good or breaking (4) or (5);
        # {0,1} loops around vertex 2 or 3 to cross just one edge at 0 or 1
        good = [convex(6), cylindrical(7), cylindrical(10), rectilinear(7, 21)]
        bad = [load_drawing(doc) for doc in (
            square_doc([(0, 0), (40, 70), (60, 70), (100, 0)]),
            square_doc([(0, 0), (10, 95), (10, 120), (120, 120), (120, 10), (100, 0)]),
            square_doc([(0, 0), (-20, 10), (-20, 120), (90, 120), (90, 95), (100, 0)]),
            double_crossing_k5_doc(), not_good_k7_document())]
        for d in good + bad:
            report = validate_goodness(d)
            listed = reference_goodness_violations(d)
            assert (report.ok, report.violations) == (not listed, listed)
        assert all(validate_goodness(d).ok for d in good)
        assert {c for d in bad for c, _ in validate_goodness(d).violations} == {4, 5}

    def test_goodness_closed_under_deletion(self):
        d = rectilinear(7, 21)
        assert validate_goodness(d).ok
        for v in d.vertices:
            child, _, _ = delete_vertex(d, v)
            assert validate_goodness(child).ok


class TestDeletion:
    def test_k4_delete_smooths_crossing(self):
        d = load_drawing(convex_k4_doc())
        dart_face = face_views(trace_faces(d)).dart_face
        child, child_faces, face_map = delete_vertex(d, 3)
        assert child.n == 3
        assert child.crossing_count() == 0
        assert child_faces.face_count() == 2
        # both faces flanking any deleted segment merge
        for e in ((0, 3), (1, 3), (2, 3)):
            ch = d.chains[e]
            for a, b in zip(ch, ch[1:]):
                assert face_map[dart_face[(a, b)]] == face_map[dart_face[(b, a)]]

    def test_convex_deletion_stays_convex(self):
        d = convex(5)
        child, _, _ = delete_vertex(d, 2)
        assert child.crossing_count() == 1  # convex K_4
        assert child.vertices == (0, 1, 3, 4)
        assert set(child.chains) == {(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4)}

    def test_cannot_delete_from_triangle(self):
        d = load_drawing(triangle_doc())
        with pytest.raises(ValueError):
            delete_vertex(d, 0)

    def test_delete_unknown_vertex(self):
        d = convex(4)
        with pytest.raises(ValueError):
            delete_vertex(d, 9)

    @pytest.mark.parametrize("doc, v, message", [
        (double_crossing_k5_doc, 4, "edges (0, 1) and (2, 3) break condition (4)"),
        (not_good_k7_document, 3, "edges (0, 1) and (1, 5) break condition (5)")])
    def test_drawing_that_is_not_good_is_rejected(self, doc, v, message):
        # the input's first goodness violation is named, not a fault of the
        # child the deletion would build
        d = load_drawing(doc())
        with pytest.raises(ValueError, match=re.escape(
                f"cannot delete a vertex of a drawing that is not good: {message}")):
            delete_vertex(d, v)

    def test_outer_face_tracks_through_hull_deletions(self):
        # children carry no geometry; in a convex drawing the outer face is
        # the only face bounded by every vertex
        d = convex(6)
        face = outer_face(d)
        for v in (5, 4):
            child, child_faces, face_map = delete_vertex(d, v)
            face = face_map[face]
            assert child.geometry is None
            full = [f for f in child_faces.face_ids()
                    if vertices_on_face(child, f) == child.vertex_set]
            assert full == [face]
            d = child

    def test_face_map_covers_every_parent_face(self):
        d = rectilinear(6, 8)
        fs = trace_faces(d)
        for v in d.vertices:
            child, child_faces, face_map = delete_vertex(d, v)
            assert set(face_map.mapping) == set(fs.face_ids())
            assert set(face_map.mapping.values()) == set(child_faces.face_ids())


class TestEdgeTouchesFaceFullyOrNotAtAll:
    def test_face_incident_vertex_pairs(self):
        # for u, v both on a face, the edge uv either bounds that face
        # along every segment of its chain or along none
        for d in (convex(6), cylindrical(7), rectilinear(7, 4)):
            fs = trace_faces(d)
            dart_face = face_views(fs).dart_face
            for f in fs.face_ids():
                verts = sorted(vertices_on_face(d, f))
                for i, u in enumerate(verts):
                    for v in verts[i + 1:]:
                        ch = d.chains[edge_key(u, v)]
                        touching = sum(
                            f in (dart_face[(a, b)], dart_face[(b, a)])
                            for a, b in zip(ch, ch[1:]))
                        assert touching in (0, len(ch) - 1)


class TestCrossModeEquality:
    def test_roundtrip_matches_planarization(self):
        for d in (load_drawing(convex_k4_doc()), convex(5), cylindrical(6)):
            doc = drawing_to_document(d, "combinatorial")
            again = load_drawing(doc)
            assert canonical_form(again) == canonical_form(d)

    def test_geometric_roundtrip(self):
        d = convex(5)
        doc = drawing_to_document(d, "geometric")
        again = load_drawing(doc)
        assert canonical_form(again) == canonical_form(d)


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


# Complete drawings with vertex 2 strictly inside a piece of edge (0, 1):
# inside the straight edge, inside the first piece of the bent edge, and
# inside the straight edge with an edge of its own running along it.
VERTEX_ON_FOREIGN_PIECE = [
    ({0: (0, 0), 1: (100, 0), 2: (50, 0), 3: (50, 100)},
     {(0, 1): [(0, 0), (100, 0)], (0, 2): [(0, 0), (0, 50), (50, 0)],
      (0, 3): [(0, 0), (50, 100)], (1, 2): [(100, 0), (100, 50), (50, 0)],
      (1, 3): [(100, 0), (50, 100)], (2, 3): [(50, 0), (50, 100)]}),
    ({0: (0, 0), 1: (100, 0), 2: (25, 25), 3: (50, -50)},
     {(0, 1): [(0, 0), (50, 50), (100, 0)], (0, 2): [(0, 0), (-10, 40), (25, 25)],
      (0, 3): [(0, 0), (50, -50)], (1, 2): [(100, 0), (60, 0), (25, 25)],
      (1, 3): [(100, 0), (50, -50)], (2, 3): [(25, 25), (30, 0), (50, -50)]}),
    ({0: (0, 0), 1: (100, 0), 2: (50, 0)},
     {(0, 1): [(0, 0), (100, 0)], (0, 2): [(0, 0), (50, 0)],
      (1, 2): [(100, 0), (50, 50), (50, 0)]}),
]


TRIANGLE = {0: (0, 0), 1: (4, 0), 2: (0, 4)}
TRIANGLE_EDGES = {(0, 1): [(0, 0), (4, 0)], (0, 2): [(0, 0), (0, 4)],
                  (1, 2): [(4, 0), (0, 4)]}


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
        with pytest.raises(DocumentError, match=r"concurrent at \(0, 0\): edges"):
            load_drawing(geometric_doc(6, pts, edges))

    # In a drawing of K_n, a vertex on a foreign piece also lies on the
    # first piece of each of its own edges, and that pair names it first,
    # as a touch or an overlap.
    @pytest.mark.parametrize("turns", range(4))
    @pytest.mark.parametrize("positions, polylines", VERTEX_ON_FOREIGN_PIECE)
    def test_vertex_inside_a_foreign_piece_is_named_as_the_reference_names_it(
            self, positions, polylines, turns):
        positions, polylines = _turned(positions, polylines, turns)
        expected = reference_planarization(positions, polylines)
        assert expected[0] == "error"
        assert re.fullmatch(r"edges \(\d, \d\) and \(\d, \d\) "
                            r"(touch at .* \(tangential or bend contact\)|"
                            r"overlap along a segment)", expected[1])
        with pytest.raises(DocumentError) as info:
            load_drawing(document(len(positions), positions, polylines))
        assert str(info.value) == expected[1]

    def test_planarize_on_some_of_the_edges_is_no_drawing_of_k_n(self):
        positions = {0: (0, 0), 1: (4, 0), 2: (2, 0)}
        with pytest.raises(StructureError) as info:
            planarize(3, positions, {(0, 1): [(0, 0), (4, 0)]})
        assert str(info.value) == "chains must cover every vertex pair exactly once"

    # Direct planarize calls with arguments no document gives it: each gets
    # a precise error, where a bare ValueError, KeyError or IndexError came
    # out of the geometry, or a wrong message, or a drawing loaded silently.
    @pytest.mark.parametrize("n, positions, polylines, error, message", [
        (3, TRIANGLE, {}, StructureError, "chains must cover every vertex pair exactly once"),
        (2, {0: (0, 0), 1: (4, 0)}, {}, StructureError, "a drawing needs at least 3 vertices"),
        (0, {}, {}, StructureError, "a drawing needs at least 3 vertices"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, (0, 5): [(0, 0), (9, 9)]}, DocumentError,
         "edge (0, 5) names a vertex with no position"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, "01": [(0, 0), (4, 0)]}, DocumentError,
         "edge key '01' is not a pair (u, v)"),
        (3, {0: (0, 0), 1: (4, 0)}, TRIANGLE_EDGES, DocumentError,
         "positions must give a point for each vertex 0..n-1 and no other"),
        (3, {0: (0, 0), 1: (4, 0), 3: (0, 4)}, TRIANGLE_EDGES, DocumentError,
         "positions must give a point for each vertex 0..n-1 and no other"),
        (3, {**TRIANGLE, 3: (9, 9)}, TRIANGLE_EDGES, DocumentError,
         "positions must give a point for each vertex 0..n-1 and no other"),
        (3.0, TRIANGLE, TRIANGLE_EDGES, DocumentError, "n must be an integer, not 3.0"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, (1, 2): [(4, 0)]}, DocumentError,
         "edge (1, 2): polyline needs at least 2 points"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, (0, 2): [(0, 0), (0, 5)]}, DocumentError,
         "edge (0, 2): polyline must start and end at its vertices"),
        # floats, bools and other values never enter a decision
        (3, TRIANGLE, {**TRIANGLE_EDGES, (1, 2): [(4, 0), (2.5, 1), (0, 4)]}, DocumentError,
         "edge (1, 2): polyline points must be integer pairs"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, (1, 2): [(4, 0), (True, 1), (0, 4)]}, DocumentError,
         "edge (1, 2): polyline points must be integer pairs"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, (1, 2): [(4, 0), ("a", 1), (0, 4)]}, DocumentError,
         "edge (1, 2): polyline points must be integer pairs"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, (1, 2): [(4, 0), (2, 1, 0), (0, 4)]}, DocumentError,
         "edge (1, 2): polyline points must be integer pairs"),
        (3, TRIANGLE, {**TRIANGLE_EDGES, (1, 2): None}, DocumentError,
         "edge (1, 2): polyline needs at least 2 points"),
        (3, {**TRIANGLE, 2: (0.0, 4)}, TRIANGLE_EDGES, DocumentError,
         "vertex 2: position must be an integer pair"),
        (3, {**TRIANGLE, 1: (4, False)}, TRIANGLE_EDGES, DocumentError,
         "vertex 1: position must be an integer pair"),
        (3, {**TRIANGLE, 2: (0, 4, 1)}, TRIANGLE_EDGES, DocumentError,
         "vertex 2: position must be an integer pair"),
        (3, {**TRIANGLE, 0: None}, TRIANGLE_EDGES, DocumentError,
         "vertex 0: position must be an integer pair"),
        (3, {0.0: (0, 0), 1: (4, 0), 2: (0, 4)}, TRIANGLE_EDGES, DocumentError,
         "positions must give a point for each vertex 0..n-1 and no other"),
    ], ids=["no-edges", "n-2", "n-0", "unknown-vertex", "key-no-pair", "position-missing",
            "position-of-another-id", "position-too-many", "n-not-int", "one-point-polyline",
            "polyline-ends-elsewhere", "float-bend", "bool-coordinate", "str-coordinate",
            "triple-bend", "none-polyline", "float-position", "bool-position",
            "triple-position", "none-position", "float-vertex-id"])
    def test_direct_planarize_arguments_get_precise_errors(self, n, positions, polylines, error,
                                                           message):
        with pytest.raises(error) as info:
            planarize(n, positions, polylines)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_vertex_on_foreign_bend_point_is_a_touch_in_a_document(self):
        doc = geometric_doc(3, [(0, 0), (100, 0), (50, 50)], {
            (0, 1): [(0, 0), (50, 50), (100, 0)],
            (0, 2): [(0, 0), (0, 100), (50, 50)],
            (1, 2): [(100, 0), (100, 100), (50, 50)],
        })
        with pytest.raises(DocumentError,
                           match=r"edges \(0, 1\) and \(0, 2\) touch at \(50, 50\) \(tangential"):
            load_drawing(doc)

    def test_bend_contact(self):
        # the bend of edge {0, 1} lies on the diagonal {1, 3}
        with pytest.raises(DocumentError,
                           match=r"edges \(0, 1\) and \(1, 3\) touch at \(60, 40\) \("):
            load_drawing(square_doc([(0, 0), (60, 40), (100, 0)]))

    def test_polyline_doubling_back_at_a_joint(self):
        with pytest.raises(DocumentError,
                           match=r"edges \(0, 1\) and \(0, 1\) overlap along a segment"):
            load_drawing(square_doc([(0, 0), (60, 0), (40, 0), (100, 0)]))

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
        with pytest.raises(DocumentError, match=r"intersects itself at \(15, 5\)$"):
            load_drawing(doc)

    def test_fractional_contact_point_reads_as_a_fraction(self):
        positions = {0: (0, 0), 1: (1, -2)}
        with pytest.raises(DocumentError,
                           match=r"edge \(0, 1\) intersects itself at \(19/9, 0\)$"):
            planarize(2, positions, {(0, 1): [(0, 0), (6, 0), (6, 7), (1, -2)]})


class TestPerDrawingMemo:
    """Derived structures are built once per drawing and arguments."""

    def test_second_call_returns_the_same_object(self):
        d = load_drawing(convex_document(6))
        for build, args in ((trace_faces, ()), (k_edge_profile, (0,)), (k_edge_profile, (1,)),
                            (outer_face, ()), (child_drawing, (0,))):
            first = build(d, *args)
            assert build(d, *args) is first, build.__name__
        assert k_edge_profile(d, 0) is not k_edge_profile(d, 1)
        # arguments may still be passed by name
        assert k_edge_profile(d, ref_face=0).k_values == k_edge_profile(d, 0).k_values

    def test_builders_never_share_an_entry(self):
        for order in ((k_edge_profile, child_drawing), (child_drawing, k_edge_profile)):
            d = load_drawing(convex_document(6))
            got = {build: build(d, 0) for build in order}
            assert isinstance(got[k_edge_profile], KEdgeProfile)
            child, child_faces, face_map = got[child_drawing]
            assert child.n == 5 and face_map.deleted_vertex == 0

    def test_a_build_that_raises_caches_nothing(self):
        d = load_drawing(convex_document(6))
        for _ in range(2):
            with pytest.raises(ValueError, match="face 999 does not exist"):
                k_edge_profile(d, 999)
        combinatorial = load_drawing(drawing_to_document(d, "combinatorial"))
        for _ in range(2):
            with pytest.raises(CapabilityError):
                outer_face(combinatorial)


class TestSegmentEdge:
    """Drawing.segment_edge is built on its first read: only a face
    highlight and vertex deletion read it."""

    def test_analyze_decide_and_verify_never_build_it(self, monkeypatch, tmp_path, capsys):
        loaded = []

        def load(document):
            loaded.append(load_drawing(document))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_drawing", load)
        path, cert = str(tmp_path / "drawing.json"), str(tmp_path / "cert.json")
        for document in (cylindrical_document(8),
                         drawing_to_document(cylindrical(8), "combinatorial")):
            dump_document(document, path)
            for argv in (["analyze", "--face", "auto"], ["analyze", "--face", "3"],
                         ["decide", "--mode", "seq", "--output", cert],
                         ["verify", "--certificate", cert],
                         ["decide", "--mode", "bishell"]):
                assert cli.main([*argv, "--input", path]) in (0, 1), argv
        capsys.readouterr()
        assert len(loaded) == 10
        assert not [d for d in loaded if "segment_edge" in vars(d)]

    @pytest.mark.parametrize("drawing", [convex(7), cylindrical(9), rectilinear(8, 2)],
                             ids=["convex7", "cylindrical9", "rectilinear8"])
    def test_it_equals_the_reference_map(self, drawing):
        reference = ReferenceDrawing(drawing.vertices, drawing.crossings, drawing.rotations,
                                     drawing.chains)
        assert list(drawing.segment_edge.items()) == list(reference.segment_edge.items())
