"""The exact planarizer against a brute-force reference.

Small drawings on a 5 x 5 lattice make every kind of degenerate contact
common: shared endpoints, collinear polyline joints, bends
touching other edges, vertices on edges, overlaps and three curves through
one point. The loader must reject exactly the documents the reference
rejects, with the same message, and find the same crossings otherwise.

Straight-line drawings with coordinates up to 10^12 stress the integer
keys instead: crossings a tiny fraction of an edge apart and near-parallel
darts at one node must still be ordered exactly.

A straight-line K_n is planarized from its triple signs alone. On the
lattice, with three diagonals often made concurrent, it must load as the
reference decides, taking the straight route exactly when no three
vertices lie on a line. Wherever it runs, its crossing records, in test
order, and its vertex rotations must equal those of the general route,
on generated and wide drawings and in every quarter turn.

The banded sort-and-sweep broad phase must hand the narrow phase exactly
the pairs of pieces whose boxes meet, each once, as a test of every pair
finds them, also when y is cut into many bands and boxes reach across
them. Pairs are tested where the sweep finds them, in no fixed order, yet
the fault named is that of the lowest pair wherever the sweep meets it:
also where it meets a higher fault of another kind first, and where it
finds the crossings at a later point of three concurrent curves before
those at the first point in test order. Consecutive pieces of one edge
that turn or run straight load; one that runs back over the other is
rejected as the reference rejects it, before the faults of later pairs.
The bytes of the documents and SVGs of large cylindrical drawings, which
take the general route, are pinned by their sha256.

Rotations must equal, tuple for tuple, a comparison sort of the darts
and the per-crossing comparison rule, and point location by winding
numbers must agree with a ray caster, also where pieces run along the
axes and where crossings lie on edges with bends, in every quarter turn.
The unbounded face found from the lowest point must be the one face
whose boundary walk runs clockwise, also when that point is the left end
of a horizontal edge or a bend, with a crossing before it or none.
"""

import hashlib
import importlib
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import (canonical_form, comparison_rotations, exact_points, face_views,
                     fraction_intersection, polygon_area2, reference_drawing,
                     reference_faulty_pairs, reference_locate_face,
                     reference_planarization, segment_path, segment_paths, sort_by_angle)
from shellcert.documents import drawing_to_document, dumps_document, load_drawing
from shellcert.errors import DocumentError, ShellcertError, StructureError
from shellcert.generators import convex_document, cylindrical_document, rectilinear_document
from shellcert.geometry import cross, segment_intersection
from shellcert.drawing import trace_faces
from shellcert.planarize import (_angular_order, _box_pairs, _find_crossings, _straight,
                                 _test_order, locate_face, outer_face, planarize)
from shellcert.svg import render_svg

# the lattice has spacing 4, so a hub (below) fits between lattice points
point = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda p: (4 * p[0], 4 * p[1]))
LATTICE = [(x, y) for x in range(0, 17, 4) for y in range(0, 17, 4)]


@st.composite
def small_drawings(draw, partial=False, straight=False):
    """(n, positions, polylines): up to two bends per edge; with partial,
    a nonempty subset of the edges, so a vertex can lie on a foreign edge
    without any edge of its own touching that edge; with straight, K_3 to
    K_6 with every edge one segment."""
    n = draw(st.integers(3, 6 if straight else 5))
    if straight and n == 6 and draw(st.booleans()):
        points = draw(mirrored_pairs())
    else:
        # sampled from the lattice's points: fewer discarded draws
        points = draw(st.lists(st.sampled_from(LATTICE), min_size=n, max_size=n, unique=True))
    positions = dict(enumerate(points))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if partial:
        pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    else:
        pairs = draw(st.permutations(pairs))
    # A hub off the lattice sends the first three edges straight through
    # it, in three directions, so that three curves are concurrent there.
    hub = None if straight else draw(st.one_of(st.none(), st.tuples(st.sampled_from((6, 10)),
                                                                   st.sampled_from((6, 10)))))
    ways = draw(st.permutations([(1, 0), (0, 1), (1, 1), (1, -1)]))
    polylines = {}
    for k, (u, v) in enumerate(pairs):
        if hub is not None and k < 3:
            (hx, hy), (dx, dy) = hub, ways[k]
            bends = [(hx - dx, hy - dy), (hx + dx, hy + dy)]
        elif straight:
            bends = []
        else:
            bends = draw(st.one_of(st.just([]), st.lists(point, min_size=1, max_size=2)))
        polylines[(u, v)] = [positions[u], *bends, positions[v]]
    return n, positions, polylines


@st.composite
def mirrored_pairs(draw):
    """Six lattice points in three pairs mirrored through one centre, in
    some order: the three edges joining the pairs run through the centre."""
    cx, cy = draw(st.tuples(st.sampled_from(range(4, 13, 2)), st.sampled_from(range(4, 13, 2))))

    def mirror(p):
        return (2 * cx - p[0], 2 * cy - p[1])

    # one point of each pair whose mirror lies on the lattice, at least four
    halves = sorted({min(p, mirror(p)) for p in LATTICE
                     if p != (cx, cy) and 0 <= 2 * cx - p[0] <= 16 and 0 <= 2 * cy - p[1] <= 16})
    half = draw(st.lists(st.sampled_from(halves), min_size=3, max_size=3, unique=True))
    return draw(st.permutations(half + [mirror(p) for p in half]))


def document(n, positions, polylines):
    return {"format": "shellcert-drawing", "version": 1, "mode": "geometric",
            "n": n,
            "vertices": [{"id": v, "x": x, "y": y} for v, (x, y) in positions.items()],
            "edges": [{"u": u, "v": v, "polyline": [list(p) for p in pts]}
                      for (u, v), pts in polylines.items()]}


def _kind(expected):
    if expected[0] == "ok":
        return "ok"
    words = expected[1].split()
    return next(w for w in ("share", "repeats", "overlap", "itself", "touch",
                            "through", "concurrent", "side") if w in words)


def has_collinear_triple(positions):
    return any(cross(p, q, r) == 0 for p, q, r in combinations(positions.values(), 3))


def assert_loads_as_the_reference_decides(n, positions, polylines):
    """The loader rejects the document with the reference's message, or
    finds the reference's crossings; returns the drawing or None."""
    expected = reference_planarization(positions, polylines)
    try:
        drawing = load_drawing(document(n, positions, polylines))
    except DocumentError as exc:
        assert expected == ("error", str(exc))
        return None
    assert expected[0] == "ok"
    found = sorted((tuple(sorted(edges)), exact_points(drawing.geometry)[c])
                   for c, edges in drawing.crossings.items())
    assert found == expected[1]
    return drawing


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_drawings())
def test_load_drawing_matches_reference(case):
    event(_kind(reference_planarization(*case[1:])))
    assert_loads_as_the_reference_decides(*case)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_drawings(straight=True))
def test_straight_drawings_load_as_the_reference_decides(case):
    # Collinear triples, vertices on edges, overlaps and three concurrent
    # diagonals are common on the lattice. Without a collinear triple the
    # straight route decides; with one it hands over to the general route.
    n, positions, polylines = case
    collinear = has_collinear_triple(positions)
    assert (_straight(n, positions, polylines) is None) == collinear
    event(f"{_kind(reference_planarization(positions, polylines))}, "
          f"{'general' if collinear else 'straight'} route")
    drawing = assert_loads_as_the_reference_decides(n, positions, polylines)
    if drawing is not None:
        assert drawing.rotations == comparison_rotations(drawing)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_drawings(partial=True))
def test_planarize_rejections_match_reference(case):
    n, positions, polylines = case
    expected = reference_planarization(positions, polylines)
    event(_kind(expected))
    if expected[0] == "error" and " passes through vertex " in expected[1]:
        # With every edge of K_n a pair of pieces names this contact first,
        # so only a partial edge set gets here, and Drawing rejects it.
        assert len(polylines) < n * (n - 1) // 2
        with pytest.raises(StructureError) as info:
            planarize(n, positions, polylines)
        assert str(info.value) == "chains must cover every vertex pair exactly once"
        return
    try:
        planarize(n, positions, polylines)
    except DocumentError as exc:
        assert expected == ("error", str(exc))
        return
    except ShellcertError:
        pass  # no degeneracy, but a partial edge set is no drawing of K_n
    assert expected[0] == "ok"


def test_the_side_by_side_scan_never_runs_on_a_valid_load(monkeypatch):
    """Drawing refuses two chains sharing a segment; the planarizer scans
    its chains for the two edges to name only after that, never on a
    drawing that loads, on either route."""
    def scan(chains):
        raise AssertionError("the side-by-side scan ran on a valid load")

    # the package exports the function planarize under the module's name
    monkeypatch.setattr(importlib.import_module("shellcert.planarize"), "_side_by_side", scan)
    for n in range(3, 17):
        for document in (convex_document(n), cylindrical_document(n),
                         rectilinear_document(n, 1)):
            load_drawing(document)


def all_pairs_meeting(boxes):
    """Every pair (i, j), i < j, of boxes that meet, by testing each pair."""
    return [(i, j) for i, (ax0, ay0, ax1, ay1) in enumerate(boxes)
            for j, (bx0, by0, bx1, by1) in enumerate(boxes[i + 1:], i + 1)
            if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1]


def box_pairs_as_met(boxes):
    """The pairs (i, j), i < j, that _box_pairs yields for the boxes, in
    the order the sweep meets them."""
    return [(min(ia, ib), max(ia, ib)) for ia, hits in _box_pairs(*zip(*boxes)) for ib in hits]


def box_pairs(boxes):
    """The pairs that _box_pairs yields, sorted; one yielded twice appears
    twice."""
    return sorted(box_pairs_as_met(boxes))


def piece_boxes(doc):
    """Bounding boxes of a document's polyline pieces, in planarize's order:
    by edge, then along it."""
    polylines = {}
    for item in doc["edges"]:
        u, v, pts = item["u"], item["v"], [tuple(p) for p in item["polyline"]]
        polylines[(u, v) if u < v else (v, u)] = pts if u < v else pts[::-1]
    return [(min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]), max(p[1], q[1]))
            for e in sorted(polylines) for p, q in zip(polylines[e], polylines[e][1:])]


@lru_cache(maxsize=None)
def generated(family, n):
    """The generated document of the family (rectilinear with seed 1)."""
    return {"convex": convex_document, "cylindrical": cylindrical_document,
            "rectilinear": lambda n: rectilinear_document(n, 1)}[family](n)


@pytest.mark.parametrize("turns", range(4))
@pytest.mark.parametrize("family", ["convex", "cylindrical", "rectilinear"])
@pytest.mark.parametrize("n", [4, 9, 16])
def test_box_pairs_match_all_pairs_on_generated_drawings(family, n, turns):
    boxes = piece_boxes(_turned_document(generated(family, n), turns))
    assert box_pairs(boxes) == all_pairs_meeting(boxes)


@pytest.mark.parametrize("turns", range(4))
def test_box_pairs_match_all_pairs_on_convex_k20_with_vertex_points(turns):
    # long chords: most pieces reach several bands
    doc = _turned_document(generated("convex", 20), turns)
    boxes = piece_boxes(doc) + [(v["x"], v["y"], v["x"], v["y"]) for v in doc["vertices"]]
    assert len(bands_reached(boxes)) > 1
    assert box_pairs(boxes) == all_pairs_meeting(boxes)


@pytest.mark.parametrize("turns", range(4))
@pytest.mark.parametrize("family", ["convex", "cylindrical", "rectilinear"])
@pytest.mark.parametrize("n", [4, 9, 16])
def test_rotations_match_the_comparison_rule(family, n, turns):
    drawing = load_drawing(_turned_document(generated(family, n), turns))
    assert drawing.rotations == comparison_rotations(drawing)


# Boxes on a small lattice, some of zero width or height (vertical and
# horizontal pieces, and points as the vertices are), so that equal left
# ends and boxes touching at one coordinate are common.
lattice_boxes = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3), st.integers(0, 3))
    .map(lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3])), min_size=1, max_size=40)


def bands_reached(boxes):
    """band -> the boxes reaching it, for bands as _box_pairs cuts them:
    twice the mean box height tall, plus one, from the lowest bottom."""
    base = min(b[1] for b in boxes)
    height = 2 * sum(b[3] - b[1] for b in boxes) // len(boxes) + 1
    bands = {}
    for i, (_, y0, _, y1) in enumerate(boxes):
        for band in range((y0 - base) // height, (y1 - base) // height + 1):
            bands.setdefault(band, []).append(i)
    return bands


@st.composite
def banded_boxes(draw):
    """(boxes, tall): mostly flat boxes spread far in y, some taller ones
    reaching across band boundaries, and boxes[tall] reaching every band."""
    boxes = draw(st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 60), st.integers(0, 3),
                  st.sampled_from((0, 0, 0, 1, 2, 9)))
        .map(lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3])), min_size=10, max_size=50))
    x, width = draw(st.integers(0, 8)), draw(st.integers(0, 3))
    tall = draw(st.integers(0, len(boxes)))
    boxes.insert(tall, (x, min(b[1] for b in boxes), x + width, max(b[3] for b in boxes)))
    return boxes, tall


@settings(max_examples=50, deadline=None, derandomize=True)
@given(banded_boxes())
def test_box_pairs_match_all_pairs_across_bands(case):
    boxes, tall = case
    bands = bands_reached(boxes)
    assume(len(bands) >= 3)
    assert all(tall in members for members in bands.values())
    event("3-5 bands" if len(bands) <= 5 else "6-9 bands" if len(bands) <= 9 else "10+ bands")
    reached = Counter(i for members in bands.values() for i in members)
    if any(count > 1 for i, count in reached.items() if i != tall):
        event("another box across a band boundary")
    assert box_pairs(boxes) == all_pairs_meeting(boxes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lattice_boxes)
def test_box_pairs_match_all_pairs_with_ties(boxes):
    pairs = all_pairs_meeting(boxes)
    for i, j in pairs:
        a, b = boxes[i], boxes[j]
        if a[0] == b[0]:
            event("equal left ends")
        if a[2] == b[0] or b[2] == a[0] or a[3] == b[1] or b[3] == a[1]:
            event("touching at one coordinate")
        if a[0] == a[2] or a[1] == a[3]:
            event("vertical or horizontal piece")
    assert box_pairs(boxes) == pairs


def test_cylindrical_k16_box_pair_count():
    # The broad phase's work as a count that does not depend on the
    # machine: a later broad phase must not hand on more pairs than this.
    boxes = piece_boxes(cylindrical_document(16))
    assert len(boxes) == 3920
    assert len(box_pairs(boxes)) == 8191


# The first 16 hex digits of the sha256 of the combinatorial document and
# of the SVG of cylindrical K_8 to K_16, in each quarter turn: long polyline
# edges on the general route, whose bytes must not depend on the order in
# which the broad phase hands on candidate pairs.
GENERAL_ROUTE_PINS = {
    8: [("b9f61234ea05cca1", "6f78f9d8334c5ce3"), ("11dbe2c00fe4d64e", "ff160827526c6a9e"),
         ("bc6cff276850a2de", "6f0cf091aa629f32"), ("7e6732d8303af165", "d87693d625085c34")],
    9: [("ed268421749c1eb7", "6cd3285008271fb1"), ("5d3bb181518e766c", "d65af6a546f26c0c"),
         ("1c0f4a59745398b9", "d0cc4ea6b3d2b72e"), ("9c16eb141475a843", "06a245f605d8c805")],
    10: [("d9599a7a230e6b6a", "dcb6d061bcb6f040"), ("3d0b2251c6a14799", "9e9357b89677e6a2"),
         ("96ad43934314da22", "278b0fdcc70b4f9f"), ("a2981eba9b3428e8", "27d9fe9551b686d6")],
    11: [("624cec4141729ee9", "5012039f2b47eb6b"), ("ab0dc694c5133276", "fa7048bc49a0b405"),
         ("8456f6926a90febe", "920d171b04a92a7b"), ("cd878b78d3b79104", "9f8557177d4923bb")],
    12: [("8d7e1ebe14261451", "e5dbff8316c882c4"), ("2cc6f1a9d7320435", "ab2de9453ad99a25"),
         ("d3e5f6242a09b1c1", "f110a46b2cb4e836"), ("22023ae7bc90241d", "d95265a5fb910072")],
    13: [("69b84d359b6de4db", "3e4f38cfa4a771f9"), ("d50b8974d139a198", "be25ceac39e229aa"),
         ("395dddcc5b614bce", "638437a976f9ccec"), ("b895e4a42add3496", "53c9c9a1ad073414")],
    14: [("4e99fe225996989f", "57a3aeec88c4e422"), ("2b4a846df78714a3", "4e66cf84495603d9"),
         ("523f357673f4ff00", "0a26e8209a284a34"), ("1655e4c3e10b18a1", "a1d39e223381995a")],
    15: [("9100fa849bc5f08c", "d5422d2eff511b57"), ("123de5472b889ce3", "77e72971d5d44729"),
         ("88b6aeb9b3f61114", "55b94619e320f422"), ("3bc776d3b38d4c6a", "015a35784002197f")],
    16: [("fbb99399d4d709d6", "499f1b11e0f6beb7"), ("e312b90ceceb9284", "d07bab85c436b6de"),
         ("f3e47df6740b5d07", "d0cdf9f8fc6837a4"), ("c5a67e42fe0f1ab7", "9661d59630119520")],
}


@pytest.mark.parametrize("turns", range(4))
@pytest.mark.parametrize("n", sorted(GENERAL_ROUTE_PINS))
def test_general_route_bytes_are_pinned(n, turns):
    drawing = load_drawing(_turned_document(generated("cylindrical", n), turns))
    text = dumps_document(drawing_to_document(drawing, "combinatorial"))
    digests = tuple(hashlib.sha256(out.encode()).hexdigest()[:16]
                    for out in (text, render_svg(drawing)))
    assert digests == GENERAL_ROUTE_PINS[n][turns]


def test_first_touch_named_is_the_lowest_pair_not_the_leftmost():
    # The bend of (0, 1) touches (2, 3) far right; the bend of (4, 5)
    # touches (6, 7) the same way far left, where the sweep starts.
    positions = {0: (100, 0), 1: (110, 0), 2: (100, 5), 3: (110, 5),
                 4: (0, 0), 5: (10, 0), 6: (0, 5), 7: (10, 5)}
    polylines = {(0, 1): [(100, 0), (105, 5), (110, 0)], (2, 3): [(100, 5), (110, 5)],
                 (4, 5): [(0, 0), (5, 5), (10, 0)], (6, 7): [(0, 5), (10, 5)]}
    message = "edges (0, 1) and (2, 3) touch at (105, 5) (tangential or bend contact)"
    assert reference_planarization(positions, polylines) == ("error", message)
    with pytest.raises(DocumentError) as info:
        planarize(8, positions, polylines)
    assert str(info.value) == message


def _cluster(kind, a, x0):
    """Edges (a, a + 1) and (a + 2, a + 3) near (x0, x0), whose lowest
    faulty pair of pieces is a touch, an overlap or a self-intersection
    of (a, a + 1)."""
    b, c, d = a + 1, a + 2, a + 3
    if kind == "touch":
        polylines = {(a, b): [(x0, x0), (x0 + 5, x0 + 5), (x0 + 10, x0)],
                     (c, d): [(x0, x0 + 5), (x0 + 10, x0 + 5)]}
    elif kind == "overlap":
        # then the bend at (x0 + 5, x0) touches (a, b), a higher pair
        polylines = {(a, b): [(x0, x0), (x0 + 10, x0)],
                     (c, d): [(x0 - 5, x0), (x0 + 5, x0), (x0 + 5, x0 + 5), (x0 + 12, x0 + 5)]}
    else:
        polylines = {(a, b): [(x0, x0), (x0 + 8, x0 + 4), (x0 + 8, x0 + 8), (x0 + 4, x0 + 8),
                              (x0 + 4, x0 - 2), (x0 + 10, x0)],
                     (c, d): [(x0, x0 + 12), (x0 + 10, x0 + 12)]}
    positions = {}
    for (u, v), pts in polylines.items():
        positions[u], positions[v] = pts[0], pts[-1]
    return positions, polylines


@pytest.mark.parametrize("turns", range(4))
@pytest.mark.parametrize("lowest, higher", [("itself", "touch"), ("touch", "itself"),
                                            ("overlap", "touch"), ("touch", "overlap")])
def test_the_lowest_fault_is_named_where_the_sweep_meets_a_higher_one_first(lowest, higher,
                                                                              turns):
    # The lowest fault, of edges 0-3, lies in the middle; faults of the
    # higher edges 4-11 lie at two opposite corners, so in every quarter
    # turn one of them is left of it and the sweep meets that one first.
    positions, polylines = {}, {}
    for kind, a, x0 in ((lowest, 0, 100), (higher, 4, 0), (higher, 8, 200)):
        more_positions, more_polylines = _cluster(kind, a, x0)
        positions.update(more_positions)
        polylines.update(more_polylines)
    positions, polylines = _turned(dict(sorted(positions.items())), polylines, turns)
    faulty = reference_faulty_pairs(positions, polylines)
    met = next(pair for pair in box_pairs_as_met(piece_boxes(document(12, positions, polylines)))
               if pair in faulty)
    assert met != min(faulty)
    expected = reference_planarization(positions, polylines)
    assert expected[0] == "error" and _kind(expected) == lowest
    with pytest.raises(DocumentError) as info:
        planarize(12, positions, polylines)
    assert str(info.value) == expected[1]


# K_5 with bent edges and two points where three curves meet: (30, 14) on
# (0, 1), (1, 2) and (2, 3), and (6, 2) on (0, 2), (0, 4) and (2, 4). The
# records at (30, 14) come first in test order; in every quarter turn the
# sweep finds those at (6, 2) first.
TWO_TRIPLE_POINTS = (
    {0: (4, 12), 1: (0, 24), 2: (0, 28), 3: (16, 32), 4: (32, 0)},
    {(0, 1): [(4, 12), (29, 14), (31, 14), (0, 24)],
     (0, 2): [(4, 12), (5, 1), (7, 3), (0, 28)],
     (0, 3): [(4, 12), (16, 32)],
     (0, 4): [(4, 12), (6, 1), (6, 3), (32, 0)],
     (1, 2): [(0, 24), (29, 13), (31, 15), (0, 28)],
     (1, 3): [(0, 24), (16, 32)],
     (1, 4): [(0, 24), (32, 0)],
     (2, 3): [(0, 28), (30, 13), (30, 15), (16, 32)],
     (2, 4): [(0, 28), (5, 3), (7, 1), (32, 0)],
     (3, 4): [(16, 32), (32, 0)]})


def _first_shared_point(records):
    """The point key of the first record whose point a later one shares."""
    points = [rec[4] for rec in records]
    return next(x for x in points if points.count(x) > 1)


@pytest.mark.parametrize("turns", range(4))
def test_three_curves_are_named_at_the_first_point_in_test_order(turns):
    positions, polylines = _turned(*TWO_TRIPLE_POINTS, turns)
    found = _find_crossings(polylines, positions)
    assert (_first_shared_point(found)
            != _first_shared_point(sorted(found, key=_test_order)))
    expected = reference_planarization(positions, polylines)
    x, y = _quarter_turns((30, 14))[turns]
    assert expected == ("error", f"three curves concurrent at ({x}, {y}): "
                                 f"edges [(0, 1), (1, 2), (2, 3)]")
    with pytest.raises(DocumentError) as info:
        load_drawing(document(5, positions, polylines))
    assert str(info.value) == expected[1]


# K_4 on a square: (0, 1) runs straight through a bend point, (1, 2)
# turns at its bend, (2, 3) turns twice; the diagonals cross at (5, 5).
JOINT_POSITIONS = {0: (0, 0), 1: (10, 0), 2: (10, 10), 3: (0, 10)}
JOINT_POLYLINES = {
    (0, 1): [(0, 0), (5, 0), (10, 0)],
    (0, 2): [(0, 0), (10, 10)],
    (0, 3): [(0, 0), (0, 10)],
    (1, 2): [(10, 0), (12, 5), (10, 10)],
    (1, 3): [(10, 0), (0, 10)],
    (2, 3): [(10, 10), (8, 12), (2, 12), (0, 10)],
}


def _turned(positions, polylines, turns):
    return ({v: _quarter_turns(p)[turns] for v, p in positions.items()},
            {e: [_quarter_turns(p)[turns] for p in pts] for e, pts in polylines.items()})


@pytest.mark.parametrize("turns", range(4))
def test_joints_that_turn_or_run_straight_on_load(turns):
    drawing = assert_matches_reference_drawing(4, *_turned(JOINT_POSITIONS, JOINT_POLYLINES,
                                                           turns))
    assert drawing.crossing_count() == 1


@pytest.mark.parametrize("turns", range(4))
@pytest.mark.parametrize("fold", [[(0, 0), (8, 0), (3, 0), (10, 0)],
                                  [(0, 0), (5, 0), (10, 0), (7, 0), (7, -3), (10, 0)]])
def test_an_edge_folding_back_at_a_joint_is_rejected_as_the_reference_rejects_it(fold, turns):
    # (0, 1) runs back over itself: at its first joint, or at its second
    # after running straight through the first. The first piece of (2, 3)
    # runs along the diagonal (0, 2), the fault of a pair after those of
    # (0, 1), and the one named without the fold.
    polylines = {**JOINT_POLYLINES, (2, 3): [(10, 10), (5, 5), (0, 10)]}
    later = "edges (0, 2) and (2, 3) overlap along a segment"
    assert reference_planarization(*_turned(JOINT_POSITIONS, polylines, turns)) == (
        "error", later)
    positions, polylines = _turned(JOINT_POSITIONS, {**polylines, (0, 1): fold}, turns)
    expected = reference_planarization(positions, polylines)
    assert expected == ("error", "edges (0, 1) and (0, 1) overlap along a segment")
    with pytest.raises(DocumentError) as info:
        load_drawing(document(4, positions, polylines))
    assert str(info.value) == expected[1]


# two pieces on one line: base + t * direction for four parameters t
collinear_pieces = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda t: t[0] != t[1]),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda t: t[0] != t[1]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(collinear_pieces)
def test_segment_intersection_matches_fraction_reference(case):
    (bx, by), (dx, dy), first, second = case
    p, q, r, s = ((bx + t * dx, by + t * dy) for t in (*first, *second))
    for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                       (r, s, p, q)):
        got = segment_intersection(a, b, c, d)
        want = fraction_intersection(a, b, c, d)
        if want is None:
            assert got is None
        elif want[0] == "overlap":
            assert got[0] == "overlap" and {got[1], got[2]} == want[1]
        else:
            assert got == ("point", want[1])
        # every point returned is one of the four given
        assert got is None or all(x in (a, b, c, d) for x in got[1:])


# Far points and a small cluster near the origin: edges between them cross
# within about 10^-11 of each other along a far edge, and the edges from a
# cluster point to two far points are nearly parallel.
coordinate = st.one_of(st.integers(-10**12, 10**12), st.integers(-10, 10))


@st.composite
def wide_drawings(draw):
    n = draw(st.integers(4, 6))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n,
                           unique=True))
    positions = dict(enumerate(points))
    polylines = {(u, v): [points[u], points[v]] for u in range(n) for v in range(u + 1, n)}
    return n, positions, polylines


def assert_matches_reference_drawing(n, positions, polylines):
    expected = reference_drawing(n, positions, polylines)
    try:
        drawing = load_drawing(document(n, positions, polylines))
    except DocumentError as exc:
        assert expected == ("error", str(exc))
        return None
    assert expected[0] == "ok"
    _, reference, points = expected
    assert canonical_form(drawing) == canonical_form(reference)
    assert {c: exact_points(drawing.geometry)[c] for c in drawing.crossings} == points
    assert drawing.rotations == comparison_rotations(drawing)
    return drawing


@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_drawings())
def test_wide_straight_drawings_match_reference(case):
    drawing = assert_matches_reference_drawing(*case)
    event("loads" if drawing is not None else "rejected")


# Edge 0-1 is 2^62 long; 2-4 crosses it at 2^61 - 1/2 and 2-3 at 2^61 + 1/2,
# so the two parameters differ by 2^-62. The pair (2, 3) sorts before (2, 4),
# so only the position keys put 2-4's crossing first.
CLOSE = {0: (0, 0), 1: (2**62, 0), 2: (2**61, 1), 3: (2**61 + 1, -1), 4: (2**61 - 1, -1)}


def test_crossings_closer_than_2_to_the_minus_60():
    drawing = assert_matches_reference_drawing(*straight_lines(5, CLOSE))
    first, second = drawing.chains[(0, 1)][1:-1]
    assert drawing.crossings[first] == {(0, 1), (2, 4)}
    assert drawing.crossings[second] == {(0, 1), (2, 3)}
    points = exact_points(drawing.geometry)
    gap = (points[second][0] - points[first][0]) / 2**62
    assert 0 < gap < 2**-60


def assert_routes_agree(n, positions, polylines):
    """Whether the straight route takes the straight-line K_n; when it
    does, its crossing records, in test order, and its vertex rotations
    must equal those of the general route: the records of _find_crossings
    sorted by _test_order, and _angular_order at each vertex. When it does not, three vertices
    must lie on a line."""
    straight = _straight(n, positions, polylines)
    if straight is None:
        assert has_collinear_triple(positions)
        return False
    records, slots = straight
    assert records == sorted(_find_crossings(polylines, positions), key=_test_order)
    for v, (x, y) in positions.items():
        others = [w for w in positions if w != v]
        darts = [((positions[w][0] - x, positions[w][1] - y), w) for w in others]
        assert sorted(others, key=slots[v].__getitem__) == list(_angular_order(darts))
    return True


def straight_lines(n, positions):
    """(n, positions, polylines) of the straight-line K_n on the points."""
    polylines = {(u, v): [positions[u], positions[v]] for u in range(n) for v in range(u + 1, n)}
    return n, positions, polylines


@pytest.mark.parametrize("family, n, seed", [
    *(("convex", n, None) for n in range(4, 17)),
    *(("rectilinear", n, seed) for n in range(4, 15) for seed in (1, 2))])
def test_straight_route_agrees_with_the_general_route(family, n, seed):
    doc = convex_document(n) if family == "convex" else rectilinear_document(n, seed)
    n, positions, polylines = straight_lines(
        n, {item["id"]: (item["x"], item["y"]) for item in doc["vertices"]})
    for turns in range(4):
        assert assert_routes_agree(n, *_turned(positions, polylines, turns))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(wide_drawings())
def test_straight_route_agrees_on_wide_drawings(case):
    n, positions, polylines = case
    taken = [assert_routes_agree(n, *_turned(positions, polylines, turns)) for turns in range(4)]
    assert len(set(taken)) == 1
    event("straight route" if taken[0] else "collinear triple: general route")


def test_straight_route_agrees_on_crossings_closer_than_2_to_the_minus_60():
    n, positions, polylines = straight_lines(5, CLOSE)
    for turns in range(4):
        assert assert_routes_agree(n, *_turned(positions, polylines, turns))


def _quarter_turns(direction):
    x, y = direction
    return [(x, y), (-y, x), (-x, -y), (y, -x)]


NEAR_PARALLEL = [d for base in ((10**12, 1), (10**12 + 1, 1), (10**12, 2), (1, 10**12),
                                (10**12, 10**12 - 1), (10**12, 10**12), (1, 0))
                 for d in _quarter_turns(base)]


@pytest.mark.parametrize("turn", range(4))
def test_angle_keys_match_comparison_sort(turn):
    darts = [(d, target) for target, d in enumerate(NEAR_PARALLEL[turn:] + NEAR_PARALLEL[:turn])]
    want = [target for _, target in sort_by_angle(darts, key=lambda d: d[0])]
    assert list(_angular_order(darts)) == want


@pytest.mark.parametrize("turn", range(4))
def test_coincident_directions_raise(turn):
    # (0, 1) leaves vertex 0 towards (4, 4) before bending to vertex 1, and
    # (0, 2) runs straight on past (4, 4) to vertex 2: the two edges leave
    # vertex 0 in one direction, so their first pieces overlap.
    positions, polylines = _turned(
        {0: (0, 0), 1: (10, 0), 2: (10, 10), 3: (0, 10)},
        {(0, 1): [(0, 0), (4, 4), (10, 0)], (0, 2): [(0, 0), (10, 10)],
         (0, 3): [(0, 0), (0, 10)], (1, 2): [(10, 0), (10, 10)],
         (1, 3): [(10, 0), (0, 10)], (2, 3): [(10, 10), (0, 10)]}, turn)
    message = "edges (0, 1) and (0, 2) overlap along a segment"
    assert reference_planarization(positions, polylines) == ("error", message)
    with pytest.raises(DocumentError) as info:
        load_drawing(document(4, positions, polylines))
    assert str(info.value) == message


# K_5 with darts along both axes at every vertex, and three crossings of a
# horizontal and a vertical piece: (0, 1) x (2, 3), (0, 1) x (2, 4) and
# (1, 3) x (2, 4).
AXIS_POSITIONS = {0: (0, 10), 1: (20, 10), 2: (10, 0), 3: (10, 20), 4: (30, 30)}
AXIS_POLYLINES = {
    (0, 1): [(0, 10), (20, 10)],
    (0, 2): [(0, 10), (0, 0), (10, 0)],
    (0, 3): [(0, 10), (0, 20), (10, 20)],
    (0, 4): [(0, 10), (-5, 10), (-5, -10), (40, -10), (40, 30), (30, 30)],
    (1, 2): [(20, 10), (20, 0), (10, 0)],
    (1, 3): [(20, 10), (20, 20), (10, 20)],
    (1, 4): [(20, 10), (30, 10), (30, 30)],
    (2, 3): [(10, 0), (10, 20)],
    (2, 4): [(10, 0), (15, 5), (15, 30), (30, 30)],
    (3, 4): [(10, 20), (10, 40), (30, 40), (30, 30)],
}


@pytest.mark.parametrize("turns", range(4))
def test_axis_parallel_rotations_match_comparison_sort(turns):
    positions = {v: _quarter_turns(p)[turns] for v, p in AXIS_POSITIONS.items()}
    polylines = {e: [_quarter_turns(p)[turns] for p in pts] for e, pts in AXIS_POLYLINES.items()}
    drawing = load_drawing(document(5, positions, polylines))
    _, reference, _ = reference_drawing(5, positions, polylines)
    assert {x: set(edges) for x, edges in drawing.crossings.items()} == {
        5: {(0, 1), (2, 3)}, 6: {(0, 1), (2, 4)}, 7: {(1, 3), (2, 4)}}
    # vertices first, then crossings in ascending id: face ids follow this
    assert list(drawing.rotations) == list(range(8))
    assert drawing.rotations == {x: tuple(r) for x, r in reference.rotations.items()}
    assert drawing.rotations == comparison_rotations(drawing)


def _turned_document(doc, turns):
    vertices = []
    for v in doc["vertices"]:
        x, y = _quarter_turns((v["x"], v["y"]))[turns]
        vertices.append(dict(v, x=x, y=y))
    edges = [dict(e, polyline=[list(_quarter_turns(p)[turns]) for p in e["polyline"]])
             for e in doc["edges"]]
    return dict(doc, vertices=vertices, edges=edges)


def _k4(positions, bent):
    """Document of a K_4 whose edges run straight, except those in bent,
    which follow the polylines given there."""
    polylines = {(u, v): [positions[u], positions[v]] for u in range(4) for v in range(u + 1, 4)}
    return document(4, positions, {**polylines, **bent})


# K_4 drawings whose lowest polyline point (unturned) is: the left end of
# a horizontal edge; a bend of (0, 1) where the piece ahead turns further
# counterclockwise than the one behind, or less far and horizontal; and
# a bend past the crossing of (0, 1) with (2, 3).
LOWEST = {
    "horizontal-bottom": _k4({0: (0, 0), 1: (10, 0), 2: (10, 10), 3: (0, 10)}, {}),
    "bend-ahead-after-back": _k4({0: (20, 10), 1: (0, 10), 2: (0, 30), 3: (20, 30)},
                                 {(0, 1): [(20, 10), (10, 0), (0, 10)]}),
    "bend-ahead-horizontal": _k4({0: (0, 10), 1: (30, 10), 2: (30, 30), 3: (0, 30)},
                                 {(0, 1): [(0, 10), (10, 0), (20, 0), (30, 10)]}),
    "bend-past-a-crossing": _k4({0: (10, 10), 1: (30, 30), 2: (30, 10), 3: (10, 30)},
                                {(0, 1): [(10, 10), (5, 5), (20, 0), (40, 10), (40, 35),
                                          (30, 30)],
                                 (2, 3): [(30, 10), (12, 4), (0, 8), (0, 35), (10, 30)]}),
}


def _face_or_error(locate, drawing, point):
    try:
        return locate(drawing, point)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("doc, turns", [
    *((name, 0) for name in ("convex", "rectilinear")),
    *(("cylindrical", turns) for turns in range(4))])
def test_locate_face_matches_ray_casting(doc, turns):
    raw = {"convex": lambda: convex_document(7),
           "rectilinear": lambda: rectilinear_document(7, 3),
           "cylindrical": lambda: cylindrical_document(6)}[doc]()
    drawing = load_drawing(_turned_document(raw, turns))
    rng = random.Random(f"{doc}:{turns}")
    # every vertex and crossing, and some bends, lie on the drawing; one
    # unit to their right or left, a point shares its y with a node, which
    # lies on the horizontal ray to the right of the left one
    points = exact_points(drawing.geometry)
    bends = sorted({x for path in segment_paths(drawing.geometry).values()
                    for x in path} - set(points.values()))
    nodes = [*points.values(), *rng.sample(bends, min(len(bends), 8))]
    beside = [(x + dx, y) for x, y in nodes for dx in (1, -1)]
    xs, ys = [int(x) for x, _ in nodes], [int(y) for _, y in nodes]
    scattered = [(rng.randint(min(xs) - 5, max(xs) + 5), rng.randint(min(ys) - 5, max(ys) + 5))
                 for _ in range(20)]
    answers = {}
    for point in (*nodes, *beside, *scattered):
        answers[point] = _face_or_error(locate_face, drawing, point)
        assert answers[point] == _face_or_error(reference_locate_face, drawing, point)
    assert all(isinstance(answers[point], str) for point in nodes)
    assert len({a for a in answers.values() if isinstance(a, int)}) > 5


@pytest.mark.parametrize("turns", range(4))
@pytest.mark.parametrize("name", LOWEST)
def test_locate_face_matches_ray_casting_on_bent_edges(name, turns):
    # crossings on pieces of edges with bends: the centres of the unit
    # squares over the drawing and around it, which meet every face
    drawing = load_drawing(_turned_document(LOWEST[name], turns))
    pts = [p for path in drawing.geometry.polylines.values() for p in path]
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    found = set()
    for x in range(min(xs) - 1, max(xs) + 1):
        for y in range(min(ys) - 1, max(ys) + 1):
            point = (x + Fraction(1, 2), y + Fraction(1, 2))
            answer = _face_or_error(locate_face, drawing, point)
            assert answer == _face_or_error(reference_locate_face, drawing, point)
            found.add(answer)
    assert set(trace_faces(drawing).face_ids()) <= found


@pytest.mark.parametrize("turns", range(4))
@pytest.mark.parametrize("family, n", [("convex", 6), ("convex", 12), ("cylindrical", 7),
                                       ("cylindrical", 12), ("rectilinear", 9),
                                       ("rectilinear", 12),
                                       *((name, 4) for name in LOWEST)])
def test_outer_face_is_the_one_face_bounded_clockwise(family, n, turns):
    # every face lies left of its boundary walk: a bounded face's walk runs
    # counterclockwise (positive area), the unbounded face's clockwise
    raw = {"convex": convex_document, "cylindrical": cylindrical_document,
           "rectilinear": lambda n: rectilinear_document(n, n)}.get(family)
    raw = raw(n) if raw else LOWEST[family]
    drawing = load_drawing(_turned_document(raw, turns))
    geo = drawing.geometry
    clockwise = [f for f, walk in enumerate(face_views(trace_faces(drawing)).faces)
                 if polygon_area2([x for a, b in walk for x in segment_path(geo, a, b)[:-1]]) < 0]
    assert clockwise == [outer_face(drawing)]
