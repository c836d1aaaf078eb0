"""Exact planarization of straight-line / polyline drawings.

Input coordinates are integers and every decision is made on integers,
so the combinatorial structure is bit-exact. The loader rejects
degenerate geometry instead of repairing it: overlapping segments,
touches at polyline bends or vertices, three concurrent curves, and
self-intersecting edges all raise DocumentError naming the culprits.
Crossings of *distinct interiors* are allowed even when they violate
goodness (adjacent edges crossing, an edge pair crossing twice): those
load fine and are reported by validate_goodness.

Candidate pairs of polyline pieces are those whose bounding boxes meet,
tested in ascending index order. _box_pairs finds them by a sort and
sweep along x inside horizontal bands, and keeps each pair only in the
band holding the higher of its two bottoms: the sort-and-prune broad
phase of Cohen, Lin, Manocha and Ponamgi ("I-COLLIDE", 1995), swept
along one axis in each band. It pays for the pairs it keeps and for a
few memberships per box, not for every pair overlapping in x. Two
consecutive pieces of one edge share their joint, so they meet nowhere
else unless they are collinear and run back over each other; every
other such pair is settled at once. A pair that is not parallel is
decided by its integer parameter numerators: it crosses inside both
pieces, or meets at an end of one of them (the common vertex of two
adjacent edges, or a degenerate contact). Collinear pairs go through
segment_intersection, which finds overlaps. Crossing points and
positions along edges are keyed by integers made exact by _shift.

The drawing keeps the planarizer's records and makes its Geometry from
them on the first read, so jobs that never draw or locate a point never
pay for it. The Geometry keeps them as integers too: each crossing's
homogeneous point (x, y, d) and the crossings in order along each edge.
Fractions are built only for messages and for Geometry.points, which is
built on its first read, as are the segment paths made from it (face
highlights, point location). A plain SVG draws from the integers and
builds neither.

A vertex sorts its darts by the cross-product order of
geometry.angle_less. A crossing needs no comparison: its test already
holds both piece directions and the sign of their cross product, and
records with the crossing which piece runs into [0, pi) and which of
the two darts into [0, pi) comes first. Its rotation is then its four
chain neighbours put in that order. Point location counts, for every
face, the winding number of its boundary around the point in one pass
over the pieces (Hormann and Agathos, "The point in polygon problem for
arbitrary polygons", 2001).

Vertices lying on a foreign edge are found in the same sweep, each vertex
as a point box. With every edge of K_n present, each such vertex is first
met as a touch with one of its own edges, so that check is the guard for
direct planarize calls on a subset of the edges.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, cmp_to_key, partial
from math import gcd

from .drawing import Drawing, per_drawing, trace_faces
from .errors import CapabilityError, DocumentError
from .geometry import angle_less, cross, on_segment, segment_intersection, sub


def planarize(n, positions, polylines) -> Drawing:
    """Build the planarized Drawing of a geometric document.

    positions:  vertex id -> (x, y) integer point
    polylines:  edge (u, v), u < v -> list of integer points from u to v
    """
    if len(set(positions.values())) != n:
        raise DocumentError("two vertices share a position")

    subsegments = []  # (edge, index along polyline, P, Q)
    for e in sorted(polylines):
        pts = polylines[e]
        for i, (p, q) in enumerate(zip(pts, pts[1:])):
            if p == q:
                raise DocumentError(f"edge {e} repeats consecutive polyline points")
            subsegments.append((e, i, p, q))

    crossings, span = _find_crossings(subsegments, positions)

    # Three concurrent curves share a point key; the first such point in
    # test order is named.
    if len({rec[4] for rec in crossings}) != len(crossings):
        by_point = {}
        for rec in crossings:
            by_point.setdefault(rec[4], []).append(rec)
        for (x, y, d), recs in by_point.items():
            if len(recs) > 1:
                involved = sorted({e for rec in recs for e in rec[:2]})
                raise DocumentError(f"three curves concurrent at {_exact(x, y, d)}: "
                                    f"edges {involved}")

    # A record is (e1, e2, position on e1, position on e2, point, turn)
    # with e1 < e2, and no two records share (e1, e2, position on e1), so
    # this sorts by edge pair and then along the first edge.
    crossings.sort()
    per_edge = {e: [] for e in polylines}
    for node, (e1, e2, pos1, pos2, _, _) in enumerate(crossings, n):
        per_edge[e1].append((pos1, node))
        per_edge[e2].append((pos2, node))

    chains = {}
    for e, hits in per_edge.items():
        hits.sort()
        chains[e] = (e[0],) + tuple(node for _, node in hits) + (e[1],)

    # The planarized graph must be simple. Two chains sharing a segment can
    # only come from a non-good contact pattern (adjacent edges crossing
    # right after their shared vertex, or a pair crossing twice in a row);
    # those drawings have no simple planarization and are rejected here.
    seen_segments = {}
    for e, ch in chains.items():
        for a, b in zip(ch, ch[1:]):
            s = (a, b) if a < b else (b, a)
            other = seen_segments.get(s)
            if other is not None:
                raise DocumentError(
                    f"edges {other} and {e} run side by side between the same "
                    f"two nodes; this contact pattern (adjacent edges crossing, "
                    f"or a pair crossing twice consecutively) has no simple "
                    f"planarization and is not representable")
            seen_segments[s] = e

    rotations = _build_rotations(positions, polylines, chains, crossings)
    pairs = {node: frozenset(rec[:2]) for node, rec in enumerate(crossings, n)}
    # only rendering, export and point location read the geometry
    geometry = partial(_build_geometry, n, positions, polylines, crossings, per_edge)
    drawing = Drawing(range(n), pairs, rotations, chains, geometry)
    trace_faces(drawing)  # Euler check on the fresh embedding
    return drawing


def _shift(span):
    """Fixed-point precision K for the crossing parameters of a drawing
    whose coordinates span at most `span`.

    A crossing parameter is t = tn/den with 0 < tn < den <= |d1 x d2|
    <= 2 span^2, so two distinct parameters on one piece differ by at
    least 1/(2 span^2)^2. With 2^K >= (2 span^2)^2 the floors
    (tn << K) // den of distinct parameters are therefore distinct and in
    order, and equal parameters give equal keys.
    """
    return 2 * (2 * span * span).bit_length()


def _box_pairs(boxes):
    """The pairs (ia, ib), ia < ib, of (x0, y0, x1, y1) boxes that meet,
    touching included, in ascending order.

    y is cut into bands twice the mean box height tall (plus one), and
    each box joins every band its y-range reaches: fewer than 2.5 bands a
    box on average, however tall some boxes are. Inside each band runs a
    sort and sweep: after each box in left-end order come the boxes
    starting within its x-range, and of these the ones whose y-range meets
    its own are kept. Two boxes that meet both reach the band holding the
    higher of their two bottoms, and the pair is kept there only, as the
    band in which one of them starts; so no pair is kept twice."""
    m = len(boxes)
    lo_x, lo_y, hi_x, hi_y = zip(*boxes)
    base = min(lo_y)
    height = 2 * (sum(hi_y) - sum(lo_y)) // m + 1
    first = [(y - base) // height for y in lo_y]
    bands = {}  # band -> its boxes in left-end order
    for i in sorted(range(m), key=lo_x.__getitem__):
        band, last = first[i], (hi_y[i] - base) // height
        while band <= last:
            members = bands.get(band)
            if members is None:
                bands[band] = [i]
            else:
                members.append(i)
            band += 1
    codes = []
    for band, order in bands.items():
        starts = [lo_x[i] for i in order]
        k = 0
        for ia in order:
            k += 1  # order[k:] follows ia
            end = bisect_right(starts, hi_x[ia], k)
            if end == k:
                continue
            y1 = hi_y[ia]
            if first[ia] == band:
                y0 = lo_y[ia]
                codes += [ia * m + ib if ia < ib else ib * m + ia
                          for ib in order[k:end] if lo_y[ib] <= y1 and y0 <= hi_y[ib]]
            else:  # from a lower band: only boxes starting in this one
                codes += [ia * m + ib if ia < ib else ib * m + ia
                          for ib in order[k:end] if first[ib] == band and lo_y[ib] <= y1]
    codes.sort()
    return [divmod(code, m) for code in codes]


def _find_crossings(subsegments, positions):
    """All proper interior crossings and the drawing's span; rejects every
    degenerate contact, vertices on foreign edges included (after every
    crossing check). Vertex positions must be distinct.

    A crossing is recorded as (e1, e2, position on e1, position on e2,
    point, turn), e1 < e2; turn is (up1, up2, first): whether each piece
    runs into [0, pi) and whether e1's dart into [0, pi) comes before
    e2's counterclockwise."""
    boxes = []
    for _, _, (px, py), (qx, qy) in subsegments:
        x0, x1 = (px, qx) if px < qx else (qx, px)
        y0, y1 = (py, qy) if py < qy else (qy, py)
        boxes.append((x0, y0, x1, y1))
    lo_x, lo_y, hi_x, hi_y = zip(*boxes)
    span = max(max(hi_x) - min(lo_x), max(hi_y) - min(lo_y))
    shift = _shift(span)
    # Vertices join the sweep as point boxes after the m pieces; two
    # distinct points never meet, so ia is always a piece.
    m = len(subsegments)
    vertices = list(positions.items())
    boxes += [(x, y, x, y) for _, (x, y) in vertices]

    # Pairs are tested in ascending (ia, ib) order, so the first degenerate
    # pair is always the same, as is the vertex on a foreign piece named
    # after every crossing check: the first piece's, then the first vertex.
    crossings = []
    passes = None
    last = None
    for ia, ib in _box_pairs(boxes):
        if ia != last:
            last = ia
            e1, i1, p, q = subsegments[ia]
            px, py = p
            d1x, d1y = q[0] - px, q[1] - py
        if ib >= m:
            v, x = vertices[ib - m]
            if passes is None and v not in e1 and on_segment(x, p, q):
                passes = f"edge {e1} passes through vertex {v}"
            continue
        e2, i2, r, s = subsegments[ib]
        d2x, d2y = s[0] - r[0], s[1] - r[1]
        den = d1x * d2y - d1y * d2x
        if ib == ia + 1 and e2 == e1 and (den or d1x * d2x + d1y * d2y > 0):
            # consecutive pieces of one edge meet only at their joint,
            # unless they run back along one line (an overlap, below)
            continue
        if den:
            # p + (tn/den) d1 = r + (un/den) d2, with den made positive
            rx, ry = r[0] - px, r[1] - py
            tn = rx * d2y - ry * d2x
            un = rx * d1y - ry * d1x
            if den < 0:
                den, tn, un = -den, -tn, -un
            if not (0 <= tn <= den and 0 <= un <= den):
                continue
            if 0 < tn < den and 0 < un < den:
                x, y = px * den + tn * d1x, py * den + tn * d1y
                if e1 == e2:
                    raise DocumentError(f"edge {e1} intersects itself at {_exact(x, y, den)}")
                g = gcd(x, y, den)
                up1 = d1y > 0 or (d1y == 0 and d1x > 0)
                up2 = d2y > 0 or (d2y == 0 and d2x > 0)
                turn = (up1, up2, (d1x * d2y > d1y * d2x) == (up1 == up2))
                # subsegments are sorted by edge, so e1 < e2 here
                crossings.append((e1, e2, (i1, (tn << shift) // den),
                                  (i2, (un << shift) // den), (x // g, y // g, den // g),
                                  turn))
                continue
            # the only common point is an end of one piece
            x = p if tn == 0 else q if tn == den else r if un == 0 else s
        elif cross(p, q, r):
            continue  # parallel, on distinct lines
        else:
            inter = segment_intersection(p, q, r, s)
            if inter is None:
                continue
            if inter[0] == "overlap":
                raise DocumentError(f"edges {e1} and {e2} overlap along a segment")
            x = inter[1]  # an end of both pieces
        if e1 == e2:
            raise DocumentError(f"edge {e1} intersects itself at {_exact(*x)}")
        a, b = e1
        common = a if a in e2 else b if b in e2 else None
        if common is not None and positions[common] == x:
            continue  # adjacent edges meeting at their common vertex
        raise DocumentError(
            f"edges {e1} and {e2} touch at {_exact(*x)} (tangential or bend contact)")

    if passes is not None:
        raise DocumentError(passes)
    return crossings, span


def _exact(x, y, d=1) -> str:
    """The point (x/d, y/d) as it appears in messages: exact coordinates
    written as integers or reduced fractions, e.g. (120/7, 30)."""
    return f"({Fraction(x, d)}, {Fraction(y, d)})"


class Geometry:
    """Planar coordinates of a geometric drawing, kept as the planarizer's
    integers.

    polylines      -- edge (u, v), u < v -> tuple of integer points from u to v
    points         -- node id -> (x, y): the integer position of a vertex,
                      the exact Fraction point of a crossing
    segment_paths  -- dart along a chain -> tuple of the points of the
                      polyline piece backing it; segment_path(a, b) reads
                      either direction

    It is made of the vertex positions, the polylines, each crossing's
    homogeneous point (x, y, d) with d > 0, standing for (x/d, y/d), and
    the crossings along each edge as the planarizer ordered them:
    ((piece index, position key), node). points and segment_paths are
    each built from these on their first read. A plain SVG reads neither:
    the renderer takes node positions as floats from _float_points.
    """

    def __init__(self, vertices, polylines, crossings, along):
        self._vertices = vertices    # vertex id -> (x, y), in id order
        self.polylines = polylines
        self._crossings = crossings  # crossing node -> (x, y, d), in id order
        self._along = along          # edge -> [((piece index, key), node)]

    @cached_property
    def points(self):
        points = dict(self._vertices)
        for node, (x, y, d) in self._crossings.items():
            points[node] = (Fraction(x, d), Fraction(y, d))
        return points

    @cached_property
    def segment_paths(self):
        points = self.points
        paths = {}
        for e, pts in self.polylines.items():
            hits = self._along[e]
            h = 0
            tail, path = e[0], [pts[0]]
            for i, q in enumerate(pts[1:]):
                while h < len(hits) and hits[h][0][0] == i:
                    node = hits[h][1]
                    x = points[node]
                    if path[-1] != x:
                        path.append(x)
                    paths[(tail, node)] = tuple(path)
                    tail, path = node, [x]
                    h += 1
                if path[-1] != q:
                    path.append(q)
            paths[(tail, e[1])] = tuple(path)
        return paths

    def segment_path(self, a: int, b: int):
        path = self.segment_paths.get((a, b))
        if path is not None:
            return path
        return tuple(reversed(self.segment_paths[(b, a)]))

    def _float_points(self, nodes):
        """[(x, y)] of the given nodes in floats, equal to float() of their
        points entries without building them: x / d is the correctly
        rounded quotient, as float(Fraction(x, d)) is."""
        vertices, crossings = self._vertices, self._crossings
        out = []
        for node in nodes:
            hom = crossings.get(node)
            if hom is None:
                x, y = vertices[node]
                out.append((float(x), float(y)))
            else:
                x, y, d = hom
                out.append((x / d, y / d))
        return out


def _build_geometry(n, positions, polylines, crossings, per_edge):
    return Geometry({v: positions[v] for v in range(n)},
                    {e: tuple(pts) for e, pts in polylines.items()},
                    {node: rec[4] for node, rec in enumerate(crossings, n)}, per_edge)


def _build_rotations(positions, polylines, chains, crossings):
    """Counterclockwise rotations from the +x axis: at a vertex, the first
    piece of each of its edges, sorted by angle; at a crossing, its four
    chain neighbours, placed by the turn its record carries. Vertices
    come first, then crossings in ascending id."""
    darts = {v: [] for v in positions}
    n = len(darts)
    around = {x: [] for x in range(n, n + len(crossings))}
    for e in sorted(chains):  # a crossing's e1 before its e2
        chain, pts = chains[e], polylines[e]
        darts[e[0]].append((sub(pts[1], pts[0]), chain[1]))
        darts[e[1]].append((sub(pts[-2], pts[-1]), chain[-2]))
        for behind, x, ahead in zip(chain, chain[1:-1], chain[2:]):
            around[x] += (ahead, behind)
    rotations = {v: _angular_order(d, f"vertex {v}") for v, d in darts.items()}
    # Both darts into [0, pi) precede their reverses, in the same order.
    for (x, (ahead1, behind1, ahead2, behind2)), rec in zip(around.items(), crossings):
        up1, up2, first = rec[5]
        a1, b1 = (ahead1, behind1) if up1 else (behind1, ahead1)
        a2, b2 = (ahead2, behind2) if up2 else (behind2, ahead2)
        rotations[x] = (a1, a2, b1, b2) if first else (a2, a1, b2, b1)
    return rotations


def _ccw(first, second):
    """Comparison of (direction, target) darts by angle_less."""
    return angle_less(second[0], first[0]) - angle_less(first[0], second[0])


def _angular_order(darts, where):
    """Targets of (direction, target) darts in counterclockwise order;
    raises DocumentError if two darts share a direction."""
    ordered = sorted(darts, key=cmp_to_key(_ccw))
    for (a, _), (b, _) in zip(ordered, ordered[1:]):
        if not angle_less(a, b):
            raise DocumentError(f"two curves leave {where} in the same direction")
    return tuple(target for _, target in ordered)


# -- point location ---------------------------------------------------------

def locate_face(drawing, point) -> int:
    """Face of the geometric drawing containing the given point.

    The boundary of a bounded face winds once around each of its points
    and around no other point; that of the unbounded face winds minus once
    around every point outside it. One pass over the pieces adds each
    piece's signed half-open crossing of the line y = point.y, right of
    the point, to the face on its left and subtracts it from the face on
    its right. Raises CapabilityError without geometry and ValueError for
    points on the drawing itself.
    """
    geo = drawing.geometry
    if geo is None:
        raise CapabilityError("point location needs a geometric drawing")
    p = (Fraction(point[0]), Fraction(point[1]))
    y = p[1]
    dart_face = trace_faces(drawing).dart_face

    winding = {}
    for dart, path in geo.segment_paths.items():
        for a, b in zip(path, path[1:]):
            if (a[1] < y and b[1] < y) or (a[1] > y and b[1] > y):
                continue
            side = cross(a, b, p)
            if side == 0 and on_segment(p, a, b):
                raise ValueError(f"point {point} lies on the drawing")
            if a[1] <= y < b[1] and side > 0:
                step = 1
            elif b[1] <= y < a[1] and side < 0:
                step = -1
            else:
                continue
            left, right = dart_face[dart], dart_face[(dart[1], dart[0])]
            winding[left] = winding.get(left, 0) + step
            winding[right] = winding.get(right, 0) - step
    for face, count in winding.items():
        if count == 1:
            return face
    return outer_face(drawing)


@per_drawing
def outer_face(drawing) -> int:
    """Face id of the unbounded face of a geometric drawing (cached).

    At the lowest point of the whole drawing nothing lies below, so the
    face occupying the angular gap around "straight down" there is the
    unbounded one; it is the face just counterclockwise of the angularly
    largest direction leaving it. That point is a point of a polyline: a
    crossing lies inside two non-parallel pieces, and one of them dips
    below it.
    """
    geo = drawing.geometry
    if geo is None:
        raise CapabilityError("the unbounded face needs a geometric drawing")
    faces = trace_faces(drawing)
    low = min((pt for pts in geo.polylines.values() for pt in pts),
              key=lambda pt: (pt[1], pt[0]))

    # (direction, face on its left) of each piece leaving the lowest point
    leaving = []
    for (a, b), path in geo.segment_paths.items():
        if low in path:
            for dart, walk in (((a, b), path), ((b, a), path[::-1])):
                leaving += [(sub(walk[i + 1], low), faces.dart_face[dart])
                            for i in range(len(walk) - 1) if walk[i] == low]
    return max(leaving, key=cmp_to_key(_ccw))[1]
