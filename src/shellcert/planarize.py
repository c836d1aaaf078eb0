"""Exact planarization of straight-line / polyline drawings.

Input coordinates are integers and every decision is made on integers,
so the combinatorial structure is bit-exact. The loader rejects
degenerate geometry instead of repairing it: overlapping segments,
touches at polyline bends or vertices, three concurrent curves, and
self-intersecting edges all raise DocumentError naming the culprits.
Crossings of *distinct interiors* are allowed even when they violate
goodness (adjacent edges crossing, an edge pair crossing twice): those
load fine and are reported by validate_goodness.

A straight-line drawing of K_n takes its own route (_straight): when
every edge is one segment and the edges are all pairs of 0..n-1, the
whole planarization follows from the order type of the points, the signs
of the C(n, 3) vertex triples (Aichholzer, Aurenhammer and Krasser,
"Enumerating order types for small point sets", 2002). Each sign is
computed once; two edges with four distinct ends cross iff each
separates the ends of the other, and the darts at a vertex are ranked by
the same signs. A sign 0 hands the input unchanged to the general route,
which names the fault: three vertices on a line put the middle one on
the edge of the outer two, so such a K_n is degenerate anyway.
Without a collinear triple no two straight edges touch, overlap or share
a segment, so only three concurrent edges remain to be rejected, by the
point keys both routes share. Both routes build each crossing record
with _record, and the straight route emits them in test order
(_test_order: by the pair of pieces, numbered by edge and then along
it), so every message is the same. Every other input takes the general
route:

One pass over each edge's polyline fills flat per-piece lists: edge,
piece index, start point, direction and bounding box. Candidate pairs
of pieces are those whose boxes meet. _box_pairs finds them by a sort
and sweep along x inside horizontal bands, and keeps each pair only in
the band holding the higher of its two bottoms: the sort-and-prune
broad phase of Cohen, Lin, Manocha and Ponamgi ("I-COLLIDE", 1995),
swept along one axis in each band. It pays for the pairs it keeps and
for a few memberships per box, not for every pair overlapping in x.
Each pair is tested where the sweep finds it, in no fixed order, so a
fault does not raise at once: the message of the lowest faulty pair is
kept and raised after the sweep, and the same fault is named wherever
the sweep meets it. Records are put into test order only when two share
a point, so that three concurrent curves are named at the first such
point in test order. Two consecutive pieces of one edge share their
joint, so they meet nowhere else unless they are collinear and run back
over each other; every other such pair is settled at once. A pair that
is not parallel is decided by its integer parameter numerators: it
crosses inside both pieces, or meets at an end of one of them (the
common vertex of two adjacent edges, or a degenerate contact). Collinear
pairs go through segment_intersection, which finds overlaps. Crossing
points and positions along edges are keyed by integers made exact by
_shift.

The drawing's Geometry wraps the planarizer's own records, copying
nothing: the vertex positions, the polylines, the sorted crossing
records, each holding its homogeneous point (x, y, d), and the crossings
in order along each edge. It builds no view of the whole drawing.
Fractions are made only for messages, for the query point of a point
location, and by Geometry.point and Geometry.piece for the crossings a
face highlight draws; a plain SVG draws from the integers.

A vertex sorts its darts by the cross-product order of
geometry.angle_less, or on the straight route takes each dart's slot
from the triple signs. A crossing needs no comparison: its test already
holds both piece directions and the sign of their cross product, and
records with the crossing which piece runs into [0, pi) and which of
the two darts into [0, pi) comes first. Its rotation is then its four
chain neighbours put in that order. Point location counts, for every
face, the winding number of its boundary around the point in one pass
over the integer polyline pieces (Hormann and Agathos, "The point in
polygon problem for arbitrary polygons", 2001), and the unbounded face
is read off the darts at the lowest polyline point.

A vertex lying on a foreign piece also lies on the first piece of each of
its own edges, so with every edge of K_n present that pair reports it as
a touch or an overlap; likewise two edges leaving a vertex in one
direction overlap. Drawing refuses two chains sharing a segment, as it
pairs a dart twice; only then does _side_by_side scan the chains to name
the two edges, so a load that succeeds scans no segments. A direct
planarize call on a subset of the edges is rejected by Drawing, whose
chains must cover every vertex pair; one whose positions are not those
of 0..n-1, whose points are not integer pairs, or whose edges name other
vertices or run from other points, is rejected before any geometry.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from math import gcd

from .drawing import Drawing, per_drawing, trace_faces
from .errors import CapabilityError, DocumentError, StructureError, quoted
from .geometry import angle_less, cross, on_segment, segment_intersection, sub


def planarize(n, positions, polylines) -> Drawing:
    """Build the planarized Drawing of a geometric document.

    positions:  vertex id -> (x, y) integer point, for each id 0..n-1
    polylines:  edge (u, v), u < v -> list of integer points from u to v

    Faces are traced on their first read: a plane embedding fits Euler.
    """
    _check_arguments(n, positions, polylines)
    if len(set(positions.values())) != n:
        raise DocumentError("two vertices share a position")

    straight = _straight(n, positions, polylines)
    if straight is None:
        crossings, slots = _find_crossings(polylines, positions), None
    else:
        crossings, slots = straight

    # Three concurrent curves share a point key; the first such point in
    # test order is named.
    if len({rec[4] for rec in crossings}) != len(crossings):
        crossings.sort(key=_test_order)
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

    rotations = _build_rotations(positions, polylines, chains, crossings, slots)
    pairs = {node: rec[:2] for node, rec in enumerate(crossings, n)}
    geometry = Geometry(positions, polylines, crossings, per_edge)
    try:
        drawing = Drawing(range(n), pairs, rotations, chains, geometry)
    except StructureError:
        _side_by_side(chains)
        raise
    return drawing


def _side_by_side(chains):
    """DocumentError naming the first two chains that share a segment: a
    non-good contact pattern (adjacent edges crossing right after their
    shared vertex, or a pair crossing twice in a row) with no simple
    planarization. It runs only once Drawing has refused the chains."""
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


def _check_arguments(n, positions, polylines):
    """DocumentError for arguments planarize cannot take: positions or
    polylines that are no mapping, positions for other ids than 0..n-1,
    an edge key that is no pair of those ids, a polyline of fewer than two
    points or one that does not run between its vertices, and a point that
    is no tuple of two plain ints, so that no float or bool enters a
    decision. The loader checks a document's keys, ids and endpoints and
    leaves the three polyline rules to this check, the only one."""
    if type(n) is not int:
        raise DocumentError(f"n must be an integer, not {quoted(n)}")
    for name, value in (("positions", positions), ("polylines", polylines)):
        if not isinstance(value, Mapping):
            raise DocumentError(f"{name} must be a mapping, got {quoted(value)}")
    if (len(positions) != n or not {int}.issuperset(map(type, positions))
            or not all(v in positions for v in range(n))):
        raise DocumentError("positions must give a point for each vertex 0..n-1 and no other")
    if not _integer_pairs(positions.values()):
        v = next(v for v in range(n) if not _integer_pairs((positions[v],)))
        raise DocumentError(f"vertex {v}: position must be an integer pair")
    for e, pts in polylines.items():
        if not (type(e) is tuple and len(e) == 2):
            raise DocumentError(f"edge key {quoted(e)} is not a pair (u, v)")
        if e[0] not in positions or e[1] not in positions:
            raise DocumentError(f"edge {quoted(e)} names a vertex with no position")
        if not (type(pts) in (list, tuple) and len(pts) >= 2):
            raise DocumentError(f"edge {e}: polyline needs at least 2 points")
        if not _integer_pairs(pts):
            raise DocumentError(f"edge {e}: polyline points must be integer pairs")
        if pts[0] != positions[e[0]] or pts[-1] != positions[e[1]]:
            raise DocumentError(f"edge {e}: polyline must start and end at its vertices")


def _integer_pairs(points) -> bool:
    """Whether every point is a tuple of two plain ints, by C-level scans."""
    return ({tuple}.issuperset(map(type, points)) and {2}.issuperset(map(len, points))
            and {int}.issuperset(map(type, chain.from_iterable(points))))


def _straight(n, positions, polylines):
    """(crossing records in test order, vertex dart slots) of a
    straight-line drawing of K_n, or None when the general route must
    take the input: some edge bends, the edges are not the pairs of
    0..n-1, or three vertices lie on a line (the middle one lies on the
    edge of the outer two, a fault the general route names).

    Everything follows from the order type, the signs of the C(n, 3)
    vertex triples, each computed once. left[v][w] has bit k set iff k
    lies left of the line from v to w, and up[v] has bit w set iff w - v
    points into [0, pi). Edges ab and cd, a < c, cross iff c and d lie on
    opposite sides of ab and a and b on opposite sides of cd, where
    orient(c, d, a) = orient(a, c, d) is bit d of left[a][c]; so for each
    edge ab and each c one mask holds every d whose edge cd crosses ab,
    and the records come out in ascending edge pair, which is their
    _test_order. Within one half-plane at v, w' precedes w iff
    orient(v, w', w) > 0, that is iff w' lies left of w -> v; so w's slot
    in v's rotation counts the bits of left[w][v] in w's half, after all
    darts into [0, pi) if w - v points into [pi, 2 pi).
    """
    if n < 3 or len(polylines) != n * (n - 1) // 2:
        return None
    for (u, v), pts in polylines.items():
        if u >= v or len(pts) != 2:
            return None
    points = [positions[v] for v in range(n)]
    left = [[0] * n for _ in range(n)]
    up = [0] * n
    for i, (xi, yi) in enumerate(points):
        left_i, bit_i = left[i], 1 << i
        for j in range(i + 1, n):
            xj, yj = points[j]
            dx, dy = xj - xi, yj - yi
            left_j, bit_j = left[j], 1 << j
            if dy > 0 or (dy == 0 and dx > 0):
                up[i] |= bit_j
            else:
                up[j] |= bit_i
            ij = ji = 0  # the bits k > j of left[i][j] and of left[j][i]
            for k in range(j + 1, n):
                xk, yk = points[k]
                turn = dx * (yk - yi) - dy * (xk - xi)
                if turn > 0:  # i, j, k run counterclockwise
                    ij |= 1 << k
                    left_j[k] |= bit_i
                    left[k][i] |= bit_j
                elif turn < 0:
                    ji |= 1 << k
                    left[k][j] |= bit_i
                    left_i[k] |= bit_j
                else:
                    return None
            left_i[j] |= ij
            left_j[i] |= ji

    full = (1 << n) - 1
    above = [full ^ ((2 << c) - 1) for c in range(n)]  # the bits d > c
    xs, ys = zip(*points)
    shift = _shift(max(max(xs) - min(xs), max(ys) - min(ys)))
    crossings = []
    for a, (px, py) in enumerate(points):
        left_a = left[a]
        for b in range(a + 1, n):
            ab, left_b, e1 = left_a[b], left[b], (a, b)
            d1x, d1y = xs[b] - px, ys[b] - py
            for c in range(a + 1, n):
                if c == b:
                    continue
                # d on the other side of ab than c, and a and b on either side
                # of cd; d = b would need orient(a, b, c) = orient(a, c, b)
                hits = (~ab if ab >> c & 1 else ab) & (left_a[c] ^ left_b[c]) & above[c]
                if not hits:
                    continue
                # p + (tn/den) d1 = r + (un/den) d2 as in _find_crossings, den > 0
                rx, ry = xs[c] - px, ys[c] - py
                un_c = rx * d1y - ry * d1x
                while hits:
                    low = hits & -hits
                    hits ^= low
                    d = low.bit_length() - 1
                    d2x, d2y = xs[d] - xs[c], ys[d] - ys[c]
                    den = d1x * d2y - d1y * d2x
                    tn, un = rx * d2y - ry * d2x, un_c
                    if den < 0:
                        den, tn, un = -den, -tn, -un
                    crossings.append(_record(e1, 0, px, py, d1x, d1y, (c, d), 0, d2x, d2y,
                                             tn, un, den, shift))

    slots = []
    for v in range(n):
        upper = up[v]
        lower = full ^ upper ^ (1 << v)
        before = upper.bit_count()
        slots.append([(left[w][v] & upper).bit_count() if upper >> w & 1
                      else before + (left[w][v] & lower).bit_count() for w in range(n)])
    return crossings, slots


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


def _box_pairs(lo_x, lo_y, hi_x, hi_y):
    """Yield (ia, [ib, ...]) for the boxes ib that meet box ia, touching
    included; box i is (lo_x[i], lo_y[i], hi_x[i], hi_y[i]). Each meeting
    pair comes once, as (ia, ib) or as (ib, ia), in no fixed order.

    y is cut into bands twice the mean box height tall (plus one), and
    each box joins every band its y-range reaches: fewer than 2.5 bands a
    box on average, however tall some boxes are. Inside each band runs a
    sort and sweep: after each box in left-end order come the boxes
    starting within its x-range, and of these the ones whose y-range meets
    its own are kept. Two boxes that meet both reach the band holding the
    higher of their two bottoms, and the pair is kept there only, as the
    band in which one of them starts; so no pair is kept twice."""
    m = len(lo_x)
    base = min(lo_y)
    height = 2 * (sum(hi_y) - sum(lo_y)) // m + 1
    bands = {}  # band -> its boxes in left-end order
    for i in sorted(range(m), key=lo_x.__getitem__):
        band, last = (lo_y[i] - base) // height, (hi_y[i] - base) // height
        while band <= last:
            members = bands.get(band)
            if members is None:
                bands[band] = [i]
            else:
                members.append(i)
            band += 1
    for band, order in bands.items():
        starts = [lo_x[i] for i in order]
        bottom = base + band * height
        k = 0
        for ia in order:
            k += 1  # order[k:] follows ia
            end = bisect_right(starts, hi_x[ia], k)
            if end == k:
                continue
            y0, y1 = lo_y[ia], hi_y[ia]
            # a box from a lower band pairs here only with boxes starting here
            floor = base if y0 >= bottom else bottom
            if end == k + 1:  # one box in reach, the commonest case: no list to filter
                ib = order[k]
                if floor <= lo_y[ib] <= y1 and y0 <= hi_y[ib]:
                    yield ia, [ib]
                continue
            hits = [ib for ib in order[k:end] if floor <= lo_y[ib] <= y1 and y0 <= hi_y[ib]]
            if hits:
                yield ia, hits


def _record(e1, i1, px, py, d1x, d1y, e2, i2, d2x, d2y, tn, un, den, shift):
    """The crossing record of piece i1 of e1, (px, py) + t (d1x, d1y), and
    piece i2 of e2, along (d2x, d2y), which cross inside both at
    t = tn / den, and at un / den along the second; den > 0, e1 <= e2.

    A record is (e1, e2, position on e1, position on e2, point, turn). A
    position is (piece index, (tn << shift) // den), the point is the
    reduced homogeneous (x, y, d) with d > 0, and turn is (up1, up2,
    first): whether each piece runs into [0, pi) and whether e1's dart
    into [0, pi) comes before e2's counterclockwise."""
    x, y = px * den + tn * d1x, py * den + tn * d1y
    g = gcd(x, y, den)
    up1 = d1y > 0 or (d1y == 0 and d1x > 0)
    up2 = d2y > 0 or (d2y == 0 and d2x > 0)
    turn = (up1, up2, (d1x * d2y > d1y * d2x) == (up1 == up2))
    return (e1, e2, (i1, (tn << shift) // den), (i2, (un << shift) // den),
            (x // g, y // g, den // g), turn)


def _test_order(rec):
    """The place of a crossing record among the pairs of pieces, by edge
    and then along it: (e1, piece on e1, e2, piece on e2)."""
    return rec[0], rec[2][0], rec[1], rec[3][0]


def _find_crossings(polylines, positions):
    """The records (_record) of all proper interior crossings of the
    pieces of the polylines, in the order the sweep meets them; rejects
    every degenerate contact between two pieces. Pieces are numbered by
    edge and then along it, and of several faulty pairs the lowest is
    named, wherever the sweep meets it. Vertex positions must be distinct.
    """
    edge, piece, start, dx, dy = [], [], [], [], []  # per piece
    lo_x, lo_y, hi_x, hi_y = [], [], [], []           # its bounding box
    for e in sorted(polylines):
        pts = polylines[e]
        p = pts[0]
        px, py = p
        for i, q in enumerate(pts[1:]):
            if q == p:
                raise DocumentError(f"edge {e} repeats consecutive polyline points")
            qx, qy = q
            edge.append(e)
            piece.append(i)
            start.append(p)
            dx.append(qx - px)
            dy.append(qy - py)
            if px < qx:
                lo_x.append(px)
                hi_x.append(qx)
            else:
                lo_x.append(qx)
                hi_x.append(px)
            if py < qy:
                lo_y.append(py)
                hi_y.append(qy)
            else:
                lo_y.append(qy)
                hi_y.append(py)
            p, px, py = q, qx, qy
    if not edge:
        return []
    shift = _shift(max(max(hi_x) - min(lo_x), max(hi_y) - min(lo_y)))

    m = len(edge)
    crossings = []
    fault = None  # (a * m + b, message) of the lowest faulty pair a < b so far
    for ia, hits in _box_pairs(lo_x, lo_y, hi_x, hi_y):
        ea, (ax, ay), adx, ady = edge[ia], start[ia], dx[ia], dy[ia]
        # the pieces before and after ia on its edge, which share a joint with it
        before = ia - 1 if ia and edge[ia - 1] == ea else -1
        after = ia + 1 if ia + 1 < m and edge[ia + 1] == ea else -1
        for ib in hits:
            bdx, bdy = dx[ib], dy[ib]
            den = adx * bdy - ady * bdx
            if (ib == after or ib == before) and (den or adx * bdx + ady * bdy > 0):
                # consecutive pieces of one edge meet only at their joint,
                # unless they run back along one line (an overlap, below)
                continue
            bx, by = start[ib]
            rx, ry = bx - ax, by - ay
            if den:
                # a + (tn/den) da = b + (un/den) db, with den made positive
                tn = rx * bdy - ry * bdx
                un = rx * ady - ry * adx
                if den < 0:
                    den, tn, un = -den, -tn, -un
                if not (0 <= tn <= den and 0 <= un <= den):
                    continue
                if 0 < tn < den and 0 < un < den:
                    # the lower piece comes first, so e1 <= e2
                    if ia < ib:
                        rec = _record(ea, piece[ia], ax, ay, adx, ady, edge[ib], piece[ib],
                                      bdx, bdy, tn, un, den, shift)
                    else:
                        rec = _record(edge[ib], piece[ib], bx, by, bdx, bdy, ea, piece[ia],
                                      adx, ady, un, tn, den, shift)
                    if edge[ib] != ea:
                        crossings.append(rec)
                        continue
                    message = f"edge {ea} intersects itself at {_exact(*rec[4])}"
                else:
                    # the only common point is an end of one piece
                    x = ((ax, ay) if tn == 0 else (ax + adx, ay + ady) if tn == den
                         else (bx, by) if un == 0 else (bx + bdx, by + bdy))
                    message = _contact(ea, edge[ib], x, positions)
            elif rx * ady - ry * adx:
                continue  # parallel, on distinct lines
            else:
                # closed boxes meet, so two pieces on one line share a point
                inter = segment_intersection((ax, ay), (ax + adx, ay + ady),
                                             (bx, by), (bx + bdx, by + bdy))
                if inter[0] == "overlap":
                    e1, e2 = (ea, edge[ib]) if ia < ib else (edge[ib], ea)
                    message = f"edges {e1} and {e2} overlap along a segment"
                else:
                    message = _contact(ea, edge[ib], inter[1], positions)  # an end of both
            if message is not None:
                key = ia * m + ib if ia < ib else ib * m + ia
                if fault is None or key < fault[0]:
                    fault = (key, message)
    if fault is not None:
        raise DocumentError(fault[1])
    return crossings


def _contact(e1, e2, x, positions):
    """The message for pieces of e1 and e2 whose one common point x is an
    end of one of them, or None where adjacent edges meet at their common
    vertex."""
    if e1 == e2:
        return f"edge {e1} intersects itself at {_exact(*x)}"
    a, b = e1
    common = a if a in e2 else b if b in e2 else None
    if common is not None and positions[common] == x:
        return None
    if e2 < e1:
        e1, e2 = e2, e1
    return f"edges {e1} and {e2} touch at {_exact(*x)} (tangential or bend contact)"


def _exact(x, y, d=1) -> str:
    """The point (x/d, y/d) as it appears in messages: exact coordinates
    written as integers or reduced fractions, e.g. (120/7, 30)."""
    return f"({Fraction(x, d)}, {Fraction(y, d)})"


class Geometry:
    """Planar coordinates of a geometric drawing, kept as the planarizer's
    integers.

    polylines  -- edge (u, v), u < v -> the integer points from u to v

    It holds the planarizer's own records and copies none of them: the
    vertex positions, the polylines, the sorted crossing records (node
    n + i is record i, whose point is the homogeneous (x, y, d) with
    d > 0, standing for (x/d, y/d)) and the crossings along each edge as
    the planarizer ordered them: ((piece index, position key), node).
    point and piece make Fractions only for the crossings they are asked
    about; a plain SVG reads neither, as _float_points gives the renderer
    node positions as floats.
    """

    def __init__(self, positions, polylines, crossings, along):
        self._positions = positions  # vertex id -> (x, y)
        self.polylines = polylines
        self._crossings = crossings  # planarizer records, in node order
        self._along = along          # edge -> [((piece index, key), node)]

    def point(self, node):
        """(x, y) of a node: a vertex's integer position, a crossing's
        exact Fraction point."""
        n = len(self._positions)
        if node < n:
            return self._positions[node]
        x, y, d = self._crossings[node - n][4]
        return (Fraction(x, d), Fraction(y, d))

    def piece(self, e, k) -> tuple:
        """The points of segment k of e's chain, from chain[k] to
        chain[k + 1]: the polyline points between its two nodes, and each
        crossing end as its exact point. A crossing lies inside a polyline
        piece, so no point repeats."""
        pts, hits = self.polylines[e], self._along[e]
        start = (self.point(hits[k - 1][1]),) if k else ()
        end = (self.point(hits[k][1]),) if k < len(hits) else ()
        i = hits[k - 1][0][0] + 1 if k else 0
        j = hits[k][0][0] + 1 if k < len(hits) else len(pts)
        return (*start, *pts[i:j], *end)

    def _float_points(self, nodes):
        """[(x, y)] of the given nodes in floats, equal to float() of their
        point() without building it: x / d is the correctly rounded
        quotient, as float(Fraction(x, d)) is."""
        positions, crossings = self._positions, self._crossings
        n = len(positions)
        out = []
        for node in nodes:
            if node < n:
                x, y = positions[node]
                out.append((float(x), float(y)))
            else:
                x, y, d = crossings[node - n][4]
                out.append((x / d, y / d))
        return out


def _build_rotations(positions, polylines, chains, crossings, slots):
    """Counterclockwise rotations from the +x axis: at a vertex, the first
    piece of each of its edges, sorted by angle, or put in the slot
    slots[v][w] of the straight route; at a crossing, its four chain
    neighbours, placed by the turn its record carries. Vertices come
    first, then crossings in ascending id."""
    darts = {v: [] for v in positions}
    n = len(darts)
    around = {x: [] for x in range(n, n + len(crossings))}
    for e in sorted(chains):  # a crossing's e1 before its e2
        ch = chains[e]
        u, v = e
        if slots is None:
            pts = polylines[e]
            darts[u].append((sub(pts[1], pts[0]), ch[1]))
            darts[v].append((sub(pts[-2], pts[-1]), ch[-2]))
        else:
            darts[u].append((slots[u][v], ch[1]))
            darts[v].append((slots[v][u], ch[-2]))
        for behind, x, ahead in zip(ch, ch[1:-1], ch[2:]):
            around[x] += (ahead, behind)
    if slots is None:
        rotations = {v: _angular_order(d) for v, d in darts.items()}
    else:
        rotations = {v: tuple(target for _, target in sorted(d)) for v, d in darts.items()}
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


def _angular_order(darts):
    """Targets of (direction, target) darts in counterclockwise order."""
    return tuple(target for _, target in sorted(darts, key=cmp_to_key(_ccw)))


# -- point location ---------------------------------------------------------

def locate_face(drawing, point) -> int:
    """Face of the geometric drawing containing the given point.

    The boundary of a bounded face winds once around each of its points
    and around no other point; that of the unbounded face winds minus once
    around every point outside it. One pass over the integer polyline
    pieces adds each piece's signed half-open crossing of the line
    y = point.y, right of the point, to the face on its left and
    subtracts it from the face on its right. The chain segment holding
    that crossing follows the crossings of the piece on its near side of
    the line. Only the query point is a Fraction. Raises CapabilityError
    without geometry, and ValueError for points on the drawing itself and
    for a point that is not two int or Fraction coordinates.
    """
    geo = drawing.geometry
    if geo is None:
        raise CapabilityError("point location needs a geometric drawing")
    try:
        x, y = point
    except (TypeError, ValueError):
        x = y = None
    if not {int, Fraction}.issuperset((type(x), type(y))):
        raise ValueError(f"point must be two int or Fraction coordinates, got {quoted(point)}")
    p = (Fraction(x), Fraction(y))
    yn, yd = p[1].numerator, p[1].denominator
    records, n = geo._crossings, len(geo._positions)
    faces = trace_faces(drawing)
    face_of, twin = faces.face_of, faces.twin

    def below(node):
        """Whether a crossing lies on or below the line y = point.y."""
        _, yc, d = records[node - n][4]
        return yc * yd <= yn * d

    winding = {}
    for e, pts in geo.polylines.items():
        for m, (a, b) in enumerate(zip(pts, pts[1:])):
            # the heights of a and b against point.y = yn / yd, in integers
            ay, by = a[1] * yd, b[1] * yd
            if (ay < yn and by < yn) or (ay > yn and by > yn):
                continue
            side = cross(a, b, p)
            if side == 0 and on_segment(p, a, b):
                raise ValueError(f"point ({quoted(x)}, {quoted(y)}) "
                                 f"lies on the drawing")
            if ay <= yn < by and side > 0:
                up = True
            elif by <= yn < ay and side < 0:
                up = False
            else:
                continue
            # the chain segment past the crossings behind the line: those
            # below it going up, above it going down
            k = sum(1 for (at, _), node in geo._along[e]
                    if at < m or at == m and below(node) == up)
            i = drawing.chain_darts[e][k]
            step = 1 if up else -1
            left, right = face_of[i], face_of[twin[i]]
            winding[left] = winding.get(left, 0) + step
            winding[right] = winding.get(right, 0) - step
    for face, count in winding.items():
        if count == 1:
            return face
    return outer_face(drawing)


@per_drawing
def outer_face(drawing) -> int:
    """Face id of the unbounded face of a geometric drawing (cached).

    At the lowest polyline point, the leftmost of several, nothing lies
    below and every piece leaving it points into [0, pi); the face in the
    gap around "straight down" is the unbounded one. A crossing is never
    that point: it lies inside two non-parallel pieces, and one of them
    dips below it. At a vertex the gap lies left of its last dart in ccw
    order. At a bend, the chain segment through it has the gap on its
    left exactly when the piece ahead turns further ccw than the one
    behind.
    """
    geo = drawing.geometry
    if geo is None:
        raise CapabilityError("the unbounded face needs a geometric drawing")
    faces = trace_faces(drawing)
    _, _, e, j = min((pt[1], pt[0], e, j) for e, pts in geo.polylines.items()
                     for j, pt in enumerate(pts))
    pts = geo.polylines[e]
    if j == 0 or j == len(pts) - 1:
        v = e[0] if j == 0 else e[1]
        return faces.face_of[faces.offset[v] + len(drawing.rotations[v]) - 1]
    back, ahead = sub(pts[j - 1], pts[j]), sub(pts[j + 1], pts[j])
    k = sum(1 for (at, _), _ in geo._along[e] if at < j)
    i = drawing.chain_darts[e][k]
    return faces.face_of[i] if angle_less(back, ahead) else faces.face_of[faces.twin[i]]
