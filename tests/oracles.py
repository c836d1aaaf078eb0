"""Independent test oracles.

Everything here recomputes expected values by a different route than the
library code under test: exact geometric predicates (winding numbers,
ccw counting) instead of combinatorial side sweeps, one flood fill per
triangle instead of the library's single parity labelling, one popcount
per edge instead of the packed pass over all edges at once, subdrawings
built by vertex deletion and profiled afresh instead of dropping one
witness bit from the labelling, a sweep over the dual graph with the
reference face split by a chord instead of reading edge sides off the
labelling, brute-force Fraction-only planarization that sorts the
directions at every node, crossings included, instead of integer keys and
the turn the crossing test records, rotations by one angle comparison per
crossing of pieces found along the segment paths, a Fraction ray caster
instead of the winding numbers of point location, closed-form integer formulas, plain
exhaustive enumeration of the shellability definitions instead of the
greedy deciders, one triangle side at a time through _right_of instead
of the packed separation masks of the bishell search, region tables
for every vertex at once instead of one vertex's on its first deletion, a goodness listing that sorts
every crossing's pair instead of counting the pairs, and the
combinatorial loader that built every set and traced faces by a
predecessor map instead of the counting loader and the tracer over
integer dart indices. The drawing primitives
(deletion, face maps, face tracing) are shared infrastructure; the logic
on top is written from scratch. The whole-drawing views the library
no longer builds (faces as (tail, head) darts, the exact points, the
segment paths and the canonical form) are built here from the same dart
arrays and planarizer records.
"""

import weakref
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from shellcert import kedges
from shellcert.drawing import (Drawing, child_drawing, edge_key, seg_key, trace_faces,
                               vertices_on_face)
from shellcert.errors import DocumentError, EmbeddingError, StructureError
from shellcert.geometry import angle_less, cross, direction_half, on_segment, sub
from shellcert.kedges import Orientation, cumulative_bound_check, k_edge_profile, max_k
from shellcert.planarize import outer_face


def harary_hill_closed_form(n: int) -> int:
    """Parity-split closed forms of the conjectured crossing number."""
    m = n // 2
    if n % 2 == 0:
        return m * (m - 1) ** 2 * (m - 2) // 4
    return (m * (m - 1) // 2) ** 2


def crossings_from_cumulated(n: int, cumulated) -> int:
    """cr(D) of a good drawing D of K_n, n >= 4, from the cumulated k-edge
    counts E_{<=<=k} = cumulated[k] of any one face, k <= m = n//2 - 2:
    2*sum(E_{<=<=k}) - C(n,2)*floor((n-2)/2)/2 - (1+(-1)^n)/2 * E_{<=<=m},
    the k-edge identity of good drawings (Abrego, Aichholzer,
    Fernandez-Merchant, Ramos, Salazar). C(n,2)*floor((n-2)/2) is even
    for every n."""
    m = n // 2 - 2
    last = cumulated[m] if n % 2 == 0 else 0
    return 2 * sum(cumulated[:m + 1]) - comb(n, 2) * ((n - 2) // 2) // 2 - last


# -- exact plane predicates ---------------------------------------------------

def ccw_sign(o, a, b) -> int:
    c = cross(o, a, b)
    return (c > 0) - (c < 0)


def polygon_area2(points):
    """Twice the signed area of a closed polygonal curve (cyclic points)."""
    total = 0
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        total += a[0] * b[1] - a[1] * b[0]
    return total


def winding_number(pt, points) -> int:
    """Winding number of the closed polygonal curve around pt.

    ``points`` is cyclic (last joins back to first). pt must not lie on
    the curve.
    """
    wn = 0
    y = pt[1]
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        if a == b:
            continue
        if a[1] <= y:
            if b[1] > y and cross(a, b, pt) > 0:
                wn += 1
        elif b[1] <= y and cross(a, b, pt) < 0:
            wn -= 1
    return wn


# -- whole-drawing views the library does not build ----------------------------
#
# The (tail, head) face views, the exact points and the segment paths, built
# from the traced dart arrays and the planarizer's records as the library
# built them on their first read before its readers went to the arrays and
# to Geometry.point and Geometry.piece. Each is built once per object.

def _once(build):
    built = weakref.WeakKeyDictionary()

    def cached(owner):
        value = built.get(owner)
        if value is None:
            value = built[owner] = build(owner)
        return value

    return cached


@_once
def face_views(faces):
    """The ReferenceFaces of a FaceSet: each face's walk as (tail, head)
    darts, and each dart's face, keys in face order and each face's darts
    in boundary order."""
    tails = faces.tails
    heads = list(map(tails.__getitem__, faces.twin))
    walks = tuple(tuple(zip(map(tails.__getitem__, walk), map(heads.__getitem__, walk)))
                  for walk in faces.walks)
    return ReferenceFaces(walks, {d: f for f, walk in enumerate(walks) for d in walk})


def walk_face_vertices(drawing, face) -> list:
    """The real vertices on the face, ascending, read off its walk: the
    tails of its (tail, head) darts that are vertices. The library reads
    them off each vertex's darts instead (drawing.face_vertex_table)."""
    walk = face_views(trace_faces(drawing)).faces[face]
    return sorted({tail for tail, _ in walk} & drawing.vertex_set)


def walk_face_vertex_table(drawing) -> list:
    """walk_face_vertices of every face, in face order."""
    return [walk_face_vertices(drawing, f) for f in trace_faces(drawing).face_ids()]


def path_darts(faces, path) -> list:
    """Numbers of the darts (path[0], path[1]), (path[1], path[2]), ...
    along a path of adjacent nodes, such as a chain or one segment."""
    offset, rot = faces.offset, faces.rotations
    return [offset[a] + rot[a].index(b) for a, b in zip(path, path[1:])]


@_once
def exact_points(geo):
    """Node id -> (x, y): a vertex's integer position, a crossing's exact
    Fraction point; vertices in id order, then crossings."""
    points = dict(sorted(geo._positions.items()))
    for node, rec in enumerate(geo._crossings, len(points)):
        x, y, d = rec[4]
        points[node] = (Fraction(x, d), Fraction(y, d))
    return points


@_once
def segment_paths(geo):
    """Dart along a chain -> tuple of the points of the polyline piece
    backing it, crossing ends as exact points."""
    points = exact_points(geo)
    paths = {}
    for e, pts in geo.polylines.items():
        hits = geo._along[e]
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


def segment_path(geo, a, b):
    """The points of the piece backing dart (a, b), in either direction."""
    paths = segment_paths(geo)
    path = paths.get((a, b))
    if path is not None:
        return path
    return tuple(reversed(paths[(b, a)]))


def canonical_form(drawing):
    """Hashable summary for equality of labeled planarized graphs.

    Rotations are compared as cyclic sequences (rotated so the smallest
    neighbour comes first); chain direction is fixed by the edge key.
    """
    rots = {}
    for x, rot in drawing.rotations.items():
        i = rot.index(min(rot))
        rots[x] = rot[i:] + rot[:i]
    return (
        drawing.vertices,
        tuple(sorted((c, tuple(sorted(p))) for c, p in drawing.crossings.items())),
        tuple(sorted(rots.items())),
        tuple(sorted(drawing.chains.items())),
    )


# -- orientation and k-values ---------------------------------------------------

def triangle_polygon(drawing, u, v, w):
    """Closed polyline of the curve u -> v -> w -> u from the edge geometry."""
    points = []
    for a, b in ((u, v), (v, w), (w, u)):
        e = edge_key(a, b)
        poly = drawing.geometry.polylines[e]
        if a != e[0]:
            poly = tuple(reversed(poly))
        points.extend(poly[:-1])
    return points


def winding_orientation(drawing, point, u, v, w) -> Orientation:
    """Geometric orientation oracle: the triangle through u -> v -> w -> u is
    + iff `point` (a reference point of the face) lies in its left part.

    For a simple closed curve the left part is the interior iff the curve
    runs counterclockwise, so: winding +1 means left; winding 0 means left
    exactly when the curve is clockwise (negative signed area).
    """
    poly = triangle_polygon(drawing, u, v, w)
    wn = winding_number(point, poly)
    if wn == 1:
        return Orientation.PLUS
    if wn == -1:
        return Orientation.MINUS
    assert wn == 0, f"winding {wn} on a simple curve"
    return Orientation.PLUS if polygon_area2(poly) < 0 else Orientation.MINUS


def flipped(orientation: Orientation) -> Orientation:
    """The opposite orientation."""
    return Orientation.MINUS if orientation is Orientation.PLUS else Orientation.PLUS


def far_point(drawing):
    """A point guaranteed to lie in the unbounded face."""
    pts = [p for path in segment_paths(drawing.geometry).values() for p in path]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1)
    return (max(xs) + span + 7, max(ys) + 2 * span + 13)


def flood_fill_left_faces(drawing, faces, a, b, c) -> frozenset:
    """Faces left of the traversal a -> b -> c -> a, for a < b < c: one
    sweep over face adjacencies from the face left of the first segment of
    ab, flipping sides exactly when stepping across the triangle curve."""
    curve = set()
    for e in ((a, b), (b, c), (a, c)):
        ch = drawing.chains[e]
        curve.update(seg_key(x, y) for x, y in zip(ch, ch[1:]))
    views = face_views(faces)
    start = views.dart_face[(a, drawing.chains[(a, b)][1])]
    side = {start: 0}
    queue = [start]
    while queue:
        f = queue.pop()
        for x, y in views.faces[f]:
            g = views.dart_face[(y, x)]
            flipped = side[f] ^ (seg_key(x, y) in curve)
            if g not in side:
                side[g] = flipped
                queue.append(g)
            assert side[g] == flipped, f"inconsistent sides for {(a, b, c)}"
    assert len(side) == len(views.faces), "face adjacency is disconnected"
    return frozenset(f for f, s in side.items() if s == 0)


def flood_fill_triangles(drawing, faces) -> dict:
    """flood_fill_left_faces for every sorted vertex triple."""
    return {t: flood_fill_left_faces(drawing, faces, *t)
            for t in combinations(drawing.vertices, 3)}


def flood_fill_k_values(drawing, ref_face, left_faces) -> dict:
    """k-values for the reference face from flood_fill_triangles' sets."""
    k_values = {}
    for u, v in drawing.edges():
        plus = 0
        for w in drawing.vertices:
            if w in (u, v):
                continue
            a, b, c = sorted((u, v, w))
            forward = (u, v, w) in ((a, b, c), (b, c, a), (c, a, b))
            plus += (ref_face in left_faces[a, b, c]) == forward
        k_values[(u, v)] = min(plus, drawing.n - 2 - plus)
    return k_values


def sweep_labels(lab) -> list:
    """The label of every face, replayed from the sweep the labelling
    records: face 0's label is 0, and any other face's is its sweep
    parent's with the bits i*n + j and j*n + i of the edge v_i v_j crossed
    between them flipped. kedges keeps no label; these feed
    reference_k_values."""
    n = len(lab.index)
    ends = [(i, j) for i, j, _, _ in lab.edges.values()]
    labels = [None] * len(lab.parent)
    labels[0] = 0
    for f in range(len(labels)):
        path = []
        g = f
        while labels[g] is None:
            path.append(g)
            g = lab.parent[g]
            assert len(path) <= len(labels), "the sweep has a cycle"
        for g in reversed(path):
            i, j = ends[lab.crossed[g]]
            labels[g] = labels[lab.parent[g]] ^ (1 << (i * n + j)) ^ (1 << (j * n + i))
    return labels


def reference_k_values(lab, pf, n, deleted=None) -> dict:
    """The labelling's k-values for the face labelled pf, one edge at a
    time: the witnesses of v_i v_j are the bits of one XOR of rows i and j
    of the label, counted by int.bit_count (the loop the packed pass of
    kedges._k_values replaced)."""
    full = (1 << n) - 1
    rows = [(pf >> (i * n)) & full for i in range(n)]
    keep, top = full, n - 2
    if deleted is not None:
        keep, top = full ^ (1 << deleted), n - 3
    k_values = {}
    for e, (i, j, rel, mask) in lab.edges.items():
        if deleted in (i, j):
            continue
        minus = ((rows[i] ^ rows[j] ^ rel) & mask & keep).bit_count()
        k_values[e] = min(minus, top - minus)
    return k_values


def reference_profile(drawing, face, kmax=None) -> dict:
    """One profile of an analyze report as a dict, built for the face from
    k_edge_profile and cumulative_bound_check, as the report's profiles
    were built before they were written as text; kmax is the --kmax option
    (None if not given)."""
    prof = k_edge_profile(drawing, face)
    if kmax is None:
        # a drawing on 3 vertices has no bound levels, so no rows by default
        kmax = max_k(drawing.n) - 1
        rows = () if kmax < 0 else cumulative_bound_check(drawing, face, kmax)
    else:
        rows = cumulative_bound_check(drawing, face, kmax)
    return {
        "face": face,
        "face_vertices": walk_face_vertices(drawing, face),
        "k_values": {f"{u}-{v}": k for (u, v), k in prof.k_values.items()},
        "counts": list(prof.counts),
        "cumulated": list(prof.cumulated),
        "bounds": [{"k": r.k, "cumulated": r.cumulated,
                    "threshold": r.threshold, "pass": r.ok} for r in rows],
    }


def reference_cumulated(k_values, levels):
    """Level counts and cumulated counts by the defining double sum."""
    counts = [0] * levels
    for k in k_values:
        counts[k] += 1
    return tuple(counts), tuple(sum((k + 1 - i) * counts[i] for i in range(k + 1))
                                for k in range(levels))


def ccw_k_value(drawing, u, v) -> int:
    """Closed form for straight-line drawings with the unbounded reference
    face: count witnesses on either side of the supporting line."""
    pos = exact_points(drawing.geometry)
    left = sum(1 for w in drawing.vertices
               if w not in (u, v) and ccw_sign(pos[u], pos[v], pos[w]) > 0)
    return min(left, drawing.n - 2 - left)


# -- deletion through subdrawings ---------------------------------------------

def child_drawing_report(drawing, face, v):
    """What invariant_edges must report, by building the subdrawing without
    v and profiling its face that contains `face`: (flags, parent_k,
    child_k, cumulated), with parent_k and child_k over the child's edges.
    Also asserts the drop-by-at-most-one law on this route."""
    child, _, face_map = child_drawing(drawing, v)
    before = k_edge_profile(drawing, face).k_values
    after = k_edge_profile(child, face_map[face]).k_values
    parent_k = {e: before[e] for e in child.edges()}
    child_k = {e: after[e] for e in child.edges()}
    for e in child_k:
        assert child_k[e] in (parent_k[e], parent_k[e] - 1), (e, v)
    flags = {e: child_k[e] == parent_k[e] for e in child_k}
    cumulated = tuple(sum(1 for e in flags if flags[e] and parent_k[e] <= k)
                      for k in range(drawing.n // 2))
    return flags, parent_k, child_k, cumulated


def split_face_side_partition(drawing, faces, ref_face, u, v):
    """Vertices on the side of the curve (edge uv closed by a chord through
    the reference face) that holds the part of the face from u's first
    boundary visit to v's: one sweep over face adjacencies in which the
    reference face is split in two by the chord, flipping sides across the
    chord and across segments of uv."""
    dart_face = face_views(faces).dart_face
    boundary = face_views(faces).faces[ref_face]
    pos = {}
    for i, dart in enumerate(boundary):
        pos.setdefault(dart, i)
    first_at = {}
    for i, (tail, _) in enumerate(boundary):
        first_at.setdefault(tail, i)
    if u not in first_at or v not in first_at:
        raise ValueError("both endpoints must lie on the reference face")
    iu, iv, m = first_at[u], first_at[v], len(boundary)

    def node_for(face, dart):
        if face != ref_face:
            return face
        # darts from u's first visit up to v's first visit form half 1
        return ("split", 1 if (pos[dart] - iu) % m < (iv - iu) % m else 2)

    ch = drawing.chains[edge_key(u, v)]
    curve = {seg_key(a, b) for a, b in zip(ch, ch[1:])}
    adjacency = {}
    for s in drawing.segment_edge:
        n1 = node_for(dart_face[s], s)
        n2 = node_for(dart_face[(s[1], s[0])], (s[1], s[0]))
        adjacency.setdefault(n1, []).append((n2, s in curve))
        adjacency.setdefault(n2, []).append((n1, s in curve))
    adjacency.setdefault(("split", 1), []).append((("split", 2), True))
    adjacency.setdefault(("split", 2), []).append((("split", 1), True))

    side = {("split", 1): 0}
    queue = [("split", 1)]
    while queue:
        x = queue.pop()
        for y, flip in adjacency[x]:
            if y not in side:
                side[y] = side[x] ^ flip
                queue.append(y)
            assert side[y] == side[x] ^ flip, "inconsistent sides"

    out = set()
    for w in drawing.vertices:
        if w in (u, v):
            continue
        seen = {side[node_for(dart_face[(w, x)], (w, x))]
                for x in drawing.rotations[w]}
        assert len(seen) == 1, f"vertex {w} touches both sides of the curve"
        if seen == {0}:
            out.add(w)
    return frozenset(out)


# -- angular order by comparison ---------------------------------------------

def sort_by_angle(items, key):
    """Sort items by the counterclockwise angle of key(item), comparing
    directions by half-plane and then by exact cross product; the
    reference for the planarizer's rotations.

    Raises ValueError if two items share a direction (degenerate input).
    """
    def cmp_key(item):
        v = key(item)
        return (direction_half(v), _slope_key(v))

    out = sorted(items, key=cmp_key)
    for first, second in zip(out, out[1:]):
        va, vb = key(first), key(second)
        if direction_half(va) == direction_half(vb) and va[0] * vb[1] - va[1] * vb[0] == 0:
            raise ValueError("two directions coincide")
    return out


def comparison_rotations(drawing):
    """The rotation of every node of a geometric drawing by comparing the
    directions of polyline pieces: at a vertex, the first pieces of its
    edges sorted by sort_by_angle; at a crossing, the piece of each edge
    through it turned into [0, pi) (sub, direction_half), the two ordered
    by one angle_less, and their reverses after them in the same order.
    A crossing's piece runs from the last polyline point before it to the
    first one after it along the chain's segment paths. Vertices first,
    then crossings in ascending id."""
    geo = drawing.geometry
    darts = {v: [] for v in range(drawing.n)}
    through = {}
    for e, chain in drawing.chains.items():
        pts = geo.polylines[e]
        darts[e[0]].append((sub(pts[1], pts[0]), chain[1]))
        darts[e[1]].append((sub(pts[-2], pts[-1]), chain[-2]))
        # a path's inner points are bends; its ends are nodes
        paths = [segment_path(geo, a, b) for a, b in zip(chain, chain[1:])]
        starts, start = [], pts[0]
        for path in paths[:-1]:
            start = path[-2] if len(path) > 2 else start
            starts.append(start)
        ends, end = [], pts[-1]
        for path in reversed(paths[1:]):
            end = path[1] if len(path) > 2 else end
            ends.append(end)
        for behind, x, ahead, p, q in zip(chain, chain[1:-1], chain[2:], starts, ends[::-1]):
            d = sub(q, p)
            if direction_half(d):
                d, ahead, behind = (-d[0], -d[1]), behind, ahead
            through.setdefault(x, []).append((d, ahead, behind))
    rotations = {v: tuple(t for _, t in sort_by_angle(around, key=lambda dart: dart[0]))
                 for v, around in darts.items()}
    for x, ((d1, a1, b1), (d2, a2, b2)) in sorted(through.items()):
        rotations[x] = (a1, a2, b1, b2) if angle_less(d1, d2) else (a2, a1, b2, b1)
    return rotations


class _slope_key:
    """Orders directions within one half-plane by exact cross product."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        a, b = self.v, other.v
        return a[0] * b[1] - a[1] * b[0] > 0

    def __eq__(self, other):
        a, b = self.v, other.v
        return a[0] * b[1] - a[1] * b[0] == 0


# -- point location by ray casting --------------------------------------------

def reference_locate_face(drawing, point) -> int:
    """Face of a geometric drawing containing point, read off the side of
    the nearest piece hit by a ray in a generic direction; the reference
    for locate_face. Raises ValueError for points on the drawing."""
    geo = drawing.geometry
    p = (Fraction(point[0]), Fraction(point[1]))
    faces = trace_faces(drawing)

    pieces = []
    for dart, path in segment_paths(geo).items():
        for a, b in zip(path, path[1:]):
            pieces.append((dart, a, b))
    for _, a, b in pieces:
        if on_segment(p, a, b):
            raise ValueError(f"point {point} lies on the drawing")

    hit = _nearest_hit(p, _generic_direction(p, geo), pieces)
    if hit is None:
        return outer_face(drawing)
    dart, a, b = hit
    if cross(a, b, p) > 0:
        return face_views(faces).dart_face[dart]
    return face_views(faces).dart_face[(dart[1], dart[0])]


def _generic_direction(p, geo):
    """A ray direction from p passing through no polyline point."""
    points = set()
    for path in segment_paths(geo).values():
        points.update(path)
    for k in range(len(points) * 2 + 2):
        d = (1, 1 + k * 2)
        ok = True
        for q in points:
            rel = (q[0] - p[0], q[1] - p[1])
            if rel[0] * d[1] - rel[1] * d[0] == 0 and (rel[0] * d[0] + rel[1] * d[1]) > 0:
                ok = False
                break
        if ok:
            return d
    raise ValueError("no generic ray direction found")


def _nearest_hit(p, direction, pieces):
    """Nearest piece crossed by the open ray p + t*direction, t > 0."""
    best_t = None
    best = None
    dx, dy = direction
    for dart, a, b in pieces:
        ex, ey = b[0] - a[0], b[1] - a[1]
        denom = dx * ey - dy * ex
        if denom == 0:
            continue  # parallel; collinear pieces were excluded by direction choice
        apx, apy = a[0] - p[0], a[1] - p[1]
        t = Fraction(apx * ey - apy * ex, denom)
        s = Fraction(apx * dy - apy * dx, denom)
        if t <= 0 or not 0 < s < 1:
            continue
        if best_t is None or t < best_t:
            best_t = t
            best = (dart, a, b)
    return best


# -- brute-force planarization ------------------------------------------------

def fraction_intersection(p, q, r, s):
    """Common points of the closed segments pq and rs, all in Fractions:
    None, ("point", X), or ("overlap", {A, B}) with the overlap's ends."""
    p, q, r, s = ((Fraction(a[0]), Fraction(a[1])) for a in (p, q, r, s))
    d1 = (q[0] - p[0], q[1] - p[1])
    d2 = (s[0] - r[0], s[1] - r[1])
    rp = (r[0] - p[0], r[1] - p[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom != 0:
        t = (rp[0] * d2[1] - rp[1] * d2[0]) / denom
        u = (rp[0] * d1[1] - rp[1] * d1[0]) / denom
        if 0 <= t <= 1 and 0 <= u <= 1:
            return ("point", (p[0] + t * d1[0], p[1] + t * d1[1]))
        return None
    if rp[0] * d1[1] - rp[1] * d1[0] != 0:
        return None  # parallel lines
    # one line: intersect the two intervals along an axis the line is not
    # constant on, which orders its points
    axis = 0 if d1[0] != 0 else 1
    lo = max(min(p, q, key=lambda a: a[axis]), min(r, s, key=lambda a: a[axis]),
             key=lambda a: a[axis])
    hi = min(max(p, q, key=lambda a: a[axis]), max(r, s, key=lambda a: a[axis]),
             key=lambda a: a[axis])
    if lo[axis] > hi[axis]:
        return None
    if lo == hi:
        return ("point", lo)
    return ("overlap", {lo, hi})


def _fraction_on_segment(x, a, b):
    if (b[0] - a[0]) * (x[1] - a[1]) != (b[1] - a[1]) * (x[0] - a[0]):
        return False
    return (min(a[0], b[0]) <= x[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= x[1] <= max(a[1], b[1]))


def _point(x):
    return f"({x[0]}, {x[1]})"


def reference_planarization(positions, polylines):
    """What planarize must decide, by brute force: every pair of pieces,
    Fraction-only intersections and a scan of every vertex against every
    piece, with planarize's checks in planarize's order.

    positions: vertex -> point, in document order; polylines: edge ->
    points, in document order. Returns ("error", message) for the first
    degeneracy, else ("ok", sorted [(edge pair, crossing point)]).
    """
    outcome = _reference(positions, polylines)
    if outcome[0] == "error":
        return outcome
    return ("ok", sorted((edges, x) for edges, x, _ in outcome[1]))


def reference_drawing(n, positions, polylines):
    """The drawing planarize must build, from the brute-force crossings:
    crossing nodes numbered from n by edge pair and then by position along
    the first edge, chains in Fraction distance order, and rotations
    sorted by comparing directions (sort_by_angle).

    Returns ("error", message) as reference_planarization does, else
    ("ok", Drawing without geometry, {crossing node: Fraction point}).
    """
    outcome = _reference(positions, polylines)
    if outcome[0] == "error":
        return outcome
    _, crossings, along = outcome
    order = sorted(range(len(crossings)), key=lambda k: (
        crossings[k][0], along(crossings[k][0][0], k)))
    node = {k: n + rank for rank, k in enumerate(order)}
    chains = {}
    for e in polylines:
        hits = sorted((along(e, k), node[k])
                      for k, (edges, _, _) in enumerate(crossings) if e in edges)
        chains[e] = (e[0], *(x for _, x in hits), e[1])

    darts = {v: [] for v in positions}
    darts.update((node[k], []) for k in range(len(crossings)))
    for e, chain in chains.items():
        pts = polylines[e]
        darts[e[0]].append((pts[1][0] - pts[0][0], pts[1][1] - pts[0][1], chain[1]))
        darts[e[1]].append((pts[-2][0] - pts[-1][0], pts[-2][1] - pts[-1][1], chain[-2]))
        for j in range(1, len(chain) - 1):
            i = crossings[order[chain[j] - n]][2][e]
            dx, dy = pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1]
            darts[chain[j]] += [(dx, dy, chain[j + 1]), (-dx, -dy, chain[j - 1])]
    rotations = {x: [t for _, _, t in sort_by_angle(around, key=lambda d: d[:2])]
                 for x, around in darts.items()}
    drawing = Drawing(range(n), {node[k]: edges for k, (edges, _, _) in enumerate(crossings)},
                      rotations, chains)
    return ("ok", drawing, {node[k]: x for k, (_, x, _) in enumerate(crossings)})


def reference_faulty_pairs(positions, polylines):
    """The pairs (i, j), i < j, of pieces whose contact is a fault, pieces
    numbered as planarize numbers them: by edge, then along it."""
    pieces = [(e, i, p, q) for e in sorted(polylines)
              for i, (p, q) in enumerate(zip(polylines[e], polylines[e][1:]))]
    return [(i, j) for (i, first), (j, second) in combinations(enumerate(pieces), 2)
            if (contact := _contact(positions, first, second)) and contact[0] == "error"]


def _contact(positions, first, second):
    """How the pieces (e1, i1, p, q) and (e2, i2, r, s), first before
    second in planarize's order, meet: None for not at all or at a joint
    or common vertex, ("crossing", point), or ("error", message)."""
    (e1, i1, p, q), (e2, i2, r, s) = first, second
    hit = fraction_intersection(p, q, r, s)
    if hit is None:
        return None
    if hit[0] == "overlap":
        return ("error", f"edges {e1} and {e2} overlap along a segment")
    x = hit[1]
    ends1, ends2 = {_at(p), _at(q)}, {_at(r), _at(s)}
    if e1 == e2:
        if abs(i1 - i2) == 1 and x in ends1 and x in ends2:
            return None
        return ("error", f"edge {e1} intersects itself at {_point(x)}")
    if x in ends1 or x in ends2:
        if any(_at(positions[v]) == x for v in set(e1) & set(e2)):
            return None
        return ("error", f"edges {e1} and {e2} touch at {_point(x)} "
                         f"(tangential or bend contact)")
    return ("crossing", x)


def _at(x):
    return (Fraction(x[0]), Fraction(x[1]))


def _reference(positions, polylines):
    """("error", message), or ("ok", crossings, along): crossings as
    [(edge pair, point, {edge: piece index})] in pair order, and
    along(e, k) ordering the crossings of edge e along its polyline."""
    if len(set(positions.values())) != len(positions):
        return ("error", "two vertices share a position")
    pieces = []
    for e in sorted(polylines):
        pts = polylines[e]
        for i in range(len(pts) - 1):
            if pts[i] == pts[i + 1]:
                return ("error", f"edge {e} repeats consecutive polyline points")
            pieces.append((e, i, pts[i], pts[i + 1]))

    crossings = []  # (edge pair, point, {edge: piece index}), in pair order
    for first, second in combinations(pieces, 2):
        contact = _contact(positions, first, second)
        if contact is None:
            continue
        if contact[0] == "error":
            return contact
        (e1, i1, *_), (e2, i2, *_) = first, second
        crossings.append((tuple(sorted((e1, e2))), contact[1], {e1: i1, e2: i2}))

    for e, _, p, q in pieces:
        for v, pos in positions.items():
            if v not in e and _fraction_on_segment(_at(pos), _at(p), _at(q)):
                return ("error", f"edge {e} passes through vertex {v}")

    at_point = {}
    for edges, x, _ in crossings:
        at_point.setdefault(x, []).append(edges)
    for x, pairs in at_point.items():
        if len(pairs) > 1:
            involved = sorted({e for pair in pairs for e in pair})
            return ("error", f"three curves concurrent at {_point(x)}: "
                             f"edges {involved}")

    # Chains: each edge's crossings in order along its polyline. The order
    # within a piece is the distance from the piece's start.
    def along(e, k):
        _, x, where = crossings[k]
        start = _at(polylines[e][where[e]])
        return (where[e], abs(x[0] - start[0]) + abs(x[1] - start[1]))

    seen = {}
    for e in polylines:
        hits = sorted((along(e, k), k)
                      for k, (edges, _, _) in enumerate(crossings) if e in edges)
        chain = [("v", e[0])] + [("x", k) for _, k in hits] + [("v", e[1])]
        for a, b in zip(chain, chain[1:]):
            key = frozenset((a, b))
            if key in seen:
                return ("error",
                        f"edges {seen[key]} and {e} run side by side between "
                        f"the same two nodes; this contact pattern (adjacent "
                        f"edges crossing, or a pair crossing twice "
                        f"consecutively) has no simple planarization and is "
                        f"not representable")
            seen[key] = e
    return ("ok", crossings, along)


# -- exhaustive shellability oracles ----------------------------------------

def surviving_face_vertices(drawing, face, deletions):
    """Vertices incident to the face containing `face` after the listed
    deletions; once only three vertices remain, every one of them counts."""
    d, f = drawing, face
    for i, v in enumerate(deletions):
        if d.n == 3:
            return d.vertex_set - set(deletions[i:])
        d, faces, face_map = child_drawing(d, v)
        f = face_map[f]
    if d.n == 3:
        return d.vertex_set
    return vertices_on_face(d, f)


def bounds_region(drawing, face, deletions):
    """The vertices outside the deletions that the triangle criterion
    admits for the face containing `face` once the deletions are gone: w
    is admitted iff no triangle uvx with u, v and x outside the deletions
    and other than w has w and the face on different sides. Each triangle
    is tested on its own through kedges._right_of; w's side is that of the
    face left of its first dart, and every word comes from one
    kedges._face_words call."""
    lab = kedges._labelling(drawing)
    faces = trace_faces(drawing)
    corners = [faces.face_of[faces.offset[w]] for w in drawing.vertices]
    word, *corner_words = kedges._face_words(lab, [face, *corners])
    left = [v for v in drawing.vertices if v not in deletions]
    face_side = {(u, v): kedges._right_of(lab, word, u, v) for u, v in combinations(left, 2)}
    admitted = set()
    for w, corner in zip(drawing.vertices, corner_words):
        if w in deletions:
            continue
        others = [v for v in left if v != w]
        if not any((face_side[u, v] ^ kedges._right_of(lab, corner, u, v)) >> lab.index[x] & 1
                   for u, v in combinations(others, 2) for x in others if x not in (u, v)):
            admitted.add(w)
    return admitted


def merged_faces(drawing, face, deletions):
    """The root faces that the face maps of child_drawing, composed over
    the listed deletions, send where they send `face`: those that merge
    into the face containing it. At least three vertices must remain."""
    images = list(trace_faces(drawing).face_ids())
    d = drawing
    for v in deletions:
        d, _, face_map = child_drawing(d, v)
        images = [face_map[g] for g in images]
    return {f for f, g in enumerate(images) if g == images[face]}


def deletion_chain_ok(drawing, face, seq) -> bool:
    """Each member incident to the face containing `face` at its turn."""
    return all(seq[i] in surviving_face_vertices(drawing, face, seq[:i])
               for i in range(len(seq)))


def smallest_simple_sequence(drawing, face, prefix, owner, length, banned):
    """The lexicographically smallest simple sequence of `owner`, of the
    given length, avoiding `banned`, inside the drawing after deleting
    `prefix`, by trying every permutation in order; None if there is none."""
    pool = [u for u in drawing.vertices
            if u != owner and u not in banned and u not in prefix]
    for cand in permutations(pool, length):
        if all(cand[j] in surviving_face_vertices(drawing, face, prefix + cand[:j])
               for j in range(length)):
            return cand
    return None


def has_simple_sequence(drawing, face, prefix, owner, length, banned) -> bool:
    """Exhaustively test for a simple sequence of `owner`, of the given
    length, avoiding `banned`, inside the drawing after deleting `prefix`."""
    return smallest_simple_sequence(drawing, face, prefix, owner, length, banned) is not None


def naive_seq_shellable(drawing, k, face=None) -> bool:
    """Brute force over faces, vertex tuples, and simple-sequence tuples."""
    faces = trace_faces(drawing)
    face_ids = faces.face_ids() if face is None else (face,)
    for f in face_ids:
        for a_seq in permutations(drawing.vertices, k + 1):
            if not deletion_chain_ok(drawing, f, a_seq):
                continue
            if all(has_simple_sequence(drawing, f, a_seq[:i], a_seq[i],
                                       k - i + 1, set(a_seq[:i + 1]))
                   for i in range(k + 1)):
                return True
    return False


def naive_bishellable(drawing, s, face=None) -> bool:
    """Brute force over faces and all pairs of deletion sequences."""
    faces = trace_faces(drawing)
    face_ids = faces.face_ids() if face is None else (face,)
    for f in face_ids:
        valid = [seq for seq in permutations(drawing.vertices, s + 1)
                 if deletion_chain_ok(drawing, f, seq)]
        for a_seq in valid:
            for b_seq in valid:
                if all(a_seq[i] != b_seq[j]
                       for i in range(s + 1) for j in range(s + 1) if i + j <= s):
                    return True
    return False


def reference_goodness_violations(drawing):
    """The goodness violations, listed for every crossing: (condition,
    edge pair) sorted, as validate_goodness reports them."""
    violations = []
    pair_counts = {}
    for pair in drawing.crossings.values():
        e, f = sorted(pair)
        pair_counts[(e, f)] = pair_counts.get((e, f), 0) + 1
        if set(e) & set(f):
            violations.append((5, (e, f)))
    for (e, f), cnt in sorted(pair_counts.items()):
        if cnt > 1:
            violations.append((4, (e, f)))
    return tuple(sorted(violations))


# -- the combinatorial load path before it counted --------------------------
#
# The loader, Drawing's structural check and face tracing as they stood
# before the loader formatted messages only on failure, the check counted
# instead of building adjacency sets, and tracing walked a successor map.
# Kept verbatim as the reference for rejection messages, faces and face ids.

def _reference_require(cond, msg):
    if not cond:
        raise DocumentError(msg)


def reference_load_combinatorial(document):
    """Load a combinatorial document with a valid header the old way.

    Returns (drawing, faces); the drawing has the attributes
    canonical_form reads, and faces is a ReferenceFaces.
    """
    _require = _reference_require
    _is_int = _reference_is_int
    n = document["n"]
    allowed = {"format", "version", "mode", "n", "rotation_order",
               "nodes", "rotations", "chains"}
    extra = set(document) - allowed
    _require(not extra, f"unknown keys {sorted(extra)} in combinatorial document")
    _require(document.get("rotation_order") == "ccw",
             'combinatorial documents must declare "rotation_order": "ccw"')

    nodes = document.get("nodes")
    _require(isinstance(nodes, list), '"nodes" must be a list')
    vertex_ids = set()
    crossings = {}
    for item in nodes:
        _require(isinstance(item, dict) and item.get("kind") in ("vertex", "crossing"),
                 'each node needs "kind": "vertex" or "crossing"')
        nid = item.get("id")
        _require(_is_int(nid) and nid >= 0, f"node id {nid!r} must be a nonnegative integer")
        _require(nid not in vertex_ids and nid not in crossings, f"node id {nid} repeated")
        if item["kind"] == "vertex":
            _require(set(item) == {"id", "kind"}, f"vertex node {nid}: unknown keys")
            vertex_ids.add(nid)
        else:
            _require(set(item) == {"id", "kind", "edges"},
                     f"crossing node {nid} needs exactly id, kind, edges")
            pair = item["edges"]
            _require(isinstance(pair, list) and len(pair) == 2,
                     f"crossing {nid}: edges must list the two crossing edges")
            edges = []
            for uv in pair:
                _require(isinstance(uv, list) and len(uv) == 2
                         and _is_int(uv[0]) and _is_int(uv[1]) and uv[0] != uv[1],
                         f"crossing {nid}: bad edge {uv!r}")
                edges.append(edge_key(uv[0], uv[1]))
            _require(edges[0] != edges[1], f"crossing {nid}: edges must differ")
            crossings[nid] = frozenset(edges)
    _require(vertex_ids == set(range(n)), "vertex nodes must be exactly 0..n-1")

    raw_rot = document.get("rotations")
    _require(isinstance(raw_rot, dict), '"rotations" must map node ids to dart lists')
    rotations = {}
    for key, lst in raw_rot.items():
        nid = _reference_parse_int_key(key, "rotation")
        _require(isinstance(lst, list) and all(_is_int(x) for x in lst),
                 f"rotation at {nid} must be a list of node ids")
        _require(nid not in rotations, f"rotation at {nid} repeated")
        rotations[nid] = tuple(lst)

    raw_chains = document.get("chains")
    _require(isinstance(raw_chains, dict), '"chains" must map "u-v" to node sequences')
    chains = {}
    for key, lst in raw_chains.items():
        e = _reference_parse_edge_key(key)
        _require(e not in chains, f"chain {key} repeated")
        _require(isinstance(lst, list) and all(_is_int(x) for x in lst),
                 f"chain {key} must be a list of node ids")
        chains[e] = tuple(lst)

    try:
        drawing = ReferenceDrawing(range(n), crossings, rotations, chains)
    except Exception as exc:
        raise DocumentError(str(exc)) from None
    return drawing, reference_trace(drawing)


def _reference_is_int(x) -> bool:
    return type(x) is int


def _reference_parse_int_key(key, what) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise DocumentError(f"{what} key {key!r} is not a node id") from None


def _reference_parse_edge_key(key):
    parts = str(key).split("-")
    if len(parts) == 2:
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            u = v = None
        if u is not None and u != v:
            return edge_key(u, v)
    raise DocumentError(f'chain key {key!r} must look like "u-v"')


class ReferenceDrawing:
    """Drawing's constructor and structural check, building every set."""

    def __init__(self, vertices, crossings, rotations, chains):
        self.vertices = tuple(sorted(vertices))
        self.vertex_set = frozenset(self.vertices)
        self.crossings = {c: frozenset(map(tuple, pair)) for c, pair in crossings.items()}
        self.rotations = {x: tuple(rot) for x, rot in rotations.items()}
        self.chains = {edge_key(*e): tuple(ch) for e, ch in chains.items()}
        self.segment_edge = self._validate()

    @property
    def n(self) -> int:
        return len(self.vertices)

    def _validate(self):
        if self.n < 3:
            raise StructureError("a drawing needs at least 3 vertices")
        verts = self.vertices
        # the count comes first: the set of all pairs is quadratic in n
        if (len(self.chains) != self.n * (self.n - 1) // 2
                or set(self.chains) != {(u, v) for i, u in enumerate(verts)
                                        for v in verts[i + 1:]}):
            raise StructureError("chains must cover every vertex pair exactly once")
        if self.vertex_set & set(self.crossings):
            raise StructureError("crossing ids overlap vertex ids")

        seg_edge = {}
        uses = {c: [] for c in self.crossings}
        for e, ch in self.chains.items():
            if ch[0] != e[0] or ch[-1] != e[1]:
                raise StructureError(f"chain of {e} must run from {e[0]} to {e[1]}")
            if len(set(ch)) != len(ch):
                raise StructureError(f"chain of {e} revisits a node")
            for c in ch[1:-1]:
                pair = self.crossings.get(c)
                if pair is None:
                    raise StructureError(f"chain of {e} passes through unknown node {c}")
                if e not in pair:
                    raise StructureError(f"crossing {c} does not involve edge {e}")
                uses[c].append(e)
            for a, b in zip(ch, ch[1:]):
                s = seg_key(a, b)
                if s in seg_edge:
                    raise StructureError(f"segment {s} appears in two chains")
                seg_edge[s] = e

        for c, pair in self.crossings.items():
            if len(pair) != 2:
                raise StructureError(f"crossing {c} must join exactly two edges")
            if sorted(uses[c]) != sorted(pair):
                raise StructureError(f"crossing {c} must lie on exactly its two edges")

        adjacency = {x: set() for x in list(self.vertices) + list(self.crossings)}
        for a, b in seg_edge:
            adjacency[a].add(b)
            adjacency[b].add(a)
        if set(self.rotations) != set(adjacency):
            raise StructureError("rotations must list every node exactly once")
        for x, rot in self.rotations.items():
            if len(rot) != len(set(rot)) or set(rot) != adjacency[x]:
                raise StructureError(f"rotation at {x} does not match incident segments")
            if x in self.crossings:
                if len(rot) != 4:
                    raise StructureError(f"crossing {x} must have degree 4")
                e0 = seg_edge[seg_key(x, rot[0])]
                e1 = seg_edge[seg_key(x, rot[1])]
                e2 = seg_edge[seg_key(x, rot[2])]
                e3 = seg_edge[seg_key(x, rot[3])]
                if not (e0 == e2 and e1 == e3 and e0 != e1):
                    raise StructureError(
                        f"crossing {x}: the two segments of each edge must be "
                        f"opposite in the rotation")
            elif len(rot) != self.n - 1:
                raise StructureError(f"vertex {x} must have degree n-1")
        return seg_edge


# faces: each face's boundary darts (tail, head) in walk order; dart_face:
# dart -> face, keys in face order
ReferenceFaces = namedtuple("ReferenceFaces", "faces dart_face")


def reference_trace(drawing) -> ReferenceFaces:
    """Faces by a predecessor map over (tail, head) darts, with
    connectivity and Euler checks."""
    # Next boundary dart of the face LEFT of (a, b): reverse to (b, a), then
    # step backward in the ccw rotation at b. (Stepping forward would trace
    # the right-hand faces instead.)
    rot = drawing.rotations
    pred = {}
    for node, nbrs in rot.items():
        for i, a in enumerate(nbrs):
            pred[(node, a)] = nbrs[i - 1]

    faces = []
    dart_face = {}
    for node in sorted(rot):
        for nbr in rot[node]:
            if (node, nbr) in dart_face:
                continue
            walk = []
            cur = (node, nbr)
            while cur not in dart_face:
                dart_face[cur] = len(faces)
                walk.append(cur)
                a, b = cur
                cur = (b, pred[(b, a)])
            faces.append(tuple(walk))

    # Connectivity + Euler check: F - E + V = 2 on the sphere.
    seen = {next(iter(rot))}
    stack = [next(iter(rot))]
    while stack:
        x = stack.pop()
        for y in rot[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(rot):
        raise EmbeddingError("drawing is not connected")
    euler = len(faces) - len(drawing.segment_edge) + len(rot)
    if euler != 2:
        raise EmbeddingError(
            f"rotation system is not a sphere embedding (F-E+V = {euler})")

    return ReferenceFaces(tuple(faces), dart_face)
