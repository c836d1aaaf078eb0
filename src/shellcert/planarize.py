"""Exact planarization of straight-line / polyline drawings.

Input coordinates are integers; crossing points are computed as exact
Fractions, so the resulting combinatorial structure is bit-exact. The
loader rejects degenerate geometry instead of repairing it: overlapping
segments, touches at polyline bends or vertices, three concurrent curves,
and self-intersecting edges all raise DocumentError naming the culprits.

Crossings of *distinct interiors* are allowed even when they violate
goodness (adjacent edges crossing, an edge pair crossing twice): those
load fine and are reported by validate_goodness.

Candidate pairs of polyline pieces come from a spatial hash whose cell is
sized to the pieces (see _GRID), and only pairs whose bounding boxes meet
are tested. A pair that shares an endpoint and is not collinear meets at
that endpoint only, so one integer cross product classifies it without an
intersection: a polyline joint or the common vertex of two adjacent edges
is fine, anything else is a touch or a self-intersection. Collinear pairs
go through segment_intersection, which finds overlaps. Vertices lying on
a foreign edge are found through the same hash.
"""

from __future__ import annotations

from fractions import Fraction

from .drawing import Drawing, Geometry, trace_faces
from .errors import CapabilityError, DocumentError
from .geometry import (angle_less, cross, on_segment, segment_intersection,
                       sort_by_angle, sub)

# The spatial hash's cell side is the median piece extent (max(|dx|, |dy|)),
# so at least half of the pieces cover at most 2 x 2 cells each; but it is
# never below the drawing's span over _GRID, so a long straight edge covers
# about _GRID x _GRID cells at most.
_GRID = 64


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

    crossings = _find_crossings(subsegments, positions)

    # Group crossing records by exact point; three concurrent curves are out.
    by_point = {}
    for rec in crossings:
        by_point.setdefault(rec["point"], []).append(rec)
    for pt, recs in by_point.items():
        involved = set()
        for rec in recs:
            involved.update(rec["edges"])
        if len(recs) > 1:
            raise DocumentError(
                f"three curves concurrent at {_exact(pt)}: edges {sorted(involved)}")

    ordered = sorted(crossings, key=lambda r: (r["edges"], r["pos"][r["edges"][0]]))
    node_of = {}
    cross_nodes = {}
    for i, rec in enumerate(ordered):
        node = n + i
        node_of[id(rec)] = node
        cross_nodes[node] = rec

    per_edge = {e: [] for e in polylines}
    for rec in ordered:
        node = node_of[id(rec)]
        for e in rec["edges"]:
            per_edge[e].append((rec["pos"][e], node))

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

    geometry = _build_geometry(n, positions, polylines, chains, cross_nodes, per_edge)
    rotations = _build_rotations(positions, polylines, chains, cross_nodes, geometry)

    drawing = Drawing(range(n), {c: frozenset(rec["edges"]) for c, rec in cross_nodes.items()},
                      rotations, chains, geometry)
    trace_faces(drawing)  # Euler + connectivity check on the fresh embedding
    return drawing


def _find_crossings(subsegments, positions):
    """All proper interior crossings; rejects every degenerate contact,
    vertices on foreign edges included (after every crossing check)."""
    lo_x, lo_y, hi_x, hi_y = [], [], [], []
    for _, _, (px, py), (qx, qy) in subsegments:
        lo_x.append(min(px, qx))
        lo_y.append(min(py, qy))
        hi_x.append(max(px, qx))
        hi_y.append(max(py, qy))
    boxes = list(zip(lo_x, lo_y, hi_x, hi_y))
    span = max(max(hi_x) - min(lo_x), max(hi_y) - min(lo_y))
    extents = sorted(max(x1 - x0, y1 - y0) for x0, y0, x1, y1 in boxes)
    cell = max(span // _GRID, extents[len(extents) // 2])

    # Every piece in the cells its box covers, ascending within a cell.
    cells = {}
    covers = []
    for idx, (x0, y0, x1, y1) in enumerate(boxes):
        keys = [(cx, cy) for cx in range(x0 // cell, x1 // cell + 1)
                for cy in range(y0 // cell, y1 // cell + 1)]
        covers.append(keys)
        for key in keys:
            bucket = cells.get(key)
            if bucket is None:
                cells[key] = [idx]
            else:
                bucket.append(idx)

    # Pairs whose boxes meet share a cell. They are tested in ascending
    # (ia, ib) order, so the first degenerate pair is always the same.
    crossings = []
    for ia, (ax0, ay0, ax1, ay1) in enumerate(boxes):
        near = set()
        for key in covers[ia]:
            near.update(cells[key])
        pairs = sorted(ib for ib in near if ib > ia
                       and ax0 <= hi_x[ib] and lo_x[ib] <= ax1
                       and ay0 <= hi_y[ib] and lo_y[ib] <= ay1)
        e1, i1, p, q = subsegments[ia]
        for ib in pairs:
            e2, i2, r, s = subsegments[ib]
            x = p if p == r or p == s else q if q == r or q == s else None
            if x is None or cross(p, q, s if x == r else r) == 0:
                inter = segment_intersection(p, q, r, s)
                if inter is None:
                    continue
                if inter[0] == "overlap":
                    raise DocumentError(f"edges {e1} and {e2} overlap along a segment")
                _, x, t, u = inter
            # else the pieces share the end x and are not collinear, so x is
            # their only common point: a contact, classified below, never a
            # crossing.
            if e1 == e2:
                if abs(i1 - i2) == 1 and x in (p, q) and x in (r, s):
                    continue  # consecutive polyline pieces share their joint
                raise DocumentError(f"edge {e1} intersects itself at {_exact(x)}")
            if x in (p, q) or x in (r, s):
                shared = set(e1) & set(e2)
                if any(positions[v] == x for v in shared):
                    continue  # adjacent edges meeting at their common vertex
                raise DocumentError(
                    f"edges {e1} and {e2} touch at {_exact(x)} (tangential or bend contact)")
            crossings.append({
                "edges": tuple(sorted((e1, e2))),
                "point": x,
                "pos": {e1: (i1, t), e2: (i2, u)},
            })

    # A vertex lying on a piece lies in a cell that the piece covers.
    # Among offenders, the first piece and then the first vertex is named.
    # With all edges of K_n present, the loop above already met each such
    # vertex as a touch with one of its own edges; this check still guards
    # calls on a subset of the edges.
    offenders = []
    for rank, (v, pos) in enumerate(positions.items()):
        for idx in cells.get((pos[0] // cell, pos[1] // cell), ()):
            e, _, p, q = subsegments[idx]
            if v not in e and on_segment(pos, p, q):
                offenders.append((idx, rank, v))
    if offenders:
        idx, _, v = min(offenders)
        raise DocumentError(f"edge {subsegments[idx][0]} passes through vertex {v}")
    return crossings


def _exact(point) -> str:
    """A contact point as it appears in messages: exact coordinates written
    as integers or reduced fractions, e.g. (120/7, 30)."""
    return f"({Fraction(point[0])}, {Fraction(point[1])})"


def _build_geometry(n, positions, polylines, chains, cross_nodes, per_edge):
    points = {v: positions[v] for v in range(n)}
    for node, rec in cross_nodes.items():
        points[node] = rec["point"]

    seg_paths = {}
    for e, pts in polylines.items():
        hits = per_edge[e]  # sorted along the edge
        chain = chains[e]
        path = [pts[0]]
        hit_idx = 0
        chain_idx = 0
        for i, (p, q) in enumerate(zip(pts, pts[1:])):
            while hit_idx < len(hits) and hits[hit_idx][0][0] == i:
                node = hits[hit_idx][1]
                x = cross_nodes[node]["point"]
                if path[-1] != x:
                    path.append(x)
                seg_paths[(chain[chain_idx], chain[chain_idx + 1])] = tuple(path)
                chain_idx += 1
                path = [x]
                hit_idx += 1
            if path[-1] != q:
                path.append(q)
        seg_paths[(chain[chain_idx], chain[chain_idx + 1])] = tuple(path)
    return Geometry(points, {e: tuple(pts) for e, pts in polylines.items()}, seg_paths)


def _build_rotations(positions, polylines, chains, cross_nodes, geometry):
    rotations = {}
    for v in positions:
        darts = []
        for e, chain in chains.items():
            if v not in (e[0], e[1]):
                continue
            pts = polylines[e]
            if e[0] == v:
                direction = sub(pts[1], pts[0])
                target = chain[1]
            else:
                direction = sub(pts[-2], pts[-1])
                target = chain[-2]
            darts.append((direction, target))
        rotations[v] = _angular_order(darts, f"vertex {v}")

    for node, rec in cross_nodes.items():
        darts = []
        for e in rec["edges"]:
            chain = chains[e]
            i = chain.index(node)
            seg_idx, _ = rec["pos"][e]
            pts = polylines[e]
            forward = sub(pts[seg_idx + 1], pts[seg_idx])
            backward = (-forward[0], -forward[1])
            darts.append((forward, chain[i + 1]))
            darts.append((backward, chain[i - 1]))
        rotations[node] = _angular_order(darts, f"crossing {node}")
    return rotations


def _angular_order(darts, where):
    try:
        ordered = sort_by_angle(darts, key=lambda d: d[0])
    except ValueError:
        raise DocumentError(f"two curves leave {where} in the same direction") from None
    return tuple(target for _, target in ordered)


# -- point location ---------------------------------------------------------

def locate_face(drawing, point) -> int:
    """Face of the geometric drawing containing the given point.

    Casts a generic ray from the point and reads the face off the side of
    the nearest hit segment. Raises CapabilityError without geometry and
    ValueError for points on the drawing itself.
    """
    geo = drawing.geometry
    if geo is None:
        raise CapabilityError("point location needs a geometric drawing")
    p = (Fraction(point[0]), Fraction(point[1]))
    faces = trace_faces(drawing)

    pieces = []
    for dart, path in geo.segment_paths.items():
        for a, b in zip(path, path[1:]):
            pieces.append((dart, a, b))
    for _, a, b in pieces:
        if on_segment(p, a, b):
            raise ValueError(f"point {point} lies on the drawing")

    direction = _generic_direction(p, geo)
    hit = _nearest_hit(p, direction, pieces)
    if hit is None:
        return outer_face(drawing)
    (dart, a, b) = hit
    if cross(a, b, p) > 0:
        return faces.dart_face[dart]
    return faces.dart_face[(dart[1], dart[0])]


def outer_face(drawing) -> int:
    """Face id of the unbounded face of a geometric drawing (cached).

    At the lowest point of the whole drawing nothing lies below, so the
    face occupying the angular gap around "straight down" there is the
    unbounded one; it is the face just counterclockwise of the angularly
    largest outgoing direction.
    """
    cached = drawing._cache.get("outer_face")
    if cached is not None:
        return cached
    geo = drawing.geometry
    if geo is None:
        raise CapabilityError("the unbounded face needs a geometric drawing")
    faces = trace_faces(drawing)

    low = None
    for path in geo.segment_paths.values():
        for x, y in path:
            if low is None or (y, x) < (low[1], low[0]):
                low = (x, y)

    best_dir = None
    best_face = None
    for dart, path in geo.segment_paths.items():
        for i, pt in enumerate(path):
            if pt != low:
                continue
            outgoing = []
            if i + 1 < len(path):
                outgoing.append((sub(path[i + 1], pt), faces.dart_face[dart]))
            if i > 0:
                outgoing.append((sub(path[i - 1], pt), faces.dart_face[(dart[1], dart[0])]))
            for direction, face in outgoing:
                if best_dir is None or angle_less(best_dir, direction):
                    best_dir = direction
                    best_face = face
    drawing._cache["outer_face"] = best_face
    return best_face


def _generic_direction(p, geo):
    """A ray direction from p passing through no polyline point."""
    points = set()
    for path in geo.segment_paths.values():
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
