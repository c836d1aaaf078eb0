"""Exact plane predicates.

The predicates take points with integer or Fraction coordinates and decide
exactly; floating point never enters any decision. The planarizer decides
pairs of pieces that are not parallel on integers itself and calls
segment_intersection, which works on integers alone, for collinear pairs
only; point location (planarize.locate_face) uses cross and on_segment on
integer pieces and the Fraction query point.
"""

from __future__ import annotations

Point = tuple  # (x, y), entries int or Fraction


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def cross(o: Point, a: Point, b: Point):
    """Twice the signed area of triangle o-a-b; positive iff o->a->b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab."""
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segment_intersection(p: Point, q: Point, r: Point, s: Point):
    """Intersect the closed segments pq and rs, which lie on one line.

    Returns None (disjoint), ("point", X) for a single common point, or
    ("overlap", A, B) for an overlap of positive length from A to B; X, A
    and B are among the four given points. Raises ValueError unless p != q
    and r and s lie on the line through p and q.
    """
    if p == q or cross(p, q, r) or cross(p, q, s):
        raise ValueError("segment_intersection needs two pieces on one line")
    # positions along q - p, scaled by |q - p|^2: p at 0, q at dx^2 + dy^2
    dx, dy = q[0] - p[0], q[1] - p[1]
    first, last = sorted((((r[0] - p[0]) * dx + (r[1] - p[1]) * dy, r),
                          ((s[0] - p[0]) * dx + (s[1] - p[1]) * dy, s)))
    lo = max((0, p), first)
    hi = min((dx * dx + dy * dy, q), last)
    if lo[0] > hi[0]:
        return None
    if lo[0] == hi[0]:
        return ("point", lo[1])
    return ("overlap", lo[1], hi[1])


def direction_half(v: Point) -> int:
    """0 for directions with angle in [0, pi), 1 for [pi, 2*pi)."""
    x, y = v
    if y > 0 or (y == 0 and x > 0):
        return 0
    return 1


def angle_less(a: Point, b: Point) -> bool:
    """Strict counterclockwise order of nonzero directions from the +x axis."""
    ha, hb = direction_half(a), direction_half(b)
    if ha != hb:
        return ha < hb
    return a[0] * b[1] - a[1] * b[0] > 0
