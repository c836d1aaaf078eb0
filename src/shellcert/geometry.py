"""Exact rational plane geometry.

All predicates take points with integer or Fraction coordinates and decide
exactly; floating point never enters any decision. The planarizer decides
most pairs of pieces on integers itself and calls segment_intersection for
collinear pairs only; point location (planarize.locate_face) uses the
predicates on Fraction points.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Intersect the closed segments pq and rs.

    Returns None (disjoint), ("point", X, t, u) for a single common point
    X = p + t*(q-p) = r + u*(s-r), or ("overlap", A, B) for a collinear
    overlap of positive length with endpoints A, B.
    """
    d1 = sub(q, p)
    d2 = sub(s, r)
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    rp = sub(r, p)
    if denom != 0:
        # t = tn / denom and u = un / denom; with denom made positive, the
        # range tests run on the integer numerators, so Fractions are only
        # built for an actual contact.
        tn = rp[0] * d2[1] - rp[1] * d2[0]
        un = rp[0] * d1[1] - rp[1] * d1[0]
        if denom < 0:
            denom, tn, un = -denom, -tn, -un
        if not (0 <= tn <= denom and 0 <= un <= denom):
            return None
        x = Fraction(p[0] * denom + tn * d1[0], denom)
        y = Fraction(p[1] * denom + tn * d1[1], denom)
        return ("point", (x, y), Fraction(tn, denom), Fraction(un, denom))
    # Parallel segments.
    if cross(p, q, r) != 0:
        return None
    # Collinear: parametrize both by position along d1.
    dd = d1[0] * d1[0] + d1[1] * d1[1]
    tr = Fraction(rp[0] * d1[0] + rp[1] * d1[1], dd)
    sp = sub(s, p)
    ts = Fraction(sp[0] * d1[0] + sp[1] * d1[1], dd)
    lo, hi = min(tr, ts), max(tr, ts)
    lo = max(lo, Fraction(0))
    hi = min(hi, Fraction(1))
    if lo > hi:
        return None
    if lo == hi:
        x = p[0] + lo * d1[0]
        y = p[1] + lo * d1[1]
        u = Fraction(0) if (x, y) == tuple(r) else Fraction(1)
        return ("point", (x, y), lo, u)
    a = (p[0] + lo * d1[0], p[1] + lo * d1[1])
    b = (p[0] + hi * d1[0], p[1] + hi * d1[1])
    return ("overlap", a, b)


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
