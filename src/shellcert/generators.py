"""Reference families of good drawings with known properties.

convex       -- vertices on a circle, straight edges; C(n, 4) crossings.
cylindrical  -- the two-rim construction projected to the plane: an inner
                disk holding floor(n/2) vertices with straight chords, the
                remaining vertices on an outer circle whose mutual edges
                are routed outside it, and rim-to-rim edges following
                geodesics of the cylinder (linear angle/radius spirals).
                Exactly H(n) crossings.
rectilinear  -- seeded random integer points in general position, straight
                edges; property-test fuel.

All generators emit geometric interchange documents and validate their own
output (goodness, and for the cylindrical family the exact crossing count)
before returning; a construction that fails its checks raises
GenerationError rather than emitting a near-miss drawing.

The outer-rim routing realizes "straight chords in the disk around
infinity" without inversions: every outer edge runs spoke - circular arc -
spoke at its own radius, shorter-interval edges at smaller radii. Two such
edges then cross exactly once iff their endpoints interleave on the rim,
which is the chord crossing rule. Tiny per-edge angular offsets at the
shared endpoints keep adjacent arcs from touching.
"""

from __future__ import annotations

import math
import random

from .documents import geometric_document, load_drawing
from .drawing import Drawing, validate_goodness
from .errors import DocumentError, GenerationError
from .kedges import harary_hill_bound

DEFAULT_SCALE = 100_000

_ARC_STEP = 2 * math.pi / 96   # max angular step when sampling arcs
_SPIRAL_STEPS = 48             # radial stations per rim-to-rim spiral
_PHASES = ((0.21, 0.54), (0.11, 0.37), (0.29, 0.61), (0.05, 0.81))


def _point(angle: float, radius: float) -> tuple:
    return (round(radius * math.cos(angle)), round(radius * math.sin(angle)))


def _dedupe(points) -> list:
    out = [points[0]]
    for p in points[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _straight_edges(positions, pairs) -> dict:
    return {(u, v): [positions[u], positions[v]] for u, v in pairs}


def _all_pairs(ids):
    ids = sorted(ids)
    return [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]


def _check_size(n, scale):
    if n < 3:
        raise ValueError("n must be at least 3")
    if type(scale) is not int or scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale!r}")


def _general_position(points) -> bool:
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                ax, ay = pts[i]
                bx, by = pts[j]
                cx, cy = pts[k]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
                    return False
    return True


# -- convex ------------------------------------------------------------

def convex_document(n: int, scale: int = DEFAULT_SCALE) -> dict:
    """n vertices in convex position on an integer-rounded circle."""
    return _convex(n, scale)[0]


def _convex(n, scale):
    """(document, loaded drawing) of the convex family.

    The spacing is deliberately irregular: points in strictly increasing
    angular order are convex regardless of spacing, and a regular polygon
    would put three main diagonals through the center for even n.
    """
    _check_size(n, scale)
    last_error = None
    for attempt in range(32):
        phase = 0.5 + attempt * 0.0371
        positions = {i: _point(2 * math.pi * (i + phase + 0.22 * math.sin(2.7 * i + phase)) / n,
                               scale)
                     for i in range(n)}
        if len(set(positions.values())) != n or not _general_position(positions.values()):
            continue
        doc = geometric_document(n, positions, _straight_edges(positions, _all_pairs(range(n))))
        try:
            return doc, load_drawing(doc)
        except DocumentError as exc:
            last_error = exc  # e.g. concurrent diagonals; rotate and retry
    detail = "" if last_error is None else f": {last_error}"
    raise GenerationError(
        f"scale {scale} too small for {n} points in convex general position{detail}")


def convex_drawing(n: int, scale: int = DEFAULT_SCALE) -> Drawing:
    return _checked(_convex(n, scale)[1], expect_crossings=math.comb(n, 4))


# -- cylindrical -------------------------------------------------------

def cylindrical_document(n: int, scale: int = DEFAULT_SCALE) -> dict:
    """Planar projection of the two-rim construction with H(n) crossings."""
    return _cylindrical(n, scale)[0]


def _cylindrical(n, scale):
    """(document, checked drawing) of the cylindrical family."""
    _check_size(n, scale)
    last_error = None
    for phases in _PHASES:
        try:
            doc = _cylindrical_attempt(n, scale, *phases)
            return doc, _checked(load_drawing(doc),
                                 expect_crossings=harary_hill_bound(n))
        except (DocumentError, GenerationError) as exc:
            last_error = exc
    raise GenerationError(f"cylindrical construction failed for n={n}: {last_error}")


def _cylindrical_attempt(n, scale, top_phase, bottom_phase) -> dict:
    m = n // 2            # inner rim (lid)
    big = n - m           # outer rim
    r_in = scale
    r_out = 3 * scale

    top = list(range(m))
    bottom = list(range(m, n))
    theta = {v: 2 * math.pi * (i + top_phase + 0.013 * i) / m
             for i, v in enumerate(top)}
    psi = {v: 2 * math.pi * (j + bottom_phase + 0.017 * j) / big
           for j, v in enumerate(bottom)}

    positions = {}
    for v in top:
        positions[v] = _point(theta[v], r_in)
    for v in bottom:
        positions[v] = _point(psi[v], r_out)
    if len(set(positions.values())) != n:
        raise GenerationError("rim vertices collide; increase the scale")

    polylines = {}
    for u, v in _all_pairs(top):
        polylines[(u, v)] = [positions[u], positions[v]]
    _route_outer_edges(polylines, positions, psi, bottom, r_out, scale)
    _route_spirals(polylines, positions, theta, psi, top, bottom, r_in, r_out)
    return geometric_document(n, positions, polylines)


def _route_outer_edges(polylines, positions, psi, bottom, r_out, scale):
    """Outer-rim edges as spoke - arc - spoke paths at per-edge radii."""
    two_pi = 2 * math.pi
    pairs = _all_pairs(bottom)
    info = {}
    for a, b in pairs:
        span_ab = (psi[b] - psi[a]) % two_pi
        if span_ab < two_pi - span_ab:
            start, end, span = a, b, span_ab
        else:
            start, end, span = b, a, two_pi - span_ab
        info[(a, b)] = {"start": start, "end": end, "span": span}
    order = sorted(pairs, key=lambda e: (info[e]["span"], e))
    pad = scale / 4
    for rank, e in enumerate(order):
        info[e]["radius"] = r_out + (rank + 1) * pad

    # Per-vertex angular offsets: the edge with the larger radius hugs the
    # radial direction, so spokes never pierce an adjacent edge's arc.
    eta_unit = two_pi / (len(bottom) * 128)
    offset = {}
    for v in bottom:
        ccw = sorted((e for e in pairs if info[e]["start"] == v),
                     key=lambda e: -info[e]["radius"])
        cw = sorted((e for e in pairs if info[e]["end"] == v),
                    key=lambda e: -info[e]["radius"])
        for idx, e in enumerate(ccw):
            offset[(v, e)] = (idx + 1) * eta_unit
        for idx, e in enumerate(cw):
            offset[(v, e)] = -(idx + 1) * eta_unit

    for e in pairs:
        start, end = info[e]["start"], info[e]["end"]
        radius = info[e]["radius"]
        alpha0 = psi[start] + offset[(start, e)]
        alpha1 = psi[start] + info[e]["span"] + offset[(end, e)]
        steps = max(2, math.ceil((alpha1 - alpha0) / _ARC_STEP))
        path = [positions[start]]
        for t in range(steps + 1):
            path.append(_point(alpha0 + (alpha1 - alpha0) * t / steps, radius))
        path.append(positions[end])
        path = _dedupe(path)
        if len(path) < 2:
            raise GenerationError("outer edge collapsed; increase the scale")
        polylines[(e[0], e[1])] = path if e[0] == start else list(reversed(path))


def _route_spirals(polylines, positions, theta, psi, top, bottom, r_in, r_out):
    two_pi = 2 * math.pi
    for u in top:
        for v in bottom:
            delta = (psi[v] - theta[u] + math.pi) % two_pi - math.pi
            if abs(abs(delta) - math.pi) < 1e-6:
                raise GenerationError("rim-to-rim geodesic is ambiguous; change phases")
            path = [positions[u]]
            for t in range(1, _SPIRAL_STEPS):
                frac = t / _SPIRAL_STEPS
                path.append(_point(theta[u] + delta * frac,
                                   r_in + (r_out - r_in) * frac))
            path.append(positions[v])
            path = _dedupe(path)
            polylines[(u, v)] = path


def cylindrical_drawing(n: int, scale: int = DEFAULT_SCALE) -> Drawing:
    return _cylindrical(n, scale)[1]


# -- random rectilinear --------------------------------------------------

def rectilinear_document(n: int, seed: int, scale: int = DEFAULT_SCALE) -> dict:
    """Seeded random integer points in general position, straight edges."""
    return _rectilinear(n, seed, scale)[0]


def _rectilinear(n, seed, scale):
    """(document, loaded drawing) of the rectilinear family."""
    _check_size(n, scale)
    rng = random.Random(f"rectilinear:{n}:{seed}:{scale}")
    for _ in range(64):
        points = _sample_points(rng, n, scale)
        if points is None:
            continue
        positions = dict(enumerate(points))
        doc = geometric_document(n, positions, _straight_edges(positions, _all_pairs(range(n))))
        try:
            return doc, load_drawing(doc)
        except DocumentError:
            continue  # e.g. three segments concurrent; resample
    raise GenerationError(
        f"could not sample {n} points in general position at scale {scale}")


def _sample_points(rng, n, scale):
    points = []
    for _ in range(n):
        for _ in range(200):
            cand = (rng.randint(-scale, scale), rng.randint(-scale, scale))
            if cand in points:
                continue
            if any((b[0] - a[0]) * (cand[1] - a[1]) - (b[1] - a[1]) * (cand[0] - a[0]) == 0
                   for i, a in enumerate(points) for b in points[i + 1:]):
                continue
            points.append(cand)
            break
        else:
            return None
    return points


def random_rectilinear(n: int, seed: int, scale: int = DEFAULT_SCALE) -> Drawing:
    return _checked(_rectilinear(n, seed, scale)[1])


# -- shared validation ---------------------------------------------------

def _checked(drawing, expect_crossings=None) -> Drawing:
    report = validate_goodness(drawing)
    if not report.ok:
        raise GenerationError(f"generated drawing is not good: {report.violations}")
    if expect_crossings is not None and drawing.crossing_count() != expect_crossings:
        raise GenerationError(
            f"generated drawing has {drawing.crossing_count()} crossings, "
            f"expected {expect_crossings}")
    return drawing
