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

Every generator, the X_document and the X_drawing entry alike, loads its
own output and validates it before returning: goodness, and for the
convex and cylindrical families the exact crossing count. An attempt that
fails its checks gives way to the next phase or sample; when none is
left, GenerationError is raised rather than a near-miss drawing emitted.

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
from functools import partial
from itertools import combinations

from .documents import geometric_document, load_drawing
from .drawing import Drawing, validate_goodness
from .errors import DocumentError, GenerationError, quoted
from .geometry import cross
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


def _straight_document(positions) -> dict:
    """The document of the points positions[0..n-1] joined by segments."""
    n = len(positions)
    return geometric_document(n, positions, {(u, v): [positions[u], positions[v]]
                                             for u, v in _all_pairs(range(n))})


def _all_pairs(ids):
    ids = sorted(ids)
    return [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]


def _check_size(n, scale, general=None, radius=None):
    """Reject an n that is no int or below 3, a scale that is no positive
    integer, and an n that needs more points than fit on the lattice.

    general gives how many of the n points (all by default) the family
    joins pairwise by straight segments: they have integer coordinates in
    [-scale, scale] and no three of them lie on a line (one would lie on
    the segment of the other two), so each of the 2 scale + 1 rows of that
    lattice holds at most two of them. A family that places its points by
    float arithmetic passes radius, which gives its largest radius; then
    n, which divides angles, and that radius must lie below 2**1023, half
    the float range, so that no rounding on the way reaches infinity.
    general and radius are called only once n and scale have passed."""
    if type(n) is not int or n < 3:
        raise ValueError("n must be at least 3")
    if type(scale) is not int or scale < 1:
        raise ValueError(f"scale must be a positive integer, got {quoted(scale)}")
    if radius is not None and max(n, radius()) >= 2 ** 1023:
        raise ValueError(f"n = {quoted(n)} and scale = {quoted(scale)} take the "
                         f"construction beyond the float range")
    general = n if general is None else general()
    capacity = 2 * (2 * scale + 1)
    if general > capacity:
        raise ValueError(f"n = {quoted(n)} puts {quoted(general)} points joined by straight "
                         f"edges in [-{quoted(scale)}, {quoted(scale)}]^2, where at most "
                         f"{quoted(capacity)} fit with no three on a line")


def _general_position(points) -> bool:
    return not any(cross(a, b, c) == 0 for a, b, c in combinations(points, 3))


# -- convex ------------------------------------------------------------

def convex_document(n: int, scale: int = DEFAULT_SCALE) -> dict:
    """n vertices in convex position on an integer-rounded circle."""
    return _convex(n, scale)[0]


def _convex(n, scale):
    """(document, checked drawing) of the convex family: the first of 32
    phases with C(n, 4) crossings (rounding can make diagonals concurrent)."""
    _check_size(n, scale, radius=lambda: scale)
    return _first_checked(
        (partial(_convex_attempt, n, scale, 0.5 + a * 0.0371) for a in range(32)),
        math.comb(n, 4), lambda error: f"scale {scale} too small for {n} points in "
        f"convex general position{'' if error is None else f': {error}'}")


def _convex_attempt(n, scale, phase):
    """The convex document at one phase, or None if its points are not
    distinct and in general position.

    The spacing is deliberately irregular: points in strictly increasing
    angular order are convex regardless of spacing, and a regular polygon
    would put three main diagonals through the center for even n.
    """
    positions = {i: _point(2 * math.pi * (i + phase + 0.22 * math.sin(2.7 * i + phase)) / n,
                           scale)
                 for i in range(n)}
    if len(set(positions.values())) != n or not _general_position(positions.values()):
        return None
    return _straight_document(positions)


def convex_drawing(n: int, scale: int = DEFAULT_SCALE) -> Drawing:
    return _convex(n, scale)[1]


# -- cylindrical -------------------------------------------------------

def cylindrical_document(n: int, scale: int = DEFAULT_SCALE) -> dict:
    """Planar projection of the two-rim construction with H(n) crossings."""
    return _cylindrical(n, scale)[0]


def _cylindrical(n, scale):
    """(document, checked drawing) of the cylindrical family."""
    # the inner rim's n // 2 vertices are joined by straight chords; the
    # outermost arc lies at 3 scale plus scale / 4 for each outer-rim edge
    _check_size(n, scale, lambda: n // 2, lambda: (12 + math.comb(n - n // 2, 2)) * scale // 4)
    return _first_checked(
        (partial(_cylindrical_attempt, n, scale, *phases) for phases in _PHASES),
        harary_hill_bound(n),
        lambda error: f"cylindrical construction failed for n={n}: {error}")


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
    """(document, checked drawing) of the rectilinear family: the first of
    64 samples that loads (a sample can put three edges through a point)."""
    _check_size(n, scale)
    rng = random.Random(f"rectilinear:{n}:{seed}:{scale}")
    return _first_checked(
        (partial(_rectilinear_attempt, rng, n, scale) for _ in range(64)), None,
        lambda error: f"could not sample {n} points in general position at scale {scale}")


def _rectilinear_attempt(rng, n, scale):
    """The document of the next n points drawn from rng, or None if they
    could not be drawn in general position."""
    points = []
    for _ in range(n):
        for _ in range(200):
            cand = (rng.randint(-scale, scale), rng.randint(-scale, scale))
            if cand in points:
                continue
            if any(cross(a, b, cand) == 0 for a, b in combinations(points, 2)):
                continue
            points.append(cand)
            break
        else:
            return None
    return _straight_document(dict(enumerate(points)))


def random_rectilinear(n: int, seed: int, scale: int = DEFAULT_SCALE) -> Drawing:
    return _rectilinear(n, seed, scale)[1]


# -- shared validation ---------------------------------------------------

def _first_checked(attempts, expect_crossings, failure):
    """(document, drawing) of the first attempt, called in turn, that
    builds a document (not None) which loads and passes _checked. If none
    does, raises GenerationError(failure(e)), e the last error or None."""
    last_error = None
    for attempt in attempts:
        try:
            doc = attempt()
            if doc is not None:
                return doc, _checked(load_drawing(doc), expect_crossings)
        except (DocumentError, GenerationError) as exc:
            last_error = exc
    raise GenerationError(failure(last_error))


def _checked(drawing, expect_crossings) -> Drawing:
    report = validate_goodness(drawing)
    if not report.ok:
        raise GenerationError(f"generated drawing is not good: {report.violations}")
    if expect_crossings is not None and drawing.crossing_count() != expect_crossings:
        raise GenerationError(
            f"generated drawing has {drawing.crossing_count()} crossings, "
            f"expected {expect_crossings}")
    return drawing
