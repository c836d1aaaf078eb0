"""k-edges, cumulated counts, and invariant edges under vertex deletion.

Fix a reference face F. Every edge uv together with a third vertex w forms
a triangle curve; since adjacent edges never cross in a good drawing, that
curve is simple and splits the sphere in two. The triangle's orientation is
+ iff F lies in the part to the left of the traversal u -> v -> w -> u.
The k-value of uv is min(i, n-2-i) where i counts the + witnesses.

Side classification is purely combinatorial and rests on one parity
labelling per drawing. A breadth-first sweep over face adjacencies, from
face 0, gives every face f a bitmask P[f] with one bit per edge; stepping
across a segment of edge e toggles bit e. Two faces lie on the same side
of a closed curve iff their labels differ on the curve's edges in an even
number of bits. The labels depend on the sweep only up to vertex stars
(the set of edges at one vertex), and a triangle's three edges meet every
star in an even number of edges, so the parity of P[F] on a triangle is
well defined. Face F is left of a -> b -> c iff that parity equals the
parity of a face known to lie left of the traversal: the face left of the
first segment of the edge ab (the triangle's first corner seed). The
seeds at the other two corners must agree, which every good drawing
satisfies. A profile then costs O(n^2) operations on ints: the witnesses
of an edge are the bits of one XOR of two rows of P[F], counted by
int.bit_count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .drawing import (Drawing, FaceMap, FaceSet, child_drawing, edge_key,
                      seg_key, trace_faces)
from .errors import EmbeddingError


class Orientation(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    @property
    def flipped(self) -> "Orientation":
        return Orientation.MINUS if self is Orientation.PLUS else Orientation.PLUS


def harary_hill_bound(n: int) -> int:
    """The conjectured crossing number H(n) of the complete graph."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def max_k(n: int) -> int:
    """Largest possible k-value in a drawing on n vertices."""
    return n // 2 - 1


def _chain_segments(drawing: Drawing, e) -> tuple:
    ch = drawing.chains[e]
    return tuple(seg_key(a, b) for a, b in zip(ch, ch[1:]))


@dataclass(frozen=True, eq=False)
class _Labelling:
    """Parity labelling of a drawing; vertices are numbered by position.

    face_bits[f] holds, at bits i*n + j and j*n + i, the parity of the
    segments of the edge {v_i, v_j} crossed on a dual path from face 0 to
    face f, so row i of a label (bits i*n .. i*n + n-1) is the witness
    mask of the edges at v_i. edges maps each edge (v_i, v_j), i < j, to
    (i, j, rel, mask): rel holds at bit w the parity on the triangle
    {v_i, v_j, v_w} of every face left of v_i -> v_j -> v_w, and mask
    selects the n - 2 witnesses.
    """

    index: dict
    face_bits: list
    edges: dict


def _build_labelling(drawing: Drawing, faces: FaceSet) -> _Labelling:
    verts = drawing.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    toggle = {(u, v): (1 << (index[u] * n + index[v])) | (1 << (index[v] * n + index[u]))
              for u, v in drawing.chains}
    seg_toggle = {s: toggle[e] for s, e in drawing.segment_edge.items()}

    bits = [None] * len(faces.faces)
    bits[0] = 0
    order = [0]
    for f in order:
        pf = bits[f]
        for a, b in faces.faces[f]:
            g = faces.dart_face[(b, a)]
            if bits[g] is None:
                bits[g] = pf ^ seg_toggle[seg_key(a, b)]
                order.append(g)
    if len(order) != len(bits):
        raise EmbeddingError("face adjacency is disconnected")

    full = (1 << n) - 1

    def parity_row(f, i, j):
        # bit w: parity of the label of face f on the triangle {i, j, w}
        pf = bits[f]
        row = ((pf >> (i * n)) ^ (pf >> (j * n))) & full
        return row ^ full if (pf >> (i * n + j)) & 1 else row

    # The outgoing boundary dart at each corner of a -> b -> c -> a has the
    # left region on its left: at a along ab (first), at b along bc
    # (first), and at c back along ac (last).
    first = {}
    last = {}
    for (u, v), ch in drawing.chains.items():
        i, j = index[u], index[v]
        first[i, j] = parity_row(faces.dart_face[(u, ch[1])], i, j)
        last[i, j] = parity_row(faces.dart_face[(v, ch[-2])], i, j)
    for a, b, c in combinations(range(n), 3):
        const = (first[a, b] >> c) & 1
        if (first[b, c] >> a) & 1 != const or (last[a, c] >> b) & 1 != const:
            raise EmbeddingError(
                f"orientation seeds disagree for triangle {(verts[a], verts[b], verts[c])}")

    # With the seeds in agreement, the constant of {i, j, w} is bit w of
    # first[i, j] when w lies outside i..j and bit w of last[i, j] when it
    # lies between; there the traversal i -> j -> w runs against the sorted
    # order, so the constant is complemented.
    edges = {}
    for e in drawing.edges():
        i, j = index[e[0]], index[e[1]]
        mask = full ^ (1 << i) ^ (1 << j)
        between = ((1 << j) - 1) ^ ((1 << (i + 1)) - 1)
        rel = (first[i, j] & mask & ~between) | (~last[i, j] & between)
        edges[e] = (i, j, rel, mask)
    return _Labelling(index, bits, edges)


def _labelling(drawing: Drawing, faces: FaceSet) -> _Labelling:
    lab = drawing._cache.get("labelling")
    if lab is None:
        lab = _build_labelling(drawing, faces)
        drawing._cache["labelling"] = lab
    return lab


def _face_label(lab: _Labelling, ref_face: int) -> int:
    if not 0 <= ref_face < len(lab.face_bits):
        raise ValueError(f"face {ref_face} does not exist")
    return lab.face_bits[ref_face]


def _vertex_index(lab: _Labelling, x: int) -> int:
    i = lab.index.get(x)
    if i is None:
        raise ValueError(f"{x} is not a vertex of the drawing")
    return i


def triangle_orientation(drawing: Drawing, faces: FaceSet, ref_face: int,
                         edge, witness: int) -> Orientation:
    """Orientation of the triangle formed by the directed edge and the witness.

    Reversing the edge direction flips the sign.
    """
    u, v = edge
    lab = _labelling(drawing, faces)
    i, j, w = (_vertex_index(lab, x) for x in (u, v, witness))
    if len({i, j, w}) != 3:
        raise ValueError("edge endpoints and witness must be three distinct vertices")
    n = drawing.n
    pf = _face_label(lab, ref_face)
    rel = lab.edges[edge_key(u, v)][2]
    # x is 0 iff F lies left of the smaller endpoint -> the larger -> witness
    x = ((pf >> (i * n + j)) ^ (pf >> (i * n + w)) ^ (pf >> (j * n + w)) ^ (rel >> w)) & 1
    return Orientation.PLUS if x == (i > j) else Orientation.MINUS


def k_value(drawing: Drawing, faces: FaceSet, ref_face: int, edge) -> int:
    """k-value of the edge with respect to the reference face."""
    lab = _labelling(drawing, faces)
    u, v = edge
    if _vertex_index(lab, u) == _vertex_index(lab, v):
        raise ValueError("an edge needs two distinct vertices")
    i, j, rel, mask = lab.edges[edge_key(u, v)]
    n = drawing.n
    pf = _face_label(lab, ref_face)
    # bit w set: F lies right of v_i -> v_j -> v_w, a - witness
    minus = (((pf >> (i * n)) ^ (pf >> (j * n)) ^ rel) & mask).bit_count()
    return min(minus, n - 2 - minus)


@dataclass(frozen=True, eq=False)
class KEdgeProfile:
    """Per-edge k-values plus the derived counters for one reference face.

    counts[k] is the number of k-edges; cumulated[k] is the weighted sum
    of all counts up to k, each level i contributing (k + 1 - i) times.
    """

    reference_face: int
    k_values: dict
    counts: tuple
    cumulated: tuple
    crossings: int


def k_edge_profile(drawing: Drawing, faces: FaceSet, ref_face: int) -> KEdgeProfile:
    key = ("profile", ref_face)
    prof = drawing._cache.get(key)
    if prof is not None:
        return prof
    lab = _labelling(drawing, faces)
    pf = _face_label(lab, ref_face)
    n = drawing.n
    full = (1 << n) - 1
    rows = [(pf >> (i * n)) & full for i in range(n)]
    kmax = max_k(n)
    k_values = {}
    counts = [0] * (kmax + 1)
    for e, (i, j, rel, mask) in lab.edges.items():
        minus = ((rows[i] ^ rows[j] ^ rel) & mask).bit_count()
        k = min(minus, n - 2 - minus)
        k_values[e] = k
        counts[k] += 1
    cumulated = tuple(sum((k + 1 - i) * counts[i] for i in range(k + 1))
                      for k in range(kmax + 1))
    prof = KEdgeProfile(ref_face, k_values, tuple(counts), cumulated,
                        drawing.crossing_count())
    drawing._cache[key] = prof
    return prof


def vertex_k_profile(drawing: Drawing, faces: FaceSet, ref_face: int, v: int) -> tuple:
    """Cumulated k-values over the edges incident to v.

    When v lies on the reference face the value at index k is 2*C(k+2, 2)
    for every k <= n//2 - 2.
    """
    if v not in drawing.vertex_set:
        raise ValueError(f"{v} is not a vertex of the drawing")
    prof = k_edge_profile(drawing, faces, ref_face)
    kmax = max_k(drawing.n)
    counts = [0] * (kmax + 1)
    for u in drawing.vertices:
        if u != v:
            counts[prof.k_values[edge_key(u, v)]] += 1
    return tuple(sum((k + 1 - i) * counts[i] for i in range(k + 1))
                 for k in range(kmax + 1))


@dataclass(frozen=True, eq=False)
class InvariantReport:
    """Edge-by-edge comparison of k-values across one vertex deletion.

    flags[e] is True iff e keeps its k-value (an invariant edge);
    cumulated[k] counts invariant edges of value at most k, unweighted.
    """

    deleted_vertex: int
    flags: dict
    parent_k: dict
    child_k: dict
    cumulated: tuple

    @property
    def invariant_edges(self) -> frozenset:
        return frozenset(e for e, keep in self.flags.items() if keep)


def invariant_edges(parent: Drawing, child: Drawing, face_map: FaceMap,
                    ref_face: int, v: int) -> InvariantReport:
    """Classify every surviving edge as invariant or not under deleting v.

    Also checks the drop-by-at-most-one law: a k-edge becomes a k- or
    (k-1)-edge in the subdrawing, never anything else.
    """
    parent_faces = trace_faces(parent)
    child_faces = trace_faces(child)
    child_face = face_map[ref_face]
    prof_p = k_edge_profile(parent, parent_faces, ref_face)
    prof_c = k_edge_profile(child, child_faces, child_face)
    flags = {}
    parent_k = {}
    child_k = {}
    for e in child.edges():
        kp = prof_p.k_values[e]
        kc = prof_c.k_values[e]
        if kc not in (kp, kp - 1):
            raise EmbeddingError(
                f"edge {e} jumped from k={kp} to k={kc} under deletion")
        parent_k[e] = kp
        child_k[e] = kc
        flags[e] = kc == kp
    kmax = max_k(parent.n)
    cumulated = tuple(sum(1 for e, keep in flags.items() if keep and parent_k[e] <= k)
                      for k in range(kmax + 1))
    return InvariantReport(v, flags, parent_k, child_k, cumulated)


def recursion_check(parent: Drawing, ref_face: int, v: int, k: int) -> int:
    """Residual of the cumulated-count recursion for deleting v.

    Zero on every good drawing: the cumulated k-value of the drawing equals
    the cumulated (k-1)-value of the subdrawing, plus the contribution of
    the edges at v, plus the invariant edges across the deletion. The
    (k-1)-term is taken as 0 at k = 0.
    """
    n = parent.n
    if not 0 <= k <= n // 2 - 2:
        raise ValueError(f"k must lie in 0..{n // 2 - 2}")
    faces = trace_faces(parent)
    child, _, face_map = child_drawing(parent, v)
    lhs = k_edge_profile(parent, faces, ref_face).cumulated[k]
    child_term = 0
    if k >= 1:
        child_prof = k_edge_profile(child, trace_faces(child), face_map[ref_face])
        child_term = child_prof.cumulated[k - 1]
    at_v = vertex_k_profile(parent, faces, ref_face, v)[k]
    inv = invariant_edges(parent, child, face_map, ref_face, v).cumulated[k]
    return lhs - (child_term + at_v + inv)


@dataclass(frozen=True)
class BoundRow:
    k: int
    cumulated: int
    threshold: int
    ok: bool


def cumulative_bound_check(drawing: Drawing, faces: FaceSet, ref_face: int,
                           kmax: int):
    """Compare cumulated k-edge counts against 3*C(k+3, 3) for k <= kmax.

    If every row passes up to k = n//2 - 2, the drawing has at least H(n)
    crossings.
    """
    if not 0 <= kmax <= max_k(drawing.n) - 1:
        raise ValueError(f"kmax must lie in 0..{max_k(drawing.n) - 1}")
    prof = k_edge_profile(drawing, faces, ref_face)
    rows = []
    for k in range(kmax + 1):
        threshold = 3 * comb(k + 3, 3)
        value = prof.cumulated[k]
        rows.append(BoundRow(k, value, threshold, value >= threshold))
    return tuple(rows)


def edge_side_partition(drawing: Drawing, faces: FaceSet, ref_face: int,
                        u: int, v: int) -> frozenset:
    """Vertices on one fixed side of the closed curve made of the edge uv
    and a chord through the reference face joining its endpoints.

    Requires u and v on the reference face. For a j-edge the returned set
    has size exactly j or n-2-j.
    """
    e = edge_key(u, v)
    boundary = faces.faces[ref_face]
    pos = {}
    for i, dart in enumerate(boundary):
        pos.setdefault(dart, i)
    first_at = {}
    for i, (tail, _) in enumerate(boundary):
        first_at.setdefault(tail, i)
    if u not in first_at or v not in first_at:
        raise ValueError("both endpoints must lie on the reference face")
    iu, iv = first_at[u], first_at[v]

    m = len(boundary)

    def half(i):
        # Darts from u's first visit up to v's first visit form half 1.
        return 1 if (i - iu) % m < (iv - iu) % m else 2

    curve_segs = set(_chain_segments(drawing, e))

    def node_for(face, dart):
        if face != ref_face:
            return face
        return ("split", half(pos[dart]))

    side = {("split", 1): 0}
    queue = [("split", 1)]
    adjacency = {}
    for s, (f_ab, f_ba) in faces.segment_sides.items():
        a, b = s
        n1 = node_for(f_ab, (a, b))
        n2 = node_for(f_ba, (b, a))
        flip = s in curve_segs
        adjacency.setdefault(n1, []).append((n2, flip))
        adjacency.setdefault(n2, []).append((n1, flip))
    # The chord through the face: crossing it flips sides too.
    adjacency.setdefault(("split", 1), []).append((("split", 2), True))
    adjacency.setdefault(("split", 2), []).append((("split", 1), True))

    while queue:
        x = queue.pop()
        for y, flip in adjacency[x]:
            ns = side[x] ^ flip
            known = side.get(y)
            if known is None:
                side[y] = ns
                queue.append(y)
            elif known != ns:
                raise EmbeddingError("inconsistent sides for split classification")

    out = set()
    for w in drawing.vertices:
        if w in (u, v):
            continue
        sides_seen = set()
        for x in drawing.rotations[w]:
            dart = (w, x)
            f = faces.dart_face[dart]
            sides_seen.add(side[node_for(f, dart)])
        if len(sides_seen) != 1:
            raise EmbeddingError(f"vertex {w} touches both sides of the curve")
        if sides_seen.pop() == 0:
            out.add(w)
    return frozenset(out)
