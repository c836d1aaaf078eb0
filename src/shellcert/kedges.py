"""k-edges, cumulated counts, and invariant edges under vertex deletion.

Fix a reference face F. Every edge uv together with a third vertex w forms
a triangle curve; since adjacent edges never cross in a good drawing, that
curve is simple and splits the sphere in two. The triangle's orientation is
+ iff F lies in the part to the left of the traversal u -> v -> w -> u.
The k-value of uv is min(i, n-2-i) where i counts the + witnesses.

Side classification is purely combinatorial and rests on one parity
labelling per drawing. A breadth-first sweep over face adjacencies, from
face 0, reaches every other face f across a segment of some edge; the
label of f would hold, for every edge, the parity of its segments crossed
on the sweep's path from face 0 to f. Two faces lie on the same side of a
closed curve iff their labels differ on the curve's edges in an even
number of bits. The labels depend on the sweep only up to vertex stars
(the set of edges at one vertex), and a triangle's three edges meet every
star in an even number of edges, so the parity of a face's label on a
triangle is well defined. Face F is left of u -> v -> w iff that parity
equals the parity of a face known to lie left of the traversal, which
is the triangle's constant. k-values are defined on good drawings only,
and the labelling refuses any other drawing; in a good one the face left
of the first segment of the edge uv, its seed, lies left of u -> v -> w
for every w, so one seed per edge gives the constants of all its
triangles.

No label is kept, and none is built: every face is read as one packed
word. The labelling lays out one bit field per edge, in edge order, W
bits wide with W a power of two of at least max(8, n). The field of
v_i v_j holds at each witness bit w the label bits of v_i v_w and v_j v_w
XORed with the constant of {v_i, v_j, v_w}, and at bits i and j the
label's own bit of v_i v_j; so its witnesses are the sides of the face
on the edge's triangles, all complemented iff its own bit is set. Every
read forms the word by walking the sweep: face 0's word is the packed
constants, rel, and crossing the edge v_i v_j flips bit j in the fields
of the edges at v_i and bit i in those at v_j, so any other face's word
is its sweep parent's with one XOR. The constants come from the same
walk: with rel laid out as 0, one walk makes the word of every seed, the
field of each edge is taken from its seed's word, and one separation
word (below) complements every field whose own bit is set, which leaves
in each the seed's parities, the constants. From the word on, masking
and a SWAR bit count (neighbouring lanes of 1, 2, 4, ... bits added,
each sum masked to its lane) turn every field into its witness count at
once, and one to_bytes reads all counts back. k-values are read for
drawings on at most 257 vertices, so every count fits in a byte: each
K_12 in a good K_258 has at least cr(K_12) = 150 crossings, so the K_258
has at least 150 * C(258, 4) / C(12, 4), over 54 million, far more than
memory holds. A slice takes the low byte of each field and one
bytes.translate through a 256-entry table maps each count m to min(m,
n-2-m), so a profile's level counts are bytes.count calls.

Deleting a vertex v is clearing one witness bit. Every triangle curve
through an edge that survives the deletion survives with it, and the face
of the subdrawing that contains F is a union of faces on one side of that
curve. So the k-value of a surviving edge in the subdrawing is
min(m', n-3-m'), where m' counts its - witnesses other than v, and it is
the parent's k-value or one less; the packed pass reads it with a
witness mask, made for that one read, that drops bit v from every field
and the fields of the edges at v. Invariant edges, the deletion
recursion and the sides of an edge closed through F are all read off
the parent's labelling; no subdrawing is built.

The same words tell which triangles separate a vertex from a face. A
face's separation word reads every field as _right_of reads one: fields
whose own label bit is set get their witnesses complemented, all at
once, by n - 1 AND and shift steps that gather those bits and one
product that fills their fields; the labelling keeps the masks of those
steps (highs). A vertex w lies on the side of every
triangle not through it that its corner faces lie on, so the XOR of the
separation words of F and of the face left of w's first dart, less w's
deletion mask (witness bit w in every field, and the fields of the
edges at w), marks exactly the triangles that avoid w and separate it
from F (separating_triangles). The bishellability search reads these.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import accumulate, tee
from math import comb
from operator import ge
from typing import NamedTuple

from .drawing import (Drawing, FaceSet, check_deletable, check_face, check_good, check_level,
                      check_vertex, edge_key, per_drawing, trace_faces, vertices_on_face)
# perfbench/layertrace.py wraps this name in this module by name
from .drawing import child_drawing  # noqa: F401
from .errors import quoted


class Orientation(enum.Enum):
    PLUS = "+"
    MINUS = "-"


def _check_n(n: int) -> int:
    """n, if it is a positive int (no bool); else ValueError."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be positive")
    return n


def harary_hill_bound(n: int) -> int:
    """The conjectured crossing number H(n) of the complete graph."""
    _check_n(n)
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def max_k(n: int) -> int:
    """Largest possible k-value in a drawing on n vertices."""
    return _check_n(n) // 2 - 1


@dataclass(frozen=True, eq=False)
class _Labelling:
    """Parity labelling of a drawing, kept as the sweep that made it and
    its packed masks; vertices are numbered by position.

    Every face f but face 0 was reached from face parent[f] across a
    segment of the edge at position crossed[f] in edge order (both 0 at
    face 0). edges maps each edge (v_i, v_j), i < j, in edge order to
    (i, j). The packed layout gives the edge at position p in that order
    the bits p*width .. p*width + width-1. spread[i] has a 1 at the low
    bit of the field of every edge at v_i, and highs[j - 1] at the low bit
    of the field of every edge v_i v_j, i < j. rel holds in the field of
    v_i v_j, at bit w, the constant of the triangle {v_i, v_j, v_w}, and
    is face 0's word; witness selects the n - 2 witness bits of every
    field; lanes are the masks of the SWAR bit count (low half of every
    lane of 2, 4, ..., width bits); fold maps a witness count 0..n-2 to
    its k-value (_fold). Nothing changes after construction: a read with
    a vertex deleted makes its own mask and table.
    """

    index: dict
    parent: list
    crossed: list
    edges: dict
    width: int
    spread: tuple
    highs: tuple
    rel: int
    lanes: tuple
    witness: int
    fold: bytes


def _build_labelling(drawing: Drawing, faces: FaceSet) -> _Labelling:
    index = {v: i for i, v in enumerate(drawing.vertices)}
    twin, face_of, walks = faces.twin, faces.face_of, faces.walks
    # position[d]: the position in edge order of the edge of dart d;
    # seeds[p]: the seed of the edge at position p, the face left of the
    # first dart of its chain
    position = [0] * len(twin)
    edges = {}
    seeds = []
    for p, e in enumerate(drawing.edges()):
        edges[e] = (index[e[0]], index[e[1]])
        darts = drawing.chain_darts[e]
        for d in darts:
            position[d] = position[twin[d]] = p
        seeds.append(face_of[darts[0]])

    # the dual graph is connected, as the plane graph is: every node lies
    # on a chain, and the chains join every pair of vertices; each face
    # but face 0 records the face it was reached from and the position of
    # the edge crossed
    parent = [None] * len(walks)
    parent[0] = 0
    crossed = [0] * len(walks)
    order = [0]
    for f in order:
        for d in walks[f]:
            g = face_of[twin[d]]
            if parent[g] is None:
                parent[g] = f
                crossed[g] = position[d]
                order.append(g)

    # The drawing is good, so every triangle is a simple closed curve and
    # the seed of v_i v_j lies left of v_i -> v_j -> v_w for every w: with
    # no constants laid out, the field of v_i v_j in its seed's word, read
    # as a separation word reads it, holds the seed's parity on every
    # triangle {v_i, v_j, v_w}, which is that triangle's constant.
    lab = _lay_out(index, parent, crossed, edges)
    low = (1 << lab.width) - 1
    gathered = 0
    for shift, word in zip(range(0, len(seeds) * lab.width, lab.width),
                           _face_words(lab, seeds)):
        gathered |= word & (low << shift)
    return replace(lab, rel=_separation_word(lab, gathered))


def _lay_out(index: dict, parent: list, crossed: list, edges: dict) -> _Labelling:
    """The labelling with its packed masks and no triangle constants (rel
    0), for the given sweep and the given edges in order."""
    n = len(index)
    fold = _fold(n - 2)
    width = max(8, 1 << (n - 1).bit_length())
    size = width // 8
    rows = [bytearray(len(edges) * size) for _ in range(n)]
    for p, (i, j) in enumerate(edges.values()):
        rows[i][p * size] = rows[j][p * size] = 1
    spread = [int.from_bytes(row, "little") for row in rows]
    highs, above = [], 0
    for row in reversed(spread[1:]):
        highs.append(row & ~above)
        above |= row
    highs.reverse()
    whole = (1 << len(edges) * width) - 1
    ones = whole // ((1 << width) - 1)
    # every field's low n bits, less its bits i and j
    witness = ones * ((1 << n) - 1) ^ sum(row << i for i, row in enumerate(spread))
    lanes = []
    lane = 1
    while lane < width:
        lanes.append(whole // ((1 << 2 * lane) - 1) * ((1 << lane) - 1))
        lane *= 2
    return _Labelling(index, parent, crossed, edges, width, tuple(spread), tuple(highs), 0,
                      tuple(lanes), witness, fold)


@per_drawing
def _labelling(drawing: Drawing) -> _Labelling:
    check_good(drawing, "compute k-values")
    return _build_labelling(drawing, trace_faces(drawing))


def _face_words(lab: _Labelling, face_ids):
    """The packed word of each face id in turn, the one way every read
    forms it: face 0's word is rel, and any other face's is its sweep
    parent's with the label bits of the edge v_i v_j crossed between them
    flipped, an XOR with (spread[i] << j) ^ (spread[j] << i). Each word is
    made once, from the nearest face back along the sweep whose word this
    call has made, and the words go when the call ends."""
    spread, parent, crossed = lab.spread, lab.parent, lab.crossed
    ends = list(lab.edges.values())
    words = {0: lab.rel}
    for f in face_ids:
        path = []
        g = f
        while g not in words:
            path.append(g)
            g = parent[g]
        word = words[g]
        for g in reversed(path):
            i, j = ends[crossed[g]]
            word ^= (spread[i] << j) ^ (spread[j] << i)
            words[g] = word
        yield word


def _face_word(lab: _Labelling, face: int) -> int:
    """The packed word of one face (_face_words)."""
    return next(_face_words(lab, (face,)))


@per_drawing
def _reference_word(drawing: Drawing, face: int) -> int:
    """The packed word of one reference face, kept on the drawing, so the
    one-face reads walk the sweep once per face; the caller has checked
    the id (check_face), since 1.0 and True are equal keys to 1."""
    return _face_word(_labelling(drawing), face)


def _right_of(lab: _Labelling, word: int, u: int, v: int) -> int:
    """Bit w set iff the face of the packed word lies right of u -> v -> v_w."""
    i, j = lab.edges[edge_key(u, v)]
    # the field of uv, the one field that both spread[i] and spread[j] mark
    field = word >> (lab.spread[i] & lab.spread[j]).bit_length() - 1
    mask = ((1 << len(lab.index)) - 1) ^ (1 << i) ^ (1 << j)
    # its bit j, the label's own bit of uv, complements every witness, as
    # does reversing the edge
    right = field & mask
    return right ^ mask if field >> j & 1 != (u > v) else right


def _deletion_mask(lab: _Labelling, x: int) -> int:
    """The triangles through v_x, in the packed layout: witness bit x in
    every field, and the low n bits of the field of every edge at v_x."""
    ones = ((1 << len(lab.edges) * lab.width) - 1) // ((1 << lab.width) - 1)
    return (ones << x) | lab.spread[x] * ((1 << len(lab.index)) - 1)


@dataclass(frozen=True, eq=False)
class _Separations:
    """Which triangles separate each vertex from a face, read off the
    drawing's labelling; vertices are numbered by position.

    corners[x] is the separation word (_separation_word) of the face left
    of v_x's first dart, face_of[offset[x]], and deletions[x] the
    triangles through v_x (_deletion_mask, witness bits only).
    """

    corners: tuple
    deletions: tuple


def _separation_word(lab: _Labelling, word: int) -> int:
    """The packed word with every field read as _right_of reads one: the
    field of v_i v_j, i < j, holds at bit w whether the face of the word
    lies right of v_i -> v_j -> v_w. In n - 1 steps each field's own label
    bit j, which highs[j - 1] picks, goes to its low bit, and one product
    fills every field whose bit is set, so that XOR complements its
    witnesses."""
    own = 0
    for j, high in enumerate(lab.highs, 1):
        own |= word >> j & high
    return (word ^ own * ((1 << len(lab.index)) - 1)) & lab.witness


@per_drawing
def _separations(drawing: Drawing) -> _Separations:
    lab = _labelling(drawing)
    faces = trace_faces(drawing)
    corners = _face_words(lab, [faces.face_of[faces.offset[v]] for v in drawing.vertices])
    return _Separations(tuple(_separation_word(lab, word) for word in corners),
                        tuple(_deletion_mask(lab, x) & lab.witness for x in range(drawing.n)))


def separating_triangles(drawing: Drawing, face_ids):
    """(face, rows) for each face id in turn, each id taken only when its
    pair is asked for, every word from one _face_words call and read as
    a separation word. rows[x] is (sep, deletion) for the vertex v_x at
    position x: sep, the face's separation word XORed with v_x's corner
    (_Separations) less its deletion mask, marks the triangles that avoid
    v_x and separate it from the face; deletion marks the triangles
    through v_x. The caller has checked the ids (check_face)."""
    lab, seps = _labelling(drawing), _separations(drawing)
    faces, ids = tee(face_ids)
    for face, word in zip(faces, _face_words(lab, ids)):
        word = _separation_word(lab, word)
        yield face, [((word ^ corner) & ~deletion, deletion)
                     for corner, deletion in zip(seps.corners, seps.deletions)]


def triangle_orientation(drawing: Drawing, ref_face: int, edge,
                         witness: int) -> Orientation:
    """Orientation of the triangle formed by the directed edge and the witness.

    Reversing the edge direction flips the sign.
    """
    u, v = _ends(edge)
    lab = _labelling(drawing)
    i, j, w = (lab.index[check_vertex(drawing, x)] for x in (u, v, witness))
    if len({i, j, w}) != 3:
        raise ValueError("edge endpoints and witness must be three distinct vertices")
    right = _right_of(lab, _reference_word(drawing, check_face(drawing, ref_face)), u, v)
    return Orientation.MINUS if right >> w & 1 else Orientation.PLUS


def k_value(drawing: Drawing, ref_face: int, edge) -> int:
    """k-value of the edge with respect to the reference face."""
    e = _edge_of(drawing, *_ends(edge))
    return k_edge_profile(drawing, ref_face).k_values[e]


def _edge_of(drawing: Drawing, u: int, v: int) -> tuple:
    """The edge key of uv, if u and v are two distinct vertices; else ValueError."""
    if check_vertex(drawing, u) == check_vertex(drawing, v):
        raise ValueError("an edge needs two distinct vertices")
    return edge_key(u, v)


def _ends(edge) -> tuple:
    """The ends (u, v) of an edge argument; ValueError unless it is a pair."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge must be a pair of vertices, got {quoted(edge)}") from None
    return u, v


def _fold(top: int) -> bytes:
    """k-value of each witness count 0..top, the smaller side, as a
    bytes.translate table of 256 entries; ValueError unless every count
    fits in a byte."""
    if top > 255:
        raise ValueError("k-values are read for drawings on at most 257 vertices")
    return bytes(m if 2 * m <= top else top - m for m in range(top + 1)).ljust(256, b"\0")


def _k_values(lab: _Labelling, word: int, deleted: int | None = None) -> dict:
    """k-values of the edges for the face of the packed word, in edge order.

    With deleted set to the index of a vertex v, the k-values in the
    subdrawing without v, for its face that contains the given face: the
    edges at v are gone, and v is no longer a witness of the others.
    """
    mask, fold = lab.witness, lab.fold
    if deleted is not None:
        mask &= ~_deletion_mask(lab, deleted)
        fold = _fold(len(lab.index) - 3)
    values = _count_witnesses(lab, word & mask, fold)
    return {e: k for (e, (i, j)), k in zip(lab.edges.items(), values)
            if deleted != i and deleted != j}


def _count_witnesses(lab: _Labelling, x: int, fold: bytes) -> bytes:
    """The folded witness count of every field of the packed word x, whose
    fields hold only witness bits, in edge order: every count fits in the
    low byte of its field, which bytes.translate folds."""
    shift = 1
    for lane in lab.lanes:
        x = (x & lane) + ((x >> shift) & lane)
        shift *= 2
    size = lab.width // 8
    return x.to_bytes(len(lab.edges) * size, "little")[::size].translate(fold)


def _level_counts(k_values, levels: int) -> tuple:
    """The number of k-values at each level 0..levels-1, one count call
    each; k_values is bytes, as a profile reads them back, or ints."""
    values = k_values if type(k_values) is bytes else list(k_values)
    return tuple(map(values.count, range(levels)))


def cumulated_counts(counts: tuple) -> tuple:
    """The cumulated counts of level counts, in which level i contributes
    k + 1 - i times to the value at every k >= i."""
    return tuple(accumulate(accumulate(counts)))


@dataclass(frozen=True, eq=False)
class KEdgeProfile:
    """Per-edge k-values plus the derived counters for one reference face.

    values holds the k-values in edge order, that of drawing.edges(), as
    the bytes they are read back in (n <= 257, _fold). k_values, a
    dict built on its first read, maps every edge to its k-value in that
    order. counts[k] is the number of k-edges; cumulated[k] is the
    weighted sum of all counts up to k, each level i contributing
    (k + 1 - i) times.
    """

    reference_face: int
    values: bytes
    counts: tuple
    cumulated: tuple
    crossings: int
    edges: object = field(repr=False)  # the edges in edge order

    @cached_property
    def k_values(self) -> dict:
        return dict(zip(self.edges, self.values))


def k_edge_profile(drawing: Drawing, ref_face: int) -> KEdgeProfile:
    """The profile of the reference face, cached per drawing; the face is
    checked before the cache is read, since 1.0 and True are equal keys to 1."""
    return _profile(drawing, check_face(drawing, ref_face))


@per_drawing
def _profile(drawing: Drawing, ref_face: int) -> KEdgeProfile:
    values, counts = next(face_profiles(drawing, (ref_face,)))
    return KEdgeProfile(ref_face, values, counts, cumulated_counts(counts),
                        drawing.crossing_count(), _labelling(drawing).edges.keys())


def face_profiles(drawing: Drawing, face_ids):
    """(values, counts) of k_edge_profile for each face id, in the order
    given, read one at a time and kept nowhere: no dict, no cache entry.
    The caller has checked the ids (check_face) and makes the cumulated
    counts it needs (cumulated_counts)."""
    lab = _labelling(drawing)
    mask, fold, levels = lab.witness, lab.fold, max_k(drawing.n) + 1
    for word in _face_words(lab, face_ids):
        values = _count_witnesses(lab, word & mask, fold)
        yield values, _level_counts(values, levels)


def vertex_k_profile(drawing: Drawing, ref_face: int, v: int) -> tuple:
    """Cumulated k-values over the edges incident to v.

    When v lies on the reference face the value at index k is 2*C(k+2, 2)
    for every k <= n//2 - 2.
    """
    check_vertex(drawing, v)
    k_values = k_edge_profile(drawing, ref_face).k_values
    return cumulated_counts(_level_counts(
        (k_values[edge_key(u, v)] for u in drawing.vertices if u != v), max_k(drawing.n) + 1))


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


def invariant_edges(drawing: Drawing, ref_face: int, v: int) -> InvariantReport:
    """Classify every edge that survives deleting v as invariant or not.

    The k-values after the deletion are those of the subdrawing without v,
    for its face that contains the reference face. They are read from the
    drawing's own labelling by dropping v as a witness, so each is the
    k-value before the deletion or one less.
    """
    lab = _labelling(drawing)
    x = lab.index[check_deletable(drawing, v)]
    before = k_edge_profile(drawing, ref_face).k_values
    child_k = _k_values(lab, _reference_word(drawing, check_face(drawing, ref_face)), x)
    parent_k = {e: before[e] for e in child_k}
    flags = {e: child_k[e] == parent_k[e] for e in child_k}
    counts = _level_counts((parent_k[e] for e, keep in flags.items() if keep),
                           max_k(drawing.n) + 1)
    return InvariantReport(v, flags, parent_k, child_k, tuple(accumulate(counts)))


def recursion_check(parent: Drawing, ref_face: int, v: int, k: int) -> int:
    """Residual of the cumulated-count recursion for deleting v.

    Zero on every good drawing: the cumulated k-value of the drawing equals
    the cumulated (k-1)-value of the subdrawing, plus the contribution of
    the edges at v, plus the invariant edges across the deletion. The
    (k-1)-term is taken as 0 at k = 0.
    """
    n = parent.n
    check_deletable(parent, v)
    check_level("k", k, n // 2 - 2)
    report = invariant_edges(parent, ref_face, v)
    lhs = k_edge_profile(parent, ref_face).cumulated[k]
    child_term = 0
    if k >= 1:
        child_term = cumulated_counts(
            _level_counts(report.child_k.values(), max_k(n - 1) + 1))[k - 1]
    at_v = vertex_k_profile(parent, ref_face, v)[k]
    return lhs - (child_term + at_v + report.cumulated[k])


class BoundRow(NamedTuple):
    k: int
    cumulated: int
    threshold: int
    ok: bool


def cumulative_bound_check(drawing: Drawing, ref_face: int, kmax: int):
    """Compare cumulated k-edge counts against 3*C(k+3, 3) for k <= kmax.

    If every row passes up to k = n//2 - 2, the drawing has at least H(n)
    crossings: with m = n//2 - 2, cr(D) = 2*sum(E_k, k <= m) - C(n,2) *
    floor((n-2)/2)/2 - (1+(-1)^n)/2 * E_m for the cumulated counts E_k of
    any face, every E_k has a positive coefficient, and the thresholds in
    place of the E_k give exactly H(n) (TestCrossingIdentity in
    tests/test_kedges.py checks both, the latter for n <= 60).
    """
    check_kmax(drawing.n, kmax)
    cumulated = k_edge_profile(drawing, ref_face).cumulated
    return tuple(map(BoundRow._make, bound_rows(cumulated, kmax)))


def check_kmax(n: int, kmax: int) -> int:
    """kmax, if a drawing on n vertices has bound levels 0..kmax; else ValueError."""
    if max_k(n) == 0:
        raise ValueError(f"a drawing on {n} vertices has no bound levels")
    return check_level("kmax", kmax, max_k(n) - 1)


def bound_rows(cumulated: tuple, kmax: int):
    """(k, cumulated[k], 3*C(k+3, 3), passed) for k = 0..kmax, unchecked."""
    thresholds = _thresholds(kmax)
    return zip(range(kmax + 1), cumulated, thresholds, map(ge, cumulated, thresholds))


@cache
def _thresholds(kmax: int) -> tuple:
    """3*C(k+3, 3) for k = 0..kmax."""
    return tuple(3 * comb(k + 3, 3) for k in range(kmax + 1))


def edge_side_partition(drawing: Drawing, ref_face: int, u: int, v: int) -> frozenset:
    """Vertices on one fixed side of the closed curve made of the edge uv
    and a chord through the reference face joining its endpoints: the
    vertices w other than u and v for which F lies right of u -> v -> w.

    Requires u and v on the reference face. For a j-edge the returned set
    has size exactly j or n-2-j.
    """
    lab = _labelling(drawing)
    _edge_of(drawing, u, v)
    word = _reference_word(drawing, check_face(drawing, ref_face))
    on_face = vertices_on_face(drawing, ref_face)
    if u not in on_face or v not in on_face:
        raise ValueError("both endpoints must lie on the reference face")
    right = _right_of(lab, word, u, v)
    return frozenset(w for x, w in enumerate(drawing.vertices) if right >> x & 1)
