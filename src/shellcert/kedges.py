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
well defined. Face F is left of u -> v -> w iff that parity equals the
parity of a face known to lie left of the traversal. k-values are
defined on good drawings only, and the labelling refuses any other
drawing; in a good one the face left of the first segment of the edge
uv, its seed, lies left of u -> v -> w for every w, so one seed per
edge gives the parities of all its triangles.

A profile reads one packed word of F. The labelling lays out one bit
field per edge, in edge order, W bits wide with W a power of two of at
least max(8, n). Row i of the label placed in the fields of the edges at
v_i (one multiplication by a spread mask with a 1 at the low bit of each
such field), XORed over all rows and with the packed triangle constants,
gives F's word, which holds in the field of uv the witnesses of uv. A
read of one face (k_edge_profile, the deletion reads) forms the word so
from the label. A read of many faces (face_profiles) forms each word
from another with one XOR: the sweep records, for each face, the face it
was reached from and the edge crossed, and crossing the edge v_i v_j
flips bit j in the fields of the edges at v_i and bit i in those at v_j.
Face 0's word is the triangle constants alone. From the word on both
reads are one: masking and a SWAR bit count (neighbouring lanes of 1, 2,
4, ... bits added, each sum masked to its lane) turn every field into
its witness count at once, and one to_bytes reads all counts back. When
every count fits in a byte (n <= 257), a slice takes the low byte of
each field and one bytes.translate through a 256-entry table maps each
count m to min(m, n-2-m), so a profile's level counts are bytes.count
calls; a wider count is read from the low 8 bytes of its field by
int.from_bytes and folded on its own.

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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate
from math import comb
from operator import ge
from typing import NamedTuple

from .drawing import (Drawing, FaceSet, check_face, check_good, check_level, check_vertex,
                      edge_key, per_drawing, trace_faces, vertices_on_face)
# perfbench/layertrace.py wraps this name in this module by name
from .drawing import child_drawing  # noqa: F401
from .errors import quoted


class Orientation(enum.Enum):
    PLUS = "+"
    MINUS = "-"


def harary_hill_bound(n: int) -> int:
    """The conjectured crossing number H(n) of the complete graph."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be positive")
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def max_k(n: int) -> int:
    """Largest possible k-value in a drawing on n vertices."""
    return n // 2 - 1


@dataclass(frozen=True, eq=False)
class _Labelling:
    """Parity labelling of a drawing; vertices are numbered by position.

    face_bits[f] holds, at bits i*n + j and j*n + i, the parity of the
    segments of the edge {v_i, v_j} crossed on a dual path from face 0 to
    face f, so row i of a label (bits i*n .. i*n + n-1) is the witness
    mask of the edges at v_i. The path is the sweep's: every face f but
    face 0 was reached from face parent[f] across a segment of the edge
    at position crossed[f] in edge order (both 0 at face 0). edges maps
    each edge (v_i, v_j), i < j, in edge order to (i, j, rel, mask): rel
    holds at bit w the parity on the triangle {v_i, v_j, v_w} of every
    face left of v_i -> v_j -> v_w, and mask selects the n - 2 witnesses.

    The packed layout gives the edge at position p in that order the bits
    p*width .. p*width + width-1. spread[i] has a 1 at the low bit of the
    field of every edge at v_i; rel packs the rels; lanes are the masks of
    the SWAR bit count (low half of every lane of 2, 4, ..., width bits);
    witness packs the masks; fold maps a witness count 0..n-2 to its
    k-value (_fold). Nothing changes after construction: a read with a
    vertex deleted makes its own mask and table.
    """

    index: dict
    face_bits: list
    parent: list
    crossed: list
    edges: dict
    width: int
    spread: tuple
    rel: int
    lanes: tuple
    witness: int
    fold: bytes | tuple


def _pack(fields, width: int) -> int:
    """The ints in fields laid out width bits apart, the first lowest."""
    size = width // 8
    return int.from_bytes(b"".join(f.to_bytes(size, "little") for f in fields), "little")


def _build_labelling(drawing: Drawing, faces: FaceSet) -> _Labelling:
    index = {v: i for i, v in enumerate(drawing.vertices)}
    n = len(index)
    twin, face_of, walks = faces.twin, faces.face_of, faces.walks
    # position[d]: the position in edge order of the edge of dart d, whose
    # segment flips the label bits flip[position[d]]; seeds[e]: the indices
    # of e's ends and its seed, the face left of the first dart of its chain
    position = [0] * len(twin)
    flip = []
    seeds = {}
    for p, e in enumerate(drawing.edges()):
        i, j = index[e[0]], index[e[1]]
        flip.append((1 << (i * n + j)) | (1 << (j * n + i)))
        darts = drawing.chain_darts[e]
        for d in darts:
            position[d] = position[twin[d]] = p
        seeds[e] = (i, j, face_of[darts[0]])

    # the dual graph is connected, as the plane graph is: every node lies
    # on a chain, and the chains join every pair of vertices; each face
    # but face 0 records the face it was reached from and the position of
    # the edge crossed
    bits = [None] * len(walks)
    bits[0] = 0
    parent = [0] * len(walks)
    crossed = [0] * len(walks)
    order = [0]
    for f in order:
        pf = bits[f]
        for d in walks[f]:
            g = face_of[twin[d]]
            if bits[g] is None:
                p = position[d]
                bits[g] = pf ^ flip[p]
                parent[g] = f
                crossed[g] = p
                order.append(g)

    # The drawing is good, so every triangle is a simple closed curve and
    # the seed of v_i v_j lies left of v_i -> v_j -> v_w for every w: bit w
    # of its parity on the triangle {i, j, w} (the label bits of v_i v_w,
    # v_j v_w and v_i v_j) is the constant of that triangle.
    full = (1 << n) - 1
    edges = {}
    for e, (i, j, seed) in seeds.items():
        pf = bits[seed]
        mask = full ^ (1 << i) ^ (1 << j)
        rel = ((pf >> (i * n)) ^ (pf >> (j * n))) & mask
        if pf >> (i * n + j) & 1:
            rel ^= mask
        edges[e] = (i, j, rel, mask)
    return _lay_out(index, bits, parent, crossed, edges)


def _lay_out(index: dict, face_bits: list, parent: list, crossed: list,
            edges: dict) -> _Labelling:
    """The labelling with its packed masks, for the given sweep and the
    given edges in order."""
    n = len(index)
    width = max(8, 1 << (n - 1).bit_length())
    size = width // 8
    rows = [bytearray(len(edges) * size) for _ in range(n)]
    for p, (i, j, _, _) in enumerate(edges.values()):
        rows[i][p * size] = rows[j][p * size] = 1
    spread = [int.from_bytes(row, "little") for row in rows]
    whole = (1 << len(edges) * width) - 1
    lanes = []
    lane = 1
    while lane < width:
        lanes.append(whole // ((1 << 2 * lane) - 1) * ((1 << lane) - 1))
        lane *= 2
    return _Labelling(index, face_bits, parent, crossed, edges, width, tuple(spread),
                      _pack((rel for _, _, rel, _ in edges.values()), width), tuple(lanes),
                      _pack((m for _, _, _, m in edges.values()), width), _fold(n - 2))


@per_drawing
def _labelling(drawing: Drawing) -> _Labelling:
    check_good(drawing, "compute k-values")
    return _build_labelling(drawing, trace_faces(drawing))


def _right_of(lab: _Labelling, pf: int, u: int, v: int) -> int:
    """Bit w set iff the face labelled pf lies right of u -> v -> v_w."""
    i, j, rel, mask = lab.edges[edge_key(u, v)]
    n = len(lab.index)
    # The row XOR leaves out the label's own bit of uv, which complements
    # every witness, as does reversing the edge.
    right = ((pf >> (i * n)) ^ (pf >> (j * n)) ^ rel) & mask
    return right ^ mask if (pf >> (i * n + j)) & 1 != (u > v) else right


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
    right = _right_of(lab, lab.face_bits[check_face(drawing, ref_face)], u, v)
    return Orientation.MINUS if right >> w & 1 else Orientation.PLUS


def k_value(drawing: Drawing, ref_face: int, edge) -> int:
    """k-value of the edge with respect to the reference face."""
    u, v = _ends(edge)
    if check_vertex(drawing, u) == check_vertex(drawing, v):
        raise ValueError("an edge needs two distinct vertices")
    return k_edge_profile(drawing, ref_face).k_values[edge_key(u, v)]


def _ends(edge) -> tuple:
    """The ends (u, v) of an edge argument; ValueError unless it is a pair."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge must be a pair of vertices, got {quoted(edge)}") from None
    return u, v


def _fold(top: int):
    """k-value of each witness count 0..top: the smaller side; a
    bytes.translate table of 256 entries when every count fits in a byte."""
    fold = [m if 2 * m <= top else top - m for m in range(top + 1)]
    return bytes(fold).ljust(256, b"\0") if top < 256 else tuple(fold)


def _k_values(lab: _Labelling, pf: int, n: int, deleted: int | None = None) -> dict:
    """k-values of the edges for the face labelled pf, in edge order.

    With deleted set to the index of a vertex v, the k-values in the
    subdrawing without v, for its face that contains the labelled face:
    the edges at v are gone, and v is no longer a witness of the others.
    """
    values = _read_k_values(lab, pf, n, deleted)
    return {e: k for (e, (i, j, _, _)), k in zip(lab.edges.items(), values)
            if deleted != i and deleted != j}


def _read_k_values(lab: _Labelling, pf: int, n: int, deleted: int | None = None):
    """The k-values of every edge as _k_values defines them, in edge order:
    bytes when every count fits in a byte, a list otherwise. With a vertex
    deleted, the edges at it read 0. The face's word comes from its label
    pf, one row at a time; face_profiles makes it from a neighbour's."""
    mask, fold = lab.witness, lab.fold
    if deleted is not None:
        # v_deleted is no witness, and its edges are gone
        ones = ((1 << len(lab.edges) * lab.width) - 1) // ((1 << lab.width) - 1)
        mask &= ~((ones << deleted) | lab.spread[deleted] * ((1 << n) - 1))
        fold = _fold(n - 3)
    # field of v_i v_j: bit w set iff F lies right of v_i -> v_j -> v_w, a
    # - witness, up to complementing every witness (the label's own bit of
    # the edge, which taking the smaller side does not need)
    full = (1 << n) - 1
    x = lab.rel
    for i, spread in enumerate(lab.spread):
        x ^= ((pf >> (i * n)) & full) * spread
    return _count_witnesses(lab, x & mask, fold)


def _count_witnesses(lab: _Labelling, x: int, fold):
    """The folded witness count of every field of the packed word x, whose
    fields hold only witness bits, in edge order: bytes.translate of the
    low bytes when fold is a table, a list otherwise."""
    shift = 1
    for lane in lab.lanes:
        x = (x & lane) + ((x >> shift) & lane)
        shift *= 2
    size = lab.width // 8
    raw = x.to_bytes(len(lab.edges) * size, "little")
    if type(fold) is bytes:  # every count fits in the low byte of its field
        return raw[::size].translate(fold)
    # and in its low 8 bytes, as n - 2 < 2**64
    return [fold[int.from_bytes(raw[p:p + 8], "little")] for p in range(0, len(raw), size)]


def _cumulated(k_values, levels: int):
    """Level counts of the k-values and their cumulated counts, in which
    level i contributes k + 1 - i times to the value at every k >= i.
    k_values is bytes, as a profile reads them back, or any iterable of
    ints; each level count is one count call over the values."""
    values = k_values if type(k_values) is bytes else list(k_values)
    counts = tuple(map(values.count, range(levels)))
    return counts, tuple(accumulate(accumulate(counts)))


@dataclass(frozen=True, eq=False)
class KEdgeProfile:
    """Per-edge k-values plus the derived counters for one reference face.

    values holds the k-values in edge order, that of drawing.edges(), as
    they are read back: bytes up to n = 257, a list beyond. k_values, a
    dict built on its first read, maps every edge to its k-value in that
    order. counts[k] is the number of k-edges; cumulated[k] is the
    weighted sum of all counts up to k, each level i contributing
    (k + 1 - i) times.
    """

    reference_face: int
    values: bytes | list
    counts: tuple
    cumulated: tuple
    crossings: int
    edges: object = field(repr=False)  # the edges in edge order

    @cached_property
    def k_values(self) -> dict:
        return dict(zip(self.edges, self.values))


def k_edge_profile(drawing: Drawing, ref_face: int) -> KEdgeProfile:
    """The profile of the reference face, cached per drawing; the face is
    checked before the cache is read, as child_drawing checks its vertex."""
    return _profile(drawing, check_face(drawing, ref_face))


@per_drawing
def _profile(drawing: Drawing, ref_face: int) -> KEdgeProfile:
    lab = _labelling(drawing)
    return KEdgeProfile(ref_face, *_read_profile(lab, lab.face_bits[ref_face], drawing.n),
                        drawing.crossing_count(), lab.edges.keys())


def face_profiles(drawing: Drawing, face_ids):
    """(values, counts, cumulated) of k_edge_profile for each face id, in
    the order given, read one at a time and kept nowhere: no dict, no
    cache entry. The caller has checked the ids (check_face).

    No label is read: a face's packed word, which _read_k_values forms
    from its label's rows, is its sweep parent's word with the label bits
    of the edge v_i v_j crossed between them flipped, an XOR with
    (spread[i] << j) ^ (spread[j] << i), and face 0's word is rel. Each
    word is made once, from the nearest face back along the sweep whose
    word this call has made, and the words go when the call ends."""
    lab, n = _labelling(drawing), drawing.n
    spread, parent, crossed = lab.spread, lab.parent, lab.crossed
    ends = [(i, j) for i, j, _, _ in lab.edges.values()]
    mask, fold, levels = lab.witness, lab.fold, max_k(n) + 1
    words = [None] * len(parent)
    words[0] = lab.rel
    for f in face_ids:
        word = words[f]
        if word is None:
            path = []
            g = f
            while words[g] is None:
                path.append(g)
                g = parent[g]
            word = words[g]
            for g in reversed(path):
                i, j = ends[crossed[g]]
                word ^= (spread[i] << j) ^ (spread[j] << i)
                words[g] = word
        values = _count_witnesses(lab, word & mask, fold)
        yield (values, *_cumulated(values, levels))


def _read_profile(lab: _Labelling, pf: int, n: int) -> tuple:
    """The k-values of the face labelled pf as _read_k_values gives them,
    then their level counts and cumulated counts."""
    values = _read_k_values(lab, pf, n)
    return (values, *_cumulated(values, max_k(n) + 1))


def vertex_k_profile(drawing: Drawing, ref_face: int, v: int) -> tuple:
    """Cumulated k-values over the edges incident to v.

    When v lies on the reference face the value at index k is 2*C(k+2, 2)
    for every k <= n//2 - 2.
    """
    check_vertex(drawing, v)
    k_values = k_edge_profile(drawing, ref_face).k_values
    return _cumulated((k_values[edge_key(u, v)] for u in drawing.vertices if u != v),
                      max_k(drawing.n) + 1)[1]


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
    x = lab.index[check_vertex(drawing, v)]
    if drawing.n <= 3:
        raise ValueError("cannot delete a vertex of a 3-vertex drawing")
    before = k_edge_profile(drawing, ref_face).k_values
    child_k = _k_values(lab, lab.face_bits[check_face(drawing, ref_face)], drawing.n, x)
    parent_k = {e: before[e] for e in child_k}
    flags = {e: child_k[e] == parent_k[e] for e in child_k}
    counts = _cumulated((parent_k[e] for e, keep in flags.items() if keep),
                        max_k(drawing.n) + 1)[0]
    return InvariantReport(v, flags, parent_k, child_k, tuple(accumulate(counts)))


def recursion_check(parent: Drawing, ref_face: int, v: int, k: int) -> int:
    """Residual of the cumulated-count recursion for deleting v.

    Zero on every good drawing: the cumulated k-value of the drawing equals
    the cumulated (k-1)-value of the subdrawing, plus the contribution of
    the edges at v, plus the invariant edges across the deletion. The
    (k-1)-term is taken as 0 at k = 0.
    """
    n = parent.n
    check_level("k", k, n // 2 - 2)
    report = invariant_edges(parent, ref_face, v)
    lhs = k_edge_profile(parent, ref_face).cumulated[k]
    child_term = 0
    if k >= 1:
        child_term = _cumulated(report.child_k.values(), max_k(n - 1) + 1)[1][k - 1]
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
    if check_vertex(drawing, u) == check_vertex(drawing, v):
        raise ValueError("an edge needs two distinct vertices")
    pf = lab.face_bits[check_face(drawing, ref_face)]
    on_face = vertices_on_face(drawing, ref_face)
    if u not in on_face or v not in on_face:
        raise ValueError("both endpoints must lie on the reference face")
    right = _right_of(lab, pf, u, v)
    return frozenset(w for x, w in enumerate(drawing.vertices) if right >> x & 1)
