"""Planarized plane-graph model of good drawings of complete graphs.

A drawing of K_n on the sphere is stored combinatorially: real vertices and
crossing nodes, a counterclockwise rotation (cyclic neighbour order) at
every node, and for every original edge {u, v} the chain of nodes its curve
passes through. Faces are the orbits of the usual next-boundary-dart
permutation (reverse the dart, then step once in the rotation); with
counterclockwise rotations every face lies to the LEFT of each of its
boundary darts. The model is spherical: no face is intrinsically "outer".

Faces are traced over integer darts, and no (tail, head) tuple stands
for a dart. The Drawing numbers its darts while it checks its structure,
by node and then in rotation order: one pass over the chains pairs each
dart with its reverse (twin) and lists each chain's darts (chain_darts).
trace_faces reuses that numbering, and its FaceSet keeps the face on
each dart's left, every face's boundary walk and the node each dart
leaves as lists of ints. Other modules read a chain's darts off
chain_darts, number any other dart (a, b) as offset[a] plus b's index
in rotations[a], and read a dart's ends off tails and twin. A vertex
bounds a face iff the face lies left of one of its darts; that is the
one incidence rule, read for every face at once by face_vertex_table.

Everything here is immutable after construction. Derived structures
(faces, face-vertex tables, goodness reports, deletions, and the
labellings, profiles and tables of the other modules) are built by
functions decorated with per_drawing, which keeps one result per builder
and arguments on the drawing; they are shared freely.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import repeat

from .errors import EmbeddingError, StructureError, quoted

Edge = tuple  # (u, v) with u < v: an original edge of the complete graph


def edge_key(u: int, v: int) -> Edge:
    """The pair (u, v) in ascending order: an edge, or a segment's key."""
    return (u, v) if u < v else (v, u)


seg_key = edge_key


class Drawing:
    """Planarized plane graph of a drawing of a complete graph.

    vertices   -- labels of the real vertices (plain ints; sorted tuple)
    crossings  -- crossing node id -> frozenset of the two edges crossing there
    rotations  -- node id -> tuple of neighbour node ids in ccw order
    chains     -- edge (u, v), u < v -> tuple of node ids from u to v
    geometry   -- optional Geometry (coordinates and polylines); planarize
                  passes one that wraps its own records

    Vertex and crossing ids are plain ints (not bools), as are the ends of
    chain keys (u, v), u < v. Rotation and chain entries are matched by
    equality: a scan would cost ~4% of a load, for input no document
    holds, and drawing_to_document writes each entry as the node id it
    equals. crossings[c] holds the keys of the two chains that pass c;
    the declared pair of c is only checked, by membership as given.

    The rules on the whole are checked first, once. One pass over the
    chains checks the rest and numbers the darts: dart offset[x] + j is
    (x, rotations[x][j]), nodes taken in ascending order. twin[i] is the
    reverse of dart i, and chain_darts[e] lists the darts along e's chain
    from e[0] to e[1], so chain_darts[e][k] runs from chains[e][k] to
    chains[e][k + 1].
    """

    def __init__(self, vertices, crossings, rotations, chains, geometry=None):
        try:
            vertices = list(vertices)
        except TypeError:
            raise StructureError(
                f"vertices must be an iterable of vertex ids, got {quoted(vertices)}") from None
        for name, value in (("crossings", crossings), ("rotations", rotations),
                            ("chains", chains)):
            if not isinstance(value, Mapping):
                raise StructureError(f"{name} must be a mapping, got {quoted(value)}")
        _check_ids("vertex", vertices)
        _check_ids("crossing", crossings)
        vertices.sort()
        self.vertices = tuple(vertices)
        self.vertex_set = frozenset(self.vertices)
        n = len(vertices)
        if len(self.vertex_set) != n:
            repeated = next(u for u, v in zip(vertices, vertices[1:]) if u == v)
            raise StructureError(f"vertex id {quoted(repeated)} repeated")
        if n < 3:
            raise StructureError("a drawing needs at least 3 vertices")
        # the count comes first: the set of all pairs is quadratic in n
        if (len(chains) != n * (n - 1) // 2
                or chains.keys() != {(u, v) for i, u in enumerate(vertices)
                                     for v in vertices[i + 1:]}):
            raise StructureError("chains must cover every vertex pair exactly once")
        # the keys equal the vertex pairs, but True equals 1 and 0.0 equals 0
        for e in chains:
            if not {int}.issuperset(map(type, e)):
                raise StructureError(f"chain key {quoted(e)} is not a pair of plain ints")
        if not self.vertex_set.isdisjoint(crossings):
            raise StructureError("crossing ids overlap vertex ids")
        self.geometry = geometry
        self._cache = {}
        try:
            self.rotations = {x: tuple(rot) for x, rot in rotations.items()}
            self.chains = {e: tuple(ch) for e, ch in chains.items()}
            self.offset, self.twin, self.chain_darts, self.crossings = self._number_darts(crossings)
        except (_Fault, KeyError, ValueError, TypeError):
            self._validate(crossings, rotations, chains)  # raises the first fault
            raise

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self):
        return sorted(self.chains)

    def crossing_count(self) -> int:
        return len(self.crossings)

    @cached_property
    def segment_edge(self) -> dict:
        """Segment (a, b), a < b -> the edge whose chain holds it; built
        on its first read."""
        return {((a, b) if a < b else (b, a)): e
                for e, ch in self.chains.items() for a, b in zip(ch, ch[1:])}

    # -- construction-time consistency ----------------------------------

    def _number_darts(self, declared):
        """(offset, twin, chain_darts, crossings), built in one pass over
        the chains. Raises _Fault, or the KeyError, ValueError or
        TypeError of a failed lookup, if the structure is not sound.

        Each segment (a, b) of a chain pairs the dart of b in a's rotation
        with the dart of a in b's. A dart paired twice is a segment on two
        chains. A rotation entry that is not a neighbour along a chain, or
        that repeats one, leaves a dart unpaired, and a missing neighbour
        fails its lookup; so once every dart is paired, each rotation holds
        exactly its node's distinct neighbours, n - 1 of them at a vertex.
        A crossing's rotation of 4 then holds the neighbours of exactly two
        passing chains, whose keys must be in its declared pair of 2, and
        each must pass straight across: the darts by which it enters and
        leaves lie 2 apart in the rotation. crossings[c] is the frozenset
        of those two keys, made when the second passes.
        """
        chains, rotations = self.chains, self.rotations
        if rotations.keys() != self.vertex_set | declared.keys():
            raise _Fault
        # before the chain pass reads a pair by membership, which would
        # consume an iterator that has no length
        for c, pair in declared.items():
            if len(pair) != 2 or len(rotations[c]) != 4:
                raise _Fault
        offset = {}
        count = 0
        for x in sorted(rotations):
            offset[x] = count
            count += len(rotations[x])
        twin = [-1] * count
        chain_darts = {}
        passed = {}  # crossing -> the key of the chain that passed first, then both
        for e, ch in chains.items():
            if len(ch) < 2 or ch[0] != e[0] or ch[-1] != e[1] or len(set(ch)) != len(ch):
                raise _Fault
            a = ch[0]
            back = -1  # the dart from a back along the chain; none at e[0]
            darts = []
            for b in ch[1:]:
                i = offset[a] + rotations[a].index(b)
                j = offset[b] + rotations[b].index(a)
                if twin[i] >= 0 or twin[j] >= 0:
                    raise _Fault
                twin[i] = j
                twin[j] = i
                if back >= 0:
                    if e not in declared[a] or (i - back) % 4 != 2:
                        raise _Fault
                    f = passed.setdefault(a, e)
                    if f is not e:
                        passed[a] = frozenset((f, e))
                darts.append(i)
                a, back = b, j
            chain_darts[e] = darts
        if -1 in twin:
            raise _Fault
        # keyed by the declared ids: a chain entry need only equal its node
        return offset, twin, chain_darts, {c: passed[c] for c in declared}

    def _validate(self, declared, rotations, chains):
        """Raise StructureError for the first fault of the structure, in a
        fixed order, so a drawing with several faults is always rejected
        with the same message. It runs only once the one pass has met a
        fault, on the arguments as given, which it copies as it goes,
        starting at the crossing pairs: the rules on the whole come first.

        Once every chain has passed, each crossing has exactly four
        distinct neighbours (its two edges pass through it once each, and
        no segment lies on two chains) and each vertex exactly n - 1 (one
        per incident edge). A rotation of that length whose entries are
        distinct neighbours is therefore the node's whole neighbourhood,
        so no adjacency set is built.
        """
        n = self.n
        crossings = {c: _copy(frozenset, pair, f"crossing {quoted(c)} must join exactly two edges")
                     for c, pair in declared.items()}

        seg_edge = {}
        uses = dict.fromkeys(crossings, 0)
        for e, ch in chains.items():
            ch = _copy(tuple, ch, f"chain of {e} is not a sequence of node ids")
            if len(ch) < 2:
                raise StructureError(f"chain of {e} needs at least 2 nodes")
            if ch[0] != e[0] or ch[-1] != e[1]:
                raise StructureError(f"chain of {e} must run from {e[0]} to {e[1]}")
            if len(set(ch)) != len(ch):
                raise StructureError(f"chain of {e} revisits a node")
            for c in ch[1:-1]:
                pair = crossings.get(c)
                if pair is None:
                    raise StructureError(f"chain of {e} passes through unknown node {quoted(c)}")
                if e not in pair:
                    raise StructureError(f"crossing {quoted(c)} does not involve edge {e}")
                uses[c] += 1
            segments = [(a, b) if a < b else (b, a) for a, b in zip(ch, ch[1:])]
            if not seg_edge.keys().isdisjoint(segments):
                s = next(s for s in segments if s in seg_edge)
                raise StructureError(f"segment {quoted(s)} appears in two chains")
            seg_edge.update(zip(segments, repeat(e)))

        for c, pair in declared.items():
            # the pair counted as given, as the one pass counts it
            message = f"crossing {quoted(c)} must join exactly two edges"
            if _copy(len, pair, message) != 2:
                raise StructureError(message)
            # a chain passes a crossing at most once and only on its edges
            if uses[c] != 2:
                raise StructureError(f"crossing {quoted(c)} must lie on exactly its two edges")

        if rotations.keys() != self.vertex_set | crossings.keys():
            raise StructureError("rotations must list every node exactly once")

        def edge_of(x, y):
            # both orders, since an entry that is no node need not compare
            return seg_edge.get((x, y), seg_edge.get((y, x)))

        for x, rot in rotations.items():
            rot = _copy(tuple, rot, f"rotation at {quoted(x)} is not a sequence of node ids")
            if x in crossings:
                if len(rot) == 4:
                    ea, eb, ec, ed = (edge_of(x, y) for y in rot)
                    a, b, c, d = rot
                    # four distinct neighbours, the two of each edge opposite
                    if (ea == ec and eb == ed and ea != eb and ea is not None
                            and eb is not None and a != c and b != d):
                        continue
                    if None not in (ea, eb, ec, ed) and len(set(rot)) == 4:
                        raise StructureError(
                            f"crossing {quoted(x)}: the two segments of each edge must be "
                            f"opposite in the rotation")
            elif (len(rot) == n - 1 and len(set(rot)) == n - 1
                  and all(edge_of(x, y) is not None for y in rot)):
                continue
            raise StructureError(f"rotation at {quoted(x)} does not match incident segments")


class _Fault(Exception):
    """A fault met by Drawing._number_darts; the ordered check names it."""


def _check_ids(kind: str, ids) -> None:
    """StructureError naming the first of the ids that is no plain int."""
    if not {int}.issuperset(map(type, ids)):
        bad = next(x for x in ids if type(x) is not int)
        raise StructureError(f"{kind} id {quoted(bad)} is not a plain int")


def _copy(convert, value, message: str):
    """convert(value), which must hash; StructureError(message) on a TypeError."""
    try:
        copy = convert(value)
        hash(copy)
    except TypeError:
        raise StructureError(message) from None
    return copy


@dataclass(frozen=True, eq=False)
class FaceSet:
    """Faces of a drawing, traced from the rotation system over integer
    darts.

    Darts are numbered as the Drawing numbers them, by node, ascending,
    and then in rotation order: dart offset[x] + j is (x, rotations[x][j]),
    and offset and twin are the Drawing's own. twin[i] is the reverse of
    dart i, walks[f] is the boundary walk of face f as dart numbers, and
    face_of[i] is the face to the LEFT of dart i, so the two sides of the
    segment of dart i are face_of[i] and face_of[twin[i]].

    tails, built on its first read, holds the node each dart leaves: dart
    i runs from tails[i] to tails[twin[i]].
    """

    rotations: dict
    offset: dict
    twin: list
    walks: list
    face_of: list

    def face_count(self) -> int:
        return len(self.walks)

    def face_ids(self):
        return range(len(self.walks))

    @cached_property
    def tails(self) -> list:
        rot = self.rotations
        return [x for x in self.offset for _ in rot[x]]


def per_drawing(build):
    """Memoize build(drawing, ...) on the drawing, keyed by build itself
    and the positional arguments, so two builders never share an entry. A
    build that raises caches nothing; no build returns None."""

    @wraps(build)
    def cached(drawing, *args):
        key = (build, args)
        value = drawing._cache.get(key)
        if value is None:
            value = drawing._cache[key] = build(drawing, *args)
        return value

    return cached


@per_drawing
def trace_faces(drawing: Drawing) -> FaceSet:
    """Trace all faces of the drawing over the darts it numbered.

    Faces are numbered in the order of their first dart. The next boundary
    dart of the face LEFT of dart (a, b) is found by reversing it to
    (b, a) and stepping backward in the ccw rotation at b (stepping
    forward would trace the right-hand faces): succ[i] = prevs[twin[i]],
    where prevs[j] is the dart before j in its node's rotation. Raises
    EmbeddingError if the rotation system fails Euler's formula, i.e. does
    not describe a sphere embedding; the plane graph is connected, as
    every node lies on a chain and a chain joins every pair of vertices.
    """
    rot, offset, twin = drawing.rotations, drawing.offset, drawing.twin
    count = len(twin)
    # the dart before each in its rotation: the one numbered below it,
    # except for a node's first dart, which follows its last
    prevs = list(range(-1, count - 1))
    for x, start in offset.items():
        prevs[start] = start + len(rot[x]) - 1
    succ = list(map(prevs.__getitem__, twin))

    face_of = [-1] * count
    walks = []
    for first in range(count):
        if face_of[first] >= 0:
            continue
        f = len(walks)
        walk = [first]
        face_of[first] = f
        i = succ[first]
        while i != first:
            walk.append(i)
            face_of[i] = f
            i = succ[i]
        walks.append(walk)

    # Euler's formula: F - E + V = 2 on the sphere, two darts per segment
    euler = len(walks) - count // 2 + len(rot)
    if euler != 2:
        raise EmbeddingError(
            f"rotation system is not a sphere embedding (F-E+V = {euler})")

    return FaceSet(rot, offset, twin, walks, face_of)


def check_face(drawing: Drawing, face: int) -> int:
    """The face id, if the drawing has that face; ValueError otherwise.
    Every entry that takes a face id asks here; the certificate check
    raises CertificateMismatchError in its place."""
    if type(face) is not int or not 0 <= face < trace_faces(drawing).face_count():
        raise ValueError(f"face {quoted(face)} does not exist")
    return face


def is_vertex(drawing: Drawing, v) -> bool:
    """Whether v is a plain int among the drawing's vertices (True is not 1)."""
    return type(v) is int and v in drawing.vertex_set


def check_vertex(drawing: Drawing, v: int) -> int:
    """The vertex, if is_vertex holds; ValueError otherwise. Every entry
    that takes a vertex asks here, except the certificate check."""
    if not is_vertex(drawing, v):
        raise ValueError(f"{quoted(v)} is not a vertex of the drawing")
    return v


def check_deletable(drawing: Drawing, v: int) -> int:
    """The vertex, if check_vertex passes and the drawing has more than 3
    vertices; ValueError otherwise. Every entry that deletes a vertex, or
    reads k-values across a deletion, asks here."""
    check_vertex(drawing, v)
    if drawing.n <= 3:
        raise ValueError("cannot delete a vertex of a 3-vertex drawing")
    return v


def check_level(name: str, value, top: int) -> int:
    """The value, if it is a plain int in 0..top; ValueError otherwise.
    Every level argument (k, s, kmax) asks here."""
    if type(value) is not int or not 0 <= value <= top:
        raise ValueError(f"{name} must lie in 0..{top}, got {quoted(value)}")
    return value


def check_good(drawing: Drawing, action: str) -> None:
    """ValueError naming the first goodness violation, unless the drawing
    is good. Every entry that needs a good drawing asks here, saying what
    it cannot do."""
    report = validate_goodness(drawing)
    if not report:
        condition, (e, f) = report.violations[0]
        raise ValueError(f"cannot {action} of a drawing that is not good: "
                         f"edges {e} and {f} break condition ({condition})")


def vertices_on_face(drawing: Drawing, face: int) -> frozenset:
    """The real vertices that bound the face, read off face_vertex_table.

    May be empty: nothing guarantees that every face of a good drawing
    touches a real vertex.
    """
    return frozenset(face_vertex_table(drawing)[check_face(drawing, face)])


@per_drawing
def face_vertex_table(drawing: Drawing) -> list:
    """table[f] lists, ascending, the vertices with a dart that has face f
    on its left, those on f's boundary walk, read for every face in one
    pass over each vertex's n - 1 darts. Shared: never change it."""
    faces = trace_faces(drawing)
    table = [[] for _ in faces.walks]
    for v in drawing.vertices:
        start = faces.offset[v]
        for f in set(faces.face_of[start:start + drawing.n - 1]):
            table[f].append(v)
    return table


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of the goodness check; passes iff no violations."""

    ok: bool
    violations: tuple  # (condition index 1..5, offending edge pair)

    def __bool__(self):
        return self.ok


@per_drawing
def validate_goodness(drawing: Drawing) -> ValidationReport:
    """Check the goodness conditions that are visible combinatorially;
    cached per drawing.

    (4) two edges share at most one crossing; (5) adjacent edges never
    cross. Conditions (1)-(3) cannot be violated by a structurally valid
    Drawing: curves of a planarization meet only at its finitely many
    nodes, never tangentially, and every crossing node joins exactly two
    edges; geometric input that would break them is rejected at load time.
    """
    violations = []
    # each crossing that breaks (5) is listed; a pair that breaks (4) once
    for (e, f), count in Counter(drawing.crossings.values()).items():
        if e[0] in f or e[1] in f:
            violations += [(5, tuple(sorted((e, f))))] * count
        if count > 1:
            violations.append((4, tuple(sorted((e, f)))))
    violations.sort()
    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True, eq=False)
class FaceMap:
    """Maps each face of a drawing to the face of a one-vertex-deleted
    subdrawing whose region contains it."""

    mapping: dict
    deleted_vertex: int

    def __getitem__(self, face: int) -> int:
        return self.mapping[face]


def delete_vertex(drawing: Drawing, v: int):
    """Remove a real vertex: drop its edge chains and their crossings,
    smooth crossings that lose their partner edge, and track face merging.

    Returns (child, child_faces, face_map). The child carries no geometry.
    The union-find over deleted segments defines the merge: both old faces
    flanking a deleted segment land in the same child face. The drawing
    must be good; otherwise ValueError names its first goodness violation.
    """
    check_deletable(drawing, v)
    check_good(drawing, "delete a vertex")
    faces = trace_faces(drawing)

    dead_edges = {edge_key(v, u) for u in drawing.vertices if u != v}
    dead_nodes = {v}
    for c, pair in drawing.crossings.items():
        if pair & dead_edges:
            dead_nodes.add(c)

    live_chains = {}
    for e, ch in drawing.chains.items():
        if e not in dead_edges:
            live_chains[e] = tuple(x for x in ch if x not in dead_nodes)

    # the child numbers its darts as trace_faces does, by node and then in
    # rotation order; parent_darts lists the parent dart each one keeps
    new_rot = {}
    parent_darts = []
    for x in sorted(drawing.rotations):
        if x in dead_nodes:
            continue
        out = []
        for j, y in enumerate(drawing.rotations[x]):
            e = drawing.segment_edge[edge_key(x, y)]
            if e in dead_edges:
                continue
            out.append(_next_live(drawing.chains[e], x, y, dead_nodes))
            parent_darts.append(faces.offset[x] + j)
        new_rot[x] = tuple(out)

    live_cross = {c: p for c, p in drawing.crossings.items() if c not in dead_nodes}
    child = Drawing([u for u in drawing.vertices if u != v],
                    live_cross, new_rot, live_chains)
    child_faces = trace_faces(child)

    # Union-find over parent faces across every deleted segment.
    parent = list(range(faces.face_count()))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    face_of, twin = faces.face_of, faces.twin
    for e in dead_edges:
        for i in drawing.chain_darts[e]:
            r1, r2 = find(face_of[i]), find(face_of[twin[i]])
            if r1 != r2:
                parent[r2] = r1

    class_face = {}
    for i, f in zip(parent_darts, child_faces.face_of):
        prior = class_face.setdefault(find(face_of[i]), f)
        if prior != f:
            raise EmbeddingError("face merge classes disagree with traced child faces")
    mapping = {}
    for f in faces.face_ids():
        root = find(f)
        if root not in class_face:
            raise EmbeddingError("a merged face region lost its boundary")
        mapping[f] = class_face[root]

    return child, child_faces, FaceMap(mapping, v)


def _next_live(ch, x, y, dead):
    """First surviving node when walking the chain ch from x toward y."""
    i = ch.index(x)
    step = 1 if i + 1 < len(ch) and ch[i + 1] == y else -1
    j = i + step
    while ch[j] in dead:
        j += step
    return ch[j]


def child_drawing(drawing: Drawing, v: int):
    """delete_vertex, cached per drawing. The vertex is checked before the
    cache is read, since 1.0 and True are equal keys to 1."""
    return _cached_deletion(drawing, check_vertex(drawing, v))


_cached_deletion = per_drawing(delete_vertex)
