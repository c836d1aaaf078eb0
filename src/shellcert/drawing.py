"""Planarized plane-graph model of good drawings of complete graphs.

A drawing of K_n on the sphere is stored combinatorially: real vertices and
crossing nodes, a counterclockwise rotation (cyclic neighbour order) at
every node, and for every original edge {u, v} the chain of nodes its curve
passes through. Faces are the orbits of the usual next-boundary-dart
permutation (reverse the dart, then step once in the rotation); with
counterclockwise rotations every face lies to the LEFT of each of its
boundary darts. The model is spherical: no face is intrinsically "outer".

Everything here is immutable after construction. Derived structures
(faces, deletions, and the labellings, profiles and tables of the other
modules) are built by functions decorated with per_drawing, which keeps
one result per builder and arguments on the drawing; they are shared
freely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import repeat

from .errors import EmbeddingError, StructureError, quoted

Edge = tuple  # (u, v) with u < v: an original edge of the complete graph
Dart = tuple  # (tail, head): a directed segment between adjacent nodes


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def seg_key(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


class Drawing:
    """Planarized plane graph of a drawing of a complete graph.

    vertices   -- labels of the real vertices (any ints; sorted tuple)
    crossings  -- crossing node id -> frozenset of the two edges crossing there
    rotations  -- node id -> tuple of neighbour node ids in ccw order
    chains     -- edge (u, v), u < v -> tuple of node ids from u to v
    geometry   -- optional Geometry annotation (coordinates and polylines),
                  or a function of no arguments that builds it; it is then
                  called on the first read of drawing.geometry, once
    """

    def __init__(self, vertices, crossings, rotations, chains, geometry=None):
        self.vertices = tuple(sorted(vertices))
        self.vertex_set = frozenset(self.vertices)
        self.crossings = {c: frozenset(map(tuple, pair)) for c, pair in crossings.items()}
        self.rotations = {x: tuple(rot) for x, rot in rotations.items()}
        self.chains = {((u, v) if u < v else (v, u)): tuple(ch)
                       for (u, v), ch in chains.items()}
        self._geometry = geometry
        self._cache = {}
        self.segment_edge = self._validate()

    @property
    def geometry(self):
        geo = self._geometry
        if callable(geo):
            geo = self._geometry = geo()
        return geo

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self):
        return sorted(self.chains)

    def crossing_count(self) -> int:
        return len(self.crossings)

    # -- construction-time consistency ----------------------------------

    def _validate(self):
        """Check the structure and return the segment -> edge map.

        Checks run in a fixed order, so a drawing with several faults is
        always rejected with the same message. Once every chain has passed,
        each crossing has exactly four distinct neighbours (its two edges
        pass through it once each, and no segment lies on two chains) and
        each vertex exactly n - 1 (one per incident edge). A rotation of
        that length whose entries are distinct neighbours is therefore the
        node's whole neighbourhood, so no adjacency set is built.
        """
        n = self.n
        if n < 3:
            raise StructureError("a drawing needs at least 3 vertices")
        verts = self.vertices
        chains, crossings, rotations = self.chains, self.crossings, self.rotations
        # the count comes first: the set of all pairs is quadratic in n
        if (len(chains) != n * (n - 1) // 2
                or chains.keys() != {(u, v) for i, u in enumerate(verts)
                                     for v in verts[i + 1:]}):
            raise StructureError("chains must cover every vertex pair exactly once")
        if not self.vertex_set.isdisjoint(crossings):
            raise StructureError("crossing ids overlap vertex ids")

        seg_edge = {}
        uses = dict.fromkeys(crossings, 0)
        for e, ch in chains.items():
            if len(ch) < 2:
                raise StructureError(f"chain of {e} needs at least 2 nodes")
            if ch[0] != e[0] or ch[-1] != e[1]:
                raise StructureError(f"chain of {e} must run from {e[0]} to {e[1]}")
            if len(set(ch)) != len(ch):
                raise StructureError(f"chain of {e} revisits a node")
            for c in ch[1:-1]:
                pair = crossings.get(c)
                if pair is None:
                    raise StructureError(f"chain of {e} passes through unknown node {c}")
                if e not in pair:
                    raise StructureError(f"crossing {c} does not involve edge {e}")
                uses[c] += 1
            segments = [(a, b) if a < b else (b, a) for a, b in zip(ch, ch[1:])]
            if not seg_edge.keys().isdisjoint(segments):
                s = next(s for s in segments if s in seg_edge)
                raise StructureError(f"segment {s} appears in two chains")
            seg_edge.update(zip(segments, repeat(e)))

        for c, pair in crossings.items():
            if len(pair) != 2:
                raise StructureError(f"crossing {c} must join exactly two edges")
            # a chain passes a crossing at most once and only on its edges
            if uses[c] != 2:
                raise StructureError(f"crossing {c} must lie on exactly its two edges")

        if rotations.keys() != self.vertex_set | crossings.keys():
            raise StructureError("rotations must list every node exactly once")
        for x, rot in rotations.items():
            if x in crossings:
                if len(rot) == 4:
                    a, b, c, d = rot
                    ea = seg_edge.get((x, a) if x < a else (a, x))
                    eb = seg_edge.get((x, b) if x < b else (b, x))
                    ec = seg_edge.get((x, c) if x < c else (c, x))
                    ed = seg_edge.get((x, d) if x < d else (d, x))
                    # four distinct neighbours, the two of each edge opposite
                    if (ea == ec and eb == ed and ea != eb and ea is not None
                            and eb is not None and a != c and b != d):
                        continue
                    if None not in (ea, eb, ec, ed) and len(set(rot)) == 4:
                        raise StructureError(
                            f"crossing {x}: the two segments of each edge must be "
                            f"opposite in the rotation")
            elif (len(rot) == n - 1 and len(set(rot)) == n - 1
                  and all(((x, y) if x < y else (y, x)) in seg_edge for y in rot)):
                continue
            raise StructureError(f"rotation at {x} does not match incident segments")
        return seg_edge

    # -- canonical comparable form ---------------------------------------

    def canonical_form(self):
        """Hashable summary for equality of labeled planarized graphs.

        Rotations are compared as cyclic sequences (rotated so the smallest
        neighbour comes first); chain direction is fixed by the edge key.
        """
        rots = {}
        for x, rot in self.rotations.items():
            i = rot.index(min(rot))
            rots[x] = rot[i:] + rot[:i]
        return (
            self.vertices,
            tuple(sorted((c, tuple(sorted(p))) for c, p in self.crossings.items())),
            tuple(sorted(rots.items())),
            tuple(sorted(self.chains.items())),
        )


@dataclass(frozen=True, eq=False)
class FaceSet:
    """Faces of a drawing, traced from the rotation system.

    faces[i] is the boundary walk of face i as a tuple of darts; the face
    lies to the left of each dart. dart_face maps each dart to its face;
    the two sides of a segment (a, b) are dart_face[(a, b)] and
    dart_face[(b, a)].
    """

    faces: tuple
    dart_face: dict

    def face_count(self) -> int:
        return len(self.faces)

    def face_ids(self):
        return range(len(self.faces))


def per_drawing(build):
    """Memoize build(drawing, ...) on the drawing, keyed by build itself
    and the arguments as given, so two builders never share an entry. A
    build that raises caches nothing; no build returns None."""

    @wraps(build)
    def cached(drawing, *args, **kwargs):
        key = (build, args, *kwargs.items())
        value = drawing._cache.get(key)
        if value is None:
            value = drawing._cache[key] = build(drawing, *args, **kwargs)
        return value

    return cached


@per_drawing
def trace_faces(drawing: Drawing) -> FaceSet:
    """Trace all faces of the drawing over integer dart indices.

    Darts (node, nbr) are numbered by node and then in rotation order, and
    faces in the order of their first dart. succ[i] is the next boundary
    dart of the face LEFT of dart i: reverse (a, b) to (b, a), then step
    backward in the ccw rotation at b (stepping forward would trace the
    right-hand faces). Raises EmbeddingError if the rotation system fails
    Euler's formula, i.e. does not describe a sphere embedding; the plane
    graph is connected, as every node lies on a chain and a chain joins
    every pair of vertices.
    """
    rot = drawing.rotations
    darts = [(node, nbr) for node in sorted(rot) for nbr in rot[node]]
    index = dict(zip(darts, range(len(darts))))
    succ = [0] * len(darts)
    for b, nbrs in rot.items():
        start = index[(b, nbrs[0])]
        prev = start + len(nbrs) - 1
        for j, a in enumerate(nbrs, start):
            succ[index[(a, b)]] = prev
            prev = j

    face_of = [-1] * len(darts)
    walks = []
    for first in range(len(darts)):
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

    faces = tuple(tuple(map(darts.__getitem__, walk)) for walk in walks)
    # keys in face order, each face's darts in boundary order
    dart_face = {d: f for f, face in enumerate(faces) for d in face}

    # Euler's formula: F - E + V = 2 on the sphere.
    euler = len(faces) - len(drawing.segment_edge) + len(rot)
    if euler != 2:
        raise EmbeddingError(
            f"rotation system is not a sphere embedding (F-E+V = {euler})")

    return FaceSet(faces, dart_face)


def check_face(drawing: Drawing, face: int) -> int:
    """The face id, if the drawing has that face; ValueError otherwise.
    Every entry that takes a face id asks here, except the certificate
    check, which raises CertificateMismatchError."""
    if not 0 <= face < trace_faces(drawing).face_count():
        raise ValueError(f"face {quoted(face)} does not exist")
    return face


def check_vertex(drawing: Drawing, v: int) -> int:
    """The vertex, if the drawing has it; ValueError otherwise. Every entry
    that takes a vertex asks here, except the certificate check."""
    if v not in drawing.vertex_set:
        raise ValueError(f"{v} is not a vertex of the drawing")
    return v


def vertices_on_face(drawing: Drawing, face: int) -> frozenset:
    """Real vertices appearing on the boundary walk of the face.

    May be empty: nothing guarantees that every face of a good drawing
    touches a real vertex.
    """
    walk = trace_faces(drawing).faces[check_face(drawing, face)]
    return frozenset(a for a, _ in walk if a in drawing.vertex_set)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of the goodness check; passes iff no violations."""

    ok: bool
    violations: tuple  # (condition index 1..5, offending edge pair)

    def __bool__(self):
        return self.ok


def validate_goodness(drawing: Drawing) -> ValidationReport:
    """Check the goodness conditions that are visible combinatorially.

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
    check_vertex(drawing, v)
    if drawing.n <= 3:
        raise ValueError("cannot delete a vertex of a 3-vertex drawing")
    report = validate_goodness(drawing)
    if not report:
        condition, (e, f) = report.violations[0]
        raise ValueError(f"cannot delete a vertex of a drawing that is not good: "
                         f"edges {e} and {f} break condition ({condition})")
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

    new_rot = {}
    parent_dart = {}
    for x, rot in drawing.rotations.items():
        if x in dead_nodes:
            continue
        out = []
        for y in rot:
            e = drawing.segment_edge[seg_key(x, y)]
            if e in dead_edges:
                continue
            z = _next_live(drawing.chains[e], x, y, dead_nodes)
            out.append(z)
            parent_dart[(x, z)] = (x, y)
        new_rot[x] = tuple(out)

    live_cross = {c: p for c, p in drawing.crossings.items() if c not in dead_nodes}
    child = Drawing([u for u in drawing.vertices if u != v],
                    live_cross, new_rot, live_chains)
    child_faces = trace_faces(child)

    # Union-find over parent faces across every deleted segment.
    parent = list(range(len(faces.faces)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    dart_face = faces.dart_face
    for e in dead_edges:
        ch = drawing.chains[e]
        for a, b in zip(ch, ch[1:]):
            r1, r2 = find(dart_face[(a, b)]), find(dart_face[(b, a)])
            if r1 != r2:
                parent[r2] = r1

    class_face = {}
    for dart, f in child_faces.dart_face.items():
        root = find(dart_face[parent_dart[dart]])
        prior = class_face.setdefault(root, f)
        if prior != f:
            raise EmbeddingError("face merge classes disagree with traced child faces")
    mapping = {}
    for f in range(len(faces.faces)):
        root = find(f)
        if root not in class_face:
            raise EmbeddingError("a merged face region lost its boundary")
        mapping[f] = class_face[root]

    return child, child_faces, FaceMap(mapping, v)


def _next_live(chain, x, y, dead):
    """First surviving node when walking the chain from x toward y."""
    i = chain.index(x)
    step = 1 if i + 1 < len(chain) and chain[i + 1] == y else -1
    j = i + step
    while chain[j] in dead:
        j += step
    return chain[j]


@per_drawing
def child_drawing(drawing: Drawing, v: int):
    """delete_vertex, cached per drawing."""
    return delete_vertex(drawing, v)
