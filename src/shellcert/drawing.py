"""Planarized plane-graph model of good drawings of complete graphs.

A drawing of K_n on the sphere is stored combinatorially: real vertices and
crossing nodes, a counterclockwise rotation (cyclic neighbour order) at
every node, and for every original edge {u, v} the chain of nodes its curve
passes through. Faces are the orbits of the usual next-boundary-dart
permutation (reverse the dart, then step once in the rotation); with
counterclockwise rotations every face lies to the LEFT of each of its
boundary darts. The model is spherical: no face is intrinsically "outer".

Everything here is immutable after construction; derived structures
(faces, deletions) are cached on the drawing and shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmbeddingError, StructureError

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
    geometry   -- optional Geometry annotation (coordinates and polylines)
    """

    def __init__(self, vertices, crossings, rotations, chains, geometry=None):
        self.vertices = tuple(sorted(vertices))
        self.vertex_set = frozenset(self.vertices)
        self.crossings = {c: frozenset(map(tuple, pair)) for c, pair in crossings.items()}
        self.rotations = {x: tuple(rot) for x, rot in rotations.items()}
        self.chains = {edge_key(*e): tuple(ch) for e, ch in chains.items()}
        self.geometry = geometry
        self._cache = {}
        self.segment_edge = self._validate()

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self):
        return sorted(self.chains)

    def is_vertex(self, x) -> bool:
        return x in self.vertex_set

    def nodes(self):
        return sorted(self.rotations)

    def segment_count(self) -> int:
        return len(self.segment_edge)

    def crossing_count(self) -> int:
        return len(self.crossings)

    # -- construction-time consistency ----------------------------------

    def _validate(self):
        if self.n < 3:
            raise StructureError("a drawing needs at least 3 vertices")
        verts = self.vertices
        # the count comes first: the set of all pairs is quadratic in n
        if (len(self.chains) != self.n * (self.n - 1) // 2
                or set(self.chains) != {(u, v) for i, u in enumerate(verts)
                                        for v in verts[i + 1:]}):
            raise StructureError("chains must cover every vertex pair exactly once")
        if self.vertex_set & set(self.crossings):
            raise StructureError("crossing ids overlap vertex ids")

        seg_edge = {}
        uses = {c: [] for c in self.crossings}
        for e, ch in self.chains.items():
            if ch[0] != e[0] or ch[-1] != e[1]:
                raise StructureError(f"chain of {e} must run from {e[0]} to {e[1]}")
            if len(set(ch)) != len(ch):
                raise StructureError(f"chain of {e} revisits a node")
            for c in ch[1:-1]:
                pair = self.crossings.get(c)
                if pair is None:
                    raise StructureError(f"chain of {e} passes through unknown node {c}")
                if e not in pair:
                    raise StructureError(f"crossing {c} does not involve edge {e}")
                uses[c].append(e)
            for a, b in zip(ch, ch[1:]):
                s = seg_key(a, b)
                if s in seg_edge:
                    raise StructureError(f"segment {s} appears in two chains")
                seg_edge[s] = e

        for c, pair in self.crossings.items():
            if len(pair) != 2:
                raise StructureError(f"crossing {c} must join exactly two edges")
            if sorted(uses[c]) != sorted(pair):
                raise StructureError(f"crossing {c} must lie on exactly its two edges")

        adjacency = {x: set() for x in list(self.vertices) + list(self.crossings)}
        for a, b in seg_edge:
            adjacency[a].add(b)
            adjacency[b].add(a)
        if set(self.rotations) != set(adjacency):
            raise StructureError("rotations must list every node exactly once")
        for x, rot in self.rotations.items():
            if len(rot) != len(set(rot)) or set(rot) != adjacency[x]:
                raise StructureError(f"rotation at {x} does not match incident segments")
            if x in self.crossings:
                if len(rot) != 4:
                    raise StructureError(f"crossing {x} must have degree 4")
                e0 = seg_edge[seg_key(x, rot[0])]
                e1 = seg_edge[seg_key(x, rot[1])]
                e2 = seg_edge[seg_key(x, rot[2])]
                e3 = seg_edge[seg_key(x, rot[3])]
                if not (e0 == e2 and e1 == e3 and e0 != e1):
                    raise StructureError(
                        f"crossing {x}: the two segments of each edge must be "
                        f"opposite in the rotation")
            elif len(rot) != self.n - 1:
                raise StructureError(f"vertex {x} must have degree n-1")
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
class Geometry:
    """Optional planar coordinates: node positions, edge polylines, and the
    polyline piece backing each chain segment (oriented along the chain)."""

    points: dict       # node id -> (x, y)
    polylines: dict    # edge -> tuple of points from u to v
    segment_paths: dict  # dart along the chain -> tuple of points

    def segment_path(self, a: int, b: int):
        path = self.segment_paths.get((a, b))
        if path is not None:
            return path
        return tuple(reversed(self.segment_paths[(b, a)]))


@dataclass(frozen=True, eq=False)
class FaceSet:
    """Faces of a drawing, traced from the rotation system.

    faces[i] is the boundary walk of face i as a tuple of darts; the face
    lies to the left of each dart. segment_sides maps a sorted segment
    (a, b) to (face left of a->b, face left of b->a).
    """

    faces: tuple
    dart_face: dict
    segment_sides: dict

    def face_count(self) -> int:
        return len(self.faces)

    def face_ids(self):
        return range(len(self.faces))


def trace_faces(drawing: Drawing) -> FaceSet:
    """Trace all faces of the drawing; cached per drawing.

    Raises EmbeddingError if the rotation system is disconnected or fails
    Euler's formula (i.e. it does not describe a sphere embedding).
    """
    fs = drawing._cache.get("faces")
    if fs is None:
        fs = _trace(drawing)
        drawing._cache["faces"] = fs
    return fs


def _trace(drawing: Drawing) -> FaceSet:
    # Next boundary dart of the face LEFT of (a, b): reverse to (b, a), then
    # step backward in the ccw rotation at b. (Stepping forward would trace
    # the right-hand faces instead.)
    rot = drawing.rotations
    pred = {}
    for node, nbrs in rot.items():
        for i, a in enumerate(nbrs):
            pred[(node, a)] = nbrs[i - 1]

    faces = []
    dart_face = {}
    for node in sorted(rot):
        for nbr in rot[node]:
            if (node, nbr) in dart_face:
                continue
            walk = []
            cur = (node, nbr)
            while cur not in dart_face:
                dart_face[cur] = len(faces)
                walk.append(cur)
                a, b = cur
                cur = (b, pred[(b, a)])
            faces.append(tuple(walk))

    segment_sides = {}
    for a, b in drawing.segment_edge:
        segment_sides[(a, b)] = (dart_face[(a, b)], dart_face[(b, a)])

    # Connectivity + Euler check: F - E + V = 2 on the sphere.
    seen = {next(iter(rot))}
    stack = [next(iter(rot))]
    while stack:
        x = stack.pop()
        for y in rot[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(rot):
        raise EmbeddingError("drawing is not connected")
    euler = len(faces) - len(drawing.segment_edge) + len(rot)
    if euler != 2:
        raise EmbeddingError(
            f"rotation system is not a sphere embedding (F-E+V = {euler})")

    return FaceSet(tuple(faces), dart_face, segment_sides)


def vertices_on_face(drawing: Drawing, faces: FaceSet, face: int) -> frozenset:
    """Real vertices appearing on the boundary walk of the face.

    May be empty: nothing guarantees that every face of a good drawing
    touches a real vertex.
    """
    return frozenset(a for a, _ in faces.faces[face] if a in drawing.vertex_set)


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
    pair_counts = {}
    for pair in drawing.crossings.values():
        e, f = sorted(pair)
        pair_counts[(e, f)] = pair_counts.get((e, f), 0) + 1
        if set(e) & set(f):
            violations.append((5, (e, f)))
    for (e, f), cnt in sorted(pair_counts.items()):
        if cnt > 1:
            violations.append((4, (e, f)))
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


def face_containing(face_map: FaceMap, face: int) -> int:
    """Face of the child drawing whose region contains the given parent face."""
    return face_map.mapping[face]


def delete_vertex(drawing: Drawing, faces: FaceSet, v: int):
    """Remove a real vertex: drop its edge chains and their crossings,
    smooth crossings that lose their partner edge, and track face merging.

    Returns (child, child_faces, face_map). The child carries no geometry.
    The union-find over deleted segments defines the merge: both old faces
    flanking a deleted segment land in the same child face.
    """
    if v not in drawing.vertex_set:
        raise ValueError(f"{v} is not a vertex of the drawing")
    if drawing.n <= 3:
        raise ValueError("cannot delete a vertex of a 3-vertex drawing")

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

    for e in dead_edges:
        ch = drawing.chains[e]
        for a, b in zip(ch, ch[1:]):
            f1, f2 = faces.segment_sides[seg_key(a, b)]
            r1, r2 = find(f1), find(f2)
            if r1 != r2:
                parent[r2] = r1

    class_face = {}
    for dart, f in child_faces.dart_face.items():
        root = find(faces.dart_face[parent_dart[dart]])
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


def child_drawing(drawing: Drawing, v: int):
    """delete_vertex against the canonical FaceSet, cached per drawing."""
    key = ("child", v)
    res = drawing._cache.get(key)
    if res is None:
        res = delete_vertex(drawing, trace_faces(drawing), v)
        drawing._cache[key] = res
    return res
