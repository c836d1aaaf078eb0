"""Simple sequences, seq-shellability and bishellability.

A simple sequence of a vertex v (with respect to a reference face F) is a
sequence of distinct other vertices that can be deleted one by one, each
incident to the face containing F at its turn. A drawing is k-seq-shellable
if some face F admits vertices a_0..a_k, each a_i incident to the face
containing F after deleting a_0..a_{i-1} and owning a simple sequence of
length k-i+1 that avoids a_0..a_i. Bishellability asks instead for two
deletion sequences a_0..a_s and b_0..b_s with index-wise disjointness
(a_i != b_j whenever i + j <= s).

Deciders run complete depth-first searches over faces (ascending id) and
candidate vertices (ascending id), so the emitted certificate is
deterministic.

No subdrawing is ever built. Deleting a set S of vertices removes every
edge at a vertex of S, so the face containing F afterwards is the union of
the root drawing's faces reachable from F across segments of those edges:
its region, region(F, S). A vertex w outside S bounds that face iff one of
its corner faces (the faces at w between consecutive edges of its rotation)
lies in the region, since a corner of w in the subdrawing is the union of
the root corners it covers. The rule needs no special case for tails of
three or fewer vertices, where every vertex left bounds every face.
region(F, S + {u}) grows from region(F, S) by a flood that first crosses
u's segments and then segments of any edge at S + {u}.

The floods read two tables per vertex: the faces flanking a segment of
one of its edges, and for each such face the faces across those segments.
_region_tables keeps them on the drawing through drawing.per_drawing. A
vertex's tables come from its own n - 1 chains and are built the first
time a search or verifier deletes it, so a job that deletes a few
vertices pays for those few; the corner faces of all vertices come from
one pass over their rotations.

Both verifiers check every deletion sequence of a certificate (the
a-sequence, each simple sequence, both bishellability sequences) with
one walk, _Regions.walk: each vertex must still be present and must bound
the face containing F, and is then deleted.

The region depends only on F and the set S, never on the order of the
deletions, so grown regions are memoized on (region, S + {u}) for the
length of one decide or verify call, and the single-chain searches memoize
failures on the set of removed vertices. The interleaved bishellability
search keeps plain backtracking because its disjointness constraint
depends on positions, not sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import (Drawing, check_face, check_level, check_vertex, edge_key, is_vertex,
                      per_drawing, trace_faces, vertices_on_face)
# perfbench/layertrace.py wraps this name in this module by name
from .drawing import child_drawing  # noqa: F401
from .errors import CertificateMismatchError, ShellcertError, quoted


@dataclass(frozen=True)
class SimpleSequence:
    owner: int
    vertices: tuple


@dataclass(frozen=True)
class SeqShellCertificate:
    """Witness of k-seq-shellability: sequences[i] is the simple sequence
    of vertices[i], of length k - i + 1."""

    face: int
    vertices: tuple
    sequences: tuple

    @property
    def k(self) -> int:
        return len(self.vertices) - 1

    def named_vertices(self) -> tuple:
        """Every vertex the certificate names, deleted or in a sequence."""
        return (*self.vertices, *(x for s in self.sequences for x in s))


@dataclass(frozen=True)
class BishellCertificate:
    """Witness of s-bishellability: two deletion sequences of length s + 1."""

    face: int
    a_sequence: tuple
    b_sequence: tuple

    @property
    def s(self) -> int:
        return len(self.a_sequence) - 1

    def named_vertices(self) -> tuple:
        """Every vertex the certificate names, in either sequence."""
        return (*self.a_sequence, *self.b_sequence)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


# -- region queries ----------------------------------------------------------
#
# A search state is (region, deleted). deleted is the set of vertices
# deleted so far; region is an int bitmask over the root drawing's faces:
# the faces that merge into the face containing the reference face once
# those vertices are gone.

@per_drawing
def _region_tables(drawing):
    """(corners, tables): every vertex's corner faces as a bitmask, and
    the drawing's _VertexTables, filled on demand. Cached on the drawing."""
    faces = trace_faces(drawing)
    face_of, offset, rot = faces.face_of, faces.offset, drawing.rotations
    corners = {}
    for w in drawing.vertices:
        mask = 0
        # the faces left of w's darts, one per corner
        for f in face_of[offset[w]:offset[w] + len(rot[w])]:
            mask |= 1 << f
        corners[w] = mask
    return corners, _VertexTables(drawing.vertices, drawing.chains, faces)


class _VertexTables(dict):
    """Vertex -> (touch, adjacency), built from the vertex's own n - 1
    chains the first time a search deletes it. adjacency maps each face
    flanking a segment of an edge at the vertex to the bitmask of the faces
    across those segments; touch is the bitmask of those flanking faces."""

    def __init__(self, vertices, chains, faces):
        super().__init__()
        self.vertices = vertices
        self.chains = chains
        self.face_set = faces

    def __missing__(self, x):
        faces = self.face_set
        face_of, twin = faces.face_of, faces.twin
        adj = {}
        for w in self.vertices:
            if w == x:
                continue
            for i in faces.path_darts(self.chains[edge_key(x, w)]):
                f1, f2 = face_of[i], face_of[twin[i]]
                adj[f1] = adj.get(f1, 0) | 1 << f2
                adj[f2] = adj.get(f2, 0) | 1 << f1
        table = self[x] = (sum(1 << f for f in adj), adj)
        return table


class _Regions:
    """Region queries on one root drawing, memoized for one search or
    verification only, so the memo never outlives the call."""

    def __init__(self, drawing):
        self.vertices = drawing.vertices
        self.corners, self.tables = _region_tables(drawing)
        self.memo = {}

    @staticmethod
    def start(face):
        """The state before any deletion."""
        return 1 << face, frozenset()

    def candidates(self, state):
        """Vertices left that bound the region, ascending."""
        region, deleted = state
        corners = self.corners
        return [w for w in self.vertices if w not in deleted and corners[w] & region]

    def advance(self, state, u):
        """The state after deleting u as well: flood the region across u's
        segments, then across segments of any deleted vertex's edges."""
        region, deleted = state
        removed = deleted | {u}
        key = (region, removed)
        grown = self.memo.get(key)
        if grown is None:
            fresh = self._across(region, (u,)) & ~region
            while fresh:
                region |= fresh
                fresh = self._across(fresh, removed) & ~region
            grown = self.memo[key] = region
        return grown, removed

    def walk(self, state, seq, name, gone, violations):
        """Delete the vertices of ``seq`` in turn from ``state``, yielding
        the state before each deletion. A vertex that does not bound the
        face containing the reference face adds a violation; one already
        deleted adds "``name(i)`` = x ``gone``" and ends the walk."""
        for i, x in enumerate(seq):
            if i:
                state = self.advance(state, seq[i - 1])
            if x in state[1]:
                violations.append(f"{name(i)} = {x} {gone}")
                return
            if not self.corners[x] & state[0]:
                violations.append(f"{name(i)} = {x} is not incident to the face "
                                  f"containing the reference face")
            yield state

    def _across(self, mask, vertices):
        """Faces one step from ``mask`` across a segment of an edge at one
        of ``vertices``."""
        out = 0
        tables = self.tables
        for x in vertices:
            touch, adj = tables[x]
            bits = mask & touch
            while bits:
                low = bits & -bits
                out |= adj[low.bit_length() - 1]
                bits ^= low
        return out


# -- simple sequences ------------------------------------------------------

def find_simple_sequence(drawing: Drawing, ref_face: int, v: int,
                         length: int) -> SimpleSequence | None:
    """Complete backtracking search for a simple sequence of v.

    Returns the lexicographically smallest sequence of the requested
    length, or None if none exists.
    """
    if type(length) is not int or length < 1:
        raise ValueError("length must be at least 1")
    if check_vertex(drawing, v) not in vertices_on_face(drawing, ref_face):
        raise ValueError(f"vertex {v} is not incident to face {ref_face}")
    if length > drawing.n - 1:
        return None
    regions = _Regions(drawing)
    seq = _simple_search(regions, regions.start(ref_face), v, length, frozenset(), {})
    if seq is None:
        return None
    return SimpleSequence(v, seq)


def _simple_search(regions, state, owner, length, used, memo):
    remaining = length - len(used)
    if used in memo:
        return None
    for u in regions.candidates(state):
        if u == owner:
            continue
        if remaining == 1:
            return (u,)
        rest = _simple_search(regions, regions.advance(state, u), owner, length,
                              used | {u}, memo)
        if rest is not None:
            return (u,) + rest
    memo[used] = None
    return None


# -- seq-shellability ------------------------------------------------------

def decide_seq_shellable(drawing: Drawing, k: int,
                         face_filter: int | None = None) -> SeqShellCertificate | None:
    """Complete search for a k-seq-shellability certificate.

    Scans reference faces in ascending id (or only ``face_filter``); the
    returned certificate always verifies.
    """
    check_level("k", k, drawing.n - 2)

    def search(regions, face):
        found = _seq_search(regions, regions.start(face), k, {})
        if found is not None:
            return SeqShellCertificate(face, tuple(a for a, _ in found),
                                       tuple(s for _, s in found))
        return None

    return _first_certificate(drawing, face_filter, search, verify_seq_certificate)


def _seq_search(regions, state, k, memo):
    deleted = state[1]
    if deleted in memo:
        return None
    for a in regions.candidates(state):
        seq = _simple_search(regions, state, a, k + 1, frozenset(), {})
        if seq is None:
            continue
        if k == 0:
            return ((a, seq),)
        rest = _seq_search(regions, regions.advance(state, a), k - 1, memo)
        if rest is not None:
            return ((a, seq),) + rest
    memo[deleted] = None
    return None


# -- bishellability --------------------------------------------------------

def decide_bishellable(drawing: Drawing, s: int,
                       face_filter: int | None = None) -> BishellCertificate | None:
    """Complete search for an s-bishellability certificate.

    The two deletion chains are explored interleaved (a_0, b_0, a_1, ...);
    the disjointness constraint a_i != b_j for i + j <= s prunes choices as
    soon as they are placed.
    """
    check_level("s", s, drawing.n - 2)

    def search(regions, face):
        start = regions.start(face)
        found = _bishell_search(regions, start, start, s, (), ())
        if found is not None:
            return BishellCertificate(face, *found)
        return None

    return _first_certificate(drawing, face_filter, search, verify_bishell_certificate)


def _bishell_search(regions, state, other_state, s, seq, other_seq):
    """One turn: place the next vertex of ``seq``, then hand the turn to
    the other sequence. The a-sequence moves first, so the turn is back
    with it, and the pair reads (a, b), once both sequences are full."""
    i = len(seq)
    if i == s + 1:
        return seq, other_seq
    forbidden = set(other_seq[: s - i + 1])
    for x in regions.candidates(state):
        if x in forbidden:
            continue
        next_state = regions.advance(state, x) if i < s else state
        found = _bishell_search(regions, other_state, next_state, s, other_seq, seq + (x,))
        if found is not None:
            return found
    return None


def _first_certificate(drawing, face_filter, search, verify):
    """The certificate ``search(regions, face)`` finds on the first of the
    selected faces (all, ascending, or only ``face_filter``) that has one,
    checked by ``verify``; None if no face has one."""
    regions = _Regions(drawing)
    selected = (trace_faces(drawing).face_ids() if face_filter is None
                else (check_face(drawing, face_filter),))
    for face in selected:
        cert = search(regions, face)
        if cert is not None:
            result = verify(drawing, cert)
            if not result:
                raise ShellcertError(
                    f"internal error: emitted certificate failed: {result.violations}")
            return cert
    return None


# -- verification ----------------------------------------------------------

def verify_seq_certificate(drawing: Drawing, cert: SeqShellCertificate) -> VerificationResult:
    """Re-execute every incidence and exclusion check from scratch.

    Unknown vertex or face references raise CertificateMismatchError;
    violated conditions yield an unverified result with the trace naming
    each failed condition.
    """
    check_certificate_refs(drawing, cert)
    if len(cert.vertices) < 1 or len(cert.sequences) != len(cert.vertices):
        raise CertificateMismatchError(
            "certificate must carry one simple sequence per vertex")

    violations = []
    k = cert.k
    if len(set(cert.vertices)) != len(cert.vertices):
        violations.append("vertex sequence repeats a vertex")
    regions = _Regions(drawing)
    walk = regions.walk(regions.start(cert.face), cert.vertices, lambda i: f"a_{i}",
                        "was already deleted", violations)
    for (i, (a, seq)), state in zip(enumerate(zip(cert.vertices, cert.sequences)), walk):
        label, want = f"S_{i}", k - i + 1
        if len(seq) != want:
            violations.append(f"{label} must have length {want}, has {len(seq)}")
        if len(set(seq)) != len(seq):
            violations.append(f"{label} repeats a vertex")
        if a in seq:
            violations.append(f"{label} contains its owner {a}")
        hits = sorted(set(seq).intersection(cert.vertices[: i + 1]))
        if hits:
            violations.append(f"{label} contains excluded vertices {hits}")
        for _ in regions.walk(state, seq, lambda j: f"{label}[{j}]",
                              "is not present in the subdrawing", violations):
            pass
    return VerificationResult(not violations, tuple(violations))


def verify_bishell_certificate(drawing: Drawing, cert: BishellCertificate) -> VerificationResult:
    check_certificate_refs(drawing, cert)
    if len(cert.a_sequence) < 1 or len(cert.a_sequence) != len(cert.b_sequence):
        raise CertificateMismatchError(
            "certificate must carry two sequences of equal length")

    violations = []
    s = cert.s
    regions = _Regions(drawing)
    for name, seq in (("a", cert.a_sequence), ("b", cert.b_sequence)):
        if len(set(seq)) != len(seq):
            violations.append(f"{name}-sequence repeats a vertex")
        for _ in regions.walk(regions.start(cert.face), seq, lambda i: f"{name}_{i}",
                              "was already deleted", violations):
            pass
    for i, a in enumerate(cert.a_sequence):
        for j, b in enumerate(cert.b_sequence):
            if i + j <= s and a == b:
                violations.append(
                    f"disjointness fails: a_{i} = b_{j} = {a} with i + j <= s")
    return VerificationResult(not violations, tuple(violations))


def check_certificate_refs(drawing: Drawing, cert) -> None:
    """Raise CertificateMismatchError if the certificate names a face or a
    vertex the drawing does not have, by check_face and is_vertex."""
    try:
        check_face(drawing, cert.face)
    except ValueError as exc:
        raise CertificateMismatchError(f"{exc} in the drawing") from None
    unknown = [v for v in cert.named_vertices() if not is_vertex(drawing, v)]
    if unknown:
        ints = sorted({v for v in unknown if type(v) is int})
        raise CertificateMismatchError(
            f"unknown vertices {quoted(ints + [v for v in unknown if type(v) is not int])}")


# -- transformation --------------------------------------------------------

def bishell_to_seq(cert: BishellCertificate) -> SeqShellCertificate:
    """Reuse a bishellability witness as a seq-shellability witness: keep
    the a-sequence and hand prefixes of the b-sequence to its members,
    sequences[i] being the first s - i + 1 entries of b."""
    s = cert.s
    if len(cert.b_sequence) != s + 1:
        raise ValueError("certificate sequences must have equal length")
    if s < 0:
        raise ValueError("certificate sequences must not be empty")
    sequences = tuple(tuple(cert.b_sequence[: s - i + 1]) for i in range(s + 1))
    return SeqShellCertificate(cert.face, tuple(cert.a_sequence), sequences)
