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

The region depends only on F and the set S, never on the order of the
deletions, so grown regions are memoized on (region, S + {u}) for the
length of one decide or verify call, and the single-chain searches memoize
failures on the set of removed vertices. The interleaved bishellability
search keeps plain backtracking because its disjointness constraint
depends on positions, not sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import Drawing, trace_faces
# perfbench/layertrace.py wraps these two names in this module by name
from .drawing import child_drawing, vertices_on_face  # noqa: F401
from .errors import CertificateMismatchError, ShellcertError


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


@dataclass(frozen=True)
class BishellCertificate:
    """Witness of s-bishellability: two deletion sequences of length s + 1."""

    face: int
    a_sequence: tuple
    b_sequence: tuple

    @property
    def s(self) -> int:
        return len(self.a_sequence) - 1


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

def _region_tables(drawing):
    """Per vertex: its corner faces as a bitmask, the faces flanking a
    segment of one of its edges as a bitmask, and for each such face the
    faces across those segments. Cached on the drawing."""
    tables = drawing._cache.get("regions")
    if tables is None:
        faces = trace_faces(drawing)
        corners = {w: 0 for w in drawing.vertices}
        for w in drawing.vertices:
            for y in drawing.rotations[w]:
                corners[w] |= 1 << faces.dart_face[(w, y)]
        adjacency = {w: {} for w in drawing.vertices}
        for seg, (f1, f2) in faces.segment_sides.items():
            for x in drawing.segment_edge[seg]:
                adj = adjacency[x]
                adj[f1] = adj.get(f1, 0) | 1 << f2
                adj[f2] = adj.get(f2, 0) | 1 << f1
        touch = {w: sum(1 << f for f in adj) for w, adj in adjacency.items()}
        tables = drawing._cache["regions"] = (corners, touch, adjacency)
    return tables


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Regions:
    """Region queries on one root drawing, memoized for one search or
    verification only, so the memo never outlives the call."""

    def __init__(self, drawing):
        self.vertices = drawing.vertices
        self.corners, self.touch, self.adjacency = _region_tables(drawing)
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

    def _across(self, mask, vertices):
        """Faces one step from ``mask`` across a segment of an edge at one
        of ``vertices``."""
        out = 0
        for x in vertices:
            adj = self.adjacency[x]
            for f in _bits(mask & self.touch[x]):
                out |= adj[f]
        return out


# -- simple sequences ------------------------------------------------------

def find_simple_sequence(drawing: Drawing, faces, ref_face: int, v: int,
                         length: int, excluded=()) -> SimpleSequence | None:
    """Complete backtracking search for a simple sequence of v.

    Returns the lexicographically smallest sequence of the requested length
    whose members avoid ``excluded``, or None if none exists.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if v not in drawing.vertex_set:
        raise ValueError(f"{v} is not a vertex of the drawing")
    if v not in vertices_on_face(drawing, faces, ref_face):
        raise ValueError(f"vertex {v} is not incident to face {ref_face}")
    excluded = frozenset(excluded)
    pool = drawing.vertex_set - excluded - {v}
    if length > len(pool):
        return None
    regions = _Regions(drawing)
    seq = _simple_search(regions, regions.start(ref_face),
                         v, length, excluded, frozenset(), {})
    if seq is None:
        return None
    return SimpleSequence(v, seq)


def _simple_search(regions, state, owner, length, excluded, used, memo):
    remaining = length - len(used)
    if remaining == 0:
        return ()
    if used in memo:
        return None
    for u in regions.candidates(state):
        if u == owner or u in excluded:
            continue
        if remaining == 1:
            return (u,)
        rest = _simple_search(regions, regions.advance(state, u), owner, length,
                              excluded, used | {u}, memo)
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
    if not 0 <= k <= drawing.n - 2:
        raise ValueError(f"k must lie in 0..{drawing.n - 2}")
    faces = trace_faces(drawing)
    regions = _Regions(drawing)
    for face in _face_selection(faces, face_filter):
        found = _seq_search(regions, regions.start(face), k, {})
        if found is not None:
            cert = SeqShellCertificate(face,
                                       tuple(a for a, _ in found),
                                       tuple(s for _, s in found))
            result = verify_seq_certificate(drawing, cert)
            if not result:
                raise ShellcertError(
                    f"internal error: emitted certificate failed: {result.violations}")
            return cert
    return None


def _seq_search(regions, state, k, memo):
    deleted = state[1]
    if deleted in memo:
        return None
    for a in regions.candidates(state):
        seq = _simple_search(regions, state, a, k + 1, frozenset(), frozenset(), {})
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
    if not 0 <= s <= drawing.n - 2:
        raise ValueError(f"s must lie in 0..{drawing.n - 2}")
    faces = trace_faces(drawing)
    regions = _Regions(drawing)
    for face in _face_selection(faces, face_filter):
        start = regions.start(face)
        found = _bishell_search(regions, start, start, s, (), ())
        if found is not None:
            cert = BishellCertificate(face, found[0], found[1])
            result = verify_bishell_certificate(drawing, cert)
            if not result:
                raise ShellcertError(
                    f"internal error: emitted certificate failed: {result.violations}")
            return cert
    return None


def _bishell_search(regions, a_state, b_state, s, a_seq, b_seq):
    if len(a_seq) == s + 1 and len(b_seq) == s + 1:
        return (a_seq, b_seq)
    if len(a_seq) <= len(b_seq):
        i = len(a_seq)
        forbidden = set(b_seq[: s - i + 1])
        for a in regions.candidates(a_state):
            if a in forbidden:
                continue
            next_state = regions.advance(a_state, a) if i < s else a_state
            found = _bishell_search(regions, next_state, b_state, s, a_seq + (a,), b_seq)
            if found is not None:
                return found
    else:
        j = len(b_seq)
        forbidden = set(a_seq[: s - j + 1])
        for b in regions.candidates(b_state):
            if b in forbidden:
                continue
            next_state = regions.advance(b_state, b) if j < s else b_state
            found = _bishell_search(regions, a_state, next_state, s, a_seq, b_seq + (b,))
            if found is not None:
                return found
    return None


def _face_selection(faces, face_filter):
    if face_filter is None:
        return range(len(faces.faces))
    if not 0 <= face_filter < len(faces.faces):
        raise ValueError(f"face {face_filter} does not exist")
    return (face_filter,)


# -- verification ----------------------------------------------------------

def verify_seq_certificate(drawing: Drawing, cert: SeqShellCertificate) -> VerificationResult:
    """Re-execute every incidence and exclusion check from scratch.

    Unknown vertex or face references raise CertificateMismatchError;
    violated conditions yield an unverified result with the trace naming
    each failed condition.
    """
    faces = trace_faces(drawing)
    _check_refs(drawing, faces, cert.face,
                tuple(cert.vertices) + tuple(x for s in cert.sequences for x in s))
    if len(cert.vertices) < 1 or len(cert.sequences) != len(cert.vertices):
        raise CertificateMismatchError(
            "certificate must carry one simple sequence per vertex")

    violations = []
    k = cert.k
    if len(set(cert.vertices)) != len(cert.vertices):
        violations.append("vertex sequence repeats a vertex")
    regions = _Regions(drawing)
    state = regions.start(cert.face)
    for i, (a, seq) in enumerate(zip(cert.vertices, cert.sequences)):
        where = (f"a_{i} = {a}")
        if a in state[1]:
            violations.append(f"{where} was already deleted")
            break
        if a not in regions.candidates(state):
            violations.append(
                f"{where} is not incident to the face containing the reference face")
        violations.extend(_check_simple(regions, state, a, seq,
                                        set(cert.vertices[: i + 1]),
                                        k - i + 1, f"S_{i}"))
        if i < k:
            state = regions.advance(state, a)
    return VerificationResult(not violations, tuple(violations))


def _check_simple(regions, state, owner, seq, banned, want_len, label):
    """Conditions for ``seq`` to be a simple sequence of ``owner`` avoiding
    ``banned``, checked from the region of ``state``."""
    violations = []
    if len(seq) != want_len:
        violations.append(f"{label} must have length {want_len}, has {len(seq)}")
    if len(set(seq)) != len(seq):
        violations.append(f"{label} repeats a vertex")
    if owner in seq:
        violations.append(f"{label} contains its owner {owner}")
    hits = sorted(set(seq) & banned)
    if hits:
        violations.append(f"{label} contains excluded vertices {hits}")
    for j, u in enumerate(seq):
        if u in state[1]:
            violations.append(f"{label}[{j}] = {u} is not present in the subdrawing")
            break
        if u not in regions.candidates(state):
            violations.append(
                f"{label}[{j}] = {u} is not incident to the face containing "
                f"the reference face")
        if j < len(seq) - 1:
            state = regions.advance(state, u)
    return violations


def verify_bishell_certificate(drawing: Drawing, cert: BishellCertificate) -> VerificationResult:
    faces = trace_faces(drawing)
    _check_refs(drawing, faces, cert.face,
                tuple(cert.a_sequence) + tuple(cert.b_sequence))
    if len(cert.a_sequence) < 1 or len(cert.a_sequence) != len(cert.b_sequence):
        raise CertificateMismatchError(
            "certificate must carry two sequences of equal length")

    violations = []
    s = cert.s
    regions = _Regions(drawing)
    for name, seq in (("a", cert.a_sequence), ("b", cert.b_sequence)):
        if len(set(seq)) != len(seq):
            violations.append(f"{name}-sequence repeats a vertex")
        state = regions.start(cert.face)
        for i, x in enumerate(seq):
            if x in state[1]:
                violations.append(f"{name}_{i} = {x} was already deleted")
                break
            if x not in regions.candidates(state):
                violations.append(
                    f"{name}_{i} = {x} is not incident to the face containing "
                    f"the reference face")
            if i < s:
                state = regions.advance(state, x)
    for i, a in enumerate(cert.a_sequence):
        for j, b in enumerate(cert.b_sequence):
            if i + j <= s and a == b:
                violations.append(
                    f"disjointness fails: a_{i} = b_{j} = {a} with i + j <= s")
    return VerificationResult(not violations, tuple(violations))


def _check_refs(drawing, faces, face, vertices):
    if not isinstance(face, int) or not 0 <= face < len(faces.faces):
        raise CertificateMismatchError(f"face {face!r} does not exist in the drawing")
    unknown = sorted(set(vertices) - drawing.vertex_set)
    if unknown:
        raise CertificateMismatchError(f"unknown vertices {unknown}")


# -- transformation --------------------------------------------------------

def bishell_to_seq(cert: BishellCertificate) -> SeqShellCertificate:
    """Reuse a bishellability witness as a seq-shellability witness: keep
    the a-sequence and hand prefixes of the b-sequence to its members,
    sequences[i] being the first s - i + 1 entries of b."""
    s = cert.s
    if len(cert.b_sequence) != s + 1:
        raise ValueError("certificate sequences must have equal length")
    sequences = tuple(tuple(cert.b_sequence[: s - i + 1]) for i in range(s + 1))
    return SeqShellCertificate(cert.face, tuple(cert.a_sequence), sequences)
