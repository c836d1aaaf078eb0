"""Simple sequences, seq-shellability and bishellability.

A simple sequence of a vertex v (with respect to a reference face F) is a
sequence of distinct other vertices that can be deleted one by one, each
incident to the face containing F at its turn. A drawing is k-seq-shellable
if some face F admits vertices a_0..a_k, each a_i incident to the face
containing F after deleting a_0..a_{i-1} and owning a simple sequence of
length k-i+1 that avoids a_0..a_i. Bishellability asks instead for two
deletion sequences a_0..a_s and b_0..b_s with index-wise disjointness
(a_i != b_j whenever i + j <= s).

Deciders scan faces in ascending id and candidate vertices in ascending
id, so the emitted certificate is deterministic; a face whose vertex row
already failed is skipped (the face lemma below).

No subdrawing is ever built. Deleting a set S of vertices removes every
edge at a vertex of S, so the face containing F afterwards is the union of
the root drawing's faces reachable from F across segments of those edges:
its region, region(F, S). A vertex w outside S bounds that face iff one of
its corner faces (the faces at w between consecutive edges of its rotation)
lies in the region, since a corner of w in the subdrawing is the union of
the root corners it covers. The rule needs no special case for tails of
three or fewer vertices, where every vertex left bounds every face.

A search state is (region, deleted): the set of face ids of region(F,
S) and a bitmask of S. region(F, S + {u}) grows from region(F, S) by a
flood that walks face boundaries: it crosses each segment of u's edges
that has one side in the region, then walks the boundary of each face
entered and crosses each dart whose edge ends at a vertex of S + {u}.
The floods read one index per drawing, _Regions, built in one pass over
the drawing's chain_darts and kept through drawing.per_drawing.

Both verifiers check every deletion sequence of a certificate (the
a-sequence, each simple sequence, both bishellability sequences) with
one walk, _Regions.walk: each vertex must still be present and must bound
the face containing F, and is then deleted.

The region depends only on F and the set S, never on the order of the
deletions. It also only grows with S: if S is a subset of S', region(F, S)
lies in region(F, S'), and every candidate at S that is not in S' is a
candidate at S'. That gives an exchange lemma. Let u be a candidate at S
and X = (x_1, ..., x_L) a simple sequence from S. If u is not in X, (u,
x_1, ..., x_{L-1}) is one too; if u = x_i, so is (u, x_1, ..., x_{i-1},
x_{i+1}, ..., x_L). Hence if any simple sequence exists, the smallest
candidate other than its owner starts one, and deleting that candidate at
every step finds the lexicographically smallest sequence, or proves that
there is none. The same swap works for a-sequences: each a_j's own simple
sequence can be made to start with u, and dropping u leaves the shorter
sequence a_j needs once u is deleted ahead of it. So level i takes the
smallest candidate that owns a simple sequence of length k-i+1, and
failing that the face has no certificate. A seq decision thus takes at
most n (k + 1)^2 region steps per face and never backtracks.

The bishellability search still backtracks: moving a vertex that both
sequences use to the front of one of them can break a_i != b_j for
i + j <= s, since that constraint depends on positions, not sets, so the
exchange lemma does not apply there. Three exact facts cut its work.

Face lemma: a search reads its reference face F only through F's row of
face_vertex_table. At the root the candidates are exactly those
vertices. Once a vertex x on F is deleted, the region is what the flood
across segments of x's edges reaches from any corner of x, whichever
corner F was: consecutive corners of x lie on either side of the first
segment of an edge at x. So faces with equal rows get
equal searches, and a face with fewer than two vertices has no
certificate of either kind. The whole-drawing deciders search each row
once and skip later faces whose row already failed.

Symmetry: (a, b) and (b, a) are certificates together, since the
constraint is symmetric in i and j, and a_0 != b_0. The search emits the
lexicographically first interleaved word (a_0, b_0, a_1, ...), which
therefore has a_0 < b_0, so b_0 is only tried above a_0.

Lazy flood: each sequence carries its state from before its last
deletion and floods that deletion only on its next turn, so a vertex
whose partner finds no candidate, and the last vertex of each sequence,
are never flooded. With these three, under 1% of floods repeat an
earlier (region, S + {u}) of the same decide, so floods are not
memoized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import (Drawing, check_face, check_level, check_vertex, face_vertex_table,
                      is_vertex, per_drawing, trace_faces, vertices_on_face)
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
        """Every vertex the certificate names, deleted or in a sequence;
        CertificateMismatchError names a field that cannot hold them."""
        _check_field("vertices", self.vertices)
        _check_field("sequences", self.sequences)
        for i, s in enumerate(self.sequences):
            _check_field(f"sequences[{i}]", s)
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
        """Every vertex the certificate names, in either sequence;
        CertificateMismatchError names a field that cannot hold them."""
        _check_field("a_sequence", self.a_sequence)
        _check_field("b_sequence", self.b_sequence)
        return (*self.a_sequence, *self.b_sequence)


def _check_field(name: str, value) -> None:
    """CertificateMismatchError unless the value of the field is a tuple
    or a list."""
    if not isinstance(value, (tuple, list)):
        raise CertificateMismatchError(
            f"certificate field {name} must be a tuple or list, got {quoted(value)}")


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


# -- region queries ----------------------------------------------------------
#
# A search state is (region, deleted): region is the set of the root
# drawing's faces that merge into the face containing the reference face
# once the vertices of deleted, a bitmask over _Regions.bit, are gone.

class _Regions:
    """Region queries on one root drawing, built by _regions in one pass
    over its chain_darts and shared. For each vertex: its corner faces,
    its bit and the darts of its n - 1 chains; for each dart, ends holds
    the bits of the two ends of the edge its segment lies on."""

    def __init__(self, drawing):
        faces = trace_faces(drawing)
        self.face_of, self.twin, self.walks = faces.face_of, faces.twin, faces.walks
        offset, n = faces.offset, drawing.n
        self.bit = {w: 1 << i for i, w in enumerate(drawing.vertices)}
        # the faces left of w's darts, one per corner
        self.rows = [(w, self.bit[w], frozenset(self.face_of[offset[w]:offset[w] + n - 1]))
                     for w in drawing.vertices]
        self.corners = {w: corners for w, _, corners in self.rows}
        self.darts = {w: [] for w in drawing.vertices}
        self.ends = ends = [0] * len(self.twin)
        for (u, v), darts in drawing.chain_darts.items():
            mask = self.bit[u] | self.bit[v]
            for i in darts:
                ends[i] = ends[self.twin[i]] = mask
            self.darts[u] += darts
            self.darts[v] += darts

    @staticmethod
    def start(face):
        """The state before any deletion."""
        return frozenset((face,)), 0

    def candidates(self, state):
        """Vertices left that bound the region, ascending."""
        region, deleted = state
        return [w for w, bit, corners in self.rows
                if not deleted & bit and not corners.isdisjoint(region)]

    def advance(self, state, u):
        """The state after deleting u as well: cross every segment of u's
        edges with one side in the region, then walk the boundary of each
        face entered and cross every segment of an edge at a deleted
        vertex."""
        region, deleted = state
        removed = deleted | self.bit[u]
        region = set(region)
        face_of, twin, walks, ends = self.face_of, self.twin, self.walks, self.ends
        fresh = []
        for i in self.darts[u]:
            f, g = face_of[i], face_of[twin[i]]
            if (f in region) is not (g in region):
                g = f if g in region else g
                region.add(g)
                fresh.append(g)
        while fresh:
            for i in walks[fresh.pop()]:
                if ends[i] & removed:
                    g = face_of[twin[i]]
                    if g not in region:
                        region.add(g)
                        fresh.append(g)
        return region, removed

    def walk(self, state, seq, name, gone, violations):
        """Delete the vertices of ``seq`` in turn from ``state``, yielding
        the state before each deletion. A vertex that does not bound the
        face containing the reference face adds a violation; one already
        deleted adds "``name(i)`` = x ``gone``" and ends the walk."""
        for i, x in enumerate(seq):
            if i:
                state = self.advance(state, seq[i - 1])
            if state[1] & self.bit[x]:
                violations.append(f"{name(i)} = {x} {gone}")
                return
            if self.corners[x].isdisjoint(state[0]):
                violations.append(f"{name(i)} = {x} is not incident to the face "
                                  f"containing the reference face")
            yield state


@per_drawing
def _regions(drawing):
    """The drawing's _Regions, built on first use and shared."""
    return _Regions(drawing)


# -- simple sequences ------------------------------------------------------

def find_simple_sequence(drawing: Drawing, ref_face: int, v: int,
                         length: int) -> SimpleSequence | None:
    """The lexicographically smallest simple sequence of v of the
    requested length, or None if none exists.

    By the exchange lemma in the module docstring, deleting the smallest
    vertex other than v that bounds the face containing ref_face, length
    times, finds it or proves that there is none.
    """
    if type(length) is not int or length < 1:
        raise ValueError("length must be at least 1")
    if check_vertex(drawing, v) not in vertices_on_face(drawing, ref_face):
        raise ValueError(f"vertex {v} is not incident to face {ref_face}")
    if length > drawing.n - 1:
        return None
    regions = _regions(drawing)
    seq = _simple_sequence(regions, regions.start(ref_face), v, length)
    if seq is None:
        return None
    return SimpleSequence(v, seq)


def _simple_sequence(regions, state, owner, length):
    """Delete the smallest candidate other than ``owner`` until ``length``
    vertices are chosen; None when no candidate is left."""
    seq = []
    while True:
        u = next((w for w in regions.candidates(state) if w != owner), None)
        if u is None:
            return None
        seq.append(u)
        if len(seq) == length:
            return tuple(seq)
        state = regions.advance(state, u)


# -- seq-shellability ------------------------------------------------------

def decide_seq_shellable(drawing: Drawing, k: int,
                         face_filter: int | None = None) -> SeqShellCertificate | None:
    """A k-seq-shellability certificate, or None if there is none.

    Scans reference faces in ascending id (or only ``face_filter``). On
    each face, a_i is the smallest candidate that owns a simple sequence
    of length k - i + 1, which the exchange lemma in the module docstring
    shows is a complete search. The returned certificate always verifies.
    """
    check_level("k", k, drawing.n - 2)

    def search(regions, face):
        found = _seq_search(regions, regions.start(face), k)
        if found is not None:
            return SeqShellCertificate(face, *found)
        return None

    return _first_certificate(drawing, face_filter, search, verify_seq_certificate)


def _seq_search(regions, state, k):
    """(a_0..a_k, their simple sequences) from ``state``, or None when
    some level has no candidate owning a long enough simple sequence."""
    vertices, sequences = [], []
    for length in range(k + 1, 0, -1):
        for a in regions.candidates(state):
            seq = _simple_sequence(regions, state, a, length)
            if seq is not None:
                break
        else:
            return None
        vertices.append(a)
        sequences.append(seq)
        if length > 1:
            state = regions.advance(state, a)
    return tuple(vertices), tuple(sequences)


# -- bishellability --------------------------------------------------------

def decide_bishellable(drawing: Drawing, s: int,
                       face_filter: int | None = None) -> BishellCertificate | None:
    """Complete search for an s-bishellability certificate.

    Scans reference faces in ascending id (or only ``face_filter``),
    searching each distinct face vertex row once. The two deletion chains
    are explored interleaved (a_0, b_0, a_1, ...) and the first
    certificate found is returned, so it is the lexicographically first
    word and has a_0 < b_0; the disjointness constraint a_i != b_j for
    i + j <= s prunes choices as soon as they are placed. See the module
    docstring for why the row, the symmetry and the lazy flood keep the
    search complete. The returned certificate always verifies.
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
    with it, and the pair reads (a, b), once both sequences are full.
    ``state`` is ``seq``'s state before its last deletion: that deletion
    is flooded only now, on its next turn."""
    i = len(seq)
    if i == s + 1:
        return seq, other_seq
    if seq:
        state = regions.advance(state, seq[-1])
    candidates = regions.candidates(state)
    if not seq and other_seq:
        # b_0: the first certificate has a_0 < b_0, as its swap (b, a) is one too
        candidates = [x for x in candidates if x > other_seq[0]]
    forbidden = set(other_seq[: s - i + 1])
    for x in candidates:
        if x in forbidden:
            continue
        found = _bishell_search(regions, other_state, state, s, other_seq, seq + (x,))
        if found is not None:
            return found
    return None


def _first_certificate(drawing, face_filter, search, verify):
    """The certificate ``search(regions, face)`` finds on the first of the
    selected faces (all, ascending, or only ``face_filter``) that has one,
    checked by ``verify``; None if no face has one.

    A search reads its face only through the face's row of
    face_vertex_table (the face lemma in the module docstring), so a face
    whose row already failed is skipped."""
    regions = _regions(drawing)
    selected = (trace_faces(drawing).face_ids() if face_filter is None
                else (check_face(drawing, face_filter),))
    table, failed = face_vertex_table(drawing), set()
    for face in selected:
        row = tuple(table[face])
        if row in failed:
            continue
        cert = search(regions, face)
        if cert is not None:
            result = verify(drawing, cert)
            if not result:
                raise ShellcertError(
                    f"internal error: emitted certificate failed: {result.violations}")
            return cert
        failed.add(row)
    return None


# -- verification ----------------------------------------------------------

def verify_seq_certificate(drawing: Drawing, cert: SeqShellCertificate) -> VerificationResult:
    """Re-execute every incidence and exclusion check from scratch.

    Unknown vertex or face references raise CertificateMismatchError;
    violated conditions yield an unverified result with the trace naming
    each failed condition.
    """
    if not isinstance(cert, SeqShellCertificate):
        raise ValueError(f"{quoted(cert)} is not a seq-shellability certificate")
    check_certificate_refs(drawing, cert)
    if len(cert.vertices) < 1 or len(cert.sequences) != len(cert.vertices):
        raise CertificateMismatchError(
            "certificate must carry one simple sequence per vertex")

    violations = []
    k = cert.k
    if len(set(cert.vertices)) != len(cert.vertices):
        violations.append("vertex sequence repeats a vertex")
    regions = _regions(drawing)
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
    if not isinstance(cert, BishellCertificate):
        raise ValueError(f"{quoted(cert)} is not a bishellability certificate")
    check_certificate_refs(drawing, cert)
    if len(cert.a_sequence) < 1 or len(cert.a_sequence) != len(cert.b_sequence):
        raise CertificateMismatchError(
            "certificate must carry two sequences of equal length")

    violations = []
    s = cert.s
    regions = _regions(drawing)
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
    vertex the drawing does not have, by check_face and is_vertex, or has
    a field of the wrong shape; ValueError if it is no certificate."""
    if not isinstance(cert, (SeqShellCertificate, BishellCertificate)):
        raise ValueError(f"{quoted(cert)} is not a certificate")
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
    if not isinstance(cert, BishellCertificate):
        raise ValueError(f"cert must be a BishellCertificate, got {quoted(cert)}")
    cert.named_vertices()  # each field a sequence
    s = cert.s
    if len(cert.b_sequence) != s + 1:
        raise ValueError("certificate sequences must have equal length")
    if s < 0:
        raise ValueError("certificate sequences must not be empty")
    sequences = tuple(tuple(cert.b_sequence[: s - i + 1]) for i in range(s + 1))
    return SeqShellCertificate(cert.face, tuple(cert.a_sequence), sequences)
