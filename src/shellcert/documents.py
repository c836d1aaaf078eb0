"""Interchange documents: drawings and certificates as JSON-style dicts.

Loaders are strict: a malformed document is rejected with the offending
element named, never repaired. Two drawing modes exist:

geometric     -- integer vertex coordinates plus an integer polyline per
                 edge; crossings are computed exactly and planarized.
combinatorial -- the planarized graph given directly: nodes, rotations
                 (counterclockwise, declared via "rotation_order"), and
                 node chains per edge.
"""

from __future__ import annotations

import json

from .drawing import Drawing, trace_faces
from .errors import DocumentError, StructureError, quoted
from .planarize import planarize
from .shellability import BishellCertificate, SeqShellCertificate

FORMAT_NAME = "shellcert-drawing"
CERT_FORMAT_NAME = "shellcert-certificate"
FORMAT_VERSION = 1


def _is_int(x) -> bool:
    # bool is a subclass of int, but True is not a node id or a coordinate;
    # hot loops below test type(x) is int inline
    return type(x) is int


def _require(cond, msg):
    if not cond:
        raise DocumentError(msg)


def load_drawing(document) -> Drawing:
    """Build a Drawing from a parsed interchange document (a dict)."""
    if not isinstance(document, dict):
        raise DocumentError("document must be an object")
    if document.get("format") != FORMAT_NAME:
        raise DocumentError(f'header must declare "format": "{FORMAT_NAME}"')
    if document.get("version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported version {quoted(document.get('version'))}")
    mode = document.get("mode")
    if mode not in ("geometric", "combinatorial"):
        raise DocumentError(f"unknown mode {quoted(mode)}")
    n = document.get("n")
    if not (_is_int(n) and n >= 3):
        raise DocumentError('"n" must be an integer >= 3')
    if mode == "geometric":
        return _load_geometric(document, n)
    return _load_combinatorial(document, n)


# The loaders below format a message only when they raise it: on a large
# document, formatting every message up front (reprs of whole polylines
# and node lists included) cost more than the parse itself.

def _load_geometric(document, n) -> Drawing:
    extra = document.keys() - {"format", "version", "mode", "n", "vertices", "edges"}
    if extra:
        raise DocumentError(f"unknown keys {quoted(sorted(extra))} in geometric document")

    vertices = document.get("vertices")
    if not (isinstance(vertices, list) and len(vertices) == n):
        raise DocumentError('"vertices" must list each of the n vertices once')
    positions = {}
    for i, item in enumerate(vertices):
        if not (isinstance(item, dict) and item.keys() == {"id", "x", "y"}):
            raise DocumentError("each vertex needs exactly id, x, y")
        vid, x, y = item["id"], item["x"], item["y"]
        if not (_is_int(vid) and _is_int(x) and _is_int(y)):
            raise DocumentError(f"vertices[{i}]: id and coordinates must be integers")
        if not 0 <= vid < n:
            raise DocumentError(f"vertex id {quoted(vid)} out of range")
        if vid in positions:
            raise DocumentError(f"vertex id {quoted(vid)} repeated")
        positions[vid] = (x, y)

    edges = document.get("edges")
    # the count comes first: the set of all pairs is quadratic in n
    if not (isinstance(edges, list) and len(edges) == n * (n - 1) // 2):
        raise DocumentError('"edges" must list every vertex pair exactly once')
    polylines = {}
    for i, item in enumerate(edges):
        if not (isinstance(item, dict) and item.keys() == {"u", "v", "polyline"}):
            raise DocumentError("each edge needs exactly u, v, polyline")
        u, v = item["u"], item["v"]
        if not (_is_int(u) and _is_int(v) and u != v and 0 <= u < n and 0 <= v < n):
            raise DocumentError(f"edges[{i}]: endpoints must be distinct vertex ids")
        e = (u, v) if u < v else (v, u)
        if e in polylines:
            raise DocumentError(f"edge {e} repeated")
        poly = item["polyline"]
        if not (isinstance(poly, list) and len(poly) >= 2):
            raise DocumentError(f"edge {e}: polyline needs at least 2 points")
        pts = [(pt[0], pt[1]) for pt in poly if isinstance(pt, list) and len(pt) == 2
               and type(pt[0]) is int and type(pt[1]) is int]
        if len(pts) != len(poly):
            raise DocumentError(f"edge {e}: polyline points must be integer pairs")
        if u > v:
            pts.reverse()
        if pts[0] != positions[e[0]] or pts[-1] != positions[e[1]]:
            raise DocumentError(f"edge {e}: polyline must start and end at its vertices")
        polylines[e] = pts
    return planarize(n, positions, polylines)


def _load_combinatorial(document, n) -> Drawing:
    extra = document.keys() - {"format", "version", "mode", "n", "rotation_order",
                               "nodes", "rotations", "chains"}
    if extra:
        raise DocumentError(f"unknown keys {quoted(sorted(extra))} in combinatorial document")
    if document.get("rotation_order") != "ccw":
        raise DocumentError('combinatorial documents must declare "rotation_order": "ccw"')

    nodes = document.get("nodes")
    if not isinstance(nodes, list):
        raise DocumentError('"nodes" must be a list')
    vertex_ids = set()
    crossings = {}
    for item in nodes:
        if not (isinstance(item, dict) and item.get("kind") in ("vertex", "crossing")):
            raise DocumentError('each node needs "kind": "vertex" or "crossing"')
        nid = item.get("id")
        if not (type(nid) is int and nid >= 0):
            raise DocumentError(f"node id {quoted(nid)} must be a nonnegative integer")
        if nid in vertex_ids or nid in crossings:
            raise DocumentError(f"node id {quoted(nid)} repeated")
        # item holds "kind" and "id", so its length tells whether it has more
        if item["kind"] == "vertex":
            if len(item) != 2:
                raise DocumentError(f"vertex node {quoted(nid)}: unknown keys")
            vertex_ids.add(nid)
            continue
        if len(item) != 3 or "edges" not in item:
            raise DocumentError(f"crossing node {quoted(nid)} needs exactly id, kind, edges")
        pair = item["edges"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise DocumentError(f"crossing {quoted(nid)}: edges must list the two crossing edges")
        for uv in pair:
            if not (isinstance(uv, list) and len(uv) == 2
                    and type(uv[0]) is int and type(uv[1]) is int and uv[0] != uv[1]):
                raise DocumentError(f"crossing {quoted(nid)}: bad edge {quoted(uv)}")
        (a, b), (c, d) = pair
        e, f = (a, b) if a < b else (b, a), (c, d) if c < d else (d, c)
        if e == f:
            raise DocumentError(f"crossing {quoted(nid)}: edges must differ")
        crossings[nid] = (e, f)
    if vertex_ids != set(range(n)):
        raise DocumentError("vertex nodes must be exactly 0..n-1")

    raw_rot = document.get("rotations")
    if not isinstance(raw_rot, dict):
        raise DocumentError('"rotations" must map node ids to dart lists')
    rotations = {}
    for key, lst in raw_rot.items():
        # a canonical key names one node id, so no two keys name the same
        nid = _parse_int_key(key, "rotation")
        if not (isinstance(lst, list) and _all_ints(lst)):
            raise DocumentError(f"rotation at {quoted(nid)} must be a list of node ids")
        rotations[nid] = lst

    raw_chains = document.get("chains")
    if not isinstance(raw_chains, dict):
        raise DocumentError('"chains" must map "u-v" to node sequences')
    chains = {}
    for key, lst in raw_chains.items():
        u, v = _parse_edge_key(key)
        e = (u, v) if u < v else (v, u)
        if e in chains:
            raise DocumentError(f"chain {quoted(u)}-{quoted(v)} repeated")
        if not (isinstance(lst, list) and _all_ints(lst)):
            raise DocumentError(f"chain {quoted(u)}-{quoted(v)} must be a list of node ids")
        chains[e] = lst

    try:
        drawing = Drawing(range(n), crossings, rotations, chains)
    except StructureError as exc:
        raise DocumentError(str(exc)) from None
    trace_faces(drawing)  # raises EmbeddingError on a non-sphere rotation system
    return drawing


def _all_ints(items) -> bool:
    """Whether every item is an int; a bool is not (see _is_int)."""
    return _INT_TYPE.issuperset(map(type, items))


_INT_TYPE = frozenset([int])


def _parse_int_key(key, what) -> int:
    """The node id a key names; only the canonical decimal form, as
    str(nid), is accepted."""
    try:
        nid = int(key)
    except (TypeError, ValueError):
        nid = None
    if nid is None or str(nid) != key:
        raise DocumentError(f"{what} key {quoted(key)} is not a node id")
    return nid


def _parse_edge_key(key):
    """The vertices (u, v) of a chain key "u-v", in canonical decimal
    form; "v-u" names the same edge."""
    parts = key.split("-") if isinstance(key, str) else ()
    if len(parts) == 2:
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            u = v = None
        if u is not None and u != v and f"{u}-{v}" == key:
            return u, v
    raise DocumentError(f'chain key {quoted(key)} must look like "u-v"')


def drawing_to_document(drawing: Drawing, mode: str) -> dict:
    """Serialize a drawing. Geometric mode needs geometry and contiguous
    vertex ids 0..n-1 (subdrawings keep their original labels and must be
    exported combinatorially after relabeling by the caller)."""
    if drawing.vertices != tuple(range(drawing.n)):
        raise ValueError("only drawings with vertex ids 0..n-1 can be exported")
    if mode == "geometric":
        if drawing.geometry is None:
            raise ValueError("drawing carries no geometry")
        geo = drawing.geometry
        for e, pts in sorted(geo.polylines.items()):
            if not all(_is_int(x) and _is_int(y) for x, y in pts):
                raise ValueError(f"edge {e}: polyline is not integer-valued")
        # the vertex positions alone, so no crossing Fraction is built
        return geometric_document(drawing.n, geo._positions, geo.polylines)
    if mode != "combinatorial":
        raise ValueError(f"unknown mode {mode!r}")
    head = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
            "mode": mode, "n": drawing.n, "rotation_order": "ccw"}
    nodes = [{"id": v, "kind": "vertex"} for v in drawing.vertices]
    for c in sorted(drawing.crossings):
        pair = sorted(drawing.crossings[c])
        nodes.append({"id": c, "kind": "crossing",
                      "edges": [list(pair[0]), list(pair[1])]})
    head["nodes"] = nodes
    # Drawing matches rotations and chains by equality, so an entry (or a
    # rotation's key) may be True for node 1 or 5.0 for crossing 5: write
    # the node id it equals
    id_of = {x: x for x in (*drawing.vertices, *drawing.crossings)}
    head["rotations"] = {str(id_of[x]): [id_of[y] for y in rot]
                         for x, rot in sorted(drawing.rotations.items())}
    head["chains"] = {f"{e[0]}-{e[1]}": [id_of[y] for y in ch]
                      for e, ch in sorted(drawing.chains.items())}
    return head


def geometric_document(n: int, points, polylines) -> dict:
    """The geometric document of vertices 0..n-1 at ``points`` (a map that
    may hold further nodes) joined along ``polylines``, keyed (u, v), u < v."""
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION,
            "mode": "geometric", "n": n,
            "vertices": [{"id": v, "x": points[v][0], "y": points[v][1]}
                         for v in range(n)],
            "edges": [{"u": u, "v": v, "polyline": [[x, y] for x, y in polylines[(u, v)]]}
                      for u, v in sorted(polylines)]}


# -- writing -----------------------------------------------------------------

_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class JsonText(str):
    """A value already encoded as compact JSON with sorted keys, as the
    writer's own compact dump would encode it; dumps_document writes it
    as it stands."""


def dumps_document(document) -> str:
    """The JSON text of a document, report or certificate, ending in "\n".

    The top-level object, and every list or object directly inside it,
    get one element or entry per line, indented by one space per level;
    anything deeper is a compact dump with sorted keys. So an analyze
    profile, or a drawing's edge, node, rotation or chain, sits on a line
    of its own. The text is deterministic, and every element comes from
    json's C encoder: passing ``indent`` would switch to its pure-Python
    encoder, which costs several times as much on large reports. A
    JsonText at any of those places is written as it stands; inside a
    compact dump the encoder would write it as a string.
    """
    return _layout(document, 0) + "\n"


def _layout(value, depth: int) -> str:
    if isinstance(value, JsonText):
        return value
    if depth == 2 or not value or not isinstance(value, (dict, list, tuple)):
        return _compact(value)
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        # _compact({key: None}) is '<key>:null}' after the brace, with the
        # key converted to a string exactly as the encoder converts it
        lines = [f"{pad}{_compact({key: None})[1:-6]}:{_layout(item, depth + 1)}"
                 for key, item in sorted(value.items())]
        brackets = "{}"
    else:
        lines = [pad + _layout(item, depth + 1) for item in value]
        brackets = "[]"
    return f"{brackets[0]}\n" + ",\n".join(lines) + f"\n{' ' * depth}{brackets[1]}"


def dump_document(document, path) -> None:
    """Write dumps_document(document) to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(document))


# -- certificates ------------------------------------------------------------

def certificate_to_document(cert, drawing_sha256=None) -> dict:
    """Serialize a certificate; verifiable later without re-running a search.

    The document is read back before it is returned, so the writer
    refuses, by a ValueError with the reader's message, whatever the
    reader would; a field that holds no sequence raises the
    CertificateMismatchError of cert.named_vertices() first."""
    if not isinstance(cert, (SeqShellCertificate, BishellCertificate)):
        raise ValueError("not a certificate")
    cert.named_vertices()
    if isinstance(cert, SeqShellCertificate):
        doc = {"format": CERT_FORMAT_NAME, "version": FORMAT_VERSION,
               "kind": "seq-shell", "face": cert.face, "k": cert.k,
               "a": list(cert.vertices),
               "S": [list(s) for s in cert.sequences]}
    else:
        doc = {"format": CERT_FORMAT_NAME, "version": FORMAT_VERSION,
               "kind": "bishell", "face": cert.face, "k": cert.s,
               "a": list(cert.a_sequence), "b": list(cert.b_sequence)}
    if drawing_sha256 is not None:
        doc["drawing_sha256"] = drawing_sha256
    try:
        certificate_from_document(doc)
    except DocumentError as exc:
        raise ValueError(str(exc)) from None
    return doc


def certificate_from_document(document):
    """Parse a certificate document; returns (certificate, drawing_sha256)."""
    _require(isinstance(document, dict), "certificate must be an object")
    _require(document.get("format") == CERT_FORMAT_NAME,
             f'header must declare "format": "{CERT_FORMAT_NAME}"')
    _require(document.get("version") == FORMAT_VERSION,
             f"unsupported version {quoted(document.get('version'))}")
    kind = document.get("kind")
    _require(kind in ("seq-shell", "bishell"), f"unknown certificate kind {quoted(kind)}")
    face = document.get("face")
    k = document.get("k")
    _require(_is_int(face) and _is_int(k) and k >= 0,
             '"face" and "k" must be integers, k nonnegative')
    a = document.get("a")
    _require(isinstance(a, list) and len(a) == k + 1 and all(_is_int(x) for x in a),
             f'"a" must list k+1 = {quoted(k + 1)} vertex ids')
    digest = document.get("drawing_sha256")
    _require(digest is None or isinstance(digest, str), "bad drawing_sha256")
    allowed = {"format", "version", "kind", "face", "k", "a", "drawing_sha256"}
    if kind == "seq-shell":
        seqs = document.get("S")
        _require(isinstance(seqs, list) and len(seqs) == k + 1
                 and all(isinstance(s, list) and all(_is_int(x) for x in s) for s in seqs),
                 '"S" must list one vertex sequence per a-vertex')
        extra = set(document) - allowed - {"S"}
        _require(not extra, f"unknown keys {quoted(sorted(extra))}")
        return SeqShellCertificate(face, tuple(a), tuple(tuple(s) for s in seqs)), digest
    b = document.get("b")
    _require(isinstance(b, list) and len(b) == k + 1 and all(_is_int(x) for x in b),
             f'"b" must list k+1 = {quoted(k + 1)} vertex ids')
    extra = set(document) - allowed - {"b"}
    _require(not extra, f"unknown keys {quoted(sorted(extra))}")
    return BishellCertificate(face, tuple(a), tuple(b)), digest
