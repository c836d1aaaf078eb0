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

from .drawing import Drawing, edge_key, trace_faces
from .errors import DocumentError
from .planarize import planarize

FORMAT_NAME = "shellcert-drawing"
CERT_FORMAT_NAME = "shellcert-certificate"
FORMAT_VERSION = 1


def _is_int(x) -> bool:
    return type(x) is int


def _require(cond, msg):
    if not cond:
        raise DocumentError(msg)


def load_drawing(document) -> Drawing:
    """Build a Drawing from a parsed interchange document (a dict)."""
    _require(isinstance(document, dict), "document must be an object")
    _require(document.get("format") == FORMAT_NAME,
             f'header must declare "format": "{FORMAT_NAME}"')
    _require(document.get("version") == FORMAT_VERSION,
             f"unsupported version {document.get('version')!r}")
    mode = document.get("mode")
    _require(mode in ("geometric", "combinatorial"),
             f"unknown mode {mode!r}")
    n = document.get("n")
    _require(_is_int(n) and n >= 3, '"n" must be an integer >= 3')
    if mode == "geometric":
        return _load_geometric(document, n)
    return _load_combinatorial(document, n)


def load_drawing_path(path) -> Drawing:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"not valid JSON: {exc}") from None
    return load_drawing(document)


def _load_geometric(document, n) -> Drawing:
    allowed = {"format", "version", "mode", "n", "vertices", "edges"}
    extra = set(document) - allowed
    _require(not extra, f"unknown keys {sorted(extra)} in geometric document")

    vertices = document.get("vertices")
    _require(isinstance(vertices, list) and len(vertices) == n,
             '"vertices" must list each of the n vertices once')
    positions = {}
    for item in vertices:
        _require(isinstance(item, dict) and set(item) == {"id", "x", "y"},
                 "each vertex needs exactly id, x, y")
        vid, x, y = item["id"], item["x"], item["y"]
        _require(_is_int(vid) and _is_int(x) and _is_int(y),
                 f"vertex {item!r}: id and coordinates must be integers")
        _require(0 <= vid < n, f"vertex id {vid} out of range")
        _require(vid not in positions, f"vertex id {vid} repeated")
        positions[vid] = (x, y)

    edges = document.get("edges")
    # the count comes first: the set of all pairs is quadratic in n
    _require(isinstance(edges, list) and len(edges) == n * (n - 1) // 2,
             '"edges" must list every vertex pair exactly once')
    want = {(u, v) for u in range(n) for v in range(u + 1, n)}
    polylines = {}
    for item in edges:
        _require(isinstance(item, dict) and set(item) == {"u", "v", "polyline"},
                 "each edge needs exactly u, v, polyline")
        u, v = item["u"], item["v"]
        _require(_is_int(u) and _is_int(v) and edge_key(u, v) in want,
                 f"edge {item!r}: endpoints must be distinct vertex ids")
        e = edge_key(u, v)
        _require(e not in polylines, f"edge {e} repeated")
        poly = item["polyline"]
        _require(isinstance(poly, list) and len(poly) >= 2,
                 f"edge {e}: polyline needs at least 2 points")
        pts = []
        for pt in poly:
            _require(isinstance(pt, list) and len(pt) == 2
                     and _is_int(pt[0]) and _is_int(pt[1]),
                     f"edge {e}: polyline points must be integer pairs")
            pts.append((pt[0], pt[1]))
        first, last = (pts[0], pts[-1]) if (u, v) == e else (pts[-1], pts[0])
        _require(first == positions[e[0]] and last == positions[e[1]],
                 f"edge {e}: polyline must start and end at its vertices")
        polylines[e] = pts if (u, v) == e else list(reversed(pts))
    return planarize(n, positions, polylines)


def _load_combinatorial(document, n) -> Drawing:
    allowed = {"format", "version", "mode", "n", "rotation_order",
               "nodes", "rotations", "chains"}
    extra = set(document) - allowed
    _require(not extra, f"unknown keys {sorted(extra)} in combinatorial document")
    _require(document.get("rotation_order") == "ccw",
             'combinatorial documents must declare "rotation_order": "ccw"')

    nodes = document.get("nodes")
    _require(isinstance(nodes, list), '"nodes" must be a list')
    vertex_ids = set()
    crossings = {}
    for item in nodes:
        _require(isinstance(item, dict) and item.get("kind") in ("vertex", "crossing"),
                 'each node needs "kind": "vertex" or "crossing"')
        nid = item.get("id")
        _require(_is_int(nid) and nid >= 0, f"node id {nid!r} must be a nonnegative integer")
        _require(nid not in vertex_ids and nid not in crossings, f"node id {nid} repeated")
        if item["kind"] == "vertex":
            _require(set(item) == {"id", "kind"}, f"vertex node {nid}: unknown keys")
            vertex_ids.add(nid)
        else:
            _require(set(item) == {"id", "kind", "edges"},
                     f"crossing node {nid} needs exactly id, kind, edges")
            pair = item["edges"]
            _require(isinstance(pair, list) and len(pair) == 2,
                     f"crossing {nid}: edges must list the two crossing edges")
            edges = []
            for uv in pair:
                _require(isinstance(uv, list) and len(uv) == 2
                         and _is_int(uv[0]) and _is_int(uv[1]) and uv[0] != uv[1],
                         f"crossing {nid}: bad edge {uv!r}")
                edges.append(edge_key(uv[0], uv[1]))
            _require(edges[0] != edges[1], f"crossing {nid}: edges must differ")
            crossings[nid] = frozenset(edges)
    _require(vertex_ids == set(range(n)), "vertex nodes must be exactly 0..n-1")

    raw_rot = document.get("rotations")
    _require(isinstance(raw_rot, dict), '"rotations" must map node ids to dart lists')
    rotations = {}
    for key, lst in raw_rot.items():
        nid = _parse_int_key(key, "rotation")
        _require(isinstance(lst, list) and all(_is_int(x) for x in lst),
                 f"rotation at {nid} must be a list of node ids")
        _require(nid not in rotations, f"rotation at {nid} repeated")
        rotations[nid] = tuple(lst)

    raw_chains = document.get("chains")
    _require(isinstance(raw_chains, dict), '"chains" must map "u-v" to node sequences')
    chains = {}
    for key, lst in raw_chains.items():
        e = _parse_edge_key(key)
        _require(e not in chains, f"chain {key} repeated")
        _require(isinstance(lst, list) and all(_is_int(x) for x in lst),
                 f"chain {key} must be a list of node ids")
        chains[e] = tuple(lst)

    try:
        drawing = Drawing(range(n), crossings, rotations, chains)
    except Exception as exc:
        raise DocumentError(str(exc)) from None
    trace_faces(drawing)  # raises EmbeddingError on a non-sphere rotation system
    return drawing


def _parse_int_key(key, what) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise DocumentError(f"{what} key {key!r} is not a node id") from None


def _parse_edge_key(key):
    parts = str(key).split("-")
    if len(parts) == 2:
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            u = v = None
        if u is not None and u != v:
            return edge_key(u, v)
    raise DocumentError(f'chain key {key!r} must look like "u-v"')


def drawing_to_document(drawing: Drawing, mode: str) -> dict:
    """Serialize a drawing. Geometric mode needs geometry and contiguous
    vertex ids 0..n-1 (subdrawings keep their original labels and must be
    exported combinatorially after relabeling by the caller)."""
    if drawing.vertices != tuple(range(drawing.n)):
        raise ValueError("only drawings with vertex ids 0..n-1 can be exported")
    head = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
            "mode": mode, "n": drawing.n}
    if mode == "geometric":
        if drawing.geometry is None:
            raise ValueError("drawing carries no geometry")
        geo = drawing.geometry
        for e, pts in sorted(geo.polylines.items()):
            if not all(_is_int(x) and _is_int(y) for x, y in pts):
                raise ValueError(f"edge {e}: polyline is not integer-valued")
        head["vertices"] = [{"id": v, "x": geo.points[v][0], "y": geo.points[v][1]}
                            for v in drawing.vertices]
        head["edges"] = [{"u": e[0], "v": e[1],
                          "polyline": [[x, y] for x, y in geo.polylines[e]]}
                         for e in drawing.edges()]
        return head
    if mode != "combinatorial":
        raise ValueError(f"unknown mode {mode!r}")
    head["rotation_order"] = "ccw"
    nodes = [{"id": v, "kind": "vertex"} for v in drawing.vertices]
    for c in sorted(drawing.crossings):
        pair = sorted(drawing.crossings[c])
        nodes.append({"id": c, "kind": "crossing",
                      "edges": [list(pair[0]), list(pair[1])]})
    head["nodes"] = nodes
    head["rotations"] = {str(x): list(rot) for x, rot in sorted(drawing.rotations.items())}
    head["chains"] = {f"{e[0]}-{e[1]}": list(ch) for e, ch in sorted(drawing.chains.items())}
    return head


def dump_document(document, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- certificates ------------------------------------------------------------

def certificate_to_document(cert, drawing_sha256=None) -> dict:
    """Serialize a certificate; verifiable later without re-running a search."""
    from .shellability import BishellCertificate, SeqShellCertificate

    if isinstance(cert, SeqShellCertificate):
        doc = {"format": CERT_FORMAT_NAME, "version": FORMAT_VERSION,
               "kind": "seq-shell", "face": cert.face, "k": cert.k,
               "a": list(cert.vertices),
               "S": [list(s) for s in cert.sequences]}
    elif isinstance(cert, BishellCertificate):
        doc = {"format": CERT_FORMAT_NAME, "version": FORMAT_VERSION,
               "kind": "bishell", "face": cert.face, "k": cert.s,
               "a": list(cert.a_sequence), "b": list(cert.b_sequence)}
    else:
        raise ValueError("not a certificate")
    if drawing_sha256 is not None:
        doc["drawing_sha256"] = drawing_sha256
    return doc


def certificate_from_document(document):
    """Parse a certificate document; returns (certificate, drawing_sha256)."""
    from .shellability import BishellCertificate, SeqShellCertificate

    _require(isinstance(document, dict), "certificate must be an object")
    _require(document.get("format") == CERT_FORMAT_NAME,
             f'header must declare "format": "{CERT_FORMAT_NAME}"')
    _require(document.get("version") == FORMAT_VERSION,
             f"unsupported version {document.get('version')!r}")
    kind = document.get("kind")
    _require(kind in ("seq-shell", "bishell"), f"unknown certificate kind {kind!r}")
    face = document.get("face")
    k = document.get("k")
    _require(_is_int(face) and _is_int(k) and k >= 0,
             '"face" and "k" must be integers, k nonnegative')
    a = document.get("a")
    _require(isinstance(a, list) and len(a) == k + 1 and all(_is_int(x) for x in a),
             f'"a" must list k+1 = {k + 1} vertex ids')
    digest = document.get("drawing_sha256")
    _require(digest is None or isinstance(digest, str), "bad drawing_sha256")
    allowed = {"format", "version", "kind", "face", "k", "a", "drawing_sha256"}
    if kind == "seq-shell":
        seqs = document.get("S")
        _require(isinstance(seqs, list) and len(seqs) == k + 1
                 and all(isinstance(s, list) and all(_is_int(x) for x in s) for s in seqs),
                 '"S" must list one vertex sequence per a-vertex')
        extra = set(document) - allowed - {"S"}
        _require(not extra, f"unknown keys {sorted(extra)}")
        return SeqShellCertificate(face, tuple(a), tuple(tuple(s) for s in seqs)), digest
    b = document.get("b")
    _require(isinstance(b, list) and len(b) == k + 1 and all(_is_int(x) for x in b),
             f'"b" must list k+1 = {k + 1} vertex ids')
    extra = set(document) - allowed - {"b"}
    _require(not extra, f"unknown keys {sorted(extra)}")
    return BishellCertificate(face, tuple(a), tuple(b)), digest
