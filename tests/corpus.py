"""Shared, cached test fixtures: reference drawings reused across modules."""

import json
from fractions import Fraction
from functools import lru_cache

from shellcert.drawing import Drawing, trace_faces, vertices_on_face
from shellcert.generators import (convex_drawing, cylindrical_drawing,
                                  random_rectilinear, rectilinear_document)
from shellcert.planarize import outer_face


@lru_cache(maxsize=None)
def convex(n):
    return convex_drawing(n)


@lru_cache(maxsize=None)
def cylindrical(n):
    return cylindrical_drawing(n)


@lru_cache(maxsize=None)
def rectilinear(n, seed):
    return random_rectilinear(n, seed)


def sample_faces(drawing, want=3):
    """A deterministic face sample: the unbounded face plus the smallest
    face ids, at least `want` faces where the drawing has them."""
    faces = trace_faces(drawing)
    chosen = [outer_face(drawing)]
    for f in faces.face_ids():
        if len(chosen) >= want:
            break
        if f not in chosen:
            chosen.append(f)
    return chosen


def faces_with_vertices(drawing, minimum=2):
    faces = trace_faces(drawing)
    return [f for f in faces.face_ids()
            if len(vertices_on_face(drawing, f)) >= minimum]


@lru_cache(maxsize=None)
def two_page_drawing(n, pages):
    """A 2-page book drawing of K_n, as a combinatorial Drawing.

    Vertex i sits on the spine (the x-axis) at x = i**3. Edge (i, j), the
    k-th of the edges in ascending order, is a half-circle over its ends
    on the top page if pages[k] is "0" and on the bottom page if it is
    "1". Edges (i, j) and (k, l), i < k, cross iff they share a page and
    i < k < j < l, at x = (KL - IJ) / (K + L - I - J), where I = i**3 and
    so on, and each chain lists its crossings by that x. At x = i three
    half-circles can meet in one point (first at n = 9); at x = i**3 no
    three meet for n <= 32, and only the order along the chains differs.

    At a crossing of a = (i, j) and b = (k, l), i < k, with next and prev
    the chain neighbours toward the larger and the smaller end, the ccw
    rotation is (a_next, b_next, a_prev, b_prev) on the top page and
    (a_next, b_prev, a_prev, b_next) on the bottom page. At a vertex v the
    ccw order is: top edges to the right, nearest first; top edges to the
    left, farthest first; bottom edges to the left, nearest first; bottom
    edges to the right, farthest first.
    """
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pages) != len(edges):
        raise ValueError(f"K_{n} needs one page for each of its {len(edges)} edges")
    page = dict(zip(edges, map(int, pages)))
    hits = {e: [] for e in edges}
    pairs = {}
    for a in edges:
        for b in edges:
            (i, j), (k, l) = a, b
            if i < k < j < l and page[a] == page[b]:
                c = n + len(pairs)
                pairs[c] = (a, b)
                x = Fraction(k**3 * l**3 - i**3 * j**3, k**3 + l**3 - i**3 - j**3)
                hits[a].append((x, c))
                hits[b].append((x, c))
    chains = {e: (e[0], *(c for _, c in sorted(hits[e])), e[1]) for e in edges}
    around = {}  # (crossing, edge) -> the crossing's neighbours along the edge
    for e, ch in chains.items():
        for prev, c, next_ in zip(ch, ch[1:], ch[2:]):
            around[c, e] = prev, next_
    rotations = {}
    for c, (a, b) in pairs.items():
        (a_prev, a_next), (b_prev, b_next) = around[c, a], around[c, b]
        rotations[c] = ((a_next, b_next, a_prev, b_prev) if page[a] == 0
                        else (a_next, b_prev, a_prev, b_next))
    for v in range(n):
        right, left = range(v + 1, n), range(v)
        order = ([(v, u) for u in right if page[v, u] == 0]
                 + [(u, v) for u in left if page[u, v] == 0]
                 + [(u, v) for u in reversed(left) if page[u, v] == 1]
                 + [(v, u) for u in reversed(right) if page[v, u] == 1])
        rotations[v] = tuple(chains[e][1] if e[0] == v else chains[e][-2] for e in order)
    return Drawing(range(n), pairs, rotations, chains)


@lru_cache(maxsize=None)
def rectilinear_document_text(n, seed):
    return json.dumps(rectilinear_document(n, seed))


def rerouted_document(n, seed, edge, points):
    """The seeded rectilinear document with one edge's straight line
    replaced by a polyline through the given points (which may make the
    drawing degenerate or not good)."""
    doc = json.loads(rectilinear_document_text(n, seed))
    for e in doc["edges"]:
        if (e["u"], e["v"]) == tuple(edge):
            e["polyline"] = [e["polyline"][0], *map(list, points), e["polyline"][-1]]
    return doc


def not_good_k7_document():
    """Rectilinear K7 (seed 1) with the edge 1-5 detouring through two
    interior points: the document loads, but the drawing is not good."""
    return rerouted_document(7, 1, (1, 5), ((-54248, -78883), (8571, -20835)))


def top_level_lines(text, key):
    """The element lines of the top-level list or object under key."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f' "{key}":'))
    closing = " " + {"[": "]", "{": "}"}[lines[start][-1]]
    end = next(i for i in range(start, len(lines)) if lines[i].rstrip(",") == closing)
    return [line.rstrip(",") for line in lines[start + 1:end]]
