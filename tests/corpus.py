"""Shared, cached test fixtures: reference drawings reused across modules."""

import json
from functools import lru_cache

from shellcert.drawing import trace_faces, vertices_on_face
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
