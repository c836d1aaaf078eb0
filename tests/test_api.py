"""The public API: every exported name resolves, none takes a face set,
and every entry that takes a face id rejects one outside the drawing.

A drawing has exactly one face set, trace_faces(drawing), cached on the
drawing, so a function that needs faces derives them from the drawing it
is given. A separate face-set argument could only ever disagree with it.
"""

import inspect

import pytest

import shellcert
from shellcert.drawing import FaceSet, trace_faces
from shellcert.generators import convex_drawing


def test_every_exported_name_resolves():
    missing = [name for name in shellcert.__all__ if not hasattr(shellcert, name)]
    assert missing == []
    assert len(set(shellcert.__all__)) == len(shellcert.__all__)


def _signatures():
    """(qualified name, signature) of every public callable: the exported
    functions, and the constructors and public methods of the exported
    classes. Exceptions take a message and have no Python signature."""
    for name in shellcert.__all__:
        obj = getattr(shellcert, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            # a FaceSet is built from its boundary walks, its field "faces"
            if obj is not FaceSet:
                yield name, inspect.signature(obj)
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", inspect.signature(member)
        elif callable(obj):
            yield name, inspect.signature(obj)


SIGNATURES = dict(_signatures())


def test_the_walk_covers_the_face_functions():
    for name in ("vertices_on_face", "k_edge_profile", "find_simple_sequence",
                 "edge_side_partition", "FaceSet.face_count", "Drawing"):
        assert name in SIGNATURES


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_no_face_set_parameter(name):
    for param in SIGNATURES[name].parameters.values():
        assert param.name != "faces", name
        # annotations are strings under "from __future__ import annotations"
        assert param.annotation is not FaceSet, name
        assert "FaceSet" not in str(param.annotation), name


FACE_ID_ENTRIES = {
    "vertices_on_face": lambda d, f: shellcert.vertices_on_face(d, f),
    "triangle_orientation": lambda d, f: shellcert.triangle_orientation(d, f, (0, 1), 2),
    "k_value": lambda d, f: shellcert.k_value(d, f, (0, 1)),
    "k_edge_profile": lambda d, f: shellcert.k_edge_profile(d, f),
    "vertex_k_profile": lambda d, f: shellcert.vertex_k_profile(d, f, 0),
    "invariant_edges": lambda d, f: shellcert.invariant_edges(d, f, 0),
    "recursion_check": lambda d, f: shellcert.recursion_check(d, f, 0, 0),
    "cumulative_bound_check": lambda d, f: shellcert.cumulative_bound_check(d, f, 0),
    "edge_side_partition": lambda d, f: shellcert.edge_side_partition(d, f, 0, 1),
    "find_simple_sequence": lambda d, f: shellcert.find_simple_sequence(d, f, 0, 1),
    "decide_seq_shellable": lambda d, f: shellcert.decide_seq_shellable(d, 1, f),
    "decide_bishellable": lambda d, f: shellcert.decide_bishellable(d, 1, f),
    "render_svg face_highlight": lambda d, f: shellcert.render_svg(d, face_highlight=f),
    "render_svg label_face": lambda d, f: shellcert.render_svg(d, label_face=f),
}


@pytest.mark.parametrize("entry", FACE_ID_ENTRIES)
def test_face_ids_outside_the_drawing_are_rejected(entry):
    d = convex_drawing(7)
    for face in (-1, trace_faces(d).face_count()):
        with pytest.raises(ValueError, match=f"^face {face} does not exist$"):
            FACE_ID_ENTRIES[entry](d, face)
