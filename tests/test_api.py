"""The public API: every exported name resolves, none takes a face set,
and every entry that takes a face id, a vertex or a level rejects one
outside the drawing or the range, each with one message.

A drawing has exactly one face set, trace_faces(drawing), cached on the
drawing, so a function that needs faces derives them from the drawing it
is given. A separate face-set argument could only ever disagree with it.

No module of the package imports a name it does not use, except the
package's __init__ and the re-exports marked "# noqa: F401".
"""

import ast
import importlib
import inspect
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

import shellcert
from corpus import not_good_k7_document
from shellcert.documents import load_drawing
from shellcert.drawing import FaceSet, trace_faces
from shellcert.errors import quoted
from shellcert.generators import convex_drawing, cylindrical_document
from test_drawing import double_crossing_k5_doc


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
    faces = [-1, trace_faces(d).face_count(), 1.0, True, "1"]
    # None selects every face of a decider and no face of render_svg
    if not entry.startswith(("decide", "render_svg")):
        faces.append(None)
    for face in faces:
        with pytest.raises(ValueError) as info:
            FACE_ID_ENTRIES[entry](d, face)
        assert type(info.value) is ValueError
        assert str(info.value) == f"face {quoted(face)} does not exist"


VERTEX_ENTRIES = {
    "delete_vertex": lambda d, v: shellcert.delete_vertex(d, v),
    "child_drawing": lambda d, v: shellcert.child_drawing(d, v),
    "triangle_orientation endpoint":
        lambda d, v: shellcert.triangle_orientation(d, 0, (0, v), 2),
    "triangle_orientation witness":
        lambda d, v: shellcert.triangle_orientation(d, 0, (0, 1), v),
    "k_value": lambda d, v: shellcert.k_value(d, 0, (v, 1)),
    "vertex_k_profile": lambda d, v: shellcert.vertex_k_profile(d, 0, v),
    "invariant_edges": lambda d, v: shellcert.invariant_edges(d, 0, v),
    "recursion_check": lambda d, v: shellcert.recursion_check(d, 0, v, 0),
    "edge_side_partition": lambda d, v: shellcert.edge_side_partition(d, 0, 0, v),
    "find_simple_sequence": lambda d, v: shellcert.find_simple_sequence(d, 0, v, 1),
}


@pytest.mark.parametrize("entry", VERTEX_ENTRIES)
def test_vertices_outside_the_drawing_are_rejected(entry):
    d = convex_drawing(7)
    for v in (99, -1, 1.0, [1], 10 ** 5000):
        with pytest.raises(ValueError) as info:
            VERTEX_ENTRIES[entry](d, v)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{quoted(v)} is not a vertex of the drawing"


# entry -> (argument name, its top value on convex K_8, call); every level
# is a plain int in 0..top, so neither a bool nor a float stands for one
LEVEL_ENTRIES = {
    "decide_seq_shellable": ("k", 6, lambda d, k: shellcert.decide_seq_shellable(d, k)),
    "decide_bishellable": ("s", 6, lambda d, s: shellcert.decide_bishellable(d, s)),
    "recursion_check": ("k", 2, lambda d, k: shellcert.recursion_check(d, 0, 0, k)),
    "cumulative_bound_check":
        ("kmax", 2, lambda d, kmax: shellcert.cumulative_bound_check(d, 0, kmax)),
}


@pytest.mark.parametrize("entry", LEVEL_ENTRIES)
def test_levels_outside_the_range_are_rejected(entry):
    d = convex_drawing(8)
    name, top, call = LEVEL_ENTRIES[entry]
    for level in (1.5, 1.0, True, "1", None, -1, top + 1, 10 ** 5000):
        with pytest.raises(ValueError) as info:
            call(d, level)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{name} must lie in 0..{top}, got {quoted(level)}"


# entry -> call with arguments that pass every other check; each reads the
# k-value labelling, which is defined on good drawings only
NOT_GOOD_ENTRIES = {
    "k_edge_profile": lambda d: shellcert.k_edge_profile(d, 0),
    "k_value": lambda d: shellcert.k_value(d, 0, (0, 1)),
    "triangle_orientation": lambda d: shellcert.triangle_orientation(d, 0, (0, 1), 2),
    "vertex_k_profile": lambda d: shellcert.vertex_k_profile(d, 0, 0),
    "invariant_edges": lambda d: shellcert.invariant_edges(d, 0, 0),
    "recursion_check": lambda d: shellcert.recursion_check(d, 0, 0, 0),
    "cumulative_bound_check": lambda d: shellcert.cumulative_bound_check(d, 0, 0),
    "edge_side_partition": lambda d: shellcert.edge_side_partition(d, 0, 0, 1),
    "decide_bishellable": lambda d: shellcert.decide_bishellable(d, 0, 0),
}
# what an entry says it cannot do, where that is not to compute k-values
NOT_GOOD_ACTIONS = {"decide_bishellable": "decide bishellability"}


@pytest.mark.parametrize("entry", NOT_GOOD_ENTRIES)
@pytest.mark.parametrize("doc, violation", [
    (not_good_k7_document, "edges (0, 1) and (1, 5) break condition (5)"),
    (double_crossing_k5_doc, "edges (0, 1) and (2, 3) break condition (4)")],
    ids=["adjacent-crossing-k7", "double-crossing-k5"])
def test_a_drawing_that_is_not_good_has_no_k_values(entry, doc, violation):
    d = load_drawing(doc())
    with pytest.raises(ValueError) as info:
        NOT_GOOD_ENTRIES[entry](d)
    assert type(info.value) is ValueError
    action = NOT_GOOD_ACTIONS.get(entry, "compute k-values")
    assert str(info.value) == f"cannot {action} of a drawing that is not good: {violation}"


# entry -> call that deletes vertex 0, or reads k-values across its
# deletion, with arguments that pass every other check
DELETION_ENTRIES = {
    "delete_vertex": lambda d: shellcert.delete_vertex(d, 0),
    "child_drawing": lambda d: shellcert.child_drawing(d, 0),
    "invariant_edges": lambda d: shellcert.invariant_edges(d, 0, 0),
    "recursion_check": lambda d: shellcert.recursion_check(d, 0, 0, 0),
}


@pytest.mark.parametrize("entry", DELETION_ENTRIES)
def test_a_3_vertex_drawing_has_no_vertex_to_delete(entry):
    d = convex_drawing(3)
    with pytest.raises(ValueError) as info:
        DELETION_ENTRIES[entry](d)
    assert type(info.value) is ValueError
    assert str(info.value) == "cannot delete a vertex of a 3-vertex drawing"


def test_simple_sequence_length_is_a_plain_int():
    d = convex_drawing(8)
    assert shellcert.find_simple_sequence(d, 0, 0, 2).vertices == (1, 2)
    for length in (1.5, True, "2", 0):
        with pytest.raises(ValueError) as info:
            shellcert.find_simple_sequence(d, 0, 0, length)
        assert str(info.value) == "length must be at least 1"


@pytest.mark.parametrize("entry", (shellcert.harary_hill_bound, shellcert.max_k))
def test_vertex_counts_are_positive_plain_ints(entry):
    for n in (None, "0", 1.0, True, 0, -1):
        with pytest.raises(ValueError) as info:
            entry(n)
        assert type(info.value) is ValueError
        assert str(info.value) == "n must be positive"
    assert type(entry(5)) is int


EDGE_ENTRIES = {
    "k_value": lambda d, e: shellcert.k_value(d, 0, e),
    "triangle_orientation": lambda d, e: shellcert.triangle_orientation(d, 0, e, 2),
}


@pytest.mark.parametrize("entry", EDGE_ENTRIES)
def test_edges_that_are_not_pairs_are_rejected(entry):
    d = convex_drawing(6)
    for edge in (None, 5, (0,), (0, 1, 2)):
        with pytest.raises(ValueError) as info:
            EDGE_ENTRIES[entry](d, edge)
        assert type(info.value) is ValueError
        assert str(info.value) == f"edge must be a pair of vertices, got {quoted(edge)}"


def test_a_point_is_two_int_or_fraction_coordinates():
    d = convex_drawing(6)
    for point in (None, 5, "12", (1,), (1, 2, 3), ("1/3", 0), (1.0, 2), (1, True)):
        with pytest.raises(ValueError) as info:
            shellcert.locate_face(d, point)
        assert type(info.value) is ValueError
        assert str(info.value) == \
            f"point must be two int or Fraction coordinates, got {quoted(point)}"
    assert shellcert.locate_face(d, (Fraction(1, 3), 0)) == shellcert.locate_face(d, [1, 0])


def test_bishell_to_seq_takes_a_bishell_certificate():
    seq = shellcert.SeqShellCertificate(0, (1, 2), ((3, 4), (3,)))
    for cert in (None, seq, (0, (1, 2), (3, 4))):
        with pytest.raises(ValueError) as info:
            shellcert.bishell_to_seq(cert)
        assert type(info.value) is ValueError
        assert str(info.value) == f"cert must be a BishellCertificate, got {quoted(cert)}"


def _raise_sites():
    """(exception class, message template, file:line) of every raise in
    the package of a call whose first argument is a string literal or an
    f-string, each f-string field read as {}. A call _require(cond, msg),
    which raises DocumentError(msg) unless cond holds, is such a raise."""
    for path in sorted((Path(shellcert.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                cls, message = ast.unparse(node.exc.func), node.exc.args[0]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "_require" and len(node.args) == 2):
                cls, message = "DocumentError", node.args[1]
            else:
                continue
            if isinstance(message, ast.JoinedStr):
                template = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                   for part in message.values)
            elif isinstance(message, ast.Constant) and isinstance(message.value, str):
                template = message.value
            else:
                continue
            yield cls, template, f"{path.name}:{node.lineno}"


def test_each_message_is_raised_at_one_site():
    # one rule, one raise: a second copy of a check drifts from the first
    sites = {}
    for cls, template, where in _raise_sites():
        sites.setdefault((cls, template), []).append(where)
    assert len(sites) > 100
    assert {pair: at for pair, at in sites.items() if len(at) > 1} == {}


def test_the_layer_tracer_wraps_names_that_resolve():
    # perfbench/layertrace.py replaces these module bindings by name; run
    # from source, so the check writes no bytecode next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    wrapped = runpy.run_path(str(path))["WRAPPED"]
    assert wrapped
    missing = [(module, name) for module, name, _ in wrapped
               if not hasattr(importlib.import_module(f"shellcert.{module}"), name)]
    assert missing == []


def test_the_geometric_loader_calls_planarize_by_its_module_binding(monkeypatch):
    # perfbench/layertrace.py wraps documents.planarize and reads its three
    # positional arguments; a loader that went round that binding would
    # leave every traced planarize metric at 0
    documents = importlib.import_module("shellcert.documents")
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return planarize(*args, **kwargs)

    doc = cylindrical_document(6)  # made before the wrap: making it planarizes
    planarize = documents.planarize
    monkeypatch.setattr(documents, "planarize", counted)
    load_drawing(doc)
    assert len(calls) == 1
    (n, positions, polylines), kwargs = calls[0]
    assert kwargs == {}
    assert n == 6
    assert positions == {v["id"]: (v["x"], v["y"]) for v in doc["vertices"]}
    assert sorted(polylines) == [(u, v) for u in range(6) for v in range(u + 1, 6)]


def test_every_imported_name_is_used():
    unused = []
    for path in sorted((Path(shellcert.__file__).parent).glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [(path.name, name) for alias in node.names
                       if (name := alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
