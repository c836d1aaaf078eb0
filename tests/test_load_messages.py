"""Every rejection message of the drawing loaders and of Drawing's
structural check, pinned word for word: one fault per document, one
test per message, and a few documents with two faults to pin which is
reported. Mutated combinatorial documents load to the same drawing and
faces, or fail with the same message, as in the reference loader of
tests/oracles.py."""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import convex, cylindrical, rectilinear
from oracles import canonical_form, face_views, reference_load_combinatorial
from shellcert.documents import drawing_to_document, load_drawing
from shellcert.drawing import Drawing, delete_vertex, trace_faces
from shellcert.errors import DocumentError, EmbeddingError, ShellcertError, StructureError
from shellcert.generators import convex_document, cylindrical_document, rectilinear_document
from test_drawing import convex_k4_doc, triangle_doc


def k4():
    """Convex K_4 as a combinatorial document: crossing 4 joins the
    diagonals (0, 2) and (1, 3), and chains run 0-1, 0-2, 0-3, 1-2, 1-3, 2-3.

    rotations: 0 [1, 4, 3], 1 [2, 4, 0], 2 [3, 4, 1], 3 [2, 0, 4],
    4 [2, 3, 0, 1]; chains 0-2 [0, 4, 2] and 1-3 [1, 4, 3].
    """
    return drawing_to_document(load_drawing(convex_k4_doc()), "combinatorial")


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return mutate


def _segment_in_two_chains(doc):
    doc["nodes"][4]["edges"] = [[0, 1], [0, 2]]
    doc["chains"]["0-1"] = [0, 4, 1]
    doc["chains"]["1-3"] = [1, 3]


def _chain_key_twice(doc):
    doc["chains"]["1-0"] = [0, 1]


def _noncanonical_key_then_non_list(doc):
    rotations = doc["rotations"]
    rotations["1"] = 7
    doc["rotations"] = {"00": rotations.pop("0"), **rotations}


def _non_list_then_noncanonical_key(doc):
    rotations = doc["rotations"]
    rotations["0"] = 7
    rotations["01"] = rotations.pop("1")


def _drop_vertex_node(doc):
    doc["nodes"] = doc["nodes"][:3] + doc["nodes"][4:]


# Two faults each, where Drawing's one pass over the chains meets the
# fault reported second first: the ordered check still names the first.

def _wrong_neighbour_then_chain_revisits(doc):
    # the pass fails to find 3 in the rotation at 0 at chain 0-3,
    # before it reaches chain 2-3
    doc["rotations"]["0"] = [1, 4, 2]
    doc["chains"]["2-3"] = [2, 4, 2, 3]


def _crossing_order_then_crossing_unused(doc):
    # the pass finds chain 0-2 turning at crossing 4; the ordered check
    # counts the crossing's uses before it reads any rotation
    doc["rotations"]["4"] = [3, 2, 0, 1]
    doc["chains"]["1-3"] = [1, 3]


def _rotation_missing_then_chain_ends(doc):
    # the pass compares the rotation keys with the nodes before any chain
    del doc["rotations"]["4"]
    doc["chains"]["2-3"] = [3, 2]


COMBINATORIAL = [
    # (test id, mutation, message)
    ("unknown-key", _set(["extra"], 1),
     "unknown keys ['extra'] in combinatorial document"),
    ("rotation-order", _set(["rotation_order"], "cw"),
     'combinatorial documents must declare "rotation_order": "ccw"'),
    ("nodes-not-list", _set(["nodes"], {}), '"nodes" must be a list'),
    ("node-kind", _set(["nodes", 0, "kind"], "bend"),
     'each node needs "kind": "vertex" or "crossing"'),
    ("node-not-object", _set(["nodes", 0], [0, "vertex"]),
     'each node needs "kind": "vertex" or "crossing"'),
    ("node-id-negative", _set(["nodes", 0, "id"], -1),
     "node id -1 must be a nonnegative integer"),
    ("node-id-string", _set(["nodes", 0, "id"], "0"),
     "node id '0' must be a nonnegative integer"),
    ("node-id-missing", _drop(["nodes", 0, "id"]),
     "node id None must be a nonnegative integer"),
    ("node-id-repeated", _set(["nodes", 1, "id"], 0), "node id 0 repeated"),
    ("vertex-node-keys", _set(["nodes", 0, "x"], 1), "vertex node 0: unknown keys"),
    ("crossing-node-keys", _set(["nodes", 4, "x"], 1),
     "crossing node 4 needs exactly id, kind, edges"),
    ("crossing-node-no-edges", _drop(["nodes", 4, "edges"]),
     "crossing node 4 needs exactly id, kind, edges"),
    ("crossing-edge-count", _set(["nodes", 4, "edges"], [[0, 2]]),
     "crossing 4: edges must list the two crossing edges"),
    ("crossing-edges-not-list", _set(["nodes", 4, "edges"], "0-2,1-3"),
     "crossing 4: edges must list the two crossing edges"),
    ("crossing-loop-edge", _set(["nodes", 4, "edges"], [[0, 2], [1, 1]]),
     "crossing 4: bad edge [1, 1]"),
    ("crossing-edge-not-pair", _set(["nodes", 4, "edges"], [[0, 2, 3], [1, 3]]),
     "crossing 4: bad edge [0, 2, 3]"),
    ("crossing-edge-bool", _set(["nodes", 4, "edges"], [[0, 2], [True, 3]]),
     "crossing 4: bad edge [True, 3]"),
    ("crossing-same-edge", _set(["nodes", 4, "edges"], [[0, 2], [2, 0]]),
     "crossing 4: edges must differ"),
    ("vertex-nodes", _drop_vertex_node, "vertex nodes must be exactly 0..n-1"),
    ("rotations-not-object", _set(["rotations"], []),
     '"rotations" must map node ids to dart lists'),
    ("rotation-key", _set(["rotations", "x"], [1]), "rotation key 'x' is not a node id"),
    ("rotation-entries", _set(["rotations", "0"], [1, "4", 3]),
     "rotation at 0 must be a list of node ids"),
    ("rotation-not-list", _set(["rotations", "0"], 1),
     "rotation at 0 must be a list of node ids"),
    # of two faulty rotations, the first in document order is reported
    ("rotation-key-then-not-list", _noncanonical_key_then_non_list,
     "rotation key '00' is not a node id"),
    ("rotation-not-list-then-key", _non_list_then_noncanonical_key,
     "rotation at 0 must be a list of node ids"),
    ("chains-not-object", _set(["chains"], []),
     '"chains" must map "u-v" to node sequences'),
    ("chain-key", _set(["chains", "0_1"], [0, 1]),
     "chain key '0_1' must look like \"u-v\""),
    ("chain-key-loop", _set(["chains", "1-1"], [1, 1]),
     "chain key '1-1' must look like \"u-v\""),
    ("chain-key-repeated", _chain_key_twice, "chain 1-0 repeated"),
    ("chain-entries", _set(["chains", "0-1"], [0, 1.0]),
     "chain 0-1 must be a list of node ids"),
    # Drawing's structural check, reached through the loader
    ("chain-missing", _drop(["chains", "0-1"]),
     "chains must cover every vertex pair exactly once"),
    ("chain-ends", _set(["chains", "0-1"], [1, 0]), "chain of (0, 1) must run from 0 to 1"),
    ("chain-revisits", _set(["chains", "0-2"], [0, 4, 0, 2]),
     "chain of (0, 2) revisits a node"),
    ("chain-unknown-node", _set(["chains", "0-1"], [0, 7, 1]),
     "chain of (0, 1) passes through unknown node 7"),
    ("chain-through-vertex", _set(["chains", "0-1"], [0, 3, 1]),
     "chain of (0, 1) passes through unknown node 3"),
    ("crossing-not-on-edge", _set(["chains", "0-1"], [0, 4, 1]),
     "crossing 4 does not involve edge (0, 1)"),
    # the chains alone are sound, but the declared pair is not theirs
    ("crossing-declares-other-edges", _set(["nodes", 4, "edges"], [[0, 1], [2, 3]]),
     "crossing 4 does not involve edge (0, 2)"),
    ("segment-twice", _segment_in_two_chains, "segment (0, 4) appears in two chains"),
    ("crossing-unused", _set(["chains", "1-3"], [1, 3]),
     "crossing 4 must lie on exactly its two edges"),
    ("rotation-missing", _drop(["rotations", "4"]),
     "rotations must list every node exactly once"),
    ("rotation-extra", _set(["rotations", "5"], [0]),
     "rotations must list every node exactly once"),
    ("rotation-wrong-neighbour", _set(["rotations", "0"], [1, 4, 2]),
     "rotation at 0 does not match incident segments"),
    ("rotation-repeats", _set(["rotations", "0"], [1, 4, 4]),
     "rotation at 0 does not match incident segments"),
    ("rotation-short", _set(["rotations", "0"], [1, 4]),
     "rotation at 0 does not match incident segments"),
    ("rotation-long", _set(["rotations", "0"], [1, 4, 3, 2]),
     "rotation at 0 does not match incident segments"),
    ("crossing-rotation-short", _set(["rotations", "4"], [2, 3, 0]),
     "rotation at 4 does not match incident segments"),
    ("crossing-rotation-repeats", _set(["rotations", "4"], [2, 3, 2, 1]),
     "rotation at 4 does not match incident segments"),
    ("crossing-rotation-order", _set(["rotations", "4"], [3, 2, 0, 1]),
     "crossing 4: the two segments of each edge must be opposite in the rotation"),
    # of two faults, the one the ordered check meets first is reported
    ("wrong-neighbour-then-chain-revisits", _wrong_neighbour_then_chain_revisits,
     "chain of (2, 3) revisits a node"),
    ("crossing-order-then-crossing-unused", _crossing_order_then_crossing_unused,
     "crossing 4 must lie on exactly its two edges"),
    ("rotation-missing-then-chain-ends", _rotation_missing_then_chain_ends,
     "chain of (2, 3) must run from 2 to 3"),
]


@pytest.mark.parametrize("mutate, message", [case[1:] for case in COMBINATORIAL],
                         ids=[case[0] for case in COMBINATORIAL])
def test_combinatorial_rejection(mutate, message):
    doc = k4()
    mutate(doc)
    with pytest.raises(DocumentError) as info:
        load_drawing(doc)
    assert str(info.value) == message


def test_combinatorial_rejection_of_a_non_sphere_rotation_system():
    doc = k4()
    doc["rotations"]["0"].reverse()
    with pytest.raises(EmbeddingError) as info:
        load_drawing(doc)
    assert str(info.value) == "rotation system is not a sphere embedding (F-E+V = 0)"


def _edge(index, **fields):
    def mutate(doc):
        doc["edges"][index].update(fields)
    return mutate


def _vertex(index, **fields):
    def mutate(doc):
        doc["vertices"][index].update(fields)
    return mutate


def _vertex_on_vertex(doc):
    # vertex 2 moves onto vertex 1, and its edges' ends move with it
    doc["vertices"][2].update(x=4, y=0)
    for edge in doc["edges"]:
        edge["polyline"] = [[4, 0] if list(p) == [0, 4] else p for p in edge["polyline"]]


def _edge_twice(doc):
    doc["edges"][2] = dict(doc["edges"][1])


GEOMETRIC = [
    ("unknown-key", _set(["extra"], 1), "unknown keys ['extra'] in geometric document"),
    ("vertices-short", _set(["vertices"], [{"id": 0, "x": 0, "y": 0}]),
     '"vertices" must list each of the n vertices once'),
    ("vertex-keys", _vertex(0, z=0), "each vertex needs exactly id, x, y"),
    ("vertex-not-object", _set(["vertices", 0], [0, 0, 0]),
     "each vertex needs exactly id, x, y"),
    ("vertex-float", _vertex(0, x=0.5), "vertices[0]: id and coordinates must be integers"),
    ("vertex-id-bool", _vertex(1, id=True), "vertices[1]: id and coordinates must be integers"),
    ("vertex-id-range", _vertex(2, id=3), "vertex id 3 out of range"),
    ("vertex-id-repeated", _vertex(1, id=0), "vertex id 0 repeated"),
    ("edges-short", _set(["edges"], []), '"edges" must list every vertex pair exactly once'),
    ("edge-keys", _edge(0, w=1), "each edge needs exactly u, v, polyline"),
    ("edge-not-object", _set(["edges", 0], [0, 1]), "each edge needs exactly u, v, polyline"),
    ("edge-loop", _edge(0, v=0), "edges[0]: endpoints must be distinct vertex ids"),
    ("edge-out-of-range", _edge(0, v=3), "edges[0]: endpoints must be distinct vertex ids"),
    ("edge-repeated", _edge_twice, "edge (0, 2) repeated"),
    ("polyline-one-point", _edge(0, polyline=[[0, 0]]),
     "edge (0, 1): polyline needs at least 2 points"),
    ("polyline-not-list", _edge(0, polyline="0,0 4,0"),
     "edge (0, 1): polyline needs at least 2 points"),
    ("polyline-point", _edge(0, polyline=[[0, 0], [4, 0.5]]),
     "edge (0, 1): polyline points must be integer pairs"),
    ("polyline-triple", _edge(0, polyline=[[0, 0, 0], [4, 0]]),
     "edge (0, 1): polyline points must be integer pairs"),
    ("polyline-ends", _edge(0, polyline=[[0, 0], [5, 0]]),
     "edge (0, 1): polyline must start and end at its vertices"),
    ("polyline-reversed-ends", _edge(0, u=1, v=0),
     "edge (0, 1): polyline must start and end at its vertices"),
    # JSON makes only lists, so an in-memory document with a tuple where
    # JSON has a list is refused
    ("polyline-tuple", _edge(0, polyline=((0, 0), (4, 0))),
     "edge (0, 1): polyline needs at least 2 points"),
    ("polyline-tuple-points", _edge(0, polyline=[(0, 0), (4, 0)]),
     "edge (0, 1): polyline points must be integer pairs"),
    # the planarizer's own check, reached through the loader
    ("vertex-on-vertex", _vertex_on_vertex, "two vertices share a position"),
]


@pytest.mark.parametrize("mutate, message", [case[1:] for case in GEOMETRIC],
                         ids=[case[0] for case in GEOMETRIC])
def test_geometric_rejection(mutate, message):
    doc = triangle_doc()
    mutate(doc)
    with pytest.raises(DocumentError) as info:
        load_drawing(doc)
    assert str(info.value) == message


def test_every_edge_fault_is_named_before_any_polyline_fault():
    # the loader checks each edge's keys, ends and repeats in one pass,
    # and planarize then checks the polylines
    doc = convex_k4_doc()
    doc["edges"][0]["polyline"] = doc["edges"][0]["polyline"][:1]
    doc["edges"][3] = dict(doc["edges"][2])
    with pytest.raises(DocumentError) as info:
        load_drawing(doc)
    assert str(info.value) == "edge (0, 3) repeated"


K4_CHAINS = {(0, 1): (0, 1), (0, 2): (0, 4, 2), (0, 3): (0, 3),
             (1, 2): (1, 2), (1, 3): (1, 4, 3), (2, 3): (2, 3)}
K4_ROTATIONS = {0: (1, 4, 3), 1: (2, 4, 0), 2: (3, 4, 1), 3: (2, 0, 4), 4: (2, 3, 0, 1)}


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


DIRECT = [
    # (test id, vertices, crossings, rotations, chains, message): faults
    # that a document cannot express
    ("two-vertices", (0, 1), {}, {0: (1,), 1: (0,)}, {(0, 1): (0, 1)},
     "a drawing needs at least 3 vertices"),
    ("crossing-id-is-vertex", range(3), {2: {(0, 1), (1, 2)}},
     {0: (1, 2), 1: (2, 0), 2: (0, 1)}, {(0, 1): (0, 1), (0, 2): (0, 2), (1, 2): (1, 2)},
     "crossing ids overlap vertex ids"),
    ("crossing-of-one-edge", range(4), {4: {(0, 2)}}, K4_ROTATIONS,
     {**K4_CHAINS, (1, 3): (1, 3)}, "crossing 4 must join exactly two edges"),
    ("crossing-of-three-edges", range(4), {4: {(0, 2), (1, 3), (0, 1)}}, K4_ROTATIONS,
     K4_CHAINS, "crossing 4 must join exactly two edges"),
    # a sound K4 but for its crossing's id, which is no plain int
    ("crossing-id-does-not-compare", range(4), {"x": {(0, 2), (1, 3)}},
     {0: (1, "x", 3), 1: (2, "x", 0), 2: (3, "x", 1), 3: (2, 0, "x"), "x": (2, 3, 0, 1)},
     {**K4_CHAINS, (0, 2): (0, "x", 2), (1, 3): (1, "x", 3)},
     "crossing id 'x' is not a plain int"),
    ("crossing-id-is-a-numeric-str", range(4), {"4": {(0, 2), (1, 3)}},
     {**K4_ROTATIONS, "4": (2, 3, 0, 1)}, K4_CHAINS, "crossing id '4' is not a plain int"),
    ("vertex-rotation-entry-does-not-compare", range(4), {4: {(0, 2), (1, 3)}},
     {**K4_ROTATIONS, 0: (1, "y", 3)}, K4_CHAINS,
     "rotation at 0 does not match incident segments"),
    # vertex ids that are no plain int, whether or not they sort with the rest
    ("vertex-ids-do-not-compare", (0, 1, "a"), {}, {}, {},
     "vertex id 'a' is not a plain int"),
    ("vertex-id-is-a-float", (0, 1, 2, 3.0), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS, K4_CHAINS,
     "vertex id 3.0 is not a plain int"),
    ("vertex-id-is-a-bool", (True, 0, 2, 3), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS, K4_CHAINS,
     "vertex id True is not a plain int"),
    ("vertex-id-is-a-numeric-str", (0, 1, 2, "3"), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     K4_CHAINS, "vertex id '3' is not a plain int"),
    # a repeated id is named as the loader names it, not through the chains
    ("vertex-id-repeated", (0, 1, 2, 3, 3), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS, K4_CHAINS,
     "vertex id 3 repeated"),
    # chain keys are the pairs (u, v) with u < v, as they are given
    ("chain-key-ends-do-not-compare", range(3), {}, {0: (1, 2), 1: (2, 0), 2: (0, 1)},
     {(0, 1): (0, 1), (0, 2): (0, 2), (1, "x"): (1, "x")},
     "chains must cover every vertex pair exactly once"),
    ("chain-key-is-an-int", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     {**_without(K4_CHAINS, (0, 1)), 5: (0, 1)},
     "chains must cover every vertex pair exactly once"),
    ("chain-key-is-reversed", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     {**_without(K4_CHAINS, (0, 1)), (1, 0): (1, 0)},
     "chains must cover every vertex pair exactly once"),
    # keys equal to a vertex pair whose ends are no plain ints: the drawing
    # would keep them, and its document would name the chain "True-2"
    ("chain-key-end-is-a-bool", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     {**_without(K4_CHAINS, (1, 2)), (True, 2): (1, 2)},
     "chain key (True, 2) is not a pair of plain ints"),
    ("chain-key-end-is-a-float", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     {**_without(K4_CHAINS, (0, 1)), (0.0, 1): (0, 1)},
     "chain key (0.0, 1) is not a pair of plain ints"),
    ("crossing-chain-key-end-is-a-bool", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     {**_without(K4_CHAINS, (1, 3)), (True, 3): (1, 4, 3)},
     "chain key (True, 3) is not a pair of plain ints"),
    # values of the wrong shape, and entries that do not hash
    ("rotation-is-none", range(4), {4: {(0, 2), (1, 3)}}, {**K4_ROTATIONS, 0: None},
     K4_CHAINS, "rotation at 0 is not a sequence of node ids"),
    ("rotation-entry-is-a-list", range(4), {4: {(0, 2), (1, 3)}},
     {**K4_ROTATIONS, 4: (2, [3], 0, 1)}, K4_CHAINS,
     "rotation at 4 is not a sequence of node ids"),
    ("chain-is-none", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     {**K4_CHAINS, (0, 1): None}, "chain of (0, 1) is not a sequence of node ids"),
    ("chain-entry-is-a-list", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS,
     {**K4_CHAINS, (0, 2): (0, [4], 2)}, "chain of (0, 2) is not a sequence of node ids"),
    ("crossing-pair-is-an-int", range(4), {4: 5}, K4_ROTATIONS, K4_CHAINS,
     "crossing 4 must join exactly two edges"),
    # a declared pair is read by membership as given, so edges given as
    # lists are not the chain keys
    ("crossing-pair-of-lists", range(4), {4: [[0, 2], [1, 3]]}, K4_ROTATIONS, K4_CHAINS,
     "crossing 4 must join exactly two edges"),
    ("crossing-pair-repeats-an-edge", range(4), {4: [(0, 2), (1, 3), (0, 2)]}, K4_ROTATIONS,
     K4_CHAINS, "crossing 4 must join exactly two edges"),
    # a pair with no length is refused before a membership test consumes it
    ("crossing-pair-is-an-iterator", range(4), {4: iter([(0, 2), (1, 3)])}, K4_ROTATIONS,
     K4_CHAINS, "crossing 4 must join exactly two edges"),
    ("crossing-pair-is-a-generator", range(4), {4: (e for e in [(0, 2), (1, 3)])},
     K4_ROTATIONS, K4_CHAINS, "crossing 4 must join exactly two edges"),
    # arguments of the wrong container type
    ("vertices-is-none", None, {4: {(0, 2), (1, 3)}}, K4_ROTATIONS, K4_CHAINS,
     "vertices must be an iterable of vertex ids, got None"),
    ("crossings-is-none", range(4), None, K4_ROTATIONS, K4_CHAINS,
     "crossings must be a mapping, got None"),
    ("crossings-is-a-list", range(4), [4], K4_ROTATIONS, K4_CHAINS,
     "crossings must be a mapping, got [4]"),
    ("rotations-is-none", range(4), {4: {(0, 2), (1, 3)}}, None, K4_CHAINS,
     "rotations must be a mapping, got None"),
    ("rotations-is-a-list", range(4), {4: {(0, 2), (1, 3)}}, list(K4_ROTATIONS), K4_CHAINS,
     "rotations must be a mapping, got [0, 1, 2, 3, 4]"),
    ("chains-is-none", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS, None,
     "chains must be a mapping, got None"),
    ("chains-is-a-list", range(4), {4: {(0, 2), (1, 3)}}, K4_ROTATIONS, list(K4_CHAINS),
     "chains must be a mapping, got [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]"),
    # a rule on the whole is checked before the one pass meets the rotation
    ("chain-key-end-is-a-bool-and-rotation-repeats", range(4), {4: {(0, 2), (1, 3)}},
     {**K4_ROTATIONS, 0: (1, 4, 1)}, {**_without(K4_CHAINS, (1, 2)), (True, 2): (1, 2)},
     "chain key (True, 2) is not a pair of plain ints"),
    # faults the one pass meets as a dart left unpaired or a failed lookup
    ("crossing-rotation-of-five", range(4), {4: {(0, 2), (1, 3)}},
     {**K4_ROTATIONS, 4: (2, 3, 0, 1, 3)}, K4_CHAINS,
     "rotation at 4 does not match incident segments"),
    ("vertex-rotation-repeats-and-drops", range(4), {4: {(0, 2), (1, 3)}},
     {**K4_ROTATIONS, 0: (1, 4, 1)}, K4_CHAINS,
     "rotation at 0 does not match incident segments"),
    # every dart is paired, but the crossing has no rotation of 4
    ("crossing-on-no-chain", range(4), {4: {(0, 2), (1, 3)}},
     {0: (1, 2, 3), 1: (2, 3, 0), 2: (3, 0, 1), 3: (0, 1, 2), 4: ()},
     {**K4_CHAINS, (0, 2): (0, 2), (1, 3): (1, 3)},
     "crossing 4 must lie on exactly its two edges"),
]


@pytest.mark.parametrize("vertices, crossings, rotations, chains, message",
                         [case[1:] for case in DIRECT], ids=[case[0] for case in DIRECT])
def test_direct_drawing_rejection(vertices, crossings, rotations, chains, message):
    with pytest.raises(StructureError) as info:
        Drawing(vertices, crossings, rotations, chains)
    assert str(info.value) == message


def _breaks_a_rule_on_the_whole(message):
    return (message in ("a drawing needs at least 3 vertices",
                        "chains must cover every vertex pair exactly once",
                        "crossing ids overlap vertex ids")
            or message.endswith(("is not a pair of plain ints", " repeated")))


HEADER = [case for case in DIRECT if _breaks_a_rule_on_the_whole(case[-1])]


@pytest.mark.parametrize("vertices, crossings, rotations, chains, message",
                         [case[1:] for case in HEADER], ids=[case[0] for case in HEADER])
def test_rules_on_the_whole_are_checked_before_the_one_pass(
        monkeypatch, vertices, crossings, rotations, chains, message):
    """Each rule on the whole has one check, which runs before the one pass
    over the chains and so names its fault whatever else is wrong."""
    def one_pass(self, declared):
        raise AssertionError("the one pass ran on a drawing that breaks a rule on the whole")

    monkeypatch.setattr(Drawing, "_number_darts", one_pass)
    with pytest.raises(StructureError) as info:
        Drawing(vertices, crossings, rotations, chains)
    assert str(info.value) == message


@pytest.mark.parametrize("pair, chains", [
    ({(0, 2), (True, 3)}, K4_CHAINS),
    ({(0.0, 2), (1, 3)}, K4_CHAINS),
    # a chain entry need only equal its node; the pair is keyed by the id
    ({(0, 2), (1, 3)}, {**K4_CHAINS, (0, 2): (0, 4.0, 2)}),
], ids=["crossing-edge-end-is-a-bool", "crossing-edge-end-is-a-float",
        "chain-entry-is-a-float"])
def test_crossing_pairs_are_the_chain_keys(pair, chains):
    """Ends that only equal ints are read by membership: the drawing
    keeps its own chain keys, and its document reads back."""
    drawing = Drawing(range(4), {4: pair}, K4_ROTATIONS, chains)
    assert drawing.crossings == {4: {(0, 2), (1, 3)}}
    assert [type(c) for c in drawing.crossings] == [int]
    assert {type(x) for e in drawing.crossings[4] for x in e} == {int}
    back = load_drawing(drawing_to_document(drawing, "combinatorial"))
    assert canonical_form(back) == canonical_form(drawing)


def _declared_pairs(draw, drawing):
    """The drawing's crossing pairs as a caller might declare them: in any
    container, with ends that equal ints, and on half the draws one pair
    wrong in its edges, its length or its shape, hashable or not."""
    def ends(e):
        return st.sampled_from([e, (float(e[0]), e[1]), (e[0], float(e[1])),
                                (bool(e[0]) if e[0] < 2 else e[0], e[1])])

    shapes = [tuple, list, set, frozenset, dict.fromkeys]
    declared = {}
    for c, pair in sorted(drawing.crossings.items()):
        members = draw(st.permutations(sorted(pair)).flatmap(
            lambda es: st.tuples(*map(ends, es))))
        declared[c] = draw(st.sampled_from(shapes))(members)
    if draw(st.booleans()):
        c = draw(st.sampled_from(sorted(declared)))
        member = st.sampled_from(sorted(drawing.chains)).flatmap(
            lambda e: st.one_of(ends(e), st.just(list(e))))
        members = draw(st.lists(member, max_size=3))
        shape = draw(st.sampled_from([*shapes, iter, lambda m: [list(e) for e in m]]))
        try:
            declared[c] = shape(members)
        except TypeError:  # a set of lists
            declared[c] = members
    return declared


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_declared_pairs_give_a_drawing_or_a_structure_error(data):
    """Never the internal _Fault nor another exception; an accepted pair
    is the pair of the chains."""
    base = convex(data.draw(st.sampled_from([4, 5])))
    declared = _declared_pairs(data.draw, base)
    try:
        drawing = Drawing(base.vertices, declared, base.rotations, base.chains)
    except StructureError:
        return
    assert drawing.crossings == base.crossings


def test_string_ids_are_refused_though_they_sort():
    """Convex K5 with every node id written as a string: the ids sort,
    but a decider on such a drawing would refuse its own certificate, as
    none of its ids is a vertex."""
    d = load_drawing(convex_document(5))
    with pytest.raises(StructureError) as info:
        Drawing(map(str, d.vertices),
                {str(c): {tuple(map(str, e)) for e in pair} for c, pair in d.crossings.items()},
                {str(x): tuple(map(str, rot)) for x, rot in d.rotations.items()},
                {tuple(map(str, e)): tuple(map(str, ch)) for e, ch in d.chains.items()})
    assert str(info.value) == "vertex id '0' is not a plain int"


def test_the_ordered_check_never_runs_on_a_valid_drawing(monkeypatch):
    """Drawing checks a valid structure in its one pass over the chains;
    the ordered check only names the fault of a bad one."""
    def ordered_check(self):
        raise AssertionError("the ordered check ran on a valid drawing")

    monkeypatch.setattr(Drawing, "_validate", ordered_check)
    for n in range(3, 17):
        for document in (convex_document(n), cylindrical_document(n),
                         rectilinear_document(n, 1)):
            drawing = load_drawing(document)
            assert load_drawing(drawing_to_document(drawing, "combinatorial")).chain_darts \
                == drawing.chain_darts
    parent = load_drawing(convex_document(8))
    for v in parent.vertices:
        delete_vertex(parent, v)


@pytest.mark.parametrize("chain", [[], [0], [1]])
def test_chain_with_fewer_than_two_nodes(chain):
    doc = k4()
    doc["chains"]["0-1"] = chain
    with pytest.raises(DocumentError) as info:
        load_drawing(doc)
    assert str(info.value) == "chain of (0, 1) needs at least 2 nodes"


def _renamed(mapping, old, new):
    return {new if key == old else key: value for key, value in mapping.items()}


@pytest.mark.parametrize("key", [" 0", "0 ", "+0", "0_0", "00", "-0", "٠", 0])
def test_rotation_key_must_be_canonical(key):
    doc = k4()
    doc["rotations"] = _renamed(doc["rotations"], "0", key)
    with pytest.raises(DocumentError) as info:
        load_drawing(doc)
    assert str(info.value) == f"rotation key {key!r} is not a node id"


@pytest.mark.parametrize("key", [" 0-1", "0-1 ", "0 -1", "+0-1", "0-01", "0_0-1", "0--1",
                                 "0-1-2", "1-٠", "a-b"])
def test_chain_key_must_be_canonical(key):
    doc = k4()
    doc["chains"] = _renamed(doc["chains"], "0-1", key)
    with pytest.raises(DocumentError) as info:
        load_drawing(doc)
    assert str(info.value) == f'chain key {key!r} must look like "u-v"'


def test_reversed_chain_key_is_canonical():
    doc = k4()
    doc["chains"] = _renamed(doc["chains"], "0-1", "1-0")
    assert load_drawing(doc).chains[(0, 1)] == (0, 1)


@lru_cache(maxsize=None)
def _base_text(family, n, seed):
    drawing = {"convex": lambda: convex(n), "cylindrical": lambda: cylindrical(n),
               "rectilinear": lambda: rectilinear(n, seed)}[family]()
    return json.dumps(drawing_to_document(drawing, "combinatorial"))


MUTATIONS = ("swap", "shift", "reverse-rotation", "set-entry", "drop-entry", "add-entry",
             "reverse-chain", "set-interior", "add-interior", "drop-interior",
             "drop-crossing", "crossing-edges", "drop-rotation", "add-rotation",
             "drop-chain", "reorder")


def _mutate(draw, doc):
    """One mutation of a combinatorial document. Chains keep at least two
    nodes and keys stay canonical: the loader rejects those faults with
    messages of its own (see the tests above)."""
    rotations, chains = doc["rotations"], doc["chains"]
    crossing_ids = [x["id"] for x in doc["nodes"] if x["kind"] == "crossing"]
    node_id = st.integers(0, doc["n"] + len(crossing_ids) + 1)
    kind = draw(st.sampled_from(MUTATIONS))
    rot = rotations[draw(st.sampled_from(sorted(rotations)))] if rotations else None
    key = draw(st.sampled_from(sorted(chains))) if chains else None
    chain = chains[key] if chains else None
    if kind in ("swap", "set-entry", "drop-entry") and rot:
        i = draw(st.integers(0, len(rot) - 1))
        if kind == "swap":
            j = draw(st.integers(0, len(rot) - 1))
            rot[i], rot[j] = rot[j], rot[i]
        elif kind == "set-entry":
            rot[i] = draw(st.sampled_from(rot) | node_id)
        else:
            del rot[i]
    elif kind == "shift" and rot:
        rot[:] = rot[1:] + rot[:1]
    elif kind == "reverse-rotation" and rot:
        rot.reverse()
    elif kind == "add-entry" and rot is not None:
        rot.insert(draw(st.integers(0, len(rot))), draw(node_id))
    elif kind == "reverse-chain" and chain:
        chain.reverse()
    elif kind == "set-interior" and chain and len(chain) > 2:
        chain[draw(st.integers(1, len(chain) - 2))] = draw(node_id)
    elif kind == "add-interior" and chain:
        chain.insert(draw(st.integers(1, len(chain) - 1)), draw(node_id))
    elif kind == "drop-interior" and chain and len(chain) > 2:
        del chain[draw(st.integers(1, len(chain) - 2))]
    elif kind == "drop-crossing" and crossing_ids:
        node = draw(st.sampled_from(crossing_ids))
        doc["nodes"] = [x for x in doc["nodes"] if x["id"] != node]
        rotations.pop(str(node), None)
        for chain in chains.values():
            if node in chain and len(chain) > 2:
                chain.remove(node)
    elif kind == "crossing-edges" and crossing_ids:
        node_id = draw(st.sampled_from(crossing_ids))
        node = next(x for x in doc["nodes"] if x["id"] == node_id)
        u, v = draw(st.lists(st.integers(0, doc["n"] - 1), min_size=2, max_size=2,
                             unique=True))
        node["edges"][draw(st.integers(0, 1))] = [u, v]
    elif kind == "drop-rotation" and rotations:
        del rotations[draw(st.sampled_from(sorted(rotations)))]
    elif kind == "add-rotation":
        rotations[str(draw(node_id))] = draw(st.lists(node_id, max_size=4))
    elif kind == "drop-chain" and chains:
        del chains[key]
    elif kind == "reorder":
        name = draw(st.sampled_from(("rotations", "chains")))
        items = list(doc[name].items())
        doc[name] = dict(draw(st.permutations(items)))


@st.composite
def mutated_documents(draw):
    family = draw(st.sampled_from(("convex", "cylindrical", "rectilinear")))
    n = draw(st.integers(4, 7))
    seed = draw(st.integers(1, 3)) if family == "rectilinear" else 0
    doc = json.loads(_base_text(family, n, seed))
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, doc)
    return doc


def _outcome(load, doc):
    try:
        drawing, faces = load(doc)
    except ShellcertError as exc:
        return type(exc), str(exc)
    return canonical_form(drawing), faces.faces, list(faces.dart_face.items())


def _load(doc):
    drawing = load_drawing(doc)
    return drawing, face_views(trace_faces(drawing))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_load_as_in_the_reference(doc):
    text = json.dumps(doc)
    assert _outcome(_load, json.loads(text)) \
        == _outcome(reference_load_combinatorial, json.loads(text))
