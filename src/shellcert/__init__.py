"""Analysis of good drawings of complete graphs.

Good drawings of K_n are stored as planarized plane graphs (crossings
become degree-4 nodes) with counterclockwise rotation systems. On top of
that representation the package computes k-edge profiles and cumulated
counts relative to a reference face, invariant edges under vertex
deletion, and the crossing-number machinery built on them; it searches
for and verifies seq-shellability and bishellability certificates; and it
generates reference families (convex, cylindrical, seeded rectilinear)
as exact-integer geometric documents.
"""

__version__ = "0.1.0"

from .documents import (certificate_from_document, certificate_to_document,
                        drawing_to_document, dump_document, dumps_document,
                        load_drawing)
from .drawing import (Drawing, FaceMap, FaceSet, ValidationReport, child_drawing,
                      delete_vertex, edge_key, seg_key, trace_faces,
                      validate_goodness, vertices_on_face)
from .errors import (CapabilityError, CertificateMismatchError, DocumentError,
                     EmbeddingError, GenerationError, ShellcertError,
                     StructureError)
from .generators import (convex_document, convex_drawing, cylindrical_document,
                         cylindrical_drawing, random_rectilinear,
                         rectilinear_document)
from .kedges import (BoundRow, InvariantReport, KEdgeProfile, Orientation,
                     cumulative_bound_check, edge_side_partition,
                     harary_hill_bound, invariant_edges, k_edge_profile,
                     k_value, max_k, recursion_check, triangle_orientation,
                     vertex_k_profile)
from .planarize import Geometry, locate_face, outer_face, planarize
from .shellability import (BishellCertificate, SeqShellCertificate,
                           SimpleSequence, VerificationResult, bishell_to_seq,
                           decide_bishellable, decide_seq_shellable,
                           find_simple_sequence, verify_bishell_certificate,
                           verify_seq_certificate)
from .svg import render_svg

__all__ = [
    "BishellCertificate", "BoundRow", "CapabilityError",
    "CertificateMismatchError", "DocumentError", "Drawing", "EmbeddingError",
    "FaceMap", "FaceSet", "GenerationError", "Geometry", "InvariantReport",
    "KEdgeProfile", "Orientation", "SeqShellCertificate", "ShellcertError",
    "SimpleSequence", "StructureError", "ValidationReport",
    "VerificationResult", "bishell_to_seq", "certificate_from_document",
    "certificate_to_document", "child_drawing", "convex_document",
    "convex_drawing", "cumulative_bound_check", "cylindrical_document",
    "cylindrical_drawing", "decide_bishellable", "decide_seq_shellable",
    "delete_vertex", "drawing_to_document", "dump_document", "dumps_document",
    "edge_key", "edge_side_partition", "find_simple_sequence",
    "harary_hill_bound", "invariant_edges", "k_edge_profile", "k_value",
    "load_drawing", "locate_face", "max_k",
    "outer_face", "planarize", "random_rectilinear", "recursion_check",
    "rectilinear_document", "render_svg", "seg_key", "trace_faces",
    "triangle_orientation", "validate_goodness", "verify_bishell_certificate",
    "verify_seq_certificate", "vertex_k_profile", "vertices_on_face",
]
