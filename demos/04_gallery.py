"""Render the drawing families to SVG.

Writes a small gallery into demos/out/: the three generator families, a
k-value labeling, and a certificate overlay (deletion-sequence vertices as
unfilled squares, simple-sequence vertices as filled squares).

Run:  python demos/04_gallery.py
"""

import pathlib

from shellcert import (
    convex_drawing, cylindrical_drawing, decide_seq_shellable,
    random_rectilinear, render_svg, trace_faces,
)
from shellcert.planarize import outer_face

here = pathlib.Path(__file__).parent
out = here / "out"
out.mkdir(exist_ok=True)


def shown(path):
    """The path as printed: relative to demos/, the same in every checkout."""
    return path.relative_to(here).as_posix()


drawings = {
    "convex_k8": convex_drawing(8),
    "cylindrical_k8": cylindrical_drawing(8),
    "rectilinear_k7_seed3": random_rectilinear(7, 3),
}
for name, drawing in drawings.items():
    path = out / f"{name}.svg"
    path.write_text(render_svg(drawing))
    print(f"wrote {shown(path)} ({drawing.crossing_count()} crossings)")

# k-value labels relative to the unbounded face
drawing = cylindrical_drawing(6)
face = outer_face(drawing)
(out / "cylindrical_k6_labeled.svg").write_text(
    render_svg(drawing, label_face=face, face_highlight=face))
print(f"wrote {shown(out / 'cylindrical_k6_labeled.svg')} (k-values for face {face})")

# certificate overlay on a convex drawing
drawing = convex_drawing(10)
cert = decide_seq_shellable(drawing, 3)
(out / "convex_k10_certificate.svg").write_text(
    render_svg(drawing, certificate=cert))
print(f"wrote {shown(out / 'convex_k10_certificate.svg')} "
      f"(vertices {cert.vertices} highlighted)")

faces = trace_faces(drawing)
print(f"\nthe convex drawing has {faces.face_count()} faces; "
      f"try highlighting one:\n"
      f"  shellcert export --input <doc> --output out.svg --face <id>")
