"""Static SVG rendering of geometric drawings.

Vertices are dots with id labels, crossings small open circles, edges
polylines. Optional overlays: per-edge k-value labels for a chosen
reference face, a highlighted face boundary, and certificate vertices in
the usual figure convention (deletion-sequence vertices as unfilled
squares, simple-sequence/second-sequence vertices as filled squares).
Output is deterministic for identical inputs.
"""

from __future__ import annotations

from .drawing import Drawing, check_face, trace_faces
from .errors import CapabilityError
from .kedges import k_edge_profile
from .shellability import BishellCertificate, SeqShellCertificate

_STYLE = {
    "edge": 'stroke="#444" stroke-width="1.2" fill="none"',
    "face": 'stroke="#d81b60" stroke-width="4" fill="none" opacity="0.55"',
    "vertex": 'fill="#111"',
    "crossing": 'fill="white" stroke="#666" stroke-width="1"',
    "open_square": 'fill="none" stroke="#1e63d0" stroke-width="2.5"',
    "full_square": 'fill="#1e63d0"',
    "label": 'font-family="Helvetica,Arial,sans-serif" font-size="{}px"',
}


def render_svg(drawing: Drawing, size: int = 720, face_highlight: int | None = None,
               certificate=None, label_face: int | None = None) -> str:
    """Render the drawing; raises CapabilityError without geometry and
    ValueError for a size below one pixel."""
    if size < 1:
        raise ValueError(f"size must be a positive number of pixels, got {size}")
    if drawing.geometry is None:
        raise CapabilityError(
            "rendering needs geometry; combinatorial inputs carry none "
            "(generate or load a geometric document instead)")
    geo = drawing.geometry
    # Crossings lie on pieces between integer polyline points and float()
    # is monotone, so the polyline points alone give the frame.
    xs = [p[0] for path in geo.polylines.values() for p in path]
    ys = [p[1] for path in geo.polylines.values() for p in path]
    x0, x1, y0, y1 = float(min(xs)), float(max(xs)), float(min(ys)), float(max(ys))
    span = max(x1 - x0, y1 - y0, 1.0)
    margin = 0.06 * span

    def to_svg(p):
        # y grows upward in the plane, downward in SVG
        x = (float(p[0]) - x0 + margin) / (span + 2 * margin) * size
        y = (y1 - float(p[1]) + margin) / (span + 2 * margin) * size
        return x, y

    def fmt(p):
        x, y = to_svg(p)
        return f"{x:.2f},{y:.2f}"

    r_vertex = size / 110
    font = size / 34
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>']

    for e in drawing.edges():
        path = " ".join(fmt(p) for p in geo.polylines[e])
        out.append(f'<polyline points="{path}" {_STYLE["edge"]}/>')

    if face_highlight is not None:
        for dart in trace_faces(drawing).faces[check_face(drawing, face_highlight)]:
            path = " ".join(fmt(p) for p in geo.segment_path(*dart))
            out.append(f'<polyline points="{path}" {_STYLE["face"]}/>')

    if label_face is not None:
        prof = k_edge_profile(drawing, label_face)
        style = _STYLE["label"].format(f"{font:.1f}")
        for e, k in sorted(prof.k_values.items()):
            poly = geo.polylines[e]
            mid = poly[len(poly) // 2]
            x, y = to_svg(mid)
            out.append(f'<text x="{x + 3:.2f}" y="{y - 3:.2f}" {style} '
                       f'fill="#0a7a3d">{k}</text>')

    open_sq, full_sq = _certificate_vertices(certificate)
    for node in sorted(drawing.crossings):
        x, y = to_svg(geo.points[node])
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r_vertex * 0.7:.2f}" '
                   f'{_STYLE["crossing"]}/>')
    style = _STYLE["label"].format(f"{font:.1f}")
    for v in drawing.vertices:
        x, y = to_svg(geo.points[v])
        side = r_vertex * 3.4
        if v in full_sq:
            out.append(f'<rect x="{x - side / 2:.2f}" y="{y - side / 2:.2f}" '
                       f'width="{side:.2f}" height="{side:.2f}" {_STYLE["full_square"]}/>')
        elif v in open_sq:
            out.append(f'<rect x="{x - side / 2:.2f}" y="{y - side / 2:.2f}" '
                       f'width="{side:.2f}" height="{side:.2f}" {_STYLE["open_square"]}/>')
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r_vertex:.2f}" {_STYLE["vertex"]}/>')
        out.append(f'<text x="{x + r_vertex + 2:.2f}" y="{y - r_vertex - 2:.2f}" '
                   f'{style} fill="#111">{v}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _certificate_vertices(certificate):
    if certificate is None:
        return frozenset(), frozenset()
    if isinstance(certificate, SeqShellCertificate):
        return (frozenset(certificate.vertices),
                frozenset(x for s in certificate.sequences for x in s))
    if isinstance(certificate, BishellCertificate):
        return frozenset(certificate.a_sequence), frozenset(certificate.b_sequence)
    raise ValueError("certificate must be a seq-shell or bishell certificate")
