"""Static SVG rendering of geometric drawings.

Vertices are dots with id labels, crossings small open circles, edges
polylines. Optional overlays: per-edge k-value labels for a chosen
reference face, a highlighted face boundary, and certificate vertices in
the usual figure convention (deletion-sequence vertices as unfilled
squares, simple-sequence/second-sequence vertices as filled squares).
Output is deterministic for identical inputs.
"""

from __future__ import annotations

from .drawing import Drawing, check_face, edge_key, trace_faces
from .errors import CapabilityError, quoted
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


# SVG numbers are floats: a size or coordinate beyond this bound would
# overflow them or turn into inf
_LIMIT = 10 ** 300


def render_svg(drawing: Drawing, size: int = 720, face_highlight: int | None = None,
               certificate=None, label_face: int | None = None) -> str:
    """Render the drawing; raises ValueError for a size outside 1..10**300
    pixels, CapabilityError without geometry or for coordinates beyond
    +-10**300."""
    if type(size) is not int or size < 1:
        raise ValueError(f"size must be a positive number of pixels, got {quoted(size)}")
    if size > _LIMIT:
        raise ValueError(f"size must be at most 10**300 pixels, got {quoted(size)}")
    geo = drawing.geometry
    if geo is None:
        raise CapabilityError(
            "rendering needs geometry; combinatorial inputs carry none "
            "(generate or load a geometric document instead)")
    # Crossings lie on pieces between integer polyline points and float()
    # is monotone, so the polyline points alone give the frame.
    xs = [p[0] for path in geo.polylines.values() for p in path]
    ys = [p[1] for path in geo.polylines.values() for p in path]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    if max(-lo_x, hi_x, -lo_y, hi_y) > _LIMIT:
        raise CapabilityError("rendering needs every coordinate within +-10**300, "
                              "since SVG numbers are floats")
    x0, y1 = float(lo_x), float(hi_y)
    span = max(float(hi_x) - x0, y1 - float(lo_y), 1.0)
    margin = 0.06 * span
    extent = span + 2 * margin

    # One f-string per point, (px - x0 + margin) / extent * size and the same
    # for y, which grows upward in the plane and downward in SVG. An int or
    # Fraction coordinate minus a float is float(coordinate) minus it.
    def path_text(path):
        return " ".join([f"{(x - x0 + margin) / extent * size:.2f},"
                         f"{(y1 - y + margin) / extent * size:.2f}" for x, y in path])

    r_vertex = size / 110
    font = size / 34
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>']

    style = _STYLE["edge"]
    out += [f'<polyline points="{path_text(geo.polylines[e])}" {style}/>'
            for e in drawing.edges()]

    if face_highlight is not None:
        style = _STYLE["face"]
        faces = trace_faces(drawing)
        tails = faces.tails
        for i in faces.walks[check_face(drawing, face_highlight)]:
            a, b = tails[i], tails[faces.twin[i]]
            e = drawing.segment_edge[edge_key(a, b)]
            ia, ib = drawing.chains[e].index(a), drawing.chains[e].index(b)
            path = geo.piece(e, min(ia, ib))
            out.append(f'<polyline points="{path_text(path if ia < ib else path[::-1])}" '
                       f'{style}/>')

    style = _STYLE["label"].format(f"{font:.1f}")
    if label_face is not None:
        prof = k_edge_profile(drawing, label_face)
        for e, k in sorted(prof.k_values.items()):
            poly = geo.polylines[e]
            mx, my = poly[len(poly) // 2]
            x = (mx - x0 + margin) / extent * size
            y = (y1 - my + margin) / extent * size
            out.append(f'<text x="{x + 3:.2f}" y="{y - 3:.2f}" {style} '
                       f'fill="#0a7a3d">{k}</text>')

    open_sq, full_sq = _certificate_vertices(certificate)
    r_cross = f'r="{r_vertex * 0.7:.2f}" {_STYLE["crossing"]}'
    out += [f'<circle cx="{(x - x0 + margin) / extent * size:.2f}" '
            f'cy="{(y1 - y + margin) / extent * size:.2f}" {r_cross}/>'
            for x, y in geo._float_points(sorted(drawing.crossings))]
    side = r_vertex * 3.4
    for v, (x, y) in zip(drawing.vertices, geo._float_points(drawing.vertices)):
        x = (x - x0 + margin) / extent * size
        y = (y1 - y + margin) / extent * size
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
