"""SVG rendering."""

import pytest

from corpus import convex, cylindrical
from shellcert.documents import drawing_to_document, load_drawing
from shellcert.errors import CapabilityError
from shellcert.planarize import outer_face
from shellcert.shellability import BishellCertificate, decide_seq_shellable
from shellcert.svg import render_svg


def test_basic_render_counts():
    d = cylindrical(6)
    text = render_svg(d)
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 15  # one per edge
    assert text.count('fill="white" stroke="#666"') == 3  # crossing marks
    assert text.count("<circle") == 6 + 3  # vertex dots + crossing marks


def test_deterministic():
    d = convex(5)
    assert render_svg(d) == render_svg(d)


def test_labels_and_highlight():
    d = cylindrical(6)
    face = outer_face(d)
    text = render_svg(d, face_highlight=face, label_face=face)
    assert "<text" in text
    assert 'stroke="#d81b60"' in text


def test_certificate_overlay():
    d = convex(8)
    cert = decide_seq_shellable(d, 2)
    text = render_svg(d, certificate=cert)
    assert text.count("<rect") >= 1 + len(set(cert.vertices))


def squares(text):
    """Vertex -> "open" or "full" for each vertex drawn with a square: a
    square comes right before the vertex's dot and label."""
    lines = text.splitlines()
    return {int(lines[i + 2].rsplit(">", 2)[1].split("<")[0]):
            "open" if 'fill="none"' in line else "full"
            for i, line in enumerate(lines) if line.startswith("<rect x=")}


def test_bishell_overlay_draws_a_open_and_b_full():
    d = convex(6)
    cert = BishellCertificate(outer_face(d), (0, 1), (5, 4))
    assert squares(render_svg(d, certificate=cert)) == {
        0: "open", 1: "open", 5: "full", 4: "full"}


def test_only_certificates_are_overlaid():
    with pytest.raises(ValueError, match="^certificate must be a seq-shell or bishell"):
        render_svg(convex(4), certificate=object())


@pytest.mark.parametrize("size", [0, -1, True, 1.5, "720", None])
def test_size_is_a_positive_int(size):
    with pytest.raises(ValueError) as info:
        render_svg(convex(4), size=size)
    assert str(info.value) == f"size must be a positive number of pixels, got {size!r}"


def test_requires_geometry():
    d = load_drawing(drawing_to_document(convex(4), "combinatorial"))
    with pytest.raises(CapabilityError):
        render_svg(d)


def test_bad_face_rejected():
    d = convex(4)
    with pytest.raises(ValueError):
        render_svg(d, face_highlight=10 ** 6)
