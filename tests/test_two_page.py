"""2-page book drawings of K_n: the smallest class of the abstract's chain
below bishellable.

Every 2-page drawing is bishellable, and so seq-shellable, at every level,
so a None from either decider on one is a bug at any n, far past the
naive oracles' reach. Each one has at least H(n) crossings (Abrego,
Aichholzer, Fernandez-Merchant, Ramos and Salazar, "The 2-page crossing
number of K_n", 2013), and the pinned assignments reach H(n).
"""

import random
from math import comb

import pytest

from corpus import two_page_drawing
from oracles import (canonical_form, crossings_from_cumulated, naive_bishellable,
                     naive_seq_shellable)
from shellcert.documents import drawing_to_document, load_drawing
from shellcert.drawing import trace_faces, validate_goodness
from shellcert.kedges import face_profiles, harary_hill_bound, k_edge_profile
from shellcert.shellability import (decide_bishellable, decide_seq_shellable,
                                    verify_bishell_certificate, verify_seq_certificate)

# a page assignment with H(n) crossings for each n = 8..12, edges in
# ascending order, "0" the top page: found by flipping one edge's page
# at a time while the crossing count drops, from seeded random starts
HARARY_HILL_PAGES = {
    8: "0111101111000100001001111011",
    9: "111000011000001000111011111111000011",
    10: "111000001000000110000111101111011111110000000",
    11: "0111111100111110000111000000100000000001001110111101011",
    12: "001111110010111110000011100000110000001000001000011101111111011110",
}


def random_pages(n, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("01") for _ in range(comb(n, 2)))


def sample(sizes, seeds):
    return [(n, random_pages(n, 1000 * n + seed)) for n in sizes for seed in range(seeds)]


def same_page_crossings(n, pages):
    """The crossings the same-page rule counts, from the assignment alone."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    page = dict(zip(edges, pages))
    return sum(a[0] < b[0] < a[1] < b[1] and page[a] == page[b] for a in edges for b in edges)


@pytest.mark.parametrize("n, pages", sample(range(4, 17), 3) + list(HARARY_HILL_PAGES.items()))
def test_a_two_page_drawing_is_good_with_at_least_harary_hill_crossings(n, pages):
    drawing = two_page_drawing(n, pages)
    assert validate_goodness(drawing)
    assert trace_faces(drawing).face_count() > 0  # Euler's formula holds
    assert drawing.crossing_count() == same_page_crossings(n, pages) >= harary_hill_bound(n)


@pytest.mark.parametrize("n", sorted(HARARY_HILL_PAGES))
def test_the_pinned_assignments_reach_harary_hill(n):
    assert two_page_drawing(n, HARARY_HILL_PAGES[n]).crossing_count() == harary_hill_bound(n)


@pytest.mark.parametrize("n, pages", sample((5, 6), 2))
def test_the_deciders_agree_with_the_naive_oracles_on_every_face(n, pages):
    drawing = two_page_drawing(n, pages)
    for f in trace_faces(drawing).face_ids():
        for k in range(n - 1):
            assert (decide_seq_shellable(drawing, k, f) is not None) \
                == naive_seq_shellable(drawing, k, f), (f, k)
            assert (decide_bishellable(drawing, k, f) is not None) \
                == naive_bishellable(drawing, k, f), (f, k)


@pytest.mark.parametrize("n, pages", sample((7,), 2))
def test_the_deciders_and_the_naive_oracles_are_positive_at_every_level_of_k7(n, pages):
    drawing = two_page_drawing(n, pages)
    for k in range(n - 1):
        assert decide_seq_shellable(drawing, k) is not None and naive_seq_shellable(drawing, k), k
        assert decide_bishellable(drawing, k) is not None and naive_bishellable(drawing, k), k


@pytest.mark.parametrize("n, pages", sample(range(5, 17), 2) + list(HARARY_HILL_PAGES.items()))
def test_both_deciders_find_certificates_that_verify(n, pages):
    drawing = two_page_drawing(n, pages)
    for k in (n // 2 - 2, n - 2):
        seq = decide_seq_shellable(drawing, k)
        assert seq is not None and verify_seq_certificate(drawing, seq), k
        bishell = decide_bishellable(drawing, k)
        assert bishell is not None and verify_bishell_certificate(drawing, bishell), k


@pytest.mark.parametrize("n, pages", sample(range(5, 11), 2) + list(HARARY_HILL_PAGES.items()))
def test_the_crossing_identity_holds_on_every_face(n, pages):
    drawing = two_page_drawing(n, pages)
    for f in trace_faces(drawing).face_ids():
        cumulated = k_edge_profile(drawing, f).cumulated
        assert crossings_from_cumulated(n, cumulated) == drawing.crossing_count(), f


@pytest.mark.parametrize("n, pages", sample((22, 24), 3))
def test_every_face_read_in_bulk_and_both_deciders_at_22_and_24_vertices(n, pages):
    """Fields 32 bits wide and k-values past one digit on every face: the
    bulk read of every face gives the profile that k_edge_profile reads,
    and its cumulated counts give the crossing count."""
    drawing = two_page_drawing(n, pages)
    faces = list(trace_faces(drawing).face_ids())
    for f, (values, counts, cumulated) in zip(faces, face_profiles(drawing, faces)):
        assert any(counts[10:]), f
        assert crossings_from_cumulated(n, cumulated) == drawing.crossing_count(), f
        prof = k_edge_profile(drawing, f)
        assert (values, counts, cumulated) == (prof.values, prof.counts, prof.cumulated), f
    seq = decide_seq_shellable(drawing, n // 2 - 2)
    assert seq is not None and verify_seq_certificate(drawing, seq)
    bishell = decide_bishellable(drawing, n // 2 - 2)
    assert bishell is not None and verify_bishell_certificate(drawing, bishell)


@pytest.mark.parametrize("n, pages", sample((4, 7, 12), 1))
def test_the_document_loads_back(n, pages):
    drawing = two_page_drawing(n, pages)
    back = load_drawing(drawing_to_document(drawing, "combinatorial"))
    assert canonical_form(back) == canonical_form(drawing)
