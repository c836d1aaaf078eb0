"""Reference drawing families."""

from math import comb

import pytest

from shellcert.documents import load_drawing
from shellcert.drawing import validate_goodness
from shellcert.errors import GenerationError
from shellcert.generators import (convex_document, convex_drawing,
                                  cylindrical_document, cylindrical_drawing,
                                  random_rectilinear, rectilinear_document)
from shellcert.kedges import harary_hill_bound


class TestConvex:
    def test_crossing_counts(self):
        for n in (4, 5, 8):
            assert convex_drawing(n).crossing_count() == comb(n, 4)

    def test_goodness(self):
        assert validate_goodness(convex_drawing(9)).ok

    def test_document_loads(self):
        d = load_drawing(convex_document(6))
        assert d.n == 6 and d.crossing_count() == comb(6, 4)

    def test_too_small_scale_refused(self):
        with pytest.raises(GenerationError):
            convex_drawing(12, scale=3)

    def test_too_small_scale_message_names_no_missing_cause(self):
        with pytest.raises(GenerationError) as info:
            convex_drawing(12, scale=3)
        assert str(info.value) == (
            "scale 3 too small for 12 points in convex general position")

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            convex_document(2)


@pytest.mark.parametrize("scale", [0, -3, True, 2.5])
@pytest.mark.parametrize("make", [convex_document, cylindrical_document,
                                  lambda n, scale: rectilinear_document(n, 0, scale),
                                  convex_drawing, cylindrical_drawing,
                                  lambda n, scale: random_rectilinear(n, 0, scale)],
                         ids=["convex_document", "cylindrical_document",
                              "rectilinear_document", "convex_drawing",
                              "cylindrical_drawing", "random_rectilinear"])
def test_scale_must_be_a_positive_integer(make, scale):
    with pytest.raises(ValueError) as info:
        make(5, scale=scale)
    assert str(info.value) == f"scale must be a positive integer, got {scale!r}"


class TestCylindrical:
    def test_optimal_crossing_counts(self):
        for n in range(3, 11):
            d = cylindrical_drawing(n)
            assert d.crossing_count() == harary_hill_bound(n)
            assert validate_goodness(d).ok

    def test_document_deterministic(self):
        assert cylindrical_document(7) == cylindrical_document(7)


class TestRectilinear:
    def test_deterministic(self):
        d1 = random_rectilinear(5, 1)
        d2 = random_rectilinear(5, 1)
        assert d1.canonical_form() == d2.canonical_form()
        assert rectilinear_document(5, 1) == rectilinear_document(5, 1)

    def test_seeds_differ(self):
        assert (random_rectilinear(5, 1).canonical_form()
                != random_rectilinear(5, 2).canonical_form())

    def test_goodness_across_seeds(self):
        for seed in range(10):
            assert validate_goodness(random_rectilinear(6, seed)).ok

    def test_crossing_count_within_range(self):
        for seed in range(10):
            d = random_rectilinear(7, seed)
            assert harary_hill_bound(7) <= d.crossing_count() <= comb(7, 4)
