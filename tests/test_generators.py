"""Reference drawing families."""

from collections import Counter
from math import comb

import pytest

from oracles import canonical_form
from shellcert import generators
from shellcert.cli import main
from shellcert.documents import load_drawing
from shellcert.drawing import validate_goodness
from shellcert.errors import DocumentError, GenerationError
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

    def test_a_wrong_crossing_count_moves_on_to_the_next_phase(self, monkeypatch, capsys):
        # at scale 30 one phase of K26 loads with 14927 crossings, not
        # C(26, 4) = 14950; the other 31 are skipped or do not load. The
        # CLI writes convex_document, which checks as convex_drawing does
        # (test_documents_are_checked_as_drawings_are)
        outcomes = Counter()

        def tally(fn, error):
            def wrapper(*args):
                try:
                    result = fn(*args)
                except error as exc:
                    outcomes["concurrent" if "concurrent" in str(exc) else str(exc)] += 1
                    raise
                if result is None:
                    outcomes["skipped"] += 1
                return result
            return wrapper

        for name, error in (("_convex_attempt", GenerationError),
                            ("load_drawing", DocumentError), ("_checked", GenerationError)):
            monkeypatch.setattr(generators, name, tally(getattr(generators, name), error))
        assert main(["generate", "--family", "convex", "--n", "26", "--scale", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: scale 30 too small for 26 points")
        assert outcomes == {"concurrent": 29, "skipped": 2,
                            "generated drawing has 14927 crossings, expected 14950": 1}


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


@pytest.mark.parametrize("n", [2, -1, 4.5, 6.0, True, "6", None])
@pytest.mark.parametrize("make", [convex_document, cylindrical_document,
                                  lambda n: rectilinear_document(n, 0), cylindrical_drawing],
                         ids=["convex_document", "cylindrical_document",
                              "rectilinear_document", "cylindrical_drawing"])
def test_n_must_be_an_int_of_at_least_3(make, n):
    with pytest.raises(ValueError) as info:
        make(n)
    assert str(info.value) == "n must be at least 3"


# The largest scale each float construction takes at n = 5: its largest
# radius, the circle's or the outermost arc's at 3 scale + 3 scale / 4,
# stays below 2**1023.
@pytest.mark.parametrize("make, largest", [(convex_document, 2 ** 1023 - 1),
                                           (cylindrical_document, (2 ** 1025 - 1) // 15)],
                         ids=["convex", "cylindrical"])
def test_float_constructions_take_scales_up_to_half_the_float_range(make, largest):
    assert load_drawing(make(5, scale=largest)).n == 5
    with pytest.raises(ValueError) as info:
        make(5, scale=largest + 1)
    assert str(info.value) == ("n = 5 and scale = a number of 308 digits take the "
                               "construction beyond the float range")
    with pytest.raises(ValueError) as info:
        make(2 ** 1023, scale=1)
    assert str(info.value) == ("n = a number of 308 digits and scale = 1 take the "
                               "construction beyond the float range")


# The points a family joins pairwise by straight edges (all n for convex
# and rectilinear, the inner rim's n // 2 for cylindrical) lie in
# [-scale, scale]^2 with no three on a line, so at most two in each of the
# 2 scale + 1 rows: 14 at scale 3. One more is rejected before anything is
# built; at the capacity itself the construction runs and fails on its own.
@pytest.mark.parametrize("make, capacity_n", [
    (convex_document, 14), (cylindrical_document, 29),
    (lambda n, scale: rectilinear_document(n, 0, scale), 14)],
    ids=["convex", "cylindrical", "rectilinear"])
def test_n_beyond_the_lattice_capacity_is_rejected(make, capacity_n):
    with pytest.raises(GenerationError):
        make(capacity_n, scale=3)
    n = capacity_n + 1
    with pytest.raises(ValueError) as info:
        make(n, scale=3)
    assert str(info.value) == (f"n = {n} puts 15 points joined by straight edges in "
                               f"[-3, 3]^2, where at most 14 fit with no three on a line")


def test_rectilinear_points_are_integers_at_any_scale():
    assert load_drawing(rectilinear_document(5, 0, scale=10 ** 400)).n == 5


@pytest.mark.parametrize("family, expect", [
    ("convex", comb(7, 4)), ("cylindrical", harary_hill_bound(7)), ("rectilinear", None)])
def test_documents_are_checked_as_drawings_are(family, expect, monkeypatch):
    make = {"convex": (convex_document, convex_drawing),
            "cylindrical": (cylindrical_document, cylindrical_drawing),
            "rectilinear": (lambda n: rectilinear_document(n, 1),
                            lambda n: random_rectilinear(n, 1))}[family]
    checked = []
    real = generators._checked

    def recording(drawing, expect_crossings):
        checked.append(expect_crossings)
        return real(drawing, expect_crossings)

    monkeypatch.setattr(generators, "_checked", recording)
    doc, drawing = make[0](7), make[1](7)
    assert checked == [expect, expect]
    assert canonical_form(load_drawing(doc)) == canonical_form(drawing)


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
        assert canonical_form(d1) == canonical_form(d2)
        assert rectilinear_document(5, 1) == rectilinear_document(5, 1)

    def test_seeds_differ(self):
        assert (canonical_form(random_rectilinear(5, 1))
                != canonical_form(random_rectilinear(5, 2)))

    def test_goodness_across_seeds(self):
        for seed in range(10):
            assert validate_goodness(random_rectilinear(6, seed)).ok

    def test_crossing_count_within_range(self):
        for seed in range(10):
            d = random_rectilinear(7, seed)
            assert harary_hill_bound(7) <= d.crossing_count() <= comb(7, 4)
