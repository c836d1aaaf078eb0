"""k-values, profiles, invariant edges, the deletion recursion, and bounds."""

import random
import re
from copy import deepcopy
from dataclasses import fields, replace
from itertools import combinations
from math import comb

import pytest

from corpus import (convex, cylindrical, not_good_k7_document, rectilinear,
                    sample_faces, two_page_drawing)
from oracles import (ccw_k_value, child_drawing_report, crossings_from_cumulated,
                     exact_points, face_views, far_point, flipped, flood_fill_k_values,
                     flood_fill_triangles, harary_hill_closed_form, pack_fields,
                     reference_constants, reference_cumulated, reference_k_values,
                     split_face_side_partition, sweep_labels,
                     winding_orientation)
from shellcert import drawing as drawing_module
from shellcert import kedges
from shellcert.documents import load_drawing
from shellcert.drawing import Drawing, edge_key, trace_faces, vertices_on_face
from shellcert.generators import cylindrical_drawing
from shellcert.kedges import (Orientation, cumulative_bound_check, edge_side_partition,
                              harary_hill_bound, invariant_edges,
                              k_edge_profile, k_value, max_k, recursion_check,
                              triangle_orientation, vertex_k_profile)
from shellcert.planarize import locate_face, outer_face


class TestHararyHillBound:
    def test_table(self):
        want = (0, 0, 1, 3, 9, 18, 36, 60, 100, 150, 225, 315)
        got = tuple(harary_hill_bound(n) for n in range(3, 15))
        assert got == want

    def test_against_closed_forms(self):
        for n in range(1, 40):
            assert harary_hill_bound(n) == harary_hill_closed_form(n)

    def test_rejects_nonpositive(self):
        for n in (0, 4.5, True):
            with pytest.raises(ValueError, match="^n must be positive$"):
                harary_hill_bound(n)


class TestTriangleOrientation:
    def test_reversal_flips(self):
        d = convex(5)
        for f in (outer_face(d), 0):
            assert (triangle_orientation(d, f, (1, 0), 2)
                    is flipped(triangle_orientation(d, f, (0, 1), 2)))

    def test_matches_winding_oracle_everywhere(self):
        for d in (convex(5), cylindrical(6), rectilinear(7, 2)):
            face = outer_face(d)
            point = far_point(d)
            for u in d.vertices:
                for v in d.vertices:
                    if u >= v:
                        continue
                    for w in d.vertices:
                        if w in (u, v):
                            continue
                        assert (triangle_orientation(d, face, (u, v), w)
                                is winding_orientation(d, point, u, v, w))

    def test_matches_winding_oracle_on_bounded_faces(self):
        import random
        rng = random.Random(7)
        for d in (convex(5), rectilinear(6, 9)):
            pos = exact_points(d.geometry)
            xs = [p[0] for p in pos.values()]
            for _ in range(8):
                point = (rng.randint(min(xs), max(xs)),
                         rng.randint(min(xs), max(xs)))
                try:
                    face = locate_face(d, point)
                except ValueError:
                    continue  # point on the drawing
                for w in d.vertices:
                    if w in (0, 1):
                        continue
                    assert (triangle_orientation(d, face, (0, 1), w)
                            is winding_orientation(d, point, 0, 1, w))

    def test_hull_edge_witnesses_agree(self):
        d = convex(4)
        face = outer_face(d)
        assert (triangle_orientation(d, face, (0, 1), 2)
                is triangle_orientation(d, face, (0, 1), 3))

    def test_rejects_bad_arguments(self):
        d = convex(4)
        fs = trace_faces(d)
        with pytest.raises(ValueError):
            triangle_orientation(d, 0, (0, 1), 1)
        with pytest.raises(ValueError):
            triangle_orientation(d, 0, (0, 9), 2)
        for face in (-1, fs.face_count()):
            with pytest.raises(ValueError):
                triangle_orientation(d, face, (0, 1), 2)
            with pytest.raises(ValueError):
                k_edge_profile(d, face)

    def test_one_face_reads_walk_the_sweep_once_per_face(self, monkeypatch):
        """triangle_orientation, edge_side_partition and invariant_edges
        share the reference face's word, made by one walk of the sweep
        however often the face is read; invariant_edges walks once more
        for the face's profile."""
        d = cylindrical_drawing(16)
        # the last face with two vertices, far from face 0 along the sweep
        face = max(f for f in trace_faces(d).face_ids() if len(vertices_on_face(d, f)) > 1)
        kedges._labelling(d)
        walks = []
        face_words = kedges._face_words

        def counting(lab, face_ids):
            walks.append(face_ids)
            return face_words(lab, face_ids)

        monkeypatch.setattr(kedges, "_face_words", counting)
        for i in range(100):
            triangle_orientation(d, face, (0, 1), 2 + i % 14)
        assert len(walks) == 1
        u, v = sorted(vertices_on_face(d, face))[:2]
        for _ in range(100):
            edge_side_partition(d, face, u, v)
        for w in d.vertices:
            invariant_edges(d, face, w)
        assert len(walks) == 2

    def test_not_good_drawing_is_refused(self):
        d = load_drawing(not_good_k7_document())
        with pytest.raises(ValueError, match=re.escape(
                "cannot compute k-values of a drawing that is not good: "
                "edges (0, 1) and (1, 5) break condition (5)")):
            k_edge_profile(d, 0)


class TestKValue:
    def test_triangle_edges_are_0_edges(self):
        from test_drawing import triangle_doc
        d = load_drawing(triangle_doc())
        fs = trace_faces(d)
        for f in fs.face_ids():
            for e in d.edges():
                assert k_value(d, f, e) == 0

    def test_convex_k4(self):
        d = convex(4)
        face = outer_face(d)
        assert k_value(d, face, (0, 1)) == 0
        assert k_value(d, face, (0, 2)) == 1

    def test_direction_independent(self):
        d = rectilinear(6, 5)
        for f in sample_faces(d):
            for u, v in d.edges():
                assert k_value(d, f, (u, v)) == k_value(d, f, (v, u))

    def test_reads_the_profile(self):
        for d in (convex(7), cylindrical(8)):
            for f in trace_faces(d).face_ids():
                k_values = k_edge_profile(d, f).k_values
                for u, v in d.edges():
                    assert (k_value(d, f, (u, v)) == k_value(d, f, (v, u))
                            == k_values[(u, v)])

    def test_loop_is_no_edge(self):
        with pytest.raises(ValueError, match="^an edge needs two distinct vertices$"):
            k_value(convex(5), 0, (1, 1))

    def test_matches_ccw_oracle_with_unbounded_face(self):
        for d in (convex(5), convex(8), rectilinear(6, 1), rectilinear(7, 2)):
            face = outer_face(d)
            for u, v in d.edges():
                assert k_value(d, face, (u, v)) == ccw_k_value(d, u, v)


FLOOD_FILL_CORPUS = {
    "convex9": (convex, 9),
    "cylindrical10": (cylindrical, 10),
    "rectilinear9s1": (rectilinear, 9, 1),
    "rectilinear9s2": (rectilinear, 9, 2),
    "rectilinear9s3": (rectilinear, 9, 3),
}


class TestAgainstFloodFill:
    @pytest.mark.parametrize("name", FLOOD_FILL_CORPUS)
    def test_every_face(self, name):
        factory, *args = FLOOD_FILL_CORPUS[name]
        d = factory(*args)
        fs = trace_faces(d)
        left_faces = flood_fill_triangles(d, fs)
        for f in fs.face_ids():
            assert (k_edge_profile(d, f).k_values
                    == flood_fill_k_values(d, f, left_faces))
            # every face, also one with no vertex, reads every triangle
            assert all((triangle_orientation(d, f, (u, v), w) is Orientation.PLUS)
                       == (f in left)
                       for (u, v, w), left in left_faces.items()), f


def synthetic_labelling(n):
    """A labelling on a dozen edges of K_n, with fields of 8 to 512 bits,
    and four labels: none set, rows of all ones at even vertices (so the
    edge v_0 v_1, of rel 0, has all n - 2 witnesses), random, all set."""
    rng = random.Random(n)
    full = (1 << n) - 1
    pairs = sorted({(0, 1), *rng.sample(list(combinations(range(n), 2)), min(11, comb(n, 2)))})
    rels = [0 if (i, j) == (0, 1) else rng.getrandbits(n) & (full ^ (1 << i) ^ (1 << j))
            for i, j in pairs]
    striped = sum(full << (i * n) for i in range(0, n, 2))
    lab = kedges._lay_out({v: v for v in range(n)}, [], [], {e: e for e in pairs})
    return (replace(lab, rel=pack_fields(rels, lab.width)),
            (0, striped, rng.getrandbits(n * n), (1 << n * n) - 1))


def label_word(lab, label, n):
    """The packed word of the face labelled label, one row of the label at
    a time: rel XORed with row i placed in the fields of the edges at v_i
    by one multiplication with spread[i] (the row loop that kedges's sweep
    walk replaced)."""
    full = (1 << n) - 1
    word = lab.rel
    for i, spread in enumerate(lab.spread):
        word ^= ((label >> (i * n)) & full) * spread
    return word


KERNEL_CORPUS = {f"{factory.__name__}{n}": (factory, n, *seed)
                 for factory, seed in ((convex, ()), (cylindrical, ()), (rectilinear, (1,)))
                 for n in (4, 8, 9, 16, 17)}


class TestPackedKernel:
    """kedges._k_values against the per-edge loop it replaced and against
    flood fills, on drawings whose sizes straddle the field widths 8, 16
    and 32 (n = 8 | 9 and 16 | 17)."""

    @pytest.mark.parametrize("name", KERNEL_CORPUS)
    def test_every_face_and_deletion_matches_the_loop(self, name):
        factory, n, *seed = KERNEL_CORPUS[name]
        d = factory(n, *seed)
        lab = kedges._labelling(d)
        words = kedges._face_words(lab, range(len(lab.parent)))
        for f, (word, pf) in enumerate(zip(words, sweep_labels(lab))):
            # every deletion on every face up to K_9; beyond, every face
            # without a deletion and with one vertex deleted, in turn
            for x in (None, *range(n)) if n <= 9 else (None, f % n):
                got = kedges._k_values(lab, word, x)
                want = reference_k_values(lab, pf, n, x)
                assert got == want and list(got) == list(want), (f, x)

    @pytest.mark.parametrize("name", [name for name, (_, n, *_) in KERNEL_CORPUS.items()
                                      if n <= 9])
    def test_every_face_and_deletion_matches_flood_fills(self, name):
        factory, n, *seed = KERNEL_CORPUS[name]
        d = factory(n, *seed)
        lab = kedges._labelling(d)
        words = list(kedges._face_words(lab, range(len(lab.parent))))
        left_faces = flood_fill_triangles(d, trace_faces(d))
        for f, word in enumerate(words):
            assert kedges._k_values(lab, word) == flood_fill_k_values(d, f, left_faces)
        for x, v in enumerate(d.vertices):
            child, child_faces, face_map = drawing_module.child_drawing(d, v)
            child_left = flood_fill_triangles(child, child_faces)
            for f, word in enumerate(words):
                assert (kedges._k_values(lab, word, x)
                        == flood_fill_k_values(child, face_map[f], child_left)), (f, v)

    @pytest.mark.parametrize("n", (3, 5, 63, 64, 65, 130, 257))
    def test_any_field_width(self, n):
        """Synthetic labellings on a dozen edges, with fields of 8 to 512
        bits. One label has rows of all ones at even and all zeros at odd
        vertices, so the edge v_0 v_1 (rel 0) has all n - 2 witnesses:
        255 at n = 257, the most a byte holds."""
        lab, labels = synthetic_labelling(n)
        striped = labels[1]
        for pf in labels:
            for x in (None, 0, n // 2, n - 1):
                assert (kedges._k_values(lab, label_word(lab, pf, n), x)
                        == reference_k_values(lab, pf, n, x)), (n, x)
        # n - 2 witnesses, read unfolded and folded
        word = label_word(lab, striped, n) & lab.witness
        assert kedges._count_witnesses(lab, word, bytes(range(256)))[0] == n - 2
        assert kedges._k_values(lab, label_word(lab, striped, n))[0, 1] == 0

    @pytest.mark.parametrize("n", (258, 300))
    def test_no_labelling_past_a_byte(self, n):
        """A witness count of K_258 or more need not fit in a byte, and no
        such drawing fits in memory, so no labelling is laid out."""
        with pytest.raises(ValueError) as info:
            synthetic_labelling(n)
        assert str(info.value) == "k-values are read for drawings on at most 257 vertices"

    def test_cumulated_matches_the_double_sum(self):
        rng = random.Random(5)
        for levels in (1, 2, 5, 9):
            for size in (0, 1, 7, 200):
                ks = [rng.randrange(levels) for _ in range(size)]
                counts, cumulated = reference_cumulated(ks, levels)
                for values in (ks, iter(ks), bytes(ks)):
                    assert kedges._level_counts(values, levels) == counts
                assert kedges.cumulated_counts(counts) == cumulated

    @pytest.mark.parametrize("name", KERNEL_CORPUS)
    def test_every_profile_counts_match_the_double_sum(self, name):
        factory, n, *seed = KERNEL_CORPUS[name]
        d = factory(n, *seed)
        lab = kedges._labelling(d)
        for f, pf in enumerate(sweep_labels(lab)):
            prof = k_edge_profile(d, f)
            want = reference_cumulated(reference_k_values(lab, pf, n).values(), max_k(n) + 1)
            assert (prof.counts, prof.cumulated) == want, f


class TestLazyKValues:
    """A profile keeps its k-values as the bytes they are read back in,
    and builds the edge -> k-value dict on its first read; face_profiles
    reads the same values for the faces it is given and keeps nothing."""

    @pytest.mark.parametrize("name", KERNEL_CORPUS)
    def test_the_dict_is_the_reference_in_edge_order(self, name):
        factory, n, *seed = KERNEL_CORPUS[name]
        d = factory(n, *seed)
        lab = kedges._labelling(d)
        for f, pf in enumerate(sweep_labels(lab)):
            prof = k_edge_profile(d, f)
            want = reference_k_values(lab, pf, n)
            assert type(prof.values) is bytes and list(prof.values) == list(want.values())
            assert prof.k_values == want and list(prof.k_values) == d.edges()
            assert prof.k_values is prof.k_values

    def test_the_dict_is_built_on_its_first_read(self):
        d = convex(8)
        prof = kedges._profile.__wrapped__(d, 0)  # built afresh, not cached
        assert "k_values" not in vars(prof)
        k_values = prof.k_values
        assert vars(prof)["k_values"] is k_values is prof.k_values

    @pytest.mark.parametrize("name", KERNEL_CORPUS)
    def test_face_profiles_reads_every_face_and_keeps_nothing(self, name):
        factory, n, *seed = KERNEL_CORPUS[name]
        d = factory(n, *seed)
        lab = kedges._labelling(d)
        want = [(list(k_values.values()), reference_cumulated(k_values.values(), max_k(n) + 1)[0])
                for k_values in (reference_k_values(lab, pf, n) for pf in sweep_labels(lab))]
        every = list(trace_faces(d).face_ids())
        rng = random.Random(name)
        shuffled = rng.sample(every, len(every))
        for faces in (every, [every[-1]], every[::-3], shuffled, shuffled[:7],
                      [every[-1], 0, every[-1], every[len(every) // 2], 0]):
            cached = dict(d._cache)
            read = list(kedges.face_profiles(d, faces))
            assert d._cache == cached
            assert all(type(values) is bytes for values, _ in read)
            assert [(list(values), counts) for values, counts in read] == [want[f] for f in faces]


class TestSweep:
    """The labelling records, for every face but face 0, the face the sweep
    reached it from and the position of the edge crossed on the way; every
    read forms a face's word by walking those steps back."""

    @pytest.mark.parametrize("name", KERNEL_CORPUS)
    def test_replaying_the_sweep_rebuilds_every_label_from_face_0(self, name):
        factory, n, *seed = KERNEL_CORPUS[name]
        d = factory(n, *seed)
        lab = kedges._labelling(d)
        faces = trace_faces(d)
        # (face, face across, edge position) for each segment, both ways
        sides = {(faces.face_of[a], faces.face_of[b], p)
                 for p, e in enumerate(d.edges()) for dart in d.chain_darts[e]
                 for a, b in ((dart, faces.twin[dart]), (faces.twin[dart], dart))}
        every = list(faces.face_ids())
        assert len(lab.parent) == len(lab.crossed) == len(every)
        assert all((lab.parent[g], g, lab.crossed[g]) in sides for g in every[1:])
        want = [label_word(lab, pf, n) for pf in sweep_labels(lab)]
        assert list(kedges._face_words(lab, every)) == want
        shuffled = random.Random(name).sample(every, len(every))
        assert list(kedges._face_words(lab, shuffled)) == [want[f] for f in shuffled]
        assert [kedges._face_word(lab, f) for f in every[::7]] == want[::7]


class TestTriangleConstants:
    """The labelling's triangle constants (rel) and witness masks against
    the construction they replaced (oracles.reference_constants): labels
    replayed from the sweep, one seed label per edge, one field packed at
    a time."""

    @pytest.mark.parametrize("name", KERNEL_CORPUS)
    def test_kernel_corpus(self, name):
        factory, n, *seed = KERNEL_CORPUS[name]
        d = factory(n, *seed)
        lab = kedges._labelling(d)
        assert (lab.rel, lab.witness) == reference_constants(d)

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24])
    def test_random_two_page_drawings(self, n):
        rng = random.Random(4200 + n)
        for _ in range(2):
            d = two_page_drawing(n, "".join(rng.choice("01") for _ in range(comb(n, 2))))
            lab = kedges._labelling(d)
            assert (lab.rel, lab.witness) == reference_constants(d)

    @pytest.mark.parametrize("n", (3, 5, 63, 64, 65, 130, 257))
    def test_witness_at_any_field_width(self, n):
        lab, _ = synthetic_labelling(n)
        full = (1 << n) - 1
        masks = [full ^ (1 << i) ^ (1 << j) for i, j in lab.edges.values()]
        assert lab.witness == pack_fields(masks, lab.width)


class TestProfiles:
    def test_triangle_profile(self):
        from test_drawing import triangle_doc
        d = load_drawing(triangle_doc())
        fs = trace_faces(d)
        for f in fs.face_ids():
            prof = k_edge_profile(d, f)
            assert prof.counts == (3,)
            assert prof.cumulated == (3,)
            assert prof.crossings == 0

    def test_convex_k5_outer(self):
        d = convex(5)
        prof = k_edge_profile(d, outer_face(d))
        assert prof.counts == (5, 5)
        assert prof.cumulated == (5, 15)
        assert prof.crossings == 5

    def test_crossings_field_counts_crossing_nodes(self):
        for d in (convex(6), cylindrical(8)):
            prof = k_edge_profile(d, 0)
            assert prof.crossings == d.crossing_count() == len(d.crossings)

    def test_counts_sum_to_edge_count(self):
        for d in (convex(6), cylindrical(7), rectilinear(7, 3)):
            for f in sample_faces(d):
                prof = k_edge_profile(d, f)
                assert sum(prof.counts) == d.n * (d.n - 1) // 2

    def test_cylindrical_k6_is_optimal(self):
        d = cylindrical(6)
        assert d.crossing_count() == harary_hill_bound(6) == 3

    def test_k_values_bounded(self):
        d = rectilinear(7, 8)
        prof = k_edge_profile(d, 0)
        assert all(0 <= k <= max_k(7) for k in prof.k_values.values())


class TestVertexProfile:
    def test_face_incident_vertex_closed_form(self):
        # a vertex on the reference face has exactly two i-edges per level,
        # so the cumulated value is 2*C(k+2, 2) for k <= n//2 - 2
        for d in (convex(6), cylindrical(8), rectilinear(7, 13)):
            for f in sample_faces(d):
                for v in vertices_on_face(d, f):
                    prof = vertex_k_profile(d, f, v)
                    for k in range(d.n // 2 - 1):
                        assert prof[k] == 2 * comb(k + 2, 2)

    def test_off_face_vertex_profile_is_plain_summation(self):
        d = rectilinear(7, 29)
        for f in sample_faces(d):
            on_face = vertices_on_face(d, f)
            for v in d.vertices:
                if v in on_face:
                    continue
                prof = vertex_k_profile(d, f, v)
                for k in range(max_k(7) + 1):
                    direct = sum(
                        (k + 1 - k_value(d, f, (u, v)))
                        for u in d.vertices if u != v
                        and k_value(d, f, (u, v)) <= k)
                    assert prof[k] == direct

    def test_rotation_order_k_values(self):
        # edges at a face vertex, read counterclockwise from the face,
        # carry k-values min(i, n-2-i)
        for d in (convex(6), cylindrical(6), rectilinear(7, 17)):
            dart_face = face_views(trace_faces(d)).dart_face
            n = d.n
            for f in sample_faces(d):
                prof = k_edge_profile(d, f)
                for v in vertices_on_face(d, f):
                    rot = d.rotations[v]
                    at = [i for i, x in enumerate(rot)
                          if dart_face[(v, x)] == f]
                    assert len(at) == 1
                    start = at[0]
                    order = [rot[(start + 1 + j) % len(rot)] for j in range(len(rot))]
                    for i, nbr in enumerate(order):
                        e = _edge_of_dart(d, v, nbr)
                        assert prof.k_values[e] == min(i, n - 2 - i)


def _edge_of_dart(d, v, nbr):
    from shellcert.drawing import seg_key
    return d.segment_edge[seg_key(v, nbr)]


# every vertex is deleted on the sampled faces of each drawing
DELETION_CORPUS = {
    **{f"convex{n}": (convex, n) for n in range(5, 9)},
    **{f"cylindrical{n}": (cylindrical, n) for n in range(6, 10)},
    **{f"rectilinear7s{seed}": (rectilinear, 7, seed) for seed in (1, 2, 3)},
}


class TestInvariantEdges:
    @pytest.mark.parametrize("name", DELETION_CORPUS)
    def test_matches_child_drawing_oracle(self, name):
        factory, *args = DELETION_CORPUS[name]
        d = factory(*args)
        for f in sample_faces(d):
            for v in d.vertices:
                report = invariant_edges(d, f, v)
                assert report.deleted_vertex == v
                assert ((report.flags, report.parent_k, report.child_k,
                         report.cumulated)
                        == child_drawing_report(d, f, v)), (f, v)

    def test_drop_by_at_most_one_and_flags(self):
        d = rectilinear(7, 23)
        for f in sample_faces(d):
            for v in d.vertices:
                report = invariant_edges(d, f, v)
                # the law on the independent route, then on the report
                flags, _, _, _ = child_drawing_report(d, f, v)
                assert report.flags == flags
                for e in report.flags:
                    assert report.child_k[e] in (report.parent_k[e],
                                                 report.parent_k[e] - 1)
                    assert report.flags[e] == (report.child_k[e] == report.parent_k[e])
                assert report.invariant_edges == {
                    e for e, keep in report.flags.items() if keep}

    def test_shared_face_lower_bound(self):
        # deleting v leaves at least n//2 - 1 invariant edges at every
        # other vertex w on the same face
        for d in (convex(5), convex(6), cylindrical(8), rectilinear(7, 31)):
            n = d.n
            for f in sample_faces(d):
                verts = sorted(vertices_on_face(d, f))
                for v in verts:
                    report = invariant_edges(d, f, v)
                    for w in verts:
                        if w == v:
                            continue
                        at_w = sum(1 for e in report.invariant_edges if w in e)
                        assert at_w >= n // 2 - 1

    def test_rejects_bad_arguments(self):
        d = convex(6)
        fs = trace_faces(d)
        for face, v in ((0, 9), (-1, 0), (fs.face_count(), 0)):
            with pytest.raises(ValueError):
                invariant_edges(d, face, v)
            with pytest.raises(ValueError):
                recursion_check(d, face, v, 0)
        from test_drawing import triangle_doc
        t = load_drawing(triangle_doc())
        with pytest.raises(ValueError):
            invariant_edges(t, 0, 0)


class TestRecursion:
    def test_zero_residual_everywhere(self):
        for d in (convex(5), convex(6), cylindrical(6), cylindrical(8),
                  rectilinear(7, 41), rectilinear(7, 42)):
            for f in sample_faces(d, want=4):
                for v in d.vertices:
                    for k in range(d.n // 2 - 1):
                        assert recursion_check(d, f, v, k) == 0

    def test_k_range_enforced(self):
        d = convex(6)
        with pytest.raises(ValueError):
            recursion_check(d, 0, 0, 2)


class TestDeletionFree:
    def test_deletion_queries_build_no_drawing(self, monkeypatch):
        drawings = (convex(10), cylindrical(10))
        for d in drawings:
            trace_faces(d)

        def forbidden(*args, **kwargs):
            raise AssertionError("a subdrawing was built")

        monkeypatch.setattr(drawing_module, "delete_vertex", forbidden)
        for module in (drawing_module, kedges):
            monkeypatch.setattr(module, "child_drawing", forbidden)
        monkeypatch.setattr(Drawing, "__init__", forbidden)
        for d in drawings:
            face = outer_face(d)
            verts = sorted(vertices_on_face(d, face))
            for v in d.vertices:
                assert invariant_edges(d, face, v).deleted_vertex == v
                for k in range(d.n // 2 - 1):
                    assert recursion_check(d, face, v, k) == 0
            k_values = k_edge_profile(d, face).k_values
            for u in verts:
                for v in verts:
                    if u != v:
                        j = k_values[edge_key(u, v)]
                        side = edge_side_partition(d, face, u, v)
                        assert len(side) in (j, d.n - 2 - j)

    @pytest.mark.parametrize("factory", (convex, cylindrical))
    def test_deletion_reads_leave_the_labelling_unchanged(self, factory):
        """A read with a vertex deleted makes its own witness mask and
        table: the labelling's fields are the same after every deletion on
        every face, and a second read gives the first one's values."""
        d = factory(8)
        lab = kedges._labelling(d)
        before = {f.name: deepcopy(getattr(lab, f.name)) for f in fields(lab)}
        for f in trace_faces(d).face_ids():
            word = kedges._face_word(lab, f)
            for v in d.vertices:
                report = invariant_edges(d, f, v)
                first = kedges._k_values(lab, word, lab.index[v])
                assert kedges._k_values(lab, word, lab.index[v]) == first == report.child_k
        assert kedges._labelling(d) is lab
        assert {f.name: getattr(lab, f.name) for f in fields(lab)} == before


class TestBoundCheck:
    def test_thresholds(self):
        d = convex(10)
        rows = cumulative_bound_check(d, outer_face(d), 3)
        assert [r.threshold for r in rows] == [3, 12, 30, 60]
        assert all(r.ok for r in rows)

    def test_level0_holds_on_every_face(self):
        for d in (convex(6), cylindrical(7), rectilinear(6, 2)):
            fs = trace_faces(d)
            for f in fs.face_ids():
                rows = cumulative_bound_check(d, f, 0)
                assert rows[0].ok and rows[0].cumulated >= 3

    def test_kmax_range(self):
        d = convex(6)
        with pytest.raises(ValueError):
            cumulative_bound_check(d, 0, 2)

    def test_three_vertices_have_no_levels_whatever_kmax(self):
        for kmax in (0, 1.5, None):
            with pytest.raises(ValueError, match="^a drawing on 3 vertices has no bound levels$"):
                cumulative_bound_check(convex(3), 0, kmax)

    def test_rows_are_tuples(self):
        d = convex(8)
        rows = cumulative_bound_check(d, 0, 1)
        c0, c1 = k_edge_profile(d, 0).cumulated[:2]
        assert rows == ((0, c0, 3, c0 >= 3), (1, c1, 12, c1 >= 12))
        k, cumulated, threshold, ok = rows[1]
        assert (k, cumulated, threshold, ok) == (rows[1].k, rows[1].cumulated,
                                                 rows[1].threshold, rows[1].ok)
        assert repr(rows[0]) == f"BoundRow(k=0, cumulated={c0}, threshold=3, ok={c0 >= 3})"


@pytest.fixture(scope="module")
def identity_corpus():
    """The drawings of the acceptance suite: convex K5..K10, cylindrical
    K5..K12, and rectilinear K7 on 50 seeds and K5..K7 on 100 seeds each."""
    drawings = [convex(n) for n in range(5, 11)]
    drawings += [cylindrical(n) for n in range(5, 13)]
    drawings += [rectilinear(7, seed) for seed in range(50)]
    drawings += [rectilinear(n, seed) for n in (5, 6, 7) for seed in range(100)]
    return drawings


class TestCrossingIdentity:
    """cr(D) from the cumulated k-edge counts of any face ties the
    planarizer's crossings to the labelling's k-values."""

    def test_every_face(self, identity_corpus):
        faces = 0
        for d in identity_corpus:
            for f in trace_faces(d).face_ids():
                cumulated = k_edge_profile(d, f).cumulated
                assert crossings_from_cumulated(d.n, cumulated) == d.crossing_count(), (d.n, f)
                faces += 1
        assert faces > 10000

    def test_deletion_reads(self, identity_corpus):
        # the child k-values are those of D - v, whose crossings are those
        # of D off the edges at v
        rng = random.Random(36)
        reads = 0
        for d in identity_corpus:
            faces = list(trace_faces(d).face_ids())
            for f in rng.sample(faces, min(3, len(faces))):
                for v in rng.sample(d.vertices, 3):
                    child_k = invariant_edges(d, f, v).child_k
                    cumulated = reference_cumulated(child_k.values(), max_k(d.n - 1) + 1)[1]
                    at_v = sum(len(d.chains[edge_key(u, v)]) - 2
                               for u in d.vertices if u != v)
                    assert (crossings_from_cumulated(d.n - 1, cumulated)
                            == d.crossing_count() - at_v), (d.n, f, v)
                    reads += 1
        assert reads > 3000

    def test_thresholds_give_harary_hill(self):
        # cumulative_bound_check's thresholds in place of the counts
        for n in range(4, 61):
            thresholds = [3 * comb(k + 3, 3) for k in range(n // 2 - 1)]
            assert crossings_from_cumulated(n, thresholds) == harary_hill_closed_form(n), n


class TestEdgeSidePartition:
    def test_j_edge_side_counts(self):
        # for u, v both on the face, the curve of uv closed through the face
        # has exactly j or n-2-j vertices on the face's side of the split
        for d in (convex(6), cylindrical(6), rectilinear(7, 3)):
            n = d.n
            for f in sample_faces(d):
                prof = k_edge_profile(d, f)
                verts = sorted(vertices_on_face(d, f))
                for i, u in enumerate(verts):
                    for v in verts[i + 1:]:
                        j = prof.k_values[edge_key(u, v)]
                        side = edge_side_partition(d, f, u, v)
                        assert len(side) in {j, n - 2 - j}

    @pytest.mark.parametrize("name", DELETION_CORPUS)
    def test_matches_split_face_oracle(self, name):
        factory, *args = DELETION_CORPUS[name]
        d = factory(*args)
        fs = trace_faces(d)
        for f in fs.face_ids():
            verts = sorted(vertices_on_face(d, f))
            for u in verts:
                for v in verts:
                    if u != v:
                        assert (edge_side_partition(d, f, u, v)
                                == split_face_side_partition(d, fs, f, u, v)), (f, u, v)

    def test_requires_face_incidence(self):
        d = convex(5)
        fs = trace_faces(d)
        inner = next(f for f in fs.face_ids()
                     if not vertices_on_face(d, f))
        with pytest.raises(ValueError):
            edge_side_partition(d, inner, 0, 1)
        outer = outer_face(d)
        for u, v in ((0, 0), (0, 9)):
            with pytest.raises(ValueError):
                edge_side_partition(d, outer, u, v)
