"""Region queries, simple sequences, deciders, verifiers, and the
certificate transform."""

import random
from math import comb

import pytest

from corpus import convex, cylindrical, rectilinear, sample_faces
from oracles import (naive_bishellable, naive_seq_shellable, reference_region_tables,
                     surviving_face_vertices)
from shellcert import drawing as drawing_module
from shellcert import shellability
from shellcert.documents import drawing_to_document, load_drawing
from shellcert.drawing import Drawing, child_drawing, trace_faces, vertices_on_face
from shellcert.errors import CertificateMismatchError
from shellcert.kedges import invariant_edges
from shellcert.planarize import outer_face
from shellcert.shellability import (BishellCertificate, SeqShellCertificate,
                                    bishell_to_seq, decide_bishellable,
                                    decide_seq_shellable, find_simple_sequence,
                                    verify_bishell_certificate,
                                    verify_seq_certificate)


class TestRegions:
    def test_incidence_agrees_with_child_drawings(self):
        # every deletion length 0..n occurs, so tails of three or fewer
        # vertices (and the empty drawing) are covered on every drawing
        rng = random.Random(20181)
        drawings = [family(n) for n in (7, 8, 9) for family in (convex, cylindrical)]
        drawings += [rectilinear(n, n - 6) for n in (7, 8, 9)]
        for d in drawings:
            fs = trace_faces(d)
            regions = shellability._Regions(d)
            for case in range(30):
                face = rng.randrange(fs.face_count())
                deletions = rng.sample(d.vertices, case % (d.n + 1))
                state = regions.start(face)
                for v in deletions:
                    state = regions.advance(state, v)
                assert (regions.candidates(state)
                        == sorted(surviving_face_vertices(d, face, deletions))), \
                    (d.n, face, deletions)

    def test_searches_and_verifiers_build_no_drawing(self, monkeypatch):
        drawings = (convex(10), cylindrical(10))

        def forbidden(*args, **kwargs):
            raise AssertionError("a subdrawing was built")

        monkeypatch.setattr(drawing_module, "delete_vertex", forbidden)
        for module in (drawing_module, shellability):
            monkeypatch.setattr(module, "child_drawing", forbidden)
        monkeypatch.setattr(Drawing, "__init__", forbidden)
        for d in drawings:
            k = d.n // 2 - 2
            cert = decide_seq_shellable(d, k)
            bcert = decide_bishellable(d, k)
            assert verify_seq_certificate(d, cert)
            assert verify_bishell_certificate(d, bcert)
            assert verify_seq_certificate(d, bishell_to_seq(bcert))
            owner = cert.vertices[0]
            assert find_simple_sequence(d, cert.face, owner,
                                        k + 1).vertices == cert.sequences[0]
        assert decide_bishellable(cylindrical(10), 4) is None


class TestRegionTablesPerVertex:
    """A vertex's region tables, built on its first deletion, against the
    eager tables of every vertex in tests/oracles.py."""

    @staticmethod
    def corpus():
        return ([convex(n) for n in (6, 9)] + [cylindrical(n) for n in (7, 8, 10)]
                + [rectilinear(n, n + 3) for n in (7, 8)])

    def test_tables_equal_the_eager_ones(self):
        for d in self.corpus():
            corners, touch, adjacency = reference_region_tables(d)
            lazy_corners, tables = shellability._region_tables(d)
            assert lazy_corners == corners
            for v in d.vertices:
                assert tables[v] == (touch[v], adjacency[v]), (d.n, v)

    def test_decisions_and_certificates_unchanged(self, monkeypatch):
        # every drawing at k = n//2 - 2 and, for bishell, n//2 - 1, which is
        # negative on the even cylindrical drawings; plus seeded single faces
        rng = random.Random(1811)
        cases = []
        for d in self.corpus():
            faces = trace_faces(d).face_count()
            for k in (d.n // 2 - 2, d.n // 2 - 1):
                cases.append((d, decide_bishellable, k, None))
                cases.append((d, decide_bishellable, k, rng.randrange(faces)))
            cases.append((d, decide_seq_shellable, d.n // 2 - 2, None))
            cases.append((d, decide_seq_shellable, d.n // 2 - 2, rng.randrange(faces)))
        lazy = [decide(d, k, face) for d, decide, k, face in cases]
        assert None in lazy and any(cert is not None for cert in lazy)

        def eager(drawing):
            corners, touch, adjacency = reference_region_tables(drawing)
            return corners, {v: (touch[v], adjacency[v]) for v in drawing.vertices}

        monkeypatch.setattr(shellability, "_region_tables", eager)
        assert [decide(d, k, face) for d, decide, k, face in cases] == lazy

    def test_only_deleted_vertices_get_tables(self):
        # a verify job builds the tables of the vertices it deletes, no more
        for base in (convex(9), cylindrical(12)):
            d = load_drawing(drawing_to_document(base, "combinatorial"))
            cert = decide_seq_shellable(base, base.n // 2 - 2)
            assert verify_seq_certificate(d, cert)
            deleted = set(cert.vertices[:-1])
            deleted.update(x for seq in cert.sequences for x in seq[:-1])
            assert set(shellability._region_tables(d)[1]) == deleted


class TestFindSimpleSequence:
    def test_convex_hull_sequence(self):
        d = convex(6)
        face = outer_face(d)
        seq = find_simple_sequence(d, face, 0, 3)
        assert seq is not None and seq.owner == 0
        assert seq.vertices == (1, 2, 3)

    def test_length_one_needs_only_face_incidence(self):
        d = convex(5)
        face = outer_face(d)
        seq = find_simple_sequence(d, face, 0, 1)
        assert seq.vertices == (1,)

    def test_infeasible_length_returns_none(self):
        d = convex(5)
        face = outer_face(d)
        assert find_simple_sequence(d, face, 0, 5) is None

    def test_owner_must_be_on_face(self):
        d = convex(5)
        fs = trace_faces(d)
        inner = next(f for f in fs.face_ids()
                     if not vertices_on_face(d, f))
        with pytest.raises(ValueError):
            find_simple_sequence(d, inner, 0, 1)

    @pytest.mark.parametrize("face", [-1, 26])
    def test_face_outside_the_drawing(self, face):
        # convex K_6 has faces 0..25
        with pytest.raises(ValueError, match=f"^face {face} does not exist$"):
            find_simple_sequence(convex(6), face, 0, 1)

    def test_lower_bound_on_invariant_edges(self):
        # a simple sequence of length k+1 for v forces at least C(k+2, 2)
        # cumulated invariant edges when v is deleted
        for d in (convex(6), cylindrical(8), rectilinear(7, 6)):
            for f in sample_faces(d):
                for v in sorted(vertices_on_face(d, f)):
                    for k in range(d.n // 2 - 1):
                        seq = find_simple_sequence(d, f, v, k + 1)
                        if seq is None:
                            continue
                        report = invariant_edges(d, f, v)
                        assert report.cumulated[k] >= comb(k + 2, 2)


class TestDeciders:
    def test_convex_family_is_seq_shellable(self):
        for n in (4, 6, 8, 10):
            d = convex(n)
            cert = decide_seq_shellable(d, n // 2 - 2)
            assert cert is not None
            assert verify_seq_certificate(d, cert)

    def test_convex_family_is_bishellable(self):
        for n in (4, 8, 10):
            d = convex(n)
            cert = decide_bishellable(d, n // 2 - 2)
            assert cert is not None
            assert verify_bishell_certificate(d, cert)

    def test_cylindrical_family(self):
        for n in (6, 8):
            d = cylindrical(n)
            assert decide_seq_shellable(d, n // 2 - 2) is not None
            assert decide_bishellable(d, n // 2 - 2) is not None

    def test_face_filter_restricts_search(self):
        d = convex(6)
        face = outer_face(d)
        cert = decide_seq_shellable(d, 1, face_filter=face)
        assert cert is not None and cert.face == face

    def test_k_range_rejected(self):
        d = convex(5)
        with pytest.raises(ValueError):
            decide_seq_shellable(d, 4)
        with pytest.raises(ValueError):
            decide_bishellable(d, -1)

    def test_agrees_with_naive_oracles_on_sample(self):
        for seed in range(6):
            for n in (5, 6):
                d = rectilinear(n, seed)
                for k in range(n // 2 - 1):
                    assert ((decide_seq_shellable(d, k) is not None)
                            == naive_seq_shellable(d, k))
                    assert ((decide_bishellable(d, k) is not None)
                            == naive_bishellable(d, k))

    def test_agrees_with_naive_oracles_per_face(self):
        # the per-face variant exercises negative answers too (faces with
        # too few incident vertices admit no certificates)
        for seed in (0, 1):
            d = rectilinear(6, seed)
            fs = trace_faces(d)
            for face in list(fs.face_ids())[:12]:
                for k in (0, 1):
                    assert ((decide_seq_shellable(d, k, face_filter=face) is not None)
                            == naive_seq_shellable(d, k, face=face)), (seed, face, k)
                    assert ((decide_bishellable(d, k, face_filter=face) is not None)
                            == naive_bishellable(d, k, face=face)), (seed, face, k)

    def test_agrees_with_naive_oracles_at_n8(self):
        for seed in (0, 1):
            d = rectilinear(8, seed)
            for k in range(8 // 2 - 1):
                assert ((decide_seq_shellable(d, k) is not None)
                        == naive_seq_shellable(d, k))
                assert ((decide_bishellable(d, k) is not None)
                        == naive_bishellable(d, k))

    def test_negative_bishell_agrees_with_naive_oracle(self):
        # a drawing-level negative answer: cylindrical K10 is not
        # 4-bishellable for any face
        d = cylindrical(10)
        fs = trace_faces(d)
        assert decide_bishellable(d, 4) is None
        for face in fs.face_ids():
            assert decide_bishellable(d, 4, face_filter=face) is None
        # the brute force takes ~0.2 s a face; check the ten faces with the
        # most incident vertices
        busiest = sorted(fs.face_ids(),
                         key=lambda f: (-len(vertices_on_face(d, f)), f))[:10]
        for face in busiest:
            assert not naive_bishellable(d, 4, face=face), face

    def test_convex_k4_base_cases(self):
        d = convex(4)
        cert = decide_seq_shellable(d, 0)
        assert cert is not None and len(cert.vertices) == 1
        bcert = decide_bishellable(d, 0)
        assert bcert is not None
        assert bcert.a_sequence[0] != bcert.b_sequence[0]

    def test_deterministic_output(self):
        from shellcert.generators import random_rectilinear
        d1 = random_rectilinear(7, 19)
        d2 = random_rectilinear(7, 19)
        assert decide_seq_shellable(d1, 1) == decide_seq_shellable(d2, 1)
        assert decide_bishellable(d1, 1) == decide_bishellable(d2, 1)

    def test_monotone_in_k(self):
        for seed in (3, 4):
            d = rectilinear(7, seed)
            k = 7 // 2 - 2
            if decide_seq_shellable(d, k) is not None:
                for j in range(k + 1):
                    assert decide_seq_shellable(d, j) is not None

    def test_subdrawing_property(self):
        d = convex(8)
        cert = decide_seq_shellable(d, 2)
        assert cert is not None
        child, _, face_map = child_drawing(d, cert.vertices[0])
        sub = decide_seq_shellable(child, 1, face_filter=face_map[cert.face])
        assert sub is not None


class TestVerifiers:
    def cert(self):
        d = convex(8)
        cert = decide_seq_shellable(d, 2)
        assert cert is not None
        return d, cert

    def test_decider_output_verifies(self):
        d, cert = self.cert()
        assert verify_seq_certificate(d, cert)

    def test_swapped_sequence_vertices_fail_with_named_condition(self):
        d, cert = self.cert()
        s0 = cert.sequences[0]
        tampered = SeqShellCertificate(
            cert.face, cert.vertices,
            ((s0[1], s0[0]) + s0[2:],) + cert.sequences[1:])
        result = verify_seq_certificate(d, tampered)
        if result.ok:
            pytest.skip("swap produced another valid sequence")
        assert any("S_0" in line for line in result.violations)

    def test_sequence_containing_excluded_vertex_fails(self):
        d, cert = self.cert()
        a0 = cert.vertices[0]
        bad = (a0,) + cert.sequences[0][1:]
        tampered = SeqShellCertificate(cert.face, cert.vertices,
                                       (bad,) + cert.sequences[1:])
        result = verify_seq_certificate(d, tampered)
        assert not result.ok
        assert any("excluded" in line or "owner" in line
                   for line in result.violations)

    def test_later_a_vertex_is_legal_in_s0(self):
        # the exclusion for sequences[0] bans only a_0, so a_1 may appear
        d = convex(6)
        face = outer_face(d)
        cert = SeqShellCertificate(face, (0, 1), ((1, 2), (2,)))
        assert verify_seq_certificate(d, cert)

    def test_wrong_length_fails(self):
        d, cert = self.cert()
        tampered = SeqShellCertificate(cert.face, cert.vertices,
                                       (cert.sequences[0][:-1],) + cert.sequences[1:])
        result = verify_seq_certificate(d, tampered)
        assert not result.ok
        assert any("length" in line for line in result.violations)

    def test_unknown_vertex_is_structural(self):
        d, cert = self.cert()
        tampered = SeqShellCertificate(cert.face, cert.vertices[:-1] + (99,),
                                       cert.sequences)
        with pytest.raises(CertificateMismatchError):
            verify_seq_certificate(d, tampered)

    def test_unknown_face_is_structural(self):
        d, cert = self.cert()
        tampered = SeqShellCertificate(10 ** 6, cert.vertices, cert.sequences)
        with pytest.raises(CertificateMismatchError):
            verify_seq_certificate(d, tampered)

    def test_bishell_disjointness_violation_named(self):
        d = convex(8)
        cert = decide_bishellable(d, 2)
        assert cert is not None
        tampered = BishellCertificate(
            cert.face, cert.a_sequence,
            (cert.b_sequence[0], cert.a_sequence[0]) + cert.b_sequence[2:])
        result = verify_bishell_certificate(d, tampered)
        assert not result.ok
        assert any("disjointness" in line for line in result.violations)

    def test_bishell_repeated_vertex_fails(self):
        d = convex(8)
        cert = decide_bishellable(d, 2)
        tampered = BishellCertificate(
            cert.face, (cert.a_sequence[0],) * len(cert.a_sequence),
            cert.b_sequence)
        result = verify_bishell_certificate(d, tampered)
        assert not result.ok

    def test_hand_built_bishell_on_convex_hull(self):
        # walk the hull from both ends: a deletes 0, 1, ...; b deletes
        # n-1, n-2, ...; all vertices stay on the outer face throughout
        d = convex(6)
        face = outer_face(d)
        cert = BishellCertificate(face, (0, 1), (5, 4))
        assert verify_bishell_certificate(d, cert)
        d8 = convex(8)
        cert8 = BishellCertificate(outer_face(d8), (0, 1, 2), (7, 6, 5))
        assert verify_bishell_certificate(d8, cert8)


class TestTransform:
    def test_bishell_to_seq_verifies(self):
        for n in (6, 8, 10):
            d = convex(n)
            cert = decide_bishellable(d, n // 2 - 2)
            assert cert is not None
            seq_cert = bishell_to_seq(cert)
            assert seq_cert.vertices == cert.a_sequence
            assert seq_cert.sequences[0] == cert.b_sequence
            assert seq_cert.sequences[-1] == (cert.b_sequence[0],)
            assert verify_seq_certificate(d, seq_cert)

    def test_sequences_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="^certificate sequences must have equal length$"):
            bishell_to_seq(BishellCertificate(0, (0, 1), (2,)))
        with pytest.raises(ValueError, match="^certificate sequences must not be empty$"):
            bishell_to_seq(BishellCertificate(0, (), ()))

    def test_zero_length_case(self):
        cert = BishellCertificate(0, (4,), (2,))
        seq_cert = bishell_to_seq(cert)
        assert seq_cert.vertices == (4,) and seq_cert.sequences == ((2,),)

    def test_transform_on_random_corpus(self):
        for seed in range(20):
            d = rectilinear(7, 100 + seed)
            cert = decide_bishellable(d, 1)
            if cert is None:
                continue
            assert verify_seq_certificate(d, bishell_to_seq(cert))
