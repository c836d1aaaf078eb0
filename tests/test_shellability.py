"""Region queries, simple sequences, deciders, verifiers, and the
certificate transform."""

import hashlib
import json
import random
from dataclasses import replace
from math import comb

import pytest

from corpus import convex, cylindrical, rectilinear, sample_faces
from oracles import (merged_faces, naive_bishellable, naive_seq_shellable,
                     smallest_simple_sequence, surviving_face_vertices)
from shellcert import drawing as drawing_module
from shellcert import shellability
from shellcert.cli import main
from shellcert.drawing import (Drawing, child_drawing, face_vertex_table, trace_faces,
                               vertices_on_face)
from shellcert.errors import CertificateMismatchError, ShellcertError
from shellcert.generators import convex_document
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
                if d.n - len(deletions) >= 3:
                    assert state[0] == merged_faces(d, face, deletions), (d.n, face, deletions)
                # the region depends on the deletion set, not its order
                other = regions.start(face)
                for v in rng.sample(deletions, len(deletions)):
                    other = regions.advance(other, v)
                assert other == state, (d.n, face, deletions)

    def test_index_against_boundary_walks_and_chains(self):
        # corners read off each face's boundary walk, darts and ends off
        # each chain's nodes, independently of the one pass over chain_darts
        for d in (convex(7), cylindrical(8), rectilinear(8, 2)):
            fs = trace_faces(d)
            regions = shellability._Regions(d)
            corners = {w: set() for w in d.vertices}
            for f, walk in enumerate(fs.walks):
                for i in walk:
                    if fs.tails[i] in corners:
                        corners[fs.tails[i]].add(f)
            assert regions.corners == corners
            assert [bit for _, bit, _ in regions.rows] == [1 << i for i in range(d.n)]
            ends = [0] * len(fs.twin)
            for (u, v), ch in d.chains.items():
                mask = regions.bit[u] | regions.bit[v]
                darts = [d.offset[a] + d.rotations[a].index(b) for a, b in zip(ch, ch[1:])]
                for i in darts:
                    ends[i] = ends[fs.twin[i]] = mask
                assert set(darts) <= set(regions.darts[u]) & set(regions.darts[v])
            assert regions.ends == ends and 0 not in ends
            for w in d.vertices:
                assert len(regions.darts[w]) == sum(len(d.chains[e]) - 1 for e in d.chains
                                                    if w in e)

    def test_advance_keeps_its_state_and_only_grows(self):
        # searches backtrack to earlier states, and the exchange lemma
        # needs region(F, S) inside region(F, S + {u})
        rng = random.Random(3107)
        for d in (convex(9), cylindrical(10), rectilinear(9, 3)):
            regions = shellability._Regions(d)
            for face in sample_faces(d, 4):
                state = regions.start(face)
                for v in rng.sample(d.vertices, d.n - 3):
                    kept = (set(state[0]), state[1])
                    others = [regions.advance(state, u) for u in d.vertices
                              if not state[1] & regions.bit[u]]
                    assert (set(state[0]), state[1]) == kept
                    assert all(region >= state[0] for region, _ in others)
                    state = regions.advance(state, v)

    def test_one_index_per_drawing(self, monkeypatch):
        # decides and verifies on one drawing share its index
        built = []
        init = shellability._Regions.__init__

        def counted(self, drawing):
            built.append(drawing)
            init(self, drawing)

        monkeypatch.setattr(shellability._Regions, "__init__", counted)
        base = cylindrical(10)  # shared by the corpus: copy it for an empty cache
        d = Drawing(base.vertices, base.crossings, base.rotations, base.chains)
        cert = decide_seq_shellable(d, 3)
        bcert = decide_bishellable(d, 3)
        assert verify_seq_certificate(d, cert) and verify_bishell_certificate(d, bcert)
        assert find_simple_sequence(d, cert.face, cert.vertices[0], 4)
        assert built == [d]

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
        # the brute force takes ~0.2 s a face; check one face per vertex
        # row of at least two vertices, which with the face lemma
        # (test_faces_with_equal_rows_get_equal_certificates) covers every face
        table, firsts = face_vertex_table(d), {}
        for face in fs.face_ids():
            firsts.setdefault(tuple(table[face]), face)
        for row, face in firsts.items():
            if len(row) >= 2:
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


FAMILIES = {"convex": convex, "cylindrical": cylindrical, "rectilinear": rectilinear}


def family_drawing(family, n, seed=None):
    return FAMILIES[family](n) if seed is None else FAMILIES[family](n, seed)


class TestGreedySearches:
    """The seq and simple-sequence searches take the smallest candidate
    that works at every step; by the exchange lemma in the module
    docstring that is a complete search with the lexicographically
    smallest answer."""

    # sha256 of the repr of every per-face decide_seq_shellable (faces
    # ascending, k = 0..n-2 within a face) and of every
    # find_simple_sequence(d, f, v, L) (faces ascending, vertices on the
    # face ascending, L = 1..n-1), as the backtracking searches answered
    PINS = [
        ("convex", 5, None, "69c88cc6d500e4260b066ca29b57b6a22a5e18f2da487be05bf45f62fe6e1c9a",
         "6466d51065ab068b8ab73f6bf54e95a887b412dd196ef3600d4a84ef300391d1"),
        ("convex", 6, None, "190b06a21dca1bde790f658cc26aa2883fe5628ad00aa0dd5e8a67ffe5d22a6e",
         "cdb8142fc4e9e2338bd6361b7b0df7ffdbf78db7c2a70b40d40f6af03457a837"),
        ("convex", 7, None, "3ca7a9bad8a9d20fa37015e8bbef6e3e5883a41e698fac6f1b2198e5bf445a30",
         "527bdeadcbb28292d6a91a4d61ff1a671ce4543bdc2b388c1118b649e7ce7b71"),
        ("convex", 8, None, "db44074da151aa8717fcf8898a8dc32c7986dd36d9be6afb28bc1558ea0828b4",
         "1036147e9fa447244b98f19892d3031b594aea4840c430c466b632760392c946"),
        ("convex", 9, None, "198e52429dee03ed4d235fd11d1659377db5c21a6d740bfb3eab3e1e85fde8bc",
         "f069f5e1263c5c34473fcd83b9a58f43433b1dda1d1d3ade2bf61311edb19ca4"),
        ("cylindrical", 6, None, "beb5852b0a92f922eb2aa4e9b68f8aaf3c5b703d2b19b2b15419026eb808f4a6",
         "b58456ed55e0a151341f657820a9fad82a8a880e10c8300b294517bdf5a56d72"),
        ("cylindrical", 7, None, "3660e1043ebe31f29493a0745a76cb5545fe6d430e0a5f5e337f1970cf3ea69c",
         "673884bd78ba61b3ebafef246f08528a21673c8b834630a14c5d76b374cfa261"),
        ("cylindrical", 8, None, "526bdaec2b143acbecc2c3db2de0abc3335ff908cd82beb6b3b668eff97ed50b",
         "75a75c86dbf28a1f8d27ed6998a7b3cd9d9a9b15311dcf1494bdb163f93a7cd7"),
        ("cylindrical", 9, None, "ad52d7b6d398b94c0cb1b822abc52735185bc6c04bee3670fdee04e266201329",
         "ccd53c7bc53bcec83db34b9d309d89ea35bc95c31939b4e628842297e3ababa0"),
        ("cylindrical", 10, None, "741dc2872db9fd0a3d133cc07fcaa45ff4ca8fb6a8e65cef56b18082d979d0db",
         "30b6810d651d6b01cac736caa4e8e632a35c697fd7863c49c79d51af8756d2b8"),
        ("rectilinear", 6, 1, "da8d6b78a87ee6bffafb61339c587f95269a6d869ac00954e9c3e181b93bffee",
         "2b2463466e862cb1a22a4c6db187964bc3e6214065700feffbd14bcab3f4b171"),
        ("rectilinear", 6, 2, "f69c6ba349e4063f77729726f6178e1f71cde17728bcc8a16f5abc2f4820240b",
         "12542df40dc413de655cf811318a458763ba4a1c4e7a569322e607e7b381c878"),
        ("rectilinear", 7, 1, "4f13f34ae7a22cff5c600bed3bd8c2b370f10930b6caa894416c8ce5f884e2a8",
         "ad9e72b34f0c2c072ced0043702796d668b5eefd66d0c931b90e4f11e557851d"),
        ("rectilinear", 7, 2, "1f1ce88e45e0ab77b106606a3bc9a233133dc23deebc812d38a3db7f2824eeb4",
         "00c091596adc9564ebb73019e9e65f91cff02c7459c040af062c2ecfad47e5d9"),
        ("rectilinear", 8, 1, "0ab0c59b623b0df4678d7e7a099f41c3bd448252ff2f6abca284399f9d18a0d2",
         "3ca43128dc9e77a3af490c4a111b2144dffed9492bbea73da18d0be9297e05da"),
        ("rectilinear", 8, 2, "73bc451cc9e02ec2a4704f586f9a358399d30f15bb96d5a09d3d87c70e17883e",
         "abb781aeee0469be99e4a3ec515aa59a9219b7f3158a52f053738bc9dbdf396b"),
    ]

    @pytest.mark.parametrize("family,n,seed,decides,sequences", PINS)
    def test_answers_pinned(self, family, n, seed, decides, sequences):
        d = family_drawing(family, n, seed)
        faces = list(trace_faces(d).face_ids())
        found = [decide_seq_shellable(d, k, face_filter=f) for f in faces for k in range(n - 1)]
        assert hashlib.sha256(repr(found).encode()).hexdigest() == decides
        found = [find_simple_sequence(d, f, v, length) for f in faces
                 for v in sorted(vertices_on_face(d, f)) for length in range(1, n)]
        assert hashlib.sha256(repr(found).encode()).hexdigest() == sequences

    # sha256 of the repr of every per-face decide_bishellable (faces
    # ascending, s = 0..n-2 within a face), of the whole-drawing
    # decide_seq_shellable at k = 0..n-2 and of the whole-drawing
    # decide_bishellable at s = 0..n-2, as a search that tries every face
    # and backtracks over both sequences answered
    BISHELL_PINS = [
        ("convex", 5, None, "280e354feb97bc3f5ae9cb1c76c0c24ccdff1d929d3787ce7aaf1ac9cc02822b",
         "dedfc89358e1cb63e22ebae1894333dd9b5d190302869d64ff260136ef7858d3",
         "c2438b6c7e4196755039c7d369700da52713378d94ba504a7e3692b5536249f4"),
        ("convex", 6, None, "bd04e7d2c357391ff4084bfe0c20976a584b8910e6110ffb53d53aaae91312da",
         "3ee3cd154405df9f9ab197966a424ab857621278a21ed7bc85f8329506e14af5",
         "c07aa3e6f2ab30048974730ffa46459aab3415edcc7b65f5dd0bc45407f59485"),
        ("convex", 7, None, "ecf06071b1da19737cf2210a8b43bcc1546fd84ebd0d312a34870faec2dc3e42",
         "5cfbc2271dcd77e79f37a4a32f2df8a066d4cc2072b64fdf671399961cacdfd0",
         "55e21e7f62507489ec32c32dc8ad0e806800e1b4ca7e632d0df26bd985a7f736"),
        ("convex", 8, None, "069ef9373db78439db2cdd48b597ac732fd5fef8482a4a857feee4dee0e6f839",
         "aff5a3458778133d095002e2a6a6ea0cfc27ecf80bd5aba66c1da9a9a6521d29",
         "f4272972202f86d3811d48b8a7742ac27cc0f395122656dbc128538b84537605"),
        ("convex", 9, None, "59d568155641db860e09e1fa1dfc5a44013a6c0c53a44fa0e36f55e1e712351d",
         "60223c678d8cf9b8f5f6e8e74698a589ffb5bb597578af36e496f583297628d7",
         "bd14c5080c139b0ff960afc98bbce2da0634752447e34d33aa6612aeaedcd9b0"),
        ("cylindrical", 6, None, "2a7bbd4ba2c817f535195776f76e4379657145b18041bcd0fdb83f95bc724ca8",
         "ec5224cfcbe07f5f19d205de72638359bb9be0d152ad7904af7fb63e58bfbb72",
         "dedf41ffa2237067c1ae87fe2150d1d3940004325f0c0978de235467c2a3eb29"),
        ("cylindrical", 7, None, "686c1dc0fb7a0353edcf786a503ba5f9d824039d6602499f7719424408742f9f",
         "e61d8d3e536147d91c740422e733f271b1310e619c10b8600ab77496f8335b87",
         "66fed1832ee2a4462b3db4b1218bf0a80387352b83693d65a871f66448c7bf50"),
        ("cylindrical", 8, None, "814cb4e2b67114f06a22f0d7152d512d9ce9bdf28a98f93cf89627c525e17c11",
         "5dbfd951f1814d39f3aa2fa4ff8eb36c8c07cde64e402a5102f8dbc82a638249",
         "a8b42d43034f44bbcf66bacc664b32aca8715ca9fadc8f5bd3edb33c5f1a177d"),
        ("cylindrical", 9, None, "3b53969170c18a050382772094ef3dbbf8e3d3c7c108e9fea939b1782219163a",
         "f9f4b279f52cda2338aac3e7864ddc19d3c83a07acadee273fcdc5b7bb952f5a",
         "aa620a70c25d77d9dc37af0a0b0da7cd3323ccc99def6e2c7f56f7da6a370ce0"),
        ("cylindrical", 10, None, "1a28fba9ae4c1ecc7de9e19b5cd11b0610bc8f1144d58b5c07ee0462aef45d4b",
         "aa40f5f8b62bd34510fca0767abaa953c5ec38a7c939830e950a026ba4526dfb",
         "951cad47ea27ac8763715cf039ef2998b06189cd435f7f536f0d9d9c5ad0868e"),
        ("rectilinear", 6, 1, "abf58e308d6be50909a779aca244b2c6811e080b67f93660fc31c2f0389c273a",
         "3ee3cd154405df9f9ab197966a424ab857621278a21ed7bc85f8329506e14af5",
         "c07aa3e6f2ab30048974730ffa46459aab3415edcc7b65f5dd0bc45407f59485"),
        ("rectilinear", 6, 2, "2de17e15066fbc7f988b911808a8f879776badb2f2be8395de0d4d59087b524e",
         "ae8f2a12832b45a4e970fb22b8b89f23ec35d1e81ed4f8f41109c1b931538b6f",
         "67421d06f8443d6b3b29d86a7ef138a8afc79e9b3d1304ec255b2c0abb0a4149"),
        ("rectilinear", 7, 1, "585a4325c1e0d8e20d45df691ed85be5c101939ed7dd96739d24ea53c4c4c7cf",
         "9eb7cf1b9117f82afd36f5c4c6c268d93807cf344a1f3ac7f5de5bdfc5a5bcff",
         "8a114193a3fe0b46e866b9ccf40fcb23fd273f2b5fd3f8ab0d1fef3ebe5911e1"),
        ("rectilinear", 7, 2, "9be1636d0a81951eae4c0fbce3fdfb9902911ec2325b36b040313157d88303d3",
         "bd243cbce42746292c08c8a2ea826461465881ec7f918ef1afd65d520a23d651",
         "87c37cd20ba9ca676cef0099ff90d34630557bc37ab6cdb570ace74192a04659"),
        ("rectilinear", 8, 1, "c7bf60457ce01aa750266715bc734ef36463d56e8546f85839eb2a56ad3acd07",
         "31b2e4c577cb81ac5e22657a891ebfb92bf1611235da644e94b484a8e199610b",
         "9e0c74cb499cc5b724a30b669c67c566e650f1687e8b724e79659e1e3686b719"),
        ("rectilinear", 8, 2, "4e527ae4caacc2b940c78a8389f56fd76e5351ce29d432a256f8764b60147f56",
         "ada747a3d33b034950a864996eccac6524cf098c74976a6cda03558f67b4cdc8",
         "1f9ce277f5ce7b25c9dd9f388d8cf7bca2f3b3eaf0d9ad7a5d7d1dece0eea411"),
    ]

    @pytest.mark.parametrize("family,n,seed,per_face,seq,bishell", BISHELL_PINS)
    def test_bishell_and_whole_drawing_answers_pinned(self, family, n, seed, per_face, seq,
                                                      bishell):
        d = family_drawing(family, n, seed)
        faces = list(trace_faces(d).face_ids())
        found = [decide_bishellable(d, s, face_filter=f) for f in faces for s in range(n - 1)]
        assert hashlib.sha256(repr(found).encode()).hexdigest() == per_face
        found = [decide_seq_shellable(d, k) for k in range(n - 1)]
        assert hashlib.sha256(repr(found).encode()).hexdigest() == seq
        found = [decide_bishellable(d, s) for s in range(n - 1)]
        assert hashlib.sha256(repr(found).encode()).hexdigest() == bishell

    ORACLE_CORPUS = ([("rectilinear", n, seed) for n in (5, 6, 7) for seed in (1, 2, 3)]
                     + [(family, n, None) for family in ("convex", "cylindrical")
                        for n in (6, 7)])

    @pytest.mark.parametrize("family,n,seed", ORACLE_CORPUS)
    def test_simple_sequences_are_the_smallest_permutations(self, family, n, seed):
        d = family_drawing(family, n, seed)
        for f in trace_faces(d).face_ids():
            for v in sorted(vertices_on_face(d, f)):
                for length in range(1, n):
                    # None exactly when no permutation is a simple sequence
                    got = find_simple_sequence(d, f, v, length)
                    want = smallest_simple_sequence(d, f, (), v, length, ())
                    assert (got and got.vertices) == want, (f, v, length)

    @pytest.mark.parametrize("family,n,seed", ORACLE_CORPUS)
    def test_seq_decides_agree_with_the_naive_oracle_on_every_face(self, family, n, seed):
        d = family_drawing(family, n, seed)
        for f in trace_faces(d).face_ids():
            for k in range(min(3, n - 1)):
                assert ((decide_seq_shellable(d, k, face_filter=f) is not None)
                        == naive_seq_shellable(d, k, face=f)), (f, k)

    # on rectilinear K8 seed 3 the first certificate's face follows a
    # failed face with another row of as many vertices, at every level >= 1
    LEMMA_CORPUS = ([(family, n, seed, tuple(range(n - 1)))
                     for family, n, seed in ORACLE_CORPUS + [("rectilinear", 8, 3)]]
                    + [("cylindrical", 10, None, (4,)), ("cylindrical", 12, None, (5,))])

    @pytest.mark.parametrize("family,n,seed,levels", LEMMA_CORPUS)
    def test_faces_with_equal_rows_get_equal_certificates(self, family, n, seed, levels):
        # the face lemma, checked through the face-filtered route, which
        # searches its one face and so never skips one
        d = family_drawing(family, n, seed)
        table = face_vertex_table(d)
        faces = list(trace_faces(d).face_ids())
        for decide in (decide_seq_shellable, decide_bishellable):
            for level in levels:
                found = {f: decide(d, level, face_filter=f) for f in faces}
                by_row = {}
                for f, cert in found.items():
                    where = (decide.__name__, level, f)
                    if len(table[f]) < 2:
                        assert cert is None, where
                    unplaced = cert and replace(cert, face=None)
                    assert by_row.setdefault(tuple(table[f]), unplaced) == unplaced, where
                first = next((cert for cert in found.values() if cert is not None), None)
                assert decide(d, level) == first, (decide.__name__, level)

    # machine-independent effort of a negative decide that searches each
    # face vertex row once, floods lazily and tries b_0 only above a_0;
    # searching every face with eager floods took 578 and 912 calls
    @pytest.mark.parametrize("n,searches,advances", [(12, 121, 60), (14, 155, 84)])
    def test_bishell_negative_effort_pinned(self, monkeypatch, n, searches, advances):
        calls = {"search": 0, "advance": 0}
        search, advance = shellability._bishell_search, shellability._Regions.advance

        def counted_search(*args):
            calls["search"] += 1
            return search(*args)

        def counted_advance(self, state, u):
            calls["advance"] += 1
            return advance(self, state, u)

        monkeypatch.setattr(shellability, "_bishell_search", counted_search)
        monkeypatch.setattr(shellability._Regions, "advance", counted_advance)
        assert decide_bishellable(cylindrical(n), n // 2 - 1) is None
        assert calls == {"search": searches, "advance": advances}

    def test_advances_per_face_are_bounded(self, monkeypatch):
        # at most n candidates per level, each with a simple sequence of
        # at most k + 1 vertices, so no face costs more than n (k + 1)^2
        # region steps, the self-check of a certificate included
        calls = []
        advance = shellability._Regions.advance

        def counted(self, state, u):
            calls.append(u)
            return advance(self, state, u)

        monkeypatch.setattr(shellability._Regions, "advance", counted)
        for d in (convex(10), cylindrical(11), rectilinear(9, 1), rectilinear(9, 2)):
            for f in trace_faces(d).face_ids():
                for k in range(d.n - 1):
                    calls.clear()
                    decide_seq_shellable(d, k, face_filter=f)
                    assert len(calls) <= d.n * (k + 1) ** 2, (d.n, f, k, len(calls))


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


class TestSelfCheck:
    """A decider verifies the certificate it emits: one that fails is an
    internal error (exit 2), never an answer (exit 0) or a "none" (exit 1)."""

    FAULTY = {
        "seq": ("_seq_search", ((0,), ((0,),)), "S_0 contains its owner 0"),
        "bishell": ("_bishell_search", ((0,), (0,)),
                    "disjointness fails: a_0 = b_0 = 0 with i + j <= s"),
    }

    @pytest.mark.parametrize("mode", ["seq", "bishell"])
    def test_a_search_that_emits_a_failing_certificate(self, monkeypatch, tmp_path,
                                                       capsys, mode):
        name, found, violation = self.FAULTY[mode]
        monkeypatch.setattr(shellability, name, lambda *args: found)
        decide = decide_seq_shellable if mode == "seq" else decide_bishellable
        with pytest.raises(ShellcertError) as info:
            decide(convex(6), 0)
        assert str(info.value).startswith("internal error: emitted certificate failed: ")
        assert violation in str(info.value)

        drawing = tmp_path / "k6.json"
        drawing.write_text(json.dumps(convex_document(6)))
        out = tmp_path / "cert.json"
        assert main(["decide", "--input", str(drawing), "--mode", mode, "--k", "0",
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: internal error: emitted certificate failed: ")
        assert violation in err and err.count("\n") == 1
        assert not out.exists()


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

    def test_a_field_that_holds_no_sequence_is_named(self):
        with pytest.raises(CertificateMismatchError, match="^certificate field a_sequence "
                                                           "must be a tuple or list, got 5$"):
            bishell_to_seq(BishellCertificate(0, 5, 6))

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
