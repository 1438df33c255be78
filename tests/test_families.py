import pytest

from oracles import (
    oracle_is_cograph,
    oracle_is_f0_free,
    oracle_is_g2_member,
    oracle_is_split,
    oracle_predicts_f_n1,
)
from conftest import random_graph
from forcing_lab._kernels_py import _f0_free_parts
from forcing_lab.errors import FamilyError
from forcing_lab.families import (
    classify,
    enumerate_G1_deletions,
    family_instances,
    format_family_spec,
    instantiate_family,
    is_cograph,
    is_split,
    make_G1_member,
    make_G2_member,
    make_G4,
    make_G5,
    make_H,
    make_H_hat,
    make_H_hat_join,
    make_matching_join,
    parse_family_spec,
    recognize_f_n1,
)
from forcing_lab.graphs import bipartition_of, build_graph, generate, graph6_encode
from forcing_lab.matchings import has_unique_perfect_matching, is_elementary
from forcing_lab.solver import spectrum


class TestMakeH:
    def test_edge_counts(self):
        assert make_H(6, 2).edge_count == 30
        assert make_H(5, 0).edge_count == 15
        for n in range(1, 7):
            for k in range(n):
                assert make_H(n, k).edge_count == (n - k) * (n + k + 1) // 2 + n * k

    def test_h_n_nminus1_is_knn(self):
        for n in range(1, 6):
            assert make_H(n, n - 1) == generate("complete_bipartite", n, n)

    def test_degrees(self):
        g = make_H(6, 2)
        for l in range(1, 5):  # d(u_l) = k+l, d(v_l) = n-l+1 for l <= n-k
            assert g.degree(l - 1) == 2 + l
            assert g.degree(6 + l - 1) == 6 - l + 1

    def test_h50_unique_pm(self):
        g = make_H(5, 0)
        assert has_unique_perfect_matching(g)

    def test_bipartition_sides(self):
        bip = bipartition_of(make_H(6, 2))
        assert bip.side_u == tuple(range(6))
        assert bip.side_v == tuple(range(6, 12))

    def test_param_errors(self):
        with pytest.raises(FamilyError):
            make_H(5, 5)
        with pytest.raises(FamilyError):
            make_H(17, 0)


class TestMakeHhat:
    def test_edge_count_n_squared(self):
        for n in range(1, 7):
            assert make_H_hat(n).edge_count == n * n

    def test_hhat1_is_k2(self):
        assert make_H_hat(1) == build_graph(2, [(0, 1)])

    def test_split_and_unique(self):
        g = make_H_hat(3)
        assert is_split(g)
        assert has_unique_perfect_matching(g)
        assert spectrum(g).f_min == 0


class TestJoins:
    def test_hhat_join_edge_count(self):
        for n in range(1, 7):
            for k in range(n):
                g = make_H_hat_join(n, k)
                assert g.order == 2 * n
                assert g.edge_count == n * n + 2 * n * k - k * k - k

    def test_hhat_join_41(self):
        g = make_H_hat_join(4, 1)
        assert g.edge_count == 22
        assert spectrum(g).f_min == 1

    def test_hhat_join_32(self):
        g = make_H_hat_join(3, 2)
        assert g.edge_count == 15
        assert spectrum(g).f_min == 2

    def test_degenerate_k0(self):
        assert make_H_hat_join(4, 0) == make_H_hat(4)
        assert make_matching_join(4, 0).edge_count == 4

    def test_matching_join(self):
        g = make_matching_join(3, 1)
        assert g.min_degree == 3
        assert spectrum(g).f_min == 1
        assert is_cograph(g)
        g = make_matching_join(4, 2)
        assert spectrum(g).f_min == 2


class TestG4G5:
    def test_g4_values(self):
        assert spectrum(make_G4(5, 0)).f_min == 1
        assert spectrum(make_G4(4, 1)).f_min == 2

    def test_g5_paper_instances(self):
        g = make_G5(6, 2, 2)
        assert spectrum(g).f_min == 4
        g = make_G5(5, 1, 1)
        assert g.min_degree == 4  # k+3 when i=1
        assert spectrum(g).f_min == 3

    def test_g5_param_errors(self):
        with pytest.raises(FamilyError):
            make_G5(4, 2, 1)  # n-k < 3
        with pytest.raises(FamilyError):
            make_G5(6, 2, 3)  # i > n-k-2


class TestG1:
    def test_small_members(self):
        g = make_G1_member(3, [(1, 1), (1, 2)])
        assert spectrum(g).f_min == 1
        g = make_G1_member(3, [(2, 1)])
        assert spectrum(g).f_min == 1
        g = make_G1_member(2, [(1, 1)])
        assert spectrum(g).f_min == 0

    def test_errors(self):
        with pytest.raises(FamilyError):
            make_G1_member(3, [])
        with pytest.raises(FamilyError):
            make_G1_member(3, [(2, 2)])  # order 4 > n
        with pytest.raises(FamilyError):
            make_G1_member(3, [(2, 1), (2, 1)])  # U side overflow

    def test_enumerate_deletions(self):
        dels = list(enumerate_G1_deletions(3))
        assert ((1, 1),) in dels
        assert ((1, 1), (1, 1), (1, 1)) in dels
        assert ((1, 2), (2, 1)) in dels
        assert len(dels) == len(set(dels))

    def test_elementary_iff_deletions_below_n(self):
        # proposition check over generated members, sides <= 5
        for n in range(2, 6):
            for dels in enumerate_G1_deletions(n):
                g = make_G1_member(n, dels)
                assert is_elementary(g) == all(a + b < n for a, b in dels)


class TestG2:
    def test_disjoint_union_member(self):
        g = make_G2_member((2, 1))
        assert spectrum(g).f_min == 1

    def test_with_forbidden_cross_edge(self):
        g = make_G2_member((2, 1), [(0, 5)])
        assert spectrum(g).f_min == 1

    def test_smallest(self):
        g = make_G2_member((1, 1), [(0, 3)])
        assert spectrum(g).f_min == 0

    def test_allowed_cross_edge_rejected(self):
        # opposite-direction cross edges make both allowed
        with pytest.raises(FamilyError):
            make_G2_member((1, 1), [(0, 3), (1, 2)])

    def test_misdirected_cross_edge_rejected(self):
        with pytest.raises(FamilyError):
            make_G2_member((2, 1), [(0, 1)])


class TestRecognizers:
    def test_split_against_oracle(self, rng):
        hits = set()
        for _ in range(120):
            g = random_graph(6, rng.random(), rng)
            got = is_split(g)
            hits.add(got)
            assert got == oracle_is_split(g)
        assert hits == {True, False}

    def test_cograph_against_oracle(self, rng):
        # the recursion descends through induced masks of the graph and of
        # its complement rows, so deeper orders reach deeper recursions
        for order in range(4, 10):
            hits = set()
            for _ in range(120):
                g = random_graph(order, rng.random(), rng)
                got = is_cograph(g)
                hits.add(got)
                assert got == oracle_is_cograph(g)
            assert hits == {True, False}, order

    def test_class_flags_against_oracles(self):
        # every labelled graph of orders 1-5, every fourth of order 6 (the
        # kernel parity test takes all of them) and every side-major
        # bipartite graph of side <= 3: each flag of the one kernel call, and
        # the 2-colouring behind G1/G2, against brute force
        from forcing_lab.sweep import bipartite_graph_from_mask

        def universe():
            for order in range(1, 7):
                pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
                for bits in range(0, 1 << len(pairs), 4 if order == 6 else 1):
                    yield build_graph(order, [p for i, p in enumerate(pairs) if bits >> i & 1])
            for side in (1, 2, 3):
                for mask in range(1 << (side * side)):
                    yield bipartite_graph_from_mask(side, mask)

        hits = {}
        for g in universe():
            report, bip = classify(g), bipartition_of(g)
            full, n = g.full_mask, g.order // 2
            # crossing[s]: the edges with one end in the vertex set s
            crossing = [
                sum((row & ~s).bit_count() for u, row in enumerate(g.adj) if s >> u & 1)
                for s in range(full + 1)
            ]
            # connected: every cut that keeps vertex 0 on one side is crossed
            assert report.connected == all(crossing[s] for s in range(1, full, 2))
            # bipartite: some 2-colouring has every edge crossing; the
            # canonical one wins at the smallest vertex where it differs
            # from any other (each component's smallest vertex is on side u)
            colourings = [s for s, cut in enumerate(crossing) if cut == g.edge_count]
            assert report.bipartite == bool(colourings) == (bip is not None)
            if bip is not None:
                assert bip.u_mask in colourings and bip.u_mask | bip.v_mask == full
                assert all(d & -d & bip.u_mask for d in (bip.u_mask ^ s for s in colourings) if d)
                assert bip.balanced == (2 * len(bip.side_u) == g.order)
            assert report.is_split == oracle_is_split(g)
            assert report.is_cograph == oracle_is_cograph(g)
            assert report.predicts_f_n1 == oracle_predicts_f_n1(g)
            assert report.g2_member == oracle_is_g2_member(g)
            # G1: K_{n,n} less blocks of missing cross pairs, each a complete
            # bipartite graph on at most n vertices; pairs sharing a vertex
            # share a block
            g1 = False
            if bip is not None and bip.balanced:
                missing = [(u, v) for u in bip.side_u for v in bip.side_v if not g.has_edge(u, v)]
                blocks = []
                for pair in missing:
                    joined = [b for b in blocks if b & set(pair)]
                    blocks = [b for b in blocks if not b & set(pair)]
                    blocks.append(set(pair).union(*joined))
                g1 = (
                    bool(missing)
                    and oracle_is_f0_free(g, bip.side_u, bip.side_v)
                    and all(len(b) <= n for b in blocks)
                )
            assert report.g1_member == g1
            for name, value in vars(report).items():
                hits.setdefault(name, set()).add(value)
        assert all(seen == {True, False} for seen in hits.values()), hits

    def test_hhat_split_example(self):
        assert classify(make_H_hat(5)).is_split

    def test_f0_itself_not_f0_free(self):
        g = build_graph(4, [(0, 2)])  # sides {0,1} and {2,3}, one edge
        assert _f0_free_parts(g.adj, 0b0011, 0b1100) is None

    def test_f0_free_matches_naive_scan(self):
        # Lemma 4.1 equivalence, exhaustive over sides <= 4 with fixed sides
        from forcing_lab.sweep import bipartite_graph_from_mask

        for side in (2, 3, 4):
            side_u, side_v = tuple(range(side)), tuple(range(side, 2 * side))
            u_mask = (1 << side) - 1
            for mask in range(1 << (side * side)):
                g = bipartite_graph_from_mask(side, mask)
                ours = _f0_free_parts(g.adj, u_mask, u_mask << side) is not None
                naive = oracle_is_f0_free(g, side_u, side_v)
                assert ours == naive

    def test_g1_classification(self):
        g = make_G1_member(3, [(1, 1), (1, 2)])
        assert classify(g).g1_member
        bip = bipartition_of(g)
        parts = _f0_free_parts(g.adj, bip.u_mask, bip.v_mask)
        sizes = [((p & bip.u_mask).bit_count(), (p & bip.v_mask).bit_count()) for p in parts]
        assert sizes == [(1, 1), (1, 2)]

    def test_g2_classification(self):
        g = make_G2_member((2, 1), [(0, 5)])
        assert classify(g).g2_member

    def test_recognize_f_n1_examples(self):
        assert recognize_f_n1(generate("complete", 4))
        k22_diag = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)])
        assert recognize_f_n1(k22_diag)
        assert not recognize_f_n1(generate("cycle", 6))

    def test_recognize_f_n1_one_side_only(self):
        # an extra edge inside each side is not in the family (f drops below n-1)
        edges = [(u, 3 + v) for u in range(3) for v in range(3)] + [(1, 2), (4, 5)]
        g = build_graph(6, edges)
        assert not recognize_f_n1(g)
        assert spectrum(g).f_min == 1


class TestFamilySpecs:
    @pytest.mark.parametrize(
        "text",
        [
            "H:6,2",
            "Hhat:5",
            "HhatJoin:4,1",
            "MJoin:3,1",
            "G4:5,0",
            "G5:6,2,2",
            "G1:3;1x1,1x2",
            "G2:2,1;0-5",
            "grid:4x4",
            "torus:4x4",
            "pc:2x4",
            "Q:3",
            "Knn:3",
            "nK2:4",
            "cycle:6",
            "K:2,3",
            "path:5",
            "complete:5",
        ],
    )
    def test_roundtrip(self, text):
        spec = parse_family_spec(text)
        assert format_family_spec(spec) == text
        g = instantiate_family(spec)
        assert g.order >= 2

    def test_parse_errors(self):
        for bad in (
            "H",
            "H:1,2,3",
            "grid:4",
            "G1:3;2y2",
            "unknown:1",
            "G1:x",
            "G2:a,b",
            "G2:1,2;0-x",
            "G1:3;",
            "G2:2,1;",
        ):
            with pytest.raises(FamilyError):
                parse_family_spec(bad)

    def test_g1_expansion(self):
        labels = [label for label, _ in family_instances(parse_family_spec("G1:3"))]
        assert "G1:3;1x1" in labels
        assert len(labels) == len(set(labels))

    def test_named_instances_decode(self):
        spec = parse_family_spec("grid:4x4")
        (label, g), = family_instances(spec)
        assert label == "grid:4x4"
        assert g.order == 16
        assert graph6_encode(g)
