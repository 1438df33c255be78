import itertools

import pytest

from oracles import (
    oracle_alternating_cycles,
    oracle_perfect_matchings,
)
from forcing_lab.errors import MatchingError
from forcing_lab.families import make_G1_member, make_G2_member, make_H_hat
from forcing_lab.graphs import build_graph, generate
from forcing_lab.matchings import (
    allowed_edges,
    alternating_cycles,
    enumerate_perfect_matchings,
    forbidden_edges,
    has_perfect_matching,
    has_unique_perfect_matching,
    is_elementary,
    matching_from_edges,
)


def all_small_graphs(order):
    pairs = list(itertools.combinations(range(order), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(order, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


class TestEnumerate:
    def test_c6_has_two(self):
        pms = enumerate_perfect_matchings(generate("cycle", 6))
        assert len(pms) == 2
        assert pms[0].edges == ((0, 1), (2, 3), (4, 5))
        assert pms[1].edges == ((0, 5), (1, 2), (3, 4))

    def test_k33_has_six(self):
        assert len(enumerate_perfect_matchings(generate("complete_bipartite", 3, 3))) == 6

    def test_h50_unique(self):
        from forcing_lab.families import make_H

        g = make_H(5, 0)
        pms = enumerate_perfect_matchings(g)
        assert len(pms) == 1
        assert pms[0].edges == tuple((i, 5 + i) for i in range(5))

    def test_odd_order_empty(self):
        assert enumerate_perfect_matchings(generate("cycle", 5)) == []

    def test_limit_truncates(self):
        pms = enumerate_perfect_matchings(generate("complete_bipartite", 3, 3), limit=2)
        assert len(pms) == 2

    def test_matches_oracle_exhaustively_order4(self):
        for g in all_small_graphs(4):
            assert [m.edges for m in enumerate_perfect_matchings(g)] == oracle_perfect_matchings(g)

    def test_matches_oracle_random6(self, rng):
        from conftest import random_graph

        for _ in range(50):
            g = random_graph(6, 0.5, rng)
            assert sorted(m.edges for m in enumerate_perfect_matchings(g)) == oracle_perfect_matchings(g)


class TestUniqueness:
    def test_examples(self):
        assert has_unique_perfect_matching(make_H_hat(5))
        assert not has_unique_perfect_matching(generate("cycle", 4))
        assert has_unique_perfect_matching(build_graph(2, [(0, 1)]))

    def test_uniqueness_iff_no_alternating_cycle(self):
        for g in all_small_graphs(6):
            pms = enumerate_perfect_matchings(g, limit=2)
            if not pms:
                continue
            unique = has_unique_perfect_matching(g)
            cycles = alternating_cycles(g, pms[0])
            assert unique == (len(cycles) == 0)

    def test_uniqueness_consistency_order8_random(self, rng):
        from conftest import random_graph

        seen = 0
        while seen < 200:
            g = random_graph(8, 0.2 + 0.6 * rng.random(), rng)
            pms = enumerate_perfect_matchings(g, limit=2)
            if not pms:
                continue
            seen += 1
            unique = has_unique_perfect_matching(g)
            assert unique == (len(alternating_cycles(g, pms[0])) == 0)


class TestAlternatingCycles:
    def test_c4(self):
        g = generate("cycle", 4)
        m = enumerate_perfect_matchings(g)[0]
        cycles = alternating_cycles(g, m)
        assert len(cycles) == 1
        assert cycles[0].vertices == (0, 1, 2, 3)
        assert len(cycles[0].m_edges) == 2 and len(cycles[0].non_m_edges) == 2

    def test_unique_pm_gives_empty(self):
        g = make_H_hat(5)
        m = enumerate_perfect_matchings(g)[0]
        assert alternating_cycles(g, m) == []

    def test_k33_count_frozen_by_oracle(self):
        # oracle-derived: 3 alternating 4-cycles plus 2 alternating 6-cycles
        g = generate("complete_bipartite", 3, 3)
        m = enumerate_perfect_matchings(g)[0]
        cycles = alternating_cycles(g, m)
        assert sorted(len(c) for c in cycles) == [4, 4, 4, 6, 6]
        oracle = oracle_alternating_cycles(g, m.edges)
        assert len(oracle) == 5
        assert {frozenset(c.m_edges + c.non_m_edges) for c in cycles} == set(oracle)

    def test_matches_oracle_random(self, rng):
        from conftest import random_graph

        seen = 0
        while seen < 25:
            g = random_graph(6, 0.55, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            for m in pms[:3]:
                ours = {frozenset(c.m_edges + c.non_m_edges) for c in alternating_cycles(g, m)}
                assert ours == set(oracle_alternating_cycles(g, m.edges))

    def test_invariants_per_cycle(self, rng):
        from conftest import random_graph

        seen = 0
        while seen < 15:
            g = random_graph(8, 0.4, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            m = pms[0]
            cycles = alternating_cycles(g, m)
            assert len({c.vertices for c in cycles}) == len(cycles)
            for c in cycles:
                k = len(c.vertices)
                assert k % 2 == 0 and k >= 4
                assert len(c.m_edges) == len(c.non_m_edges) == k // 2
                for i in range(k):
                    assert g.has_edge(c.vertices[i], c.vertices[(i + 1) % k])
                # canonical form: smallest vertex first, smaller neighbour next
                assert c.vertices[0] == min(c.vertices)
                assert c.vertices[1] < c.vertices[-1]

    def test_rejects_non_perfect(self):
        g = generate("cycle", 6)
        with pytest.raises(MatchingError):
            alternating_cycles(g, matching_from_edges([(0, 1)]))


class TestAllowedEdges:
    def test_k22_all_allowed(self):
        g = generate("complete_bipartite", 2, 2)
        assert allowed_edges(g) == g.edges

    def test_p4_middle_forbidden(self):
        g = generate("path", 4)
        assert allowed_edges(g) == ((0, 1), (2, 3))
        assert forbidden_edges(g) == ((1, 2),)

    def test_g2_cross_edges_forbidden(self):
        g = make_G2_member((2, 1), [(0, 5)])
        assert (0, 5) in forbidden_edges(g)

    def test_union_of_pms_exhaustive(self):
        for g in all_small_graphs(5):
            union = set()
            for pm in oracle_perfect_matchings(g):
                union |= set(pm)
            assert set(allowed_edges(g)) == union


class TestElementary:
    def test_knn_elementary(self):
        assert is_elementary(generate("complete_bipartite", 3, 3))

    def test_p4_not(self):
        assert not is_elementary(generate("path", 4))

    def test_g1_small_deletions_elementary(self):
        g = make_G1_member(4, [(1, 1), (1, 2)])
        assert is_elementary(g)
