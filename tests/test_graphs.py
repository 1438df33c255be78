import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from oracles import oracle_automorphisms
from forcing_lab import BACKEND_NAME
from forcing_lab.errors import GraphError
from forcing_lab.families import instantiate_family, parse_family_spec
from forcing_lab.graphs import (
    Graph,
    are_isomorphic,
    automorphism_generators,
    bipartition_of,
    build_graph,
    canonical_graph6,
    cartesian_product,
    cyclomatic_number,
    disjoint_union,
    generate,
    graph6_decode,
    graph6_encode,
    graph_classes,
    is_connected,
    join,
)


def edges_strategy(order: int):
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    if not pairs:
        return st.just([])
    return st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))


small_graphs = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n), edges_strategy(n))
)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.edge_count == 1
        assert g.edges == ((0, 1),)

    def test_four_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.edge_count == 4
        assert set(g.degrees) == {2}

    def test_k33(self):
        g = generate("complete_bipartite", 3, 3)
        assert g.edge_count == 9
        assert g.min_degree == g.max_degree == 3

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_errors(self):
        with pytest.raises(GraphError):
            build_graph(0, [])
        with pytest.raises(GraphError):
            build_graph(33, [])
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            build_graph(3, [(1, 1)])

    def test_edge_index_lexicographic(self):
        g = build_graph(4, [(2, 3), (0, 2), (0, 1)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.edge_index(3, 2) == 2


class TestJoin:
    def test_k2_join_k2_is_k4(self):
        k2 = build_graph(2, [(0, 1)])
        assert join(k2, k2).edge_count == 6

    def test_2k2_join_k2_edge_count(self):
        two_k2 = build_graph(4, [(0, 1), (2, 3)])
        k2 = build_graph(2, [(0, 1)])
        assert join(two_k2, k2).edge_count == 2 + 1 + 8

    @given(small_graphs, small_graphs)
    @settings(max_examples=60, deadline=None)
    def test_edge_count_law(self, gh, hh):
        (n, ge), (m, he) = gh, hh
        if n + m > 32:
            return
        g, h = build_graph(n, ge), build_graph(m, he)
        assert join(g, h).edge_count == g.edge_count + h.edge_count + n * m


class TestCartesianProduct:
    def test_p2_p2_is_c4(self):
        p2 = generate("path", 2)
        g = cartesian_product(p2, p2)
        assert g.order == 4 and g.edge_count == 4 and set(g.degrees) == {2}

    def test_grid_4x4(self):
        p4 = generate("path", 4)
        g = cartesian_product(p4, p4)
        assert g.order == 16 and g.edge_count == 24

    def test_torus_4x4(self):
        c4 = generate("cycle", 4)
        g = cartesian_product(c4, c4)
        assert g.order == 16 and g.edge_count == 32
        assert set(g.degrees) == {4}

    @given(small_graphs, small_graphs)
    @settings(max_examples=60, deadline=None)
    def test_degree_law(self, gh, hh):
        (n, ge), (m, he) = gh, hh
        if n * m > 32 or n * m == 0:
            return
        g, h = build_graph(n, ge), build_graph(m, he)
        prod = cartesian_product(g, h)
        for a in range(n):
            for x in range(m):
                assert prod.degree(a * m + x) == g.degree(a) + h.degree(x)


class TestGenerate:
    def test_cycle_six(self):
        g = generate("cycle", 6)
        assert bipartition_of(g) is not None

    def test_cycle_too_short(self):
        with pytest.raises(GraphError):
            generate("cycle", 2)

    def test_hypercube(self):
        q3 = generate("hypercube", 3)
        assert q3.order == 8 and q3.edge_count == 12

    def test_empty(self):
        g = generate("empty", 5)
        assert g.edge_count == 0 and g.order == 5


class TestBipartition:
    def test_c6_balanced(self):
        bip = bipartition_of(generate("cycle", 6))
        assert bip is not None and bip.balanced
        assert len(bip.side_u) == 3

    def test_c5_none(self):
        assert bipartition_of(generate("cycle", 5)) is None

    def test_every_edge_crosses_exhaustive(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
                bip = bipartition_of(g)
                if bip is None:
                    continue
                for u, v in g.edges:
                    assert ((u in bip.side_u) and (v in bip.side_v)) or (
                        (v in bip.side_u) and (u in bip.side_v)
                    )

    def test_isolated_vertices_go_left(self):
        g = build_graph(3, [(1, 2)])
        bip = bipartition_of(g)
        assert 0 in bip.side_u


class TestCyclomatic:
    def test_values(self):
        assert cyclomatic_number(generate("cycle", 4)) == 1
        assert cyclomatic_number(generate("complete", 4)) == 3
        assert cyclomatic_number(generate("complete_bipartite", 3, 3)) == 4

    def test_disconnected_errors(self):
        with pytest.raises(GraphError):
            cyclomatic_number(build_graph(4, [(0, 1), (2, 3)]))


class TestComponents:
    def test_counts(self):
        from forcing_lab._kernels_py import _components

        g = disjoint_union(generate("cycle", 3), generate("path", 2))
        assert _components(g.adj, g.full_mask) == [0b00111, 0b11000]
        assert not is_connected(g)
        assert is_connected(generate("path", 5))


class TestGraph6:
    def test_k2_roundtrip(self):
        assert graph6_decode("A_").edges == ((0, 1),)
        assert graph6_encode(build_graph(2, [(0, 1)])) == "A_"

    def test_header_tolerated(self):
        assert graph6_decode(">>graph6<<A_").edges == ((0, 1),)

    def test_c4_roundtrip(self):
        c4 = generate("cycle", 4)
        assert graph6_decode(graph6_encode(c4)) == c4

    def test_exhaustive_roundtrip_small_orders(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
                assert graph6_decode(graph6_encode(g)) == g

    @given(small_graphs)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random(self, gh):
        n, edges = gh
        g = build_graph(n, edges)
        assert graph6_decode(graph6_encode(g)) == g

    def test_malformed(self):
        with pytest.raises(GraphError):
            graph6_decode("")
        with pytest.raises(GraphError):
            graph6_decode("D")  # truncated body
        with pytest.raises(GraphError):
            graph6_decode(chr(63 + 40) + "A" * 200)  # order beyond the cap

    def test_nonzero_padding(self):
        # K2 has one edge bit and five padding bits, K3 three and three
        assert graph6_decode("Bw") == generate("complete", 3)
        for text in ("A`", "Ao", "Bx", "B{"):
            with pytest.raises(GraphError, match="^nonzero padding bits"):
                graph6_decode(text)

    def test_byte_outside_range(self):
        # body bytes run from ? (63, no bit set) to ~ (126, all six)
        for text, byte in (("A>", ">"), ("A\x7f", "\x7f"), ("Bé", "é"), ("D ~", " ")):
            with pytest.raises(GraphError, match=f"^invalid graph6 byte {re.escape(repr(byte))}$"):
                graph6_decode(text)

    def test_decode_matches_build_graph(self, rng):
        for n in range(1, 33):
            g = random_graph(n, 0.5, rng)
            decoded = graph6_decode(graph6_encode(g))
            assert (decoded.order, decoded.adj, decoded.edges) == (n, g.adj, g.edges)


def relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])


class TestCanonicalLabelling:
    def test_class_counts_match_oeis_a000088(self):
        for n, classes in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
            pairs = list(itertools.combinations(range(n), 2))
            forms = {
                canonical_graph6(
                    build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                )
                for mask in range(1 << len(pairs))
            }
            assert len(forms) == classes

    def test_invariant_under_relabeling(self, rng):
        for order in (6, 7):
            for _ in range(25):
                g = random_graph(order, 0.5, rng)
                assert canonical_graph6(g) == canonical_graph6(relabelled(g, rng))

    @pytest.mark.parametrize("spec", ["Knn:16", "HhatJoin:16,8", "cycle:32", "K32"])
    def test_invariant_on_symmetric_order_32(self, spec, rng):
        if spec == "K32":
            g = generate("complete", 32)
        else:
            g = instantiate_family(parse_family_spec(spec))
        h = relabelled(g, rng)
        assert canonical_graph6(g) == canonical_graph6(h)
        assert are_isomorphic(g, h)

    def test_relabelled_pairs(self, rng):
        for _ in range(30):
            g = random_graph(7, 0.5, rng)
            assert are_isomorphic(g, relabelled(g, rng))


class TestGraphClasses:
    def test_class_counts_match_oeis(self):
        # graphs (A000088) and bipartite graphs (A033995) on 1-7 vertices
        counts = [len(classes) for _, classes in graph_classes(7)]
        assert counts == [1, 2, 4, 11, 34, 156, 1044]
        counts = [len(classes) for _, classes in graph_classes(7, bipartite=True)]
        assert counts == [1, 2, 3, 7, 13, 35, 88]

    @pytest.mark.skipif(BACKEND_NAME != "compiled", reason="needs the compiled kernels")
    def test_class_counts_match_oeis_past_order_7(self):
        # graphs on 8 vertices (A000088), bipartite graphs on 10 (A033995)
        *_, (order, classes) = graph_classes(8)
        assert (order, len(classes)) == (8, 12_346)
        *_, (order, classes) = graph_classes(10, bipartite=True)
        assert (order, len(classes)) == (10, 5_479)

    @pytest.mark.parametrize("bipartite", [False, True])
    def test_one_canonical_member_per_labelled_class(self, bipartite):
        for n, classes in graph_classes(5, bipartite):
            pairs = list(itertools.combinations(range(n), 2))
            graphs = (
                build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                for mask in range(1 << len(pairs))
            )
            forms = {
                canonical_graph6(g)
                for g in graphs
                if not bipartite or bipartition_of(g) is not None
            }
            members = [graph6_encode(Graph(n, rows)) for rows in classes]
            assert classes == sorted(classes)
            assert sorted(members) == sorted(forms)

    def test_generated_lazily(self):
        classes = graph_classes(30)  # order 30 would never finish
        assert [len(level) for _, level in itertools.islice(classes, 4)] == [1, 2, 4, 11]


def generated_group(order, generators):
    """Closure of the generators under composition."""
    identity = tuple(range(order))
    group, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gamma in generators:
                q = tuple(gamma[p[v]] for v in range(order))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


class TestAutomorphismGenerators:
    @pytest.mark.parametrize(
        "spec", ["Knn:5", "Q:4", "torus:4x4", "MJoin:6,2", "HhatJoin:6,2", "H:7,2", "cycle:12"]
    )
    def test_generators_are_automorphisms(self, spec, rng):
        for g in (instantiate_family(parse_family_spec(spec)), random_graph(12, 0.4, rng)):
            edges = set(g.edges)
            for gamma in automorphism_generators(g):
                assert sorted(gamma) == list(range(g.order))
                assert {tuple(sorted((gamma[u], gamma[v]))) for u, v in g.edges} == edges

    def test_generate_the_whole_group_order6(self, rng):
        for _ in range(150):
            g = random_graph(6, rng.choice((0.2, 0.5, 0.8)), rng)
            group = generated_group(6, automorphism_generators(g))
            assert group == set(oracle_automorphisms(g))

    def test_generate_the_whole_group_symmetric(self):
        for g, size in (
            (generate("complete", 6), 720),
            (generate("complete_bipartite", 3, 3), 72),
            (generate("cycle", 8), 16),
            (generate("hypercube", 3), 48),
            (build_graph(6, [(0, 1), (2, 3), (4, 5)]), 48),
        ):
            assert len(generated_group(g.order, automorphism_generators(g))) == size
