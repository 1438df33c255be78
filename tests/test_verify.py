import pytest

from forcing_lab.families import (
    make_G1_member,
    make_H,
    make_H_hat,
    make_H_hat_join,
    make_matching_join,
)
from forcing_lab.graphs import (
    are_isomorphic,
    build_graph,
    cartesian_product,
    disjoint_union,
    generate,
)
from forcing_lab.solver import SolverLimits, spectrum
from forcing_lab.verify import (
    _BY_ID,
    THEOREMS,
    verify_crossover_remark,
    verify_equality_case,
    verify_graph,
    verify_known_values,
    verify_pachter_kim,
)


def records_by_id(records):
    return {r.theorem_id: r for r in records}


class TestIsomorphism:
    def test_non_isomorphic_same_degrees(self):
        # C6 vs 2 triangles: both 2-regular on 6 vertices
        c6 = generate("cycle", 6)
        two_k3 = disjoint_union(generate("cycle", 3), generate("cycle", 3))
        assert not are_isomorphic(c6, two_k3)

    # members of each constructed extremal family named in THEOREMS, as a
    # function of n and k; THM_2_5 reads k from the minimum degree, and
    # H_{n,k} has minimum degree k+1
    MEMBERS = {
        "THM_1_4": lambda n, k: [make_H(n, 0)],
        "THM_1_5": lambda n, k: [make_H_hat(n)],
        "THM_2_1": lambda n, k: [make_H_hat_join(n, k)],
        "THM_2_3": lambda n, k: [make_H(n, k)],
        "COR_2_2": lambda n, k: [make_H_hat_join(n, k)],
        "COR_2_4": lambda n, k: [make_H(n, k)],
        "THM_2_5": lambda n, k: [make_H(n, k)],
        "THM_2_8": lambda n, k: [make_H_hat_join(n, k), make_matching_join(n, k)],
    }

    def _relabelled_members(self, rng):
        # every constructed-family extremal test of THEOREMS, at n = 4, 10
        # and 16 (orders 8, 20 and 32) and k in {0, 1, n/2, n-1}, with a
        # randomly relabelled member: yields (case, test, order, edges, member)
        constructed = {
            check.theorem_id
            for check in THEOREMS
            if getattr(check, "extremal", None) is not None
            and check.extremal.name.split(":")[0] in ("H", "Hhat", "HhatJoin", "MJoin")
        }
        assert constructed == set(self.MEMBERS)
        for n in (4, 10, 16):
            for k in sorted({0, 1, n // 2, n - 1}):
                for theorem_id, members in self.MEMBERS.items():
                    test = _BY_ID[theorem_id].extremal.test
                    for member in members(n, k):
                        order = member.order
                        perm = list(range(order))
                        rng.shuffle(perm)
                        edges = [(perm[u], perm[v]) for u, v in member.edges]
                        yield (theorem_id, n, k), test, order, edges, member

    def test_structural_recognizers_agree_with_iso(self, rng):
        for case, test, order, edges, member in self._relabelled_members(rng):
            relabelled = build_graph(order, edges)
            assert are_isomorphic(relabelled, member), case
            assert test(relabelled, case[1], case[2]), case

    def test_recognizers_reject_near_misses(self, rng):
        for case, test, order, edges, member in self._relabelled_members(rng):
            theorem_id, n, k = case
            if theorem_id == "THM_2_5" and k == n - 1:
                continue  # K_{n,n} minus an edge is H_{n,n-2}, a member
            edges.pop(rng.randrange(len(edges)))
            near_miss = build_graph(order, edges)
            assert not are_isomorphic(near_miss, member), case
            assert not test(near_miss, n, k), case


class TestEqualityCases:
    def test_unique_pm_maximal_bipartite_is_h(self):
        rec = verify_equality_case("THM_1_4", make_H(4, 0))
        assert rec.equality_case == "equality_matches_extremal"

    def test_unique_pm_maximal_is_hhat(self):
        rec = verify_equality_case("THM_1_5", make_H_hat(3))
        assert rec.equality_case == "equality_matches_extremal"

    def test_exhaustive_bipartite_side3_f1_e8(self):
        # every side-3 bipartite graph with a PM, f=1 and e=8 is H_{3,1}
        from forcing_lab.sweep import bipartite_graph_from_mask
        from forcing_lab.matchings import has_perfect_matching

        hits = 0
        for mask in range(1 << 9):
            g = bipartite_graph_from_mask(3, mask)
            if g.edge_count != 8 or not has_perfect_matching(g):
                continue
            if spectrum(g).f_min != 1:
                continue
            hits += 1
            assert are_isomorphic(g, make_H(3, 1))
        assert hits > 0

    def test_matching_join_above_order_12(self):
        # MJoin:7,2 (order 14) is a named extremal graph of THM_2_8
        rec = verify_equality_case("THM_2_8", make_matching_join(7, 2), 2)
        assert (rec.status, rec.equality_case) == ("pass", "equality_matches_extremal")

    def test_mismatch_reported(self):
        # C6 has a unique... no: C6 has f=1; force a mismatch artificially:
        # a graph with f=0 and fewer edges than the extremal bound is strict,
        # so check a true mismatch via THM_3_4 equality on the prism instead
        prism = cartesian_product(generate("path", 2), generate("cycle", 3))
        rec = verify_equality_case("THM_3_4", prism)
        assert rec.equality_case == "equality_mismatch"


class TestVerifyGraph:
    def test_k33_records(self):
        recs = records_by_id(verify_graph(generate("complete_bipartite", 3, 3)))
        assert recs["THM_3_4"].status == "pass"
        assert recs["THM_3_4"].equality_case == "equality_matches_extremal"
        assert recs["THM_2_3"].status == "pass"
        assert recs["THM_2_3"].equality_case == "equality_matches_extremal"
        assert recs["THM_4_2"].status == "pass"

    def test_h62_thm23_equality(self):
        recs = records_by_id(verify_graph(make_H(6, 2)))
        assert recs["THM_2_3"].status == "pass"
        assert recs["THM_2_3"].equality_case == "equality_matches_extremal"

    def test_two_c4_prop32_equality(self):
        g = disjoint_union(generate("cycle", 4), generate("cycle", 4))
        recs = records_by_id(verify_graph(g))
        assert recs["PROP_3_2"].status == "pass"
        assert recs["PROP_3_2"].equality_case == "equality_matches_extremal"
        assert recs["PROP_3_2"].observed == 2

    def test_no_pm_single_inapplicable(self):
        recs = verify_graph(generate("cycle", 5))
        assert len(recs) == 1
        assert recs[0].theorem_id == "NO_PERFECT_MATCHING"
        assert recs[0].status == "inapplicable"

    def test_prism_torus_like_values(self):
        # the prism attains THM_3_4 equality without being nK2 or K_{n,n}:
        # classified n/a, never equality_mismatch, and still passes
        prism = cartesian_product(generate("path", 2), generate("cycle", 3))
        recs = records_by_id(verify_graph(prism))
        assert recs["THM_3_4"].status == "pass"
        assert recs["THM_3_4"].equality_case == "n/a"

    def test_deterministic_records(self):
        g = make_H_hat_join(3, 1)
        a = [r.to_json_dict() for r in verify_graph(g)]
        b = [r.to_json_dict() for r in verify_graph(g)]
        assert a == b

    def test_unique_pm_equality_family(self):
        recs = records_by_id(verify_graph(make_H_hat(4)))
        assert recs["THM_1_5"].equality_case == "equality_matches_extremal"
        recs = records_by_id(verify_graph(make_H(4, 0)))
        assert recs["THM_1_4"].equality_case == "equality_matches_extremal"

    def test_hhat_join_thm21_equality(self):
        recs = records_by_id(verify_graph(make_H_hat_join(4, 1)))
        assert recs["THM_2_1"].equality_case == "equality_matches_extremal"
        assert recs["COR_2_2"].equality_case == "equality_matches_extremal"

    def test_matching_join_thm28_equality(self):
        recs = records_by_id(verify_graph(make_matching_join(3, 1)))
        assert recs["THM_2_8"].status == "pass"
        assert recs["THM_2_8"].equality_case == "equality_matches_extremal"

    def test_g1_member_thm45(self):
        recs = records_by_id(verify_graph(make_G1_member(3, [(1, 2)])))
        assert recs["THM_4_5"].status == "pass"
        assert recs["REM_4_8"].status == "pass"


THEOREM_ORDER = [
    "THM_1_4", "THM_1_5", "THM_2_1", "THM_2_3", "COR_2_2", "COR_2_4", "THM_2_5",
    "THM_2_8", "COR_3_1", "PROP_3_2", "LEM_3_3", "THM_3_4", "COR_3_5", "F_LE_AF",
    "AF_CYCLOMATIC", "AF_EDGE_BOUND", "THM_4_2", "THM_4_3", "THM_4_5", "REM_4_8",
    "PROBLEM_5_4_CANDIDATE", "PROP_5_2_5_3", "CONJ_5_1",
]

PAW = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])  # non-bipartite, f = 0 = n-2
TWO_C4 = disjoint_union(generate("cycle", 4), generate("cycle", 4))
K33 = generate("complete_bipartite", 3, 3)
LEM_3_3_BOUND = "max degree-sum >= 2n/(n-f(G,M))"


class TestAntiForcingCeiling:
    READS_AF = ("F_LE_AF", "AF_CYCLOMATIC", "AF_EDGE_BOUND")

    def test_only_the_af_statements_abort(self):
        q3 = generate("hypercube", 3)
        full = verify_graph(q3)
        capped = verify_graph(q3, limits=SolverLimits(node_limit=50))
        assert [r.theorem_id for r in capped] == [r.theorem_id for r in full]
        for before, after in zip(full, capped):
            assert after.inputs == {**before.inputs, "Af": None}
            if after.theorem_id in self.READS_AF:
                assert (after.status, after.bound, after.observed) == ("aborted", "", None)
                assert after.detail == "subset-search node limit exceeded"
            else:
                assert (after.bound, after.observed, after.status, after.equality_case) == (
                    before.bound, before.observed, before.status, before.equality_case
                )

    def test_f_ceiling_still_aborts_the_graph(self):
        capped = verify_graph(generate("hypercube", 3), limits=SolverLimits(node_limit=5))
        assert [(r.theorem_id, r.status) for r in capped] == [("RESOURCE", "aborted")]


class TestTheoremTable:
    @pytest.mark.parametrize(
        "g, candidate",
        [
            (K33, False),
            (TWO_C4, False),
            (make_H_hat(3), False),  # non-bipartite, f = 0 != n-2
            (PAW, True),
            (make_matching_join(3, 1), True),  # non-bipartite, f = 1 = n-2
        ],
    )
    def test_every_statement_once_in_table_order(self, g, candidate):
        ids = [r.theorem_id for r in verify_graph(g)]
        expected = [t for t in THEOREM_ORDER if candidate or t != "PROBLEM_5_4_CANDIDATE"]
        assert ids == expected

    @pytest.mark.parametrize(
        "g, theorem_id, expected",
        [
            (make_H(4, 2), "THM_2_5", ("pass", "equality_matches_extremal", "2")),
            (generate("cycle", 6), "THM_2_5", ("pass", "n/a", "1")),
            (generate("cycle", 6), "COR_3_1", ("pass", "n/a", "1")),
            (TWO_C4, "COR_3_1", ("inapplicable", "n/a", "1")),
            (K33, "COR_3_5", ("pass", "equality_matches_extremal", "-7/2+1/2*sqrt(121)")),
            (
                build_graph(6, [(0, 1), (2, 3), (4, 5)]),
                "COR_3_5",
                ("pass", "equality_matches_extremal", "-1/2+1/2*sqrt(1)"),
            ),
            (K33, "LEM_3_3", ("pass", "equality_matches_extremal", LEM_3_3_BOUND)),
            (make_H(4, 2), "LEM_3_3", ("pass", "strict", LEM_3_3_BOUND)),
            (TWO_C4, "AF_CYCLOMATIC", ("inapplicable", "n/a", "")),
            (TWO_C4, "AF_EDGE_BOUND", ("inapplicable", "n/a", "")),
            (
                PAW,
                "PROBLEM_5_4_CANDIDATE",
                ("inapplicable", "n/a", "non-bipartite with f=n-2 (uncharacterized)"),
            ),
        ],
    )
    def test_policy_verdicts(self, g, theorem_id, expected):
        rec = records_by_id(verify_graph(g))[theorem_id]
        assert (rec.status, rec.equality_case, rec.bound) == expected


class TestKnownValues:
    def test_small_grid_and_cubes(self):
        recs = verify_known_values(["grid:4x4", "Q:2", "Q:3", "pc:2x3"])
        assert all(r.status == "pass" for r in recs)
        byq = {(r.inputs["family"], r.inputs["quantity"]): r.observed for r in recs}
        assert byq[("grid:4x4", "f")] == 2
        assert byq[("grid:4x4", "F")] == 4
        assert byq[("Q:3", "f")] == 2
        assert byq[("pc:2x3", "F")] == 2


class TestPachterKim:
    def test_grids_and_even_cycles(self):
        targets = [
            cartesian_product(generate("path", 2), generate("path", 4)),
            cartesian_product(generate("path", 4), generate("path", 4)),
            generate("cycle", 8),
            disjoint_union(generate("cycle", 4), generate("cycle", 4)),
        ]
        for g in targets:
            assert verify_pachter_kim(g).status == "pass"


class TestRemark49:
    def test_disconnected_members_are_two_complete_bipartite(self):
        # every disconnected G1/G2 member over sides <= 4 splits into exactly
        # two balanced complete bipartite components
        from forcing_lab.families import classify
        from forcing_lab.graphs import bipartition_of, build_graph, components, is_connected
        from forcing_lab.matchings import has_perfect_matching
        from forcing_lab.sweep import bipartite_graph_from_mask

        hits = 0
        for side in (2, 3, 4):
            for mask in range(1 << (side * side)):
                g = bipartite_graph_from_mask(side, mask)
                if not has_perfect_matching(g) or is_connected(g):
                    continue
                report = classify(g)
                if not (report.g1_member or report.g2_member):
                    continue
                hits += 1
                comps = components(g)
                assert len(comps) == 2
                for comp in comps:
                    members = [v for v in range(g.order) if comp >> v & 1]
                    index = {v: i for i, v in enumerate(members)}
                    sub = build_graph(
                        len(index), [(index[u], index[v]) for u, v in g.edges if u in index]
                    )
                    # bipartite on 2m vertices with m^2 edges: K_{m,m}
                    assert sub.edge_count == (sub.order // 2) ** 2
                    assert bipartition_of(sub) is not None
                    assert has_perfect_matching(sub)
        assert hits > 0


class TestCrossover:
    def test_spec_examples(self):
        recs = verify_crossover_remark([6], [21])
        assert recs[0].status == "pass"
        assert "(e-n)/2" in recs[0].bound
        recs = verify_crossover_remark([4], [14])
        assert recs[0].status == "pass"
        assert "r=" in recs[0].bound

    def test_small_e_inapplicable(self):
        recs = verify_crossover_remark([4], [5])
        assert recs[0].status == "inapplicable"

    def test_full_ranges_pass(self):
        for rec in verify_crossover_remark(range(2, 9)):
            assert rec.status in ("pass", "inapplicable")

    def test_k22_sanity_bound_value(self):
        from fractions import Fraction
        from forcing_lab.solver import ExactBound

        # n=2, e=4: the sqrt bound evaluates to exactly 1 = n-1
        bound = ExactBound(Fraction(2 - 4 - 1, 2), Fraction(1, 2), Fraction(25))
        assert bound.equals(1)
