import ast
import contextlib
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from oracles import (
    oracle_anti_forcing_number,
    oracle_cycle_packing,
    oracle_forcing_number,
    oracle_is_forcing_set,
    oracle_matching_orbit_firsts,
    oracle_perfect_matchings,
)
from conftest import ROOT, random_graph
from forcing_lab.errors import (
    GraphError,
    MatchingError,
    NoPerfectMatchingError,
    ResourceLimitError,
)
from forcing_lab import BACKEND_NAME, _kernels_py, cli, solver
from forcing_lab.families import (
    instantiate_family,
    is_cograph,
    is_split,
    make_H,
    make_H_hat,
    parse_family_spec,
)
from forcing_lab.graphs import (
    bipartition_of,
    build_graph,
    cartesian_product,
    generate,
    is_connected,
)
from forcing_lab.matchings import enumerate_perfect_matchings, matching_from_edges
from forcing_lab.solver import (
    ExactBound,
    SolverLimits,
    anti_forcing_number,
    bound_values,
    cycle_packing,
    forcing_number,
    is_anti_forcing_set,
    is_forcing_set,
    anti_forcing_values,
    matching_orbit_firsts,
    spectrum,
)
from forcing_lab.verify import verify_graph


def all_small_graphs(order):
    pairs = list(itertools.combinations(range(order), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(order, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


class TestIsForcingSet:
    def test_c4(self):
        g = generate("cycle", 4)
        m = enumerate_perfect_matchings(g)[0]
        assert is_forcing_set(g, m, [m.edges[0]])
        assert not is_forcing_set(g, m, [])

    def test_k33_any_two(self):
        g = generate("complete_bipartite", 3, 3)
        for m in enumerate_perfect_matchings(g):
            for pair in itertools.combinations(m.edges, 2):
                assert is_forcing_set(g, m, list(pair))

    def test_rejects_non_subset(self):
        g = generate("cycle", 4)
        m = enumerate_perfect_matchings(g)[0]
        other = enumerate_perfect_matchings(g)[1]
        with pytest.raises(MatchingError):
            is_forcing_set(g, m, [other.edges[0]])


class TestForcingNumber:
    def test_unique_pm_zero(self):
        g = make_H_hat(5)
        m = enumerate_perfect_matchings(g)[0]
        assert forcing_number(g, m).value == 0

    def test_c6_one(self):
        g = generate("cycle", 6)
        for m in enumerate_perfect_matchings(g):
            assert forcing_number(g, m).value == 1

    def test_grid_4x4_min_two(self):
        g = cartesian_product(generate("path", 4), generate("path", 4))
        assert spectrum(g).f_min == 2

    def test_witness_reverifies_and_irredundant(self, rng):
        seen = 0
        while seen < 30:
            g = random_graph(8, 0.45, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            m = pms[0]
            res = forcing_number(g, m)
            assert is_forcing_set(g, m, res.witness_set)
            for e in res.witness_set:
                reduced = [x for x in res.witness_set if x != e]
                assert not is_forcing_set(g, m, reduced)

    def test_superset_of_witness_still_forces(self, rng):
        # monotone residue property
        seen = 0
        while seen < 20:
            g = random_graph(8, 0.4, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            m = pms[0]
            res = forcing_number(g, m)
            rest = [e for e in m.edges if e not in res.witness_set]
            for extra in rest:
                assert is_forcing_set(g, m, list(res.witness_set) + [extra])

    def test_matches_oracle_exhaustive_order6(self):
        count = 0
        for g in all_small_graphs(6):
            pms = enumerate_perfect_matchings(g)
            for m in pms[:2]:
                count += 1
                assert forcing_number(g, m).value == oracle_forcing_number(g, m.edges)
        assert count > 10000

    def test_subset_search_equals_cycle_hitting(self, rng):
        seen = 0
        while seen < 40:
            g = random_graph(8, 0.45, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            for m in pms[:3]:
                a = forcing_number(g, m, method="subset_search")
                b = forcing_number(g, m, method="cycle_hitting")
                assert a.value == b.value
                assert a.witness_set == b.witness_set

    def test_witness_lexicographically_first(self, rng):
        # brute force the lexicographically-first minimum witness
        seen = 0
        while seen < 12:
            g = random_graph(6, 0.6, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            m = pms[0]
            res = forcing_number(g, m)
            all_pms = oracle_perfect_matchings(g)
            firsts = [
                s
                for s in itertools.combinations(m.edges, res.value)
                if oracle_is_forcing_set(all_pms, s)
            ]
            assert res.witness_set == firsts[0]

    def test_node_limit_enforced(self):
        g = generate("complete_bipartite", 4, 4)
        m = enumerate_perfect_matchings(g)[0]
        with pytest.raises(ResourceLimitError):
            forcing_number(g, m, limits=SolverLimits(node_limit=3))


class TestSpectrum:
    def test_k33(self):
        sp = spectrum(generate("complete_bipartite", 3, 3))
        assert sp.f_min == sp.f_max == 2

    def test_q3(self):
        assert spectrum(generate("hypercube", 3)).f_min == 2

    def test_h62(self):
        assert spectrum(make_H(6, 2)).f_min == 2

    def test_range_invariant(self, rng):
        seen = 0
        while seen < 25:
            g = random_graph(8, 0.5, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            sp = spectrum(g)
            assert 0 <= sp.f_min <= sp.f_max <= g.order // 2 - 1

    def test_no_pm_errors(self):
        with pytest.raises(NoPerfectMatchingError):
            spectrum(generate("cycle", 5))
        with pytest.raises(NoPerfectMatchingError):
            spectrum(build_graph(4, [(0, 1)]))

    def test_pm_limit(self):
        with pytest.raises(ResourceLimitError):
            spectrum(generate("complete_bipartite", 4, 4), limits=SolverLimits(pm_limit=5))

    def test_ordering_matches_enumeration(self):
        g = generate("cycle", 6)
        sp = spectrum(g)
        assert [m.edges for m, _ in sp.per_matching] == [
            m.edges for m in enumerate_perfect_matchings(g)
        ]


class TestCyclePacking:
    def test_c4(self):
        g = generate("cycle", 4)
        m = enumerate_perfect_matchings(g)[0]
        assert cycle_packing(g, m) == 1

    def test_two_disjoint_c4(self):
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        m = enumerate_perfect_matchings(g)[0]
        assert cycle_packing(g, m) == 2

    def test_sandwich_exhaustive_order6(self):
        for g in all_small_graphs(6):
            pms = enumerate_perfect_matchings(g)
            for m in pms[:2]:
                assert cycle_packing(g, m) <= forcing_number(g, m).value

    def test_matches_oracle(self, rng):
        seen = 0
        while seen < 15:
            g = random_graph(6, 0.55, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            m = pms[0]
            assert cycle_packing(g, m) == oracle_cycle_packing(g, m.edges)

    def test_grid_equality(self):
        g = cartesian_product(generate("path", 4), generate("path", 4))
        for m in enumerate_perfect_matchings(g):
            assert cycle_packing(g, m) == forcing_number(g, m).value


class TestAntiForcing:
    def test_c4(self):
        g = generate("cycle", 4)
        m = enumerate_perfect_matchings(g)[0]
        assert anti_forcing_number(g, m).value == 1

    def test_unique_pm_zero(self):
        g = make_H_hat(5)
        m = enumerate_perfect_matchings(g)[0]
        assert anti_forcing_number(g, m).value == 0

    def test_k33_frozen_by_oracle(self):
        # oracle-derived: the three alternating 4-cycles have pairwise
        # disjoint non-matching pairs, so af(K33, M) = 3
        g = generate("complete_bipartite", 3, 3)
        for m in enumerate_perfect_matchings(g):
            value = anti_forcing_number(g, m).value
            assert value == 3
            assert value == oracle_anti_forcing_number(g, m.edges)

    def test_witness_reverifies(self, rng):
        seen = 0
        while seen < 25:
            g = random_graph(8, 0.4, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            m = pms[0]
            res = anti_forcing_number(g, m)
            assert is_anti_forcing_set(g, m, res.witness_set)
            assert not set(res.witness_set) & set(m.edges)

    def test_matches_oracle_exhaustive_order4(self):
        for g in all_small_graphs(4):
            for pm in oracle_perfect_matchings(g):
                m = matching_from_edges(pm)
                assert anti_forcing_number(g, m).value == oracle_anti_forcing_number(g, pm)

    def test_max_anti_forcing(self):
        assert max(anti_forcing_values(generate("cycle", 4))) == 1
        assert max(anti_forcing_values(build_graph(6, [(0, 1), (2, 3), (4, 5)]))) == 0
        c6 = generate("cycle", 6)
        assert max(anti_forcing_values(c6)) == 1
        for pm in oracle_perfect_matchings(c6):
            assert oracle_anti_forcing_number(c6, pm) == 1

    def test_forcing_le_anti_forcing(self, rng):
        seen = 0
        while seen < 25:
            g = random_graph(8, 0.45, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            assert spectrum(g).f_max <= max(anti_forcing_values(g))


class TestExactBound:
    def test_surd_perfect_square(self):
        # 5/2 - sqrt(1/4) = 2 exactly
        b = ExactBound(Fraction(5, 2), Fraction(-1), Fraction(1, 4))
        assert b.cmp(2) == 0 and b.equals(2)

    def test_surd_irrational(self):
        # 3 - sqrt(2) in (1, 2)
        b = ExactBound(Fraction(3), Fraction(-1), Fraction(2))
        assert b.cmp(1) > 0 and b.cmp(2) < 0

    def test_positive_radical(self):
        # (sqrt(121) - 7) / 2 = 2
        b = ExactBound(Fraction(-7, 2), Fraction(1, 2), Fraction(121))
        assert b.equals(2)

    def test_agrees_with_float(self):
        for a_num in range(-6, 7):
            for c_num in (-2, -1, 1, 2):
                for rad in range(0, 30):
                    b = ExactBound(Fraction(a_num, 2), Fraction(c_num, 2), Fraction(rad))
                    if rad == 0:  # not a square-root bound
                        with pytest.raises(GraphError):
                            b.cmp(0)
                        continue
                    for t in range(-8, 9):
                        approx = float(b) - t
                        if abs(approx) > 1e-9:
                            assert b.cmp(t) == (1 if approx > 0 else -1)

    def test_square_root_bounds_exact_on_every_order_and_size(self):
        # COR_2_2, COR_2_4 and COR_3_5 for n = 1..8 and every e from n to
        # n(2n-1); COR_2_4 only up to e = n^2, where its bipartite hypothesis
        # can hold.  Each is (K + c'*sqrt(N))/2 - t with integers |K| < 300
        # and 0 < N < 20000, so a nonzero difference exceeds 1e-4 and the
        # 60-digit decimal sign is exact.
        def reference(b, t):
            with localcontext() as ctx:
                ctx.prec = 60
                a, c, rad = (Decimal(q.numerator) / q.denominator for q in (b.a, b.c, b.b))
                diff = a + c * rad.sqrt() - t
            return 0 if abs(diff) < Decimal("1e-30") else 1 if diff > 0 else -1

        ties = 0
        for n in range(1, 9):
            pairs = list(itertools.combinations(range(2 * n), 2))
            for e in range(n, n * (2 * n - 1) + 1):
                bounds = bound_values(build_graph(2 * n, pairs[:e]))
                for bound_id in ("COR_2_2", "COR_2_4", "COR_3_5"):
                    if bound_id == "COR_2_4" and e > n * n:
                        continue
                    b = bounds[bound_id]
                    assert b.c != 0 and b.b > 0, (bound_id, n, e)
                    for t in range(-1, n + 1):
                        want = reference(b, t)
                        assert b.cmp(t) == want, (bound_id, n, e, t)
                        assert (b < t, b <= t, b > t, b >= t) == (
                            want < 0, want <= 0, want > 0, want >= 0
                        )
                        ties += want == 0
        assert ties > 0


class TestBoundValues:
    def test_k33_cor24_equals_two(self):
        assert bound_values(generate("complete_bipartite", 3, 3))["COR_2_4"].equals(2)

    def test_nk2_prop32_zero(self):
        g = build_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert bound_values(g)["PROP_3_2"] == 0

    def test_k44_conjecture_bound(self):
        # the theorem table checks e >= n^2/(n-F): 16 >= 16/(4-3) on K_{4,4}
        g = generate("complete_bipartite", 4, 4)
        (record,) = [r for r in verify_graph(g) if r.theorem_id == "CONJ_5_1"]
        assert (record.bound, record.observed, record.status) == ("16", 16, "pass")

    def test_applicability_flags(self):
        # the theorem table, not bound_values, states each hypothesis
        def statuses(g):
            return {r.theorem_id: r.status for r in verify_graph(g)}

        k6 = statuses(generate("complete", 6))  # not bipartite, is a cograph
        assert k6["COR_2_4"] == k6["THM_2_5"] == "inapplicable"
        assert k6["THM_2_8"] != "inapplicable"
        assert statuses(generate("path", 4))["THM_2_8"] != "inapplicable"  # split only
        assert statuses(generate("cycle", 4))["THM_2_8"] != "inapplicable"  # cograph only
        assert statuses(generate("cycle", 6))["THM_2_8"] == "inapplicable"  # neither
        disconnected = build_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert statuses(disconnected)["COR_3_1"] == "inapplicable"

    def test_lower_bounds_hold_on_random_graphs(self, rng):
        f_lower = ("COR_2_2", "COR_2_4", "THM_2_5", "THM_2_8")
        seen = 0
        while seen < 20:
            g = random_graph(8, 0.55, rng)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            seen += 1
            sp = spectrum(g)
            bounds = bound_values(g)
            status = {r.theorem_id: r.status for r in verify_graph(g)}
            bipartite = bipartition_of(g) is not None
            hypothesis = {
                "COR_2_2": True,
                "COR_2_4": bipartite,
                "THM_2_5": bipartite,
                "THM_2_8": is_split(g) or is_cograph(g),
                "PROP_3_2": True,
                "COR_3_1": is_connected(g),
                "COR_3_5": True,
            }
            assert set(bounds) == set(hypothesis)
            for bound_id, holds in hypothesis.items():
                assert (status[bound_id] == "inapplicable") == (not holds), bound_id
                if not holds:
                    continue
                if bound_id in f_lower:
                    assert bounds[bound_id] <= sp.f_min
                else:
                    assert bounds[bound_id] >= sp.f_max


# compute --json output of the solver before orbit sharing, by sha256
COMPUTE_JSON_SHA256 = {
    "Q:3": "1c51906edb6053694557d6bd95326d72753ca1b3b5009471e96c1aa888d709bd",
    "Q:4": "ba1284886b11107a37d16a267b0e595266e762e99fd43a9f3e44b6d4bc019c1d",
    "grid:4x4": "473aa901d3c86319b4d1a5b62942aaef83b226b092578fd4e496c6cf3b67d21e",
    "torus:4x4": "c87cdb890eeef4c5b873cd04d43d88b95084567876cb8d5b4f40a73cfcfa895b",
    "pc:4x4": "6a9d5705bf245e81107106deb1e7bcbf1a9f528a8291d52df60ff1faf1cc6430",
    "pc:3x6": "483502abfb3a20ddd293c8a387521104780dd3a4755977a2638bf68c02632400",
    "H:6,2": "757c0e1bb27ce9a2ff9aaf6e127b8758fe9493ad7e6e1ad9d18959b6e0a82136",
    "MJoin:6,2": "724f8c3a91679da10efbc4792b08e4c7ea3b4a47d9295d957322699becd7814c",
    "G4:4,1": "c43b7ff85d71c5029b95ba08d641c09c65a017b36ac2603fc98716f37a27dbeb",
    "G5:5,1,1": "fc2932f6f881354b47397f8ae70519cf4960918687e7b2c9ee69ac5909c56fc2",
    "G5:6,1,2": "33763b93b697c366e0f38cf8342d937915ce8a79456494f1ecaa400b346e0c27",
    "Knn:4": "29cc22daf284785bfd6621f58c24952bcaa0f9a3ce1254d08ed8cafc8bc011ec",
    "Knn:5": "297694f5cab2ff939eb924d85d7a7cddee3e30361f73d62271343165699bee82",
    "H:7,2": "49df078693a0723e0468d700272cd7c1a196229140828ed8933025270421a27b",
    "G4:5,1": "09e060b8848279ebd8fe3e952c60e6dd06fe425f968d0c1f3ebe06eae2ad90b0",
}


def sample_with_matchings(order, count, rng, at_least=1, densities=(0.4, 0.6, 0.8)):
    out = []
    while len(out) < count:
        g = random_graph(order, rng.choice(densities), rng)
        if len(enumerate_perfect_matchings(g)) >= at_least:
            out.append(g)
    return out


class TestMatchingOrbits:
    @pytest.mark.parametrize("order,count", [(6, 300), (8, 12)])
    def test_equal_brute_force_orbits(self, order, count, rng):
        for g in sample_with_matchings(order, count, rng):
            pms = enumerate_perfect_matchings(g)
            assert matching_orbit_firsts(g, pms) == oracle_matching_orbit_firsts(
                g, [m.edges for m in pms]
            )

    def test_few_matchings_skip_the_automorphism_search(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("orbit pass below the threshold")

        monkeypatch.setattr(solver, "automorphism_generators", forbidden)
        k6 = generate("complete", 6)  # 15 perfect matchings
        sp = spectrum(k6, with_cycle_packing=True, with_anti_forcing=True)
        assert sp.f_min == sp.f_max == 2

    @pytest.mark.parametrize("spec", sorted(COMPUTE_JSON_SHA256))
    def test_values_equal_direct_calls(self, spec):
        g = instantiate_family(parse_family_spec(spec))
        sp = spectrum(g, with_cycle_packing=True, with_anti_forcing=True)
        pms = [m for m, _ in sp.per_matching]
        firsts = matching_orbit_firsts(g, pms)
        assert len(pms) >= 16 or spec == "Q:3"
        for (m, f), c in zip(sp.per_matching, sp.c_values):
            assert f == forcing_number(g, m).value
            assert c == cycle_packing(g, m)
        # af directly on a few matchings whose value was copied from their orbit
        copied = [i for i, first in enumerate(firsts) if first != i]
        for i in random.Random(spec).sample(copied, min(3, len(copied))):
            assert sp.af_values[i] == anti_forcing_number(g, pms[i]).value

    def test_random_graphs_with_many_matchings(self, rng):
        graphs = sample_with_matchings(8, 4, rng, 16)
        graphs += sample_with_matchings(10, 2, rng, 16, densities=(0.5,))
        for g in graphs:
            sp = spectrum(g, with_cycle_packing=True, with_anti_forcing=True)
            for (m, f), c, af in zip(sp.per_matching, sp.c_values, sp.af_values):
                assert f == forcing_number(g, m).value
                assert c == cycle_packing(g, m)
                assert af == anti_forcing_number(g, m).value

    @pytest.mark.parametrize("spec", sorted(COMPUTE_JSON_SHA256))
    def test_compute_json_unchanged(self, spec):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["compute", spec, "--json"]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == COMPUTE_JSON_SHA256[spec]

    def test_compute_json_unchanged_on_the_python_backend(self):
        # every pin but H:7,2 (half the time of all fifteen) in one process
        # whose searches are the twin's
        specs = sorted(set(COMPUTE_JSON_SHA256) - {"H:7,2"})
        code = (
            "import contextlib, hashlib, io, sys\n"
            "from forcing_lab import BACKEND_NAME, cli\n"
            "print(BACKEND_NAME)\n"
            "for spec in sys.argv[1:]:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert cli.main(['compute', spec, '--json']) == 0\n"
            "    print(spec, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        )
        env = {
            **os.environ,
            "FORCING_LAB_BACKEND": "python",
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path]),
        }
        proc = subprocess.run(
            [sys.executable, "-c", code, *specs], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        backend, *lines = proc.stdout.splitlines()
        assert backend == "python"
        assert dict(line.split() for line in lines) == {s: COMPUTE_JSON_SHA256[s] for s in specs}

    @pytest.mark.skipif(BACKEND_NAME != "compiled", reason="needs the compiled kernels")
    def test_compiled_compute_makes_no_twin_search(self, monkeypatch):
        # Q:4's universes fit the compiled search, so its values and both
        # witnesses come from there
        calls = []
        monkeypatch.setattr(
            _kernels_py, "_hitting_search", lambda *args, **kwargs: calls.append(args)
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["compute", "Q:4", "--json"]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == COMPUTE_JSON_SHA256["Q:4"]
        assert calls == []


def test_only_backend_and_solver_reach_the_twin():
    # the library calls the pure-Python kernels through backend selection,
    # and directly only where the twin is the reference: solver's fallback
    # for a search the compiled kernels decline, and its cycle_hitting check
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield getattr(node, "module", None) or ""
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    reach = {
        path.stem
        for path in (ROOT / "src" / "forcing_lab").glob("*.py")
        if any(name.split(".")[-1] == "_kernels_py" for name in names(ast.parse(path.read_text())))
    }
    assert reach == {"_backend", "solver"}


class TestAntiForcingCeiling:
    @pytest.mark.parametrize("spec,node_limit", [("Q:3", 8), ("grid:4x4", 20)])
    def test_af_ceiling_keeps_the_f_values(self, spec, node_limit):
        g = instantiate_family(parse_family_spec(spec))
        limits = SolverLimits(node_limit=node_limit)
        sp = spectrum(g, limits=limits, with_cycle_packing=True, with_anti_forcing=True)
        assert sp.af_values is None and sp.c_values is None
        assert "node limit" in sp.af_error
        assert sp.per_matching == spectrum(g).per_matching
        with pytest.raises(ResourceLimitError):
            anti_forcing_values(g, limits=limits)


def witness_problems(g, m, chosen, value, forcing):
    """Re-verify a forcing set (``forcing``) or anti-forcing set of ``m``:
    its size is the value, it leaves ``m`` unique, and no single edge can
    go (as ``perfbench/workload.py`` checks ``compute``'s witnesses)."""
    unique = is_forcing_set if forcing else is_anti_forcing_set
    problems = []
    if len(chosen) != value:
        problems.append(f"{len(chosen)} edges, value {value}")
    if not unique(g, m, chosen):
        problems.append("does not leave the matching unique")
    if any(unique(g, m, chosen[:i] + chosen[i + 1 :]) for i in range(len(chosen))):
        problems.append("not minimal")
    return problems


class TestDenseGraphs:
    def test_order10_graph_that_hit_the_ceiling(self):
        # a seeded order-10, p = 0.7 graph whose af search hit the default
        # 10M-node ceiling under the lexicographic search, so its Af
        # statements read aborted; the branching search finishes, with the
        # twin's values, and re-verifiable witnesses
        from forcing_lab.graphs import graph6_encode
        from forcing_lab.verify import verdict_row

        g = random_graph(10, 0.7, random.Random(7))
        row = verdict_row(g, graph6_encode(g))
        assert row.inputs["Af"] == 16
        assert all(status != "aborted" for _, _, _, status, *_ in row.verdicts)
        sp = spectrum(g, with_anti_forcing=True)
        pms = [m for m, _ in sp.per_matching]
        assert len(pms) == 429
        firsts = matching_orbit_firsts(g, pms)
        solved = [m for i, m in enumerate(pms) if firsts[i] == i]
        edges = [m.edges for m in solved]
        limit = solver.DEFAULT_LIMITS.node_limit
        f_values = [sp.per_matching[i][1] for i, first in enumerate(firsts) if first == i]
        af_values = [sp.af_values[i] for i, first in enumerate(firsts) if first == i]
        assert _kernels_py.forcing_value(g.adj, edges, limit) == f_values
        assert _kernels_py.anti_forcing_value(g.adj, edges, limit) == af_values
        for m, f, af in zip(solved, f_values, af_values):
            fs, afs = forcing_number(g, m), anti_forcing_number(g, m)
            assert witness_problems(g, m, fs.witness_set, f, True) == []
            assert witness_problems(g, m, afs.witness_set, af, False) == []


def least_node_limit(search, handle, edges):
    """The fewest search nodes with which ``search`` finishes on ``edges``."""
    lo, hi = 1, 1
    while search(handle, [edges], hi) == [-1]:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if search(handle, [edges], mid) == [-1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.skipif(BACKEND_NAME != "compiled", reason="needs the compiled kernels")
def test_searches_against_cycle_hitting_at_and_below_the_ceiling(rng):
    # at the fewest nodes with which a search finishes, its value and its
    # witness are those of the hitting set over the full alternating-cycle
    # list (forcing_number's cycle_hitting route for f, the same over the
    # cycles' non-matching edges for af), on both backends; one node fewer,
    # both backends give -1
    from forcing_lab import _ckernels
    from forcing_lab.matchings import alternating_cycles

    checked = 0
    while checked < 240:  # four searches a matching, at most two matchings a graph
        g = random_graph(rng.choice((6, 8)), 0.35 + 0.4 * rng.random(), rng)
        pms = enumerate_perfect_matchings(g)[:2]
        hc = _ckernels.make_handle(g.adj)
        for m in pms:
            off = [e for e in g.edges if e not in m.edges]
            bit = {e: 1 << i for i, e in enumerate(off)}
            cycles = alternating_cycles(g, m, 10**6)
            af_seeds = [sum(map(bit.__getitem__, cyc.non_m_edges)) for cyc in cycles]
            af_witness = _kernels_py._hitting_search(
                len(off), lambda _: None, 10**7, af_seeds, witness=True
            )
            f_witness = forcing_number(g, m, method="cycle_hitting").witness_set
            f_mask = sum(1 << m.edges.index(e) for e in f_witness)
            for forcing, mask in ((True, f_mask), (False, af_witness)):
                name = "forcing" if forcing else "anti_forcing"
                for kind, expected in (("_value", mask.bit_count()), ("_set", mask)):
                    fn = getattr(_ckernels, name + kind)
                    twin = getattr(_kernels_py, name + kind)
                    nodes = least_node_limit(fn, hc, m.edges)
                    for backend, h in ((fn, hc), (twin, g.adj)):
                        assert backend(h, [m.edges], nodes) == [expected], (g.edges, m)
                        assert backend(h, [m.edges], nodes - 1) == [-1]
                    checked += 1
