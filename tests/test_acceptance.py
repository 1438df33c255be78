"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The order-8 exhaustive
sweep (multi-hour) is gated behind FORCING_LAB_FULL_SWEEP=1; its order-6
reduction is the CI gate and must finish well under two minutes.
"""

import hashlib
import itertools
import os
import random
import time

import pytest

from conftest import random_graph, report_json
from forcing_lab.families import (
    make_G4,
    make_G5,
    make_H,
    make_H_hat,
    make_H_hat_join,
    make_matching_join,
)
from forcing_lab.graphs import build_graph, cartesian_product, generate
from forcing_lab.matchings import enumerate_perfect_matchings
from forcing_lab.solver import cycle_packing, forcing_number, spectrum
from forcing_lab.sweep import SweepConfig, run_sweep
from forcing_lab.verify import verify_known_values

FULL_SWEEP = os.environ.get("FORCING_LAB_FULL_SWEEP") == "1"

CRITERION_1_TABLE = [
    ("grid:4x4", "f", 2),
    ("grid:4x4", "F", 4),
    ("torus:4x4", "f", 4),
    ("torus:4x4", "F", 4),
    ("pc:2x4", "F", 2),
    ("pc:2x6", "F", 3),
    ("pc:4x4", "F", 4),
    ("pc:3x4", "F", 3),
    ("pc:3x6", "F", 4),
    ("pc:2x3", "F", 2),
    ("pc:2x5", "F", 3),
    ("pc:4x3", "F", 4),
    ("Q:2", "f", 1),
    ("Q:3", "f", 2),
    ("Q:4", "f", 4),
]


def test_criterion_1_known_value_table():
    start = time.monotonic()
    families = sorted({fam for fam, _, _ in CRITERION_1_TABLE})
    records = verify_known_values(families)
    observed = {
        (r.inputs["family"], r.inputs["quantity"]): (r.observed, r.status)
        for r in records
    }
    for family, quantity, expected in CRITERION_1_TABLE:
        got, status = observed[(family, quantity)]
        assert got == expected, f"{family} {quantity}: expected {expected}, got {got}"
        assert status == "pass"
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(
        f"ACCEPTANCE criterion 1: PASS — {len(CRITERION_1_TABLE)} known values exact"
        f" ({elapsed:.1f}s)"
    )


def test_criterion_2_extremal_family_values():
    start = time.monotonic()
    checked = 0
    for n in range(1, 7):
        for k in range(n):
            assert spectrum(make_H(n, k)).f_min == k, f"H({n},{k})"
            assert spectrum(make_H_hat_join(n, k)).f_min == k, f"HhatJoin({n},{k})"
            assert spectrum(make_matching_join(n, k)).f_min == k, f"MJoin({n},{k})"
            checked += 3
        for k in range(n - 1):
            assert spectrum(make_G4(n, k)).f_min == k + 1, f"G4({n},{k})"
            checked += 1
        for k in range(max(0, n - 2)):
            for i in range(1, n - k - 1):
                assert spectrum(make_G5(n, k, i)).f_min == k + 2, f"G5({n},{k},{i})"
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"ACCEPTANCE criterion 2: PASS — {checked} family values exact ({elapsed:.1f}s)"
    )


def test_criterion_3_edge_count_formulas():
    for n in range(1, 17):
        if 2 * n <= 32:
            assert make_H_hat(n).edge_count == n * n
        for k in range(n):
            if 2 * n <= 32:
                assert make_H(n, k).edge_count == (n - k) * (n + k + 1) // 2 + n * k
                assert (
                    make_H_hat_join(n, k).edge_count
                    == n * n + 2 * n * k - k * k - k
                )
    print("ACCEPTANCE criterion 3: PASS — edge-count formulas exact for all 2n <= 32")


def _assert_sweep_sound(report):
    totals = report.summary["totals"]
    assert totals["fail"] == 0, report.summary["by_theorem"]
    assert totals["aborted"] == 0
    for rec in report.records:
        assert rec.equality_case != "equality_mismatch"


def test_criterion_4_sweep_soundness_order6_gate(order6_sweep):
    report, elapsed = order6_sweep  # elapsed: the sweep alone
    _assert_sweep_sound(report)
    assert elapsed < 120, f"order-6 CI gate took {elapsed:.1f}s"
    print(
        "ACCEPTANCE criterion 4: PASS — order<=6 sweep sound, "
        f"{report.summary['graphs_verified']} graphs, 0 failures ({elapsed:.1f}s)"
    )


@pytest.mark.skipif(
    not FULL_SWEEP, reason="order-8 exhaustive sweep: set FORCING_LAB_FULL_SWEEP=1"
)
def test_criterion_4_sweep_soundness_order8_full():
    start = time.monotonic()
    report = run_sweep(
        SweepConfig(
            mode="all_graphs",
            max_order=8,
            workers=int(os.environ.get("FORCING_LAB_WORKERS", "8")),
            failures_only=True,
        )
    )
    _assert_sweep_sound(report)
    print(
        "ACCEPTANCE criterion 4 (full): PASS — order<=8 sweep sound "
        f"({time.monotonic() - start:.0f}s)"
    )


# sha256 of the side-4 report, the bytes
# `sweep --mode bipartite_balanced --side 4 --json` writes
SIDE_4_REPORT_SHA256 = "a81b1cfb09c389ef558d6d241e5f7761c4cebe280990f944ee352a7d39188080"


def test_criterion_5_theorem_4_5_completeness():
    start = time.monotonic()
    graphs = 0
    hits = 0
    for side in (2, 3, 4):
        report = run_sweep(
            SweepConfig(mode="bipartite_balanced", side=side, workers=2)
        )
        totals = report.summary["totals"]
        assert totals["fail"] == 0, report.summary["by_theorem"]
        assert totals["aborted"] == 0
        by_theorem = report.summary["by_theorem"]
        graphs += report.summary["graphs_verified"]
        hits += by_theorem["REM_4_8"]["pass"]  # the f = n-2 graphs
        assert by_theorem["THM_4_5"]["fail"] == 0
        assert by_theorem["REM_4_8"]["fail"] == 0
    # the bytes pin the records of the statements that hold only for
    # bipartite graphs, on a universe where every graph is one
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == SIDE_4_REPORT_SHA256
    assert hits > 0
    elapsed = time.monotonic() - start
    print(
        "ACCEPTANCE criterion 5: PASS — THM 4.5 and Remark 4.8 both directions over "
        f"{graphs} balanced bipartite graphs, {hits} with f=n-2 ({elapsed:.1f}s)"
    )


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(0xF0C)
    pairs_checked = 0
    # 500 random graphs of order <= 10
    seen = 0
    while seen < 500:
        order = rng.choice((4, 6, 8, 10))
        g = random_graph(order, 0.3 + 0.5 * rng.random(), rng)
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        seen += 1
        for m in pms[:3]:
            a = forcing_number(g, m, method="subset_search")
            b = forcing_number(g, m, method="cycle_hitting")
            assert a.value == b.value and a.witness_set == b.witness_set
            assert cycle_packing(g, m) <= a.value
            pairs_checked += 1
    # the full order <= 6 labeled universe, every perfect matching
    pairs = list(itertools.combinations(range(6), 2))
    for bits in range(1 << len(pairs)):
        g = build_graph(6, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        for m in enumerate_perfect_matchings(g):
            a = forcing_number(g, m, method="subset_search")
            b = forcing_number(g, m, method="cycle_hitting")
            assert a.value == b.value and a.witness_set == b.witness_set
            assert cycle_packing(g, m) <= a.value
            pairs_checked += 1
    # Pachter-Kim equality on plane-bipartite constructions
    grid_dims = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
                 (2, 2), (2, 3), (2, 4)]
    for a_half, b_half in grid_dims:
        g = cartesian_product(
            generate("path", 2 * a_half), generate("path", 2 * b_half)
        )
        for m in enumerate_perfect_matchings(g):
            assert cycle_packing(g, m) == forcing_number(g, m).value
            pairs_checked += 1
    for length in range(4, 18, 2):
        g = generate("cycle", length)
        for m in enumerate_perfect_matchings(g):
            assert cycle_packing(g, m) == forcing_number(g, m).value
            pairs_checked += 1
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE criterion 6: PASS — {pairs_checked} matchings cross-checked "
        f"({elapsed:.1f}s)"
    )


def test_criterion_7_conjecture_sweep(order6_sweep):
    report, _ = order6_sweep  # --strict-conjectures sets only the CLI's exit code
    assert report.summary["totals"]["counterexample"] == 0
    assert not report.summary["counterexamples_found"]
    # the reporting path itself is exercised with a fabricated record in
    # test_sweep_cli.py::TestReportShape::test_counterexample_injection_reporting
    print(
        "ACCEPTANCE criterion 7: PASS — zero conjecture counterexamples at order <= 6"
        " (full order-8 run behind FORCING_LAB_FULL_SWEEP)"
    )


@pytest.mark.skipif(
    not FULL_SWEEP, reason="order-8 exhaustive sweep: set FORCING_LAB_FULL_SWEEP=1"
)
def test_criterion_7_conjecture_sweep_order8_full():
    report = run_sweep(
        SweepConfig(
            mode="all_graphs",
            max_order=8,
            workers=int(os.environ.get("FORCING_LAB_WORKERS", "8")),
            failures_only=True,
        )
    )
    assert report.summary["totals"]["counterexample"] == 0
    print("ACCEPTANCE criterion 7 (full): PASS — zero counterexamples at order <= 8")


# sha256 of the order-6 report, the bytes `sweep --max-order 6 --json` writes
ORDER_6_REPORT_SHA256 = "ab04ba45b9eb78dddd31cdd1dd8a7278594e57355f2a6128f420dc1a39bd7654"


def test_criterion_8_determinism_across_workers():
    start = time.monotonic()
    one = report_json(run_sweep(SweepConfig(mode="all_graphs", max_order=6, workers=1)))
    eight = report_json(run_sweep(SweepConfig(mode="all_graphs", max_order=6, workers=8)))
    assert one == eight
    assert hashlib.sha256(one.encode()).hexdigest() == ORDER_6_REPORT_SHA256
    print(
        "ACCEPTANCE criterion 8: PASS — byte-identical reports, workers 1 vs 8 "
        f"({time.monotonic() - start:.1f}s)"
    )
