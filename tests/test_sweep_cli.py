import argparse
import hashlib
import json
from collections import Counter

import pytest

from forcing_lab.cli import main
from forcing_lab.errors import GraphError, ResourceLimitError
from forcing_lab.graphs import canonical_graph6, generate, graph6_decode, graph6_encode
from forcing_lab import sweep
from forcing_lab.sweep import SweepConfig, build_report, plan_shards, run_sweep
from forcing_lab.verify import VerdictRecord


class TestCanonicalForm:
    def test_distinguishes_non_isomorphic(self):
        c6 = generate("cycle", 6)
        from forcing_lab.graphs import disjoint_union

        two_k3 = disjoint_union(generate("cycle", 3), generate("cycle", 3))
        assert canonical_graph6(c6) != canonical_graph6(two_k3)


class TestSweepDeterminism:
    def test_workers_do_not_change_bytes(self):
        cfg1 = SweepConfig(mode="all_graphs", max_order=4, workers=1)
        cfg8 = SweepConfig(mode="all_graphs", max_order=4, workers=8)
        assert run_sweep(cfg1).to_json() == run_sweep(cfg8).to_json()

    def test_bipartite_workers_determinism(self):
        cfg1 = SweepConfig(mode="bipartite_balanced", side=3, workers=1)
        cfg2 = SweepConfig(mode="bipartite_balanced", side=3, workers=2)
        assert run_sweep(cfg1).to_json() == run_sweep(cfg2).to_json()


# sha256 of the isomorph-free order-6 report, the bytes
# `sweep --max-order 6 --dedup --json` writes
DEDUP_ORDER_6_REPORT_SHA256 = "604da8b50b4103821a28abdfc30a5a0cfafffda5ae8789268dacf42854808fcb"


class TestDedup:
    def test_dedup_keeps_one_per_class_order4(self):
        base = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        dedup = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1, dedup=True))
        # group verdicts of the labeled sweep by canonical class
        by_class = {}
        for rec in base.records:
            key = (canonical_graph6(graph6_decode(rec.graph_id)), rec.theorem_id)
            by_class.setdefault(key, Counter())[rec.status] += 1
        dedup_classes = set()
        for rec in dedup.records:
            g = graph6_decode(rec.graph_id)
            assert canonical_graph6(g) == rec.graph_id  # the canonical member
            dedup_classes.add((rec.graph_id, rec.theorem_id))
            # each class's labeled copies all agree with the representative
            statuses = by_class[(rec.graph_id, rec.theorem_id)]
            assert set(statuses) == {rec.status}
        assert dedup_classes == set(by_class)

    def test_dedup_verdict_multiset_spot_check_order6(self, order6_sweep):
        base, _ = order6_sweep
        dedup = run_sweep(
            SweepConfig(mode="all_graphs", max_order=6, workers=2, dedup=True)
        )
        # labeled copies of one isomorphism class must share each verdict
        dedup_status = {
            (r.graph_id, r.theorem_id): r.status for r in dedup.records
        }
        seen_classes = set()
        for rec in base.records[::97]:  # spot sample across the record stream
            key = (canonical_graph6(graph6_decode(rec.graph_id)), rec.theorem_id)
            seen_classes.add(key[0])
            assert dedup_status[key] == rec.status
        assert len(seen_classes) > 50
        digest = hashlib.sha256(dedup.to_json().encode()).hexdigest()
        assert digest == DEDUP_ORDER_6_REPORT_SHA256


class TestStream:
    def test_stream_mode(self, tmp_path):
        path = tmp_path / "graphs.g6"
        lines = [
            graph6_encode(generate("complete_bipartite", 2, 2)),
            graph6_encode(generate("cycle", 5)),
            "not-a-graph6-@@@",
        ]
        path.write_text("\n".join(lines) + "\n")
        report = run_sweep(SweepConfig(mode="stream", stream_path=str(path)))
        statuses = Counter(r.status for r in report.records)
        assert statuses["aborted"] == 1
        ids = {r.theorem_id for r in report.records}
        assert "NO_PERFECT_MATCHING" in ids
        assert report.summary["totals"]["fail"] == 0

    def test_checkpoint_resume(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(
            "\n".join(
                graph6_encode(generate("cycle", k)) for k in (4, 6, 8)
            )
            + "\n"
        )
        ck = tmp_path / "ck.json"
        cfg = SweepConfig(
            mode="stream", stream_path=str(path), checkpoint=str(ck), workers=1
        )
        full = run_sweep(SweepConfig(mode="stream", stream_path=str(path)))
        resumed = run_sweep(cfg)
        assert resumed.to_json() == full.to_json()
        # a second run resumes from the completed cursor and changes nothing
        assert run_sweep(cfg).to_json() == full.to_json()


class TestCheckpointCrash:
    def test_crash_before_cursor_update_does_not_double_count(self, tmp_path, monkeypatch):
        # order 4 plans two shards; the crash lands after the second shard's
        # records are appended and before its cursor replaces the old one
        from forcing_lab import sweep

        ck = tmp_path / "ck.json"
        cfg = SweepConfig(mode="all_graphs", max_order=4, workers=1, checkpoint=str(ck))
        full = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        real_replace = sweep.os.replace
        calls = []

        def crash_on_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(sweep.os, "replace", crash_on_second)
        with pytest.raises(OSError, match="simulated crash"):
            run_sweep(cfg)
        monkeypatch.undo()
        # a torn write after the last completed shard is dropped as well
        with open(str(ck) + ".records.jsonl", "a") as fh:
            fh.write('{"theorem_id": "THM_')
        resumed = run_sweep(cfg)
        assert resumed.summary["graphs_verified"] == 38
        assert resumed.to_json() == full.to_json()


class TestCheckpointFingerprint:
    # the fingerprint of an order-4 cursor written while dedup kept, of each
    # class, the member with the smallest upper-triangle column string
    EARLIER = (
        '{"dedup": %s, "failures_only": false, "limits": [100000, 10000000, 1000000], '
        '"max_order": 4, "mode": "all_graphs", "require_pm": true, "schema": 1, '
        '"side": 3, "stream_path": null}'
    )

    def run_and_restamp(self, tmp_path, dedup):
        ck = tmp_path / "ck.json"
        cfg = SweepConfig(
            mode="all_graphs", max_order=4, workers=1, dedup=dedup, checkpoint=str(ck)
        )
        report = run_sweep(cfg)
        cursor = json.loads(ck.read_text())
        cursor["fingerprint"] = self.EARLIER % json.dumps(dedup)
        ck.write_text(json.dumps(cursor))
        return cfg, report

    def test_earlier_labelled_cursor_resumes(self, tmp_path):
        cfg, report = self.run_and_restamp(tmp_path, dedup=False)
        assert run_sweep(cfg).to_json() == report.to_json()

    def test_earlier_dedup_cursor_refused(self, tmp_path):
        cfg, _ = self.run_and_restamp(tmp_path, dedup=True)
        with pytest.raises(GraphError, match="different sweep config"):
            run_sweep(cfg)


class TestReportShape:
    def test_counts_match_records(self):
        report = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        counted = Counter(r.status for r in report.records)
        totals = report.summary["totals"]
        for status in ("pass", "fail", "inapplicable", "counterexample", "aborted"):
            assert totals[status] == counted.get(status, 0)

    def test_failures_only_drops_passes(self):
        report = run_sweep(
            SweepConfig(mode="all_graphs", max_order=4, workers=1, failures_only=True)
        )
        assert report.records == []
        assert report.summary["totals"]["pass"] > 0

    def test_counterexample_injection_reporting(self):
        # the counterexample path is exercised with a fabricated record
        fake = VerdictRecord(
            "CONJ_5_1", "Cr", {"n": 2, "e": 3}, "4", 3, "counterexample", "n/a", ""
        )
        counts = {"CONJ_5_1": {"pass": 0, "fail": 0, "inapplicable": 0,
                               "counterexample": 1, "aborted": 0}}
        cfg = SweepConfig(mode="all_graphs", max_order=4)
        report = build_report(cfg, [fake], counts, 1)
        assert report.summary["counterexamples_found"]
        from forcing_lab.cli import _finish_report

        # --strict-conjectures sets only the exit code
        args = argparse.Namespace(
            json_path=None, csv_path=None, workers=1, strict_conjectures=True
        )
        assert _finish_report(report, args, 0.0) == 4
        args.strict_conjectures = False
        assert _finish_report(report, args, 0.0) == 0

    def test_json_and_csv_outputs(self, tmp_path):
        report = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        jpath.write_text(report.to_json())
        report.write_csv(str(cpath))
        payload = json.loads(jpath.read_text())
        assert payload["schema_version"] == 1
        assert "wall" not in json.dumps(payload)  # determinism: no timing inside
        header = cpath.read_text().splitlines()[0]
        assert header.startswith("graph6,theorem_id,")
        assert len(cpath.read_text().splitlines()) == len(report.records) + 1


class TestShardPlanning:
    def test_shards_cover_space(self):
        shards = plan_shards(SweepConfig(mode="all_graphs", max_order=6))
        orders = {s.order for s in shards}
        assert orders == {2, 4, 6}
        for s in shards:
            assert s.total_bits == s.order * (s.order - 1) // 2

    def test_largest_universes_plan(self):
        # 2**28 edge masks at order 8 and 2**25 at side 5, 2**16 masks a shard
        shards = plan_shards(SweepConfig(mode="all_graphs", max_order=9))
        assert max(s.order for s in shards) == 8
        assert sum(s.order == 8 for s in shards) == 2**12
        shards = plan_shards(SweepConfig(mode="bipartite_balanced", side=5))
        assert len(shards) == 2**9 and shards[-1].total_bits == 25

    @pytest.mark.parametrize(
        "config, bits",
        [
            (SweepConfig(mode="all_graphs", max_order=10), 45),
            (SweepConfig(mode="bipartite_balanced", side=6), 36),
        ],
    )
    def test_oversized_universe_refused_before_planning(self, config, bits, monkeypatch):
        def no_shards(*args):
            raise AssertionError("a shard was planned for an oversized universe")

        monkeypatch.setattr(sweep, "_shards_for_masks", no_shards)
        with pytest.raises(GraphError, match=f"^2[*][*]{bits} edge masks in one universe"):
            plan_shards(config)

    @pytest.mark.parametrize("side", [0, -1])
    def test_side_below_one_refused_before_planning(self, side, monkeypatch):
        def no_shards(*args):
            raise AssertionError("a shard was planned for a side below 1")

        monkeypatch.setattr(sweep, "_shards_for_masks", no_shards)
        with pytest.raises(GraphError, match="side of at least 1"):
            plan_shards(SweepConfig(mode="bipartite_balanced", side=side))


class TestCli:
    def test_compute_family(self, capsys):
        assert main(["compute", "H:6,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["e"] == 30
        assert payload["f"] == 2

    def test_compute_graph6_k2(self, capsys):
        assert main(["compute", "A_"]) == 0
        out = capsys.readouterr().out
        assert "f(G)=0" in out and "F(G)=0" in out

    def test_compute_q3(self, capsys):
        assert main(["compute", "Q:3", "--json", "--no-cycles"]) == 0
        assert json.loads(capsys.readouterr().out)["f"] == 2

    def test_compute_parse_error_exit2(self, capsys):
        assert main(["compute", "H:bad"]) == 2
        assert main(["compute", "@@@@"]) == 2

    def test_compute_resource_exit3(self, capsys):
        assert main(["compute", "Knn:4", "--pm-limit", "3"]) == 3

    def test_compute_node_limit_follows_the_compiled_values(self, capsys):
        # the witness searches spend nodes as the value searches do, so
        # compute hits a node ceiling exactly where spectrum does
        from forcing_lab.cli import _parse_input_graph
        from forcing_lab.matchings import matching_from_edges
        from forcing_lab.solver import (
            SolverLimits,
            is_anti_forcing_set,
            is_forcing_set,
            spectrum,
        )

        assert main(["compute", "cycle:6", "--json", "--no-cycles", "--node-limit", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        g = _parse_input_graph("cycle:6")
        fw, aw = payload["forcing_witness"], payload["anti_forcing_witness"]
        assert is_forcing_set(g, matching_from_edges(fw["matching"]), fw["forcing_set"])
        assert is_anti_forcing_set(
            g, matching_from_edges(aw["matching"]), aw["removed_edges"]
        )
        for text in ("cycle:6", "MJoin:3,1"):
            g = _parse_input_graph(text)
            for node_limit in range(1, 41):
                try:
                    spec = spectrum(
                        g, limits=SolverLimits(node_limit=node_limit), with_anti_forcing=True
                    )
                    finishes = spec.af_error is None
                except ResourceLimitError:
                    finishes = False
                argv = ["compute", text, "--json", "--no-cycles", "--node-limit", str(node_limit)]
                assert main(argv) == (0 if finishes else 3), (text, node_limit)
                capsys.readouterr()

    def test_generate_h50(self, capsys):
        assert main(["generate", "H:5,0"]) == 0
        line = capsys.readouterr().out.strip()
        from forcing_lab.families import make_H

        assert graph6_decode(line) == make_H(5, 0)

    def test_generate_grid(self, capsys):
        assert main(["generate", "grid:4x4"]) == 0
        g = graph6_decode(capsys.readouterr().out.strip())
        assert g.order == 16 and g.edge_count == 24

    def test_generate_g1_expands(self, capsys):
        assert main(["generate", "G1:3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(set(lines)) >= 4

    def test_generate_parse_error(self, capsys):
        assert main(["generate", "nope:1"]) == 2

    def test_generate_limit_zero_prints_nothing(self, capsys):
        assert main(["generate", "cycle:6", "--limit", "0"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["generate", "G1:3", "--limit", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_generate_negative_limit_exit2(self, capsys):
        assert main(["generate", "cycle:6", "--limit", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_verify_stream_exit0(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(
            "\n".join(
                graph6_encode(generate("complete_bipartite", n, n)) for n in (2, 3, 4)
            )
            + "\n"
        )
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 fail" in out

    def test_verify_stream_with_c5(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(graph6_encode(generate("cycle", 5)) + "\n")
        assert main(["verify", str(path)]) == 0

    def test_sweep_cli_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["sweep", "--max-order", "4", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["totals"]["fail"] == 0

    def test_sweep_strict_conjectures_clean_exit0(self, tmp_path, capsys):
        assert main(["sweep", "--max-order", "4", "--strict-conjectures"]) == 0

    def test_sweep_rejects_large_order(self, capsys):
        assert main(["sweep", "--max-order", "14"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["--max-order", "10"], ["--mode", "bipartite_balanced", "--side", "6"]],
    )
    def test_sweep_rejects_universe_over_2_28_masks(self, argv, capsys):
        assert main(["sweep", *argv]) == 2
        assert "edge masks in one universe; sweeps stop at 2**28" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["0", "-1"])
    def test_sweep_rejects_side_below_one(self, side, capsys):
        assert main(["sweep", "--mode", "bipartite_balanced", "--side", side]) == 2
        assert "side of at least 1" in capsys.readouterr().err

    def test_workers_env_default(self, monkeypatch):
        from forcing_lab.cli import _default_workers

        monkeypatch.setenv("FORCING_LAB_WORKERS", "5")
        assert _default_workers() == 5
        monkeypatch.setenv("FORCING_LAB_WORKERS", "junk")
        assert _default_workers() == 1
