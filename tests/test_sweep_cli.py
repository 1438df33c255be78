import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest

from conftest import ROOT, family_stream_lines, order8_sample_lines, report_json
from forcing_lab.cli import main
from forcing_lab.errors import GraphError, ResourceLimitError
from forcing_lab.graphs import (
    build_graph,
    canonical_graph6,
    generate,
    graph6_decode,
    graph6_encode,
)
from forcing_lab.matchings import has_perfect_matching
from forcing_lab import _backend, graphs, sweep, verify
from forcing_lab.sweep import SweepConfig, build_report, plan_shards, run_sweep
from forcing_lab.verify import CSV_COLUMNS, VerdictRecord, record_csv_row, verify_graph


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
        assert report_json(run_sweep(cfg1)) == report_json(run_sweep(cfg8))

    def test_bipartite_workers_determinism(self):
        cfg1 = SweepConfig(mode="bipartite_balanced", side=3, workers=1)
        cfg2 = SweepConfig(mode="bipartite_balanced", side=3, workers=2)
        assert report_json(run_sweep(cfg1)) == report_json(run_sweep(cfg2))


# sha256 of the isomorph-free order-6 and side-3 reports, the bytes
# `sweep --max-order 6 --dedup --json` and
# `sweep --mode bipartite_balanced --side 3 --dedup --json` write
DEDUP_ORDER_6_REPORT_SHA256 = "604da8b50b4103821a28abdfc30a5a0cfafffda5ae8789268dacf42854808fcb"
DEDUP_SIDE_3_REPORT_SHA256 = "0369dadd069e6727233e7ece53cd31efde7bae426178d7b04e568609a7b8e7dd"


def assert_one_member_per_class(base, dedup):
    """``dedup`` holds the canonical member of each class of the labelled
    sweep ``base``, and each class's labelled copies agree with it."""
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


class TestDedup:
    def test_dedup_keeps_one_per_class_order4(self):
        base = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        dedup = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1, dedup=True))
        assert_one_member_per_class(base, dedup)

    def test_dedup_keeps_one_per_class_side3(self):
        # no canonical member has the side-major bipartition of the
        # labelled universe, so dedup keeps members from outside it
        base = run_sweep(SweepConfig(mode="bipartite_balanced", side=3, workers=1))
        dedup = run_sweep(
            SweepConfig(mode="bipartite_balanced", side=3, workers=1, dedup=True)
        )
        universe = (sweep.bipartite_graph_from_mask(3, mask) for mask in range(1 << 9))
        classes = {canonical_graph6(g) for g in universe if has_perfect_matching(g)}
        assert {rec.graph_id for rec in dedup.records} == classes
        assert dedup.summary["graphs_verified"] == len(classes) == 12
        assert_one_member_per_class(base, dedup)
        digest = hashlib.sha256(report_json(dedup).encode()).hexdigest()
        assert digest == DEDUP_SIDE_3_REPORT_SHA256

    def test_dedup_bytes_do_not_depend_on_workers(self):
        one, two = (
            report_json(
                run_sweep(SweepConfig(mode="all_graphs", max_order=6, workers=w, dedup=True))
            )
            for w in (1, 2)
        )
        assert one == two
        assert hashlib.sha256(one.encode()).hexdigest() == DEDUP_ORDER_6_REPORT_SHA256

    def test_dedup_resumes_after_its_first_shard(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck.json"
        cfg = SweepConfig(
            mode="all_graphs", max_order=6, workers=1, dedup=True, checkpoint=str(ck)
        )
        real_replace = sweep.os.replace

        def stop_after_cursor(src, dst):
            real_replace(src, dst)
            raise OSError("stopped")

        monkeypatch.setattr(sweep.os, "replace", stop_after_cursor)
        with pytest.raises(OSError, match="stopped"):
            run_sweep(cfg)
        monkeypatch.undo()
        assert json.loads(ck.read_text())["completed_shards"] == 1
        digest = hashlib.sha256(report_json(run_sweep(cfg)).encode()).hexdigest()
        assert digest == DEDUP_ORDER_6_REPORT_SHA256

    def test_dedup_reports_unchanged_on_the_python_backend(self):
        # the twin's class recognizers, end to end: both isomorph-free pins
        # in one process whose kernels are all the twin's
        code = (
            "import hashlib, io\n"
            "from forcing_lab import BACKEND_NAME\n"
            "from forcing_lab.sweep import SweepConfig, run_sweep\n"
            "print(BACKEND_NAME)\n"
            "for mode, size in (('all_graphs', {'max_order': 6}), ('bipartite_balanced', {'side': 3})):\n"
            "    out = io.StringIO()\n"
            "    run_sweep(SweepConfig(mode=mode, workers=1, dedup=True, **size)).write_json(out)\n"
            "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        )
        env = {
            **os.environ,
            "FORCING_LAB_BACKEND": "python",
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path]),
        }
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "python", DEDUP_ORDER_6_REPORT_SHA256, DEDUP_SIDE_3_REPORT_SHA256
        ]

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
        digest = hashlib.sha256(report_json(dedup).encode()).hexdigest()
        assert digest == DEDUP_ORDER_6_REPORT_SHA256


# sha256 of the `verify --workers 1 --json --csv` reports of the 39-graph
# family stream in TestStream.test_family_stream_report_bytes
FAMILY_STREAM_JSON_SHA256 = "dad8d9eed135a161257dd4e6d54ddbe92e66097253ee71eab15e1b6b321365ae"
FAMILY_STREAM_CSV_SHA256 = "30db2c0f3f1117d39cad70b4bc142d0340ed392205fecfbeece6b90518d4bfd0"


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
        assert report_json(resumed) == report_json(full)
        # a second run resumes from the completed cursor and changes nothing
        assert report_json(run_sweep(cfg)) == report_json(full)

    def test_family_stream_report_bytes(self, tmp_path, capsys):
        # three records of HhatJoin:6,2 abort at the af search's node ceiling
        lines = family_stream_lines()
        assert len(lines) == 39
        stream, report, table = (tmp_path / name for name in ("in.g6", "out.json", "out.csv"))
        stream.write_text("\n".join(lines) + "\n")
        argv = ["verify", str(stream), "--workers", "1", "--json", str(report)]
        assert main(argv + ["--csv", str(table)]) == 0
        capsys.readouterr()
        records = json.loads(report.read_text())["records"]
        assert Counter(r["status"] for r in records)["aborted"] == 3
        assert hashlib.sha256(report.read_bytes()).hexdigest() == FAMILY_STREAM_JSON_SHA256
        assert hashlib.sha256(table.read_bytes()).hexdigest() == FAMILY_STREAM_CSV_SHA256


    def test_non_utf8_line_is_an_input_record(self, tmp_path, capsys):
        # the bytes \xff\xfe stand as written, so the CSV can hold the line;
        # K2 written with a header or padded by blanks keeps its graph6 id
        stream, report, table = (tmp_path / name for name in ("in.g6", "out.json", "out.csv"))
        stream.write_bytes(b"A_\r\n\xff\xfe\n\n>>graph6<<A_\r\n  A_ \t\r\nzz\r\n")
        argv = ["verify", str(stream), "--json", str(report), "--csv", str(table)]
        assert main(argv) == 0  # as for "zz", a line that is not graph6
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["summary"]["graphs_verified"] == 5
        records = payload["records"]
        k2 = [r for r in records if r["graph_id"] == "A_"]
        assert len(k2) == 3 * len(verify_graph(generate("complete", 2)))
        assert {r["graph_id"] for r in records} == {"A_", "\\xff\\xfe", "zz"}
        aborted = [(r["graph_id"], r["detail"]) for r in records if r["status"] == "aborted"]
        assert aborted == [
            ("\\xff\\xfe", "line is not UTF-8"), ("zz", "graph6 order 59 outside 1..32")
        ]
        rows = table.read_text().splitlines()
        assert [row for row in rows if ",INPUT," in row] == [
            "\\xff\\xfe,INPUT,,,,,,,,,,,,,,aborted,n/a",
            "zz,INPUT,,,,,,,,,,,,,,aborted,n/a",
        ]


# sha256 of the `verify --workers 2 --json --csv` reports of the order-8
# sample in TestOrder8Sample
ORDER_8_SAMPLE_JSON_SHA256 = "f8dc22b6749dd405c2331b273c15b22b43be109f3742688c8ceff203b7acdc35"
ORDER_8_SAMPLE_CSV_SHA256 = "cc994d4ea2f9a72496be14642d9fcbb003dbc9b79e943181a6ea10506f5c29c8"


@pytest.fixture(scope="module")
def order8_sample(tmp_path_factory):
    """The seeded order-8 sample (``order8_sample_lines``) and the JSON and
    CSV reports of `verify` by a pool of two workers."""
    lines = order8_sample_lines()
    tmp_path = tmp_path_factory.mktemp("order8_sample")
    stream, report, table = (tmp_path / name for name in ("in.g6", "out.json", "out.csv"))
    stream.write_text("\n".join(lines) + "\n")
    argv = ["verify", str(stream), "--workers", "2", "--json", str(report)]
    assert main(argv + ["--csv", str(table)]) == 0
    return lines, report, table


class TestOrder8Sample:
    def test_order8_sample_report_bytes(self, order8_sample):
        _, report, table = order8_sample
        assert hashlib.sha256(report.read_bytes()).hexdigest() == ORDER_8_SAMPLE_JSON_SHA256
        assert hashlib.sha256(table.read_bytes()).hexdigest() == ORDER_8_SAMPLE_CSV_SHA256

    def test_one_class_kernel_call_per_graph(self, order8_sample, monkeypatch):
        # every sampled graph has a perfect matching, and all its class
        # flags, THM_4_3's predictor among them, come from one kernel call;
        # no check finds components of its own
        lines, report, _ = order8_sample
        calls = Counter()
        for module, name in ((_backend, "class_flags"), (graphs, "mask_components")):
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        out = report.with_name("one_worker.json")
        argv = ["verify", str(report.with_name("in.g6")), "--workers", "1"]
        assert main(argv + ["--json", str(out)]) == 0
        assert calls == Counter(class_flags=len(lines))
        assert out.read_bytes() == report.read_bytes()


# graphs of 2, 4, 6 and 8 vertices with a perfect matching, one per class:
# 1 + 6 + 101 + 10,413
ORDER_8_DEDUP_GRAPHS = 10_521


class TestOrder8Dedup:
    def test_order8_dedup_sweep(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["sweep", "--max-order", "8", "--dedup", "--failures-only", "--workers", "2"]
        start = time.monotonic()
        assert main(argv + ["--json", str(out)]) == 0
        elapsed = time.monotonic() - start
        capsys.readouterr()
        payload = json.loads(out.read_text())
        summary = payload["summary"]
        assert summary["graphs_verified"] == ORDER_8_DEDUP_GRAPHS
        assert summary["totals"]["fail"] == 0, summary["by_theorem"]
        assert summary["totals"]["counterexample"] == 0
        assert summary["totals"]["aborted"] == 0
        assert payload["records"] == []
        assert elapsed < 60, f"isomorph-free order-8 sweep took {elapsed:.1f}s"

    def test_order8_sample_agrees_with_its_classes(self, order8_sample):
        # the labelled route: each sampled graph's records, as `verify`
        # reports them, are its class's records in the isomorph-free sweep
        lines, report, _ = order8_sample
        dedup = run_sweep(SweepConfig(mode="all_graphs", max_order=8, workers=2, dedup=True))
        assert dedup.summary["graphs_verified"] == ORDER_8_DEDUP_GRAPHS
        by_class, by_graph = {}, {}
        for rec in dedup.records:
            by_class.setdefault(rec.graph_id, {})[rec.theorem_id] = rec.status
        for rec in json.loads(report.read_text())["records"]:
            by_graph.setdefault(rec["graph_id"], {})[rec["theorem_id"]] = rec["status"]
        assert set(by_graph) == set(lines)
        for line, statuses in by_graph.items():
            assert statuses == by_class[canonical_graph6(graph6_decode(line))], line


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
        assert report_json(resumed) == report_json(full)


class TestCheckpointRecords:
    def test_record_lines_are_report_bytes(self, tmp_path):
        ck = tmp_path / "ck.json"
        report = run_sweep(
            SweepConfig(mode="all_graphs", max_order=4, workers=1, checkpoint=str(ck))
        )
        text = report_json(report)
        lines = (tmp_path / "ck.json.records.jsonl").read_text().splitlines()
        record_lines = [line for line in lines if "shard_counts" not in line]
        assert len(record_lines) == len(report.records) > 0
        for line in record_lines:
            assert line in text

    def test_row_pieces_match_the_encoder(self, tmp_path):
        from forcing_lab.verify import verify_known_values

        ck = tmp_path / "ck.json"
        cfg = SweepConfig(mode="all_graphs", max_order=4, workers=1, checkpoint=str(ck))
        swept = run_sweep(cfg).rows  # rows interned per process
        loaded = sweep._load_checkpoint(cfg)[1]  # rows regrouped from the record lines
        assert len(loaded) == len(swept)
        odd = 'back\\slash "quoted" caf\u00e9 \u2603'
        made = [
            VerdictRecord("INPUT", odd, {}, "", None, "aborted", "n/a", odd),
            VerdictRecord("INPUT", odd, {}, "", None, "aborted", "n/a", "graph6 " + odd),
            VerdictRecord("KNOWN_VALUE", "Cr", {"family": odd, "quantity": "f"}, "2", 2, "pass"),
            VerdictRecord("THM_4_2", "Cr", {"n": 2, "e": 4}, "b", True, "fail", "n/a", odd),
            VerdictRecord("THM_4_2", "Cr", {"n": 2, "e": 4}, "b", False, "pass"),
            VerdictRecord("THM_4_2", "Cr", {"n": 2, "e": 4}, "b", -3, "pass"),
        ]
        for rows in (swept, loaded, sweep.rows_of_records(verify_known_values(["Q:2", "pc:2x3"]))):
            for graph_id, row in rows:
                records = sorted(row.records(graph_id), key=lambda r: r.theorem_id)
                assert sweep._escape(graph_id).join(row.json_pieces()) == encoded(records)
        # "Cr" has two rows with different inputs, merged into one report entry
        merged = build_report(cfg, list(sweep.rows_of_records(made)), {}, 0)
        in_order = sorted(made, key=lambda r: (r.graph_id, r.theorem_id))
        assert records_bytes(report_json(merged)) == encoded(in_order)

    def test_spaced_records_file_resumes(self, tmp_path):
        # the first shard's lines as earlier versions wrote them, with ", "
        # and ": ", and a cursor that names that shard complete
        ck = tmp_path / "ck.json"
        records_path = tmp_path / "ck.json.records.jsonl"
        cfg = SweepConfig(mode="all_graphs", max_order=4, workers=1, checkpoint=str(ck))
        full = run_sweep(cfg)
        spaced = []
        for line in records_path.read_text().splitlines():
            obj = json.loads(line)
            if "shard_counts" in obj:
                spaced.append(json.dumps(obj) + "\n")
                break
            spaced.append(json.dumps(obj, sort_keys=True) + "\n")
        records_path.write_text("".join(spaced))
        assert '", "' in spaced[0] and '": ' in spaced[0]
        cursor = json.loads(ck.read_text())
        cursor.update(completed_shards=1, records_offset=records_path.stat().st_size)
        ck.write_text(json.dumps(cursor))
        assert report_json(run_sweep(cfg)) == report_json(full)

    def test_verify_cursor_and_environment(self, tmp_path, capsys):
        stream, ck, out = (tmp_path / name for name in ("in.g6", "ck.json", "r.json"))
        stream.write_text(graph6_encode(generate("cycle", 4)) + "\n")
        argv = ["verify", str(stream), "--checkpoint", str(ck), "--json", str(out)]
        assert main(argv) == 0
        cfg = SweepConfig(mode="stream", stream_path=str(stream))
        assert json.loads(ck.read_text())["fingerprint"] == cfg.fingerprint()
        environment = build_report(cfg, [], {}, 0).environment
        assert json.loads(out.read_text())["environment"] == environment


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
        assert report_json(run_sweep(cfg)) == report_json(report)

    def test_earlier_dedup_cursor_refused(self, tmp_path):
        cfg, _ = self.run_and_restamp(tmp_path, dedup=True)
        with pytest.raises(GraphError, match="different sweep config"):
            run_sweep(cfg)

    def test_cursor_of_the_coarser_shards_refused(self, tmp_path):
        # order 6 was one shard of 2**15 masks, so an order-6 cursor of that
        # rule names no shards; resuming it would skip 2**15 masks
        ck = tmp_path / "ck.json"
        cfg = SweepConfig(mode="all_graphs", max_order=6, workers=1, checkpoint=str(ck))
        earlier = self.EARLIER.replace('"max_order": 4', '"max_order": 6') % "false"
        assert json.loads(cfg.fingerprint()) == {
            **json.loads(earlier),
            "shards": sweep._SHARD_RULE,
        }
        ck.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "fingerprint": earlier,
                    "completed_shards": 1,
                    "records_offset": 0,
                }
            )
        )
        with pytest.raises(GraphError, match="different sweep config"):
            run_sweep(cfg)

    def test_cursor_of_the_mask_filter_dedup_refused(self, tmp_path):
        # dedup used to filter the edge masks, so its shards were not the
        # class shards of today
        ck = tmp_path / "ck.json"
        cfg = SweepConfig(
            mode="all_graphs", max_order=4, workers=1, dedup=True, checkpoint=str(ck)
        )
        run_sweep(cfg)
        cursor = json.loads(ck.read_text())
        old_rule = "equals-canonical_graph6/refine-individualize"
        cursor["fingerprint"] = cursor["fingerprint"].replace(sweep._DEDUP_RULE, old_rule)
        assert old_rule in cursor["fingerprint"]
        ck.write_text(json.dumps(cursor))
        with pytest.raises(GraphError, match="different sweep config"):
            run_sweep(cfg)


def reference_records(lines):
    """The records of a stream, built record by record: each line's
    ``verify_graph`` records, or its INPUT record when it does not decode,
    sorted by (graph_id, theorem_id)."""
    records = []
    for line in lines:
        try:
            g = graph6_decode(line)
        except GraphError as exc:
            records.append(VerdictRecord("INPUT", line, {}, "", None, "aborted", "n/a", str(exc)))
        else:
            records += verify_graph(g)
    return sorted(records, key=lambda r: (r.graph_id, r.theorem_id))


def records_bytes(report_text: str) -> str:
    """The records array of a JSON report, without its brackets."""
    start = report_text.index('"records":[') + len('"records":[')
    return report_text[start : report_text.rindex('],"schema_version":')]


def encoded(records) -> str:
    return ",".join(sweep._encode(rec.to_json_dict()) for rec in records)


def recount(records) -> dict:
    counts = {}
    for rec in records:
        counts.setdefault(rec.theorem_id, Counter())[rec.status] += 1
    return counts


def nonzero(by_theorem: dict) -> dict:
    return {tid: Counter({s: n for s, n in slot.items() if n}) for tid, slot in by_theorem.items()}


# two labellings of C_4, one inputs key
C4_ONE = generate("cycle", 4)
C4_TWO = build_graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])


class TestVerdictRows:
    def test_repeated_graph_ids_keep_the_record_order(self, tmp_path, monkeypatch, capsys):
        # repeated good lines, next to each other and apart, repeated bad
        # lines and a line without a perfect matching, four lines a shard
        monkeypatch.setattr(sweep, "_STREAM_SHARD_LINES", 4)
        c6, c4, other = (graph6_encode(g) for g in (generate("cycle", 6), C4_ONE, C4_TWO))
        lines = [c6, "zz", other, c6, "A?", "zz", c4, other, other, "@@", c6, "A?", c4]
        stream = tmp_path / "in.g6"
        stream.write_text("\n".join(lines) + "\n")
        records = reference_records(lines)
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(record_csv_row(rec) for rec in records)

        def check(name, *flags):
            report, csv_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            argv = ["verify", str(stream), "--json", str(report), "--csv", str(csv_path)]
            assert main(argv + list(flags)) == 0
            capsys.readouterr()
            text = report.read_text()
            assert records_bytes(text) == encoded(records)
            assert csv_path.read_bytes().decode() == table.getvalue()
            summary = json.loads(text)["summary"]
            assert summary["graphs_verified"] == len(lines)
            assert nonzero(summary["by_theorem"]) == recount(records)

        check("one", "--workers", "1")
        check("two", "--workers", "2")
        ck = tmp_path / "ck.json"
        real_replace = sweep.os.replace

        def stop_after_cursor(src, dst):
            real_replace(src, dst)
            raise OSError("stopped")

        monkeypatch.setattr(sweep.os, "replace", stop_after_cursor)
        with pytest.raises(OSError, match="stopped"):
            run_sweep(SweepConfig(mode="stream", stream_path=str(stream), checkpoint=str(ck)))
        monkeypatch.setattr(sweep.os, "replace", real_replace)
        assert json.loads(ck.read_text())["completed_shards"] == 1
        check("resumed", "--workers", "1", "--checkpoint", str(ck))

    def test_failing_rows_keep_their_own_witnesses(self, monkeypatch):
        # an injected entry fails on every graph, so every row holds a witness
        fails = verify._Bound("COR_3_1", "none", "e_upper", lambda c: -1)
        monkeypatch.setattr(verify, "THEOREMS", verify.THEOREMS + (fails,))
        full = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        universe = []
        for order in (2, 4):
            pairs = sweep._all_pairs(order)
            for mask in range(1 << len(pairs)):
                g = sweep.graph_from_edge_mask(order, pairs, mask)
                if has_perfect_matching(g):
                    universe.append(graph6_encode(g))
        records = reference_records(universe)
        assert records_bytes(report_json(full)) == encoded(records)
        details = {
            rec.graph_id: rec.detail
            for rec in full.records
            if rec.theorem_id == "COR_3_1" and rec.status == "fail"
        }
        assert len(details) == len(universe)
        for g in (C4_ONE, C4_TWO):
            gid = graph6_encode(g)
            assert details[gid] == verify._Facts(g, gid, verify.DEFAULT_LIMITS).witness()
        assert details[graph6_encode(C4_ONE)] != details[graph6_encode(C4_TWO)]
        assert nonzero(full.summary["by_theorem"]) == recount(full.records)
        kept = run_sweep(
            SweepConfig(mode="all_graphs", max_order=4, workers=1, failures_only=True)
        )
        failing = [r for r in records if r.status in ("fail", "counterexample", "aborted")]
        assert records_bytes(report_json(kept)) == encoded(failing) != ""
        assert kept.summary == full.summary

    def test_rows_keep_true_apart_from_one(self, monkeypatch):
        # the two labellings of C_4 share every verdict but this one, whose
        # observed is True on one of them and 1 on the other
        flag = verify._Custom(
            "OBSERVED_FLAG",
            lambda c: verify._OwnVerdict(
                ("flag", True if c.g.has_edge(0, 1) else 1, "pass", "n/a", "")
            ),
        )
        monkeypatch.setattr(verify, "THEOREMS", verify.THEOREMS + (flag,))
        for workers in (1, 2):
            report = report_json(
                run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=workers))
            )
            for g, observed in ((C4_ONE, "true"), (C4_TWO, "1")):
                (rec,) = [r for r in verify_graph(g) if r.theorem_id == "OBSERVED_FLAG"]
                assert f'"observed":{observed},' in sweep._encode(rec.to_json_dict())
                assert sweep._encode(rec.to_json_dict()) in report

    def test_warm_sweep_holds_rows_not_records(self):
        # the side-3 sweep keeps all 5,434 of its records; in a warm process
        # it builds only the report's (graph_id, row) pairs
        cfg = SweepConfig(mode="bipartite_balanced", side=3, workers=1)
        run_sweep(cfg)
        tracemalloc.start()
        try:
            report = run_sweep(cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(report.records) == 5434
        assert retained < 400 * 1024


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
        report = build_report(cfg, list(sweep.rows_of_records([fake])), counts, 1)
        assert report.summary["counterexamples_found"]
        from forcing_lab.cli import _finish_report

        # --strict-conjectures sets only the exit code
        args = argparse.Namespace(workers=1, strict_conjectures=True)
        assert _finish_report(report, None, None, args, 0.0) == 4
        args.strict_conjectures = False
        assert _finish_report(report, None, None, args, 0.0) == 0

    def test_write_json_holds_no_whole_report(self, tmp_path):
        report = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        path = tmp_path / "report.json"
        with open(path, "w") as fh:
            tracemalloc.start()
            try:
                report.write_json(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert path.stat().st_size == 219_625
        assert peak < 256 * 1024

    def test_json_and_csv_outputs(self, tmp_path):
        report = run_sweep(SweepConfig(mode="all_graphs", max_order=4, workers=1))
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        with open(jpath, "w") as fh:
            report.write_json(fh)
        with open(cpath, "w", newline="") as fh:
            report.write_csv(fh)
        payload = json.loads(jpath.read_text())
        assert payload["schema_version"] == 1
        assert "wall" not in json.dumps(payload)  # determinism: no timing inside
        header = cpath.read_text().splitlines()[0]
        assert header.startswith("graph6,theorem_id,")
        assert len(cpath.read_text().splitlines()) == len(report.records) + 1


class TestShardPlanning:
    def test_shards_cover_space(self):
        shards = list(plan_shards(SweepConfig(mode="all_graphs", max_order=6)))
        orders = {s.order for s in shards}
        assert orders == {2, 4, 6}
        for s in shards:
            assert s.total_bits == s.order * (s.order - 1) // 2

    def test_largest_universes_plan(self):
        # 2**28 edge masks at order 8 and 2**25 at side 5, 2**12 masks a shard
        shards = list(plan_shards(SweepConfig(mode="all_graphs", max_order=9)))
        assert max(s.order for s in shards) == 8
        assert sum(s.order == 8 for s in shards) == 2**16
        shards = list(plan_shards(SweepConfig(mode="bipartite_balanced", side=5)))
        assert len(shards) == 2**13 and shards[-1].total_bits == 25

    def test_small_universes_split_for_workers(self):
        # orders 2 and 4 fit one shard; order 6, 2**15 masks, is cut in 8
        shards = list(plan_shards(SweepConfig(mode="all_graphs", max_order=6)))
        assert [sum(s.order == k for s in shards) for k in (2, 4, 6)] == [1, 1, 8]
        shards = list(plan_shards(SweepConfig(mode="bipartite_balanced", side=4)))
        assert len(shards) == 16

    @pytest.mark.parametrize(
        "config",
        [
            SweepConfig(mode="all_graphs", max_order=5),
            SweepConfig(mode="bipartite_balanced", side=3),
        ],
    )
    def test_report_bytes_independent_of_shards_and_workers(self, config, monkeypatch):
        # 4 masks a shard and the rule's 2**12, on one worker and on two
        reports, shards = set(), []
        for bits in (2, sweep._SHARD_TARGET_BITS):
            monkeypatch.setattr(sweep, "_SHARD_TARGET_BITS", bits)
            shards.append(len(list(plan_shards(config))))
            for workers in (1, 2):
                reports.add(report_json(run_sweep(dataclasses.replace(config, workers=workers))))
        assert shards == ([17, 2] if config.mode == "all_graphs" else [128, 1])
        assert len(reports) == 1

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

    @pytest.mark.parametrize("max_order", [1, 0, -1])
    def test_max_order_below_two_refused_before_planning(self, max_order, monkeypatch):
        def no_shards(*args):
            raise AssertionError("a shard was planned for a max order below 2")

        monkeypatch.setattr(sweep, "_shards_for_masks", no_shards)
        with pytest.raises(GraphError, match="max order of at least 2"):
            plan_shards(SweepConfig(mode="all_graphs", max_order=max_order))

    def test_dedup_shards_hold_64_classes(self):
        shards = plan_shards(SweepConfig(mode="all_graphs", max_order=6, dedup=True))
        layout = [(s.kind, s.order, s.prefix, len(s.classes)) for s in shards]
        assert layout == [
            ("classes", 2, 0, 2),
            ("classes", 4, 0, 11),
            ("classes", 6, 0, 64),
            ("classes", 6, 64, 64),
            ("classes", 6, 128, 28),
        ]
        shards = plan_shards(SweepConfig(mode="bipartite_balanced", side=3, dedup=True))
        assert [(s.order, len(s.classes)) for s in shards] == [(6, 35)]

    def test_dedup_classes_generated_as_shards_are_read(self, monkeypatch):
        calls, real = [], sweep.graph_classes

        def graph_classes(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sweep, "graph_classes", graph_classes)
        shards = plan_shards(SweepConfig(mode="all_graphs", max_order=8, dedup=True))
        assert calls == []
        assert next(shards).order == 2
        assert calls == [(8, False)]

    @pytest.mark.parametrize(
        "config",
        [
            SweepConfig(mode="all_graphs", max_order=10, dedup=True),
            SweepConfig(mode="bipartite_balanced", side=6, dedup=True),
            SweepConfig(mode="all_graphs", max_order=1, dedup=True),
        ],
    )
    def test_dedup_refusals_come_before_generation(self, config, monkeypatch):
        def no_classes(*args):
            raise AssertionError("classes were generated for a refused universe")

        monkeypatch.setattr(sweep, "graph_classes", no_classes)
        with pytest.raises(GraphError):
            plan_shards(config)

    def test_stream_read_64_lines_a_shard(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("\n\n".join([graph6_encode(generate("cycle", 4))] * 150) + "\n")
        shards = plan_shards(SweepConfig(mode="stream", stream_path=str(path)))
        assert [(s.prefix, len(s.lines)) for s in shards] == [(0, 64), (64, 64), (128, 22)]

    def test_no_pool_without_shards_to_run(self, tmp_path, monkeypatch):
        import multiprocessing

        def no_pool(*args):
            raise AssertionError("a pool was started for a sweep with nothing to do")

        ck = tmp_path / "ck.json"
        done = run_sweep(SweepConfig(mode="all_graphs", max_order=4, checkpoint=str(ck)))
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        cfg = SweepConfig(mode="all_graphs", max_order=4, workers=2, checkpoint=str(ck))
        assert report_json(run_sweep(cfg)) == report_json(done)
        empty = tmp_path / "empty.g6"
        empty.write_text("\n")
        report = run_sweep(SweepConfig(mode="stream", stream_path=str(empty), workers=2))
        assert report.summary["graphs_verified"] == 0

    def test_odd_max_order_sweeps_the_even_orders_below(self):
        assert {s.order for s in plan_shards(SweepConfig(mode="all_graphs", max_order=3))} == {2}


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

    @pytest.mark.parametrize("max_order", ["1", "0", "-1"])
    def test_sweep_rejects_max_order_below_two(self, max_order, capsys):
        assert main(["sweep", "--max-order", max_order]) == 2
        assert "max order of at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["cycle:5", "A?"])
    def test_compute_without_perfect_matching_exit2(self, text, capsys):
        assert main(["compute", text]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "no perfect matching" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "Q:3", "--pm-limit", "-1"],
            ["sweep", "--max-order", "4", "--pm-limit", "-1"],
            ["sweep", "--max-order", "4", "--node-limit", "-1"],
            ["verify", "in.g6", "--cycle-limit", "-1"],
            ["sweep", "--max-order", "4", "--workers", "0"],
            ["verify", "in.g6", "--workers", "-2"],
        ],
    )
    def test_negative_limit_or_workers_below_one_exit2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_zero_limit_is_a_ceiling(self, capsys):
        assert main(["compute", "Q:3", "--pm-limit", "0"]) == 3
        assert main(["compute", "cycle:6", "--node-limit", "0"]) == 3

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_unwritable_report_exit2_before_the_sweep(self, flag, tmp_path, monkeypatch, capsys):
        from forcing_lab import cli

        def no_sweep(config):
            raise AssertionError("the sweep ran before its report path was opened")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        target = tmp_path / "missing" / "report"
        assert main(["sweep", "--max-order", "4", flag, str(target)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_refused_sweep_keeps_an_earlier_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text("earlier\n")
        assert main(["sweep", "--max-order", "10", "--json", str(out)]) == 2
        assert out.read_text() == "earlier\n"

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_unusable_checkpoint_exit2(self, command, tmp_path, capsys):
        stream = tmp_path / "in.g6"
        stream.write_text(graph6_encode(generate("cycle", 4)) + "\n")
        argv = ["verify", str(stream)] if command == "verify" else ["sweep", "--max-order", "4"]
        assert main(argv + ["--checkpoint", str(tmp_path / "missing" / "ck")]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_python_dash_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
        proc = subprocess.run(
            [sys.executable, "-m", "forcing_lab", "generate", "cycle:4"],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stdout) == (0, graph6_encode(generate("cycle", 4)) + "\n")

    def test_workers_env_default(self, monkeypatch):
        from forcing_lab.cli import _default_workers

        monkeypatch.setenv("FORCING_LAB_WORKERS", "5")
        assert _default_workers() == 5
        monkeypatch.setenv("FORCING_LAB_WORKERS", "junk")
        assert _default_workers() == 1
