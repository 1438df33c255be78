"""Exhaustive sweep driver: enumerate graph universes, verify each graph,
merge deterministic reports.

Determinism contract: the JSON report depends only on the sweep universe
and the verification config, never on the worker count.  Workers shard the
edge-mask space by fixed prefix; shard results are merged in shard order
and records are finally sorted by (graph6, theorem_id).  Wall time goes to
stderr, not into the report.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional

from . import __version__
from .errors import GraphError
from .graphs import Graph, _raw_graph, canonical_graph6, graph6_decode, graph6_encode
from .matchings import has_perfect_matching
from .solver import DEFAULT_LIMITS, SolverLimits
from .verify import (
    ABORTED,
    COUNTEREXAMPLE,
    FAIL,
    INAPPLICABLE,
    PASS,
    VerdictRecord,
    record_csv_row,
    verify_graph,
)

SCHEMA_VERSION = 1

# Names the member each class keeps under dedup, so a checkpoint written
# under another rule is refused instead of resumed with a mixed set.
_DEDUP_RULE = "equals-canonical_graph6/refine-individualize"

_SHARD_TARGET_BITS = 16  # at most 2**16 edge masks per shard
# Every shard is planned before any is verified, so a universe's size is
# capped up front: 2**28 edge masks (order 8; side 5 has 2**25) plan 2**12
# shards, while order 10 would plan 2**29 of them (about 99 GB at 184 B a
# Shard).
_MAX_UNIVERSE_BITS = 28

STATUSES = (PASS, FAIL, INAPPLICABLE, COUNTEREXAMPLE, ABORTED)


@dataclass(frozen=True)
class SweepConfig:
    mode: str  # "all_graphs" | "bipartite_balanced" | "stream"
    max_order: int = 6
    side: int = 3
    workers: int = 1
    limits: SolverLimits = DEFAULT_LIMITS
    dedup: bool = False
    failures_only: bool = False
    stream_path: Optional[str] = None
    checkpoint: Optional[str] = None

    def fingerprint(self) -> str:
        """Identity of the sweep universe and verification config; worker
        count and output paths deliberately excluded."""
        return json.dumps(
            {
                "mode": self.mode,
                "max_order": self.max_order,
                "side": self.side,
                "require_pm": True,  # sweeps skip graphs with no perfect matching
                "dedup": _DEDUP_RULE if self.dedup else False,
                "failures_only": self.failures_only,
                "limits": [
                    self.limits.pm_limit,
                    self.limits.node_limit,
                    self.limits.cycle_limit,
                ],
                "stream_path": self.stream_path,
                "schema": SCHEMA_VERSION,
            },
            sort_keys=True,
        )


@dataclass
class Report:
    records: list[VerdictRecord]
    summary: dict
    environment: dict

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "environment": self.environment,
            "summary": self.summary,
            "records": [r.to_json_dict() for r in self.records],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def write_csv(self, path: str) -> None:
        import csv

        from .verify import CSV_COLUMNS

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in self.records:
                writer.writerow(record_csv_row(rec))


# ---------------------------------------------------------------------------
# optional dedup


def is_canonical_representative(g: Graph) -> bool:
    """True when the labeled graph equals its own canonical relabeling, so
    each isomorphism class keeps exactly one member under dedup."""
    return canonical_graph6(g) == graph6_encode(g)


# ---------------------------------------------------------------------------
# universes


def _all_pairs(order: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(order) for v in range(u + 1, order)]


def graph_from_edge_mask(order: int, pairs: list[tuple[int, int]], mask: int) -> Graph:
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    rows = [0] * order
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _raw_graph(order, rows, edges)


def bipartite_graph_from_mask(side: int, mask: int) -> Graph:
    rows = [0] * (2 * side)
    for u in range(side):
        for v in range(side):
            if (mask >> (u * side + v)) & 1:
                rows[u] |= 1 << (side + v)
                rows[side + v] |= 1 << u
    return _raw_graph(2 * side, rows)


@dataclass(frozen=True)
class Shard:
    """A fixed slice of one enumeration space (prefix of the edge mask)."""

    kind: str  # "all_graphs" | "bipartite" | "stream"
    order: int
    prefix: int
    prefix_bits: int
    total_bits: int
    lines: tuple[str, ...] = ()


def _shards_for_masks(kind: str, order: int, total_bits: int) -> list[Shard]:
    prefix_bits = max(0, total_bits - _SHARD_TARGET_BITS)
    return [
        Shard(kind, order, prefix, prefix_bits, total_bits)
        for prefix in range(1 << prefix_bits)
    ]


def plan_shards(config: SweepConfig) -> list[Shard]:
    """The sweep's shards, in merge order.  A universe of more than 2**28
    edge masks, a maximum order below 2 or a bipartite side below 1 raises
    GraphError before any shard is built."""
    if config.mode == "stream":
        if config.stream_path is None:
            raise GraphError("stream mode needs a stream path")
        with open(config.stream_path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        chunk = 64
        return [
            Shard("stream", 0, i, 0, 0, tuple(lines[i : i + chunk]))
            for i in range(0, len(lines), chunk)
        ]
    if config.mode == "all_graphs":
        if config.max_order < 2:
            raise GraphError(f"a sweep needs a max order of at least 2, got {config.max_order}")
        universes = [
            ("all_graphs", order, order * (order - 1) // 2)
            for order in range(2, config.max_order + 1, 2)
        ]
    elif config.mode == "bipartite_balanced":
        if config.side < 1:
            raise GraphError(f"a bipartite sweep needs a side of at least 1, got {config.side}")
        universes = [("bipartite", config.side, config.side**2)]
    else:
        raise GraphError(f"unknown sweep mode {config.mode!r}")
    bits = max(total_bits for _kind, _order, total_bits in universes)
    if bits > _MAX_UNIVERSE_BITS:
        raise GraphError(
            f"2**{bits} edge masks in one universe; sweeps stop at 2**{_MAX_UNIVERSE_BITS}"
        )
    return [shard for universe in universes for shard in _shards_for_masks(*universe)]


def _shard_graphs(shard: Shard) -> Iterator[Graph]:
    if shard.kind == "stream":
        return  # handled separately (line parsing can fail)
    free_bits = shard.total_bits - shard.prefix_bits
    base = shard.prefix << free_bits
    if shard.kind == "all_graphs":
        pairs = _all_pairs(shard.order)
        for low in range(1 << free_bits):
            yield graph_from_edge_mask(shard.order, pairs, base | low)
    else:
        for low in range(1 << free_bits):
            yield bipartite_graph_from_mask(shard.order, base | low)


def run_shard(shard: Shard, config: SweepConfig) -> tuple[list[VerdictRecord], dict, int]:
    """Verify one shard: every line of a stream, or every graph of a universe
    that has a perfect matching.  Returns (kept records, status counts by
    theorem, graphs verified)."""
    counts: dict = {}
    kept: list[VerdictRecord] = []
    graphs = 0

    def consume(records: list[VerdictRecord]):
        nonlocal graphs
        graphs += 1
        for rec in records:
            slot = counts.setdefault(rec.theorem_id, dict.fromkeys(STATUSES, 0))
            slot[rec.status] += 1
            if not config.failures_only or rec.status in (FAIL, COUNTEREXAMPLE, ABORTED):
                kept.append(rec)

    if shard.kind == "stream":
        for line in shard.lines:
            try:
                g = graph6_decode(line)
            except GraphError as exc:
                consume(
                    [
                        VerdictRecord(
                            "INPUT", line, {}, "", None, ABORTED, "n/a", str(exc)
                        )
                    ]
                )
                continue
            consume(verify_graph(g, limits=config.limits))
        return kept, counts, graphs

    for g in _shard_graphs(shard):
        if not has_perfect_matching(g):
            continue
        if config.dedup and not is_canonical_representative(g):
            continue
        consume(verify_graph(g, limits=config.limits))
    return kept, counts, graphs


def _merge_counts(into: dict, other: dict) -> None:
    for theorem_id, slot in other.items():
        target = into.setdefault(theorem_id, dict.fromkeys(STATUSES, 0))
        for status, cnt in slot.items():
            target[status] += cnt


# ---------------------------------------------------------------------------
# checkpointing (cursor only, records appended per completed shard)
#
# The cursor names the completed shards and the byte length of the records
# file after their records.  Resuming truncates the file to that length, so
# records of a shard whose cursor update never landed, or a torn last line,
# are dropped and that shard is verified again.


def _checkpoint_paths(config: SweepConfig) -> tuple[str, str]:
    assert config.checkpoint is not None
    return config.checkpoint, config.checkpoint + ".records.jsonl"


def _load_checkpoint(config: SweepConfig) -> tuple[int, list[VerdictRecord], dict, int]:
    cursor_path, records_path = _checkpoint_paths(config)
    state = {"completed_shards": 0, "records_offset": 0}
    if os.path.exists(cursor_path):
        with open(cursor_path) as fh:
            state = json.load(fh)
        if state.get("fingerprint") != config.fingerprint():
            raise GraphError("checkpoint belongs to a different sweep config")
    records: list[VerdictRecord] = []
    counts: dict = {}
    graphs = 0
    if not os.path.exists(records_path):
        return 0, records, counts, graphs
    with open(records_path, "r+") as fh:
        fh.truncate(state.get("records_offset", os.path.getsize(records_path)))
        for line in fh:
            obj = json.loads(line)
            if "shard_counts" in obj:
                _merge_counts(counts, obj["shard_counts"])
                graphs += obj["shard_graphs"]
                continue
            records.append(VerdictRecord(**obj))
    return int(state["completed_shards"]), records, counts, graphs


def _append_checkpoint(
    config: SweepConfig,
    completed: int,
    records: list[VerdictRecord],
    counts: dict,
    graphs: int,
) -> None:
    cursor_path, records_path = _checkpoint_paths(config)
    with open(records_path, "ab") as fh:
        for rec in records:
            fh.write((json.dumps(rec.to_json_dict(), sort_keys=True) + "\n").encode())
        fh.write((json.dumps({"shard_counts": counts, "shard_graphs": graphs}) + "\n").encode())
        offset = fh.tell()
    tmp = cursor_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(
            {
                "schema_version": SCHEMA_VERSION,
                "fingerprint": config.fingerprint(),
                "completed_shards": completed,
                "records_offset": offset,
            },
            fh,
        )
    os.replace(tmp, cursor_path)


# ---------------------------------------------------------------------------
# driver


def run_sweep(config: SweepConfig) -> Report:
    shards = plan_shards(config)
    start_shard = 0
    records: list[VerdictRecord] = []
    counts: dict = {}
    graphs = 0
    if config.checkpoint:
        start_shard, records, counts, graphs = _load_checkpoint(config)
    todo = shards[start_shard:]
    shard_fn = functools.partial(run_shard, config=config)
    completed = start_shard
    parallel = config.workers > 1 and bool(todo)
    if parallel:
        import multiprocessing  # here, not at the top: only a pool needs it (about 1 MB)
    with multiprocessing.Pool(config.workers) if parallel else nullcontext() as pool:
        results = pool.imap(shard_fn, todo) if parallel else map(shard_fn, todo)
        for shard_records, shard_counts, shard_graphs in results:
            records.extend(shard_records)
            _merge_counts(counts, shard_counts)
            graphs += shard_graphs
            completed += 1
            if config.checkpoint:
                _append_checkpoint(
                    config, completed, shard_records, shard_counts, shard_graphs
                )
    return build_report(config, records, counts, graphs)


def build_report(
    config: SweepConfig,
    records: list[VerdictRecord],
    counts: dict,
    graphs: int,
) -> Report:
    records = sorted(records, key=lambda r: (r.graph_id, r.theorem_id))
    totals = dict.fromkeys(STATUSES, 0)
    for slot in counts.values():
        for status, cnt in slot.items():
            totals[status] += cnt
    summary = {
        "by_theorem": {tid: dict(slot) for tid, slot in sorted(counts.items())},
        "totals": totals,
        "graphs_verified": graphs,
        "counterexamples_found": totals[COUNTEREXAMPLE] > 0,
    }
    environment = {
        "package": "forcing-lab",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": {
            "mode": config.mode,
            "max_order": config.max_order,
            "side": config.side,
            "require_pm": True,
            "dedup": config.dedup,
            "failures_only": config.failures_only,
            "limits": {
                "pm_limit": config.limits.pm_limit,
                "node_limit": config.limits.node_limit,
                "cycle_limit": config.limits.cycle_limit,
            },
        },
    }
    return Report(records, summary, environment)
