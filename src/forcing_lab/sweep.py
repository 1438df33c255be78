"""Exhaustive sweep driver: enumerate graph universes, verify each graph,
merge deterministic reports.

Determinism contract: the JSON report depends only on the sweep universe
and the verification config, never on the worker count.  Workers shard the
edge-mask space by fixed prefix (under dedup, the sorted list of classes
64 at a time); shard results are merged in shard order and records are
finally sorted by (graph6, theorem_id).  Wall time goes to
stderr, not into the report.

The unit of a sweep is a graph's verdict row (``verify.VerdictRow``), not
its records: a shard counts each distinct row once, the report sorts graph
ids, and each row's record bytes are encoded once per process.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass
from operator import attrgetter, itemgetter
from typing import Iterator, Optional

from . import __version__
from .errors import GraphError
from .graphs import (
    GRAPH6_HEADER,
    Graph,
    _raw_graph,
    canonical_graph6,
    graph6_decode,
    graph6_encode,
    graph_classes,
)
from .matchings import has_perfect_matching
from .solver import DEFAULT_LIMITS, SolverLimits
from .verify import (
    ABORTED,
    COUNTEREXAMPLE,
    CSV_COLUMNS,
    FAIL,
    INAPPLICABLE,
    PASS,
    VerdictRecord,
    VerdictRow,
    _encode,
    verdict_row,
)

SCHEMA_VERSION = 1

# Names how dedup builds and shards its classes, so a checkpoint written
# under another rule is refused instead of resumed with a mixed set.
_DEDUP_RULE = "canonical-members-by-vertex-augmentation/64-classes-a-shard"

# A labelled universe is cut by edge-mask prefix into shards of at most
# 2**12 masks: order 6 (2**15 masks) into 8, so that workers share it.
_SHARD_TARGET_BITS = 12
# Names that cut, so a checkpoint written under another is refused.  A
# universe of at most 2**12 masks is one shard under every cut used so far
# (2**16 masks a shard before this one), so only larger ones name it.
_SHARD_RULE = f"edge-mask-prefixes/2**{_SHARD_TARGET_BITS}-masks-a-shard"
# Shards are planned lazily, so this cap bounds time, not memory: 2**28 edge
# masks (order 8; side 5 has 2**25) take about 1 h on 8 workers, and order
# 10, with 2**45, would take some 2**17 times as long.
_MAX_UNIVERSE_BITS = 28
_STREAM_SHARD_LINES = 64

_escape = json.encoder.encode_basestring_ascii  # a string as _encode writes it

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
        """Identity of the sweep universe, its shards and the verification
        config; worker count and output paths deliberately excluded."""
        identity = {
            "mode": self.mode,
            "max_order": self.max_order,
            "side": self.side,
            "require_pm": True,  # sweeps skip graphs with no perfect matching
            "dedup": _DEDUP_RULE if self.dedup else False,
            "failures_only": self.failures_only,
            "limits": astuple(self.limits),
            "stream_path": self.stream_path,
            "schema": SCHEMA_VERSION,
        }
        if self.mode != "stream" and not self.dedup:
            if max(bits for _kind, _order, bits in _universes(self)) > _SHARD_TARGET_BITS:
                identity["shards"] = _SHARD_RULE
        return json.dumps(identity, sort_keys=True)


class _Rows(VerdictRow):
    """The rows of one graph_id that a stream repeats, in stream order.  Their
    records interleave as a stable sort of them all by theorem_id orders
    them, each with its own row's inputs."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[VerdictRow]):
        super().__init__({}, tuple(v for part in parts for v in part.verdicts))
        self.parts = parts

    def records(self, graph_id: str) -> list[VerdictRecord]:
        return [rec for part in self.parts for rec in part.records(graph_id)]

    def json_units(self) -> list:
        return sorted(itertools.chain(*(p.json_units() for p in self.parts)), key=itemgetter(0))

    def csv_units(self) -> list:
        return sorted(itertools.chain(*(p.csv_units() for p in self.parts)), key=itemgetter(0))


def rows_of_records(records) -> Iterator[tuple[str, VerdictRow]]:
    """(graph_id, row) of each run of records that share a graph_id and
    inputs, in order."""
    for (graph_id, inputs), run in itertools.groupby(
        records, key=attrgetter("graph_id", "inputs")
    ):
        verdicts = tuple(
            (r.theorem_id, r.bound, r.observed, r.status, r.equality_case, r.detail) for r in run
        )
        yield graph_id, VerdictRow(inputs, verdicts)


@dataclass
class Report:
    """``rows`` holds (graph_id, row) pairs sorted by graph_id, one per
    graph_id; ``records`` builds the records from them."""

    rows: list[tuple[str, VerdictRow]]
    summary: dict
    environment: dict

    @property
    def records(self) -> list[VerdictRecord]:
        """Every record, sorted by (graph_id, theorem_id)."""
        by_theorem = attrgetter("theorem_id")
        return [
            rec for gid, row in self.rows for rec in sorted(row.records(gid), key=by_theorem)
        ]

    def write_json(self, fh) -> None:
        """Write the report as one line of sort-keyed compact JSON, graph by
        graph, so the whole report is never held as one string."""
        fh.write('{"environment":%s,"records":[' % _encode(self.environment))
        sep = ""
        for graph_id, row in self.rows:
            fh.write(sep + _escape(graph_id).join(row.json_pieces()))
            sep = ","
        fh.write('],"schema_version":%d,"summary":%s}\n' % (SCHEMA_VERSION, _encode(self.summary)))

    def write_csv(self, fh) -> None:
        """Write the header and one row per record to a file opened with
        ``newline=""``."""
        import csv  # here, not at the top: only CSV reports need it

        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for graph_id, row in self.rows:
            writer.writerows([graph_id, *tail] for _tid, tail in row.csv_units())


# ---------------------------------------------------------------------------
# canonical members


def is_canonical_representative(g: Graph) -> bool:
    """True when the labeled graph equals its own canonical relabeling: the
    one member of its isomorphism class that dedup verifies."""
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
    """A fixed slice of one enumeration space: a prefix of the edge mask,
    a run of stream lines or a run of isomorphism classes."""

    kind: str  # "all_graphs" | "bipartite" | "stream" | "classes"
    order: int
    prefix: int
    prefix_bits: int
    total_bits: int
    lines: tuple[str, ...] = ()
    classes: tuple[tuple[int, ...], ...] = ()  # canonical rows


def _shards_for_masks(kind: str, order: int, total_bits: int) -> Iterator[Shard]:
    prefix_bits = max(0, total_bits - _SHARD_TARGET_BITS)
    for prefix in range(1 << prefix_bits):
        yield Shard(kind, order, prefix, prefix_bits, total_bits)


def _stream_shards(path: str) -> Iterator[Shard]:
    """The stream's non-blank lines, read one shard of 64 at a time; a
    shard's prefix is the index of its first line.  Bytes that are not
    UTF-8 are read as surrogate escapes."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = (ln.rstrip("\n") for ln in fh if ln.strip())
        chunks = iter(lambda: tuple(itertools.islice(lines, _STREAM_SHARD_LINES)), ())
        for i, chunk in enumerate(chunks):
            yield Shard("stream", 0, i * _STREAM_SHARD_LINES, 0, 0, chunk)


def _class_shards(orders: list[int], bipartite: bool) -> Iterator[Shard]:
    """The classes of each order in ``orders``, bipartite ones only if asked,
    64 a shard in the sorted order ``graph_classes`` gives them; a shard's
    prefix is the index of its first class."""
    for order, classes in graph_classes(max(orders), bipartite):
        if order in orders:
            for i in range(0, len(classes), _STREAM_SHARD_LINES):
                chunk = tuple(classes[i : i + _STREAM_SHARD_LINES])
                yield Shard("classes", order, i, 0, 0, classes=chunk)


def _universes(config: SweepConfig) -> list[tuple[str, int, int]]:
    """The (kind, order, edge bits) of each labelled universe of a sweep
    that is not a stream.  A maximum order below 2, a bipartite side below
    1 or an unknown mode raises GraphError."""
    if config.mode == "all_graphs":
        if config.max_order < 2:
            raise GraphError(f"a sweep needs a max order of at least 2, got {config.max_order}")
        return [
            ("all_graphs", order, order * (order - 1) // 2)
            for order in range(2, config.max_order + 1, 2)
        ]
    if config.mode == "bipartite_balanced":
        if config.side < 1:
            raise GraphError(f"a bipartite sweep needs a side of at least 1, got {config.side}")
        return [("bipartite", config.side, config.side**2)]
    raise GraphError(f"unknown sweep mode {config.mode!r}")


def plan_shards(config: SweepConfig) -> Iterator[Shard]:
    """The sweep's shards, in merge order, built as they are read.  A stream
    mode without a stream path, a universe of more than 2**28 edge masks, a
    maximum order below 2 or a bipartite side below 1 raises GraphError
    here, before any shard is built.  Under dedup the shards hold each
    class of the universe once instead of its edge masks; the classes are
    generated as the shards are read, too."""
    if config.mode == "stream":
        if config.stream_path is None:
            raise GraphError("stream mode needs a stream path")
        return _stream_shards(config.stream_path)
    universes = _universes(config)
    bits = max(total_bits for _kind, _order, total_bits in universes)
    if bits > _MAX_UNIVERSE_BITS:
        raise GraphError(
            f"2**{bits} edge masks in one universe; sweeps stop at 2**{_MAX_UNIVERSE_BITS}"
        )
    if config.dedup:
        # a bipartite graph with a perfect matching has only balanced
        # bipartitions, so its class meets the side-major universe
        orders = [order if kind == "all_graphs" else 2 * order for kind, order, _ in universes]
        return _class_shards(orders, bipartite=config.mode == "bipartite_balanced")
    return (shard for universe in universes for shard in _shards_for_masks(*universe))


def _shard_graphs(shard: Shard) -> Iterator[tuple[str, Graph | VerdictRow]]:
    """The (graph_id, graph) pairs a shard verifies, in order: every line of
    a stream, where a line that does not decode stands with the row of its
    aborted INPUT record, or every graph of a universe slice or every
    canonical member of a class shard that has a perfect matching."""
    if shard.kind == "stream":
        for line in shard.lines:
            # the line with each byte that is not UTF-8 written as \xNN
            text = line.encode(errors="surrogateescape").decode(errors="backslashreplace")
            try:
                if text != line:
                    raise GraphError("line is not UTF-8")
                g = graph6_decode(line)
            except GraphError as exc:
                yield text, VerdictRow({}, (("INPUT", "", None, ABORTED, "n/a", str(exc)),))
                continue
            # a line that decodes and is a bare graph6 body is the graph's encoding
            bare = line == line.strip() and not line.startswith(GRAPH6_HEADER)
            yield (line if bare else graph6_encode(g)), g
        return
    if shard.kind == "classes":
        graphs = (_raw_graph(shard.order, rows) for rows in shard.classes)
    else:
        free_bits = shard.total_bits - shard.prefix_bits
        masks = range(shard.prefix << free_bits, (shard.prefix + 1) << free_bits)
        if shard.kind == "all_graphs":
            pairs = _all_pairs(shard.order)
            graphs = (graph_from_edge_mask(shard.order, pairs, mask) for mask in masks)
        else:
            graphs = (bipartite_graph_from_mask(shard.order, mask) for mask in masks)
    for g in graphs:
        if has_perfect_matching(g):
            yield graph6_encode(g), g


def run_shard(shard: Shard, config: SweepConfig) -> tuple[list, dict, int]:
    """Verify one shard's graphs.  Returns (kept (graph_id, row) pairs,
    status counts by theorem, graphs verified).  Under failures_only a
    graph keeps its row's failing records, if it has any."""
    tally: Counter = Counter()
    kept = []
    for graph_id, row in _shard_graphs(shard):
        if isinstance(row, Graph):
            row = verdict_row(row, graph_id, limits=config.limits)
        tally[row] += 1
        if config.failures_only:
            row = row.failing()
            if row is None:
                continue
        kept.append((graph_id, row))
    counts: dict = {}
    for row, graphs in tally.items():
        for theorem_id, _bound, _observed, status, _equality, _detail in row.verdicts:
            slot = counts.setdefault(theorem_id, dict.fromkeys(STATUSES, 0))
            slot[status] += graphs
    return kept, counts, sum(tally.values())


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
# are dropped and that shard is verified again.  Each graph's records are
# lines in theorem_id order; resuming regroups them into rows.


def _checkpoint_paths(config: SweepConfig) -> tuple[str, str]:
    assert config.checkpoint is not None
    return config.checkpoint, config.checkpoint + ".records.jsonl"


def _checkpoint_cursor(config: SweepConfig) -> dict:
    """The checkpoint's cursor, or a fresh one where there is none; a cursor
    that is not a JSON object, or is one of another sweep config, raises
    GraphError."""
    cursor_path, _ = _checkpoint_paths(config)
    if not os.path.exists(cursor_path):
        return {"completed_shards": 0, "records_offset": 0}
    with open(cursor_path) as fh:
        try:
            state = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise GraphError(f"checkpoint cursor is not JSON: {exc}") from None
    if not isinstance(state, dict):
        raise GraphError("checkpoint cursor is not a JSON object")
    if state.get("fingerprint") != config.fingerprint():
        raise GraphError("checkpoint belongs to a different sweep config")
    return state


def _load_checkpoint(config: SweepConfig) -> tuple[int, list, dict, int]:
    state = _checkpoint_cursor(config)
    _, records_path = _checkpoint_paths(config)
    counts: dict = {}
    graphs = 0
    if not os.path.exists(records_path):
        return 0, [], counts, graphs

    def records(fh) -> Iterator[VerdictRecord]:
        nonlocal graphs
        for line in fh:
            obj = json.loads(line)
            if "shard_counts" in obj:
                _merge_counts(counts, obj["shard_counts"])
                graphs += obj["shard_graphs"]
            else:
                yield VerdictRecord(**obj)

    with open(records_path, "r+") as fh:
        fh.truncate(state.get("records_offset", os.path.getsize(records_path)))
        rows = list(rows_of_records(records(fh)))
    return int(state["completed_shards"]), rows, counts, graphs


def _append_checkpoint(
    config: SweepConfig,
    completed: int,
    rows: list,
    counts: dict,
    graphs: int,
) -> None:
    cursor_path, records_path = _checkpoint_paths(config)
    with open(records_path, "ab") as fh:
        for graph_id, row in rows:
            escaped = _escape(graph_id)
            lines = "".join(head + escaped + tail + "\n" for _, head, tail in row.json_units())
            fh.write(lines.encode())
        fh.write((_encode({"shard_counts": counts, "shard_graphs": graphs}) + "\n").encode())
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


def _share_rows(pairs: list, table: dict) -> list:
    """``pairs`` with each row replaced by the first equal row in ``table``:
    a pool worker's rows arrive as copies, one per shard, and resumed rows
    one per graph.  Observed values are keyed with their type, so a True is
    never shared with a 1."""
    seen: dict = {}  # id(row) -> shared row; a shard's copies of a row are one object
    out = []
    for graph_id, row in pairs:
        shared = seen.get(id(row))
        if shared is None:
            key = (tuple(row.inputs.items()), tuple((*v, type(v[2])) for v in row.verdicts))
            shared = seen[id(row)] = table.setdefault(key, row)
        out.append((graph_id, shared))
    return out


def check_sweep(config: SweepConfig) -> None:
    """Raise now what ``run_sweep`` refuses before its first shard: a
    universe ``plan_shards`` refuses, a stream that cannot be opened
    (OSError) or a checkpoint of another sweep config (GraphError)."""
    plan_shards(config)
    if config.mode == "stream":
        open(config.stream_path, "rb").close()
    if config.checkpoint:
        _checkpoint_cursor(config)


def run_sweep(config: SweepConfig) -> Report:
    shards = plan_shards(config)
    completed = 0
    rows: list = []
    counts: dict = {}
    graphs = 0
    table: dict = {}
    if config.checkpoint:
        completed, rows, counts, graphs = _load_checkpoint(config)
        rows = _share_rows(rows, table)
    todo = itertools.islice(shards, completed, None)
    first = list(itertools.islice(todo, 1))  # no pool for a sweep with nothing left to do
    todo = itertools.chain(first, todo)
    shard_fn = functools.partial(run_shard, config=config)
    parallel = config.workers > 1 and bool(first)
    if parallel:
        import multiprocessing  # here, not at the top: only a pool needs it (about 1 MB)
    with multiprocessing.Pool(config.workers) if parallel else nullcontext() as pool:
        results = pool.imap(shard_fn, todo) if parallel else map(shard_fn, todo)
        for shard_rows, shard_counts, shard_graphs in results:
            shard_rows = _share_rows(shard_rows, table)
            rows.extend(shard_rows)
            _merge_counts(counts, shard_counts)
            graphs += shard_graphs
            completed += 1
            if config.checkpoint:
                _append_checkpoint(config, completed, shard_rows, shard_counts, shard_graphs)
    return build_report(config, rows, counts, graphs)


def build_report(
    config: SweepConfig,
    rows: list,
    counts: dict,
    graphs: int,
) -> Report:
    """The report of (graph_id, row) pairs in merge order: sorted by
    graph_id, the rows of a repeated graph_id merged in that order."""
    merged = []
    for graph_id, run in itertools.groupby(sorted(rows, key=itemgetter(0)), key=itemgetter(0)):
        parts = [row for _, row in run]
        merged.append((graph_id, parts[0] if len(parts) == 1 else _Rows(parts)))
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
            "limits": asdict(config.limits),
        },
    }
    return Report(merged, summary, environment)
