"""Spans around the calls into each forcing_lab layer, recorded from outside.

The tracer replaces module attributes with timing wrappers: a function is
wrapped in its defining module and in every forcing_lab module that
imported it by name, so ``verify.spectrum`` and ``solver.spectrum`` record
the same span.  Spans (name, start, end, parent) live in flat arrays until
the run ends; self times and call counts are derived from them afterwards.
Worker processes of a pool keep their spans to themselves, so traced runs
use one worker.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import Counter
from pathlib import Path

KERNELS = (
    "pm_count",
    "pm_enumerate",
    "alt_cycles",
    "pack_masks",
    "mis",
    "forcing_value",
    "anti_forcing_value",
)

# (module, attribute, span name).  The root span "cli" is the command.
LAYERS = (
    ("cli", "main", "cli"),
    ("cli", "_finish_report", "sweep.report"),
    ("sweep", "build_report", "sweep.report"),
    ("sweep", "run_sweep", "sweep.self"),
    ("sweep", "run_shard", "sweep.self"),
    ("sweep", "graph_from_edge_mask", "sweep.universe"),
    ("sweep", "bipartite_graph_from_mask", "sweep.universe"),
    ("sweep", "is_canonical_representative", "sweep.canon"),
    ("matchings", "has_perfect_matching", "matchings.pm_filter"),
    ("matchings", "enumerate_perfect_matchings", "matchings.pm_enum"),
    ("matchings", "alternating_cycles", "matchings.alt_cycles"),
    ("verify", "verify_graph", "verify.verdict"),
    ("solver", "bound_values", "solver.bounds"),
    ("solver", "spectrum", "solver.f_search"),
    ("solver", "anti_forcing_values", "solver.af_search"),
    ("solver", "forcing_number", "solver.witness"),
    ("solver", "anti_forcing_number", "solver.witness"),
    ("solver", "cycle_packing", "solver.cycle_packing"),
    ("families", "classify", "families.classify"),
    ("families", "recognize_f_n1", "families.recognize"),
    ("graphs", "graph6_encode", "graphs.graph6"),
    ("graphs", "graph6_decode", "graphs.graph6"),
) + tuple(("_backend", k, "backend." + k) for k in KERNELS)

# Counters read off a wrapped call's result: attribute -> (tally, count).
TALLIES = {
    "verify_graph": ("verify.records", len),
    "is_canonical_representative": ("sweep.canon_kept", bool),
    "build_report": ("sweep.records_kept", lambda report: len(report.records)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.tallies: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def _wrap(self, fn, name: str, tally):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, tallies, clock = self._stack, self.tallies, time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tally is not None:
                tallies[tally[0]] += tally[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items()) if key.startswith("forcing_lab.")
        ]
        for mod_name, attr, span in LAYERS:
            original = getattr(sys.modules["forcing_lab." + mod_name], attr)
            if original is None:  # optional kernel missing from this backend
                continue
            wrapper = self._wrap(original, span, TALLIES.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    @staticmethod
    def span_cost(calls: int = 100_000, repeats: int = 5) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op against a bare
        one, median of ``repeats`` trials (spans go to a throwaway tracer)."""

        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "probe", None)
        trials = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            trials.append(((t2 - t1) - (t1 - t0)) / calls)
        return sorted(trials)[repeats // 2]

    def summary(self) -> tuple[dict, Counter]:
        """Self time and call count per span name.  A span's self time is its
        duration minus the durations of its child spans."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_time: dict = dict.fromkeys(self.names, 0.0)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_time[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_time, calls

    def write(self, base: Path) -> None:
        """``base.json`` names the fields; ``base.bin`` holds the four arrays
        back to back (int32 name, int32 parent, float64 start, float64 end)."""
        base.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "layout": ["name:i4", "parent:i4", "start:f8", "end:f8"],
            "tallies": dict(self.tallies),
        }
        base.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(base.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
