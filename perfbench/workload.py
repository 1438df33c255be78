"""One benchmark workload in its own process: set-up, timed rounds, checks.

``perfbench/run.py`` starts this with ``PYTHONPATH`` pointing at the
installed package and ``FORCING_LAB_BACKEND`` naming the kernel backend.
The process prints ``READY`` on stdout when set-up is done (import, reading
the input, one warm-up call), then runs whole rounds of the workload's
commands through ``forcing_lab.cli.main`` until ``--seconds`` have passed
(at least two rounds, so reports can be compared), checks the outputs
against oracle.py, and prints one JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import random
import re
import resource
import sys
import time
from collections import Counter
from functools import lru_cache
from math import factorial
from statistics import median
from pathlib import Path

import oracle
from tracer import KERNELS, LAYERS, Tracer

O6_VALUE_SAMPLE = 400  # graphs whose f, F, Af are recomputed by brute force
O8_SAMPLE = 20000  # order-8 graphs in the verify workload's input
O8_WORKERS = 2
BAD_STATUSES = ("fail", "counterexample", "aborted")

# Family specs for compute-families: spec -> (order, edges, known values).
# Edge counts follow from each family's definition (None: not checked).
# Values: published grid/torus/cylinder/hypercube values, the paper's
# f(H(n,k)) = k, f(MJoin(n,k)) = k, f(G4(n,k)) = k+1, f(G5(n,k,i)) = k+2,
# and f(K_{n,n}) = F(K_{n,n}) = n-1, Af(K_{n,n}) = n(n-1)/2.
SPECS = {
    "Q:3": (8, 12, {"f": 2}),
    "Q:4": (16, 32, {"f": 4}),
    "grid:4x4": (16, 24, {"f": 2, "F": 4}),
    "torus:4x4": (16, 32, {"f": 4, "F": 4}),
    "pc:4x4": (16, 28, {"F": 4}),
    "pc:3x6": (18, 30, {"F": 4}),
    "H:6,2": (12, 30, {"f": 2}),
    "MJoin:6,2": (12, None, {"f": 2}),
    "G4:4,1": (8, None, {"f": 2}),
    "G5:5,1,1": (10, None, {"f": 3}),
    "G5:6,1,2": (12, None, {"f": 3}),
    "Knn:4": (8, 16, {"f": 3, "F": 3, "Af": 6}),
    "Knn:5": (10, 25, {"f": 4, "F": 4, "Af": 10}),
}

# span name -> metric name where the metric is not "<span>_s"
SELF_TIME_NAMES = {
    "cli": "cli.self_s",
    "sweep.self": "sweep.self_s",
    "verify.verdict": "verify.verdict_self_s",
}
CALL_COUNTED = ("matchings.pm_filter", "sweep.canon", "matchings.pm_enum")

STATUS_RE = re.compile(rb'"status":"([a-z_]+)"')
ID_INPUTS_RE = re.compile(rb'"graph_id":("(?:[^"\\]|\\.)*"),"inputs":(\{[^{}]*\})')


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list) -> tuple[int, str]:
    """One forcing-lab command in this process; returns (exit code, stdout)."""
    from forcing_lab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


@lru_cache(maxsize=None)
def labelled_universe(max_order: int) -> list:
    """(order, edges, graph6) of every labelled graph with a perfect matching
    on 2, 4, ..., max_order vertices."""
    out = []
    for order in range(2, max_order + 1, 2):
        for mask in range(1 << len(oracle.all_pairs(order))):
            g = oracle.graph_from_mask(order, mask)
            if oracle.has_perfect_matching(*g):
                out.append((order, g[1], oracle.graph6(*g)))
    return out


def planted(evidence: dict, **changes) -> dict:
    bad = copy.deepcopy(evidence)
    bad.update(changes)
    return bad


class Workload:
    """A command list run once per round, plus the checks on its output."""

    report_name = ""

    def __init__(self, work: Path, seed: int, workers: int):
        self.work, self.seed, self.workers = work, seed, workers

    @property
    def report(self) -> Path:
        return self.work / self.report_name

    @classmethod
    def make_input(cls, work: Path, seed: int) -> None:
        """Write the seeded input files, once per run and before set-up."""

    def prepare(self) -> None:
        """Read the input (part of set-up)."""

    def before_round(self) -> None:
        """Remove the last report, so a failed command cannot leave it behind."""
        if self.report_name:
            self.report.unlink(missing_ok=True)

    def clean_up(self) -> None:
        """Remove the reports once they are checked.  Removed while their
        pages are still dirty, they are never written back, so a 145 MB
        report cannot be flushed to disk during the timed rounds of the
        next run."""
        self.before_round()

    def warm_up(self) -> None:
        raise NotImplementedError

    def commands(self) -> list:
        raise NotImplementedError

    def after_round(self, outputs: list) -> dict:
        """Untimed bookkeeping after a round, such as hashing its report."""
        if not self.report.is_file():
            return {"sha256": "no report", "bytes": 0}
        return {"sha256": sha256(self.report), "bytes": self.report.stat().st_size}

    def evidence(self, rounds: list) -> dict:
        """What the checks look at, gathered once after the timed rounds."""
        raise NotImplementedError

    def check(self, ev: dict) -> list:
        """Problems found in the evidence; empty when every output is right."""
        raise NotImplementedError

    def plants(self, ev: dict) -> list:
        """(label, evidence with one planted wrong value, text the check's
        report of it must contain) triples."""
        raise NotImplementedError

    def ops(self, ev: dict) -> int:
        """Operations (graphs or compute calls) in one round."""
        raise NotImplementedError

    def failed_ops(self, ev: dict, outputs: list) -> int:
        if any(rc != 0 for rc, _ in outputs):
            return self.ops(ev)
        return ev["totals"]["aborted"]


def hash_problems(hashes: list, what: str) -> list:
    if len(hashes) < 2:
        return [f"{what}: fewer than two reports to compare"]
    if len(set(hashes)) != 1:
        return [f"{what}: report bytes differ between rounds"]
    return []


def status_problems(totals: dict) -> list:
    return [f"{totals[s]} {s} records" for s in BAD_STATUSES if totals.get(s)]


class SweepO6(Workload):
    report_name = "sweep-o6.json"
    flags: tuple = ()

    def warm_up(self):
        warm = self.work / "warm.json"
        rc, _ = run_cli(
            ["sweep", "--max-order", "4", "--workers", "1", *self.flags,
             "--json", str(warm)]
        )
        if rc != 0:
            raise SystemExit(f"warm-up command exited {rc}")

    def commands(self):
        return [
            ["sweep", "--max-order", "6", "--workers", "1", *self.flags,
             "--json", str(self.report)]
        ]

    def evidence(self, rounds):
        data = self.report.read_bytes()
        start = data.rindex(b'"summary":') + len(b'"summary":')
        summary, _ = json.JSONDecoder().raw_decode(data[start:].decode())
        raw_inputs: dict = {}
        for m in ID_INPUTS_RE.finditer(data):
            raw_inputs.setdefault(m.group(1), m.group(2))
        ids = {json.loads(k): v for k, v in raw_inputs.items()}
        self.universe = labelled_universe(6)
        rng = random.Random(self.seed)
        self.sample = {
            g6: oracle.forcing_values(order, edges)
            for order, edges, g6 in rng.sample(self.universe, O6_VALUE_SAMPLE)
        }
        sample_seen = {}
        for g6 in self.sample:
            if g6 in ids:
                inp = json.loads(ids[g6])
                sample_seen[g6] = (inp["f"], inp["F"], inp["Af"])
        return {
            "graphs_verified": summary["graphs_verified"],
            "totals": summary["totals"],
            "statuses": Counter(s.decode() for s in STATUS_RE.findall(data)),
            "mismatches": data.count(b'"equality_case":"equality_mismatch"'),
            "ids": set(ids),
            "sample": sample_seen,
            "hashes": [r["sha256"] for r in rounds],
        }

    def ops(self, ev):
        return len(self.universe)

    def check(self, ev):
        problems = hash_problems(ev["hashes"], "determinism")
        expected_ids = {g6 for _, _, g6 in self.universe}
        if ev["graphs_verified"] != len(expected_ids):
            problems.append(
                f"graphs_verified {ev['graphs_verified']}, expected {len(expected_ids)}"
            )
        if ev["ids"] != expected_ids:
            missing, extra = expected_ids - ev["ids"], ev["ids"] - expected_ids
            problems.append(
                "report graphs differ from the labelled universe: "
                f"{len(missing)} missing, {len(extra)} extra"
            )
        problems += status_problems(ev["totals"]) + status_problems(ev["statuses"])
        if sum(ev["statuses"].values()) != sum(ev["totals"].values()):
            problems.append("record count differs from the summary totals")
        if ev["mismatches"]:
            problems.append(f"{ev['mismatches']} equality_mismatch records")
        for g6, want in self.sample.items():
            got = ev["sample"].get(g6)
            if got != want:
                problems.append(f"{g6}: (f, F, Af) = {got}, brute force gives {want}")
        return problems

    def plants(self, ev):
        g6 = next(iter(self.sample))
        f, F, af = self.sample[g6]
        return [
            ("graph count off by one",
             planted(ev, graphs_verified=len(self.universe) + 1), "graphs_verified"),
            ("graph missing", planted(ev, ids=ev["ids"] - {g6}), "1 missing"),
            ("fail record",
             planted(ev, statuses=ev["statuses"] + Counter(fail=1)), " fail records"),
            ("aborted total",
             planted(ev, totals={**ev["totals"], "aborted": 1}), " aborted records"),
            ("equality mismatch", planted(ev, mismatches=1), "equality_mismatch"),
            ("wrong f",
             planted(ev, sample={**ev["sample"], g6: (f + 1, F, af)}), "brute force"),
            ("wrong Af",
             planted(ev, sample={**ev["sample"], g6: (f, F, af + 1)}), "brute force"),
            ("nondeterministic",
             planted(ev, hashes=ev["hashes"][:-1] + ["0"]), "differ between rounds"),
        ]


class SweepO6Dedup(SweepO6):
    report_name = "sweep-o6-dedup.json"
    flags = ("--dedup",)

    def evidence(self, rounds):
        report = json.loads(self.report.read_text())
        self.labelled = Counter(order for order, _, _ in labelled_universe(6))
        self.orbits: dict = {}
        return {
            "graphs_verified": report["summary"]["graphs_verified"],
            "totals": report["summary"]["totals"],
            "kept": sorted({r["graph_id"] for r in report["records"]}),
            "hashes": [r["sha256"] for r in rounds],
        }

    def ops(self, ev):
        return len(ev["kept"])

    def orbit(self, g6):
        if g6 not in self.orbits:
            g = oracle.graph6_decode(g6)
            canon, aut = oracle.orbit_data(*g)
            self.orbits[g6] = (g, canon, factorial(g[0]) // aut)
        return self.orbits[g6]

    def check(self, ev):
        problems = hash_problems(ev["hashes"], "determinism")
        problems += status_problems(ev["totals"])
        if ev["graphs_verified"] != len(ev["kept"]):
            problems.append(
                f"graphs_verified {ev['graphs_verified']} != {len(ev['kept'])} kept"
            )
        seen: dict = {}
        covered: Counter = Counter()
        for g6 in ev["kept"]:
            g, canon, size = self.orbit(g6)
            if not oracle.has_perfect_matching(*g):
                problems.append(f"kept graph {g6} has no perfect matching")
            key = (g[0], canon)
            if key in seen:
                problems.append(f"kept graphs {seen[key]} and {g6} are isomorphic")
            seen[key] = g6
            covered[g[0]] += size
        if covered != self.labelled:
            problems.append(
                f"sum of n!/|Aut| per order {dict(covered)}, "
                f"labelled counts {dict(self.labelled)}"
            )
        return problems

    def plants(self, ev):
        # a relabelled copy of a kept graph: isomorphic, different graph6
        for g6 in ev["kept"]:
            order, edges = oracle.graph6_decode(g6)
            flip = tuple(sorted((order - 1 - v, order - 1 - u) for u, v in edges))
            twin = oracle.graph6(order, flip)
            if twin != g6:
                break
        kept = ev["kept"]
        return [
            ("isomorphic twin kept",
             planted(ev, kept=kept + [twin], graphs_verified=len(kept) + 1),
             "are isomorphic"),
            ("class missing",
             planted(ev, kept=kept[1:], graphs_verified=len(kept) - 1), "n!/|Aut|"),
            ("graph count off by one", planted(ev, graphs_verified=len(kept) + 1), "kept"),
            ("fail total",
             planted(ev, totals={**ev["totals"], "fail": 1}), " fail records"),
            ("nondeterministic",
             planted(ev, hashes=ev["hashes"][:-1] + ["0"]), "differ between rounds"),
        ]


class ComputeFamilies(Workload):
    def warm_up(self):
        rc, _ = run_cli(["compute", "cycle:6", "--json"])
        if rc != 0:
            raise SystemExit(f"warm-up command exited {rc}")

    def commands(self):
        return [["compute", spec, "--json"] for spec in SPECS]

    def after_round(self, outputs):
        return {}

    def evidence(self, rounds):
        last = rounds[-1]["outputs"]
        results = {}
        for spec, (rc, out) in zip(SPECS, last):
            results[spec] = {"rc": rc, "payload": json.loads(out) if rc == 0 else None}
        digests = [hashlib.sha256(repr(r["outputs"]).encode()).hexdigest() for r in rounds]
        return {"results": results, "hashes": digests}

    def ops(self, ev):
        return len(SPECS)

    def failed_ops(self, ev, outputs):
        return sum(
            1
            for spec, (rc, _) in zip(SPECS, outputs)
            if rc != 0 or self.spec_problems(spec, ev["results"][spec])
        )

    def check(self, ev):
        problems = hash_problems(ev["hashes"], "determinism")
        for spec in SPECS:
            found = self.spec_problems(spec, ev["results"][spec])
            problems += [f"{spec}: {p}" for p in found]
        return problems

    @staticmethod
    def spec_problems(spec, result) -> list:
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        p = result["payload"]
        order, n_edges, known = SPECS[spec]
        g = oracle.graph6_decode(p["graph6"])
        problems = []
        if g[0] != order or (n_edges is not None and len(g[1]) != n_edges):
            problems.append(f"graph has order {g[0]} and {len(g[1])} edges")
        for key, want in known.items():
            if p[key] != want:
                problems.append(f"{key} = {p[key]}, expected {want}")
        per_f = p["per_matching_f"]
        if (p["f"], p["F"]) != (min(per_f), max(per_f)):
            problems.append("f, F disagree with the per-matching values")
        if p["c_values"] is None or len(p["c_values"]) != len(per_f):
            problems.append("missing C(G,M) values")
        elif any(c > f for c, f in zip(p["c_values"], per_f)):
            problems.append("C(G,M) > f(G,M) for some matching")
        if p["F"] > p["Af"]:
            problems.append(f"F = {p['F']} > Af = {p['Af']}")
        fw, aw = p["forcing_witness"], p["anti_forcing_witness"]
        problems += witness_problems(g, fw["matching"], fw["forcing_set"], p["f"], True)
        problems += witness_problems(g, aw["matching"], aw["removed_edges"], p["Af"], False)
        return problems

    def plants(self, ev):
        def with_payload(spec, **changes):
            bad = copy.deepcopy(ev)
            bad["results"][spec]["payload"].update(changes)
            return bad

        q4 = ev["results"]["Q:4"]["payload"]
        knn = ev["results"]["Knn:5"]["payload"]
        fw = q4["forcing_witness"]
        aw = knn["anti_forcing_witness"]
        extra = next(e for e in fw["matching"] if e not in fw["forcing_set"])
        exit3 = copy.deepcopy(ev)
        exit3["results"]["pc:4x4"] = {"rc": 3, "payload": None}
        short_fw = {**fw, "forcing_set": fw["forcing_set"][1:]}
        long_fw = {**fw, "forcing_set": fw["forcing_set"] + [extra]}
        short_aw = {**aw, "removed_edges": aw["removed_edges"][1:]}
        c_high = [q4["per_matching_f"][0] + 1] + q4["c_values"][1:]
        return [
            ("published f(Q4)", with_payload("Q:4", f=3), "Q:4: f = 3, expected 4"),
            ("paper f(H(6,2))", with_payload("H:6,2", f=3), "H:6,2: f = 3, expected 2"),
            ("Af(K5,5)", with_payload("Knn:5", Af=11), "Knn:5: Af = 11, expected 10"),
            ("forcing set not forcing",
             with_payload("Q:4", f=3, forcing_witness=short_fw), "does not make"),
            ("forcing set not minimal",
             with_payload("Q:4", f=5, forcing_witness=long_fw), "not minimal"),
            ("anti-forcing set not anti-forcing",
             with_payload("Knn:5", Af=9, anti_forcing_witness=short_aw), "does not make"),
            ("C > f", with_payload("Q:4", c_values=c_high), "C(G,M) > f(G,M)"),
            ("F > Af", with_payload("grid:4x4", Af=3), "> Af"),
            ("non-zero exit", exit3, "exit code 3"),
            ("nondeterministic",
             planted(ev, hashes=ev["hashes"][:-1] + ["0"]), "differ between rounds"),
        ]


def witness_problems(g, matching, chosen, value, forcing: bool) -> list:
    """Re-verify a forcing set (``forcing``) or anti-forcing set of a matching:
    right size, unique perfect matching afterwards, and minimal."""
    order, edges = g
    kind = "forcing set" if forcing else "anti-forcing set"
    m = {tuple(e) for e in matching}
    s = [tuple(e) for e in chosen]
    covered = {v for e in m for v in e}
    if not m <= set(edges) or len(m) * 2 != order or len(covered) != order:
        return [f"{kind} witness matching is not a perfect matching"]
    if len(s) != value:
        return [f"{kind} has {len(s)} edges, value is {value}"]
    if forcing and not set(s) <= m:
        return ["forcing set leaves the matching"]
    if not forcing and (set(s) & m or not set(s) <= set(edges)):
        return ["anti-forcing set is not a set of non-matching edges"]

    def unique(subset) -> bool:
        if forcing:
            return oracle.unique_perfect_matching(
                *oracle.without_vertices(order, edges, {v for e in subset for v in e})
            )
        return oracle.unique_perfect_matching(
            order, tuple(e for e in edges if e not in set(subset))
        )

    if not unique(s):
        return [f"{kind} does not make the matching unique"]
    if any(unique(s[:i] + s[i + 1 :]) for i in range(len(s))):
        return [f"{kind} is not minimal"]
    return []


class VerifyO8Sample(Workload):
    report_name = "verify-o8.json"

    @staticmethod
    def stream_path(work: Path, seed: int) -> Path:
        return work / f"o8-seed{seed}.g6"

    @property
    def stream(self) -> Path:
        return self.stream_path(self.work, self.seed)

    @classmethod
    def make_input(cls, work, seed):
        """A uniform sample of labelled order-8 graphs with a perfect
        matching: random edge masks, kept when oracle.py finds a matching."""
        rng = random.Random(seed)
        lines = []
        while len(lines) < O8_SAMPLE:
            g = oracle.graph_from_mask(8, rng.getrandbits(28))
            if oracle.has_perfect_matching(*g):
                lines.append(oracle.graph6(*g))
        work.mkdir(parents=True, exist_ok=True)
        cls.stream_path(work, seed).write_text("\n".join(lines) + "\n")

    def prepare(self):
        lines = self.stream.read_text().splitlines()
        if len(lines) != O8_SAMPLE:
            raise SystemExit(f"{self.stream} holds {len(lines)} graphs, not {O8_SAMPLE}")
        (self.work / "warm.g6").write_text("\n".join(lines[:64]) + "\n")

    def verify_argv(self, stream, report, workers):
        return ["verify", str(stream), "--workers", str(workers), "--failures-only",
                "--json", str(report)]

    def warm_up(self):
        rc, _ = run_cli(
            self.verify_argv(self.work / "warm.g6", self.work / "warm.json", self.workers)
        )
        if rc != 0:
            raise SystemExit(f"warm-up command exited {rc}")

    def commands(self):
        return [self.verify_argv(self.stream, self.report, self.workers)]

    @property
    def one_worker_report(self) -> Path:
        return self.work / "verify-o8-w1.json"

    def clean_up(self):
        super().clean_up()
        self.one_worker_report.unlink(missing_ok=True)

    def evidence(self, rounds):
        report = json.loads(self.report.read_text())
        one = self.one_worker_report
        rc, _ = run_cli(self.verify_argv(self.stream, one, 1))
        return {
            "lines": sum(1 for ln in self.stream.read_text().splitlines() if ln.strip()),
            "graphs_verified": report["summary"]["graphs_verified"],
            "totals": report["summary"]["totals"],
            "records": len(report["records"]),
            "hashes": [r["sha256"] for r in rounds],
            "one_worker": sha256(one) if rc == 0 else f"exit {rc}",
        }

    def ops(self, ev):
        return ev["lines"]

    def check(self, ev):
        problems = hash_problems(ev["hashes"], "determinism")
        problems += status_problems(ev["totals"])
        if ev["graphs_verified"] != ev["lines"]:
            problems.append(
                f"graphs_verified {ev['graphs_verified']}, input has {ev['lines']} lines"
            )
        if ev["records"]:
            problems.append(f"{ev['records']} failing records kept")
        if ev["one_worker"] != ev["hashes"][-1]:
            problems.append("report differs from the one-worker report")
        return problems

    def plants(self, ev):
        return [
            ("graph count off by one",
             planted(ev, graphs_verified=ev["lines"] - 1), "lines"),
            ("fail total",
             planted(ev, totals={**ev["totals"], "fail": 1}), " fail records"),
            ("failing record", planted(ev, records=1), "failing records kept"),
            ("worker count changes bytes", planted(ev, one_worker="0"), "one-worker"),
            ("nondeterministic",
             planted(ev, hashes=ev["hashes"][:-1] + ["0"]), "differ between rounds"),
        ]


class SweepsO6(Workload):
    """The labelled order-6 sweep with its full report, then the same
    universe with --dedup, as one round.  Alone, the 11 s dedup sweep's
    run-to-run spread reached 0.36 on the shared host; inside a 31 s round
    it shares the steadier figure of the pair."""

    def __init__(self, work: Path, seed: int, workers: int):
        super().__init__(work, seed, workers)
        self.parts = (SweepO6(work, seed, workers), SweepO6Dedup(work, seed, workers))

    def before_round(self):
        for part in self.parts:
            part.before_round()

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    def commands(self):
        return [argv for part in self.parts for argv in part.commands()]

    def after_round(self, outputs):
        done = [part.after_round(outputs) for part in self.parts]
        return {"parts": done, "bytes": sum(d["bytes"] for d in done)}

    def evidence(self, rounds):
        return [
            part.evidence([r["parts"][i] for r in rounds])
            for i, part in enumerate(self.parts)
        ]

    def check(self, ev):
        return [
            f"{part.report_name}: {p}"
            for part, part_ev in zip(self.parts, ev)
            for p in part.check(part_ev)
        ]

    def plants(self, ev):
        out = []
        for i, part in enumerate(self.parts):
            for label, bad, expected in part.plants(ev[i]):
                out.append((label, ev[:i] + [bad] + ev[i + 1 :], expected))
        return out

    def ops(self, ev):
        return sum(part.ops(part_ev) for part, part_ev in zip(self.parts, ev))

    def failed_ops(self, ev, outputs):
        return sum(
            part.failed_ops(part_ev, [out])
            for part, part_ev, out in zip(self.parts, ev, outputs)
        )


WORKLOADS = {
    "sweeps-o6": SweepsO6,
    "compute-families": ComputeFamilies,
    "verify-o8-sample": VerifyO8Sample,
}


def run_round(wl: Workload) -> dict:
    wl.before_round()
    outputs = []
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for argv in wl.commands():
        outputs.append(run_cli(argv))
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return {"wall": wall, "cpu": cpu, "outputs": outputs, **wl.after_round(outputs)}


def run_rounds(wl: Workload, seconds: float, min_rounds: int) -> list:
    rounds: list = []
    while len(rounds) < min_rounds or sum(r["wall"] for r in rounds) < seconds:
        rounds.append(run_round(wl))
    return rounds


def layer_metrics(tracer: Tracer, rounds: list, untraced_wall: float) -> dict:
    """Per-round self time of each layer (they add up to the traced round),
    call counts, record tallies and the tracing overhead."""
    self_time, calls = tracer.summary()
    k = len(rounds)
    out = {}
    for span in dict.fromkeys(span for _, _, span in LAYERS):
        out[SELF_TIME_NAMES.get(span, span + "_s")] = self_time.get(span, 0.0) / k
    for span in CALL_COUNTED:
        out[span + "_calls"] = calls[span] / k
    for kernel in KERNELS:
        out[f"backend.{kernel}.calls"] = calls["backend." + kernel] / k
    for name in ("verify.records", "sweep.records_kept", "sweep.canon_kept"):
        out[name] = tracer.tallies[name] / k
    built = out["verify.records"]
    out["sweep.kept_per_built"] = out["sweep.records_kept"] / built if built else 0.0
    out["sweep.report_bytes"] = median([r.get("bytes", 0) for r in rounds])
    traced_wall = median([r["wall"] for r in rounds])
    out["trace.round_s"] = traced_wall
    out["trace.spans"] = len(tracer.span_name) / k
    out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    # the measured gap is within the host's timing noise; the per-span cost
    # times the span count estimates the same overhead without that noise
    cost = Tracer.span_cost()
    out["trace.span_cost_us"] = cost * 1e6
    out["trace.overhead_est_pct"] = 100.0 * cost * out["trace.spans"] / untraced_wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--backend", choices=("compiled", "python"), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import forcing_lab

    print(f"forcing_lab backend: {forcing_lab.BACKEND_NAME}", file=sys.stderr)
    if forcing_lab.BACKEND_NAME != args.backend:
        print(f"refusing to run: wanted the {args.backend} backend", file=sys.stderr)
        return 2
    args.work.mkdir(parents=True, exist_ok=True)
    # the pool's workers are not traced, so traced runs use one worker
    workers = 1 if args.trace else O8_WORKERS
    wl = WORKLOADS[args.workload](args.work, args.seed, workers)
    wl.prepare()
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"backend": forcing_lab.BACKEND_NAME}
    if args.trace:
        untraced = run_rounds(wl, 0, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(wl, args.seconds, 1)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
        result["layers"] = layer_metrics(tracer, traced, untraced[0]["wall"])
        tracer.write(args.work / "traces" / f"{args.workload}-seed{args.seed}")
    else:
        rounds = run_rounds(wl, args.seconds, 2)  # two reports to compare
        peak_kb = max(resource.getrusage(w).ru_maxrss for w in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result["peak_rss_mb"] = peak_kb / 1024

    ev = wl.evidence(rounds)
    problems = wl.check(ev)
    try:
        plants = wl.plants(ev)
    except (KeyError, TypeError, StopIteration) as exc:  # output too broken to plant in
        plants = []
        problems.append(f"self-test: could not plant faults ({exc!r})")
    for label, bad, expected in plants:
        if not any(expected in p for p in wl.check(bad)):
            problems.append(f"self-test: the check missed a planted fault ({label})")
    wl.clean_up()
    per_round = wl.ops(ev)
    result.update(
        rounds=[{"wall": r["wall"], "cpu": r["cpu"]} for r in rounds],
        traced_rounds=len(traced) if args.trace else 0,
        ops_per_round=per_round,
        attempted=per_round * len(rounds),
        failed=sum(wl.failed_ops(ev, r["outputs"]) for r in rounds),
        problems=problems,
        planted=len(plants),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
