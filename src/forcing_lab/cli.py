"""Command-line entry point: compute | generate | verify | sweep.

Exit codes: 0 clean, 1 failed verdicts, 2 parse error, 3 resource ceiling,
4 conjecture counterexample under --strict-conjectures.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from typing import Optional

from .errors import FamilyError, GraphError, NoPerfectMatchingError, ResourceLimitError
from .families import family_instances, parse_family_spec
from .graphs import Graph, graph6_decode, graph6_encode
from .solver import (
    SolverLimits,
    anti_forcing_number,
    forcing_number,
    spectrum,
)
from .sweep import STATUSES, Report, SweepConfig, check_sweep, run_sweep

EXIT_OK = 0
EXIT_FAIL_RECORDS = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_STRICT_CONJECTURE = 4


def _default_workers() -> int:
    env = os.environ.get("FORCING_LAB_WORKERS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    ceiling = _int_at_least(0)  # 0 is a legal ceiling
    p.add_argument("--pm-limit", type=ceiling, default=SolverLimits.pm_limit)
    p.add_argument("--node-limit", type=ceiling, default=SolverLimits.node_limit)
    p.add_argument("--cycle-limit", type=ceiling, default=SolverLimits.cycle_limit)


def _limits(args) -> SolverLimits:
    return SolverLimits(args.pm_limit, args.node_limit, args.cycle_limit)


def _parse_input_graph(text: str) -> Graph:
    """Family spec when a colon is present, otherwise a graph6 line."""
    if ":" in text:
        pairs = list(family_instances(parse_family_spec(text)))
        if len(pairs) != 1:
            raise FamilyError(
                f"{text!r} expands to {len(pairs)} graphs; pass explicit parameters"
            )
        return pairs[0][1]
    return graph6_decode(text)


def cmd_compute(args) -> int:
    limits = _limits(args)
    try:
        g = _parse_input_graph(args.input)
    except (GraphError, FamilyError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        spec = spectrum(
            g, limits=limits, with_cycle_packing=not args.no_cycles, with_anti_forcing=True
        )
        if spec.af_error is not None:
            raise ResourceLimitError(spec.af_error)
        af_vals = spec.af_values
        f_idx = min(range(len(spec.per_matching)), key=lambda i: spec.per_matching[i][1])
        F_idx = max(range(len(spec.per_matching)), key=lambda i: spec.per_matching[i][1])
        af_idx = max(range(len(af_vals)), key=lambda i: af_vals[i])
        min_m = spec.per_matching[f_idx][0]
        max_m = spec.per_matching[F_idx][0]
        af_m = spec.per_matching[af_idx][0]
        forcing_witness = forcing_number(g, min_m, limits=limits)
        anti_witness = anti_forcing_number(g, af_m, limits=limits)
        c_values = None if spec.c_values is None else list(spec.c_values)
    except NoPerfectMatchingError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    payload = {
        "input": args.input,
        "graph6": graph6_encode(g),
        "n": g.order // 2,
        "order": g.order,
        "e": g.edge_count,
        "delta": g.min_degree,
        "f": spec.f_min,
        "F": spec.f_max,
        "Af": max(af_vals),
        "per_matching_f": [v for _, v in spec.per_matching],
        "c_values": c_values,
        "forcing_witness": {
            "matching": [list(e) for e in forcing_witness.witness_matching.edges],
            "forcing_set": [list(e) for e in forcing_witness.witness_set],
        },
        "max_forcing_matching": [list(e) for e in max_m.edges],
        "anti_forcing_witness": {
            "matching": [list(e) for e in anti_witness.witness_matching.edges],
            "removed_edges": [list(e) for e in anti_witness.witness_set],
        },
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"graph {args.input}: order={g.order} e={g.edge_count} delta={g.min_degree}")
        print(f"  f(G)={spec.f_min}  F(G)={spec.f_max}  Af(G)={max(af_vals)}")
        if c_values is not None:
            print(f"  C(G,M) per matching: {c_values}")
        print(f"  minimum forcing set: {forcing_witness.witness_set}")
        print(f"  attained on matching: {forcing_witness.witness_matching.edges}")
        print(f"  max-forcing matching: {max_m.edges}")
        print(f"  anti-forcing witness: remove {anti_witness.witness_set}")
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        spec = parse_family_spec(args.spec)
        for _label, g in itertools.islice(family_instances(spec), args.limit):
            print(graph6_encode(g))
    except (GraphError, FamilyError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _finish_report(report: Report, json_fh, csv_fh, args, start: float) -> int:
    """Write the report to the open ``--json`` and ``--csv`` files (None when
    not asked for), then print the summary and the wall time since
    ``start``, report writes included."""
    if json_fh:
        report.write_json(json_fh)
    if csv_fh:
        report.write_csv(csv_fh)
    totals = report.summary["totals"]
    tally = ", ".join(f"{totals[status]} {status}" for status in STATUSES)
    print(f"verified {report.summary['graphs_verified']} graphs: {tally}")
    elapsed = time.monotonic() - start
    print(f"wall time: {elapsed:.2f}s (workers={args.workers})", file=sys.stderr)
    if args.strict_conjectures and totals["counterexample"] > 0:
        return EXIT_STRICT_CONJECTURE
    if totals["fail"] > 0:
        return EXIT_FAIL_RECORDS
    return EXIT_OK


def cmd_sweep(args) -> int:
    """``verify`` and ``sweep``: the subcommand's arguments name the universe.
    The report files are opened before the sweep, so a path that cannot be
    written fails at once rather than after the sweep."""
    config = SweepConfig(
        mode=args.mode,
        max_order=args.max_order,
        side=args.side,
        workers=args.workers,
        limits=_limits(args),
        dedup=args.dedup,
        failures_only=args.failures_only,
        stream_path=args.stream,
        checkpoint=args.checkpoint,
    )
    start = time.monotonic()
    with contextlib.ExitStack() as outputs:
        try:
            check_sweep(config)  # a refused sweep leaves earlier reports as they were
            json_fh = args.json_path and outputs.enter_context(open(args.json_path, "w"))
            csv_fh = args.csv_path and outputs.enter_context(
                open(args.csv_path, "w", newline="")
            )
            report = run_sweep(config)
        # an output, stream or checkpoint path that cannot be opened, a
        # universe that cannot be planned, or a foreign checkpoint
        except (GraphError, OSError) as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        return _finish_report(report, json_fh, csv_fh, args, start)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forcing-lab",
        description="Exact forcing / anti-forcing solvers and theorem sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="spectrum, anti-forcing and witnesses for one graph")
    p.add_argument("input", help="graph6 line or family spec like H:6,2 / grid:4x4 / Q:3")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-cycles", action="store_true", help="skip C(G,M) values")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("generate", help="emit family instances as graph6 lines")
    p.add_argument("spec", help="family spec; G1:n expands to every member")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    for name, helptext in (
        ("verify", "verify a graph6 stream file"),
        ("sweep", "verify an exhaustively enumerated universe"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name == "verify":
            p.add_argument("stream", help="path to a graph6 lines file")
            p.set_defaults(
                mode="stream", max_order=SweepConfig.max_order, side=SweepConfig.side, dedup=False
            )
        else:
            p.set_defaults(stream=None)
            p.add_argument(
                "--mode",
                choices=("all_graphs", "bipartite_balanced"),
                default="all_graphs",
            )
            p.add_argument("--max-order", type=int, default=6)
            p.add_argument("--side", type=int, default=3)
            p.add_argument(
                "--dedup",
                action="store_true",
                help="verify one graph per isomorphism class, generated class by class",
            )
        p.add_argument("--json", dest="json_path", metavar="PATH", default=None)
        p.add_argument("--csv", dest="csv_path", metavar="PATH", default=None)
        p.add_argument("--workers", type=_int_at_least(1), default=_default_workers())
        p.add_argument("--strict-conjectures", action="store_true")
        p.add_argument("--failures-only", action="store_true")
        p.add_argument("--checkpoint", metavar="PATH", default=None)
        _add_limit_flags(p)
        p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
