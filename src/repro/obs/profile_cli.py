"""``python -m repro profile`` — the cycle-attribution profiler CLI.

Compiles a hic design, runs it with the profiler attached, and prints
the per-thread wait-state breakdown; optional exporters write the
folded-stack/SVG flamegraph, the Chrome-trace timeline, the JSON/CSV
breakdown, and the critical-path report.  Everything printed or written
is byte-deterministic for a fixed design + options (the CI
``profile-smoke`` job ``cmp``'s the JSON against a committed golden).

Examples::

    python -m repro profile design.hic
    python -m repro profile design.hic --kernel reference --critical-path
    python -m repro profile design.hic --flame flame.svg --top 10
    python -m repro profile design.hic --breakdown-json breakdown.json
"""

from __future__ import annotations

import argparse
import json
import sys

from .. import cli

#: Default simulation horizon (the Figure-1 golden runs use it too).
DEFAULT_CYCLES = 300


def _profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description=(
            "Attribute every simulated cycle of every thread to an "
            "exclusive wait state (executing, blocked-read, guard-stall, "
            "arbitration-loss, crossbar-transit, offchip-latency, idle) "
            "and report where the cycles went (see docs/profiling.md). "
            "Every kernel produces byte-identical attribution."
        ),
    )
    parser.add_argument("source", help="hic source file")
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="hottest wait cells / near-critical edges to list (default: 5)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="extract and print the critical path over the span graph",
    )
    parser.add_argument(
        "--flame",
        metavar="FILE",
        help=(
            "write a flamegraph: folded stacks, or a self-contained SVG "
            "when FILE ends in .svg"
        ),
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="FILE",
        help="write the attribution timeline as Chrome trace-event JSON",
    )
    parser.add_argument(
        "--breakdown-json",
        metavar="FILE",
        help="write the full attribution breakdown as JSON",
    )
    parser.add_argument(
        "--breakdown-csv",
        metavar="FILE",
        help="write the attribution cells as CSV",
    )
    cli.add_options(
        parser,
        "--organization", "--cycles", "--kernel", "--banks", "--dep-home",
        "--link-latency", "--traffic-rate", "--traffic-seed",
        "--max-wall-seconds",
    )
    parser.set_defaults(cycles=DEFAULT_CYCLES)
    return parser


def profile_main(argv: list[str] | None = None) -> int:
    return cli.run_command(_profile, _profile_parser().parse_args(argv))


def _profile(args: argparse.Namespace) -> int:
    from ..flow import build_simulation, compile_design
    from .critical_path import extract_critical_path, render_critical_path
    from .exporters import write_profile_chrome_trace
    from .flame import write_flame
    from .profiler import breakdown_csv, breakdown_dict, render_breakdown

    design = compile_design(
        cli.read_source(args.source), **cli.compile_options(args)
    )
    sim = build_simulation(design, kernel=args.kernel)
    profiler = sim.attach_profiler()
    if args.traffic_rate > 0:
        from ..net import drive_ingress

        drive_ingress(sim, args.traffic_rate, args.traffic_seed)
    sim.run(args.cycles, max_wall_seconds=args.max_wall_seconds)

    sys.stdout.write(render_breakdown(profiler, top=args.top))
    breakdown = breakdown_dict(profiler)
    if not breakdown["conservation"]["ok"]:
        print("error: attribution conservation violated", file=sys.stderr)
        return 1

    if args.critical_path:
        report = extract_critical_path(
            sim.telemetry.spans.spans, makespan=args.cycles
        )
        sys.stdout.write(render_critical_path(report, top=args.top))

    if args.breakdown_json:
        with open(args.breakdown_json, "w") as handle:
            handle.write(json.dumps(breakdown, sort_keys=True, indent=2) + "\n")
        print(f"wrote breakdown JSON to {args.breakdown_json}")
    if args.breakdown_csv:
        with open(args.breakdown_csv, "w") as handle:
            handle.write(breakdown_csv(profiler))
        print(f"wrote breakdown CSV to {args.breakdown_csv}")
    if args.flame:
        write_flame(profiler, args.flame)
        print(f"wrote flamegraph to {args.flame}")
    if args.chrome_trace:
        write_profile_chrome_trace(profiler, args.chrome_trace)
        print(f"wrote profile Chrome trace to {args.chrome_trace}")
    return 0
