"""``python -m repro profile`` — the cycle-attribution profiler CLI.

Compiles a hic design, runs it with the profiler attached, and prints
the per-thread wait-state breakdown and, optionally, the critical-path
report; on request it writes the folded-stack/SVG flamegraph, the
Chrome-trace timeline and the JSON/CSV breakdown.  Everything printed or
written is byte-deterministic for a fixed design + options (the CI
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
    from .exporters import dumps_profile_chrome_trace
    from .flame import folded_stacks, render_flame_svg
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
        cli.write_output(
            args.breakdown_json,
            json.dumps(breakdown, sort_keys=True, indent=2) + "\n",
            "breakdown JSON",
        )
    if args.breakdown_csv:
        cli.write_output(
            args.breakdown_csv, breakdown_csv(profiler), "breakdown CSV"
        )
    if args.flame:
        flame = (
            render_flame_svg if args.flame.endswith(".svg") else folded_stacks
        )
        cli.write_output(args.flame, flame(profiler), "flamegraph")
    if args.chrome_trace:
        cli.write_output(
            args.chrome_trace,
            dumps_profile_chrome_trace(profiler),
            "profile Chrome trace",
        )
    return 0
