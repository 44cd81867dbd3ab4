"""``python -m repro run`` and ``python -m repro scenarios`` sub-tools.

``run`` executes one catalogued scenario on a chosen kernel and channel
synthesis mode, with the same telemetry outputs as the main driver.
``scenarios`` compiles every scenario both ways and prints the
per-channel classification report with area/progress deltas
(``--json`` writes the versioned report document for CI artifacts).
"""

from __future__ import annotations

import argparse
import json

from .. import cli
from ..core.advisor import Organization
from .catalog import SCENARIO_NAMES, get_scenario
from .report import (
    CHANNEL_SYNTHESIS_MODES,
    REPORT_SCHEMA,
    render_report,
    scenario_report,
)


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description=(
            "Run one streaming process-network scenario "
            "(see docs/scenarios.md)."
        ),
    )
    parser.add_argument(
        "--scenario",
        required=True,
        choices=list(SCENARIO_NAMES),
        help="catalogued scenario to build and run",
    )
    parser.add_argument(
        "--channel-synthesis",
        choices=list(CHANNEL_SYNTHESIS_MODES),
        default="fifo",
        help=(
            "'fifo' lowers proven single-writer in-order channels to "
            "plain FIFOs; 'guarded' keeps every dependency on the "
            "paper's machinery (default: fifo)"
        ),
    )
    cli.add_options(
        parser,
        "--organization", "--kernel", "--cycles", "--trace-level",
        "--summary-json", "--trace-json", "--metrics",
    )
    return parser


def run_main(argv: list[str]) -> int:
    return cli.run_command(_run, _run_parser().parse_args(argv))


def _run(args: argparse.Namespace) -> int:
    from .catalog import build_scenario_simulation

    scenario = get_scenario(args.scenario)
    design, sim = build_scenario_simulation(
        scenario,
        channel_synthesis=args.channel_synthesis,
        kernel=args.kernel,
        organization=Organization(args.organization),
    )
    telemetry = sim.attach_telemetry(trace_level=args.trace_level)
    result = sim.run(args.cycles)

    fifo_channels = sorted(design.fifo_deps)
    guarded = [
        d.dep_id
        for d in design.channel_decisions.values()
        if not d.is_fifo
    ]
    print(
        f"scenario {scenario.name!r} ({scenario.title}): "
        f"{len(design.fsms)} threads, "
        f"{len(design.checked.dependencies)} dependencies, "
        f"channel synthesis {design.channel_synthesis!r}"
    )
    if design.channel_synthesis == "fifo":
        print(
            f"channels: {len(fifo_channels)} fifo "
            f"({', '.join(fifo_channels) or '-'}), "
            f"{len(guarded)} guarded ({', '.join(sorted(guarded)) or '-'})"
        )
    print(result.describe())
    for name in scenario.sink_threads:
        rounds = sim.executors[name].stats.rounds_completed
        print(f"  sink {name}: {rounds} rounds completed")

    cli.write_telemetry(telemetry, args)
    return 0


def _scenarios_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenarios",
        description=(
            "Per-channel classification report with area/progress deltas "
            "of FIFO vs all-guarded synthesis (see docs/scenarios.md)."
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=list(SCENARIO_NAMES),
        default=None,
        help="report one scenario only (default: all)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the versioned report document to FILE",
    )
    cli.add_options(parser, "--organization", "--kernel", "--cycles")
    return parser


def scenarios_main(argv: list[str]) -> int:
    return cli.run_command(_scenarios, _scenarios_parser().parse_args(argv))


def _scenarios(args: argparse.Namespace) -> int:
    names = [args.scenario] if args.scenario else list(SCENARIO_NAMES)
    reports = []
    for name in names:
        report = scenario_report(
            name,
            organization=Organization(args.organization),
            cycles=args.cycles,
            kernel=args.kernel,
        )
        reports.append(report)
        print(render_report(report))

    if args.json:
        document = {"schema": REPORT_SCHEMA, "reports": reports}
        cli.write_output(
            args.json,
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            "scenario report",
        )
    return 0
