"""Command-line driver: ``python -m repro <design.hic> [options]``.

Runs the full flow over a hic source file and prints the reports; a small
stand-in for the front-end tool the paper describes.

Examples::

    python -m repro design.hic
    python -m repro design.hic --organization event_driven --verilog out.v
    python -m repro design.hic --simulate 1000 --vcd trace.vcd
    python -m repro faults --seed 7 --runs 8        # chaos campaign
    python -m repro profile design.hic --flame f.svg  # cycle attribution
    python -m repro predict design.hic --rate 0.9   # analytical model
    python -m repro predict --validate              # model vs simulator
    python -m repro run --scenario pipeline         # streaming scenario
    python -m repro scenarios --json report.json    # channel-class report
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cli
from .flow import build_simulation, compile_design
from .sim import ConsumerLatencyProbe, VcdWriter, determinism_report


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Compile a hic design to synchronized FPGA implementation\n"
            "estimates (reproduction of Kulkarni & Brebner, DATE 2006)."
        ),
        epilog=cli.commands_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("source", help="hic source file")
    parser.add_argument(
        "--simulate",
        type=int,
        metavar="CYCLES",
        default=0,
        help=(
            "run the cycle-accurate simulator for CYCLES cycles (1000 "
            "when a telemetry output is asked for without it)"
        ),
    )
    parser.add_argument(
        "--verilog",
        metavar="FILE",
        help="write the generated structural Verilog to FILE",
    )
    parser.add_argument(
        "--thread-verilog",
        metavar="DIR",
        help="write behavioral Verilog for each thread FSM into DIR",
    )
    parser.add_argument(
        "--vcd",
        metavar="FILE",
        help="write a VCD trace of the simulation to FILE",
    )
    parser.add_argument(
        "--summary-csv",
        metavar="FILE",
        help="write a CSV metrics dump of the simulation to FILE",
    )
    parser.add_argument(
        "--shard-policy",
        choices=["interleaved", "range"],
        default="interleaved",
        help="fabric address sharding policy (default: interleaved)",
    )
    parser.add_argument(
        "--no-deadlock-check",
        action="store_true",
        help="skip the static deadlock check",
    )
    parser.add_argument(
        "--infer-pragmas",
        action="store_true",
        help=(
            "derive producer/consumer dependencies from use-def analysis "
            "instead of requiring explicit pragmas"
        ),
    )
    parser.add_argument(
        "--allow-offchip",
        action="store_true",
        help="spill private data too large for one BRAM to external SRAM",
    )
    parser.add_argument(
        "--optimize",
        action="store_true",
        help="run the FSM optimization passes before binding",
    )
    cli.add_options(
        parser,
        "--organization", "--deplist-entries", "--banks", "--link-latency",
        "--batch-size", "--dep-home", "--kernel", "--traffic-rate",
        "--traffic-seed", "--max-wall-seconds", "--trace-level",
        "--trace-json", "--metrics", "--summary-json",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in cli.COMMANDS:
        return cli.dispatch(argv[0], argv[1:])
    return cli.run_command(_compile, _parser().parse_args(argv))


def _compile(args: argparse.Namespace) -> int:
    design = compile_design(
        cli.read_source(args.source),
        **cli.compile_options(args),
        check_deadlock=not args.no_deadlock_check,
        infer_pragmas=args.infer_pragmas,
        allow_offchip=args.allow_offchip,
        optimize=args.optimize,
        shard_policy=args.shard_policy,
    )

    print(f"design {design.name!r}: {len(design.fsms)} threads, "
          f"{design.memory_map.bram_count()} BRAM(s), "
          f"{len(design.checked.dependencies)} dependencies")
    if design.fabric is not None:
        plan = design.fabric
        print(
            f"fabric: {plan.config.num_banks} banks "
            f"({plan.policy.describe()}), link latency "
            f"{plan.config.link_latency}, batch {plan.config.batch_size}, "
            f"{plan.cross_bank_count} cross-bank dependencies"
        )
        print(design.fabric_area_report().render())
        print(design.fabric_timing_report().render())
    else:
        for bram in design.memory_map.bram_names:
            area = design.area_report(bram)
            print(
                f"  {bram}: LUT={area.luts} FF={area.ffs} slices={area.slices}"
            )
            print(f"  {design.timing_report(bram).render()}")
    utilization = design.utilization()
    print(utilization.render())

    if args.verilog:
        # design.verilog() may refuse the design's module names
        cli.write_output(args.verilog, design.verilog(), "Verilog")

    if args.thread_verilog:
        for thread_name in design.fsms:
            cli.write_output(
                os.path.join(
                    args.thread_verilog, f"thread_{thread_name}_fsm.v"
                ),
                design.thread_verilog(thread_name),
                make_parent=True,
            )
        print(
            f"wrote {len(design.fsms)} thread FSMs to {args.thread_verilog}/"
        )

    telemetry_outputs = [
        args.trace_json, args.metrics, args.summary_json, args.summary_csv
    ]
    if any(telemetry_outputs) and args.simulate <= 0:
        # Telemetry without an explicit horizon: run a default 1000 cycles.
        args.simulate = 1000
    if args.simulate <= 0:
        return 0

    sim = build_simulation(design, kernel=args.kernel)
    telemetry = None
    if any(telemetry_outputs):
        telemetry = sim.attach_telemetry(trace_level=args.trace_level)
    if args.traffic_rate > 0:
        from .net import drive_ingress

        drive_ingress(sim, args.traffic_rate, args.traffic_seed)
    vcd = None
    if args.vcd:
        vcd = VcdWriter(timescale="8 ns")
        for name, executor in sim.executors.items():
            states = sorted(executor.fsm.states)
            vcd.add_signal(
                f"{name}.state",
                max(1, (len(states) - 1).bit_length()),
                lambda ex=executor, st=states: st.index(ex.state_name),
            )
        sim.kernel.add_post_cycle_hook(vcd.hook)
    result = sim.run(args.simulate, max_wall_seconds=args.max_wall_seconds)
    print(result.describe())
    if hasattr(sim.kernel, "cycles_compiled"):
        print(
            f"kernel: compiled, {sim.kernel.cycles_compiled} cycles "
            f"compiled, {sim.kernel.cycles_interpreted} interpreted"
        )
    elif hasattr(sim.kernel, "cycles_skipped"):
        print(
            f"kernel: wheel, {sim.kernel.cycles_executed} cycles "
            f"executed, {sim.kernel.cycles_skipped} skipped"
        )
    for name, controller in sim.controllers.items():
        if hasattr(controller, "fabric_stats"):
            stats = controller.fabric_stats()
            print(
                f"{name}: crossbar forwarded="
                f"{stats['crossbar']['forwarded']} "
                f"delivered={stats['crossbar']['delivered']} "
                f"router gated={stats['router']['gated_cycles']}"
            )
            for bank, per_bank in sorted(stats["banks"].items()):
                print(
                    f"  {bank}: routed={per_bank['routed']} "
                    f"granted={per_bank['granted']}"
                )
    for bram, controller in sim.controllers.items():
        probe = ConsumerLatencyProbe(controller, guarded_ports=("C", "B", "G"))
        report = determinism_report(probe)
        if report != "no guarded accesses observed":
            print(f"{bram} guarded-access latency:")
            print(report)
    if vcd is not None:
        cli.write_output(args.vcd, vcd.render(), "VCD trace")
    if telemetry is not None:
        cli.write_telemetry(telemetry, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
