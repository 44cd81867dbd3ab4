#!/usr/bin/env python3
"""Tour of the telemetry layer: traces, spans, and metrics.

Runs the 4-consumer IP-forwarding design with telemetry attached and
writes every exporter's output — a Perfetto-loadable Chrome trace, a
Prometheus text exposition, and JSON/CSV summaries — then prints the
highlights: dependency-span statistics (the paper's §3.1 wait
distribution), watchdog counters, and where the artifacts landed.

Run:  python examples/telemetry_tour.py [output-dir]

Without an argument the artifacts go to a temporary directory.
"""

import sys
import tempfile
from pathlib import Path

from repro.flow import build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.obs.exporters import (
    dumps_chrome_trace,
    dumps_summary,
    dumps_summary_csv,
    prometheus_text,
)

CONSUMERS = 4
CYCLES = 2000


def main() -> None:
    if len(sys.argv) > 1:
        out_dir = Path(sys.argv[1])
        out_dir.mkdir(parents=True, exist_ok=True)
    else:
        out_dir = Path(tempfile.mkdtemp(prefix="telemetry_tour_"))

    design = compile_design(forwarding_source(CONSUMERS))
    sim = build_simulation(design, functions=forwarding_functions(demo_table()))
    telemetry = sim.attach_telemetry()
    generator = BernoulliTraffic(rate=0.06, seed=1)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    sim.run(CYCLES)

    # Every exporter returns text; writing it is up to the caller.
    trace_path = out_dir / "trace.json"
    metrics_path = out_dir / "metrics.prom"
    summary_path = out_dir / "summary.json"
    csv_path = out_dir / "metrics.csv"
    trace_path.write_text(dumps_chrome_trace(telemetry))
    metrics_path.write_text(prometheus_text(telemetry))
    summary_path.write_text(dumps_summary(telemetry))
    csv_path.write_text(dumps_summary_csv(telemetry), newline="")

    print(telemetry.describe())
    print()
    print("dependency spans (producer write -> last consumer read):")
    for (bram, dep_id), stats in telemetry.spans.wait_statistics().items():
        if not stats["observed"]:
            print(f"  {bram}/{dep_id}: n/a (no samples observed)")
            continue
        print(
            f"  {bram}/{dep_id}: {stats['complete']}/{stats['spans']} spans "
            f"complete, {stats['reads']} reads, "
            f"wait {stats['wait_min']}..{stats['wait_max']} cycles "
            f"(mean {stats['wait_mean']:.1f}), post-write "
            f"{stats['post_write_min']}..{stats['post_write_max']}"
        )

    registry = telemetry.finalize()
    granted = registry.get("sim_requests_granted_total")
    print()
    print("grants per controller port:")
    for (bram, port), count in granted.samples():
        print(f"  {bram} port {port}: {count}")

    print()
    print(f"artifacts in {out_dir}:")
    for path in (trace_path, metrics_path, summary_path, csv_path):
        print(f"  {path.name}: {path.stat().st_size} bytes")
    print()
    print("load trace.json in https://ui.perfetto.dev to see the spans.")


if __name__ == "__main__":
    main()
