"""Unified telemetry: dependency-lifecycle tracing, metrics, exporters.

The observability layer over the simulator and memory controllers:

* :mod:`~repro.obs.events` — structured cycle events;
* :mod:`~repro.obs.spans` — dependency-lifecycle span assembly
  (producer write → guard armed → blocked wait → consumer reads →
  counter drain);
* :mod:`~repro.obs.metrics` — a labelled counter/gauge/histogram
  registry with Prometheus text exposition;
* :mod:`~repro.obs.tracer` — :class:`Telemetry`, the observer that
  attaches to a simulation (zero overhead when not attached: every
  seam is a single ``is not None`` check);
* :mod:`~repro.obs.exporters` — Chrome trace-event JSON (Perfetto),
  Prometheus text, and JSON/CSV summaries, all byte-deterministic for
  a fixed simulation seed;
* :mod:`~repro.obs.attribution` / :mod:`~repro.obs.profiler` — the
  cycle-attribution profiler: every simulated cycle of every thread
  booked into one exclusive wait state, per controller/bank/port;
* :mod:`~repro.obs.critical_path` — longest weighted chain over the
  dependency span graph, with per-edge slack;
* :mod:`~repro.obs.flame` — folded-stack / SVG flamegraphs of the
  attribution ledger.

See ``docs/observability.md`` for the event schema and span model, and
``docs/profiling.md`` for the attribution taxonomy.
"""

from .attribution import NO_SITE, WAIT_STATES, AttributionLedger, Segment
from .critical_path import extract_critical_path, render_critical_path
from .events import EventKind, TraceEvent
from .exporters import (
    chrome_trace,
    dumps_chrome_trace,
    dumps_profile_chrome_trace,
    dumps_summary,
    dumps_summary_csv,
    profile_chrome_trace,
    prometheus_text,
    summary_dict,
    validate_chrome_trace,
    write_bench_json,
)
from .flame import folded_stacks, render_flame_svg
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiler import (
    PROFILE_SCHEMA,
    CycleProfiler,
    attach_profiler,
    breakdown_csv,
    breakdown_dict,
    merge_profiles,
    render_breakdown,
)
from .spans import ConsumerRead, DependencySpan, SpanAssembler
from .tracer import Telemetry, attach_telemetry

__all__ = [
    "EventKind",
    "TraceEvent",
    "chrome_trace",
    "dumps_chrome_trace",
    "dumps_profile_chrome_trace",
    "dumps_summary",
    "dumps_summary_csv",
    "profile_chrome_trace",
    "prometheus_text",
    "summary_dict",
    "validate_chrome_trace",
    "write_bench_json",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ConsumerRead",
    "DependencySpan",
    "SpanAssembler",
    "Telemetry",
    "attach_telemetry",
    "NO_SITE",
    "WAIT_STATES",
    "AttributionLedger",
    "Segment",
    "extract_critical_path",
    "render_critical_path",
    "folded_stacks",
    "render_flame_svg",
    "PROFILE_SCHEMA",
    "CycleProfiler",
    "attach_profiler",
    "breakdown_csv",
    "breakdown_dict",
    "merge_profiles",
    "render_breakdown",
]
