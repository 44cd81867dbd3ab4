"""Export goldens: every telemetry and profiler export, frozen by digest.

``golden/exports.json`` holds the sha256 of each exporter's output for
six seeded runs, on every simulation kernel:

* ``figure1`` — the Figure-1 forwarder (``forwarding_source(2)``,
  arbitrated, ``BernoulliTraffic(0.06, seed=1)``) traced at
  ``trace_level="full"`` with the profiler, on one BRAM;
* ``figure1-banks4`` — the same on a four-bank memory fabric;
* ``figure1-event-driven`` and ``figure1-lock-baseline`` — the same on
  one BRAM under the other two organizations: the event-driven one
  writes ``chain`` instants, the lock baseline closes its spans through
  its own counter protocol;
* ``fanout-fifo`` — the catalogued fan-out network with FIFO-lowered
  channels, profiled at the default ``deps`` trace level;
* ``faulted`` — ``forwarding_source(4)`` under a break-dependency
  watchdog and a producer stall, traced at ``trace_level="full"`` with
  the profiler: its watchdog and recovery instants reach the telemetry
  through the watchdog's and the injector's seams.

The exports are ``dumps_chrome_trace``, ``dumps_summary``,
``prometheus_text``, the ``dumps_summary_csv`` text written to a file,
``dumps_profile_chrome_trace`` and the ``breakdown_dict`` JSON.  Any
change to the observability layer's internals must reproduce all of
them byte for byte.

To regenerate after an *intentional* export change::

    PYTHONPATH=src python tests/obs/test_export_goldens.py
"""

import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from repro.core import Organization
from repro.faults.models import ProducerStall
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.obs import (
    breakdown_dict,
    chrome_trace,
    dumps_chrome_trace,
    dumps_profile_chrome_trace,
    dumps_summary,
    dumps_summary_csv,
    prometheus_text,
)
from repro.obs.events import EventKind
from repro.scenarios import catalog

GOLDEN = Path(__file__).parent / "golden" / "exports.json"

CYCLES = 800


def _figure1(num_banks, kernel, organization=Organization.ARBITRATED):
    design = compile_design(
        forwarding_source(2), organization=organization, num_banks=num_banks
    )
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    telemetry = sim.attach_telemetry(trace_level="full", profile=True)
    generator = BernoulliTraffic(rate=0.06, seed=1)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    sim.run(CYCLES)
    return telemetry


def _fanout_fifo(kernel):
    scenario = catalog.get_scenario("fanout")
    design = compile_design(
        scenario.source, name=scenario.name, channel_synthesis="fifo"
    )
    sim = build_simulation(design, scenario.functions(), kernel=kernel)
    telemetry = sim.attach_telemetry(profile=True)
    sim.run(CYCLES)
    return telemetry


def _faulted_run(kernel):
    """Watchdog firings and recoveries: instants with ``detail``."""
    design = compile_design(forwarding_source(4))
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    telemetry = sim.attach_telemetry(trace_level="full", profile=True)
    sim.attach_watchdog(policy="break-dependency", read_timeout=32)
    sim.inject_faults([ProducerStall(at_cycle=10, client="classify")])
    generator = BernoulliTraffic(rate=0.2, seed=3)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    sim.run(400)
    return telemetry


RUNS = {
    "figure1": lambda kernel: _figure1(0, kernel),
    "figure1-banks4": lambda kernel: _figure1(4, kernel),
    "figure1-event-driven": lambda kernel: _figure1(
        0, kernel, Organization.EVENT_DRIVEN
    ),
    "figure1-lock-baseline": lambda kernel: _figure1(
        0, kernel, Organization.LOCK_BASELINE
    ),
    "fanout-fifo": _fanout_fifo,
    "faulted": _faulted_run,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def export_digests(telemetry) -> dict[str, str]:
    """sha256 of every export of one observed run."""
    profiler = telemetry.profiler
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "summary.csv"
        csv_path.write_text(dumps_summary_csv(telemetry), newline="")
        summary_csv = csv_path.read_text()
    breakdown = json.dumps(breakdown_dict(profiler), sort_keys=True, indent=2)
    return {
        "chrome_trace": _sha(dumps_chrome_trace(telemetry)),
        "summary": _sha(dumps_summary(telemetry)),
        "prometheus": _sha(prometheus_text(telemetry)),
        "summary_csv": _sha(summary_csv),
        "profile_trace": _sha(dumps_profile_chrome_trace(profiler)),
        "breakdown": _sha(breakdown + "\n"),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_exports_match_golden(run, kernel, golden):
    telemetry = RUNS[run](kernel)
    assert export_digests(telemetry) == golden[run]
    assert telemetry.profiler.conservation_report()["ok"]


def test_exports_are_idempotent(golden):
    """Exporting twice (``finalize`` runs again each time) changes
    nothing."""
    telemetry = RUNS["figure1"]("wheel")
    first = export_digests(telemetry)
    assert export_digests(telemetry) == first == golden["figure1"]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_chrome_trace_is_built_in_sorted_key_order(run):
    """``dumps_chrome_trace`` writes each event's text with its keys in
    sorted order: the text must be canonical sorted-key compact JSON, so
    re-serializing the document it parses to (``chrome_trace``) with
    ``sort_keys=True`` changes nothing."""
    telemetry = RUNS[run]("wheel")
    kinds = {event.kind for event in telemetry.events}
    if run == "faulted":
        assert {"watchdog", "recovery"} <= kinds
    document = chrome_trace(telemetry)
    resorted = json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert dumps_chrome_trace(telemetry) == resorted + "\n"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_chrome_trace_export_memory_is_proportional_to_its_text(run):
    """``dumps_chrome_trace`` writes each event's text and joins them
    once: its transient memory peaks at a small multiple of the text it
    returns, not at a document tree plus an encoder's chunk list."""
    telemetry = RUNS[run]("wheel")
    tracemalloc.start()
    try:
        text = dumps_chrome_trace(telemetry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def test_chrome_trace_checks_every_event_it_writes():
    """A negative timestamp anywhere fails the export with the index of
    the offending event in ``traceEvents``: an instant recorded at cycle
    -1 (the last event) and the first dependency slice (after the six
    metadata events)."""
    telemetry = RUNS["figure1"]("wheel")
    negative_ts = "ts must be a non-negative number"
    records = telemetry.event_records()
    records.append(
        (-1, EventKind.OVERRIDE, "bram0", None, None, None, None, None, None)
    )
    with pytest.raises(ValueError) as excinfo:
        dumps_chrome_trace(telemetry)
    assert str(excinfo.value) == f"traceEvents[1463]: {negative_ts}"
    records.pop()
    telemetry.spans.spans[0].write_cycle = -5
    with pytest.raises(ValueError) as excinfo:
        dumps_chrome_trace(telemetry)
    assert str(excinfo.value) == f"traceEvents[6]: {negative_ts}"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_profile_trace_export_memory_is_proportional_to_its_text(run):
    """``dumps_profile_chrome_trace`` writes each event's text and joins
    them once.  The ledger folds its timelines before the measurement:
    they are the profiler's own state, not the export's."""
    profiler = RUNS[run]("wheel").profiler
    profiler.ledger.timelines
    tracemalloc.start()
    try:
        text = dumps_profile_chrome_trace(profiler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def test_profile_trace_checks_every_event_it_writes():
    """A bad segment fails the export with the index of its slice in
    ``traceEvents``: the first thread's third segment follows the four
    metadata events."""
    profiler = RUNS["figure1"]("wheel").profiler
    first = sorted(profiler.ledger.timelines)[0]
    segment = profiler.ledger.timelines[first][2]
    start, length = segment.start, segment.length
    segment.start = -4
    with pytest.raises(ValueError) as excinfo:
        dumps_profile_chrome_trace(profiler)
    assert str(excinfo.value) == (
        "traceEvents[6]: ts must be a non-negative number"
    )
    segment.start, segment.length = start, -1
    with pytest.raises(ValueError) as excinfo:
        dumps_profile_chrome_trace(profiler)
    assert str(excinfo.value) == (
        "traceEvents[6]: X event needs non-negative dur"
    )


def main() -> None:
    digests = {run: export_digests(RUNS[run]("wheel")) for run in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
