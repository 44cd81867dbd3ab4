"""Cycle-attribution profiler: conservation, kernel equivalence,
classification rules, exporters, and the profile CLI."""

import json

import pytest

from repro.core import ArbitratedController, MemRequest, Organization
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.memory import BlockRam, DependencyEntry, DependencyList
from repro.net import (
    BernoulliTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.obs import (
    AttributionLedger,
    CycleProfiler,
    breakdown_csv,
    breakdown_dict,
    extract_critical_path,
    folded_stacks,
    merge_profiles,
    render_breakdown,
    render_critical_path,
    render_flame_svg,
)
from repro.obs.attribution import (
    ARBITRATION,
    BLOCKED_READ,
    EXECUTING,
    GUARD_STALL,
    IDLE,
    NO_SITE,
    WAIT_STATES,
)
from repro.obs.exporters import dumps_profile_chrome_trace
from repro.obs.profile_cli import profile_main

from .conftest import run_forwarding


def run_profiled(
    organization=Organization.ARBITRATED,
    cycles=400,
    kernel="reference",
    seed=1,
):
    """Forwarding workload with the profiler attached."""
    design = compile_design(
        forwarding_source(4), organization=organization
    )
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    profiler = sim.attach_profiler()
    generator = BernoulliTraffic(rate=0.06, seed=seed)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    sim.run(cycles)
    return sim, profiler


# -- conservation -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "organization",
    [
        Organization.ARBITRATED,
        Organization.EVENT_DRIVEN,
        Organization.LOCK_BASELINE,
    ],
)
@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
def test_conservation_per_organization(organization, kernel):
    """Every simulated cycle of every thread is attributed exactly once."""
    sim, profiler = run_profiled(organization, kernel=kernel)
    report = profiler.conservation_report()
    assert report["ok"], report
    totals = profiler.ledger.thread_totals()
    for name, executor in sim.kernel.executors.items():
        assert totals[name] == executor.stats.cycles


def test_state_totals_cover_all_cycles():
    sim, profiler = run_profiled()
    breakdown = breakdown_dict(profiler)
    per_state = sum(breakdown["states"].values())
    per_thread = sum(t["total"] for t in breakdown["threads"].values())
    assert per_state == per_thread
    assert breakdown["cycles"] == 400
    assert set(breakdown["states"]) == set(WAIT_STATES)


# -- wheel == reference -----------------------------------------------------------------


@pytest.mark.parametrize(
    "organization", [Organization.ARBITRATED, Organization.EVENT_DRIVEN]
)
def test_kernel_equivalence_forwarding(organization):
    """Wheel idle-skips batch-book into the same cells and segments."""
    __, ref = run_profiled(organization, kernel="reference")
    __, whl = run_profiled(organization, kernel="wheel")
    ref_json = json.dumps(breakdown_dict(ref), sort_keys=True)
    whl_json = json.dumps(breakdown_dict(whl), sort_keys=True)
    assert ref_json == whl_json
    assert ref.ledger.timelines == pytest.approx(ref.ledger.timelines)
    for thread in ref.ledger.timelines:
        assert ref.ledger.timelines[thread] == whl.ledger.timelines[thread]


def test_kernel_equivalence_figure1(figure1_source):
    """The paper's Figure-1 pattern: byte-for-byte equal breakdowns."""
    docs = []
    for kernel in SIMULATION_KERNELS:
        design = compile_design(
            figure1_source, organization=Organization.ARBITRATED
        )
        sim = build_simulation(design, kernel=kernel)
        profiler = sim.attach_profiler()
        sim.run(300)
        docs.append(
            json.dumps(breakdown_dict(profiler), sort_keys=True, indent=2)
        )
    assert docs[0] == docs[1]


def test_figure1_breakdown_matches_committed_golden(figure1_source, request):
    """The committed golden pins the CLI-default Figure-1 attribution
    (the CI profile-smoke job cmp's the same bytes)."""
    design = compile_design(
        figure1_source, organization=Organization.ARBITRATED
    )
    sim = build_simulation(design, kernel="wheel")
    profiler = sim.attach_profiler()
    sim.run(300)
    fresh = json.dumps(breakdown_dict(profiler), sort_keys=True, indent=2) + "\n"
    golden = request.path.parent / "golden" / "figure1_breakdown.json"
    assert fresh == golden.read_text()


@pytest.mark.parametrize("organization", ["event_driven", "lock_baseline"])
def test_figure1_breakdown_per_organization_matches_committed_golden(
    figure1_source, organization, request
):
    """``profile examples/figure1.hic --organization ORG`` (the CI
    profile-smoke job cmp's the same bytes on every kernel)."""
    design = compile_design(
        figure1_source, organization=Organization(organization)
    )
    sim = build_simulation(design, kernel="wheel")
    profiler = sim.attach_profiler()
    sim.run(300)
    fresh = json.dumps(breakdown_dict(profiler), sort_keys=True, indent=2) + "\n"
    golden = (
        request.path.parent / "golden" / f"figure1_breakdown_{organization}.json"
    )
    assert fresh == golden.read_text()


# -- attribution ledger -----------------------------------------------------------------


def test_ledger_merges_contiguous_segments():
    ledger = AttributionLedger()
    ledger.book("t", EXECUTING, NO_SITE, NO_SITE, 0, 3)
    ledger.book("t", EXECUTING, NO_SITE, NO_SITE, 3, 2)
    ledger.book("t", BLOCKED_READ, "b", "C", 5, 4)
    assert ledger.cells[("t", EXECUTING, NO_SITE, NO_SITE)] == 5
    timeline = ledger.timelines["t"]
    assert len(timeline) == 2
    assert (timeline[0].start, timeline[0].length) == (0, 5)
    assert (timeline[1].state, timeline[1].end) == (BLOCKED_READ, 9)


def test_ledger_lazy_materialization_is_incremental():
    """Reading views mid-stream then booking more keeps totals exact."""
    ledger = AttributionLedger()
    ledger.book("t", EXECUTING, NO_SITE, NO_SITE, 0, 2)
    assert ledger.cells[("t", EXECUTING, NO_SITE, NO_SITE)] == 2
    ledger.book("t", EXECUTING, NO_SITE, NO_SITE, 2, 1)
    ledger.book("u", IDLE, NO_SITE, NO_SITE, 0, 3)
    assert ledger.cells[("t", EXECUTING, NO_SITE, NO_SITE)] == 3
    assert len(ledger.timelines["t"]) == 1
    assert ledger.thread_totals() == {"t": 3, "u": 3}


def test_ledger_merge_is_commutative():
    def build(order):
        ledger = AttributionLedger()
        for args in order:
            ledger.book(*args)
        return ledger

    a = [("t", EXECUTING, NO_SITE, NO_SITE, 0, 2)]
    b = [("t", ARBITRATION, "b", "C", 2, 3), ("u", IDLE, NO_SITE, NO_SITE, 0, 1)]
    left = build(a)
    left.merge(build(b))
    right = build(b)
    right.merge(build(a))
    assert left.cells == right.cells


# -- classification rules ---------------------------------------------------------------


def make_arbitrated():
    names = ["c0", "c1"]
    deplist = DependencyList(
        bram="b",
        entries=[DependencyEntry("d", 2, 0, "p", tuple(names))],
    )
    return ArbitratedController(BlockRam("b"), deplist, names, ["p"])


def test_classify_wait_arbitrated_rules():
    controller = make_arbitrated()
    read = MemRequest(client="c0", port="C", address=0, write=False, dep_id="d")
    write = MemRequest(
        client="p", port="D", address=0, write=True, data=1, dep_id="d"
    )
    # Unarmed guard: the consumer read is held by the dependency guard.
    assert controller.classify_wait(read) == (BLOCKED_READ, "b", "C")
    # Arm it: a producer write is now a guard stall until the round drains.
    controller.deplist.note_producer_write(0, "p", "d")
    assert controller.classify_wait(write) == (GUARD_STALL, "b", "D")
    # The armed consumer read is grantable: any wait is arbitration loss.
    assert controller.classify_wait(read) == (ARBITRATION, "b", "C")


def test_classify_epoch_bumps_on_guard_mutation():
    controller = make_arbitrated()
    read = MemRequest(client="c0", port="C", address=0, write=False, dep_id="d")
    before = controller.classify_epoch
    controller.submit(
        MemRequest(
            client="p", port="D", address=0, write=True, data=7, dep_id="d"
        )
    )
    controller.arbitrate(0)
    assert controller.classify_epoch != before
    # The classification changed with the epoch: memoized answers from
    # before the arm must not be replayed.
    assert controller.classify_wait(read) == (ARBITRATION, "b", "C")


def test_blocked_view_identity_is_stable_while_membership_holds():
    """The controller keeps the same blocked_by_client object across
    cycles with unchanged blocked membership — the profiler's steady
    signal — and replaces it when membership changes."""
    controller = make_arbitrated()
    read = MemRequest(client="c0", port="C", address=0, write=False, dep_id="d")
    controller.submit(read)
    controller.arbitrate(0)
    view = controller.blocked_by_client
    assert view == {"c0": read}
    controller.submit(read)
    controller.arbitrate(1)
    assert controller.blocked_by_client is view
    # Membership change: a second blocked client forces a new view.
    other = MemRequest(
        client="c1", port="C", address=0, write=False, dep_id="d"
    )
    controller.submit(read)
    controller.submit(other)
    controller.arbitrate(2)
    assert controller.blocked_by_client is not view
    assert set(controller.blocked_by_client) == {"c0", "c1"}


# -- reports and exporters --------------------------------------------------------------


def test_render_breakdown_mentions_conservation():
    __, profiler = run_profiled()
    text = render_breakdown(profiler, top=3)
    assert "conservation: ok" in text
    assert "cycle attribution over 400 cycles" in text


def test_breakdown_csv_roundtrip():
    __, profiler = run_profiled()
    lines = breakdown_csv(profiler).strip().splitlines()
    assert lines[0] == "thread,state,site,port,cycles"
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert total == sum(profiler.ledger.thread_totals().values())


def test_flame_exports_deterministic():
    __, a = run_profiled()
    __, b = run_profiled()
    assert folded_stacks(a) == folded_stacks(b)
    assert render_flame_svg(a) == render_flame_svg(b)
    assert folded_stacks(a).strip()
    assert render_flame_svg(a).startswith("<svg ")


def test_profile_chrome_trace_valid_and_deterministic():
    __, a = run_profiled()
    __, b = run_profiled()
    assert dumps_profile_chrome_trace(a) == dumps_profile_chrome_trace(b)
    document = json.loads(dumps_profile_chrome_trace(a))
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert slices and all(e["dur"] > 0 for e in slices)


def test_merge_profiles_order_independent():
    __, a = run_profiled(seed=1)
    __, b = run_profiled(seed=2)
    da, db = breakdown_dict(a), breakdown_dict(b)
    forward = merge_profiles([da, db])
    backward = merge_profiles([db, da])
    assert forward == backward
    assert forward["cycles"] == da["cycles"] + db["cycles"]
    assert forward["runs"] == 2


def test_critical_path_deterministic_and_bounded():
    sim, __ = run_profiled()
    spans = sim.telemetry.spans.spans
    report = extract_critical_path(spans, makespan=400)
    again = extract_critical_path(spans, makespan=400)
    assert report == again
    assert 0 <= report["critical_cycles"]
    assert report["coverage"] <= 1.0 or report["makespan"] == 0
    text = render_critical_path(report)
    assert text.startswith("critical path:")


def test_critical_path_empty_spans():
    report = extract_critical_path([], makespan=100)
    assert report["critical_cycles"] == 0
    assert report["path"] == []


# -- the profile CLI --------------------------------------------------------------------


@pytest.fixture()
def figure1_file(tmp_path, figure1_source):
    path = tmp_path / "figure1.hic"
    path.write_text(figure1_source)
    return str(path)


def test_profile_cli_writes_deterministic_artifacts(
    figure1_file, tmp_path, capsys
):
    out = {
        name: str(tmp_path / name)
        for name in (
            "a.json",
            "a.csv",
            "a.folded",
            "a.svg",
            "a.trace.json",
            "b.json",
        )
    }
    code = profile_main(
        [
            figure1_file,
            "--critical-path",
            "--breakdown-json",
            out["a.json"],
            "--breakdown-csv",
            out["a.csv"],
            "--flame",
            out["a.folded"],
            "--chrome-trace",
            out["a.trace.json"],
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "conservation: ok" in text
    assert "critical path:" in text
    code = profile_main(
        [figure1_file, "--kernel", "reference", "--breakdown-json", out["b.json"]]
    )
    assert code == 0
    with open(out["a.json"]) as left, open(out["b.json"]) as right:
        assert left.read() == right.read()
    code = profile_main([figure1_file, "--flame", out["a.svg"]])
    assert code == 0
    with open(out["a.svg"]) as handle:
        assert handle.read().startswith("<svg ")
    with open(out["a.folded"]) as handle:
        assert ";" in handle.read()


def test_profile_cli_rejects_bad_kernel(figure1_file, capsys):
    with pytest.raises(SystemExit):
        profile_main([figure1_file, "--kernel", "warp"])
    assert "invalid choice" in capsys.readouterr().err


def test_profile_cli_missing_file(capsys):
    assert profile_main(["/nonexistent/x.hic"]) == 2
    assert "cannot read" in capsys.readouterr().err


# -- riding the telemetry seam ----------------------------------------------------------


def test_attach_telemetry_profile_flag():
    """Telemetry(profile=True) exposes the bound profiler; the traced
    path without the flag keeps profiler None."""
    __, telemetry = run_forwarding(profile=True, cycles=120)
    assert telemetry.profiler is not None
    assert telemetry.profiler.cycles_observed == 120
    __, plain = run_forwarding(cycles=60)
    assert plain.profiler is None
