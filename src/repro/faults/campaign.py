"""Chaos campaigns: randomized fault injection with golden-trace triage.

A campaign compiles a design, records a fault-free *golden* run, then
replays the same horizon many times under seeded random faults.  Each run
is classified against the golden signature (final BRAM contents plus every
executor's architectural register file):

* ``clean`` — no watchdog event, signature matches: the fault was masked;
* ``detected-recovered`` — the watchdog fired and the run continued
  (policies ``warn-continue`` / ``break-dependency``);
* ``detected-aborted`` — the watchdog aborted the run with a structured
  :class:`~repro.core.errors.ControllerError` (policy ``abort``);
* ``silent-corruption`` — no detection, but the signature diverged: the
  worst case, and the reason fault campaigns exist.

Runs execute through the fault-tolerant campaign engine
(:mod:`repro.campaign`), so the matrix can fan across worker processes
(``--workers``) where three more classifications become possible when the
*harness itself* is wounded — fault campaigns deliberately drive the
simulator into pathological states, and a harness that dies with its
workload loses every completed result:

* ``worker-crashed`` — the worker process died before reporting
  (``os._exit``, OOM kill); retried with capped exponential backoff,
  reported only if the retry budget is exhausted;
* ``worker-timeout`` — the run blew its ``--run-timeout`` wall-clock
  budget and the worker was killed (also retried);
* ``harness-error`` — the run raised an unexpected non-controller
  exception (a harness bug: deterministic, never retried).

Everything is driven by one integer seed; the merged report is
byte-identical regardless of worker count, scheduling order, retries, or
``--resume`` boundaries, because every run's faults derive only from its
own run index (never shared RNG state) and results merge sorted by index.

CLI::

    python -m repro faults --seed 7 --runs 8 --cycles 400
    python -m repro faults --organization arbitrated --policy abort
    python -m repro faults --kinds seu,producer-stall --report out.txt
    python -m repro faults --workers 4 --run-timeout 120 --retries 2 \\
        --journal campaign.jsonl            # crash-safe parallel campaign
    python -m repro faults --resume campaign.jsonl --journal campaign.jsonl
    python -m repro faults --profile --summary-json summary.json
        # per-run cycle attribution merged into a bottleneck heatmap

With ``--profile`` every run carries the cycle-attribution profiler
(:mod:`repro.obs.profiler`); workers ship the per-run ledger back
through the same result pipe/journal as the classification, and the
orchestrator merges them — index-sorted, commutative addition — into an
organization × wait-state bottleneck heatmap that is byte-identical
across worker counts and resume boundaries.
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Optional

from .. import cli
from ..campaign import (
    OUTCOME_OK,
    OUTCOME_TASK_ERROR,
    OUTCOME_WORKER_CRASHED,
    OUTCOME_WORKER_TIMEOUT,
    CampaignEngine,
    EngineConfig,
    EngineReport,
    RunResult,
    RunSpec,
)
from ..core.advisor import Organization
from ..core.errors import ControllerError
from ..obs.attribution import WAIT_STATES
from ..obs.profiler import merge_profiles
from .injector import FaultInjector
from .models import FAULT_KINDS, FaultSurface, sample_fault
from .watchdog import RecoveryPolicy, Watchdog

#: The built-in campaign workload: a three-stage pipeline with two
#: producer/consumer dependencies — enough structure for every fault kind
#: to have a target, and valid for every memory organization.
CAMPAIGN_SOURCE = """
thread stage1 () {
  int a, raw;
  #consumer{d1,[stage2,b]}
  a = f(raw);
}

thread stage2 () {
  int b, scratch;
  #producer{d1,[stage1,a]}
  b = g(a, scratch);
  #consumer{d2,[stage3,c]}
  b = h(b);
}

thread stage3 () {
  int c, out;
  #producer{d2,[stage2,b]}
  c = f(b);
  out = c + 1;
}
"""


class Classification(enum.Enum):
    CLEAN = "clean"
    DETECTED_RECOVERED = "detected-recovered"
    DETECTED_ABORTED = "detected-aborted"
    SILENT_CORRUPTION = "silent-corruption"
    #: harness-level outcomes (see the module docstring): the run did
    #: not complete because the *worker*, not the workload, failed
    WORKER_CRASHED = "worker-crashed"
    WORKER_TIMEOUT = "worker-timeout"
    HARNESS_ERROR = "harness-error"


#: Engine outcome -> classification for runs that never produced a
#: simulator-level verdict.
_ENGINE_CLASSIFICATIONS = {
    OUTCOME_WORKER_CRASHED: Classification.WORKER_CRASHED,
    OUTCOME_WORKER_TIMEOUT: Classification.WORKER_TIMEOUT,
    OUTCOME_TASK_ERROR: Classification.HARNESS_ERROR,
}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's *results* (and hence its
    report).  Execution parameters — worker count, timeouts, retries,
    journals — live in :class:`repro.campaign.EngineConfig` and may
    never influence report bytes."""

    seed: int = 7
    runs: int = 8
    cycles: int = 400
    organizations: tuple[str, ...] = ("arbitrated", "event_driven")
    fault_kinds: tuple[str, ...] = FAULT_KINDS
    policy: str = RecoveryPolicy.BREAK_DEPENDENCY.value
    read_timeout: int = 40
    deadlock_window: int = 80
    #: attach the cycle-attribution profiler to every run and merge the
    #: per-run ledgers into a campaign-level bottleneck heatmap (part of
    #: the result surface: profiles ride in each run's journaled value,
    #: so flipping this changes the campaign fingerprint)
    profile: bool = False


@dataclass(frozen=True)
class RunOutcome:
    """One classified fault run."""

    organization: str
    index: int
    fault_kinds: tuple[str, ...]
    faults: tuple[str, ...]
    classification: Classification
    cycles_run: int
    watchdog_events: tuple[str, ...] = ()
    degradations: tuple[str, ...] = ()
    error: Optional[str] = None
    #: the run's cycle-attribution ledger (``cycles``/``states``/``sites``)
    #: when the campaign profiles; ``None`` otherwise
    profile: Optional[dict] = None

    def to_json(self) -> dict:
        """JSON-pure record (tuples become lists) — what a worker
        returns and what the resume journal stores."""
        record = {
            "organization": self.organization,
            "index": self.index,
            "fault_kinds": list(self.fault_kinds),
            "faults": list(self.faults),
            "classification": self.classification.value,
            "cycles_run": self.cycles_run,
            "watchdog_events": list(self.watchdog_events),
            "degradations": list(self.degradations),
            "error": self.error,
        }
        # Emitted only when profiling so unprofiled journals/goldens keep
        # their historical byte layout.
        if self.profile is not None:
            record["profile"] = self.profile
        return record

    @classmethod
    def from_json(cls, record: dict) -> "RunOutcome":
        return cls(
            organization=record["organization"],
            index=record["index"],
            fault_kinds=tuple(record["fault_kinds"]),
            faults=tuple(record["faults"]),
            classification=Classification(record["classification"]),
            cycles_run=record["cycles_run"],
            watchdog_events=tuple(record["watchdog_events"]),
            degradations=tuple(record["degradations"]),
            error=record["error"],
            profile=record.get("profile"),
        )


@dataclass
class CampaignReport:
    """A campaign's classified outcomes plus deterministic rendering."""

    config: CampaignConfig
    outcomes: list[RunOutcome] = field(default_factory=list)
    #: the campaign was cut short by Ctrl-C: ``outcomes`` is a valid
    #: partial result set, rendered with an ``interrupted`` marker
    interrupted: bool = False
    #: the engine's execution telemetry (wall time, retries, worker
    #: utilization) — never part of the deterministic render
    engine: Optional[EngineReport] = None

    def expected_runs(self) -> int:
        return self.config.runs * len(self.config.organizations)

    def by_classification(self) -> dict[str, int]:
        counts: dict[str, int] = {c.value: 0 for c in Classification}
        for outcome in self.outcomes:
            counts[outcome.classification.value] += 1
        return counts

    def by_kind(self) -> dict[str, dict[str, int]]:
        """fault kind -> classification -> run count (runs with several
        faults count under each kind involved)."""
        table: dict[str, dict[str, int]] = {}
        for outcome in self.outcomes:
            for kind in sorted(set(outcome.fault_kinds)) or ["none"]:
                row = table.setdefault(kind, {})
                row[outcome.classification.value] = (
                    row.get(outcome.classification.value, 0) + 1
                )
        return table

    def profile_by_organization(self) -> dict[str, dict]:
        """organization -> merged cycle-attribution ledger (the campaign
        bottleneck heatmap).  ``outcomes`` is index-sorted by the engine
        merge, so the fold order — and hence the merged dict — is
        identical across worker counts and resume boundaries."""
        grouped: dict[str, list[dict]] = {}
        for outcome in self.outcomes:
            if outcome.profile is not None:
                grouped.setdefault(outcome.organization, []).append(
                    outcome.profile
                )
        return {
            organization: merge_profiles(profiles)
            for organization, profiles in grouped.items()
        }

    def render(self) -> str:
        cfg = self.config
        lines = [
            "fault campaign",
            f"  seed={cfg.seed} runs={cfg.runs} cycles={cfg.cycles} "
            f"policy={cfg.policy}",
            f"  organizations: {', '.join(cfg.organizations)}",
            f"  watchdog: read_timeout={cfg.read_timeout} "
            f"deadlock_window={cfg.deadlock_window}",
            "",
        ]
        for outcome in self.outcomes:
            lines.append(
                f"run {outcome.organization}#{outcome.index}: "
                f"{outcome.classification.value} "
                f"({outcome.cycles_run} cycles)"
            )
            for fault in outcome.faults:
                lines.append(f"    fault: {fault}")
            for event in outcome.watchdog_events:
                lines.append(f"    watchdog: {event}")
            for degradation in outcome.degradations:
                lines.append(f"    {degradation}")
            if outcome.error:
                lines.append(f"    error: {outcome.error}")
        lines.append("")
        lines.append("summary by fault kind:")
        for kind, row in sorted(self.by_kind().items()):
            cells = " ".join(
                f"{name}={count}" for name, count in sorted(row.items())
            )
            lines.append(f"  {kind}: {cells}")
        totals = " ".join(
            f"{name}={count}"
            for name, count in sorted(self.by_classification().items())
        )
        lines.append(f"totals: {totals}")
        heatmap = self.profile_by_organization()
        if heatmap:
            # Only profiled campaigns grow this section: the committed
            # unprofiled golden keeps its historical bytes.
            lines.append("")
            lines.append("bottleneck heatmap (cycles per wait state):")
            for organization, merged in sorted(heatmap.items()):
                cells = " ".join(
                    f"{state}={merged['states'][state]}"
                    for state in WAIT_STATES
                    if merged["states"].get(state)
                )
                lines.append(
                    f"  {organization} ({merged['runs']} runs, "
                    f"{merged['cycles']} cycles): {cells or 'no cycles'}"
                )
                for site, per_state in merged["sites"].items():
                    site_cells = " ".join(
                        f"{state}={count}"
                        for state, count in per_state.items()
                    )
                    lines.append(f"    {site}: {site_cells}")
        if len(self.outcomes) < self.expected_runs():
            lines.append(
                f"partial: {len(self.outcomes)}/{self.expected_runs()} runs"
            )
        if self.interrupted:
            lines.append("interrupted: true")
        return "\n".join(lines)


#: Versioned schema tag of :func:`campaign_summary_dict` / ``--summary-json``.
SUMMARY_SCHEMA = "repro.faults.summary/1"


def campaign_summary_dict(report: CampaignReport) -> dict:
    """Machine-readable campaign summary (the ``--summary-json`` body).

    Every key except ``engine`` is part of the deterministic result
    surface — byte-identical across worker counts, retries, and resume
    boundaries once serialized with sorted keys.  ``engine`` carries the
    execution telemetry (retry counters, worker utilization, wall time)
    that used to be stderr/Prometheus-only; it describes *this
    execution* and legitimately varies between invocations, which is why
    it lives under its own clearly-non-deterministic key instead of
    leaking into the totals."""
    cfg = report.config
    summary: dict = {
        "schema": SUMMARY_SCHEMA,
        "config": {
            "seed": cfg.seed,
            "runs": cfg.runs,
            "cycles": cfg.cycles,
            "organizations": list(cfg.organizations),
            "fault_kinds": list(cfg.fault_kinds),
            "policy": cfg.policy,
            "read_timeout": cfg.read_timeout,
            "deadlock_window": cfg.deadlock_window,
            "profile": cfg.profile,
        },
        "expected_runs": report.expected_runs(),
        "completed_runs": len(report.outcomes),
        "interrupted": report.interrupted,
        "totals": report.by_classification(),
        "by_kind": report.by_kind(),
        "outcomes": [outcome.to_json() for outcome in report.outcomes],
        "profile": report.profile_by_organization() or None,
        "engine": None,
    }
    if report.engine is not None:
        engine = report.engine
        summary["engine"] = {
            **engine.counters(),
            "workers": engine.workers,
            "wall_seconds": round(engine.wall_seconds, 6),
            "utilization": round(engine.utilization, 6),
            "degraded_serial": engine.degraded_serial,
            "stopped": engine.stopped,
        }
    return summary


def dumps_campaign_summary(report: CampaignReport) -> str:
    return (
        json.dumps(campaign_summary_dict(report), sort_keys=True, indent=2)
        + "\n"
    )


def _trace_rounds(sim) -> dict[str, list[tuple]]:
    """Install a golden-trace recorder: per thread, the architectural
    register file at every completed round.

    Round boundaries make the trace phase-insensitive, so comparing
    *histories* distinguishes the cases a single final snapshot cannot:

    * pure delay (dropped request, short stall) produces a *prefix* of the
      golden history — degradation, not corruption;
    * a corrupted value survives in the round it escaped into, even if
      the next producer write heals the memory afterwards.
    """
    histories: dict[str, list[tuple]] = {name: [] for name in sim.executors}
    seen = {name: 0 for name in sim.executors}

    # The hook reads the executors off the kernel it is handed: closing
    # over ``sim`` would make the kernel, which holds the hook, hold
    # itself.
    def hook(cycle: int, kernel) -> None:
        for name, executor in kernel.executors.items():
            if executor.stats.rounds_completed > seen[name]:
                seen[name] = executor.stats.rounds_completed
                histories[name].append(
                    tuple(sorted((executor.last_round_env or {}).items()))
                )

    # Round counters move only on executed cycles (no executor advances
    # in a skipped cycle), so the recorder never needs a cycle of
    # its own and leaves idle skipping on.
    hook.next_wake = lambda cycle, limit, kernel: None
    sim.kernel.add_post_cycle_hook(hook)
    return histories


def _canonical(value):
    """Recursively normalize lists to tuples: pickle/JSON transport of
    a round history between orchestrator and workers must not affect
    divergence comparison."""
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    return value


def _diverged(golden: dict[str, list[tuple]], faulted: dict[str, list[tuple]]) -> bool:
    """True iff any thread's faulted round history contradicts the golden
    one on their common prefix (shorter-but-consistent = delayed, clean).

    Equal raw prefixes canonicalize equally, so only a raw mismatch —
    a real divergence, or lists where tuples were — pays for
    :func:`_canonical`."""
    for name, golden_rounds in golden.items():
        faulted_rounds = faulted.get(name, [])
        common = min(len(golden_rounds), len(faulted_rounds))
        golden_prefix = golden_rounds[:common]
        faulted_prefix = faulted_rounds[:common]
        if golden_prefix == faulted_prefix:
            continue
        if _canonical(golden_prefix) != _canonical(faulted_prefix):
            return True
    return False


def _compile(source: str, organization: str):
    from ..flow import compile_design

    return compile_design(
        source,
        name="campaign",
        organization=Organization(organization),
    )


def model_read_timeout(source, organizations) -> int:
    """Watchdog read-timeout derived from the analytical model.

    The watchdog must distinguish a consumer *legitimately* parked on a
    guarded read from one a fault has hung.  The model's saturated round
    (:func:`repro.model.saturated_round`) bounds the legitimate wait, so
    the worst predicted consumer wait across the campaign's
    organizations — padded threefold for fault-induced delay the
    campaign still wants classified as recovered, not tripped — makes a
    principled ``--auto-timeout`` default instead of a hand-tuned cycle
    count.
    """
    from ..model import extract_parameters, saturated_round

    worst = 0.0
    for organization in organizations:
        params = extract_parameters(_compile(source, organization))
        worst = max(worst, saturated_round(params).consumer_wait)
    return max(1, math.ceil(worst * 3.0))


def run_seed(config: CampaignConfig, org_index: int, index: int) -> int:
    """The per-run RNG seed: a pure function of campaign seed and run
    coordinates, never of shared RNG state — what keeps faults identical
    across worker counts, retries, and resume boundaries."""
    return config.seed * 1_000_003 + org_index * 7_919 + index


def campaign_fingerprint(config: CampaignConfig, source: str) -> str:
    """Identity of a campaign's *result surface* — binds a resume
    journal to one (config, source) pair."""
    digest = hashlib.sha256()
    digest.update(repr(config).encode())
    digest.update(source.encode())
    return digest.hexdigest()[:16]


#: Designs the golden phase of the campaign now running compiled, keyed
#: by ``(source, organization)``; :func:`run_one` builds its simulation
#: from these instead of recompiling.  :func:`run_campaign` fills and
#: empties it, so the reuse never outlives one campaign: serial runs and
#: forked workers see it, spawned workers and direct ``run_one`` calls
#: compile as before.
_CAMPAIGN_DESIGNS: dict[tuple[str, str], object] = {}


def build_run_specs(
    config: CampaignConfig,
    source: str = CAMPAIGN_SOURCE,
    kernel: Optional[str] = None,
    *,
    designs: Optional[dict] = None,
) -> list[RunSpec]:
    """Flatten the (organization × run) matrix into engine run specs.

    The fault-free golden run per organization executes here, once, in
    the orchestrator; its round histories ride along in every payload so
    workers classify independently.  ``designs``, if given, receives
    each organization's compiled design keyed by ``(source,
    organization)``.
    """
    from ..flow import DEFAULT_KERNEL, build_simulation

    # The kernel is an *execution* parameter, not part of CampaignConfig:
    # every backend is cycle-equivalent, so it may never influence the
    # report bytes or the campaign fingerprint.
    if kernel is None:
        kernel = DEFAULT_KERNEL
    specs: list[RunSpec] = []
    flat = 0
    for org_index, organization in enumerate(config.organizations):
        design = _compile(source, organization)
        if designs is not None:
            designs[source, organization] = design
        golden_sim = build_simulation(design, kernel=kernel)
        golden = _trace_rounds(golden_sim)
        golden_sim.run(config.cycles)
        for index in range(config.runs):
            specs.append(
                RunSpec(
                    index=flat,
                    payload={
                        "source": source,
                        "organization": organization,
                        "org_index": org_index,
                        "index": index,
                        "rng_seed": run_seed(config, org_index, index),
                        "cycles": config.cycles,
                        "fault_kinds": list(config.fault_kinds),
                        "policy": config.policy,
                        "read_timeout": config.read_timeout,
                        "deadlock_window": config.deadlock_window,
                        "profile": config.profile,
                        "kernel": kernel,
                        "golden": golden,
                    },
                )
            )
            flat += 1
    return specs


def run_one(payload: dict) -> dict:
    """Execute and classify one fault run (the engine task; runs in a
    worker process under ``--workers N``).  Returns the
    :class:`RunOutcome` as a JSON-pure dict."""
    from ..flow import DEFAULT_KERNEL, build_simulation

    # Faults mutate only the simulation's own state (build_simulation
    # clones each dependency list), so the golden phase's design serves
    # every run of its campaign.
    key = (payload["source"], payload["organization"])
    design = _CAMPAIGN_DESIGNS.get(key)
    if design is None:
        design = _compile(*key)
    sim = build_simulation(
        design, kernel=payload.get("kernel") or DEFAULT_KERNEL
    )
    surface = FaultSurface.from_simulation(sim)
    rng = random.Random(payload["rng_seed"])
    n_faults = 1 + (rng.random() < 0.4)
    faults = []
    for __ in range(n_faults):
        fault = sample_fault(
            rng,
            rng.choice(tuple(payload["fault_kinds"])),
            surface,
            payload["cycles"],
        )
        if fault is not None:
            faults.append(fault)
    injector = FaultInjector(faults).attach(sim)
    traced = _trace_rounds(sim)
    profiler = sim.attach_profiler() if payload.get("profile") else None
    watchdog = Watchdog(
        read_timeout=payload["read_timeout"],
        deadlock_window=payload["deadlock_window"],
        policy=payload["policy"],
    ).attach(sim)

    error: Optional[str] = None
    try:
        sim.run(payload["cycles"])
    except ControllerError as exc:
        error = exc.describe()

    if error is not None:
        classification = Classification.DETECTED_ABORTED
    elif watchdog.tripped:
        classification = Classification.DETECTED_RECOVERED
    elif _diverged(payload["golden"], traced):
        classification = Classification.SILENT_CORRUPTION
    else:
        classification = Classification.CLEAN

    profile: Optional[dict] = None
    if profiler is not None:
        # The worker ships only the ledger's aggregate axes back through
        # the result pipe/journal: enough for the campaign heatmap and
        # JSON-pure by construction.
        from ..obs.profiler import breakdown_dict

        breakdown = breakdown_dict(profiler)
        profile = {
            "cycles": breakdown["cycles"],
            "states": breakdown["states"],
            "sites": breakdown["sites"],
            "conservation_ok": breakdown["conservation"]["ok"],
        }

    return RunOutcome(
        organization=payload["organization"],
        index=payload["index"],
        fault_kinds=tuple(f.kind for f in faults),
        faults=tuple(injector.describe()),
        classification=classification,
        cycles_run=sim.kernel.cycle,
        watchdog_events=tuple(e.describe() for e in watchdog.events),
        degradations=tuple(watchdog.degradations),
        error=error,
        profile=profile,
    ).to_json()


def _outcome_from_result(result: RunResult, spec: RunSpec) -> RunOutcome:
    """Map an engine result to a classified outcome — including runs
    the harness, not the simulator, failed to complete."""
    if result.outcome == OUTCOME_OK:
        return RunOutcome.from_json(result.value)
    return RunOutcome(
        organization=spec.payload["organization"],
        index=spec.payload["index"],
        fault_kinds=(),
        faults=(),
        classification=_ENGINE_CLASSIFICATIONS[result.outcome],
        cycles_run=0,
        error=result.error,
    )


def run_campaign(
    config: CampaignConfig = CampaignConfig(),
    source: str = CAMPAIGN_SOURCE,
    engine: Optional[EngineConfig] = None,
    metrics=None,
    kernel: Optional[str] = None,
) -> CampaignReport:
    """Run the full campaign through the fault-tolerant engine and
    return its report.

    ``engine=None`` (or ``workers=1``) executes serially in-process;
    any :class:`~repro.campaign.EngineConfig` fans the same matrix
    across worker processes with crash isolation, per-run timeouts,
    retry/backoff, and journal checkpoint/resume — the merged report is
    byte-identical either way.
    """
    try:
        specs = build_run_specs(
            config, source, kernel, designs=_CAMPAIGN_DESIGNS
        )
        campaign_engine = CampaignEngine(
            run_one,
            engine or EngineConfig(),
            fingerprint=campaign_fingerprint(config, source),
            metrics=metrics,
        )
        engine_report = campaign_engine.run(specs)
    finally:
        _CAMPAIGN_DESIGNS.clear()
    spec_by_index = {spec.index: spec for spec in specs}
    report = CampaignReport(
        config=config,
        interrupted=engine_report.interrupted,
        engine=engine_report,
    )
    for result in engine_report.results:
        report.outcomes.append(
            _outcome_from_result(result, spec_by_index[result.index])
        )
    return report


# -- command line ---------------------------------------------------------------------

#: Single source of truth for CLI defaults: the dataclasses above.  The
#: parser derives every default from these instances so the two can
#: never drift (asserted by ``tests/faults/test_campaign.py``).
CONFIG_DEFAULTS = CampaignConfig()
ENGINE_DEFAULTS = EngineConfig()


def _faults_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description=(
            "Run a seeded fault-injection campaign against the generated "
            "memory controllers and classify every run against a golden "
            "trace.  Runs execute through the fault-tolerant campaign "
            "engine: --workers fans them across crash-isolated processes, "
            "--journal/--resume checkpoint completed runs, and the merged "
            "report is byte-identical regardless."
        ),
    )
    parser.add_argument("--seed", type=int, default=CONFIG_DEFAULTS.seed)
    parser.add_argument(
        "--runs",
        type=int,
        default=CONFIG_DEFAULTS.runs,
        help="fault runs per organization",
    )
    cli.add_options(parser, "--cycles", "--kernel")
    # None = the flow's default kernel, resolved at run time: the kernel
    # stays out of the fingerprinted config (report bytes are
    # kernel-independent).
    parser.set_defaults(cycles=CONFIG_DEFAULTS.cycles, kernel=None)
    parser.add_argument(
        "--organization",
        choices=["arbitrated", "event_driven", "both"],
        default="both",
    )
    parser.add_argument(
        "--policy",
        choices=[p.value for p in RecoveryPolicy],
        default=CONFIG_DEFAULTS.policy,
        help="watchdog recovery policy",
    )
    parser.add_argument(
        "--kinds",
        default=",".join(CONFIG_DEFAULTS.fault_kinds),
        help=f"comma-separated fault kinds (default: all of {FAULT_KINDS})",
    )
    parser.add_argument(
        "--read-timeout",
        type=int,
        default=CONFIG_DEFAULTS.read_timeout,
        metavar="CYCLES",
    )
    parser.add_argument(
        "--auto-timeout",
        action="store_true",
        help=(
            "derive --read-timeout from the analytical performance "
            "model: worst predicted saturated consumer wait across the "
            "campaign's organizations, padded 3x (overrides "
            "--read-timeout; see docs/performance_model.md)"
        ),
    )
    parser.add_argument(
        "--deadlock-window",
        type=int,
        default=CONFIG_DEFAULTS.deadlock_window,
        metavar="CYCLES",
    )
    parser.add_argument(
        "--source", metavar="FILE", help="hic design to fault (default: built-in pipeline)"
    )
    parser.add_argument(
        "--report", metavar="FILE", help="also write the report to FILE"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "attach the cycle-attribution profiler to every run and "
            "append the merged bottleneck heatmap (organization × wait "
            "state) to the report — byte-identical across worker counts "
            "and resume boundaries (see docs/profiling.md)"
        ),
    )
    parser.add_argument(
        "--summary-json",
        metavar="FILE",
        help=(
            "write a machine-readable campaign summary to FILE: "
            "deterministic totals/outcomes/heatmap plus the engine's "
            "execution telemetry under the non-deterministic 'engine' key"
        ),
    )
    engine = parser.add_argument_group(
        "engine", "fault-tolerant execution (see docs/campaign.md)"
    )
    engine.add_argument(
        "--workers",
        type=int,
        default=ENGINE_DEFAULTS.workers,
        metavar="N",
        help=(
            "worker processes; each run executes crash-isolated in its "
            "own process (1 = serial, in-process)"
        ),
    )
    engine.add_argument(
        "--run-timeout",
        type=float,
        default=ENGINE_DEFAULTS.run_timeout,
        metavar="SECONDS",
        help=(
            "wall-clock budget per run: a hung worker is killed and the "
            "run classified worker-timeout (default: no timeout)"
        ),
    )
    engine.add_argument(
        "--retries",
        type=int,
        default=ENGINE_DEFAULTS.retries,
        metavar="N",
        help=(
            "extra attempts after a crashed/timed-out worker, with "
            "capped exponential backoff"
        ),
    )
    engine.add_argument(
        "--journal",
        metavar="FILE",
        default=ENGINE_DEFAULTS.journal,
        help=(
            "append each finalized run to this JSONL journal the moment "
            "it completes (the crash-safety checkpoint)"
        ),
    )
    engine.add_argument(
        "--resume",
        metavar="FILE",
        default=ENGINE_DEFAULTS.resume,
        help=(
            "skip runs already finalized in this journal (refused if it "
            "belongs to a differently-configured campaign)"
        ),
    )
    engine.add_argument(
        "--stop-after",
        type=int,
        default=ENGINE_DEFAULTS.stop_after,
        metavar="N",
        help=(
            "checkpoint valve: stop after N new results (exit code 3), "
            "leaving the rest for --resume"
        ),
    )
    engine.add_argument(
        "--chaos-crash",
        type=int,
        action="append",
        metavar="INDEX",
        help=(
            "testing aid: hard-crash the worker for flat run INDEX on "
            "its first attempt (exercises retry/resume for real; "
            "repeatable)"
        ),
    )
    engine.add_argument(
        "--engine-metrics",
        metavar="FILE",
        help=(
            "write the engine's robustness counters (runs completed/"
            "retried/crashed/timed-out, worker utilization) as "
            "Prometheus text to FILE"
        ),
    )
    return parser


def faults_main(argv: Optional[list] = None) -> int:
    """Entry point for ``python -m repro faults``.

    Exit codes: 0 complete, 1 campaign error, 2 usage error, 3 stopped
    at a ``--stop-after`` checkpoint (resume to finish), 130
    interrupted by Ctrl-C (partial report still rendered).
    """
    return cli.run_command(_faults, _faults_parser().parse_args(argv))


def _faults(args: argparse.Namespace) -> int:
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = set(kinds) - set(FAULT_KINDS)
    if unknown:
        print(f"error: unknown fault kinds {sorted(unknown)}", file=sys.stderr)
        return 2
    organizations = (
        ("arbitrated", "event_driven")
        if args.organization == "both"
        else (args.organization,)
    )
    source = cli.read_source(args.source) if args.source else CAMPAIGN_SOURCE
    read_timeout = args.read_timeout
    if args.auto_timeout:
        read_timeout = model_read_timeout(source, organizations)
        print(
            f"auto-timeout: model-derived read timeout = "
            f"{read_timeout} cycles",
            file=sys.stderr,
        )
    config = CampaignConfig(
        seed=args.seed,
        runs=args.runs,
        cycles=args.cycles,
        organizations=organizations,
        fault_kinds=kinds,
        policy=args.policy,
        read_timeout=read_timeout,
        deadlock_window=args.deadlock_window,
        profile=args.profile,
    )
    engine_config = EngineConfig(
        workers=args.workers,
        run_timeout=args.run_timeout,
        retries=args.retries,
        journal=args.journal,
        resume=args.resume,
        stop_after=args.stop_after,
        chaos=tuple((index, "crash") for index in (args.chaos_crash or ())),
    )
    metrics = None
    if args.engine_metrics:
        from ..obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    try:
        report = run_campaign(
            config,
            source=source,
            engine=engine_config,
            metrics=metrics,
            kernel=args.kernel,
        )
    except KeyboardInterrupt:
        # Interrupted before the engine produced any result (e.g. during
        # the golden runs): nothing to render, but exit like an
        # interrupted campaign.
        print("interrupted before any campaign results", file=sys.stderr)
        return 130
    text = report.render()
    print(text)
    if report.engine is not None:
        # Execution telemetry goes to stderr: stdout is the
        # deterministic report surface (byte-identical across worker
        # counts), wall-clock numbers are not.
        print(report.engine.describe(), file=sys.stderr)
    if args.engine_metrics and metrics is not None:
        cli.write_output(
            args.engine_metrics, metrics.render_prometheus(), "engine metrics"
        )
    if args.summary_json:
        cli.write_output(
            args.summary_json,
            dumps_campaign_summary(report),
            "campaign summary",
        )
    if args.report:
        cli.write_output(args.report, text + "\n", "report")
    if report.interrupted:
        return 130
    if report.engine is not None and report.engine.stopped:
        print(
            f"checkpoint: stopped after {report.engine.completed} new "
            f"results; resume with --resume {args.journal or '<journal>'}"
        )
        return 3
    return 0
