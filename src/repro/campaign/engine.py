"""Fault-tolerant parallel campaign engine.

Fans a matrix of independent runs (:class:`RunSpec`) across worker
processes and is robust by construction:

* **crash isolation** — each run executes in its own short-lived
  process; a worker that dies before reporting (unhandled C-level
  crash, ``os._exit``, the OOM killer) becomes a structured
  ``worker-crashed`` result instead of taking the campaign down;
* **hang isolation** — each run has a wall-clock timeout; a hung worker
  is terminated (then killed) and classified ``worker-timeout``;
* **retry with backoff** — crashed and timed-out attempts are retried
  up to a deterministic budget with capped exponential backoff;
  task-level exceptions are *not* retried (they are deterministic) and
  surface as ``task-error``;
* **checkpoint/resume** — finalized results stream into an append-only
  JSONL journal (:mod:`repro.campaign.journal`); resuming skips
  finished runs, and ``KeyboardInterrupt`` still yields the partial
  result set;
* **graceful degradation** — ``workers <= 1`` (or a failed process
  spawn) falls back to in-process serial execution with identical
  results for every run that completes.

**Determinism.**  Results are keyed by run index and merged in index
order, each run's behaviour must derive only from its own payload
(derive per-run seeds in the caller — never from shared RNG state), and
journaled values round-trip through JSON.  Consequently the merged
result list is byte-identical regardless of worker count, scheduling
order, retries, or resume boundaries.  Task payloads and return values
must therefore be JSON-pure (dict/list/str/int/float/bool/None).

Task functions must be module-level (importable) callables: worker
processes resolve them by reference.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .journal import JournalWriter, check_fingerprint, read_journal
from .worker import CHAOS_KINDS, describe_error, worker_entry

#: Run outcome taxonomy (see ``docs/campaign.md``).
OUTCOME_OK = "ok"
OUTCOME_TASK_ERROR = "task-error"
OUTCOME_WORKER_CRASHED = "worker-crashed"
OUTCOME_WORKER_TIMEOUT = "worker-timeout"

OUTCOMES = (
    OUTCOME_OK,
    OUTCOME_TASK_ERROR,
    OUTCOME_WORKER_CRASHED,
    OUTCOME_WORKER_TIMEOUT,
)

#: Attempt-failure kinds that are worth retrying: the worker died
#: without producing a result, which can be transient (host pressure,
#: OOM race).  A task exception is deterministic and never retried.
RETRYABLE = (OUTCOME_WORKER_CRASHED, OUTCOME_WORKER_TIMEOUT)


@dataclass(frozen=True)
class RunSpec:
    """One independent run of the matrix.

    ``index`` is the run's stable identity — the journal key and the
    merge-sort key — and must be unique across the campaign.  The
    payload is the task's entire input; anything seed-like must be
    derived per-run *before* building specs.
    """

    index: int
    payload: dict


@dataclass(frozen=True)
class RunResult:
    """One finalized run: an outcome, and a value when the task ran."""

    index: int
    outcome: str
    value: object = None
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK

    def to_json(self) -> dict:
        record: dict = {
            "index": self.index,
            "outcome": self.outcome,
            "attempts": self.attempts,
        }
        if self.value is not None:
            record["value"] = self.value
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_json(cls, record: dict) -> "RunResult":
        return cls(
            index=record["index"],
            outcome=record["outcome"],
            value=record.get("value"),
            error=record.get("error"),
            attempts=record.get("attempts", 1),
        )


@dataclass(frozen=True)
class EngineConfig:
    """Execution parameters: how a campaign runs, never what it computes.

    Nothing here may influence result *values* — that is what keeps the
    merged report byte-identical across worker counts and resume
    boundaries.
    """

    #: concurrent worker processes; <= 1 selects the in-process serial
    #: path (no subprocesses at all)
    workers: int = 1
    #: wall-clock seconds one attempt may take before its worker is
    #: killed (None = no timeout)
    run_timeout: Optional[float] = None
    #: extra attempts allowed after a crashed/timed-out first attempt
    retries: int = 2
    #: exponential backoff before retry k: min(cap, base * 2**(k-1))
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: append finalized results to this JSONL journal
    journal: Optional[str] = None
    #: skip runs already finalized in this journal
    resume: Optional[str] = None
    #: checkpoint valve: stop (gracefully) after this many *new*
    #: results this session, leaving the rest for a resumed campaign
    stop_after: Optional[int] = None
    #: multiprocessing start method (None = "fork" when available)
    mp_context: Optional[str] = None
    #: seconds between SIGTERM and SIGKILL when putting a worker down
    grace_seconds: float = 1.0
    #: injected worker failures for self-tests: (run index, kind) with
    #: kind in CHAOS_KINDS; fires only on the run's first attempt and
    #: only in worker processes
    chaos: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        for __, kind in self.chaos:
            if kind not in CHAOS_KINDS:
                raise ValueError(
                    f"unknown chaos kind {kind!r} (expected {CHAOS_KINDS})"
                )
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass
class EngineReport:
    """Merged results plus the engine's own robustness telemetry.

    ``results`` is the deterministic surface (sorted by run index);
    everything else describes *this execution* — wall time, retries,
    worker utilization — and legitimately varies between runs of the
    same campaign.
    """

    results: list[RunResult] = field(default_factory=list)
    total_runs: int = 0
    interrupted: bool = False
    stopped: bool = False
    degraded_serial: bool = False
    resumed: int = 0
    completed: int = 0
    retried: int = 0
    crashed_attempts: int = 0
    timed_out_attempts: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        available = self.workers * self.wall_seconds
        return self.busy_seconds / available if available > 0 else 0.0

    def by_outcome(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for result in self.results:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return counts

    def counters(self) -> dict[str, int]:
        """The robustness counters, JSON-ready."""
        return {
            "runs_total": self.total_runs,
            "completed": self.completed,
            "resumed": self.resumed,
            "retried": self.retried,
            "crashed_attempts": self.crashed_attempts,
            "timed_out_attempts": self.timed_out_attempts,
            **{
                f"outcome_{name.replace('-', '_')}": count
                for name, count in sorted(self.by_outcome().items())
            },
        }

    def describe(self) -> str:
        """One-line execution summary (deliberately *not* part of the
        deterministic report surface: it includes wall-clock numbers)."""
        flags = []
        if self.interrupted:
            flags.append("interrupted")
        if self.stopped:
            flags.append("checkpoint-stop")
        if self.degraded_serial:
            flags.append("degraded-serial")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"engine: workers={self.workers} completed={self.completed} "
            f"resumed={self.resumed} retried={self.retried} "
            f"crashed={self.crashed_attempts} "
            f"timed-out={self.timed_out_attempts} "
            f"wall={self.wall_seconds:.2f}s "
            f"utilization={self.utilization:.2f}{suffix}"
        )


@dataclass
class _Active:
    """One in-flight worker."""

    process: multiprocessing.process.BaseProcess
    spec: RunSpec
    attempt: int
    started: float
    deadline: Optional[float]


class CampaignEngine:
    """Drives one campaign: schedule, isolate, retry, journal, merge."""

    def __init__(
        self,
        task: Callable[[dict], object],
        config: EngineConfig = EngineConfig(),
        *,
        fingerprint: str = "",
        metrics=None,
    ):
        self.task = task
        self.config = config
        self.fingerprint = fingerprint
        self._chaos = dict(config.chaos)
        self._journal: Optional[JournalWriter] = None
        self._results: dict[int, RunResult] = {}
        self._failures: dict[int, int] = {}
        self._report = EngineReport(workers=max(1, config.workers))
        self._delayed_heap: list[tuple[float, int, RunSpec]] = []
        self._busy = 0.0
        self._metrics = self._register_metrics(metrics)

    # -- metrics ---------------------------------------------------------------------

    def _register_metrics(self, registry):
        if registry is None:
            return None
        return {
            "runs": registry.counter(
                "campaign_runs_total",
                "Finalized campaign runs, by outcome",
                labels=("outcome",),
            ),
            "retries": registry.counter(
                "campaign_retries_total",
                "Run attempts re-scheduled after a crashed or timed-out "
                "worker",
            ),
            "failures": registry.counter(
                "campaign_attempt_failures_total",
                "Worker attempts that died before producing a result, "
                "by kind",
                labels=("kind",),
            ),
            "resumed": registry.counter(
                "campaign_runs_resumed_total",
                "Runs skipped because the resume journal already held "
                "their result",
            ),
            "utilization": registry.gauge(
                "campaign_worker_utilization",
                "Busy worker-seconds over available worker-seconds",
            ),
            "workers": registry.gauge(
                "campaign_workers", "Configured worker processes"
            ),
        }

    # -- public API ------------------------------------------------------------------

    def run(self, specs: Iterable[RunSpec]) -> EngineReport:
        """Execute the matrix and return the merged report."""
        ordered = sorted(specs, key=lambda spec: spec.index)
        indices = [spec.index for spec in ordered]
        if len(set(indices)) != len(indices):
            raise ValueError("run indices must be unique")
        report = self._report
        report.total_runs = len(ordered)
        started = time.monotonic()

        if self.config.resume:
            self._load_resume(ordered)
        if self.config.journal:
            self._journal = JournalWriter(
                self.config.journal, self.fingerprint, len(ordered)
            )

        todo = [spec for spec in ordered if spec.index not in self._results]
        budget = self.config.stop_after
        if budget is not None and budget < len(todo):
            report.stopped = True
            todo = todo[:budget]

        try:
            if self.config.workers <= 1:
                self._run_serial(todo)
            else:
                self._run_parallel(todo)
        except KeyboardInterrupt:
            report.interrupted = True
        finally:
            if self._journal is not None:
                self._journal.close()
            report.wall_seconds = time.monotonic() - started
            report.busy_seconds = self._busy
            report.results = [
                self._results[index]
                for index in sorted(self._results)
            ]
            if self._metrics is not None:
                self._metrics["utilization"].set(
                    round(report.utilization, 6)
                )
                self._metrics["workers"].set(report.workers)
        return report

    # -- resume ----------------------------------------------------------------------

    def _load_resume(self, specs: Sequence[RunSpec]) -> None:
        if not os.path.exists(self.config.resume):
            # First run of the --journal X --resume X recovery idiom:
            # nothing finished yet, nothing to skip.
            return
        header, records = read_journal(self.config.resume)
        check_fingerprint(header, self.fingerprint, self.config.resume)
        wanted = {spec.index for spec in specs}
        for index, record in records.items():
            if index not in wanted:
                continue
            self._results[index] = RunResult.from_json(record)
            self._report.resumed += 1
            if self._metrics is not None:
                self._metrics["resumed"].inc()

    # -- finalization (shared by every path) -----------------------------------------

    def _finalize(self, result: RunResult) -> None:
        self._results[result.index] = result
        self._report.completed += 1
        if self._metrics is not None:
            self._metrics["runs"].inc(outcome=result.outcome)
        if self._journal is not None:
            self._journal.append(result.to_json())

    def _attempts_of(self, index: int) -> int:
        return self._failures.get(index, 0) + 1

    # -- serial path -----------------------------------------------------------------

    def _run_one_inline(self, spec: RunSpec) -> None:
        """Run one spec in-process (serial path and spawn-failure
        fallback).  Crash/hang isolation is unavailable here; a task
        exception is still classified, and tasks may bound themselves
        with the simulator's ``max_wall_seconds`` valve."""
        start = time.monotonic()
        try:
            value = self.task(spec.payload)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            self._busy += time.monotonic() - start
            self._finalize(
                RunResult(
                    index=spec.index,
                    outcome=OUTCOME_TASK_ERROR,
                    error=describe_error(exc),
                    attempts=self._attempts_of(spec.index),
                )
            )
        else:
            self._busy += time.monotonic() - start
            self._finalize(
                RunResult(
                    index=spec.index,
                    outcome=OUTCOME_OK,
                    value=value,
                    attempts=self._attempts_of(spec.index),
                )
            )

    def _run_serial(self, todo: Sequence[RunSpec]) -> None:
        for spec in todo:
            self._run_one_inline(spec)

    # -- parallel path ---------------------------------------------------------------

    def _context(self):
        if self.config.mp_context:
            return multiprocessing.get_context(self.config.mp_context)
        # Prefer fork: no re-import requirement on task modules, and
        # payloads transfer without a pickling round-trip.
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _run_parallel(self, todo: Sequence[RunSpec]) -> None:
        from multiprocessing.connection import wait as connection_wait

        ctx = self._context()
        pending: deque[RunSpec] = deque(todo)
        delayed = self._delayed_heap = []  # [(ready_time, index, spec)]
        active: dict[object, _Active] = {}

        try:
            while pending or delayed or active:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    __, __, spec = heapq.heappop(delayed)
                    pending.append(spec)

                while pending and len(active) < self.config.workers:
                    spec = pending.popleft()
                    if not self._launch(ctx, spec, active):
                        # Spawn failure: degrade to in-process execution
                        # rather than losing the run.
                        self._report.degraded_serial = True
                        self._run_one_inline(spec)

                timeout = self._wait_timeout(active, delayed, now)
                if active:
                    ready = connection_wait(list(active), timeout=timeout)
                    for conn in ready:
                        self._absorb(conn, active.pop(conn))
                elif timeout > 0:
                    time.sleep(timeout)

                self._reap_timeouts(active)
        except KeyboardInterrupt:
            self._kill_all(active)
            raise

    def _launch(self, ctx, spec: RunSpec, active: dict) -> bool:
        attempt = self._attempts_of(spec.index)
        chaos = self._chaos.get(spec.index) if attempt == 1 else None
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=worker_entry,
            args=(self.task, spec.payload, sender, chaos),
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            receiver.close()
            sender.close()
            return False
        # The child holds its own handle; closing ours makes the
        # receiver see EOF the instant the worker dies.
        sender.close()
        now = time.monotonic()
        deadline = (
            now + self.config.run_timeout
            if self.config.run_timeout is not None
            else None
        )
        active[receiver] = _Active(
            process=process,
            spec=spec,
            attempt=attempt,
            started=now,
            deadline=deadline,
        )
        return True

    def _wait_timeout(self, active, delayed, now: float) -> float:
        candidates = [0.5]
        for record in active.values():
            if record.deadline is not None:
                candidates.append(record.deadline - now)
        if delayed:
            candidates.append(delayed[0][0] - now)
        return max(0.01, min(candidates))

    def _absorb(self, conn, record: _Active) -> None:
        """Consume a worker's message (or its death) and finalize/retry."""
        self._busy += time.monotonic() - record.started
        try:
            kind, value = conn.recv()
        except (EOFError, OSError):
            self._join(record.process)
            code = record.process.exitcode
            self._attempt_failed(
                record.spec,
                OUTCOME_WORKER_CRASHED,
                f"worker exited with code {code} before reporting a result",
            )
            return
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._join(record.process)
        if kind == "ok":
            self._finalize(
                RunResult(
                    index=record.spec.index,
                    outcome=OUTCOME_OK,
                    value=value,
                    attempts=record.attempt,
                )
            )
        else:
            self._finalize(
                RunResult(
                    index=record.spec.index,
                    outcome=OUTCOME_TASK_ERROR,
                    error=str(value),
                    attempts=record.attempt,
                )
            )

    def _reap_timeouts(self, active: dict) -> None:
        now = time.monotonic()
        expired = [
            conn
            for conn, record in active.items()
            if record.deadline is not None and now >= record.deadline
        ]
        for conn in expired:
            record = active.pop(conn)
            self._busy += time.monotonic() - record.started
            self._put_down(record.process)
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._attempt_failed(
                record.spec,
                OUTCOME_WORKER_TIMEOUT,
                f"run exceeded the {self.config.run_timeout}s wall-clock "
                "timeout; worker killed",
            )

    def _attempt_failed(self, spec: RunSpec, kind: str, detail: str) -> None:
        failures = self._failures.get(spec.index, 0) + 1
        self._failures[spec.index] = failures
        if kind == OUTCOME_WORKER_CRASHED:
            self._report.crashed_attempts += 1
        else:
            self._report.timed_out_attempts += 1
        if self._metrics is not None:
            self._metrics["failures"].inc(kind=kind)
        if kind in RETRYABLE and failures <= self.config.retries:
            self._report.retried += 1
            if self._metrics is not None:
                self._metrics["retries"].inc()
            delay = min(
                self.config.backoff_cap,
                self.config.backoff_base * (2 ** (failures - 1)),
            )
            heapq.heappush(
                self._delayed_heap,
                (time.monotonic() + delay, spec.index, spec),
            )
        else:
            self._finalize(
                RunResult(
                    index=spec.index,
                    outcome=kind,
                    error=detail,
                    attempts=failures,
                )
            )

    # -- process hygiene -------------------------------------------------------------

    def _join(self, process) -> None:
        process.join(timeout=self.config.grace_seconds)
        if process.is_alive():  # pragma: no cover - defensive
            process.kill()
            process.join(timeout=self.config.grace_seconds)

    def _put_down(self, process) -> None:
        """Terminate, then kill, a worker that must not keep running."""
        if process.is_alive():
            process.terminate()
            process.join(timeout=self.config.grace_seconds)
        if process.is_alive():
            process.kill()
            process.join(timeout=self.config.grace_seconds)

    def _kill_all(self, active: dict) -> None:
        for conn, record in active.items():
            self._put_down(record.process)
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        active.clear()


def run_matrix(
    task: Callable[[dict], object],
    specs: Iterable[RunSpec],
    config: EngineConfig = EngineConfig(),
) -> EngineReport:
    """One-shot convenience wrapper around :class:`CampaignEngine`."""
    return CampaignEngine(task, config).run(specs)
