"""Campaign-engine tests: failure taxonomy, retry, determinism, resume.

Every failure-classification test here uses a *real* process death or
hang (``os._exit``, sleeping past the timeout), never a mock — the
engine's job is to survive the genuine article.  Every determinism test
asserts the merged result list is identical across worker counts,
scheduling, retries, and resume boundaries.
"""

import os

import pytest

from repro.campaign import (
    OUTCOME_OK,
    OUTCOME_TASK_ERROR,
    OUTCOME_WORKER_CRASHED,
    OUTCOME_WORKER_TIMEOUT,
    CampaignEngine,
    EngineConfig,
    RunResult,
    RunSpec,
    run_matrix,
)
from repro.campaign.tasks import (
    crash_once_task,
    crash_task,
    echo_task,
    error_task,
    sleep_task,
    square_task,
)
from repro.obs.metrics import MetricsRegistry


def square_specs(count: int) -> list:
    return [
        RunSpec(index=index, payload={"value": index})
        for index in range(count)
    ]


def merged(report) -> list:
    """The deterministic surface: outcome records without attempt
    counts (attempts legitimately vary when chaos/retries fire)."""
    return [
        (r.index, r.outcome, r.value, r.error) for r in report.results
    ]


class TestSerialPath:
    def test_all_ok(self):
        report = run_matrix(square_task, square_specs(4))
        assert report.completed == 4
        assert [r.value["square"] for r in report.results] == [0, 1, 4, 9]
        assert all(r.ok and r.attempts == 1 for r in report.results)

    def test_task_exception_is_task_error(self):
        report = run_matrix(
            error_task, [RunSpec(index=0, payload={"message": "kaboom"})]
        )
        (result,) = report.results
        assert result.outcome == OUTCOME_TASK_ERROR
        assert not result.ok
        assert "RuntimeError" in result.error and "kaboom" in result.error
        # Deterministic failures are never retried.
        assert report.retried == 0

    def test_duplicate_indices_rejected(self):
        engine = CampaignEngine(echo_task)
        with pytest.raises(ValueError, match="unique"):
            engine.run(
                [RunSpec(index=1, payload={}), RunSpec(index=1, payload={})]
            )

    def test_results_sorted_by_index(self):
        specs = [RunSpec(index=i, payload={"value": i}) for i in (3, 0, 2, 1)]
        report = run_matrix(square_task, specs)
        assert [r.index for r in report.results] == [0, 1, 2, 3]

    def test_keyboard_interrupt_yields_partial_results(self):
        def interrupting(payload):
            if payload["value"] == 2:
                raise KeyboardInterrupt
            return payload["value"]

        report = run_matrix(interrupting, square_specs(4))
        assert report.interrupted
        assert [r.index for r in report.results] == [0, 1]
        assert all(r.ok for r in report.results)


class TestParallelClassification:
    def test_parallel_matches_serial(self):
        serial = run_matrix(square_task, square_specs(6))
        parallel = run_matrix(
            square_task, square_specs(6), EngineConfig(workers=3)
        )
        assert merged(serial) == merged(parallel)
        assert [r.to_json() for r in serial.results] == [
            r.to_json() for r in parallel.results
        ]

    def test_worker_raise_is_task_error_not_retried(self):
        report = run_matrix(
            error_task,
            [RunSpec(index=0, payload={"message": "bug"})],
            EngineConfig(workers=2),
        )
        (result,) = report.results
        assert result.outcome == OUTCOME_TASK_ERROR
        assert result.attempts == 1
        assert report.retried == 0

    def test_os_exit_is_worker_crashed(self):
        report = run_matrix(
            crash_task,
            [RunSpec(index=0, payload={"code": 21})],
            EngineConfig(workers=2, retries=1, backoff_base=0.0),
        )
        (result,) = report.results
        assert result.outcome == OUTCOME_WORKER_CRASHED
        assert "before reporting" in result.error
        # First attempt crashed, was retried, crashed again: budget spent.
        assert result.attempts == 2
        assert report.crashed_attempts == 2
        assert report.retried == 1

    def test_sleep_past_timeout_is_worker_timeout(self):
        report = run_matrix(
            sleep_task,
            [RunSpec(index=0, payload={"seconds": 60.0})],
            EngineConfig(
                workers=2,
                run_timeout=0.3,
                retries=0,
                grace_seconds=0.2,
            ),
        )
        (result,) = report.results
        assert result.outcome == OUTCOME_WORKER_TIMEOUT
        assert "wall-clock" in result.error
        assert report.timed_out_attempts == 1

    def test_crash_once_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "attempted"
        report = run_matrix(
            crash_once_task,
            [RunSpec(index=0, payload={"marker": str(marker), "value": 5})],
            EngineConfig(workers=2, retries=2, backoff_base=0.0),
        )
        (result,) = report.results
        assert result.outcome == OUTCOME_OK
        assert result.value == {"value": 5, "recovered": True}
        assert result.attempts == 2
        assert report.crashed_attempts == 1
        assert report.retried == 1

    def test_chaos_injection_fires_once_and_is_survived(self):
        report = run_matrix(
            square_task,
            square_specs(4),
            EngineConfig(
                workers=2,
                retries=2,
                backoff_base=0.0,
                chaos=((1, "crash"),),
            ),
        )
        assert all(r.ok for r in report.results)
        crashed = report.results[1]
        assert crashed.attempts == 2
        assert report.crashed_attempts == 1
        # ...and chaos never leaks into the merged values.
        assert merged(report) == merged(run_matrix(square_task, square_specs(4)))

    def test_unknown_chaos_kind_rejected(self):
        with pytest.raises(ValueError, match="chaos kind"):
            EngineConfig(chaos=((0, "gremlin"),))

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            EngineConfig(retries=-1)


class TestGracefulDegradation:
    def test_spawn_failure_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            CampaignEngine,
            "_launch",
            lambda self, ctx, spec, active: False,
        )
        report = run_matrix(
            square_task, square_specs(4), EngineConfig(workers=4)
        )
        assert report.degraded_serial
        assert all(r.ok for r in report.results)
        assert merged(report) == merged(run_matrix(square_task, square_specs(4)))


class TestJournalAndResume:
    def test_stop_after_checkpoints_and_resume_completes(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        baseline = run_matrix(square_task, square_specs(6))

        first = CampaignEngine(
            square_task,
            EngineConfig(journal=journal, stop_after=2),
            fingerprint="sq/6",
        ).run(square_specs(6))
        assert first.stopped
        assert first.completed == 2

        second = CampaignEngine(
            square_task,
            EngineConfig(workers=2, journal=journal, resume=journal),
            fingerprint="sq/6",
        ).run(square_specs(6))
        assert not second.stopped
        assert second.resumed == 2
        assert second.completed == 4
        assert [r.to_json() for r in second.results] == [
            r.to_json() for r in baseline.results
        ]

    def test_resume_after_crash_merges_identically(self, tmp_path):
        """The acceptance scenario: a worker crash plus a mid-campaign
        kill, resumed, must merge byte-identically to an uninterrupted
        serial campaign."""
        journal = str(tmp_path / "run.jsonl")
        baseline = run_matrix(square_task, square_specs(5))

        first = CampaignEngine(
            square_task,
            EngineConfig(
                workers=2,
                retries=2,
                backoff_base=0.0,
                chaos=((0, "crash"),),
                journal=journal,
                stop_after=3,
            ),
            fingerprint="sq/5",
        ).run(square_specs(5))
        assert first.stopped and first.completed == 3

        second = CampaignEngine(
            square_task,
            EngineConfig(workers=2, journal=journal, resume=journal),
            fingerprint="sq/5",
        ).run(square_specs(5))
        assert second.resumed == 3
        assert merged(second) == merged(baseline)

    def test_missing_resume_journal_is_a_fresh_start(self, tmp_path):
        # The --journal X --resume X idiom must work on the very first
        # run, when the journal does not exist yet.
        journal = str(tmp_path / "run.jsonl")
        report = CampaignEngine(
            square_task,
            EngineConfig(journal=journal, resume=journal),
            fingerprint="sq/3",
        ).run(square_specs(3))
        assert report.resumed == 0
        assert report.completed == 3
        assert os.path.exists(journal)

    def test_resumed_runs_do_not_reexecute(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        CampaignEngine(
            square_task,
            EngineConfig(journal=journal),
            fingerprint="sq/3",
        ).run(square_specs(3))

        def exploding(payload):
            raise AssertionError("finished run was re-executed")

        resumed = CampaignEngine(
            exploding,
            EngineConfig(resume=journal),
            fingerprint="sq/3",
        ).run(square_specs(3))
        assert resumed.resumed == 3
        assert all(r.ok for r in resumed.results)


class TestTelemetry:
    def test_metrics_registry_counters(self):
        registry = MetricsRegistry()
        report = CampaignEngine(
            square_task,
            EngineConfig(workers=2, retries=1, backoff_base=0.0,
                         chaos=((0, "crash"),)),
            metrics=registry,
        ).run(square_specs(3))
        text = registry.render_prometheus()
        assert 'campaign_runs_total{outcome="ok"} 3' in text
        assert "campaign_retries_total 1" in text
        assert 'campaign_attempt_failures_total{kind="worker-crashed"} 1' in text
        assert "campaign_worker_utilization" in text
        assert "campaign_workers 2" in text
        assert report.counters()["outcome_ok"] == 3

    def test_report_describe_mentions_flags(self):
        report = run_matrix(
            square_task,
            square_specs(3),
            EngineConfig(stop_after=1),
        )
        assert report.stopped
        assert "checkpoint-stop" in report.describe()
        assert "workers=1" in report.describe()


class TestRunResultRoundTrip:
    def test_json_round_trip(self):
        result = RunResult(
            index=4,
            outcome=OUTCOME_WORKER_CRASHED,
            error="worker exited with code 21 before reporting a result",
            attempts=3,
        )
        assert RunResult.from_json(result.to_json()) == result

    def test_ok_round_trip_preserves_value(self):
        result = RunResult(index=0, outcome=OUTCOME_OK, value={"a": [1, 2]})
        assert RunResult.from_json(result.to_json()) == result
