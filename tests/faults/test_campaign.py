"""Campaign-level tests: classification, determinism, and the CLI."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.campaign import EngineConfig
from repro.faults import CampaignConfig, Classification, run_campaign
from repro.faults.campaign import (
    _CAMPAIGN_DESIGNS,
    CAMPAIGN_SOURCE,
    CONFIG_DEFAULTS,
    ENGINE_DEFAULTS,
    CampaignReport,
    _diverged,
    _faults_parser,
    build_run_specs,
    run_one,
)

GOLDEN_REPORT = (
    Path(__file__).parent / "golden" / "campaign_smoke_report.txt"
)

#: The committed golden fixture's exact configuration (also the CI
#: ``campaign-smoke`` scenario).
SMOKE_CONFIG = CampaignConfig(
    seed=7, runs=4, cycles=250, organizations=("arbitrated",)
)
SMOKE_CLI = [
    "faults",
    "--seed", "7",
    "--runs", "4",
    "--cycles", "250",
    "--organization", "arbitrated",
]


class TestClassification:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(CampaignConfig(seed=7, runs=6, cycles=300))

    def test_every_run_classified(self, report):
        cfg = report.config
        assert len(report.outcomes) == cfg.runs * len(cfg.organizations)
        assert sum(report.by_classification().values()) == len(report.outcomes)

    def test_at_least_four_kinds_classified(self, report):
        # Acceptance floor: the campaign exercises >= 4 distinct fault
        # kinds across the two organizations.
        assert len(set(report.by_kind()) - {"none"}) >= 4

    def test_both_organizations_covered(self, report):
        assert {o.organization for o in report.outcomes} == {
            "arbitrated",
            "event_driven",
        }

    def test_detections_happen(self, report):
        counts = report.by_classification()
        assert counts[Classification.DETECTED_RECOVERED.value] > 0

    def test_render_mentions_every_run(self, report):
        text = report.render()
        for outcome in report.outcomes:
            assert f"run {outcome.organization}#{outcome.index}:" in text
        assert "totals:" in text

    def test_abort_policy_produces_aborts(self):
        report = run_campaign(
            CampaignConfig(
                seed=7,
                runs=4,
                cycles=300,
                organizations=("arbitrated",),
                policy="abort",
            )
        )
        counts = report.by_classification()
        assert counts[Classification.DETECTED_ABORTED.value] > 0
        aborted = [
            o
            for o in report.outcomes
            if o.classification is Classification.DETECTED_ABORTED
        ]
        # Aborts carry the structured error description, not a bare hang.
        assert all(o.error for o in aborted)


class TestDeterminism:
    def test_same_config_renders_identically(self):
        config = CampaignConfig(
            seed=11, runs=3, cycles=150, organizations=("arbitrated",)
        )
        first = run_campaign(config).render()
        second = run_campaign(config).render()
        assert first == second

    def test_different_seeds_differ(self):
        base = dict(runs=3, cycles=150, organizations=("arbitrated",))
        first = run_campaign(CampaignConfig(seed=1, **base)).render()
        second = run_campaign(CampaignConfig(seed=2, **base)).render()
        assert first != second


class TestEngineIntegration:
    """The fault campaign through the fault-tolerant engine: the merged
    report must be byte-identical across worker counts, injected
    crashes, and resume boundaries (the acceptance criterion)."""

    def test_parallel_render_matches_serial(self):
        serial = run_campaign(SMOKE_CONFIG).render()
        parallel = run_campaign(
            SMOKE_CONFIG, engine=EngineConfig(workers=2)
        ).render()
        assert parallel == serial

    def test_chaos_crash_is_retried_and_invisible(self):
        report = run_campaign(
            SMOKE_CONFIG,
            engine=EngineConfig(
                workers=2, retries=2, backoff_base=0.0, chaos=((1, "crash"),)
            ),
        )
        assert report.engine.crashed_attempts == 1
        assert report.engine.retried == 1
        assert report.render() == run_campaign(SMOKE_CONFIG).render()

    def test_exhausted_retries_classify_worker_crashed(self):
        report = run_campaign(
            SMOKE_CONFIG,
            engine=EngineConfig(
                workers=2, retries=0, backoff_base=0.0, chaos=((1, "crash"),)
            ),
        )
        by_class = report.by_classification()
        assert by_class[Classification.WORKER_CRASHED.value] == 1
        assert "worker-crashed" in report.render()

    def test_crash_stop_resume_merges_identically(self, tmp_path):
        """Kill-and-resume with an injected crash == uninterrupted serial."""
        journal = str(tmp_path / "campaign.jsonl")
        first = run_campaign(
            SMOKE_CONFIG,
            engine=EngineConfig(
                workers=2,
                retries=2,
                backoff_base=0.0,
                chaos=((1, "crash"),),
                journal=journal,
                stop_after=2,
            ),
        )
        assert first.engine.stopped
        assert first.engine.completed == 2
        second = run_campaign(
            SMOKE_CONFIG,
            engine=EngineConfig(workers=2, journal=journal, resume=journal),
        )
        assert second.engine.resumed == 2
        assert second.render() == run_campaign(SMOKE_CONFIG).render()

    def test_golden_fixture_is_honest(self):
        """The committed CI golden must equal a fresh serial run."""
        assert GOLDEN_REPORT.read_text() == (
            run_campaign(SMOKE_CONFIG).render() + "\n"
        )

    def test_partial_report_renders_marker(self):
        full = run_campaign(SMOKE_CONFIG)
        partial = CampaignReport(
            config=SMOKE_CONFIG,
            outcomes=full.outcomes[:1],
            interrupted=True,
        )
        text = partial.render()
        assert "partial: 1/4 runs" in text
        assert "interrupted: true" in text
        assert "interrupted" not in full.render()


class TestDefaultsSingleSource:
    """The argparse defaults must be derived from the dataclasses —
    asserted attribute by attribute so they can never drift."""

    def test_parser_defaults_match_dataclasses(self):
        args = _faults_parser().parse_args([])
        assert args.seed == CONFIG_DEFAULTS.seed
        assert args.runs == CONFIG_DEFAULTS.runs
        assert args.cycles == CONFIG_DEFAULTS.cycles
        assert args.policy == CONFIG_DEFAULTS.policy
        assert (
            tuple(args.kinds.split(",")) == CONFIG_DEFAULTS.fault_kinds
        )
        assert args.read_timeout == CONFIG_DEFAULTS.read_timeout
        assert args.deadlock_window == CONFIG_DEFAULTS.deadlock_window
        assert args.workers == ENGINE_DEFAULTS.workers
        assert args.run_timeout == ENGINE_DEFAULTS.run_timeout
        assert args.retries == ENGINE_DEFAULTS.retries
        assert args.journal == ENGINE_DEFAULTS.journal
        assert args.resume == ENGINE_DEFAULTS.resume
        assert args.stop_after == ENGINE_DEFAULTS.stop_after

    def test_default_config_equals_dataclass(self):
        assert CONFIG_DEFAULTS == CampaignConfig()
        assert ENGINE_DEFAULTS == EngineConfig()


class TestDivergence:
    def test_prefix_consistency_is_clean(self):
        golden = {"t": [(1,), (2,), (3,)]}
        assert not _diverged(golden, {"t": [(1,), (2,)]})  # delayed
        assert not _diverged(golden, {"t": [(1,), (2,), (3,)]})

    def test_any_divergent_round_is_corruption(self):
        golden = {"t": [(1,), (2,), (3,)]}
        assert _diverged(golden, {"t": [(1,), (9,)]})

    def test_transported_lists_compare_as_tuples(self):
        golden = {"t": [(("a", 1),), (("a", 2),)]}
        assert not _diverged(golden, {"t": [[["a", 1]]]})
        assert _diverged(golden, {"t": [[["a", 1]], [["a", 9]]]})


class TestCampaignExecution:
    """What a campaign pays for: the golden phase compiles each
    organization once and its runs reuse the design, and the round
    recorder leaves idle skipping on."""

    CONFIG = CampaignConfig(
        seed=1, runs=6, cycles=400, fault_kinds=("producer-stall",)
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro import flow

        calls = {"compiles": 0, "skipped": []}
        real_compile = flow.compile_design
        real_run = flow.Simulation.run

        def compile_design(*args, **kwargs):
            calls["compiles"] += 1
            return real_compile(*args, **kwargs)

        def run(sim, *args, **kwargs):
            result = real_run(sim, *args, **kwargs)
            calls["skipped"].append(sim.kernel.cycles_skipped)
            return result

        monkeypatch.setattr(flow, "compile_design", compile_design)
        monkeypatch.setattr(flow.Simulation, "run", run)
        return calls

    def test_one_compile_per_organization(self, calls):
        report = run_campaign(self.CONFIG, kernel="wheel")
        assert len(report.outcomes) == 12
        assert calls["compiles"] == 2
        assert not _CAMPAIGN_DESIGNS  # the reuse ends with the campaign

    def test_fault_runs_skip_idle_cycles(self, calls):
        run_campaign(self.CONFIG, kernel="wheel")
        fault_runs = calls["skipped"][2:]  # after the two golden runs
        assert len(fault_runs) == 12
        assert sum(fault_runs) > 0

    def test_run_one_outside_a_campaign_compiles(self, calls):
        specs = build_run_specs(self.CONFIG, kernel="wheel")
        assert calls["compiles"] == 2
        outcome = run_one(specs[0].payload)
        assert calls["compiles"] == 3
        report = run_campaign(self.CONFIG, kernel="wheel")
        assert outcome == report.outcomes[0].to_json()


class TestCli:
    def run_cli(self, capsys, *extra):
        code = main(
            [
                "faults",
                "--seed",
                "7",
                "--runs",
                "2",
                "--cycles",
                "150",
                "--organization",
                "arbitrated",
                *extra,
            ]
        )
        return code, capsys.readouterr().out

    def test_exit_zero_and_report(self, capsys):
        code, out = self.run_cli(capsys)
        assert code == 0
        assert "fault campaign" in out
        assert "totals:" in out

    def test_cli_output_is_deterministic(self, capsys):
        __, first = self.run_cli(capsys)
        __, second = self.run_cli(capsys)
        assert first == second

    def test_unknown_kind_rejected(self, capsys):
        code = main(["faults", "--kinds", "gremlin"])
        assert code == 2
        assert "unknown fault kinds" in capsys.readouterr().err

    def test_kind_filter_respected(self, capsys):
        code, out = self.run_cli(capsys, "--kinds", "producer-stall")
        assert code == 0
        for kind in ("seu", "request-drop", "deplist-corruption"):
            assert f"  {kind}:" not in out

    def test_report_file_written(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out = self.run_cli(capsys, "--report", str(path))
        assert code == 0
        assert path.read_text().strip() in out

    def test_missing_source_file(self, capsys):
        code = main(["faults", "--source", "/nonexistent/x.hic"])
        assert code == 2

    def test_source_file_accepted(self, capsys, tmp_path):
        path = tmp_path / "design.hic"
        path.write_text(CAMPAIGN_SOURCE)
        code, out = self.run_cli(capsys, "--source", str(path))
        assert code == 0
        assert "totals:" in out

    def test_engine_summary_on_stderr_only(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code = main(
            ["faults", "--seed", "7", "--runs", "2", "--cycles", "150",
             "--organization", "arbitrated", "--report", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "engine: workers=1" in captured.err
        # Wall-clock telemetry must never leak into the deterministic
        # surfaces: neither stdout nor the report artifact.
        assert "engine:" not in captured.out
        assert "engine:" not in path.read_text()

    def test_engine_metrics_written(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        code, __ = self.run_cli(capsys, "--engine-metrics", str(path))
        assert code == 0
        text = path.read_text()
        assert 'campaign_runs_total{outcome="ok"} 2' in text
        assert "campaign_workers 1" in text


class TestCliRobustness:
    """Exit codes and byte-identity of the checkpoint/resume CLI flow —
    the same scenario the CI ``campaign-smoke`` job runs."""

    def test_chaos_stop_resume_reproduces_golden(self, capsys, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        report_path = tmp_path / "resumed.txt"
        code = main(
            SMOKE_CLI
            + [
                "--workers", "2",
                "--retries", "2",
                "--chaos-crash", "1",
                "--journal", journal,
                "--stop-after", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "checkpoint: stopped after 2 new results" in out
        code = main(
            SMOKE_CLI
            + [
                "--workers", "2",
                "--journal", journal,
                "--resume", journal,
                "--report", str(report_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert report_path.read_bytes() == GOLDEN_REPORT.read_bytes()

    def test_resume_refuses_foreign_journal(self, capsys, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        assert main(SMOKE_CLI + ["--journal", journal]) == 0
        capsys.readouterr()
        # Same journal, different campaign config: refused, not merged.
        code = main(
            SMOKE_CLI[:-1] + ["both", "--resume", journal]
        )
        assert code == 1
        assert "different campaign" in capsys.readouterr().err

    def test_interrupt_mid_campaign_renders_partial_and_exits_130(
        self, capsys, monkeypatch
    ):
        import repro.faults.campaign as campaign_module

        real_run_one = campaign_module.run_one

        def interrupting(payload):
            if payload["index"] == 2:
                raise KeyboardInterrupt
            return real_run_one(payload)

        monkeypatch.setattr(campaign_module, "run_one", interrupting)
        code = main(SMOKE_CLI)
        out = capsys.readouterr().out
        assert code == 130
        assert "partial: 2/4 runs" in out
        assert "interrupted: true" in out
        assert "run arbitrated#0:" in out

    def test_interrupt_before_any_result_exits_130(self, capsys, monkeypatch):
        import repro.faults.campaign as campaign_module

        def interrupting(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_module, "run_campaign", interrupting)
        code = main(SMOKE_CLI)
        assert code == 130
        assert "interrupted before" in capsys.readouterr().err


class TestProfiledCampaign:
    """Campaign-wide bottleneck aggregation: ``--profile`` merges the
    per-run attribution ledgers into a per-organization heatmap that is
    part of the deterministic result surface."""

    PROFILED = dataclasses.replace(SMOKE_CONFIG, profile=True, runs=6)

    def test_heatmap_rendered_only_when_profiled(self):
        profiled = run_campaign(self.PROFILED).render()
        plain = run_campaign(SMOKE_CONFIG).render()
        assert "bottleneck heatmap" in profiled
        assert "bottleneck heatmap" not in plain

    def test_parallel_profile_merge_matches_serial(self):
        serial = run_campaign(self.PROFILED)
        parallel = run_campaign(
            self.PROFILED, engine=EngineConfig(workers=2)
        )
        assert serial.render() == parallel.render()
        assert (
            serial.profile_by_organization()
            == parallel.profile_by_organization()
        )

    def test_merged_profile_conserves_campaign_cycles(self):
        report = run_campaign(self.PROFILED)
        merged = report.profile_by_organization()["arbitrated"]
        assert merged["runs"] == self.PROFILED.runs
        assert merged["cycles"] == self.PROFILED.runs * self.PROFILED.cycles
        # Attribution conserves: state totals sum to an exact whole
        # number of threads' worth of campaign cycles, and every
        # site-attributed cycle appears in the state totals too.
        per_state = sum(merged["states"].values())
        threads, remainder = divmod(per_state, merged["cycles"])
        assert remainder == 0 and threads >= 2
        per_site = sum(
            count
            for per_state_cells in merged["sites"].values()
            for count in per_state_cells.values()
        )
        assert per_site <= per_state

    def test_summary_json_carries_profile_and_engine(self, capsys, tmp_path):
        path = tmp_path / "summary.json"
        code = main(
            SMOKE_CLI + ["--profile", "--summary-json", str(path)]
        )
        assert code == 0
        summary = json.loads(path.read_text())
        assert summary["config"]["profile"] is True
        assert summary["profile"]["arbitrated"]["runs"] == 4
        assert summary["engine"]["workers"] == 1
