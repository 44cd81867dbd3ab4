"""Unit tests for the ``python -m repro`` command-line driver.

``tests/golden/cli_surface.json`` pins every command's options; after an
intentional change to the command line, regenerate it with
``PYTHONPATH=src python -m tests.test_cli``.
"""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from tests.conftest import DEADLOCK_SOURCE, FIGURE1_SOURCE

GOLDEN_SURFACE = Path(__file__).parent / "golden" / "cli_surface.json"
FIGURE1_EXAMPLE = (
    Path(__file__).resolve().parent.parent / "examples" / "figure1.hic"
)

#: every command's parser builder, keyed by the program name it prints
PARSERS = {
    "python -m repro": ("repro.__main__", "_parser"),
    "python -m repro faults": ("repro.faults.campaign", "_faults_parser"),
    "python -m repro profile": ("repro.obs.profile_cli", "_profile_parser"),
    "python -m repro predict": ("repro.model.cli", "_predict_parser"),
    "python -m repro run": ("repro.scenarios.cli", "_run_parser"),
    "python -m repro scenarios": ("repro.scenarios.cli", "_scenarios_parser"),
}


def build_parser(prog):
    module, builder = PARSERS[prog]
    return getattr(importlib.import_module(module), builder)()


def cli_surface() -> dict:
    """Every option of every command as plain data: what argparse acts
    on, without help text, metavar or type."""
    surface = {}
    for prog in PARSERS:
        surface[prog] = {
            (action.option_strings or [action.dest])[0]: {
                "flags": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "nargs": action.nargs,
                "required": action.required,
                "const": action.const,
                "action": type(action).__name__,
            }
            for action in build_parser(prog)._actions
        }
    return surface


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "fig1.hic"
    path.write_text(FIGURE1_SOURCE)
    return str(path)


class TestCli:
    def test_compile_only(self, figure1_file, capsys):
        assert main([figure1_file]) == 0
        out = capsys.readouterr().out
        assert "3 threads" in out
        assert "FF=66" in out

    def test_event_driven_option(self, figure1_file, capsys):
        assert main([figure1_file, "--organization", "event_driven"]) == 0
        assert "event_driven_wrapper" in capsys.readouterr().out

    def test_simulate_option(self, figure1_file, capsys):
        assert main([figure1_file, "--simulate", "50"]) == 0
        out = capsys.readouterr().out
        assert "simulated 50 cycles" in out
        assert "rounds" in out

    def test_verilog_output(self, figure1_file, tmp_path, capsys):
        target = tmp_path / "out.v"
        assert main([figure1_file, "--verilog", str(target)]) == 0
        assert "endmodule" in target.read_text()

    def test_verilog_refuses_a_source_name_that_is_no_identifier(
        self, tmp_path, capsys
    ):
        source = tmp_path / "my-design.hic"
        source.write_text(FIGURE1_SOURCE)
        target = tmp_path / "out.v"
        assert main([str(source), "--verilog", str(target)]) == 1
        assert "'my-design' is not a legal Verilog identifier" in (
            capsys.readouterr().err
        )
        assert not target.exists()

    def test_vcd_output(self, figure1_file, tmp_path):
        target = tmp_path / "trace.vcd"
        assert main(
            [figure1_file, "--simulate", "30", "--vcd", str(target)]
        ) == 0
        assert "$enddefinitions" in target.read_text()

    def test_deplist_entries_option(self, figure1_file, capsys):
        assert main([figure1_file, "--deplist-entries", "8"]) == 0
        out = capsys.readouterr().out
        # 8 entries x 14 FF + 10 fixed = 122 FFs
        assert "FF=122" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/file.hic"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.hic"
        path.write_text("thread t () { int x; x = ; }")
        assert main([str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--infer-pragmas"]])
    def test_target_rooted_in_a_call_is_a_syntax_error(
        self, tmp_path, capsys, extra
    ):
        path = tmp_path / "bad.hic"
        path.write_text("thread t () { int x; f(x).a = 3; }")
        assert main([str(path), *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:1:27: assignment target must be a variable, "
            "field, or element"
        ]

    def test_deadlock_rejected(self, tmp_path, capsys):
        path = tmp_path / "deadlock.hic"
        path.write_text(DEADLOCK_SOURCE)
        assert main([str(path)]) == 1
        assert "deadlock" in capsys.readouterr().err

    def test_deadlock_check_skippable(self, tmp_path):
        path = tmp_path / "deadlock.hic"
        path.write_text(DEADLOCK_SOURCE)
        assert main([str(path), "--no-deadlock-check"]) == 0


class TestCliTelemetry:
    def test_trace_json_implies_simulate(self, figure1_file, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main([figure1_file, "--trace-json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "simulated 1000 cycles" in out
        assert "wrote Chrome trace" in out
        document = json.loads(target.read_text())
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

    def test_all_telemetry_outputs(self, figure1_file, tmp_path):
        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        summary = tmp_path / "s.json"
        csv = tmp_path / "m.csv"
        assert main([
            figure1_file, "--simulate", "200",
            "--trace-json", str(trace),
            "--metrics", str(prom),
            "--summary-json", str(summary),
            "--summary-csv", str(csv),
        ]) == 0
        assert "sim_cycles 200" in prom.read_text()
        assert json.loads(summary.read_text())["schema"] == (
            "repro.obs.summary/1"
        )
        assert csv.read_text().startswith("metric,")

    def test_traffic_rate_drives_ingress(self, figure1_file, tmp_path):
        prom = tmp_path / "m.prom"
        assert main([
            figure1_file, "--simulate", "300",
            "--traffic-rate", "0.1", "--metrics", str(prom),
        ]) == 0
        text = prom.read_text()
        assert "sim_requests_granted_total" in text

    def test_trace_level_full(self, figure1_file, tmp_path):
        deps = tmp_path / "deps.json"
        full = tmp_path / "full.json"
        assert main([figure1_file, "--simulate", "200",
                     "--trace-json", str(deps)]) == 0
        assert main([figure1_file, "--simulate", "200",
                     "--trace-json", str(full),
                     "--trace-level", "full"]) == 0
        assert len(full.read_bytes()) > len(deps.read_bytes())

    def test_max_wall_seconds_times_out(self, figure1_file, capsys):
        code = main(
            [figure1_file, "--simulate", "100000",
             "--max-wall-seconds", "0"]
        )
        assert code == 1
        assert "simulation-timeout" in capsys.readouterr().err

    def test_max_wall_seconds_generous_budget_completes(
        self, figure1_file, capsys
    ):
        code = main(
            [figure1_file, "--simulate", "50", "--max-wall-seconds", "60"]
        )
        assert code == 0
        assert "simulated 50 cycles" in capsys.readouterr().out


class TestCliPredict:
    """``python -m repro predict`` — the analytical model's surface."""

    def test_single_prediction(self, figure1_file, capsys):
        assert main(["predict", figure1_file]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "consumer wait" in out
        assert "wait-state fractions" in out

    def test_summary_json_is_byte_deterministic(
        self, figure1_file, tmp_path
    ):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            assert main(
                ["predict", figure1_file, "--banks", "2",
                 "--rate", "0.5", "--summary-json", str(target)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
        document = json.loads(first.read_text())
        assert document["schema"] == "repro.model.prediction/1"
        assert document["config"]["banks"] == 2

    def test_sweep_prints_frontier(self, figure1_file, capsys):
        assert main(
            ["predict", figure1_file, "--sweep",
             "--sweep-banks", "1", "--sweep-links", "1",
             "--sweep-rates", "0.9"]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out

    def test_rejects_nonpositive_banks(self, figure1_file, capsys):
        assert main(["predict", figure1_file, "--banks", "-2"]) == 2
        err = capsys.readouterr().err
        assert "parameter-error" in err
        assert "banks" in err

    def test_negative_banks_fail_the_shared_range_check(
        self, figure1_file, capsys
    ):
        """The shared range check runs first, as for every command."""
        assert main(["predict", figure1_file, "--banks", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: parameter-error: bank count must be >= 0 "
            "(parameter=banks, value=-1)\n"
        )

    def test_a_design_that_does_not_fit_is_a_design_error(
        self, tmp_path, capsys
    ):
        """An allocation failure exits 1 with its message, as the bare
        compile command reports it."""
        path = tmp_path / "big.hic"
        path.write_text("thread t () { int a[4000], x; x = a[1]; }")
        assert main(["predict", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: variable t.a needs 4000 words, more than one bank "
            "holds (512)\n"
        )

    def test_rejects_out_of_range_rate(self, figure1_file, capsys):
        assert main(["predict", figure1_file, "--rate", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "parameter-error" in err
        assert "traffic_rate" in err

    def test_rejects_negative_link_latency(self, figure1_file, capsys):
        assert main(
            ["predict", figure1_file, "--link-latency", "-1"]
        ) == 2
        assert "parameter-error" in capsys.readouterr().err

    def test_missing_source_without_validate(self, capsys):
        assert main(["predict"]) == 2
        assert "source" in capsys.readouterr().err

    def test_missing_file_reported(self, capsys):
        assert main(["predict", "/nonexistent/file.hic"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestKernelOption:
    """``--kernel`` is an explicit-choices option on every subcommand:
    an unknown backend dies in argparse with exit code 2 and the real
    choice list, never deep inside a run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["{source}", "--simulate", "10", "--kernel", "bogus"],
            ["faults", "--runs", "1", "--kernel", "bogus"],
            ["profile", "{source}", "--kernel", "bogus"],
            ["predict", "{source}", "--validate", "--kernel", "bogus"],
        ],
        ids=["run", "faults", "profile", "predict"],
    )
    def test_unknown_kernel_exits_2(self, figure1_file, argv, capsys):
        argv = [a.format(source=figure1_file) for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "compiled" in err  # the choice list names every backend

    def test_run_accepts_compiled_kernel(self, figure1_file, capsys):
        assert main(
            [figure1_file, "--simulate", "40", "--kernel", "compiled"]
        ) == 0
        out = capsys.readouterr().out
        assert "simulated 40 cycles" in out
        assert "kernel: compiled" in out

    def test_compiled_kernel_report_counts_paths(self, figure1_file, capsys):
        # telemetry output attaches an observer, so the compiled kernel
        # must report interpreted cycles rather than pretending
        assert main(
            [
                figure1_file,
                "--simulate",
                "25",
                "--kernel",
                "compiled",
                "--trace-level",
                "deps",
            ]
        ) == 0
        assert "kernel: compiled" in capsys.readouterr().out


class TestScenarioOption:
    """``python -m repro run`` / ``scenarios``: `--scenario` and
    `--channel-synthesis` are explicit-choices options — an unknown
    value dies in argparse with exit code 2 and the real choice list,
    matching the ``--kernel`` hardening above."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scenario", "bogus"],
            ["scenarios", "--scenario", "bogus"],
        ],
        ids=["run", "scenarios"],
    )
    def test_unknown_scenario_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "pipeline" in err  # the choice list names every scenario

    def test_unknown_channel_synthesis_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", "pipeline",
                  "--channel-synthesis", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "guarded" in err and "fifo" in err

    def test_unknown_kernel_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", "pipeline", "--kernel", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_missing_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == 2
        assert "--scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_nonpositive_cycles_is_structured_parameter_error(
        self, cycles, capsys
    ):
        assert main(["run", "--scenario", "pipeline",
                     "--cycles", cycles]) == 2
        err = capsys.readouterr().err
        assert "parameter-error" in err
        assert "cycles" in err

    def test_run_pipeline_reports_fifo_channels(self, capsys):
        assert main(["run", "--scenario", "pipeline",
                     "--cycles", "200"]) == 0
        out = capsys.readouterr().out
        assert "3 fifo" in out
        assert "fifo_ch0" in out
        assert "rounds completed" in out

    def test_run_forced_guarded(self, capsys):
        assert main(["run", "--scenario", "pipeline", "--cycles", "200",
                     "--channel-synthesis", "guarded"]) == 0
        out = capsys.readouterr().out
        assert "channel synthesis 'guarded'" in out

    def test_run_compiled_kernel_writes_summary(self, tmp_path, capsys):
        target = tmp_path / "summary.json"
        assert main(["run", "--scenario", "fanout", "--cycles", "200",
                     "--kernel", "compiled",
                     "--summary-json", str(target)]) == 0
        document = json.loads(target.read_text())
        assert document["schema"] == "repro.obs.summary/1"

    def test_scenarios_report_pipeline(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["scenarios", "--scenario", "pipeline",
                     "--cycles", "200", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "FIFO" in out
        assert "sync area" in out
        document = json.loads(target.read_text())
        assert document["schema"] == "repro.scenarios.report/1"
        (report,) = document["reports"]
        assert report["scenario"] == "pipeline"
        # The acceptance claim: FIFO lowering saves synchronization area.
        assert report["area"]["delta_slices"] > 0
        assert all(c["class"] == "fifo" for c in report["channels"])


@pytest.fixture
def forwarding_file(tmp_path):
    from repro.net import forwarding_source

    path = tmp_path / "fwd2.hic"
    path.write_text(forwarding_source(2))
    return str(path)


class TestSharedErrors:
    """Every command reports the shared failures the same way."""

    def test_predict_validate_missing_file(self, capsys):
        assert main(["predict", "--validate", "/nonexistent/file.hic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read /nonexistent/file.hic")

    def test_faults_syntax_error_matches_bare_command(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.hic"
        path.write_text("thread t () { int x; x = ; }")
        assert main([str(path)]) == 1
        bare = capsys.readouterr().err
        assert bare.startswith("error: ")
        assert main(["faults", "--runs", "1", "--source", str(path)]) == 1
        assert capsys.readouterr().err == bare

    @pytest.mark.parametrize(
        "argv, parameter",
        [
            (["{fig1}", "--simulate", "20", "--max-wall-seconds", "-1"],
             "max_wall_seconds"),
            (["{fwd2}", "--simulate", "20", "--traffic-rate", "1.5"],
             "traffic_rate"),
            (["{fwd2}", "--simulate", "20", "--traffic-rate", "-0.2"],
             "traffic_rate"),
            (["{fig1}", "--banks", "-1"], "banks"),
            (["profile", "{fig1}", "--max-wall-seconds", "-1"],
             "max_wall_seconds"),
            (["profile", "{fwd2}", "--traffic-rate", "1.5"], "traffic_rate"),
            (["profile", "{fig1}", "--banks", "-1"], "banks"),
            (["profile", "{fig1}", "--cycles", "-5"], "cycles"),
            (["faults", "--runs", "1", "--cycles", "-1"], "cycles"),
            (["scenarios", "--cycles", "0"], "cycles"),
            (["{fig1}", "--deplist-entries", "0"], "deplist_entries"),
            (["{fig1}", "--simulate", "-5"], "simulate"),
            (["faults", "--runs", "-1"], "runs"),
            (["predict", "{fig1}", "--deplist-entries", "0"], "deplist_entries"),
        ],
        ids=[
            "bare-wall", "bare-rate-high", "bare-rate-negative",
            "bare-banks", "profile-wall", "profile-rate", "profile-banks",
            "profile-cycles", "faults-cycles", "scenarios-cycles",
            "bare-deplist", "bare-simulate", "faults-runs",
            "predict-deplist",
        ],
    )
    def test_out_of_range_is_structured_parameter_error(
        self, figure1_file, forwarding_file, argv, parameter, capsys
    ):
        argv = [a.format(fig1=figure1_file, fwd2=forwarding_file)
                for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before anything compiles
        assert captured.err.startswith("error: parameter-error: ")
        assert f"(parameter={parameter}, value=" in captured.err

    @pytest.mark.parametrize(
        "flag",
        ["--trace-json", "--metrics", "--summary-json", "--summary-csv"],
    )
    def test_unwritable_telemetry_output_is_a_usage_error(
        self, figure1_file, tmp_path, flag, capsys
    ):
        path = tmp_path / "missing" / "out"
        assert main([figure1_file, "--simulate", "50", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag", ["--trace-json", "--metrics", "--summary-json"]
    )
    def test_run_unwritable_telemetry_output_is_a_usage_error(
        self, tmp_path, flag, capsys
    ):
        path = tmp_path / "missing" / "out"
        argv = ["run", "--scenario", "fanout", "--cycles", "50"]
        assert main([*argv, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["{fig1}", "--verilog", "{out}"],
            ["{fig1}", "--verilog", "{dir}"],
            ["{fig1}", "--simulate", "50", "--vcd", "{out}"],
            ["{fig1}", "--thread-verilog", "{file}"],
            ["profile", "{fig1}", "--cycles", "50", "--breakdown-json", "{out}"],
            ["profile", "{fig1}", "--cycles", "50", "--breakdown-csv", "{out}"],
            ["profile", "{fig1}", "--cycles", "50", "--flame", "{out}"],
            ["profile", "{fig1}", "--cycles", "50", "--chrome-trace", "{out}"],
            ["faults", "--runs", "1", "--cycles", "50",
             "--engine-metrics", "{out}"],
            ["faults", "--runs", "1", "--cycles", "50",
             "--summary-json", "{out}"],
            ["faults", "--runs", "1", "--cycles", "50", "--report", "{out}"],
            ["faults", "--runs", "1", "--cycles", "50", "--journal", "{out}"],
            ["scenarios", "--scenario", "pipeline", "--cycles", "50",
             "--json", "{out}"],
            ["predict", "{fig1}", "--summary-json", "{out}"],
            ["predict", "--validate", "--summary-json", "{out}"],
        ],
        ids=[
            "verilog", "verilog-on-a-directory", "vcd",
            "thread-verilog-on-a-file",
            "profile-breakdown-json", "profile-breakdown-csv",
            "profile-flame", "profile-chrome-trace", "faults-engine-metrics",
            "faults-summary-json", "faults-report", "faults-journal",
            "scenarios-json", "predict-summary-json",
            "predict-validate-summary-json",
        ],
    )
    def test_unwritable_output_is_a_usage_error(
        self, figure1_file, tmp_path, argv, monkeypatch, capsys
    ):
        """Every output that cannot be written stops its command before
        any work, with one ``cannot write`` line and exit 2: a file in a
        missing directory, a file that is a directory, or a
        ``--thread-verilog`` directory that is an existing file."""
        from repro.hic.parser import Parser

        def tripwire(*args, **kwargs):
            raise AssertionError("the command parsed a design first")

        # Every command's work starts by parsing a design.
        monkeypatch.setattr(Parser, "__init__", tripwire)
        existing = tmp_path / "file"
        existing.write_text("")
        path = {
            "{file}": existing, "{dir}": tmp_path
        }.get(argv[-1], tmp_path / "missing" / "out")
        argv = [a.format(fig1=figure1_file, out=path, file=path, dir=path)
                for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1

    def test_every_path_option_but_the_inputs_is_a_checked_output(self):
        from repro.cli import _OUTPUT_FILES

        named = {
            action.dest
            for prog in PARSERS
            for action in build_parser(prog)._actions
            if action.metavar in ("FILE", "DIR")
        }
        inputs = {"source", "resume"}
        assert named - inputs == {*_OUTPUT_FILES, "thread_verilog"}

    def test_checking_outputs_creates_nothing(self, tmp_path):
        from argparse import Namespace

        from repro.cli import UsageError, check_outputs

        existing = tmp_path / "file"
        existing.write_text("")
        check_outputs(Namespace(
            verilog=None, vcd=str(existing), report=str(tmp_path / "new"),
            thread_verilog=str(tmp_path / "made" / "later"),
        ))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        with pytest.raises(UsageError):
            check_outputs(Namespace(thread_verilog=str(existing / "below")))

    @pytest.mark.parametrize(
        "extra",
        [
            ["--batch-size", "0"],
            ["--batch-size", "0", "--simulate", "20"],
            ["--link-latency", "-1", "--simulate", "20"],
        ],
        ids=["batch-compile", "batch-simulate", "link-simulate"],
    )
    def test_impossible_crossbar_is_a_design_error(
        self, figure1_file, extra, capsys
    ):
        assert main([figure1_file, "--banks", "2", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestCommandTable:
    def test_help_epilog_names_every_command(self, capsys):
        from repro.cli import COMMANDS

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in COMMANDS:
            assert f"\n  {command} " in out

    def test_bare_simulate_imports_no_subcommand_package(self):
        # -X importtime lists every module the real ``python -m repro``
        # process imports, on stderr.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro",
             str(root / "examples" / "figure1.hic"), "--simulate", "20"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert "simulated 20 cycles" in result.stdout
        imported = {
            line.rsplit("|", 1)[-1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "repro.flow" in imported  # the listing is real
        for package in ("repro.faults", "repro.model", "repro.scenarios",
                        "repro.campaign"):
            assert package not in imported

    def test_shared_options_declared_once(self):
        # The three exceptions are different options under the same
        # flag: faults' --organization adds "both", and predict and
        # faults each write their own --summary-json document.
        shared = {
            "--organization", "--kernel", "--banks", "--link-latency",
            "--batch-size", "--dep-home", "--deplist-entries",
            "--traffic-rate", "--traffic-seed", "--max-wall-seconds",
            "--trace-json", "--metrics", "--trace-level", "--summary-json",
            "--cycles",
        }
        src = Path(__file__).resolve().parent.parent / "src"
        found = []
        for path in sorted((src / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "add_argument"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value in shared):
                    found.append(
                        (node.args[0].value, path.relative_to(src).as_posix())
                    )
        expected = [(flag, "repro/cli.py") for flag in shared] + [
            ("--organization", "repro/faults/campaign.py"),
            ("--summary-json", "repro/faults/campaign.py"),
            ("--summary-json", "repro/model/cli.py"),
        ]
        assert sorted(found) == sorted(expected)


class TestObservedCommandsFreeTheirRuns:
    """An observed command run in-process leaves nothing the package
    defines to the cycle collector: reference counting frees its
    simulations, telemetry and profiler.  argparse's parsers and the
    indenting JSON encoder's closures form cycles of their own, which
    belong to the standard library and are not counted."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", str(FIGURE1_EXAMPLE),
             "--breakdown-json", "{tmp}/b.json"],
            ["run", "--scenario", "fanout", "--cycles", "300",
             "--trace-json", "{tmp}/t.json"],
            ["faults", "--runs", "2", "--cycles", "200", "--profile",
             "--summary-json", "{tmp}/s.json"],
            ["{fwd}", "--simulate", "500", "--traffic-rate", "0.06",
             "--trace-json", "{tmp}/t.json"],
        ],
        ids=["profile", "run", "faults", "simulate"],
    )
    def test_leaves_no_package_objects_in_cycles(
        self, argv, forwarding_file, tmp_path
    ):
        argv = [arg.format(tmp=tmp_path, fwd=forwarding_file) for arg in argv]
        assert main(argv) == 0  # first-use caches live on
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            cyclic = sorted(
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro.")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []


class TestSurface:
    def test_surface_matches_golden(self):
        golden = json.loads(GOLDEN_SURFACE.read_text())
        assert cli_surface() == golden


if __name__ == "__main__":
    GOLDEN_SURFACE.parent.mkdir(exist_ok=True)
    GOLDEN_SURFACE.write_text(
        json.dumps(cli_surface(), indent=2, sort_keys=True) + "\n"
    )
    print(f"regenerated {GOLDEN_SURFACE}")
