"""The ``python -m repro`` command line: what its commands share.

Each command keeps its own ``argparse`` parser and adds, by flag, the
shared options it accepts (:func:`add_options`); a command that needs
another default sets it with ``parser.set_defaults``.  :data:`COMMANDS`
names the module behind each subcommand, imported only when that
command runs, so the bare compile/simulate command never loads the
fault, model, scenario or campaign packages.

Exit codes: 0 ok, 1 design or simulation error, 2 usage or parameter
error, 3 checkpoint stop (``faults --stop-after``), 130 interrupted.
"""

from __future__ import annotations

import argparse
import errno
import importlib
import os
import sys
from typing import Callable

from .core.advisor import Organization
from .core.errors import ParameterError, SimulationTimeout
from .fabric import DEP_HOME_POLICIES
from .flow import DEFAULT_KERNEL, SIMULATION_KERNELS
from .hic.errors import HicError
from .obs.tracer import TRACE_LEVELS

#: subcommand -> (module, entry point, one-line summary)
COMMANDS = {
    "faults": (
        "repro.faults.campaign", "faults_main",
        "seeded fault-injection campaign (docs/fault_model.md)",
    ),
    "profile": (
        "repro.obs.profile_cli", "profile_main",
        "cycle-attribution profiler (docs/profiling.md)",
    ),
    "predict": (
        "repro.model.cli", "predict_main",
        "analytical performance model (docs/performance_model.md)",
    ),
    "run": (
        "repro.scenarios.cli", "run_main",
        "run one streaming scenario (docs/scenarios.md)",
    ),
    "scenarios": (
        "repro.scenarios.cli", "scenarios_main",
        "per-channel classification report (docs/scenarios.md)",
    ),
}


def dispatch(command: str, argv: list[str]) -> int:
    module, entry, __ = COMMANDS[command]
    return getattr(importlib.import_module(module), entry)(argv)


def commands_epilog() -> str:
    width = max(map(len, COMMANDS))
    lines = ["commands (python -m repro COMMAND --help for their options):"]
    lines += [
        f"  {name:<{width}}  {summary}"
        for name, (__, __, summary) in COMMANDS.items()
    ]
    return "\n".join(lines)


class _Wanted:
    """Forwards ``add_argument`` for the requested flags only, so the
    shared options below read as one ordinary block of declarations."""

    def __init__(self, parser: argparse.ArgumentParser, flags):
        self.parser = parser
        self.missing = set(flags)

    def add_argument(self, flag: str, **kwargs) -> None:
        if flag in self.missing:
            self.missing.remove(flag)
            self.parser.add_argument(flag, **kwargs)


def add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Declare the shared options ``flags`` on ``parser``."""
    options = _Wanted(parser, flags)
    options.add_argument(
        "--organization",
        choices=[org.value for org in Organization],
        default=Organization.ARBITRATED.value,
        help="memory organization (default: %(default)s)",
    )
    options.add_argument(
        "--deplist-entries",
        type=int,
        default=4,
        help="dependency-list capacity of the arbitrated wrapper "
        "(default: %(default)s)",
    )
    options.add_argument(
        "--banks",
        type=int,
        default=0,
        metavar="N",
        help="compile for a sharded N-bank memory fabric (0 = the paper's "
        "single-address-space flow; default: %(default)s)",
    )
    options.add_argument(
        "--link-latency",
        type=int,
        default=1,
        metavar="CYCLES",
        help="crossbar link latency between ingress and a bank "
        "(default: %(default)s)",
    )
    options.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="N",
        help="requests a bank accepts from the crossbar per cycle "
        "(default: %(default)s)",
    )
    options.add_argument(
        "--dep-home",
        choices=list(DEP_HOME_POLICIES),
        default="address",
        help="fabric dependency-entry homing: 'address' co-locates guards "
        "with their data; 'spread' distributes them across banks "
        "(exercising the cross-bank router)",
    )
    options.add_argument(
        "--kernel",
        # The flow's registry: an unknown or renamed backend dies in
        # argparse with the real list, not deep inside a run.
        choices=list(SIMULATION_KERNELS),
        default=DEFAULT_KERNEL,
        help=f"simulation backend (default: {DEFAULT_KERNEL}): 'wheel' "
        "skips provably idle cycles, 'compiled' runs a generated "
        "per-design tick function; both are cycle-equivalent to "
        "'reference', which ticks every component every cycle "
        "(see docs/simulation_kernels.md)",
    )
    options.add_argument(
        "--cycles",
        type=int,
        default=500,
        metavar="N",
        help="clock cycles to simulate (default: %(default)s)",
    )
    options.add_argument(
        "--traffic-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="drive each ingress interface with seeded Bernoulli traffic "
        "(probability P of a new message per cycle)",
    )
    options.add_argument(
        "--traffic-seed",
        type=int,
        default=1,
        help="seed for --traffic-rate generators (default: %(default)s)",
    )
    options.add_argument(
        "--max-wall-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the simulation: a livelocked run "
        "raises a structured simulation-timeout error instead of hanging",
    )
    options.add_argument(
        "--trace-level",
        # The tracer's TRACE_LEVELS is the single source of truth.
        choices=list(TRACE_LEVELS),
        default="deps",
        help="event granularity: 'deps' records dependency-lifecycle "
        "events only; 'full' also records every submit/grant "
        "(default: %(default)s)",
    )
    options.add_argument(
        "--trace-json",
        metavar="FILE",
        help="write a Chrome trace-event JSON (Perfetto-loadable) of the "
        "simulation to FILE",
    )
    options.add_argument(
        "--metrics",
        metavar="FILE",
        help="write Prometheus text-format metrics of the simulation to FILE",
    )
    options.add_argument(
        "--summary-json",
        metavar="FILE",
        help="write a JSON telemetry summary of the simulation to FILE",
    )
    if options.missing:
        raise ValueError(f"not shared options: {sorted(options.missing)}")


#: (dest, legal, rule) for the shared numeric options, checked after
#: parsing so a bad value exits 2 before anything compiles
_RANGES = (
    ("cycles", lambda value: value > 0, "cycle budget must be positive"),
    ("simulate", lambda value: value >= 0, "cycle budget must be >= 0"),
    ("runs", lambda value: value >= 1, "a campaign needs at least one run"),
    ("banks", lambda value: value >= 0, "bank count must be >= 0"),
    (
        "deplist_entries",
        lambda value: value >= 1,
        "the dependency list needs at least one entry",
    ),
    (
        "traffic_rate",
        lambda value: 0.0 <= value <= 1.0,
        "traffic rate must be a probability in [0, 1]",
    ),
    (
        "max_wall_seconds",
        lambda value: value is None or value >= 0,
        "wall-clock budget must be >= 0",
    ),
)


def check_ranges(args: argparse.Namespace) -> None:
    """Raise :class:`ParameterError` for the first shared numeric option
    of ``args`` outside its legal range."""
    for dest, legal, rule in _RANGES:
        if hasattr(args, dest) and not legal(getattr(args, dest)):
            raise ParameterError(
                rule, parameter=dest, value=getattr(args, dest)
            )


class UsageError(SystemExit):
    """A usage error already reported on stderr.  It exits 2, as argparse
    does for a bad flag, unless :func:`run_command` returns the code."""

    def __init__(self) -> None:
        super().__init__(2)


def run_command(
    body: Callable[[argparse.Namespace], int], args: argparse.Namespace
) -> int:
    """``body(args)``'s exit code, or the code of the error it raised:
    2 for a shared option out of range, an unreadable source or an
    unwritable output, 1 for a design, compile or simulation error (with
    one ``error:`` line).  The options and outputs are checked first."""
    try:
        check_ranges(args)
        check_outputs(args)
        return body(args)
    except UsageError as stop:
        return stop.code
    except ParameterError as error:
        print(f"error: {error.describe()}", file=sys.stderr)
        return 2
    except SimulationTimeout as error:
        print(f"error: {error.describe()}", file=sys.stderr)
        return 1
    except HicError as error:
        print(f"error: {hic_diagnostic(error, args)}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def hic_diagnostic(error: HicError, args: argparse.Namespace) -> str:
    """``error`` as ``<file>:<line>:<column>: <message>``, naming the
    source path the command read (``args.source``), if it read one."""
    location = error.location
    source = getattr(args, "source", None)
    if source is not None:
        location = location._replace(filename=source)
    return f"{location}: {error.message}"


def read_source(path: str) -> str:
    """The text of ``path``; an unreadable file is a usage error."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        raise UsageError from None


def design_name(path: str) -> str:
    return path.rsplit("/", 1)[-1].split(".")[0]


#: shared option dest -> its ``compile_design`` keyword
_COMPILE_KEYWORDS = {
    "deplist_entries": "deplist_entries",
    "banks": "num_banks",
    "link_latency": "link_latency",
    "batch_size": "batch_size",
    "dep_home": "dep_home",
}


def compile_options(args: argparse.Namespace) -> dict:
    """``compile_design`` keywords: the design name from the source path,
    and every shared design option the command declared."""
    options = {
        "name": design_name(args.source),
        "organization": Organization(args.organization),
    }
    for dest, keyword in _COMPILE_KEYWORDS.items():
        if hasattr(args, dest):
            options[keyword] = getattr(args, dest)
    return options


#: dests of the options that name an output file, in every command that
#: declares one (``--thread-verilog`` names a directory of them)
_OUTPUT_FILES = (
    "verilog", "vcd", "trace_json", "metrics", "summary_json", "summary_csv",
    "breakdown_json", "breakdown_csv", "flame", "chrome_trace",
    "engine_metrics", "report", "journal", "json",
)


def check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before a command starts its work, an output it could not
    write: each output file it was given needs an existing writable
    directory and must not be a directory itself, and a
    ``--thread-verilog`` directory must be one or be creatable.  As in
    :func:`write_output`, which still reports a write that fails later,
    an unwritable output is a usage error."""
    paths = (getattr(args, dest, None) for dest in _OUTPUT_FILES)
    problems = [(path, _file_errno(path)) for path in paths if path]
    directory = getattr(args, "thread_verilog", None)
    if directory:
        problems.append((directory, _directory_errno(directory)))
    for path, code in problems:
        if code:
            error = OSError(code, os.strerror(code), path)
            print(f"error: cannot write {path}: {error}", file=sys.stderr)
            raise UsageError


def _file_errno(path: str) -> int:
    """The errno that writing the file ``path`` would fail with, or 0."""
    if os.path.isdir(path):
        return errno.EISDIR
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        return errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    target = path if os.path.exists(path) else parent
    return 0 if os.access(target, os.W_OK) else errno.EACCES


def _directory_errno(path: str) -> int:
    """The errno that making the directory ``path`` (and any missing
    parents) and writing into it would fail with, or 0."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing) and existing != os.path.dirname(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        return errno.ENOTDIR
    return 0 if os.access(existing, os.W_OK | os.X_OK) else errno.EACCES


def write_output(
    path: str, text: str, label: str | None = None, make_parent: bool = False
) -> None:
    """Write ``text`` to ``path`` verbatim and, given a ``label``, say so
    on stdout; ``make_parent`` creates the file's directory first.  Every
    command writes its output files here: an unwritable path is a usage
    error."""
    try:
        if make_parent:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as error:
        print(f"error: cannot write {path}: {error}", file=sys.stderr)
        raise UsageError from None
    if label:
        print(f"wrote {label} to {path}")


def write_telemetry(telemetry, args: argparse.Namespace) -> None:
    """Write the ``--trace-json``/``--metrics``/``--summary-json`` (and,
    where the command has it, ``--summary-csv``) files that were asked
    for."""
    from .obs.exporters import (
        dumps_chrome_trace,
        dumps_summary,
        dumps_summary_csv,
        prometheus_text,
    )

    for path, render, label in (
        (args.trace_json, dumps_chrome_trace, "Chrome trace"),
        (args.metrics, prometheus_text, "Prometheus metrics"),
        (args.summary_json, dumps_summary, "telemetry summary"),
        (getattr(args, "summary_csv", None), dumps_summary_csv,
         "metrics CSV"),
    ):
        if path:
            write_output(path, render(telemetry), label)
