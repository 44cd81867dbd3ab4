"""Golden: what every output flag of every command writes.

``golden/cli_outputs.json`` holds, for eight commands run in-process
through ``repro.__main__.main``, the exit code, the sha256 of stdout and
the sha256 of every file the command wrote.  Each command runs in an
empty working directory holding a copy of ``examples/figure1.hic``, and
names its outputs by relative paths, so nothing depends on where the
checkout lives.  Files are hashed over their raw bytes, so line endings
count (``--summary-csv`` writes CRLF rows, ``--breakdown-csv`` LF rows).

The campaign's wall-clock values are masked before hashing: the
``utilization`` and ``wall_seconds`` of its summary's ``engine`` and the
``campaign_worker_utilization`` sample of its engine metrics.

To regenerate after an *intentional* output change::

    PYTHONPATH=src python -m tests.test_cli_outputs
"""

import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"
FIGURE1 = Path(__file__).resolve().parent.parent / "examples" / "figure1.hic"
SOURCE = "figure1.hic"

COMMANDS = {
    "compile-simulate": [
        SOURCE, "--verilog", "figure1.v", "--thread-verilog", "threads",
        "--simulate", "300", "--traffic-rate", "0.06",
        "--vcd", "figure1.vcd", "--trace-json", "trace.json",
        "--metrics", "metrics.prom", "--summary-json", "summary.json",
        "--summary-csv", "summary.csv",
    ],
    "profile-svg": [
        "profile", SOURCE, "--breakdown-json", "breakdown.json",
        "--breakdown-csv", "breakdown.csv", "--flame", "flame.svg",
        "--chrome-trace", "trace.json",
    ],
    "profile-folded": ["profile", SOURCE, "--flame", "flame.folded"],
    "faults": [
        "faults", "--seed", "1", "--runs", "2", "--cycles", "200",
        "--report", "report.txt", "--summary-json", "summary.json",
        "--engine-metrics", "engine.prom",
    ],
    "scenarios": [
        "scenarios", "--scenario", "pipeline", "--cycles", "200",
        "--json", "scenarios.json",
    ],
    "predict": ["predict", SOURCE, "--summary-json", "prediction.json"],
    "predict-sweep": [
        "predict", SOURCE, "--sweep", "--summary-json", "sweep.json",
    ],
    "run": [
        "run", "--scenario", "fanout", "--cycles", "200",
        "--trace-json", "trace.json", "--metrics", "metrics.prom",
        "--summary-json", "summary.json",
    ],
}

#: command -> the patterns of its wall-clock values, masked before hashing
WALL_CLOCK = {
    "faults": (
        re.compile(rb'("(?:utilization|wall_seconds)": )[^,\n]+'),
        re.compile(rb"^(campaign_worker_utilization )\S+$", re.M),
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked(command: str, data: bytes) -> bytes:
    for pattern in WALL_CLOCK.get(command, ()):
        data = pattern.sub(rb"\1-", data)
    return data


def record(command: str, workdir: Path) -> dict:
    """Run ``command`` in the empty directory ``workdir``: its exit code,
    stdout digest and the digest of every file it wrote."""
    shutil.copy(FIGURE1, workdir / SOURCE)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            try:
                code = main(COMMANDS[command])
            except SystemExit as stop:
                code = stop.code
    finally:
        os.chdir(cwd)
    files = {
        path.relative_to(workdir).as_posix(): _sha(
            _masked(command, path.read_bytes())
        )
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.name != SOURCE
    }
    return {
        "exit": code,
        "stdout": _sha(_masked(command, stdout.getvalue().encode())),
        "files": files,
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_outputs_match_golden(command, tmp_path):
    golden = json.loads(GOLDEN.read_text())[command]
    assert golden["exit"] == 0 and golden["files"]
    assert record(command, tmp_path) == golden


if __name__ == "__main__":
    recorded = {}
    for command in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as tmp:
            recorded[command] = record(command, Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"regenerated {GOLDEN}")
