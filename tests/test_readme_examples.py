"""The README's code blocks must actually run."""

import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
DOCS = [README, *sorted((README.parent / "docs").glob("*.md"))]


def documented_commands():
    """Every ``python -m repro …`` line of a fenced block in the README
    and ``docs/``: ``(where, argv after "repro")``, continuation lines
    joined and comments dropped."""
    for path in DOCS:
        blocks = re.findall(r"```[a-z]*\n(.*?)```", path.read_text(),
                            flags=re.DOTALL)
        for block in blocks:
            for line in block.replace("\\\n", " ").splitlines():
                if "python -m repro" not in line:
                    continue
                words = shlex.split(line, comments=True)
                for index in range(len(words) - 2):
                    if words[index:index + 3] == ["python", "-m", "repro"]:
                        yield f"{path.name}: {line.strip()}", words[index + 3:]


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_with_quickstart(self):
        text = README.read_text()
        assert "## Quickstart" in text
        assert "compile_design" in text

    def test_python_blocks_execute(self):
        blocks = python_blocks()
        assert blocks, "README must contain at least one python block"
        for block in blocks:
            namespace: dict = {}
            exec(compile(block, "<README>", "exec"), namespace)

    def test_quickstart_block_produces_expected_objects(self):
        block = python_blocks()[0]
        namespace: dict = {}
        exec(compile(block, "<README>", "exec"), namespace)
        design = namespace["design"]
        assert design.area_report("bram0").ffs == 66
        sim = namespace["sim"]
        assert sim.executors["t2"].env["y1"] != 0

    def test_documented_flags_exist(self):
        # Every CLI flag the README mentions must be real.
        from repro.__main__ import _parser
        from repro.faults.campaign import _faults_parser
        from repro.model.cli import _predict_parser
        from repro.obs.profile_cli import _profile_parser
        from repro.scenarios.cli import _run_parser, _scenarios_parser

        text = README.read_text()
        parser_flags = {
            option
            for parser in (
                _parser(),
                _faults_parser(),
                _profile_parser(),
                _predict_parser(),
                _run_parser(),
                _scenarios_parser(),
            )
            for action in parser._actions
            for option in action.option_strings
        }
        for flag in re.findall(r"--[a-z][a-z-]+", text):
            if flag in ("--benchmark-only", "--no-build-isolation"):
                continue  # pytest/pip flags, not ours
            if flag == "--predict-prune":
                continue  # examples/design_space_exploration.py flag
            assert flag in parser_flags, f"README mentions unknown {flag}"

        # Every documented command line parses with its own command's
        # parser, not just against the union of all flags.
        from repro.cli import COMMANDS
        from tests.test_cli import build_parser

        commands = list(documented_commands())
        assert len(commands) >= 30
        for where, argv in commands:
            prog = "python -m repro"
            if argv and argv[0] in COMMANDS:
                prog, argv = f"{prog} {argv[0]}", argv[1:]
            try:
                build_parser(prog).parse_args(argv)
            except SystemExit:
                raise AssertionError(f"does not parse: {where}") from None
