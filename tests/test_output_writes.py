"""Every output file a command writes goes through one function.

The command line renders each output as text and hands it to
``repro.cli.write_output``, which writes it, reports it and turns an
unwritable path into a usage error.  A second place that opens a file
for writing would bypass that error handling.  The check parses every
module of ``src/repro`` and lists each call that writes or creates a
file or directory: ``open`` with a write, append or create mode,
``write_text``/``write_bytes``, ``makedirs`` and ``mkdir``.  Only these
places may make one:

* ``repro.cli.write_output``, the writer;
* ``repro/campaign/journal.py``, the campaign's append-only journal;
* ``repro/campaign/tasks.py``, the chaos-crash marker of a worker;
* ``repro.obs.exporters.write_bench_json``, the benchmark scripts'
  artifact helper.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: (module path under src/, enclosing function or None for any)
ALLOWED = {
    ("repro/cli.py", "write_output"),
    ("repro/campaign/journal.py", None),
    ("repro/campaign/tasks.py", None),
    ("repro/obs/exporters.py", "write_bench_json"),
}

#: Modules whose ``open(path, mode)`` is the builtin's or works like it.
OPEN_MODULES = {"builtins", "codecs", "io"}


def _mode(call: ast.Call, position: int):
    """The mode argument of an ``open`` call: a ``str`` constant, any
    other expression, or ``None`` when the call gives none."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    if len(call.args) > position:
        return call.args[position]
    return None


def _writes(mode) -> bool:
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True  # a computed mode may write


def _describe(call: ast.Call):
    """What ``call`` writes, or ``None`` for a call that writes nothing."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open" if _writes(_mode(call, 1)) else None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "open":
        # io.open(path, mode) and its like take the mode second, as the
        # builtin does; Path.open(mode) is a method named ``open`` whose
        # first argument is a constant write mode (``spans.open(bram,
        # ...)`` is not).
        if isinstance(func.value, ast.Name) and func.value.id in OPEN_MODULES:
            return "open" if _writes(_mode(call, 1)) else None
        mode = _mode(call, 0)
        if isinstance(mode, ast.Constant) and _writes(mode):
            return "open"
        return None
    if func.attr in ("write_text", "write_bytes", "makedirs", "mkdir"):
        return func.attr
    return None


class _Finder(ast.NodeVisitor):
    def __init__(self):
        self.function = None
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, self.function or node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        what = _describe(node)
        if what is not None:
            self.found.append((self.function, node.lineno, what))
        self.generic_visit(node)


def file_writes(source: str) -> list[tuple]:
    """``(outermost function or None, line, call)`` of every write in
    ``source``."""
    finder = _Finder()
    finder.visit(ast.parse(source))
    return finder.found


def stray_writes() -> list[str]:
    stray = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if (module, None) in ALLOWED:
            continue
        for function, line, what in file_writes(path.read_text()):
            if (module, function) not in ALLOWED:
                stray.append(f"{module}:{line}: {what} in {function}")
    return stray


def test_only_the_command_line_writer_writes_output_files():
    assert stray_writes() == []


def test_the_scan_finds_every_form_of_write():
    source = (
        "import builtins, codecs, io, os\n"
        "from pathlib import Path\n"
        "def render(path, mode):\n"
        "    with open(path) as handle:\n"
        "        handle.read()\n"
        "    open(path, 'r').close()\n"
        "    open(path, 'w').close()\n"
        "    open(path, mode='a').close()\n"
        "    open(path, mode).close()\n"
        "    Path(path).open('x').close()\n"
        "    Path(path).write_text('')\n"
        "    Path(path).write_bytes(b'')\n"
        "    os.makedirs(path)\n"
        "    Path(path).mkdir()\n"
        "    spans.open(path, mode)\n"
        "    io.open(path).close()\n"
        "    io.open(path, 'w').close()\n"
        "    codecs.open(path, mode='a').close()\n"
        "    builtins.open(path, 'wb').close()\n"
    )
    found = file_writes(source)
    assert found == [
        ("render", line, what)
        for line, what in (
            (7, "open"), (8, "open"), (9, "open"), (10, "open"),
            (11, "write_text"), (12, "write_bytes"), (13, "makedirs"),
            (14, "mkdir"), (17, "open"), (18, "open"), (19, "open"),
        )
    ]
