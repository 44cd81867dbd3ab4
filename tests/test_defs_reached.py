"""Every module-level function and class in ``src/`` is reached.

A definition that only its own unit tests call is a capability nothing
runs: it costs reading and upkeep, and its docstring tends to claim a
use that does not exist.  The check parses each module (package
``__init__`` files re-export by design and are skipped) and counts a
definition as reached when its name appears on some line of
``src/repro`` outside its own body, of ``examples/`` or of
``benchmarks/``.  Import statements and ``__all__`` in a package
``__init__.py`` do not count: a re-export is not a use.  Anything a
string, a comment or a docstring names counts, so a name dispatched by
string (``repro.cli.COMMANDS``) is reached.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)
#: trees outside ``src/repro`` whose every line may name a definition
USERS = (ROOT / "examples", ROOT / "benchmarks")

#: ``module`` or ``module:name`` -> why it stays although nothing in
#: ``src/repro``, ``examples/`` or ``benchmarks/`` names it
ALLOWED = {
    "campaign/tasks.py": (
        "importable demo tasks: spawned campaign workers resolve them by "
        "module reference, for the engine's tests and CI"
    ),
    "net/traffic.py:PoissonTraffic": (
        "a traffic model kept as a test input (the forwarding soak test)"
    ),
    "net/traffic.py:DeterministicTraffic": (
        "a scripted arrival schedule kept as a test input (the wheel tests)"
    ),
    "sim/compiled/cache.py:cache_size": (
        "the codegen cache's size, read by the cache tests"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Lines of a package ``__init__``'s imports and ``__all__``."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def name_index(files: dict[str, str]) -> dict[str, set[tuple[str, int]]]:
    """Identifier -> every ``(file, line)`` naming it, skipping the
    re-export lines of files named ``__init__.py``."""
    index: dict[str, set[tuple[str, int]]] = defaultdict(set)
    for name, text in files.items():
        skipped = set()
        if name.endswith("__init__.py"):
            skipped = _reexport_lines(ast.parse(text))
        for number, line in enumerate(text.splitlines(), 1):
            if number in skipped:
                continue
            for word in _IDENTIFIER.findall(line):
                index[word].add((name, number))
    return index


def definitions(text: str) -> list[tuple[str, int, int]]:
    """``(name, first line, last line)`` of every module-level function
    and class, decorators included."""
    found = []
    for node in ast.parse(text).body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            first = min(
                [node.lineno] + [d.lineno for d in node.decorator_list]
            )
            found.append((node.name, first, node.end_lineno))
    return found


def unreached(
    module: str, text: str, index: dict[str, set[tuple[str, int]]]
) -> list[str]:
    """Names of the definitions in ``module`` that no line of the index
    names outside their own body."""
    return [
        name
        for name, first, last in definitions(text)
        if not any(
            where != module or not first <= line <= last
            for where, line in index.get(name, ())
        )
    ]


def _corpus() -> dict[str, str]:
    files = {
        str(path.relative_to(SRC)): path.read_text()
        for path in SRC.rglob("*.py")
    }
    for tree in USERS:
        files.update(
            (str(path.relative_to(ROOT)), path.read_text())
            for path in tree.rglob("*.py")
        )
    return files


@pytest.fixture(scope="module")
def index():
    return name_index(_corpus())


def _allowed(module: str, name: str) -> bool:
    return module in ALLOWED or f"{module}:{name}" in ALLOWED


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SRC)) for path in MODULES]
)
def test_every_definition_is_reached(path, index):
    module = str(path.relative_to(SRC))
    names = unreached(module, path.read_text(), index)
    assert [name for name in names if not _allowed(module, name)] == []


def test_every_allowed_entry_is_still_unreached(index):
    stale = []
    for entry in ALLOWED:
        module, __, name = entry.partition(":")
        names = unreached(module, (SRC / module).read_text(), index)
        if not names or (name and name not in names):
            stale.append(entry)
    assert stale == []


def test_the_check_skips_own_bodies_and_reexports():
    files = {
        "pkg/__init__.py": (
            "from .mod import helper, used, alone\n"
            "__all__ = ['helper', 'used', 'alone']\n"
        ),
        "pkg/mod.py": (
            "def helper():\n"
            "    return helper\n"
            "\n"
            "def used():\n"
            "    return 1\n"
            "\n"
            "class alone:\n"
            "    '''Only the docstring of alone names it.'''\n"
        ),
        "pkg/other.py": "VALUE = used()\n",
    }
    index = name_index(files)
    assert unreached("pkg/mod.py", files["pkg/mod.py"], index) == [
        "helper",
        "alone",
    ]
