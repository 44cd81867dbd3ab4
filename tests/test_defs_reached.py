"""Every definition in ``src/`` is reached.

A definition that only its own unit tests call is a capability nothing
runs: it costs reading and upkeep, and its docstring tends to claim a
use that does not exist.  The check parses each module (package
``__init__`` files re-export by design and are skipped) and looks at
three kinds of definition:

- module-level functions and classes;
- public module-level constants (``NAME = ...``);
- public methods and properties of every module-level class (dunder
  methods are the language's, not the module's).

A definition is reached when its name appears in the code of
``src/repro`` outside its own body, of ``examples/`` or of
``benchmarks/``.  Only code counts: an identifier, an attribute, a
keyword or a word inside a string constant that is not a docstring, so
a name dispatched by string (``repro.cli.COMMANDS``, generated source)
is reached, while a comment or a docstring example naming it is not a
use.  Import statements and ``__all__`` in a package ``__init__.py`` do
not count either: a re-export is not a use.

Members are matched by name alone, so two classes whose methods share
a name reach each other: the check is lenient there, never strict.
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
#: trees outside ``src/repro`` whose code may name a definition
USERS = (ROOT / "examples", ROOT / "benchmarks")

#: ``module``, ``module:name`` or ``module:Class.member`` -> why it
#: stays although no code in ``src/repro``, ``examples/`` or
#: ``benchmarks/`` names it
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
    "core/controller.py:MemoryController.waits_for": (
        "how seven test modules observe a controller's waits per port"
    ),
    "fabric/router.py:DependencyRouter.verify_guard_ordering": (
        "the §3.1 guard property (no consumer read before its "
        "producer's write), checked by the fabric tests"
    ),
    "hic/lexer.py:tokenize": (
        "the token view whose stream tests/hic/golden/frontend.json hashes"
    ),
    "obs/exporters.py:validate_chrome_trace": (
        "the trace-event schema check CI runs on every written trace"
    ),
    "obs/tracer.py:Telemetry.events_of_kind": (
        "how the tracer and fabric tests select recorded events (11 uses)"
    ),
    "scenarios/catalog.py:collect_round_snapshots": (
        "the guarded-vs-FIFO consumer-value oracle of the channel "
        "property tests"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every string constant that is a statement of its own:
    a docstring of a module, class or function, or an attribute's."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _reexports(tree: ast.Module) -> list[ast.stmt]:
    """A package ``__init__``'s imports and ``__all__``."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        or (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
        )
    ]


def code_names(tree: ast.AST, skipped=()) -> list[tuple[str, int]]:
    """``(identifier, line)`` of every name the code of ``tree`` uses:
    names, attributes, keywords, imported names and the words of every
    string constant that is not a docstring.  Definitions' own names and
    parameters are not uses; nodes under ``skipped`` are left out."""
    docstrings = _docstrings(tree)
    left_out = {id(node) for top in skipped for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in left_out:
            continue
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Name):
            found.append((node.id, line))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, line))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.append((node.arg, line))
        elif isinstance(node, ast.alias):
            words = node.name.split(".") + [node.asname or ""]
            found.extend((word, line) for word in words if word)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            found.extend((name, line) for name in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            found.extend(
                (word, line) for word in _IDENTIFIER.findall(node.value)
            )
    return found


def name_index(files: dict[str, str]) -> dict[str, set[tuple[str, int]]]:
    """Identifier -> every ``(file, line)`` whose code uses it, skipping
    the re-exports of files named ``__init__.py``."""
    index: dict[str, set[tuple[str, int]]] = defaultdict(set)
    for name, text in files.items():
        tree = ast.parse(text)
        skipped = _reexports(tree) if name.endswith("__init__.py") else ()
        for word, line in code_names(tree, skipped):
            index[word].add((name, line))
    return index


def _span(node: ast.AST) -> tuple[int, int]:
    decorators = getattr(node, "decorator_list", [])
    return (
        min([node.lineno] + [d.lineno for d in decorators]),
        node.end_lineno,
    )


def _constants(node: ast.stmt) -> list[str]:
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [
        target.id
        for target in targets
        if isinstance(target, ast.Name) and not target.id.startswith("_")
    ]


def definitions(text: str) -> list[tuple[str, str, int, int]]:
    """``(label, name, first line, last line)`` of every module-level
    function and class (decorators included), public module constant,
    and public method or property of a module-level class.  A member's
    label is ``Class.member``; every other label is its name."""
    found = []
    for node in ast.parse(text).body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            found.append((node.name, node.name, *_span(node)))
        for name in _constants(node):
            found.append((name, name, *_span(node)))
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(
                member, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not member.name.startswith("_"):
                label = f"{node.name}.{member.name}"
                found.append((label, member.name, *_span(member)))
    return found


def unreached(
    module: str, text: str, index: dict[str, set[tuple[str, int]]]
) -> list[str]:
    """Labels of the definitions in ``module`` whose name no code of the
    index uses outside their own body."""
    return [
        label
        for label, name, first, last in definitions(text)
        if not any(
            where != module or not first <= line <= last
            for where, line in index.get(name, ())
        )
    ]


def corpus() -> dict[str, str]:
    """Every Python file of ``src/repro`` (keyed relative to it) and of
    the trees in ``USERS`` (keyed relative to the repository)."""
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
    return name_index(corpus())


def _allowed(module: str, label: str) -> bool:
    return module in ALLOWED or f"{module}:{label}" in ALLOWED


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SRC)) for path in MODULES]
)
def test_every_definition_is_reached(path, index):
    module = str(path.relative_to(SRC))
    labels = unreached(module, path.read_text(), index)
    assert [label for label in labels if not _allowed(module, label)] == []


def test_every_allowed_entry_is_still_unreached(index):
    stale = []
    for entry in ALLOWED:
        module, __, label = entry.partition(":")
        labels = unreached(module, (SRC / module).read_text(), index)
        if not labels or (label and label not in labels):
            stale.append(entry)
    assert stale == []


def test_the_check_skips_own_bodies_reexports_and_docstrings():
    files = {
        "pkg/__init__.py": (
            '"""Example: ``pkg.documented()``."""\n'
            "from .mod import helper, used, alone, documented\n"
            "__all__ = ['helper', 'used', 'alone', 'documented']\n"
        ),
        "pkg/mod.py": (
            "LIMIT = 4\n"
            "SPARE = 5\n"
            "\n"
            "def helper():\n"
            "    return helper\n"
            "\n"
            "def used():\n"
            "    return LIMIT\n"
            "\n"
            "class alone:\n"
            "    '''Only the docstring of alone names it.'''\n"
            "    def called(self):\n"
            "        return self.spare()  # recurse into spare()\n"
            "    def spare(self):\n"
            "        return 'dispatched'\n"
            "    @property\n"
            "    def size(self):\n"
            "        '''See ``alone.size``.'''\n"
            "        return 0\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "\n"
            "def documented():\n"
            "    '''A docstring is not a use: ``documented()``.'''\n"
            "\n"
            "def dispatched():\n"
            "    pass\n"
        ),
        "pkg/other.py": (
            "# SPARE and size() are named only in this comment\n"
            "VALUE = used()\n"
        ),
    }
    index = name_index(files)
    assert unreached("pkg/mod.py", files["pkg/mod.py"], index) == [
        "SPARE",
        "helper",
        "alone",
        "alone.called",
        "alone.size",
        "documented",
    ]
