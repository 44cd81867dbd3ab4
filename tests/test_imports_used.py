"""Every name a module in ``src/`` imports is used by that module.

An import nothing reads is dead weight that survives refactors
unnoticed: it costs an import at start-up, and it tells a reader about
a dependency that does not exist.  The check parses each module
(package ``__init__`` files re-export by design and are skipped) and
counts a name as used when it appears as an identifier anywhere in the
module or inside a quoted annotation such as ``"Callable[[int], str]"``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(
                    name.id
                    for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                )
    return used


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(_imported(tree).items())
        if name not in used
    ]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SRC)) for path in MODULES]
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_reads_quoted_annotations():
    source = (
        "from typing import Callable, Optional\n"
        "def f(g: 'Callable[[int], str] | None') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["1: Optional"]
