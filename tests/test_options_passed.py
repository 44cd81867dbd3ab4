"""Every keyword option in ``src/`` is passed by some call.

A parameter with a default that no caller sets is an option nothing
turns on: each one doubles the configurations a reader must consider
and tests must cover, for a use that does not exist.  The check looks
at every public parameter with a default of every public function and
public method (``__init__`` included) in ``src/repro``, and counts it
as passed when some call in the code of ``src/repro``, ``examples/`` or
``benchmarks/`` whose callee has the function's name:

- names it by keyword;
- passes enough positional arguments to reach it (``self`` and ``cls``
  not counted);
- or passes ``*args`` or ``**kwargs``.

A call by class name passes to that class's ``__init__``, and so do
``cls(...)`` in its methods, ``super().__init__(...)`` in its
subclasses, and a call of a subclass that has no ``__init__``.

Blind spots:

- ``**options`` call sites pass every parameter of their callee, so an
  option that only tests put into the mapping looks passed
  (``compile_design(**options)`` hid ``force_single_bram`` that way);
- a callable handed on with an argument tuple (``Process(target=f,
  args=...)``, a dispatch table) is not a call of it;
- callees are matched by name alone, so methods that share a name pass
  each other's parameters.  All three make the check lenient, never
  strict.
"""

import ast

import pytest

from tests.test_defs_reached import MODULES, SRC, corpus

#: ``module:function:parameter`` (``module:Class.method:parameter``) ->
#: why it stays although no call in ``src/repro``, ``examples/`` or
#: ``benchmarks/`` passes it
ALLOWED = {
    "__main__.py:main:argv": (
        "not an option: tests drive the command in-process with an argv"
    ),
    "faults/campaign.py:faults_main:argv": (
        "not an option: tests drive the command in-process with an argv"
    ),
    "model/cli.py:predict_main:argv": (
        "not an option: tests drive the command in-process with an argv"
    ),
    "obs/profile_cli.py:profile_main:argv": (
        "not an option: tests drive the command in-process with an argv"
    ),
    "core/controller.py:MemoryController.waits_for:port": (
        "the filter of an allowlisted test observation "
        "(tests/test_defs_reached.py)"
    ),
}


def _receivers(node: ast.FunctionDef, in_class: bool) -> int:
    """How many leading parameters a call does not pass: ``self`` or
    ``cls`` of a method, none of a function or static method."""
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )
    return 1 if in_class and not static else 0


def _with_defaults(node: ast.FunctionDef, skip: int):
    """``(parameter, position)`` of every public parameter of ``node``
    with a default; ``position`` leaves out the ``skip`` receivers and is
    ``None`` for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default and not arg.arg.startswith("_"):
            yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not arg.arg.startswith("_"):
            yield arg.arg, None


def options(text: str) -> list[tuple[str, str, str, int | None]]:
    """``(label, callee, parameter, position)`` of every public parameter
    with a default of every public function and method in ``text``.
    ``callee`` is the name a call uses (the class name for ``__init__``);
    ``position`` is as :func:`_with_defaults` gives it."""
    functions = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node, node.name, node.name, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                name = member.name
                callee = node.name if name == "__init__" else name
                functions.append((member, f"{node.name}.{name}", callee, True))
    return [
        (label, callee, parameter, position)
        for node, label, callee, in_class in functions
        if not callee.startswith("_")
        for parameter, position in _with_defaults(
            node, _receivers(node, in_class)
        )
    ]


def _callees(call: ast.Call, owner: ast.ClassDef | None) -> list[str]:
    """The names a call may reach: its function's name; inside a class,
    ``cls(...)`` is a call of that class and ``super().__init__(...)`` one
    of its bases."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and owner is not None:
            return [owner.name]
        return [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    receiver = func.value
    if (
        func.attr == "__init__"
        and owner is not None
        and isinstance(receiver, ast.Call)
        and isinstance(receiver.func, ast.Name)
        and receiver.func.id == "super"
    ):
        return _base_names(owner)
    return [func.attr]


def _base_names(node: ast.ClassDef) -> list[str]:
    return [
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    ]


def call_index(files: dict[str, str]) -> dict[str, list[ast.Call]]:
    """Callee name -> every call that may reach it in ``files``.  A
    class without an ``__init__`` of its own passes its calls on to its
    bases."""
    calls: dict[str, list[ast.Call]] = {}
    inherits: dict[str, list[str]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                for name in _callees(child, owner):
                    calls.setdefault(name, []).append(child)
            if isinstance(child, ast.ClassDef):
                if not any(
                    isinstance(member, ast.FunctionDef)
                    and member.name == "__init__"
                    for member in child.body
                ):
                    inherits[child.name] = _base_names(child)
                visit(child, child)
            else:
                visit(child, owner)

    for text in files.values():
        visit(ast.parse(text), None)
    for name in inherits:
        reached, todo = set(), list(inherits[name])
        while todo:
            base = todo.pop()
            if base not in reached:
                reached.add(base)
                calls.setdefault(base, []).extend(calls.get(name, ()))
                todo.extend(inherits.get(base, ()))
    return calls


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` sets ``parameter`` (at ``position``)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unpassed(text: str, calls: dict[str, list[ast.Call]]) -> list[str]:
    """``function:parameter`` labels of the options in ``text`` that no
    call in ``calls`` passes."""
    passed: dict[str, bool] = {}
    for label, callee, parameter, position in options(text):
        key = f"{label}:{parameter}"
        passed[key] = passed.get(key, False) or any(
            passes(call, parameter, position) for call in calls.get(callee, ())
        )
    return [key for key, ok in passed.items() if not ok]


@pytest.fixture(scope="module")
def calls():
    return call_index(corpus())


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SRC)) for path in MODULES]
)
def test_every_option_is_passed(path, calls):
    module = str(path.relative_to(SRC))
    labels = unpassed(path.read_text(), calls)
    assert [
        label for label in labels if f"{module}:{label}" not in ALLOWED
    ] == []


def test_every_allowed_entry_is_still_unpassed(calls):
    stale = []
    for entry in ALLOWED:
        module, __, label = entry.partition(":")
        if label not in unpassed((SRC / module).read_text(), calls):
            stale.append(entry)
    assert stale == []


def test_the_check_flags_what_only_tests_pass():
    module = (
        "def compile(source, *, seed=0, fast=False, limit=None):\n"
        "    return source\n"
        "\n"
        "def _private(x, y=1):\n"
        "    return x\n"
        "\n"
        "class Engine:\n"
        "    def __init__(self, size, depth=4, width=8):\n"
        "        self.size = size\n"
        "    def run(self, cycles=10, trace=False):\n"
        "        return cycles\n"
        "    @staticmethod\n"
        "    def build(spec, strict=False):\n"
        "        return spec\n"
    )
    users = {
        "tool.py": (
            "compile(text, seed=3)\n"
            "Engine(4, 2)\n"
            "engine.run(100)\n"
            "Engine.build(spec, True)\n"
        ),
        "tests/test_tool.py": (
            "compile(text, fast=True)\n"
            "Engine(4, width=16)\n"
            "engine.run(trace=True)\n"
        ),
    }
    assert unpassed(module, call_index({"tool.py": users["tool.py"]})) == [
        "compile:fast",
        "compile:limit",
        "Engine.__init__:width",
        "Engine.run:trace",
    ]
    assert unpassed(module, call_index(users)) == ["compile:limit"]
    # the blind spot: a mapping passes whatever it may hold
    users["tool.py"] += "compile(text, **settings)\n"
    assert unpassed(module, call_index({"tool.py": users["tool.py"]})) == [
        "Engine.__init__:width",
        "Engine.run:trace",
    ]


def test_the_check_follows_calls_to_a_constructor():
    module = (
        "class Base:\n"
        "    def __init__(self, size=1, depth=2):\n"
        "        self.size = size\n"
        "\n"
        "class Leaf(Base):\n"
        "    pass\n"
        "\n"
        "class Wide(Base):\n"
        "    def __init__(self, width=3):\n"
        "        super().__init__(size=width)\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(4)\n"
    )
    # super().__init__ passes ``size`` and cls(4) passes ``width``
    assert unpassed(module, call_index({"mod.py": module})) == [
        "Base.__init__:depth"
    ]
    # a subclass without an __init__ passes its calls on to its base
    users = {"mod.py": module, "tool.py": "Leaf(depth=5)\n"}
    assert unpassed(module, call_index(users)) == []
