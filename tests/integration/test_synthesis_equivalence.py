"""Synthesis correctness: FSM simulation vs a direct AST interpreter.

The strongest check on the synthesis pipeline: a small reference
interpreter executes one round of each thread directly over the AST (no
FSMs, no memory map, no controllers); the FSM simulation of the same
program, run to the same number of completed rounds, must leave every
variable with the same value.

Covers single-thread programs with the full statement surface (nested
control flow, loops, break/continue, arrays, compound assignment) plus
hypothesis-generated structured programs.
"""

from hypothesis import given, settings, strategies as st

from repro.flow import build_simulation, compile_design
from repro.hic import ast, parse
from repro.sim.executor import default_intrinsic, to_signed, to_unsigned


class ReferenceInterpreter:
    """Executes one thread round directly over the AST."""

    def __init__(self, thread: ast.Thread, rounds: int = 1):
        self.thread = thread
        self.env: dict[str, int] = {}
        self.arrays: dict[str, list[int]] = {}
        self._functions: dict[str, object] = {}
        for decl in thread.declarations():
            for name, size in decl.declarators():
                if size > 0:
                    self.arrays[name] = [0] * size
                else:
                    self.env[name] = 0
        for __ in range(rounds):
            try:
                self._block(thread.body)
            except _ReturnSignal:
                pass

    # -- statements ---------------------------------------------------------------

    def _block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, (ast.VarDecl,)):
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, ast.Block):
            self._block(stmt)
        elif isinstance(stmt, ast.If):
            if self._eval(stmt.cond):
                self._block(stmt.then_body)
            elif stmt.else_body is not None:
                self._block(stmt.else_body)
        elif isinstance(stmt, ast.Case):
            selector = self._eval(stmt.selector)
            for arm in stmt.arms:
                if any(self._eval(v) == selector for v in arm.values):
                    self._block(arm.body)
                    return
            if stmt.default is not None:
                self._block(stmt.default)
        elif isinstance(stmt, ast.While):
            guard = 0
            while self._eval(stmt.cond):
                try:
                    self._block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                guard += 1
                assert guard < 10000, "runaway loop in reference interpreter"
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._assign(stmt.init)
            guard = 0
            while stmt.cond is None or self._eval(stmt.cond):
                try:
                    self._block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.step is not None:
                    self._assign(stmt.step)
                guard += 1
                assert guard < 10000
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal
        else:
            raise TypeError(f"unsupported statement {type(stmt).__name__}")

    def _assign(self, stmt: ast.Assign) -> None:
        value = self._eval(stmt.value)
        if stmt.op != "=":
            current = self._read_lvalue(stmt.target)
            value = self._binop(stmt.op[:-1], current, value)
        self._write_lvalue(stmt.target, value)

    def _read_lvalue(self, target) -> int:
        if isinstance(target, ast.Name):
            return self.env.get(target.ident, 0)
        if isinstance(target, ast.Index):
            index = to_signed(self._eval(target.index))
            return self.arrays[target.base.ident][index]
        raise TypeError("unsupported lvalue")

    def _write_lvalue(self, target, value: int) -> None:
        if isinstance(target, ast.Name):
            self.env[target.ident] = to_unsigned(value)
        elif isinstance(target, ast.Index):
            index = to_signed(self._eval(target.index))
            self.arrays[target.base.ident][index] = to_unsigned(value)
        else:
            raise TypeError("unsupported lvalue")

    # -- expressions --------------------------------------------------------------

    def _eval(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.IntLiteral):
            return to_unsigned(expr.value)
        if isinstance(expr, ast.CharLiteral):
            return expr.value & 0xFF
        if isinstance(expr, ast.BoolLiteral):
            return int(expr.value)
        if isinstance(expr, ast.Name):
            return self.env.get(expr.ident, 0)
        if isinstance(expr, ast.Index):
            index = to_signed(self._eval(expr.index))
            return self.arrays[expr.base.ident][index]
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand)
            if expr.op == "-":
                return to_unsigned(-to_signed(operand))
            if expr.op == "!":
                return int(operand == 0)
            return to_unsigned(~operand)
        if isinstance(expr, ast.Binary):
            if expr.op == "&&":
                return int(
                    bool(self._eval(expr.left)) and bool(self._eval(expr.right))
                )
            if expr.op == "||":
                return int(
                    bool(self._eval(expr.left)) or bool(self._eval(expr.right))
                )
            return self._binop(
                expr.op, self._eval(expr.left), self._eval(expr.right)
            )
        if isinstance(expr, ast.Conditional):
            if self._eval(expr.cond):
                return self._eval(expr.then_value)
            return self._eval(expr.else_value)
        if isinstance(expr, ast.Call):
            fn = self._functions.setdefault(
                expr.callee, default_intrinsic(expr.callee)
            )
            return to_unsigned(fn(*[self._eval(a) for a in expr.args]))
        raise TypeError(f"unsupported expression {type(expr).__name__}")

    @staticmethod
    def _binop(op: str, left: int, right: int) -> int:
        sl, sr = to_signed(left), to_signed(right)
        if op == "+":
            return to_unsigned(sl + sr)
        if op == "-":
            return to_unsigned(sl - sr)
        if op == "*":
            return to_unsigned(sl * sr)
        if op == "/":
            return 0xFFFFFFFF if sr == 0 else to_unsigned(int(sl / sr))
        if op == "%":
            return 0 if sr == 0 else to_unsigned(sl - int(sl / sr) * sr)
        if op == "<<":
            return to_unsigned(left << (right & 31))
        if op == ">>":
            return to_unsigned(left >> (right & 31))
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(sl < sr)
        if op == "<=":
            return int(sl <= sr)
        if op == ">":
            return int(sl > sr)
        if op == ">=":
            return int(sl >= sr)
        raise ValueError(op)


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    pass


def assert_equivalent(source: str, rounds: int = 1, max_cycles: int = 3000):
    """One-round FSM simulation must match the reference interpreter."""
    program = parse(source)
    thread = program.threads[0]
    reference = ReferenceInterpreter(thread, rounds=rounds)

    design = compile_design(source)
    sim = build_simulation(design)
    sim.run(
        max_cycles,
        until=lambda k: sim.executors[thread.name].stats.rounds_completed
        >= rounds,
    )
    executor = sim.executors[thread.name]
    assert executor.stats.rounds_completed >= rounds, "FSM never finished"

    for name, expected in reference.env.items():
        assert executor.env.get(name, 0) == expected, (
            f"{name}: fsm={executor.env.get(name, 0)} ref={expected}"
        )
    mm = design.memory_map
    bram = sim.controllers["bram0"].bram if "bram0" in sim.controllers else None
    for name, values in reference.arrays.items():
        placement = mm.placement(thread.name, name)
        for i, expected in enumerate(values):
            actual = bram.read(placement.base_address + i)
            assert actual == expected, f"{name}[{i}]"


FIXED_PROGRAMS = [
    # nested if within loop
    """
    thread t () {
      int i, odd, even;
      for (i = 0; i < 10; i = i + 1) {
        if (i % 2 == 1) { odd = odd + i; } else { even = even + i; }
      }
    }
    """,
    # while with break and continue
    """
    thread t () {
      int i, s;
      i = 0; s = 0;
      while (1) {
        i = i + 1;
        if (i > 10) { break; }
        if (i % 3 == 0) { continue; }
        s = s + i;
      }
    }
    """,
    # case dispatch inside a loop (the hic state-machine idiom)
    """
    thread t () {
      int state, ticks, work;
      for (ticks = 0; ticks < 6; ticks = ticks + 1) {
        case (state) {
          of 0: { work = work + 1; state = 1; }
          of 1: { work = work + 10; state = 2; }
          default: { state = 0; }
        }
      }
    }
    """,
    # array reverse-ish manipulation
    """
    thread t () {
      int a[8], i, sum;
      for (i = 0; i < 8; i = i + 1) { a[i] = i * i; }
      for (i = 0; i < 8; i = i + 1) { sum = sum + a[7 - i]; }
    }
    """,
    # compound assignments and shifts
    """
    thread t () {
      int x, y;
      x = 1;
      x <<= 4;
      x += 7;
      y = x >> 2;
      x ^= y;
      x %= 100;
    }
    """,
    # nested loops
    """
    thread t () {
      int i, j, acc;
      for (i = 0; i < 4; i = i + 1) {
        for (j = 0; j < 3; j = j + 1) {
          acc = acc + i * j;
        }
      }
    }
    """,
    # calls mixed with control flow
    """
    thread t () {
      int x, y;
      x = f(3);
      if (x > 0) { y = g(x, 2); } else { y = h(x); }
      y = y ? y : 1;
    }
    """,
]


class TestFixedPrograms:
    def test_all_fixed_programs_equivalent(self):
        for source in FIXED_PROGRAMS:
            assert_equivalent(source)

    def test_multi_round_accumulation(self):
        source = "thread t () { int n, s; n = n + 1; s = s + n; }"
        assert_equivalent(source, rounds=5)


@st.composite
def structured_programs(draw):
    """Small structured programs over ints a..d."""
    names = ["a", "b", "c", "d"]
    #: "d" is reserved as the for-loop counter; mutating it inside a loop
    #: body could make the loop non-terminating.
    targets = ["a", "b", "c"]
    lines = ["int a, b, c, d;"]
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["assign", "if", "for"]))
        target = draw(st.sampled_from(targets))
        left = draw(st.sampled_from(names))
        k = draw(st.integers(min_value=0, max_value=9))
        op = draw(st.sampled_from(["+", "-", "*", "^"]))
        if kind == "assign":
            lines.append(f"{target} = {left} {op} {k};")
        elif kind == "if":
            other = draw(st.sampled_from(names))
            lines.append(
                f"if ({left} < {k}) {{ {target} = {target} + 1; }} "
                f"else {{ {target} = {other} {op} {k}; }}"
            )
        else:
            bound = draw(st.integers(min_value=1, max_value=5))
            lines.append(
                f"for (d = 0; d < {bound}; d = d + 1) "
                f"{{ {target} = {target} {op} {max(1, k)}; }}"
            )
    body = "\n  ".join(lines)
    return f"thread t () {{\n  {body}\n}}"


@settings(max_examples=25, deadline=None)
@given(structured_programs())
def test_random_structured_programs_equivalent(source):
    assert_equivalent(source)
