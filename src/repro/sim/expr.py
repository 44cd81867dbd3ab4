"""hic expression semantics: AST expressions to exact-semantics Python.

Every expression a thread FSM evaluates compiles here, once, into a
Python source fragment.  The compiled kernel inlines the fragments into
its generated tick function (:mod:`repro.sim.compiled.codegen`); the
interpreter compiles each into a closure over its register file
(:class:`repro.sim.executor.ThreadExecutor`).  This module is the one
statement of the datapath's arithmetic, so the kernels cannot drift
apart; ``tests/property/test_prop_expressions.py`` checks every
operator node on every kernel against a reference written out
independently:

* results are always masked into ``[0, 2**32)`` (the emit invariant —
  every fragment this module produces evaluates to such an int, so
  parent fragments can compose without re-masking); a register read
  masks too (a read grant leaves the raw, up to 36-bit BRAM word in its
  destination);
* ``+``, ``-``, ``*`` and ``<<`` wrap modulo 2**32;
* ``/`` and ``%`` truncate toward zero via *float* division, as
  ``int(sl / sr)`` in :func:`div` and :func:`mod` (``//`` would round
  differently for negatives); a zero divisor gives ``0xFFFFFFFF`` and 0;
* signed comparisons use the sign-bias trick ``(l ^ 2**31) < (r ^ 2**31)``
  which totally orders unsigned encodings by their signed value;
* ``&&``/``||`` short-circuit (the right operand may call functions).

A node that cannot be evaluated (an unrewritten field access, an
unknown operator) compiles to a call of :func:`cannot_evaluate` or
:func:`unknown_operator`, which raise their ``TypeError`` or
``ValueError`` when the fragment runs, after evaluating the operands
that come first.  Fragments carry identifiers only through ``repr()``
and integers only as literals.

Function calls are resolved at *bind* time: each distinct callee gets an
alias recorded in :attr:`ExprCompiler.calls`; whoever runs the
fragments binds each alias through the executor's function table,
memoizing :func:`default_intrinsic` on a miss, and binds the
:data:`HELPERS` the fragments call by name.
"""

from __future__ import annotations

from typing import Callable, NoReturn

from ..hic import ast

#: 2**32 - 1 — the 32-bit mask literal embedded in generated fragments.
MASK32 = (1 << 32) - 1
#: the sign bit, for the signed-comparison bias trick
SIGN = 1 << 31


def to_signed(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & SIGN else value


def to_unsigned(value: int) -> int:
    return value & MASK32


def default_intrinsic(name: str) -> Callable[..., int]:
    """A deterministic stand-in for an unknown combinational function.

    Mixes the arguments with a Knuth multiplicative hash salted by the
    function name, so distinct functions produce distinct (but repeatable)
    results — adequate for exercising dataflow without the real logic.
    """
    salt = sum(ord(c) for c in name)

    def fn(*args: int) -> int:
        acc = salt & MASK32
        for arg in args:
            acc = (acc * 2654435761 + (arg & MASK32) + 1) & MASK32
        return acc

    return fn


def div(left: int, right: int) -> int:
    """Signed ``left / right`` of two words, truncated toward zero."""
    sl = left - (1 << 32) if left & SIGN else left
    sr = right - (1 << 32) if right & SIGN else right
    if sr == 0:
        return MASK32  # hardware divide-by-zero convention
    return int(sl / sr) & MASK32


def mod(left: int, right: int) -> int:
    """The remainder that goes with :func:`div`'s quotient."""
    sl = left - (1 << 32) if left & SIGN else left
    sr = right - (1 << 32) if right & SIGN else right
    if sr == 0:
        return 0
    return (sl - int(sl / sr) * sr) & MASK32


def cannot_evaluate(node: str) -> NoReturn:
    raise TypeError(f"cannot evaluate {node} at simulation time")


def unknown_operator(kind: str, op: str, *operands: int) -> NoReturn:
    """Raise for an operator with no semantics; being this call's
    arguments, its operands were evaluated first."""
    raise ValueError(f"unknown {kind} operator {op!r}")


#: the functions fragments call by name: every namespace that runs a
#: fragment binds these
HELPERS = {
    helper.__name__: helper
    for helper in (div, mod, cannot_evaluate, unknown_operator)
}


class ExprCompiler:
    """Compiles one thread's expressions against its env-dict alias.

    ``env_name`` is the name the fragments read the register file
    through; ``fn_prefix`` namespaces the per-callee function aliases.
    """

    def __init__(self, env_name: str, fn_prefix: str):
        self.env = env_name
        self.fn_prefix = fn_prefix
        #: callee -> generated alias, in first-use order
        self.calls: dict[str, str] = {}

    def compile(self, expr) -> str:
        """Emit a fragment evaluating ``expr`` to an int in ``[0, 2**32)``."""
        if isinstance(expr, ast.IntLiteral):
            return repr(expr.value & MASK32)
        if isinstance(expr, ast.CharLiteral):
            return repr(expr.value & 0xFF)
        if isinstance(expr, ast.BoolLiteral):
            return "1" if expr.value else "0"
        if isinstance(expr, ast.Name):
            # env values may carry up to 36 bits (a grant absorbs raw
            # BRAM words); reads re-mask like to_unsigned does.
            return f"({self.env}.get({expr.ident!r},0)&{MASK32})"
        if isinstance(expr, ast.Unary):
            operand = self.compile(expr.operand)
            if expr.op == "-":
                return f"(-({operand})&{MASK32})"
            if expr.op == "!":
                return f"(0 if ({operand}) else 1)"
            if expr.op == "~":
                return f"(~({operand})&{MASK32})"
            return f"unknown_operator('unary',{expr.op!r},{operand})"
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Conditional):
            cond = self.compile(expr.cond)
            then_value = self.compile(expr.then_value)
            else_value = self.compile(expr.else_value)
            return f"(({then_value}) if ({cond}) else ({else_value}))"
        if isinstance(expr, ast.Call):
            alias = self.calls.get(expr.callee)
            if alias is None:
                alias = f"{self.fn_prefix}{len(self.calls)}"
                self.calls[expr.callee] = alias
            args = ",".join(self.compile(a) for a in expr.args)
            return f"({alias}({args})&{MASK32})"
        return f"cannot_evaluate({type(expr).__name__!r})"

    def _binary(self, expr) -> str:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        # Short-circuit forms evaluate the right fragment lazily.
        if op == "&&":
            return f"(1 if ({left}) and ({right}) else 0)"
        if op == "||":
            return f"(1 if ({left}) or ({right}) else 0)"
        # sl op sr is congruent to l op r mod 2**32 for ring operations.
        if op == "+":
            return f"(({left})+({right})&{MASK32})"
        if op == "-":
            return f"(({left})-({right})&{MASK32})"
        if op == "*":
            return f"(({left})*({right})&{MASK32})"
        if op == "/":
            return f"div({left},{right})"
        if op == "%":
            return f"mod({left},{right})"
        if op == "<<":
            return f"(({left})<<(({right})&31)&{MASK32})"
        if op == ">>":
            # left is already masked, so the shift cannot overflow 32 bits
            return f"(({left})>>(({right})&31))"
        if op == "&":
            return f"(({left})&({right}))"
        if op == "|":
            return f"(({left})|({right}))"
        if op == "^":
            return f"(({left})^({right}))"
        if op == "==":
            return f"(1 if ({left})==({right}) else 0)"
        if op == "!=":
            return f"(1 if ({left})!=({right}) else 0)"
        if op == "<":
            return f"(1 if (({left})^{SIGN})<(({right})^{SIGN}) else 0)"
        if op == "<=":
            return f"(1 if (({left})^{SIGN})<=(({right})^{SIGN}) else 0)"
        if op == ">":
            return f"(1 if (({left})^{SIGN})>(({right})^{SIGN}) else 0)"
        if op == ">=":
            return f"(1 if (({left})^{SIGN})>=(({right})^{SIGN}) else 0)"
        return f"unknown_operator('binary',{op!r},{left},{right})"
