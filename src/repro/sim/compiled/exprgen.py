"""Expression compiler: hic AST expressions to exact-semantics Python.

The compiled simulation backend flattens every expression a thread FSM
evaluates into a Python source fragment.  The emitted fragments must be
**bit-identical** to the interpreter's decoded closures
(:func:`repro.sim.executor.decode_expr`), including every 32-bit
two's-complement corner; ``tests/property/test_prop_expressions.py``
checks both against a reference written out independently, node by
node, on every kernel:

* results are always masked into ``[0, 2**32)`` (the emit invariant —
  every fragment this module produces evaluates to such an int, so
  parent fragments can compose without re-masking);
* ``/`` and ``%`` truncate toward zero via *float* division exactly as
  the interpreter's ``int(sl / sr)`` does (see ``_div``/``_mod`` in the
  generated prologue — ``//`` would round differently for negatives);
* signed comparisons use the sign-bias trick ``(l ^ 2**31) < (r ^ 2**31)``
  which totally orders unsigned encodings by their signed value;
* ``&&``/``||`` short-circuit (the right operand may call functions).

Function calls are resolved at *bind* time: each distinct callee gets a
module-level alias recorded in :attr:`ExprCompiler.calls`; the generated
``bind()`` resolves them through the executor's function table exactly
like the interpreter (memoizing :func:`default_intrinsic` on a miss).
"""

from __future__ import annotations

from ...hic import ast

#: 2**32 - 1 — the 32-bit mask literal embedded in generated fragments.
M = (1 << 32) - 1
#: the sign bit, for the signed-comparison bias trick
SIGN = 1 << 31


class UnsupportedExpression(Exception):
    """An expression with no compiled equivalent (the interpreter would
    raise at simulation time too, e.g. an unrewritten field access)."""


class ExprCompiler:
    """Compiles one thread's expressions against its env-dict alias.

    ``env_name`` is the generated local aliasing ``executor.env``;
    ``fn_prefix`` namespaces the per-callee function aliases.
    """

    def __init__(self, env_name: str, fn_prefix: str):
        self.env = env_name
        self.fn_prefix = fn_prefix
        #: callee -> generated alias, in first-use order
        self.calls: dict[str, str] = {}

    def compile(self, expr) -> str:
        """Emit a fragment evaluating ``expr`` to an int in ``[0, 2**32)``."""
        if isinstance(expr, ast.IntLiteral):
            return repr(expr.value & M)
        if isinstance(expr, ast.CharLiteral):
            return repr(expr.value & 0xFF)
        if isinstance(expr, ast.BoolLiteral):
            return "1" if expr.value else "0"
        if isinstance(expr, ast.Name):
            # env values may carry up to 36 bits (a grant absorbs raw
            # BRAM words); reads re-mask like to_unsigned does.
            return f"({self.env}.get({expr.ident!r},0)&{M})"
        if isinstance(expr, ast.Unary):
            operand = self.compile(expr.operand)
            if expr.op == "-":
                return f"(-({operand})&{M})"
            if expr.op == "!":
                return f"(0 if ({operand}) else 1)"
            if expr.op == "~":
                return f"(~({operand})&{M})"
            raise UnsupportedExpression(f"unary operator {expr.op!r}")
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
            return f"({alias}({args})&{M})"
        raise UnsupportedExpression(
            f"cannot compile {type(expr).__name__} for simulation"
        )

    def _binary(self, expr) -> str:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        # Short-circuit forms evaluate the right fragment lazily, exactly
        # like the interpreter.
        if op == "&&":
            return f"(1 if ({left}) and ({right}) else 0)"
        if op == "||":
            return f"(1 if ({left}) or ({right}) else 0)"
        # sl op sr is congruent to l op r mod 2**32 for ring operations.
        if op == "+":
            return f"(({left})+({right})&{M})"
        if op == "-":
            return f"(({left})-({right})&{M})"
        if op == "*":
            return f"(({left})*({right})&{M})"
        if op == "/":
            return f"_div({left},{right})"
        if op == "%":
            return f"_mod({left},{right})"
        if op == "<<":
            return f"(({left})<<(({right})&31)&{M})"
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
        raise UnsupportedExpression(f"binary operator {op!r}")
