"""Property tests: expression parsing and evaluation.

Random expression trees over every hic operator, a function call and
registers holding values from the whole signed 32-bit range are rendered
to hic text, parsed back, and evaluated on every simulation kernel: the
interpreter's decoded closures (``reference``, ``wheel``) and the
generated code of ``exprgen`` (``compiled``).  Each result must match a
reference evaluation with two's-complement 32-bit semantics written out
here independently of both.
"""

from hypothesis import given, settings, strategies as st

from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.sim import to_signed, to_unsigned

MASK32 = (1 << 32) - 1

#: Binary operators whose reference semantics we replicate exactly.
_BINOPS = [
    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
    "<", "<=", ">", ">=", "==", "!=", "&&", "||",
]
#: unary operators, named apart from the binary ``-``
_UNARY = {"neg": "-", "not": "!", "inv": "~"}
#: every node shape, each as likely as any binary operator
_OPERATORS = _BINOPS + list(_UNARY) + ["?:", "call"]
#: registers the expression reads; each run loads them with drawn values
_REGISTERS = ("r0", "r1", "r2", "r3")


def _mix(a, b):
    """The table function the trees call: wider than 32 bits on purpose,
    so the call's result must be masked."""
    return a * 40503 + (b ^ 0x5BD1E995)


def _truncated_quotient(sl, sr):
    """``sl / sr`` rounded toward zero, in exact integer arithmetic."""
    quotient = abs(sl) // abs(sr)
    return -quotient if (sl < 0) != (sr < 0) else quotient


def _binary(op, left, right):
    sl, sr = to_signed(left), to_signed(right)
    if op == "+":
        return to_unsigned(sl + sr)
    if op == "-":
        return to_unsigned(sl - sr)
    if op == "*":
        return to_unsigned(sl * sr)
    if op == "/":
        return MASK32 if sr == 0 else to_unsigned(_truncated_quotient(sl, sr))
    if op == "%":
        if sr == 0:
            return 0
        return to_unsigned(sl - _truncated_quotient(sl, sr) * sr)
    if op == "<<":
        return to_unsigned(left << (right % 32))
    if op == ">>":
        return left >> (right % 32)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<":
        return int(sl < sr)
    if op == "<=":
        return int(sl <= sr)
    if op == ">":
        return int(sl > sr)
    if op == ">=":
        return int(sl >= sr)
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "&&":
        return int(left != 0 and right != 0)
    assert op == "||"
    return int(left != 0 or right != 0)


def _unary(op, value):
    if op == "-":
        return to_unsigned(-to_signed(value))
    if op == "!":
        return int(value == 0)
    assert op == "~"
    return value ^ MASK32


def _apply(op, values):
    """The reference value of one operator node over its operands'
    values (both arms of ``?:`` are evaluated: nothing here has side
    effects)."""
    if op == "?:":
        cond, then_value, else_value = values
        return then_value if cond else else_value
    if op == "call":
        return _mix(*values) & MASK32
    if op in _UNARY:
        return _unary(_UNARY[op], *values)
    return _binary(op, *values)


@st.composite
def expr_trees(draw, depth=0):
    """``(text, reference, nodes)``: ``reference`` maps the registers'
    values to the expression's value, and ``nodes`` lists the ``(text,
    reference)`` pair of every operator node in the tree, the root last."""
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            register = draw(st.sampled_from(_REGISTERS))
            return register, lambda regs: regs[register], ()
        value = draw(st.integers(min_value=0, max_value=2**31 - 1))
        return str(value), lambda regs: value, ()
    op = draw(st.sampled_from(_OPERATORS))
    arity = 3 if op == "?:" else 1 if op in _UNARY else 2
    children = [draw(expr_trees(depth=depth + 1)) for __ in range(arity)]
    texts = [text for text, __, __ in children]
    if op == "?:":
        text = f"({texts[0]} ? {texts[1]} : {texts[2]})"
    elif op == "call":
        text = f"mix({texts[0]}, {texts[1]})"
    elif op in _UNARY:
        text = f"({_UNARY[op]}{texts[0]})"
    else:
        text = f"({texts[0]} {op} {texts[1]})"
    operands = [operand for __, operand, __ in children]

    def reference(regs):
        return _apply(op, [operand(regs) for operand in operands])

    nodes = tuple(node for __, __, child_nodes in children for node in child_nodes)
    return text, reference, nodes + ((text, reference),)


#: register values across the whole signed range, either sign as likely
_SIGNED_WORDS = st.one_of(
    st.integers(min_value=-(2**31), max_value=-1),
    st.integers(min_value=0, max_value=2**31 - 1),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(expr_trees(), min_size=1, max_size=4),
    st.fixed_dictionaries({name: _SIGNED_WORDS for name in _REGISTERS}),
)
def test_expression_evaluation_matches_reference(trees, registers):
    """Every operator node of the trees is assigned to a register of its
    own, so each node's value is checked, not only what reaches a
    root."""
    nodes = [node for __, __, tree_nodes in trees for node in tree_nodes]
    words = {name: to_unsigned(value) for name, value in registers.items()}
    results = [f"x{index}" for index in range(len(nodes))]
    assignments = " ".join(
        f"{result} = {text};" for result, (text, __) in zip(results, nodes)
    )
    design = compile_design(
        f"thread t () {{ int {', '.join(_REGISTERS + tuple(results))}; "
        f"{assignments} }}"
    )
    # one cycle in the initial state, then one per assignment
    cycles = len(nodes) + 1
    for kernel in SIMULATION_KERNELS:
        sim = build_simulation(design, {"mix": _mix}, kernel=kernel)
        env = sim.executors["t"].env
        env.update(words)
        sim.run(cycles)
        for result, (text, reference) in zip(results, nodes):
            assert env[result] == reference(words), (kernel, text)
        if kernel == "compiled":
            assert sim.kernel.cycles_compiled == cycles, sim.kernel.bind_error


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
def test_signed_conversion_involution(a, b):
    assert to_signed(to_unsigned(a)) == a
    assert to_unsigned(to_signed(to_unsigned(b))) == to_unsigned(b)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_literal_roundtrip_through_parser(value):
    source = f"thread t () {{ int x; x = {value}; }}"
    design = compile_design(source)
    sim = build_simulation(design)
    sim.run(3)
    assert sim.executors["t"].env["x"] == value
