"""Property tests: front-end robustness.

The lexer and parser must be total: any input either parses or raises a
located ``HicError`` — never an unhandled exception.  ``tokenize`` is the
public view of the records the parser reads: the same tokens at the same
places, or the same lexical error.  Token texts are
self-delimiting: re-lexing them joined by single spaces gives the same
tokens.  Valid programs generated from the grammar must round-trip
through analysis.  Each thread's node list is a fresh pre-order walk,
and the two shared expression walkers (names read, operations used)
answer what the six per-pass walkers they replaced did.
"""

import dataclasses
import string
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.hic import HicError, Parser, analyze, ast, parse, tokenize
from repro.hic.errors import HicSyntaxError
from repro.synth.schedule import expression_operations, op_class


_ARBITRARY_TEXT = st.text(max_size=200)
_TOKEN_SOUP = st.text(
    alphabet=string.ascii_letters + string.digits + " \n\t(){}[];,=+-*/<>!&|#'\"",
    max_size=300,
)


@settings(max_examples=80, deadline=None)
@given(_ARBITRARY_TEXT)
def test_lexer_total_over_arbitrary_text(text):
    try:
        tokens = tokenize(text)
        assert tokens[-1].kind.name == "EOF"
    except HicSyntaxError as error:
        assert error.location.line >= 1


@settings(max_examples=80, deadline=None)
@given(_TOKEN_SOUP)
def test_parser_total_over_token_soup(text):
    try:
        parse(text)
    except HicError as error:
        assert error.location.line >= 1


#: Token-shaped pieces and trivia; adjacent pieces may fuse into other
#: tokens ("<" then "<=" is "<<=") or into malformed text.
_PIECES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.from_regex(
        r"0|[1-9][0-9]{0,4}|0[xX][0-9a-fA-F]{1,4}|0[bB][01]{1,8}", fullmatch=True
    ),
    st.sampled_from(["'a'", "'\\n'", "'\\''", '"s t"', '"a\\"b"', '"x\ny"']),
    st.sampled_from(
        "<<= >>= == != <= >= && || << >> += -= *= /= %= &= |= ^= -> "
        "+ - * / % < > = ! & | ^ ~ ( ) { } [ ] , ; : . ? #".split()
    ),
    st.sampled_from([" ", "\n", "\t", "\r\n", "// c\n", "/* c\n */"]),
)


_PIECE_TEXT = st.lists(_PIECES, max_size=40).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ARBITRARY_TEXT, _TOKEN_SOUP, _PIECE_TEXT))
def test_tokenize_is_a_view_of_the_records_the_parser_reads(text):
    try:
        tokens = tokenize(text)
    except HicSyntaxError as error:
        with pytest.raises(HicSyntaxError) as parsed:
            parse(text)
        assert parsed.value.message == error.message
        assert parsed.value.location == error.location
        return
    assert [
        (token.kind, token.text, token.location.line, token.location.column)
        for token in tokens
    ] == Parser(text)._records


@settings(max_examples=150, deadline=None)
@given(_PIECE_TEXT)
def test_relexing_space_joined_token_texts_round_trips(text):
    try:
        tokens = tokenize(text)
    except HicSyntaxError:
        return
    relexed = tokenize(" ".join(token.text for token in tokens[:-1]))
    assert [(t.kind, t.text) for t in relexed] == [(t.kind, t.text) for t in tokens]


_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s
    not in {
        "thread", "int", "char", "message", "type", "union", "if", "else",
        "case", "of", "default", "for", "while", "return", "break",
        "continue", "receive", "transmit", "true", "false", "bool",
    }
)


@st.composite
def valid_threads(draw):
    """Generate a small valid single-thread program."""
    names = sorted(draw(st.sets(_IDENT, min_size=2, max_size=4)))
    decls = f"int {', '.join(names)};"
    statements = []
    count = draw(st.integers(min_value=1, max_value=4))
    for __ in range(count):
        target = draw(st.sampled_from(names))
        left = draw(st.sampled_from(names))
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        literal = draw(st.integers(min_value=0, max_value=255))
        statements.append(f"{target} = {left} {op} {literal};")
    body = "\n  ".join([decls] + statements)
    return f"thread t () {{\n  {body}\n}}"


@settings(max_examples=25, deadline=None)
@given(valid_threads())
def test_generated_programs_analyze_cleanly(source):
    checked = analyze(source)
    assert checked.program.thread_names() == ["t"]
    assert checked.dependencies == []


@settings(max_examples=15, deadline=None)
@given(valid_threads())
def test_generated_programs_compile_and_simulate(source):
    from repro.flow import build_simulation, compile_design

    design = compile_design(source)
    sim = build_simulation(design)
    sim.run(30)
    assert sim.executors["t"].stats.cycles == 30


# -- shared traversals ---------------------------------------------------------


def _fresh_preorder(node):
    """Oracle: every node at and below ``node``, pre-order, found through
    the dataclass fields instead of ``children()`` (an assignment's
    pragmas annotate it and are not part of the tree)."""
    found = [node]
    for item in dataclasses.fields(node):
        if item.name in ("pragmas", "nodes"):
            continue
        value = getattr(node, item.name)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.Node):
                found.extend(_fresh_preorder(child))
    return found


def _assert_node_lists_are_fresh(program):
    for thread in program.threads:
        assert [id(node) for node in thread.nodes] == [
            id(node) for node in _fresh_preorder(thread.body)
        ]


def _consumer_of_a_single_write(source):
    """``(variable, thread source)``: a second thread reading a variable
    the generated (flat) thread writes in exactly one statement, or
    ``(None, None)`` if it writes none just once."""
    body = parse(source).threads[0].body
    writes = Counter(
        stmt.target.ident for stmt in body.statements if isinstance(stmt, ast.Assign)
    )
    once = sorted(name for name, count in writes.items() if count == 1)
    if not once:
        return None, None
    return once[0], f"thread c () {{ int got; got = {once[0]} + 1; }}"


@settings(max_examples=30, deadline=None)
@given(valid_threads())
def test_thread_node_lists_are_fresh_preorder_walks(source):
    _assert_node_lists_are_fresh(analyze(source).program)
    variable, consumer = _consumer_of_a_single_write(source)
    if consumer is None:
        return
    checked = analyze(f"{source}\n{consumer}", infer_pragmas=True)
    _assert_node_lists_are_fresh(checked.program)
    if variable != "got":
        assert [dep.dep_id for dep in checked.dependencies] == [f"auto_{variable}"]


def test_node_lists_of_the_example_and_scenario_programs():
    from pathlib import Path

    from repro.scenarios.catalog import fanin_source, fanout_source, pipeline_source

    examples = sorted((Path(__file__).parents[2] / "examples").glob("*.hic"))
    sources = [path.read_text() for path in examples]
    sources += [fanin_source(3), fanout_source(3), pipeline_source(3)]
    for source in sources:
        _assert_node_lists_are_fresh(parse(source))


# Oracles: the six expression walkers that the two shared ones replace.


def _old_walk(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed([*node.children()]))


def _old_expression_uses(expr):  # analysis.usedef
    return {node.ident for node in _old_walk(expr) if isinstance(node, ast.Name)}


def _old_expression_reads(expr):  # hic.pragmas
    names = set()
    for node in _old_walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.ident)
        elif isinstance(node, ast.FieldAccess) and isinstance(node.base, ast.Name):
            names.add(node.base.ident)
    return names


def _old_reads_of(stmt):  # hic.autopragma
    return {node.ident for node in _old_walk(stmt.value) if isinstance(node, ast.Name)}


def _old_registers(exprs, constants):  # rtl.fsm_verilog's note_expr_names
    registers = set()
    for expr in exprs:
        for node in _old_walk(expr):
            if isinstance(node, ast.Name) and node.ident not in constants:
                registers.add(node.ident)
    return registers


def _old_expr_operations(expr):  # synth.binding
    ops = []
    for node in _old_walk(expr):
        if isinstance(node, ast.Binary):
            ops.append((op_class(node.op), node.op))
        elif isinstance(node, ast.Unary):
            ops.append((op_class(node.op), node.op))
        elif isinstance(node, ast.Conditional):
            ops.append(("alu", "?:"))
        elif isinstance(node, ast.Call):
            ops.append(("call", node.callee))
    return ops


def _old_op_demand(state):  # synth.optimize
    demand = {}
    for op in state.ops:
        for node in _old_walk(op.expr):
            if isinstance(node, (ast.Binary, ast.Unary)):
                kind = op_class(node.op)
            elif isinstance(node, ast.Conditional):
                kind = "alu"
            elif isinstance(node, ast.Call):
                kind = "call"
            else:
                continue
            demand[kind] = demand.get(kind, 0) + 1
    return demand


_LEAVES = ["a", "b", "k", "arr[1]", "m.ttl", "7", "'x'", "true"]
_OPERATORS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", "==", "<", "&&", "||"]


@st.composite
def expression_texts(draw, depth=0):
    """hic expression text over names, fields, elements and literals."""
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAVES))

    def sub():
        return draw(expression_texts(depth=depth + 1))

    shape = draw(st.sampled_from(["binary", "unary", "call", "conditional", "index"]))
    if shape == "binary":
        return f"({sub()} {draw(st.sampled_from(_OPERATORS))} {sub()})"
    if shape == "unary":
        return f"({draw(st.sampled_from(['-', '!', '~']))}{sub()})"
    if shape == "call":
        return f"f({sub()}, {sub()})"
    if shape == "conditional":
        return f"({sub()} ? {sub()} : {sub()})"
    return f"arr[{sub()}]"


@settings(max_examples=60, deadline=None)
@given(expression_texts())
def test_shared_expression_walkers_match_the_old_ones(text):
    source = (
        "#constant{k, 3}\n"
        f"thread t () {{ int a, b, arr[4]; message m; a = {text}; }}"
    )
    stmt = parse(source).threads[0].body.statements[-1]
    names = ast.names_read(stmt.value)
    assert names == _old_expression_uses(stmt.value)
    assert names == _old_expression_reads(stmt.value)
    assert names == _old_reads_of(stmt)
    assert names - {"k"} == _old_registers([stmt.value], {"k": 3})
    assert expression_operations(stmt.value) == _old_expr_operations(stmt.value)


@settings(max_examples=15, deadline=None)
@given(valid_threads())
def test_shared_expression_walkers_match_the_old_ones_on_fsms(source):
    from repro.flow import compile_design
    from repro.synth.fsm import ComputeOp
    from repro.synth.optimize import _op_demand

    design = compile_design(source, optimize=True)
    for fsm in design.fsms.values():
        for state in fsm.states.values():
            exprs = [tr.guard for tr in state.transitions if tr.guard is not None]
            exprs += [op.expr for op in state.ops if isinstance(op, ComputeOp)]
            assert set().union(*map(ast.names_read, exprs)) == _old_registers(exprs, {})
            for expr in exprs:
                assert expression_operations(expr) == _old_expr_operations(expr)
            if state.ops and all(isinstance(op, ComputeOp) for op in state.ops):
                assert _op_demand(state) == _old_op_demand(state)
