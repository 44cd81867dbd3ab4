"""Property tests: front-end robustness.

The lexer and parser must be total: any input either parses or raises a
located ``HicError`` — never an unhandled exception.  Token texts are
self-delimiting: re-lexing them joined by single spaces gives the same
tokens.  Valid programs generated from the grammar must round-trip
through analysis.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.hic import HicError, analyze, parse, tokenize
from repro.hic.errors import HicSyntaxError


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=200))
def test_lexer_total_over_arbitrary_text(text):
    try:
        tokens = tokenize(text)
        assert tokens[-1].kind.name == "EOF"
    except HicSyntaxError as error:
        assert error.location.line >= 1


@settings(max_examples=80, deadline=None)
@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + " \n\t(){}[];,=+-*/<>!&|#'\"",
        max_size=300,
    )
)
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


@settings(max_examples=150, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
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
