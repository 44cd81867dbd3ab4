"""Unit tests for the hic parser."""

import pytest

from repro.hic import HicSyntaxError, parse, parse_with_types
from repro.hic import ast
from repro.hic.types import BitsType, UnionType


def single_thread(source):
    program = parse(source)
    assert len(program.threads) == 1
    return program.threads[0]


class TestTopLevel:
    def test_empty_program(self):
        assert parse("").threads == []

    def test_figure1_thread_names(self, figure1_source):
        program = parse(figure1_source)
        assert program.thread_names() == ["t1", "t2", "t3"]

    def test_thread_params(self):
        thread = single_thread("thread t (a, b) { int x; }")
        assert thread.params == ["a", "b"]

    def test_interface_pragma(self):
        program = parse("#interface{eth0, gige}\nthread t () { int x; }")
        assert program.interfaces[0].name == "eth0"
        assert program.interfaces[0].kind == "gige"

    def test_constant_pragma(self):
        program = parse("#constant{host, 0x0A000001}\nthread t () { int x; }")
        assert program.constants[0].value == 0x0A000001

    def test_negative_constant(self):
        program = parse("#constant{offset, -4}\nthread t () { int x; }")
        assert program.constants[0].value == -4

    def test_junk_at_top_level_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("banana")

    def test_unknown_top_pragma_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("#producer{d,[t,v]}\nthread t () { int v; }")


class TestTypeDecls:
    def test_bits_type(self):
        __, types = parse_with_types("type nibble : 4;")
        declared = types.lookup("nibble")
        assert isinstance(declared, BitsType)
        assert declared.bit_width == 4

    def test_union_type(self):
        source = "type word : 16;\ntype mixed = union(int, word);"
        __, types = parse_with_types(source)
        declared = types.lookup("mixed")
        assert isinstance(declared, UnionType)
        assert declared.bit_width == 32  # max(32, 16)

    def test_user_type_usable_in_decl(self):
        source = "type addr : 9;\nthread t () { addr a; }"
        program = parse(source)
        decl = program.threads[0].declarations()[0]
        assert decl.var_type.bit_width == 9

    def test_duplicate_type_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("type a : 4;\ntype a : 8;")

    def test_unknown_type_in_union_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("type u = union(int, nothere);")


class TestDeclarations:
    def test_multi_name_decl(self):
        thread = single_thread("thread t () { int x1, xtmp, x2; }")
        assert thread.declarations()[0].names == ["x1", "xtmp", "x2"]

    def test_array_decl(self):
        thread = single_thread("thread t () { int table[256]; }")
        decl = thread.declarations()[0]
        assert decl.declarators() == [("table", 256)]

    def test_mixed_scalar_and_array_declarators(self):
        thread = single_thread("thread t () { int a[8], i, x; }")
        decl = thread.declarations()[0]
        assert decl.declarators() == [("a", 8), ("i", 0), ("x", 0)]

    def test_zero_size_array_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("thread t () { int table[0]; }")

    def test_message_decl(self):
        thread = single_thread("thread t () { message m; }")
        assert thread.declarations()[0].var_type.name == "message"


class TestStatements:
    def test_assignment(self):
        thread = single_thread("thread t () { int x; x = 1; }")
        stmt = thread.statements()[0]
        assert isinstance(stmt, ast.Assign)
        assert stmt.op == "="

    def test_compound_assignment(self):
        thread = single_thread("thread t () { int x; x += 2; }")
        assert thread.statements()[0].op == "+="

    def test_if_else(self):
        thread = single_thread(
            "thread t () { int x; if (x > 0) { x = 1; } else { x = 2; } }"
        )
        stmt = thread.statements()[0]
        assert isinstance(stmt, ast.If)
        assert stmt.else_body is not None

    def test_else_if_chain(self):
        thread = single_thread(
            "thread t () { int x; "
            "if (x == 1) { x = 0; } else if (x == 2) { x = 1; } else { x = 3; } }"
        )
        outer = thread.statements()[0]
        nested = outer.else_body.statements[0]
        assert isinstance(nested, ast.If)

    def test_case_statement(self):
        thread = single_thread(
            "thread t () { int s; case (s) { of 0: { s = 1; } of 1, 2: { s = 0; } "
            "default: { s = 3; } } }"
        )
        stmt = thread.statements()[0]
        assert isinstance(stmt, ast.Case)
        assert len(stmt.arms) == 2
        assert len(stmt.arms[1].values) == 2
        assert stmt.default is not None

    @pytest.mark.parametrize(
        "source, where",
        [
            ("thread t () { int x; f(x).a = 3; }", "1:27"),
            ("thread t () { int x; f(x)[0] += 3; }", "1:22"),
            (
                "thread t () { message m1, m2; int c; (c ? m1 : m2).ttl = 3; }",
                "1:52",
            ),
            (
                "thread t () { int i; for (f(i).a = 0; i < 2; i = i + 1) { } }",
                "1:32",
            ),
        ],
    )
    def test_target_not_rooted_in_a_variable_rejected(self, source, where):
        with pytest.raises(
            HicSyntaxError,
            match=f"{where}: assignment target must be a variable, field, or element",
        ):
            parse(source)

    def test_empty_case_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("thread t () { int s; case (s) { } }")

    def test_double_default_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse(
                "thread t () { int s; case (s) { default: { } default: { } } }"
            )

    def test_while_loop(self):
        thread = single_thread("thread t () { int x; while (x < 4) { x = x + 1; } }")
        assert isinstance(thread.statements()[0], ast.While)

    def test_for_loop(self):
        thread = single_thread(
            "thread t () { int i, acc; for (i = 0; i < 8; i = i + 1) { acc += i; } }"
        )
        stmt = thread.statements()[0]
        assert isinstance(stmt, ast.For)
        assert stmt.init is not None
        assert stmt.step is not None

    def test_for_loop_empty_header(self):
        thread = single_thread("thread t () { int i; for (;;) { break; } }")
        stmt = thread.statements()[0]
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_receive_transmit(self):
        source = (
            "#interface{eth0, gige}\n"
            "thread t () { message m; receive(m, eth0); transmit(m, eth0); }"
        )
        thread = parse(source).threads[0]
        stmts = thread.statements()
        assert isinstance(stmts[0], ast.Receive)
        assert isinstance(stmts[1], ast.Transmit)
        assert stmts[0].interface == "eth0"

    def test_break_continue_return(self):
        thread = single_thread(
            "thread t () { int x; while (1) { if (x) { break; } continue; } return; }"
        )
        assert isinstance(thread.statements()[-1], ast.Return)


class TestExpressions:
    def expr_of(self, text):
        thread = single_thread(f"thread t () {{ int x, y, z; x = {text}; }}")
        return thread.statements()[0].value

    def test_precedence_mul_over_add(self):
        expr = self.expr_of("y + z * 2")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses_override(self):
        expr = self.expr_of("(y + z) * 2")
        assert expr.op == "*"

    def test_comparison_precedence(self):
        expr = self.expr_of("y + 1 < z")
        assert expr.op == "<"

    def test_logical_operators(self):
        expr = self.expr_of("y && z || y")
        assert expr.op == "||"

    def test_unary(self):
        expr = self.expr_of("-y")
        assert isinstance(expr, ast.Unary)
        assert expr.op == "-"

    def test_ternary(self):
        expr = self.expr_of("y ? 1 : 2")
        assert isinstance(expr, ast.Conditional)

    def test_call_with_args(self):
        expr = self.expr_of("f(y, z + 1)")
        assert isinstance(expr, ast.Call)
        assert expr.callee == "f"
        assert len(expr.args) == 2

    def test_field_access(self):
        thread = single_thread("thread t () { message m; int x; x = m.ttl; }")
        expr = thread.statements()[0].value
        assert isinstance(expr, ast.FieldAccess)
        assert expr.field_name == "ttl"

    def test_array_index(self):
        thread = single_thread("thread t () { int a[4], x; x = a[x + 1]; }")
        expr = thread.statements()[0].value
        assert isinstance(expr, ast.Index)

    def test_assignment_to_field(self):
        thread = single_thread("thread t () { message m; m.ttl = 64; }")
        target = thread.statements()[0].target
        assert isinstance(target, ast.FieldAccess)

    def test_left_associativity(self):
        expr = self.expr_of("y - z - 1")
        # Must parse as (y - z) - 1.
        assert expr.op == "-"
        assert expr.left.op == "-"


class TestPragmas:
    def test_consumer_pragma_attaches_to_assignment(self, figure1_source):
        program = parse(figure1_source)
        t1 = program.thread("t1")
        stmt = t1.statements()[0]
        assert len(stmt.pragmas) == 1
        pragma = stmt.pragmas[0]
        assert isinstance(pragma, ast.ConsumerPragma)
        assert pragma.dep_id == "mt1"
        assert pragma.links == [
            ast.DependencyLink("t2", "y1"),
            ast.DependencyLink("t3", "z1"),
        ]

    def test_producer_pragma(self, figure1_source):
        program = parse(figure1_source)
        stmt = program.thread("t2").statements()[0]
        assert isinstance(stmt.pragmas[0], ast.ProducerPragma)

    def test_pragma_before_non_assignment_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse(
                "thread t () { int x; #producer{d,[t,x]}\n while (x) { x = 0; } }"
            )

    def test_dangling_pragma_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("thread t () { int x; x = 1; #producer{d,[t,x]} }")

    def test_pragma_without_links_rejected(self):
        with pytest.raises(HicSyntaxError):
            parse("thread t () { int x; #producer{d}\n x = 1; }")

    def test_multiple_pragmas_on_one_statement(self):
        source = (
            "thread a () { int p, q; "
            "#consumer{d1,[b,r]}\n#consumer{d2,[b,s]}\n p = f(q); }"
            "thread b () { int r, s; "
            "#producer{d1,[a,p]}\n r = g(p); "
            "#producer{d2,[a,p]}\n s = g(p); }"
        )
        program = parse(source)
        stmt = program.thread("a").statements()[0]
        assert len(stmt.pragmas) == 2


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "thread t () { int x; x = ; }",
            "thread t () { int x; x = 1 }",
            "thread t () { int x; if x { } }",
            "thread t () { int x }",
            "thread t ( { }",
            "thread t () { 1 = x; }",
            "thread t () {",
        ],
    )
    def test_malformed_source_raises(self, source):
        with pytest.raises(HicSyntaxError):
            parse(source)

    def test_error_carries_location(self):
        with pytest.raises(HicSyntaxError) as err:
            parse("thread t () {\n  int x;\n  x = ;\n}")
        assert err.value.location.line == 3


#: Programs nesting one construct ``n`` deep.
NESTED = {
    "parens": lambda n: "thread t () { int x; x = " + "(" * n + "x" + ")" * n + "; }",
    "unary": lambda n: "thread t () { int x; x = " + "-" * n + "x; }",
    "blocks": lambda n: "thread t () { " + "{ " * n + "} " * n + "}",
    "ifs": lambda n: "thread t () { int x; " + "if (x) { " * n + "} " * n + "}",
}


class TestNesting:
    """Blocks, parentheses and unary operators nest by recursion; past
    what the interpreter's stack allows, parsing stops with a located
    syntax error rather than a ``RecursionError``."""

    @pytest.mark.parametrize("shape", ["parens", "unary", "blocks"])
    def test_depth_1000_is_a_located_syntax_error(self, shape):
        with pytest.raises(HicSyntaxError) as err:
            parse(NESTED[shape](1000))
        assert err.value.message == "nesting too deep"
        assert err.value.location.line == 1
        assert err.value.location.column > 20

    def test_parse_with_types_reports_it_too(self):
        with pytest.raises(HicSyntaxError, match="nesting too deep"):
            parse_with_types(NESTED["parens"](1000))

    @pytest.mark.parametrize(
        "shape, depth", [("parens", 60), ("unary", 800), ("blocks", 400), ("ifs", 250)]
    )
    def test_moderate_depth_parses(self, shape, depth):
        assert single_thread(NESTED[shape](depth)).name == "t"


class TestWalk:
    def test_pre_order(self):
        thread = single_thread("thread t () { int x, y; x = (y + 1) * f(y); }")
        nodes = ast.walk(thread.statements()[0])
        assert [type(node).__name__ for node in nodes] == [
            "Assign", "Name", "Binary", "Binary", "Name", "IntLiteral", "Call", "Name",
        ]

    def test_tree_deeper_than_the_recursion_limit(self):
        expr = ast.Name("x")
        for __ in range(5000):
            expr = ast.Unary("-", expr)
        assert sum(1 for __ in ast.walk(expr)) == 5001
