"""Recursive-descent parser for hic.

Grammar (EBNF, terminals quoted)::

    program      = { type_decl | top_pragma | thread } ;
    type_decl    = "type" IDENT ":" INT ";"
                 | "type" IDENT "=" "union" "(" type_name { "," type_name } ")" ";" ;
    top_pragma   = "#" "interface" "{" IDENT "," IDENT "}"
                 | "#" "constant"  "{" IDENT "," INT "}" ;
    thread       = "thread" IDENT "(" [ IDENT { "," IDENT } ] ")" block ;
    block        = "{" { statement } "}" ;
    statement    = var_decl | dep_pragma | assign | if | case | while | for
                 | receive | transmit | return | break | continue
                 | expr ";" | block ;
    var_decl     = type_name declarator { "," declarator } ";" ;
    declarator   = IDENT [ "[" INT "]" ] ;
    dep_pragma   = "#" ("producer"|"consumer")
                   "{" IDENT { "," "[" IDENT "," IDENT "]" } "}" ;
    assign       = lvalue ("=" | "+=" | ... ) expr ";" ;
    case         = "case" "(" expr ")" "{" { arm } [ "default" ":" block ] "}" ;
    arm          = "of" expr { "," expr } ":" block ;

Dependency pragmas bind to the next assignment statement, per Figure 1 of
the paper.  User type declarations must precede their first use (the parser
needs the set of type names to disambiguate declarations from assignments).
Binary operators are parsed by precedence climbing over ``_PRECEDENCE``.
Nesting deeper than the interpreter's recursion limit allows is a located
"nesting too deep" syntax error.

The parser reads the scanner's plain ``(kind, text, line, column)``
records (:func:`repro.hic.lexer.scan`) by position, and builds a
:class:`SourceLocation` only for a token that starts an AST node or a
diagnostic.
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .errors import HicSyntaxError, SourceLocation
from .lexer import TokenKind, TokenRecord, describe, literal_value, scan
from .types import BitsType, HicType, TypeTable, UnionType

#: Binary operator precedence, loosest first (C-like).
_PRECEDENCE: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: Binary operator -> its level in ``_PRECEDENCE``.
_BINARY_LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

_ASSIGN_OPS = frozenset("= += -= *= /= %= &= |= ^= <<= >>=".split())


#: Token kinds whose text ``_check``/``_accept`` match.
_CHECKED_KINDS = (TokenKind.PUNCT, TokenKind.KEYWORD)

#: Builds a ``SourceLocation`` without the Python-level ``__new__`` that
#: ``NamedTuple`` generates (as the lexer does).
_record = tuple.__new__


def _check_target(target: ast.Expr) -> None:
    """Refuse an assignment target not rooted in a variable."""
    if ast.target_root(target) is None:
        raise HicSyntaxError(
            "assignment target must be a variable, field, or element",
            target.location,
        )


class Parser:
    """Parses a token stream into a :class:`repro.hic.ast.Program`."""

    def __init__(self, source: str):
        #: per token, its ``(kind, text, line, column)`` record
        self._records = scan(source)
        #: per token, its text if it is punctuation or a keyword, else None
        self._texts = [
            text if kind in _CHECKED_KINDS else None
            for kind, text, __, __ in self._records
        ]
        self._pos = 0
        self.types = TypeTable()

    # -- token-stream helpers -----------------------------------------------------

    def _location(self, record: TokenRecord) -> SourceLocation:
        """Where ``record``'s token starts."""
        return _record(SourceLocation, (record[2], record[3], "<hic>"))

    def _expected(self, what: str) -> HicSyntaxError:
        """``expected <what>, found <the next token>``, located there."""
        record = self._records[self._pos]
        return HicSyntaxError(
            f"expected {what}, found {describe(record[0], record[1])}",
            self._location(record),
        )

    def _advance(self) -> TokenRecord:
        record = self._records[self._pos]
        if record[0] is not TokenKind.EOF:
            self._pos += 1
        return record

    def _check(self, text: str) -> bool:
        return self._texts[self._pos] == text

    def _accept(self, text: str) -> Optional[TokenRecord]:
        if self._texts[self._pos] != text:
            return None
        self._pos += 1
        return self._records[self._pos - 1]

    def _expect(self, text: str) -> TokenRecord:
        if self._texts[self._pos] != text:
            raise self._expected(repr(text))
        self._pos += 1
        return self._records[self._pos - 1]

    def _expect_ident(self) -> TokenRecord:
        record = self._records[self._pos]
        if record[0] is not TokenKind.IDENT:
            raise self._expected("identifier")
        self._pos += 1
        return record

    def _expect_int(self) -> int:
        """The value of the next token, an integer literal."""
        record = self._records[self._pos]
        if record[0] is not TokenKind.INT:
            raise self._expected("integer literal")
        self._pos += 1
        return literal_value(TokenKind.INT, record[1])

    def _parse_type_name(self) -> HicType:
        record = self._records[self._pos]
        if record[0] not in (TokenKind.KEYWORD, TokenKind.IDENT):
            raise self._expected("type name")
        self._pos += 1
        try:
            return self.types.lookup(record[1])
        except KeyError:
            raise HicSyntaxError(f"unknown type {record[1]!r}", self._location(record))

    # -- top level ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program(location=self._location(self._records[0]))
        try:
            while self._records[self._pos][0] is not TokenKind.EOF:
                if self._check("type"):
                    self._parse_type_decl()
                elif self._check("thread"):
                    program.threads.append(self._parse_thread())
                elif self._records[self._pos][0] is TokenKind.HASH:
                    self._parse_top_pragma(program)
                else:
                    raise self._expected("'thread', 'type', or pragma at top level")
        except RecursionError:
            # Blocks, parentheses and unary operators nest by recursion.
            raise HicSyntaxError(
                "nesting too deep", self._location(self._records[self._pos])
            ) from None
        return program

    def _parse_type_decl(self) -> None:
        self._expect("type")
        name = self._expect_ident()
        if self._accept(":"):
            declared: HicType = BitsType(name[1], self._expect_int())
        else:
            self._expect("=")
            self._expect("union")
            self._expect("(")
            members = [self._parse_type_name()]
            while self._accept(","):
                members.append(self._parse_type_name())
            self._expect(")")
            declared = UnionType(name[1], tuple(members))
        self._expect(";")
        try:
            self.types.declare(declared)
        except KeyError as exc:
            raise HicSyntaxError(str(exc), self._location(name))

    def _parse_top_pragma(self, program: ast.Program) -> None:
        location = self._location(self._advance())  # the HASH
        keyword = self._expect_ident()
        if keyword[1] == "interface":
            self._expect("{")
            name = self._expect_ident()[1]
            self._expect(",")
            kind = self._expect_ident()[1]
            self._expect("}")
            program.interfaces.append(ast.InterfacePragma(name, kind, location))
        elif keyword[1] == "constant":
            self._expect("{")
            name = self._expect_ident()[1]
            self._expect(",")
            negative = bool(self._accept("-"))
            value = self._expect_int()
            if negative:
                value = -value
            self._expect("}")
            program.constants.append(ast.ConstantPragma(name, value, location))
        else:
            raise HicSyntaxError(
                f"pragma #{keyword[1]} is not allowed at top level "
                "(only #interface and #constant)",
                self._location(keyword),
            )

    def _parse_thread(self) -> ast.Thread:
        location = self._location(self._expect("thread"))
        name = self._expect_ident()[1]
        self._expect("(")
        params: list[str] = []
        if not self._check(")"):
            params.append(self._expect_ident()[1])
            while self._accept(","):
                params.append(self._expect_ident()[1])
        self._expect(")")
        body = self._parse_block()
        return ast.Thread(name, params, body, location)

    # -- statements -------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        location = self._location(self._expect("{"))
        block = ast.Block(location=location)
        pending_pragmas: list[ast.DependencyPragma] = []
        while self._texts[self._pos] != "}":
            kind = self._records[self._pos][0]
            if kind is TokenKind.EOF:
                raise HicSyntaxError("unterminated block", location)
            if kind is TokenKind.HASH:
                pending_pragmas.append(self._parse_dep_pragma())
                continue
            stmt = self._parse_statement()
            if pending_pragmas:
                if not isinstance(stmt, ast.Assign):
                    raise HicSyntaxError(
                        "producer/consumer pragma must immediately precede an "
                        "assignment statement",
                        pending_pragmas[0].location,
                    )
                stmt.pragmas.extend(pending_pragmas)
                pending_pragmas = []
            block.statements.append(stmt)
        if pending_pragmas:
            raise HicSyntaxError(
                "dangling pragma at end of block", pending_pragmas[0].location
            )
        self._expect("}")
        return block

    def _parse_dep_pragma(self) -> ast.DependencyPragma:
        location = self._location(self._advance())  # the HASH
        keyword = self._expect_ident()
        if keyword[1] not in ("producer", "consumer"):
            raise HicSyntaxError(
                f"unknown statement pragma #{keyword[1]}", self._location(keyword)
            )
        self._expect("{")
        dep_id = self._expect_ident()[1]
        links: list[ast.DependencyLink] = []
        while self._accept(","):
            self._expect("[")
            thread = self._expect_ident()[1]
            self._expect(",")
            variable = self._expect_ident()[1]
            self._expect("]")
            links.append(ast.DependencyLink(thread, variable))
        self._expect("}")
        if not links:
            raise HicSyntaxError(
                f"pragma #{keyword[1]} needs at least one [thread, var] link",
                self._location(keyword),
            )
        if keyword[1] == "producer":
            return ast.ProducerPragma(dep_id, links, location)
        return ast.ConsumerPragma(dep_id, links, location)

    def _parse_statement(self) -> ast.Stmt:
        text = self._texts[self._pos]
        if text is None:  # an identifier, a literal or the end of the input
            record = self._records[self._pos]
            if record[0] is TokenKind.IDENT and record[1] in self.types:
                return self._parse_var_decl()
            return self._parse_assign_or_expr()
        return _STATEMENT_PARSERS.get(text, Parser._parse_assign_or_expr)(self)

    def _parse_var_decl(self) -> ast.VarDecl:
        location = self._location(self._records[self._pos])
        var_type = self._parse_type_name()
        names: list[str] = []
        sizes: list[int] = []
        while True:
            names.append(self._expect_ident()[1])
            if self._accept("["):
                size = self._expect_int()
                if size <= 0:
                    raise HicSyntaxError("array size must be positive", location)
                sizes.append(size)
                self._expect("]")
            else:
                sizes.append(0)
            if not self._accept(","):
                break
        self._expect(";")
        return ast.VarDecl(names, var_type, sizes, location)

    def _parse_if(self) -> ast.If:
        location = self._location(self._expect("if"))
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then_body = self._parse_block()
        else_body: Optional[ast.Block] = None
        if self._accept("else"):
            if self._check("if"):
                nested = self._parse_if()
                else_body = ast.Block([nested], nested.location)
            else:
                else_body = self._parse_block()
        return ast.If(cond, then_body, else_body, location)

    def _parse_case(self) -> ast.Case:
        location = self._location(self._expect("case"))
        self._expect("(")
        selector = self._parse_expr()
        self._expect(")")
        self._expect("{")
        arms: list[ast.CaseArm] = []
        default: Optional[ast.Block] = None
        while not self._check("}"):
            if self._accept("default"):
                self._expect(":")
                if default is not None:
                    raise HicSyntaxError(
                        "case statement has more than one default arm", location
                    )
                default = self._parse_block()
            else:
                arm_location = self._location(self._expect("of"))
                values = [self._parse_expr()]
                while self._accept(","):
                    values.append(self._parse_expr())
                self._expect(":")
                body = self._parse_block()
                arms.append(ast.CaseArm(values, body, arm_location))
        self._expect("}")
        if not arms and default is None:
            raise HicSyntaxError("empty case statement", location)
        return ast.Case(selector, arms, default, location)

    def _parse_while(self) -> ast.While:
        location = self._location(self._expect("while"))
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = self._parse_block()
        return ast.While(cond, body, location)

    def _parse_for(self) -> ast.For:
        location = self._location(self._expect("for"))
        self._expect("(")
        init: Optional[ast.Assign] = None
        if not self._check(";"):
            init = self._parse_bare_assign()
        self._expect(";")
        cond: Optional[ast.Expr] = None
        if not self._check(";"):
            cond = self._parse_expr()
        self._expect(";")
        step: Optional[ast.Assign] = None
        if not self._check(")"):
            step = self._parse_bare_assign()
        self._expect(")")
        body = self._parse_block()
        return ast.For(init, cond, step, body, location)

    def _parse_receive(self) -> ast.Receive:
        location = self._location(self._expect("receive"))
        self._expect("(")
        target = self._expect_ident()
        self._expect(",")
        interface = self._expect_ident()[1]
        self._expect(")")
        self._expect(";")
        return ast.Receive(
            ast.Name(target[1], self._location(target)), interface, location
        )

    def _parse_transmit(self) -> ast.Transmit:
        location = self._location(self._expect("transmit"))
        self._expect("(")
        source = self._parse_expr()
        self._expect(",")
        interface = self._expect_ident()[1]
        self._expect(")")
        self._expect(";")
        return ast.Transmit(source, interface, location)

    def _parse_return(self) -> ast.Return:
        location = self._location(self._expect("return"))
        value = None if self._check(";") else self._parse_expr()
        self._expect(";")
        return ast.Return(value, location)

    def _parse_break(self) -> ast.Break:
        location = self._location(self._expect("break"))
        self._expect(";")
        return ast.Break(location)

    def _parse_continue(self) -> ast.Continue:
        location = self._location(self._expect("continue"))
        self._expect(";")
        return ast.Continue(location)

    def _parse_bare_assign(self) -> ast.Assign:
        """An assignment without the trailing semicolon (for-loop headers)."""
        target = self._parse_primary()
        _check_target(target)
        op = self._texts[self._pos]
        if op not in _ASSIGN_OPS:
            raise self._expected("assignment operator")
        self._pos += 1
        value = self._parse_expr()
        return ast.Assign(target, value, op, location=target.location)

    def _parse_assign_or_expr(self) -> ast.Stmt:
        expr = self._parse_expr()
        op = self._texts[self._pos]
        if op in _ASSIGN_OPS:
            _check_target(expr)
            self._pos += 1
            value = self._parse_expr()
            self._expect(";")
            return ast.Assign(expr, value, op, location=expr.location)
        self._expect(";")
        return ast.ExprStmt(expr, expr.location)

    # -- expressions --------------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        """A conditional expression: ``cond ? a : b`` or a binary one."""
        cond = self._parse_binary(0)
        if self._texts[self._pos] == "?":
            self._pos += 1
            then_value = self._parse_expr()
            self._expect(":")
            else_value = self._parse_expr()
            return ast.Conditional(cond, then_value, else_value, cond.location)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: unary operands joined by left-associative
        operators of level ``min_level`` or tighter."""
        left = self._parse_unary()
        level = _BINARY_LEVEL.get(self._texts[self._pos])
        while level is not None and level >= min_level:
            op = self._texts[self._pos]
            self._pos += 1
            right = self._parse_binary(level + 1)
            left = ast.Binary(op, left, right, left.location)
            level = _BINARY_LEVEL.get(self._texts[self._pos])
        return left

    def _parse_unary(self) -> ast.Expr:
        op = self._texts[self._pos]
        if op in ("-", "!", "~"):
            location = self._location(self._records[self._pos])
            self._pos += 1
            return ast.Unary(op, self._parse_unary(), location)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        record = self._records[self._pos]
        kind = record[0]
        if kind is TokenKind.IDENT:
            self._pos += 1
            if self._texts[self._pos] == "(":
                return self._parse_postfix(self._parse_call(record))
            return self._parse_postfix(ast.Name(record[1], self._location(record)))
        if kind is TokenKind.INT:
            self._pos += 1
            value = literal_value(kind, record[1])
            return ast.IntLiteral(value, self._location(record))
        if kind is TokenKind.CHAR:
            self._pos += 1
            value = literal_value(kind, record[1])
            return ast.CharLiteral(value, self._location(record))
        text = self._texts[self._pos]
        if text == "true" or text == "false":
            self._pos += 1
            return ast.BoolLiteral(text == "true", self._location(record))
        if text == "(":
            self._pos += 1
            expr = self._parse_expr()
            self._expect(")")
            return self._parse_postfix(expr)
        raise self._expected("expression")

    def _parse_call(self, callee: TokenRecord) -> ast.Call:
        self._expect("(")
        args: list[ast.Expr] = []
        if not self._check(")"):
            args.append(self._parse_expr())
            while self._accept(","):
                args.append(self._parse_expr())
        self._expect(")")
        return ast.Call(callee[1], args, self._location(callee))

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        while True:
            text = self._texts[self._pos]
            if text == ".":
                self._pos += 1
                field_name = self._expect_ident()
                expr = ast.FieldAccess(expr, field_name[1], self._location(field_name))
            elif text == "[":
                self._pos += 1
                index = self._parse_expr()
                self._expect("]")
                expr = ast.Index(expr, index, expr.location)
            else:
                return expr


#: Statement parser by the text of a statement's leading keyword or
#: punctuation; a statement led by anything else is a declaration of a
#: user type (an identifier in the type table), an assignment or an
#: expression.
_STATEMENT_PARSERS = {
    "{": Parser._parse_block,
    "int": Parser._parse_var_decl,
    "char": Parser._parse_var_decl,
    "message": Parser._parse_var_decl,
    "if": Parser._parse_if,
    "case": Parser._parse_case,
    "while": Parser._parse_while,
    "for": Parser._parse_for,
    "receive": Parser._parse_receive,
    "transmit": Parser._parse_transmit,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
}


def parse(source: str) -> ast.Program:
    """Parse hic source text into an AST program."""
    return Parser(source).parse_program()


def parse_with_types(source: str) -> tuple[ast.Program, TypeTable]:
    """Parse and also return the type table (built-ins + user declarations)."""
    parser = Parser(source)
    program = parser.parse_program()
    return program, parser.types
