"""Front-end golden: tokens, ASTs and diagnostics, frozen.

``golden/frontend.json`` holds, for every in-repo hic source (the
``examples/*.hic`` files and the generated programs of the end-to-end
benchmark's compile grid), the sha256 of its ``(kind, text, line,
column)`` token list and of ``repr(program)``, plus the exact message
and ``line:col`` of every diagnostic in an error corpus that covers each
lexer and parser error.  A rewrite of the lexer or parser must reproduce
all of it: token boundaries, locations (which the AST ``repr`` carries
too) and error wording.

To regenerate after an *intentional* front-end change::

    PYTHONPATH=src python tests/hic/test_frontend_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.hic import HicError, parse, tokenize
from repro.net import forwarding_source
from repro.scenarios import catalog

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden" / "frontend.json"

#: Malformed inputs: every lexer and parser diagnostic, at varied
#: positions (tabs, CRLF, and multi-line comments, strings and chars
#: before the error exercise the line/column tracking).
ERROR_CORPUS = [
    # lexer
    "/* never closed",
    "x = 1;\n  /* open\n",
    "/*/",
    "thread t () { int a; a = 0123; }",
    "thread t () { int x; x = 0xZZ; }",
    "x = 0b102;",
    "0x",
    "c = '\\q';",
    "'\\",
    "''",
    "x = '",
    "'ab'",
    "\n\t'\\n",
    's = "abc',
    '"abc\\"',
    "a @ b",
    "thread t () {\n  int x;\n  x = 1 $ 2;\n}",
    '"a\nb" @',
    "'\n' @",
    "/*\n\n*/ \t@",
    "\r\n\r\nthread\t\t`",
    "x = 1;\x0c",
    # parser
    "/* multi\nline */ thread t () {\n\tint x\n}",
    "thread t ( { }",
    "type t : x;",
    "type u = union(int, 5);",
    "type u = union(int, nothere);",
    "banana",
    "type a : 4;\ntype a : 8;",
    "#producer{d,[t,v]}",
    "#constant{c, x}",
    "#interface{eth0 gige}",
    "thread t () { int x;",
    "thread t () { int x; #producer{d,[t,x]}\n while (x) { x = 0; } }",
    "thread t () { int x; x = 1; #producer{d,[t,x]} }",
    "thread t () { #interface{e, g}\n}",
    "thread t () { int x; #producer{d}\n x = 1; }",
    "thread t () { int table[0]; }",
    "thread t () { int s; case (s) { default: { } default: { } } }",
    "thread t () { int s; case (s) { } }",
    "thread t () { 1 = x; }",
    "thread t () { int i; for (1 = 0; ;) { } }",
    "thread t () { int i; for (i < 3; ;) { } }",
    "thread t () {\n  int x;\n  x = ;\n}",
    'thread t () { int x; x = "s\ntr"; }',
    "thread t () { int x; x = (1 + 2; }",
    "thread t () { int x; x = x ? 1 2; }",
    "thread t () { message m; m.5 = 1; }",
    "thread t () { int x; x = f(1,); }",
]


def in_repo_sources() -> dict[str, str]:
    """Every hic program the repository ships or generates for the
    compile grid, by name."""
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted((ROOT / "examples").glob("*.hic"))
    }
    for size in (2, 4, 8, 16):
        sources[f"forwarding{size}"] = forwarding_source(size)
        sources[f"pipeline{size}"] = catalog.pipeline_source(size)
    for size in (2, 4, 8):
        sources[f"fanout{size}"] = catalog.fanout_source(size)
        sources[f"fanin{size}"] = catalog.fanin_source(size)
    return sources


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_record(source: str) -> dict[str, str]:
    tokens = [
        [token.kind.name, token.text, token.location.line, token.location.column]
        for token in tokenize(source)
    ]
    return {
        "tokens": _sha256(json.dumps(tokens)),
        "program": _sha256(repr(parse(source))),
    }


def error_record(source: str) -> dict[str, str]:
    try:
        parse(source)
    except HicError as error:
        return {
            "source": source,
            "error": type(error).__name__,
            "message": error.message,
            "at": f"{error.location.line}:{error.location.column}",
        }
    raise AssertionError(f"{source!r} parsed without a diagnostic")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(in_repo_sources()))
def test_source_tokens_and_ast_match_golden(name):
    assert source_record(in_repo_sources()[name]) == _golden()["sources"][name]


def test_golden_covers_every_source():
    assert sorted(_golden()["sources"]) == sorted(in_repo_sources())


def test_error_corpus_matches_golden():
    assert [entry["source"] for entry in _golden()["errors"]] == ERROR_CORPUS


@pytest.mark.parametrize("index", range(len(ERROR_CORPUS)))
def test_diagnostic_matches_golden(index):
    assert error_record(ERROR_CORPUS[index]) == _golden()["errors"][index]


def _regenerate():
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {
        "sources": {
            name: source_record(source)
            for name, source in sorted(in_repo_sources().items())
        },
        "errors": [error_record(source) for source in ERROR_CORPUS],
    }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"regenerated {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
