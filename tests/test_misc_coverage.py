"""Targeted tests for paths not covered by the per-module suites."""

import pytest

from repro.core import ControllerStats, MemRequest, Organization
from repro.flow import build_simulation, compile_design
from repro.hic import TokenKind, tokenize
from repro.hic.errors import HicSyntaxError
from repro.net import Route, format_ip, ip


class TestControllerStats:
    def test_from_empty_waits(self):
        stats = ControllerStats.from_waits([])
        assert stats.count == 0
        assert stats.deterministic

    def test_deterministic_detection(self):
        assert ControllerStats.from_waits([3, 3, 3]).deterministic
        assert not ControllerStats.from_waits([3, 4]).deterministic

    def test_mean(self):
        stats = ControllerStats.from_waits([1, 2, 3])
        assert stats.mean_wait == pytest.approx(2.0)
        assert stats.min_wait == 1
        assert stats.max_wait == 3


class TestLexerStrings:
    def test_string_literal_token(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == '"hello world"'

    def test_string_with_escape(self):
        tokens = tokenize(r'"a\"b"')
        assert tokens[0].kind is TokenKind.STRING

    def test_unterminated_string(self):
        with pytest.raises(HicSyntaxError):
            tokenize('"never closed')

    def test_token_str(self):
        token = tokenize("abc")[0]
        assert "abc" in str(token)


class TestRouteFormatting:
    def test_route_str(self):
        route = Route(ip(10, 1, 0, 0), 16, 3)
        assert str(route) == "10.1.0.0/16 -> port 3"

    def test_format_ip_zero(self):
        assert format_ip(0) == "0.0.0.0"


class TestExecutorErrorPaths:
    def test_message_on_register_raises(self):
        # Force a bogus transmit of a scalar via a hand-built design: the
        # parser prevents this, so call the helper directly.
        design = compile_design("thread t () { int x; x = 1; }")
        sim = build_simulation(design)
        executor = sim.executors["t"]
        with pytest.raises(KeyError, match="not BRAM-resident"):
            executor._load_message("x")


class TestOrganizationEnum:
    def test_values_match_cli_choices(self):
        assert {o.value for o in Organization} == {
            "arbitrated",
            "event_driven",
            "lock_baseline",
        }


class TestRequestKey:
    def test_key_identity(self):
        a = MemRequest("t", "C", 3, False, dep_id="d")
        b = MemRequest("t", "C", 3, False, dep_id="d")
        assert a.key == b.key
        assert a == b
