"""Unit tests for hic semantic analysis."""

import pytest

from repro.hic import (
    HicNameError,
    HicSemanticError,
    HicTypeError,
    SymbolKind,
    analyze,
)


class TestScopes:
    def test_figure1_scopes(self, figure1_checked):
        scope = figure1_checked.scope("t1")
        assert {"x1", "xtmp", "x2"} <= set(scope.symbols)

    def test_shared_import_visible_in_consumer(self, figure1_checked):
        scope = figure1_checked.scope("t2")
        assert scope.symbols["x1"].kind is SymbolKind.SHARED

    def test_shared_import_keeps_producer_type(self):
        source = """
        type addr : 9;
        thread a () { addr p; int t;
          #consumer{d,[b,v]}
          p = f(t);
        }
        thread b () { int v;
          #producer{d,[a,p]}
          v = g(p);
        }
        """
        checked = analyze(source)
        assert checked.symbol("b", "p").hic_type.bit_width == 9

    def test_duplicate_variable_rejected(self):
        with pytest.raises(HicNameError):
            analyze("thread t () { int x; char x; }")

    def test_duplicate_thread_rejected(self):
        with pytest.raises(HicNameError):
            analyze("thread t () { int x; }\nthread t () { int y; }")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(HicNameError):
            analyze("thread t () { int x; x = y; }")

    def test_local_decl_conflicting_with_shared_import(self):
        source = """
        thread a () { int p, t;
          #consumer{d,[b,v]}
          p = f(t);
        }
        thread b () { int v, p;
          #producer{d,[a,p]}
          v = g(p);
        }
        """
        with pytest.raises(HicNameError, match="declared locally"):
            analyze(source)

    def test_constants_visible_in_threads(self):
        source = "#constant{host, 42}\nthread t () { int x; x = host; }"
        checked = analyze(source)
        assert checked.constants["host"] == 42

    def test_assign_to_constant_rejected(self):
        source = "#constant{host, 42}\nthread t () { host = 1; }"
        with pytest.raises(HicSemanticError):
            analyze(source)

    def test_assign_to_shared_rejected(self):
        source = """
        thread a () { int p, t;
          #consumer{d,[b,v]}
          p = f(t);
        }
        thread b () { int v;
          #producer{d,[a,p]}
          v = g(p);
          p = 0;
        }
        """
        with pytest.raises(HicSemanticError, match="producer"):
            analyze(source)


class TestTypeChecking:
    def test_arithmetic_ok(self):
        analyze("thread t () { int x, y; x = y * 2 + 1; }")

    def test_message_field_read(self):
        analyze("thread t () { message m; int x; x = m.ttl + 1; }")

    def test_message_field_write(self):
        analyze("thread t () { message m; m.ttl = m.ttl - 1; }")

    def test_field_access_on_scalar_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { int x, y; x = y.ttl; }")

    def test_unknown_message_field_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { message m; int x; x = m.bogus; }")

    def test_message_to_scalar_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { message m; int x; x = m; }")

    def test_scalar_to_message_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { message m; m = 1; }")

    def test_single_message_ok(self):
        analyze("thread t () { message m; m.ttl = 64; }")

    def test_two_messages_rejected_by_in_flight_rule(self):
        with pytest.raises(HicSemanticError):
            analyze("thread a () { message m, n; m = n; }")

    def test_array_indexing(self):
        analyze("thread t () { int a[8], i, x; x = a[i]; a[i] = x + 1; }")

    def test_index_of_non_array_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { int x, y; x = y[0]; }")

    def test_bare_array_reference_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { int a[8], x; x = a; }")

    def test_whole_array_assignment_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { int a[8]; a = 1; }")

    def test_call_args_checked(self):
        with pytest.raises(HicNameError):
            analyze("thread t () { int x; x = f(nothere); }")

    def test_message_as_call_arg_rejected(self):
        with pytest.raises(HicTypeError):
            analyze("thread t () { message m; int x; x = f(m); }")

    def test_conditional_expr(self):
        analyze("thread t () { int x, y; x = y > 0 ? y : -y; }")

    def test_comparison_yields_bool_usable_in_arith(self):
        analyze("thread t () { int x, y; x = (y > 0) + 1; }")


class TestStructuralRules:
    def test_two_messages_in_flight_rejected(self):
        with pytest.raises(HicSemanticError, match="in flight"):
            analyze("thread t () { message a; message b; }")

    def test_break_outside_loop_rejected(self):
        with pytest.raises(HicSemanticError):
            analyze("thread t () { break; }")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(HicSemanticError):
            analyze("thread t () { continue; }")

    def test_break_inside_loop_ok(self):
        analyze("thread t () { int x; while (x) { break; } }")

    def test_receive_requires_message_var(self):
        source = "#interface{eth0, gige}\nthread t () { int x; receive(x, eth0); }"
        with pytest.raises(HicTypeError):
            analyze(source)

    def test_receive_requires_declared_interface(self):
        source = "thread t () { message m; receive(m, eth0); }"
        with pytest.raises(HicNameError, match="interface"):
            analyze(source)

    def test_receive_transmit_ok(self):
        source = (
            "#interface{eth0, gige}\n"
            "thread t () { message m; receive(m, eth0); transmit(m, eth0); }"
        )
        checked = analyze(source)
        assert checked.interfaces == {"eth0": "gige"}

    def test_duplicate_interface_rejected(self):
        source = "#interface{e, gige}\n#interface{e, gige}\nthread t () { int x; }"
        with pytest.raises(HicNameError):
            analyze(source)

    def test_duplicate_constant_rejected(self):
        source = "#constant{c, 1}\n#constant{c, 2}\nthread t () { int x; }"
        with pytest.raises(HicNameError):
            analyze(source)


class TestSharedVariables:
    def test_pipeline_dependencies(self, pipeline_checked):
        assert len(pipeline_checked.dependencies) == 2

    def test_symbol_lookup_helper(self, figure1_checked):
        symbol = figure1_checked.symbol("t1", "x1")
        assert symbol.hic_type.bit_width == 32

    def test_unknown_thread_lookup(self, figure1_checked):
        with pytest.raises(KeyError):
            figure1_checked.scope("ghost")
