"""Unit tests for pragma inference (the paper's use-def alternative)."""

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.hic import HicNameError, analyze, parse
from repro.hic.autopragma import apply_inferred_pragmas
from repro.sim import default_intrinsic

#: Figure 1 with the pragmas stripped: inference must recover them.
FIGURE1_BARE = """
thread t1 () {
  int x1, xtmp, x2;
  x1 = f(xtmp, x2);
}
thread t2 () {
  int y1, y2;
  y1 = g(x1, y2);
}
thread t3 () {
  int z1, z2;
  z1 = h(x1, z2);
}
"""


class TestInference:
    def test_recovers_figure1_dependency(self):
        program = parse(FIGURE1_BARE)
        inferred = apply_inferred_pragmas(program)
        assert len(inferred) == 1
        dep = inferred[0]
        assert dep.variable == "x1"
        assert dep.producer_thread == "t1"
        assert dep.consumer_threads == ("t2", "t3")

    def test_injected_pragmas_pass_full_checking(self):
        checked = analyze(FIGURE1_BARE, infer_pragmas=True)
        assert len(checked.dependencies) == 1
        dep = checked.dependencies[0]
        assert dep.dep_id == "auto_x1"
        assert dep.dependency_number == 2

    def test_inferred_design_simulates_like_explicit(self, figure1_source):
        explicit = compile_design(figure1_source)
        inferred = compile_design(FIGURE1_BARE, infer_pragmas=True)
        sims = []
        for design in (explicit, inferred):
            sim = build_simulation(design)
            sim.run(300)
            sims.append(
                (sim.executors["t2"].env["y1"], sim.executors["t3"].env["z1"])
            )
        assert sims[0] == sims[1]
        f, g = default_intrinsic("f"), default_intrinsic("g")
        assert sims[1][0] == g(f(0, 0), 0)

    def test_explicit_pragmas_suppress_inference(self, figure1_source):
        program = parse(figure1_source)
        inferred = apply_inferred_pragmas(program)
        assert inferred == []

    def test_private_variables_not_inferred(self):
        program = parse("thread t () { int a, b; a = 1; b = a; }")
        assert apply_inferred_pragmas(program) == []

    def test_multi_writer_skipped(self):
        source = """
        thread a () { int s, q; s = 1; s = q; }
        thread b () { int r; r = g(s); }
        """
        program = parse(source)
        assert apply_inferred_pragmas(program) == []

    def test_ambiguous_consumer_skipped(self):
        source = """
        thread a () { int s, q; s = f(q); }
        thread b () { int r, u; r = g(s); u = g(s); }
        """
        program = parse(source)
        assert apply_inferred_pragmas(program) == []

    def test_locally_shadowed_name_skipped(self):
        source = """
        thread a () { int s, q; s = f(q); }
        thread b () { int s, r; s = 2; r = g(s); }
        """
        program = parse(source)
        # b declares (and writes) its own s: two writers -> no inference.
        assert apply_inferred_pragmas(program) == []

    def test_event_driven_with_inference(self):
        design = compile_design(
            FIGURE1_BARE,
            infer_pragmas=True,
            organization=Organization.EVENT_DRIVEN,
        )
        sim = build_simulation(design)
        sim.run(300)
        assert sim.executors["t2"].stats.rounds_completed > 0

    def test_pipeline_inference(self):
        source = """
        thread s1 () { int a, raw; a = f(raw); }
        thread s2 () { int b; b = g(a); }
        """
        checked = analyze(source, infer_pragmas=True)
        assert [d.dep_id for d in checked.dependencies] == ["auto_a"]

    def test_figure1_like_inference_without_pragmas(self):
        # Threads share variable names; writer t1, readers t2/t3.
        source = """
        thread t1 () { int x1, a; x1 = f(a); }
        thread t2 () { int y1; y1 = g(x1); }
        thread t3 () { int z1; z1 = h(x1); }
        """
        inferred = apply_inferred_pragmas(parse(source))
        by_var = {d.variable: d for d in inferred}
        assert "x1" in by_var
        dep = by_var["x1"]
        assert dep.producer_thread == "t1"
        assert set(dep.consumer_threads) == {"t2", "t3"}

    def test_multi_writer_variable_skipped(self):
        source = """
        thread a () { int s; s = 1; }
        thread b () { int q; s = 2; q = s; }
        """
        inferred = apply_inferred_pragmas(parse(source))
        assert all(d.variable != "s" for d in inferred)

    def test_inferred_ids_are_stable(self):
        source = """
        thread t1 () { int x, a; x = f(a); }
        thread t2 () { int y; y = g(x); }
        """
        inferred = apply_inferred_pragmas(parse(source))
        assert inferred[0].dep_id == "auto_x"

    def test_two_producing_statements_infer_nothing(self):
        """One producing statement per variable: a variable written twice
        in its thread gets no pragma, so its reader's use stays an
        undeclared name."""
        source = """
        thread p () { int x; x = 1; x = x + 2; }
        thread c () { int y; y = x; }
        """
        assert apply_inferred_pragmas(parse(source)) == []
        with pytest.raises(HicNameError, match="'x' is not declared"):
            analyze(source, infer_pragmas=True)
