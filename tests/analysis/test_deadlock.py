"""Unit tests for static deadlock detection."""

import pytest

from repro.analysis import assert_deadlock_free, check_deadlock
from repro.hic import analyze


class TestDeadlockDetection:
    def test_figure1_is_deadlock_free(self, figure1_checked):
        report = check_deadlock(figure1_checked)
        assert not report.deadlocked
        assert report.cycle == []

    def test_pipeline_is_deadlock_free(self, pipeline_checked):
        assert not check_deadlock(pipeline_checked).deadlocked

    def test_cross_blocking_deadlocks(self, deadlock_source):
        checked = analyze(deadlock_source)
        report = check_deadlock(checked)
        assert report.deadlocked
        assert len(report.cycle) >= 2

    def test_cycle_without_deadlock(self, cycle_no_deadlock_source):
        # Thread graph is cyclic, but each thread produces before it
        # consumes, so the order is satisfiable.
        checked = analyze(cycle_no_deadlock_source)
        assert not check_deadlock(checked).deadlocked

    def test_self_consistent_two_stage(self):
        source = """
        thread a () { int p, t;
          #consumer{d,[b,v]}
          p = f(t);
        }
        thread b () { int v;
          #producer{d,[a,p]}
          v = g(p);
        }
        """
        assert not check_deadlock(analyze(source)).deadlocked

    def test_explain_no_deadlock(self, figure1_checked):
        text = check_deadlock(figure1_checked).explain()
        assert "no static deadlock" in text

    def test_explain_deadlock_names_threads(self, deadlock_source):
        checked = analyze(deadlock_source)
        text = check_deadlock(checked).explain()
        assert "ta" in text and "tb" in text

    def test_assert_helper_raises(self, deadlock_source):
        checked = analyze(deadlock_source)
        with pytest.raises(ValueError, match="deadlock"):
            assert_deadlock_free(checked)

    def test_assert_helper_passes(self, figure1_checked):
        assert_deadlock_free(figure1_checked)
