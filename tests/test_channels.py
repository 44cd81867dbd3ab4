"""Unit tests: channel classification rules and the FIFO controller.

The five decision rules of :mod:`repro.analysis.channels` each get a
minimal program that trips exactly that rule; the FIFO controller's
MemoryController contract (grant semantics, next_wake quiescence,
wait classification, watchdog recovery, reset) is pinned directly.
"""

import pytest

from repro.analysis.channels import (
    ChannelClass,
    classify_channels,
    fifo_channel_name,
    fifo_lowered_variables,
)
from repro.core.controller import MemRequest
from repro.flow import build_simulation, compile_design
from repro.hic.semantic import analyze
from repro.memory.bram import BlockRam
from repro.memory.fifo import DEFAULT_FIFO_DEPTH, FifoChannelController
from repro.scenarios import pipeline_source, scenario_functions


def classify_source(source):
    return classify_channels(analyze(source))


STREAM_SOURCE = pipeline_source(2)


class TestClassificationRules:
    def test_clean_stream_is_fifo(self):
        decisions = classify_source(STREAM_SOURCE)
        (decision,) = decisions.values()
        assert decision.channel_class is ChannelClass.FIFO
        assert decision.reason == "single-writer in-order stream"

    def test_rule1_broadcast_is_guarded(self):
        source = """
thread producer () {
  int value, seed;
  seed = step(seed);
  #consumer{d,[a,av],[b,bv]}
  value = mix(seed);
}
thread a () {
  int av;
  #producer{d,[producer,value]}
  av = mix(value);
}
thread b () {
  int bv;
  #producer{d,[producer,value]}
  bv = mix(value);
}
"""
        (decision,) = classify_source(source).values()
        assert decision.channel_class is ChannelClass.GUARDED
        assert "broadcast" in decision.reason

    def test_rule4_producer_readback_is_guarded(self):
        source = """
thread producer () {
  int value, echo;
  #consumer{d,[sink,sv]}
  value = step(value);
  echo = mix(value);
}
thread sink () {
  int sv;
  #producer{d,[producer,value]}
  sv = mix(value);
}
"""
        (decision,) = classify_source(source).values()
        assert decision.channel_class is ChannelClass.GUARDED
        assert "reads" in decision.reason

    def test_rule5_consumer_extra_read_is_guarded(self):
        source = """
thread producer () {
  int value, seed;
  seed = step(seed);
  #consumer{d,[sink,sv]}
  value = mix(seed);
}
thread sink () {
  int sv, extra;
  #producer{d,[producer,value]}
  sv = mix(value);
  extra = mix(value);
}
"""
        (decision,) = classify_source(source).values()
        assert decision.channel_class is ChannelClass.GUARDED
        assert "outside the consuming statement" in decision.reason

    def test_helper_mappings(self):
        decisions = classify_source(STREAM_SOURCE)
        lowered = fifo_lowered_variables(decisions)
        ((thread, var), dep_id) = next(iter(lowered.items()))
        assert fifo_channel_name(dep_id) == f"fifo_{dep_id}"
        assert thread == "stage0"
        assert var == "stage0_out"


def make_channel():
    checked = analyze(STREAM_SOURCE)
    dep = checked.dependencies[0]
    return FifoChannelController(
        BlockRam(fifo_channel_name(dep.dep_id)), dep
    ), dep


def push_request(dep, data):
    return MemRequest(
        client=dep.producer_thread,
        port="B",
        address=0,
        write=True,
        data=data,
        dep_id=dep.dep_id,
    )


def pop_request(dep):
    return MemRequest(
        client=dep.consumers[0].thread,
        port="C",
        address=0,
        write=False,
        dep_id=dep.dep_id,
    )


class TestFifoControllerContract:
    def test_rejects_broadcast_dependency(self):
        checked = analyze(
            """
thread p () {
  int v, s;
  s = step(s);
  #consumer{d,[a,x],[b,y]}
  v = mix(s);
}
thread a () {
  int x;
  #producer{d,[p,v]}
  x = mix(v);
}
thread b () {
  int y;
  #producer{d,[p,v]}
  y = mix(v);
}
"""
        )
        with pytest.raises(ValueError, match="single-consumer"):
            FifoChannelController(BlockRam("f"), checked.dependencies[0])

    def test_non_fallthrough_handoff(self):
        """A value pushed in cycle t is poppable in t+1, never t — the
        one-cycle handoff the guarded organizations also exhibit."""
        channel, dep = make_channel()
        channel.submit(push_request(dep, 42))
        channel.submit(pop_request(dep))
        results = channel.arbitrate(0)
        assert results[dep.producer_thread].granted
        assert dep.consumers[0].thread not in results
        channel.submit(pop_request(dep))
        results = channel.arbitrate(1)
        assert results[dep.consumers[0].thread].data == 42

    def test_backpressure_at_depth(self):
        channel, dep = make_channel()
        for cycle in range(DEFAULT_FIFO_DEPTH + 1):
            channel.submit(push_request(dep, cycle))
            channel.arbitrate(cycle)
        assert channel.occupancy == DEFAULT_FIFO_DEPTH
        assert channel.full
        assert channel.pushed_values == list(range(DEFAULT_FIFO_DEPTH))
        # The blocked push classifies as a guard stall (backpressure).
        blocked = channel.blocked[0].request
        assert channel.classify_wait(blocked)[0] == "guard-stall"

    def test_empty_pop_blocks_and_classifies(self):
        channel, dep = make_channel()
        channel.submit(pop_request(dep))
        results = channel.arbitrate(0)
        assert results == {}
        assert channel.classify_wait(channel.blocked[0].request)[0] == (
            "blocked-read"
        )

    def test_next_wake_quiescence(self):
        """next_wake mirrors grantability exactly: a starved pop keeps
        the channel quiescent, a satisfiable one wakes it at the next
        cycle — the wheel kernel's skip-safety contract."""
        channel, dep = make_channel()
        channel.submit(pop_request(dep))
        channel.arbitrate(0)
        assert channel.next_wake(0) is None  # empty: pop can never grant
        channel.submit(push_request(dep, 7))
        channel.submit(pop_request(dep))
        channel.arbitrate(1)
        assert channel.next_wake(1) == 2  # now non-empty: pop wakes

    def test_force_unblock_starved_pop(self):
        channel, dep = make_channel()
        channel.submit(pop_request(dep))
        channel.arbitrate(0)
        assert channel.force_unblock(channel.blocked[0].request, 1)
        assert not channel.empty  # a zero datum was synthesized

    def test_force_unblock_backpressured_push(self):
        channel, dep = make_channel()
        for cycle in range(DEFAULT_FIFO_DEPTH + 1):
            channel.submit(push_request(dep, cycle))
            channel.arbitrate(cycle)
        blocked = channel.blocked[0].request
        assert channel.force_unblock(blocked, DEFAULT_FIFO_DEPTH + 1)
        assert not channel.full  # the oldest datum was dropped

    def test_default_depth(self):
        channel, __ = make_channel()
        assert channel.depth == DEFAULT_FIFO_DEPTH


class TestFlowIntegration:
    def test_fifo_lowering_removes_guarded_bram(self):
        """The acceptance-criteria shape: the all-FIFO pipeline has no
        guarded BRAM left, only channel storage."""
        design = compile_design(STREAM_SOURCE, channel_synthesis="fifo")
        assert design.memory_map.bram_names == []
        assert design.memory_map.fifo_names == ["fifo_ch0"]
        assert sorted(design.wrapper_modules) == ["fifo_ch0"]

    def test_fifo_area_much_smaller_than_guarded(self):
        guarded = compile_design(STREAM_SOURCE, channel_synthesis="guarded")
        fifo = compile_design(STREAM_SOURCE, channel_synthesis="fifo")
        guarded_slices = sum(
            guarded.area_report(n).slices for n in guarded.wrapper_modules
        )
        fifo_slices = sum(
            fifo.area_report(n).slices for n in fifo.wrapper_modules
        )
        assert fifo_slices < guarded_slices

    def test_fifo_channel_has_timing_report(self):
        design = compile_design(STREAM_SOURCE, channel_synthesis="fifo")
        report = design.timing_report("fifo_ch0")
        assert report.fmax_mhz > 0
        assert "channel_handshake" in report.critical_path

    def test_fifo_rejects_fabric(self):
        with pytest.raises(ValueError, match="fabric"):
            compile_design(
                STREAM_SOURCE, channel_synthesis="fifo", num_banks=2
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="channel_synthesis"):
            compile_design(STREAM_SOURCE, channel_synthesis="bogus")

    def test_verilog_includes_fifo_channel(self):
        design = compile_design(STREAM_SOURCE, channel_synthesis="fifo")
        text = design.verilog()
        assert "module fifo_channel_ch0" in text

    def test_guarded_default_is_unchanged(self):
        """Default compiles carry no channel artifacts at all — the
        pre-existing flow is byte-for-byte untouched."""
        design = compile_design(STREAM_SOURCE)
        assert design.channel_synthesis == "guarded"
        assert design.channel_decisions == {}
        assert design.fifo_deps == {}
        assert design.memory_map.fifo_names == []

    def test_simulation_uses_fifo_controller(self):
        design = compile_design(STREAM_SOURCE, channel_synthesis="fifo")
        sim = build_simulation(design, scenario_functions())
        assert isinstance(
            sim.controllers["fifo_ch0"], FifoChannelController
        )
        sim.run(100)
        assert sim.controllers["fifo_ch0"].in_order()
