"""Integration: the §4/§6 scalability and reuse claims.

"The arbitrated memory organization is simpler to implement since the base
architecture is fixed and only the multiplexing required to support new
consumer thread needs to be added and no changes need to be made to the
thread related state machine(s). ... [For the event-driven organization]
if one needs to add new consumer threads, we have to modify both the
multiplexing structure ... as well as the state machine related to the
thread."
"""

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.fpga import estimate_area
from repro.hic.pragmas import ConsumerRef, Dependency
from repro.rtl import (
    WrapperParams,
    generate_arbitrated_wrapper,
    generate_event_driven_wrapper,
)
from tests.conftest import make_fanout_source


def fanout_dep(consumers):
    return Dependency(
        "d0",
        "prod",
        "x",
        tuple(ConsumerRef(f"c{i}", f"v{i}") for i in range(consumers)),
    )


class TestArbitratedScalability:
    def test_adding_a_consumer_changes_only_muxing(self):
        base = generate_arbitrated_wrapper(WrapperParams(consumers=4))
        grown = generate_arbitrated_wrapper(WrapperParams(consumers=5))
        # Fixed base architecture: same flip-flop count...
        assert estimate_area(base).ffs == estimate_area(grown).ffs == 66
        # ...only LUTs (the muxing) change.
        assert estimate_area(grown).luts > estimate_area(base).luts

    def test_existing_thread_fsms_unchanged_when_consumer_added(self):
        # Synthesize the 4- and 5-consumer programs; threads present in
        # both must have identical state machines (no regeneration).
        small = compile_design(make_fanout_source(4))
        large = compile_design(make_fanout_source(5))
        for name in ("c0", "c1", "c2", "c3"):
            fsm_small = small.fsms[name]
            fsm_large = large.fsms[name]
            assert fsm_small.state_count == fsm_large.state_count
            assert sorted(fsm_small.states) == sorted(fsm_large.states)

    def test_same_wrapper_interface_grows_by_one_port(self):
        base = generate_arbitrated_wrapper(WrapperParams(consumers=4))
        grown = generate_arbitrated_wrapper(WrapperParams(consumers=5))
        req_base = next(p for p in base.ports if p.name == "portc_req")
        req_grown = next(p for p in grown.ports if p.name == "portc_req")
        assert req_grown.width == req_base.width + 1


class TestEventDrivenRegeneration:
    def test_adding_a_consumer_changes_registers_too(self):
        base = generate_event_driven_wrapper(
            WrapperParams(consumers=4), [fanout_dep(4)]
        )
        grown = generate_event_driven_wrapper(
            WrapperParams(consumers=5), [fanout_dep(5)]
        )
        # The selection/event state changes: FF count moves.
        assert estimate_area(grown).ffs > estimate_area(base).ffs

    def test_slot_schedule_length_changes(self):
        base = generate_event_driven_wrapper(
            WrapperParams(consumers=4), [fanout_dep(4)]
        )
        grown = generate_event_driven_wrapper(
            WrapperParams(consumers=5), [fanout_dep(5)]
        )
        base_req = next(p for p in base.ports if p.name == "portb_req")
        grown_req = next(p for p in grown.ports if p.name == "portb_req")
        assert grown_req.width == grown_req.width
        assert grown_req.width == base_req.width + 1

    def test_consumer_chain_timing_shifts_for_existing_consumers(self):
        # Adding a consumer does not change earlier consumers' slot ranks,
        # but it lengthens the producer's round trip: the schedule grows.
        from repro.core import ModuloSchedule

        small = ModuloSchedule.build([fanout_dep(4)])
        large = ModuloSchedule.build([fanout_dep(5)])
        ranks = [slot.thread for slot in small.slots]
        assert [slot.thread for slot in large.slots][: len(small)] == ranks
        assert len(large) == len(small) + 1


class TestMultiBramDesigns:
    def test_dependencies_split_across_brams(self):
        # Two producers with big arrays that cannot share one BRAM.
        source = """
        thread pa () { int big_a[300], xa, ta;
          ta = big_a[0];
          #consumer{da,[ca,va]}
          xa = f(ta);
        }
        thread ca () { int va;
          #producer{da,[pa,xa]}
          va = g(xa);
        }
        thread pb () { int big_b[300], xb, tb;
          tb = big_b[0];
          #consumer{db,[cb,vb]}
          xb = f(tb);
        }
        thread cb () { int vb;
          #producer{db,[pb,xb]}
          vb = g(xb);
        }
        """
        design = compile_design(source)
        assert design.memory_map.bram_count() == 2
        # Each BRAM gets its own wrapper guarding its own dependency.
        total_deps = sum(len(deps) for deps in design.dep_groups.values())
        assert total_deps == 2
        assert len(design.wrapper_modules) == 2

        sim = build_simulation(design)
        sim.run(300)
        assert sim.executors["ca"].stats.rounds_completed > 0
        assert sim.executors["cb"].stats.rounds_completed > 0

    def test_per_bram_controllers_are_independent(self):
        source = """
        thread pa () { int big_a[300], xa, ta;
          ta = big_a[0];
          #consumer{da,[ca,va]}
          xa = f(ta);
        }
        thread ca () { int va;
          #producer{da,[pa,xa]}
          va = g(xa);
        }
        thread pb () { int big_b[300], xb, tb;
          tb = big_b[0];
          #consumer{db,[cb,vb]}
          xb = f(tb);
        }
        thread cb () { int vb;
          #producer{db,[pb,xb]}
          vb = g(xb);
        }
        """
        for org in (Organization.ARBITRATED, Organization.EVENT_DRIVEN):
            design = compile_design(source, organization=org)
            sim = build_simulation(design)
            sim.run(300)
            assert len(sim.controllers) == 2
            for controller in sim.controllers.values():
                assert controller.latency_samples
