"""Netlist generators for the two memory organizations and thread FSMs.

These generators are the reproduction's equivalent of the paper's RTL
emission: every structural parameter (dependency-list capacity, number of
consumer pseudo-ports, slot count of the selection logic) maps to concrete
primitive instances, so the area and timing reported for a configuration
are computed from the same structure the Verilog emitter prints.

Baseline calibration (§4): "The constant flip-flop count is due to the
baseline architecture (as in Figure 2) which requires 66 flip-flops."  The
arbitrated wrapper's fixed part decomposes as:

====================================  ====
dependency list, 4 entries x (9-bit
address + valid + 4-bit counter)        56
port-C round-robin arbiter pointer
(sized for the 8-client maximum)         3
wrapper control FSM (5 states)           3
per-port-class grant register            4
====================================  ====
total                                   66

Consumer pseudo-ports add only multiplexing and request-decode LUTs,
"the additional multiplexing of pseudo-ports does not contribute to the
flip-flop count but only to the LUT count" — which the generator below
reproduces structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.modulo import ModuloSchedule
from ..hic.pragmas import Dependency
from ..synth.binding import DatapathSummary
from ..synth.fsm import ThreadFsm
from .netlist import Module, PortDirection
from .primitives import (
    Adder,
    BramMacro,
    CamRow,
    Counter,
    Decoder,
    Demux,
    EqComparator,
    FsmLogic,
    MagComparator,
    Mux,
    PriorityEncoder,
    Register,
    RandomLogic,
    RoundRobinArbiterMacro,
    clog2,
)

#: Design-time capacity of the dependency list (entries).  Part of the
#: fixed baseline; the E7 ablation sweeps it.
DEFAULT_DEPLIST_ENTRIES = 4

#: The baseline round-robin arbiter is sized for this many consumer
#: clients; adding consumers up to this limit changes only the muxing.
BASELINE_MAX_CONSUMERS = 8

#: BRAM word address and data widths (512x36 aspect ratio).
ADDRESS_BITS = 9
DATA_BITS = 36

#: Counter width of a dependency-list entry (supports dn <= 15).
COUNTER_BITS = 4


@dataclass
class WrapperParams:
    """Generation parameters shared by both organizations."""

    consumers: int
    producers: int = 1
    deplist_entries: int = DEFAULT_DEPLIST_ENTRIES


def generate_arbitrated_wrapper(
    params: WrapperParams, instance_suffix: str = ""
) -> Module:
    """The §3.1 arbitrated memory organization around one BRAM.

    Structure (Figure 2): the BRAM with port A direct on physical port 0;
    ports B/C/D sharing physical port 1 behind the priority logic; the
    CAM-matched dependency list with per-entry counters; round-robin
    arbiters for the C and D client buses; and the consumer pseudo-port
    multiplexing that scales with ``params.consumers``.
    """
    m = Module(
        name=f"arbitrated_wrapper{instance_suffix}_c{params.consumers}"
    )
    m.add_port("clk", PortDirection.INPUT)
    m.add_port("rst", PortDirection.INPUT)
    m.add_port("porta_addr", PortDirection.INPUT, ADDRESS_BITS)
    m.add_port("porta_wdata", PortDirection.INPUT, DATA_BITS)
    m.add_port("porta_rdata", PortDirection.OUTPUT, DATA_BITS)
    m.add_port("portc_req", PortDirection.INPUT, params.consumers)
    m.add_port("portc_addr", PortDirection.INPUT,
               ADDRESS_BITS * params.consumers)
    m.add_port("portc_rdata", PortDirection.OUTPUT, DATA_BITS)
    m.add_port("portc_grant", PortDirection.OUTPUT, params.consumers)
    m.add_port("portd_req", PortDirection.INPUT, params.producers)
    m.add_port("portd_addr", PortDirection.INPUT,
               ADDRESS_BITS * params.producers)
    m.add_port("portd_wdata", PortDirection.INPUT,
               DATA_BITS * params.producers)
    m.add_port("portd_grant", PortDirection.OUTPUT, params.producers)

    m.add_net("p1_addr", ADDRESS_BITS)
    m.add_net("p1_wdata", DATA_BITS)
    m.add_net("match_line", params.deplist_entries)
    m.add_net("count_nz", params.deplist_entries)
    m.add_net("grant_c", params.consumers)
    m.add_net("grant_d", params.producers)
    m.add_net("class_sel", 2)

    # The physical BRAM.
    m.add_instance("bram", BramMacro(), {"addr_a": "porta_addr"})

    # Dependency list: CAM rows + produce-consume counters (fixed baseline).
    for i in range(params.deplist_entries):
        m.add_instance(
            f"dep_row{i}",
            CamRow(key_bits=ADDRESS_BITS),
            {"match": "match_line"},
        )
        m.add_instance(
            f"dep_count{i}",
            Counter(width=COUNTER_BITS),
            {"nonzero": "count_nz"},
        )

    # Round-robin arbiters, sized for the baseline maximum (fixed FF cost).
    m.add_instance(
        "arb_c",
        RoundRobinArbiterMacro(clients=BASELINE_MAX_CONSUMERS),
        {"grant": "grant_c"},
    )
    if params.producers > 1:
        m.add_instance(
            "arb_d",
            RoundRobinArbiterMacro(clients=params.producers),
            {"grant": "grant_d"},
        )

    # Port-class priority selection (D > C > B) and wrapper control FSM.
    m.add_instance("prio", PriorityEncoder(inputs=3), {"sel": "class_sel"})
    m.add_instance(
        "ctrl",
        FsmLogic(states=5, transitions=8),
        {"clk": "clk", "rst": "rst"},
    )
    m.add_instance("grant_reg", Register(width=4), {"clk": "clk"})

    # Consumer pseudo-port multiplexing: scales with the consumer count but
    # adds no flip-flops (matching the paper's observation).
    m.add_instance(
        "c_addr_mux",
        Mux(width=ADDRESS_BITS, inputs=params.consumers),
        {"out": "p1_addr"},
    )
    m.add_instance(
        "c_req_logic", RandomLogic(lut_count=params.consumers)
    )
    m.add_instance("c_grant_dec", Decoder(outputs=params.consumers))

    # Producer port muxing (free for the single-producer scenarios).
    m.add_instance(
        "d_mux",
        Mux(
            width=ADDRESS_BITS + DATA_BITS,
            inputs=params.producers,
        ),
        {"out": "p1_wdata"},
    )

    # Critical path: CAM match -> match-line OR tree -> counter-nonzero ->
    # class priority -> round-robin grant -> consumer address mux -> BRAM
    # address pins.  The OR tree over the match lines is what deepens when
    # the dependency list grows (the §6 ablation's timing effect).
    cam_levels = CamRow(ADDRESS_BITS).logic_levels()
    match_tree = _or_tree_levels(params.deplist_entries)
    path = (
        cam_levels
        + match_tree
        + 1  # counter non-zero gate
        + PriorityEncoder(inputs=3).logic_levels()
        + RoundRobinArbiterMacro(BASELINE_MAX_CONSUMERS).logic_levels()
        + Mux(ADDRESS_BITS, params.consumers).logic_levels()
    )
    m.note_path("guarded_read", path)
    m.note_path(
        "producer_write",
        cam_levels + match_tree + 1 + PriorityEncoder(inputs=3).logic_levels()
        + Mux(ADDRESS_BITS + DATA_BITS,
              params.producers).logic_levels() + 1,
    )
    return m


def _or_tree_levels(inputs: int) -> int:
    """Depth of a 4-input-LUT OR tree over ``inputs`` lines."""
    levels = 0
    remaining = inputs
    while remaining > 1:
        remaining = -(-remaining // 4)
        levels += 1
    return levels


def generate_event_driven_wrapper(
    params: WrapperParams,
    dependencies: list[Dependency],
    instance_suffix: str = "",
) -> Module:
    """The §3.2 event-driven statically scheduled organization.

    Structure (Figure 3): port A direct; port B behind a mux (c) / demux
    (a) network driven by the modulo-scheduling selection logic; event
    registers chaining the producer's write into each consumer in the
    compile-time order.
    """
    schedule = ModuloSchedule.build(dependencies)
    slots = max(1, len(schedule))
    m = Module(
        name=f"event_driven_wrapper{instance_suffix}_c{params.consumers}"
    )
    m.add_port("clk", PortDirection.INPUT)
    m.add_port("rst", PortDirection.INPUT)
    m.add_port("porta_addr", PortDirection.INPUT, ADDRESS_BITS)
    m.add_port("porta_wdata", PortDirection.INPUT, DATA_BITS)
    m.add_port("porta_rdata", PortDirection.OUTPUT, DATA_BITS)
    m.add_port("portb_req", PortDirection.INPUT, slots)
    m.add_port("portb_addr", PortDirection.INPUT,
               ADDRESS_BITS * slots)
    m.add_port("portb_rdata", PortDirection.OUTPUT, DATA_BITS)
    m.add_port("event_out", PortDirection.OUTPUT, max(1, params.consumers))

    m.add_net("select", schedule.select_bits)
    m.add_net("slot_onehot", slots)
    m.add_net("p1_addr", ADDRESS_BITS)

    m.add_instance("bram", BramMacro(), {"addr_a": "porta_addr"})

    # Selection logic: slot register + modulo advance + slot decoder.
    m.add_instance(
        "select_reg", Register(width=schedule.select_bits), {"clk": "clk"}
    )
    m.add_instance("select_inc", Counter(width=schedule.select_bits))
    m.add_instance(
        "wrap_cmp", EqComparator(width=schedule.select_bits)
    )
    m.add_instance("slot_dec", Decoder(outputs=slots), {"sel": "slot_onehot"})

    # The mux (c) and demux (a) network of Figure 3.
    m.add_instance(
        "b_addr_mux",
        Mux(width=ADDRESS_BITS, inputs=slots),
        {"out": "p1_addr"},
    )
    m.add_instance(
        "b_wdata_mux",
        Mux(width=DATA_BITS, inputs=max(1, params.producers)),
    )
    m.add_instance(
        "b_rdata_demux",
        Demux(width=1, outputs=slots),
    )

    # Event chain: one event register per consumer endpoint.
    m.add_instance(
        "event_reg", Register(width=params.consumers), {"clk": "clk"}
    )
    m.add_instance("event_chain", RandomLogic(lut_count=2 * params.consumers))

    # Selection control FSM (block / advance handshake).
    m.add_instance(
        "ctrl", FsmLogic(states=4, transitions=6), {"clk": "clk", "rst": "rst"}
    )
    m.add_instance("sync_reg", Register(width=2), {"clk": "clk"})

    # Critical path: slot decode -> request gate -> control gate ->
    # port-B address mux -> BRAM address pins, plus the event handshake
    # whose fanout into the consumer FSMs grows with the consumer count
    # (this is why the event-driven frequency advantage narrows as
    # consumers are added, as in the paper's 177/136/129 MHz series).
    path = (
        Decoder(outputs=slots).logic_levels()
        + 1  # request/slot gating
        + FsmLogic(states=4, transitions=6).logic_levels()
        + Mux(ADDRESS_BITS, slots).logic_levels()
        + 1  # event handshake into the chain register
        + clog2(max(1, params.consumers))  # event fanout buffering
    )
    m.note_path("scheduled_access", path)
    return m


def generate_lock_baseline(
    params: WrapperParams, instance_suffix: str = ""
) -> Module:
    """A hand-built lock/flag controller (for the E8 comparison): lock and
    valid words in registers, plus the probe/compare logic each client
    needs.  No CAM, but every client carries its own protocol FSM."""
    clients = params.consumers + params.producers
    m = Module(name=f"lock_baseline{instance_suffix}_c{params.consumers}")
    m.add_port("clk", PortDirection.INPUT)
    m.add_port("rst", PortDirection.INPUT)
    m.add_instance("bram", BramMacro())
    m.add_instance("lock_reg", Register(width=params.deplist_entries))
    m.add_instance("valid_reg", Register(width=params.deplist_entries))
    for i in range(params.deplist_entries):
        m.add_instance(f"count{i}", Counter(width=COUNTER_BITS))
    m.add_instance(
        "addr_mux", Mux(width=ADDRESS_BITS, inputs=clients)
    )
    m.add_instance("lock_arb", RoundRobinArbiterMacro(clients=clients))
    for i in range(clients):
        m.add_instance(f"proto_fsm{i}", FsmLogic(states=4, transitions=7))
    m.note_path(
        "lock_probe",
        RoundRobinArbiterMacro(clients).logic_levels()
        + 2
        + Mux(ADDRESS_BITS, clients).logic_levels(),
    )
    return m


def generate_fifo_channel(channel: str, depth: int = 16) -> Module:
    """A FIFO-lowered channel (see :mod:`repro.analysis.channels`).

    Where the guarded organizations spend a CAM-matched dependency list,
    arbiters, and priority logic on *general* synchronization, a channel
    proven single-writer in-order needs only a BRAM ring buffer, two
    wrapping pointers, and full/empty comparators — the classic hardware
    FIFO.  The structural gap between this module and an arbitrated
    wrapper is exactly the area the classifier saves per lowered channel
    (reported by ``python -m repro scenarios``).
    """
    if depth < 1:
        raise ValueError("FIFO depth must be positive")
    pointer_bits = clog2(max(2, depth)) + 1  # extra wrap bit: full != empty
    m = Module(name=f"fifo_channel_{channel}")
    m.add_port("clk", PortDirection.INPUT)
    m.add_port("rst", PortDirection.INPUT)
    m.add_port("push", PortDirection.INPUT)
    m.add_port("push_data", PortDirection.INPUT, DATA_BITS)
    m.add_port("pop", PortDirection.INPUT)
    m.add_port("pop_data", PortDirection.OUTPUT, DATA_BITS)
    m.add_port("full", PortDirection.OUTPUT)
    m.add_port("empty", PortDirection.OUTPUT)

    m.add_net("head_ptr", pointer_bits)
    m.add_net("tail_ptr", pointer_bits)

    # Ring storage: one BRAM, producer side on port 0, consumer on port 1.
    m.add_instance("ring", BramMacro(), {"addr_a": "tail_ptr"})
    m.add_instance(
        "head", Counter(width=pointer_bits), {"clk": "clk", "out": "head_ptr"}
    )
    m.add_instance(
        "tail", Counter(width=pointer_bits), {"clk": "clk", "out": "tail_ptr"}
    )
    # Empty: pointers equal.  Full: pointers equal modulo depth with
    # differing wrap bits (the occupancy subtract folds into the same
    # comparator structure).
    m.add_instance("empty_cmp", EqComparator(width=pointer_bits))
    m.add_instance("full_cmp", EqComparator(width=pointer_bits))
    # Handshake gating: push qualified by !full, pop by !empty.
    m.add_instance("gate", RandomLogic(lut_count=2))

    # Critical path: pointer compare -> handshake gate -> pointer
    # increment enable -> BRAM address pins.  No CAM, no arbiter, no
    # priority logic — the whole point of the lowering.
    m.note_path(
        "channel_handshake",
        EqComparator(width=pointer_bits).logic_levels() + 1 + 1,
    )
    return m


def generate_thread_module(
    fsm: ThreadFsm, datapath: DatapathSummary
) -> Module:
    """A synthesized thread: control FSM + bound datapath."""
    m = Module(name=f"thread_{fsm.thread}")
    m.add_port("clk", PortDirection.INPUT)
    m.add_port("rst", PortDirection.INPUT)

    transitions = sum(
        len(state.transitions) for state in fsm.states.values()
    )
    m.add_instance(
        "ctrl",
        FsmLogic(states=max(1, fsm.state_count), transitions=transitions),
        {"clk": "clk", "rst": "rst"},
    )

    for reg in datapath.registers:
        m.add_instance(f"reg_{reg.name.replace('$', 'tmp')}",
                       Register(width=reg.width))

    # Fabric mode: a thread whose memory ops land on several banks needs a
    # return-data mux selecting among the banks' read-data buses.
    if len(datapath.memory_banks_used) > 1:
        m.add_instance(
            "bank_rdata_mux",
            Mux(width=DATA_BITS, inputs=len(datapath.memory_banks_used)),
        )
        m.add_instance(
            "bank_sel_reg",
            Register(width=clog2(len(datapath.memory_banks_used))),
        )

    for i, unit in enumerate(datapath.units):
        if unit.kind == "alu":
            m.add_instance(f"alu{i}", Adder(width=unit.width))
        elif unit.kind == "cmp":
            m.add_instance(f"cmp{i}", MagComparator(width=unit.width))
        elif unit.kind == "mul":
            # A multiplier maps to the dedicated MULT18x18s; charge the
            # interconnect logic only.
            m.add_instance(f"mul{i}", RandomLogic(lut_count=unit.width // 2))
        else:  # call: an opaque combinational block
            m.add_instance(
                f"fn{i}", RandomLogic(lut_count=2 * unit.width, levels=3)
            )
        if unit.mux_inputs > 2:
            m.add_instance(
                f"opmux{i}", Mux(width=unit.width, inputs=unit.mux_inputs)
            )

    depth = 2  # state decode + enable
    if datapath.units:
        depth += max(
            3 if unit.kind == "call" else 1 for unit in datapath.units
        )
    if len(datapath.memory_banks_used) > 1:
        depth += Mux(DATA_BITS, len(datapath.memory_banks_used)).logic_levels()
    m.note_path("datapath", depth)
    return m


def generate_crossbar(
    num_banks: int,
    clients: int,
    link_latency: int = 1,
    batch_size: int = 1,
) -> Module:
    """The fabric's crossbar interconnect between thread clients and banks.

    Structure per bank output: a request decode over the clients' bank-
    select fields, a round-robin output arbiter, an address/data mux fanning
    the winning client onto the bank's wrapper port, ``batch_size - 1``
    extra grant lanes, and ``link_latency`` pipeline register stages on the
    routed bus.  Both area and the routing path grow monotonically with the
    bank count: every bank adds an output column, and the bank-select
    decode plus grant-merge OR tree deepen with ``clog2`` / OR-tree terms.
    """
    if num_banks <= 0:
        raise ValueError("crossbar needs at least one bank")
    if clients <= 0:
        raise ValueError("crossbar needs at least one client")
    bus_bits = ADDRESS_BITS + DATA_BITS  # one routed request
    m = Module(name=f"fabric_crossbar_b{num_banks}")
    m.add_port("clk", PortDirection.INPUT)
    m.add_port("rst", PortDirection.INPUT)
    m.add_port("in_req", PortDirection.INPUT, clients)
    m.add_port("in_addr", PortDirection.INPUT, ADDRESS_BITS * clients)
    m.add_port("in_wdata", PortDirection.INPUT, DATA_BITS * clients)
    m.add_port("out_grant", PortDirection.OUTPUT, clients)
    m.add_port("bank_req", PortDirection.OUTPUT, num_banks)
    m.add_port("bank_addr", PortDirection.OUTPUT, ADDRESS_BITS * num_banks)
    m.add_port("bank_wdata", PortDirection.OUTPUT, DATA_BITS * num_banks)

    m.add_net("bank_onehot", num_banks * clients)
    m.add_net("routed_bus", bus_bits * num_banks)

    # Ingress bank-select decode: one decoder per client.
    for c in range(clients):
        m.add_instance(
            f"bank_dec{c}",
            Decoder(outputs=num_banks),
            {"sel": "bank_onehot"},
        )

    lanes = min(batch_size, clients)
    for b in range(num_banks):
        m.add_instance(
            f"out_arb{b}",
            RoundRobinArbiterMacro(clients=clients),
        )
        for lane in range(lanes):
            m.add_instance(
                f"out_mux{b}_{lane}",
                Mux(width=bus_bits, inputs=clients),
                {"out": "routed_bus"},
            )
        m.add_instance(f"req_merge{b}", RandomLogic(lut_count=clients))
        for stage in range(max(1, link_latency)):
            m.add_instance(
                f"link_reg{b}_{stage}",
                Register(width=bus_bits),
                {"clk": "clk"},
            )

    # Routing path: bank-select decode -> grant-merge OR tree over the
    # clients -> output arbiter -> routed-bus mux.  Deepens with both the
    # client count and the bank count.
    path = (
        Decoder(outputs=num_banks).logic_levels()
        + _or_tree_levels(clients)
        + RoundRobinArbiterMacro(clients).logic_levels()
        + Mux(bus_bits, clients).logic_levels()
        + clog2(max(2, num_banks))  # bank column fanout buffering
    )
    m.note_path("crossbar_route", path)
    return m


def generate_design(
    name: str,
    wrappers: list[Module],
    threads: list[Module],
) -> Module:
    """The top-level design: thread modules wired to wrapper modules."""
    top = Module(name=name)
    top.add_port("clk", PortDirection.INPUT)
    top.add_port("rst", PortDirection.INPUT)
    for module in wrappers + threads:
        top.add_instance(
            f"u_{module.name}", module, {"clk": "clk", "rst": "rst"}
        )
    return top
