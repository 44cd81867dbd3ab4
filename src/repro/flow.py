"""End-to-end design flow: hic source to implementation and simulation.

This is the reproduction of the paper's tool flow (§3): "describing an
application in hic, from which a RTL HDL description is generated.  This
RTL code is then fed into standard synthesis, place, and route tools" —
with our FPGA estimation models standing in for ISE (see DESIGN.md §2).

Typical use::

    from repro.flow import compile_design, build_simulation
    from repro.core import Organization

    design = compile_design(source, organization=Organization.EVENT_DRIVEN)
    area = design.area_report("bram0")
    print(area.luts, area.ffs, area.slices)
    print(design.timing_report("bram0").render())
    verilog_text = design.verilog()

    sim = build_simulation(design)
    sim.kernel.run(1000)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .analysis.channels import (
    ChannelDecision,
    classify_channels,
    fifo_channel_name,
    fifo_lowered_variables,
)
from .analysis.deadlock import assert_deadlock_free
from .analysis.memgraph import build_memory_graphs
from .core.advisor import Organization, build_controller
from .core.controller import MemoryController
from .fabric import FabricConfig, FabricPlan, build_fabric, plan_fabric
from .fpga.area import (
    AreaReport,
    FabricAreaReport,
    UtilizationReport,
    estimate_area,
    estimate_design,
    estimate_fabric_area,
)
from .fpga.timing import (
    FabricTimingReport,
    TimingReport,
    estimate_fabric_timing,
    estimate_timing,
)
from .hic.pragmas import Dependency
from .hic.semantic import CheckedProgram, analyze
from .memory.allocation import (
    FABRIC_BRAM,
    MemoryMap,
    allocate,
    dependencies_per_bram,
)
from .memory.bram import BlockRam
from .memory.deplist import DependencyList
from .memory.fifo import DEFAULT_FIFO_DEPTH, FifoChannelController
from .memory.offchip import OffchipController, OffchipMemory
from .rtl.generate import (
    DEFAULT_DEPLIST_ENTRIES,
    WrapperParams,
    generate_arbitrated_wrapper,
    generate_crossbar,
    generate_design,
    generate_event_driven_wrapper,
    generate_fifo_channel,
    generate_lock_baseline,
    generate_thread_module,
)
from .rtl.netlist import Module
from .rtl.verilog import emit_verilog
from .sim.executor import RxInterface, ThreadExecutor, TxInterface
from .sim.kernel import SimulationKernel
from .synth.binding import DatapathSummary, bind_program
from .synth.fsm import ThreadFsm, synthesize_program

#: Port remapping per organization: guarded FSM ports (C/D) are served on
#: the event-driven wrapper's port B, and on the lock baseline's guarded
#: ("G") path.
_PORT_OVERRIDES: dict[Organization, dict[str, str]] = {
    Organization.ARBITRATED: {},
    Organization.EVENT_DRIVEN: {"C": "B", "D": "B"},
    Organization.LOCK_BASELINE: {"C": "G", "D": "G"},
}


@dataclass
class CompiledDesign:
    """Everything the flow produced for one hic program."""

    name: str
    checked: CheckedProgram
    organization: Organization
    memory_map: MemoryMap
    dep_groups: dict[str, list[Dependency]]
    deplists: dict[str, DependencyList]
    fsms: dict[str, ThreadFsm]
    bindings: dict[str, DatapathSummary]
    wrapper_modules: dict[str, Module]
    thread_modules: dict[str, Module]
    top: Module
    #: fabric-mode artifacts (None for the single-address-space flow)
    fabric: Optional[FabricPlan] = None
    crossbar_module: Optional[Module] = None
    #: channel-synthesis artifacts ("guarded" keeps every dependency on
    #: the §3.1/§3.2 machinery; "fifo" lowers proven streams — see
    #: docs/scenarios.md)
    channel_synthesis: str = "guarded"
    channel_decisions: dict[str, ChannelDecision] = field(default_factory=dict)
    #: FIFO-lowered channels: storage name -> the dependency it carries
    fifo_deps: dict[str, Dependency] = field(default_factory=dict)

    # -- reports -------------------------------------------------------------------

    def area_report(self, bram: str) -> AreaReport:
        """Area of one BRAM's wrapper (a paper-table row)."""
        return estimate_area(self.wrapper_modules[bram])

    def timing_report(self, bram: str) -> TimingReport:
        return estimate_timing(self.wrapper_modules[bram])

    def fabric_area_report(self) -> FabricAreaReport:
        """Aggregate area of the fabric: bank wrappers plus the crossbar."""
        if self.fabric is None or self.crossbar_module is None:
            raise ValueError("design was not compiled with num_banks > 0")
        return estimate_fabric_area(self.wrapper_modules, self.crossbar_module)

    def fabric_timing_report(self) -> FabricTimingReport:
        """Fabric clock estimate (the slowest of banks and crossbar)."""
        if self.fabric is None or self.crossbar_module is None:
            raise ValueError("design was not compiled with num_banks > 0")
        return estimate_fabric_timing(self.wrapper_modules, self.crossbar_module)

    def utilization(self) -> UtilizationReport:
        return estimate_design(self.top)

    def verilog(self) -> str:
        return emit_verilog(self.top)

    def thread_verilog(self, thread_name: str) -> str:
        """Behavioral Verilog of one synthesized thread FSM."""
        from .rtl.fsm_verilog import emit_thread_verilog

        return emit_thread_verilog(
            self.fsms[thread_name],
            banks=self.memory_map.bram_names
            + self.memory_map.offchip_names
            + self.memory_map.fifo_names,
            constants=self.checked.constants,
        )

    def hierarchy(self) -> str:
        return self.top.hierarchy()

    def model_parameters(self, **overrides):
        """Extract the analytical performance model's compile-time
        parameters (:class:`repro.model.ModelParameters`) from this
        design; keyword overrides set the deployment fields (traffic
        rate, off-chip latency).  See docs/performance_model.md."""
        from .model import extract_parameters  # deferred: imports us back

        return extract_parameters(self, **overrides)


def _wrapper_params(
    dependencies: list[Dependency], deplist_entries: int
) -> WrapperParams:
    consumers = sum(dep.dependency_number for dep in dependencies)
    producers = len({dep.producer_thread for dep in dependencies})
    return WrapperParams(
        consumers=max(1, consumers),
        producers=max(1, producers),
        deplist_entries=max(deplist_entries, len(dependencies)),
    )


def compile_design(
    source: str,
    name: str = "design",
    organization: Organization = Organization.ARBITRATED,
    deplist_entries: int = DEFAULT_DEPLIST_ENTRIES,
    check_deadlock: bool = True,
    infer_pragmas: bool = False,
    allow_offchip: bool = False,
    optimize: bool = False,
    num_banks: int = 0,
    shard_policy: str = "interleaved",
    link_latency: int = 1,
    batch_size: int = 1,
    dep_home: str = "address",
    channel_synthesis: str = "guarded",
) -> CompiledDesign:
    """Run the full front-end + synthesis + generation flow.

    ``infer_pragmas=True`` derives producer/consumer dependencies from
    use-def analysis instead of requiring explicit pragmas (paper §2).
    ``allow_offchip=True`` lets private data too large for one BRAM spill
    to the modelled external SRAM tier.  ``optimize=True`` runs the FSM
    optimization passes (dead-state elimination, pass-through collapsing,
    compute-state packing) on every thread before binding.

    ``num_banks > 0`` switches to the sharded fabric flow: allocation
    targets one logical address space over that many banks (sliced by
    ``shard_policy``), a crossbar netlist joins the per-bank wrappers, and
    simulation runs through a :class:`repro.fabric.MemoryFabric`.
    ``dep_home="spread"`` distributes dependency entries round-robin over
    banks, exercising the cross-bank dependency router.

    ``channel_synthesis="fifo"`` runs the channel classifier
    (:mod:`repro.analysis.channels`) and lowers every dependency proven a
    single-writer in-order stream to a plain FIFO channel; everything
    else falls back to the guarded-BRAM machinery.  The default
    ``"guarded"`` keeps the paper's organizations for every dependency.
    """
    if channel_synthesis not in ("guarded", "fifo"):
        raise ValueError(
            f"unknown channel_synthesis {channel_synthesis!r} "
            "(expected 'guarded' or 'fifo')"
        )
    if channel_synthesis == "fifo" and num_banks > 0:
        raise ValueError(
            "channel_synthesis='fifo' is incompatible with a sharded "
            "fabric (FIFO channels bypass the crossbar)"
        )
    checked = analyze(source, infer_pragmas=infer_pragmas)
    if check_deadlock:
        assert_deadlock_free(checked)

    channel_decisions: dict[str, ChannelDecision] = {}
    fifo_channels: dict[tuple[str, str], str] = {}
    if channel_synthesis == "fifo":
        channel_decisions = classify_channels(checked)
        fifo_channels = fifo_lowered_variables(channel_decisions)

    # The §2 mapping input: the fabric's ``range`` policy places each
    # thread's variables by the access graph's weighted counts; the
    # single-address packer groups by owning thread and does not read it.
    access_graph = build_memory_graphs(checked)
    memory_map = allocate(
        checked,
        access=access_graph,
        allow_offchip=allow_offchip,
        fabric_banks=num_banks,
        fabric_policy=shard_policy,
        fifo_channels=fifo_channels or None,
    )

    fabric_plan: Optional[FabricPlan] = None
    if num_banks > 0:
        fabric_plan = plan_fabric(
            checked,
            memory_map,
            FabricConfig(
                num_banks=num_banks,
                shard_policy=shard_policy,
                link_latency=link_latency,
                batch_size=batch_size,
                dep_home=dep_home,
            ),
        )
        dep_groups = dict(fabric_plan.native_dep_groups)
        deplists = dict(fabric_plan.bank_deplists)
    else:
        # FIFO-lowered dependencies live on their own channel storage and
        # never enter a guarded dependency list.
        fifo_dep_ids = set(fifo_channels.values())
        guarded_deps = [
            dep
            for dep in checked.dependencies
            if dep.dep_id not in fifo_dep_ids
        ]
        dep_groups = dependencies_per_bram(memory_map, guarded_deps)
        deplists = {
            bram: DependencyList.build(bram, deps, memory_map)
            for bram, deps in dep_groups.items()
        }

    fsms = synthesize_program(checked, memory_map)
    if optimize:
        from .synth.optimize import optimize_fsm

        for fsm in fsms.values():
            optimize_fsm(fsm)
    bank_of = None
    if fabric_plan is not None:
        policy = fabric_plan.policy
        bank_of = lambda addr: policy.bank_name(policy.bank_for(addr))
    bindings = bind_program(checked, memory_map, fsms, bank_of=bank_of)

    wrapper_modules: dict[str, Module] = {}
    multi_bram = len(dep_groups) > 1
    for bram, deps in dep_groups.items():
        params = _wrapper_params(deps, deplist_entries)
        suffix = f"_{bram}" if multi_bram else ""
        if organization is Organization.ARBITRATED:
            wrapper_modules[bram] = generate_arbitrated_wrapper(params, suffix)
        elif organization is Organization.EVENT_DRIVEN:
            wrapper_modules[bram] = generate_event_driven_wrapper(
                params, deps, suffix
            )
        else:
            wrapper_modules[bram] = generate_lock_baseline(params, suffix)

    deps_by_id = {dep.dep_id: dep for dep in checked.dependencies}
    fifo_deps = {
        fifo_channel_name(dep_id): deps_by_id[dep_id]
        for dep_id in sorted(fifo_channels.values())
    }
    for fifo_name, dep in fifo_deps.items():
        wrapper_modules[fifo_name] = generate_fifo_channel(
            dep.dep_id, depth=DEFAULT_FIFO_DEPTH
        )

    crossbar_module: Optional[Module] = None
    if fabric_plan is not None:
        crossbar_module = generate_crossbar(
            num_banks=num_banks,
            clients=max(1, len(fsms)),
            link_latency=link_latency,
            batch_size=batch_size,
        )

    thread_modules = {
        thread: generate_thread_module(fsms[thread], bindings[thread])
        for thread in fsms
    }
    top = generate_design(
        name,
        list(wrapper_modules.values())
        + ([crossbar_module] if crossbar_module is not None else []),
        list(thread_modules.values()),
    )

    return CompiledDesign(
        name=name,
        checked=checked,
        organization=organization,
        memory_map=memory_map,
        dep_groups=dep_groups,
        deplists=deplists,
        fsms=fsms,
        bindings=bindings,
        wrapper_modules=wrapper_modules,
        thread_modules=thread_modules,
        top=top,
        fabric=fabric_plan,
        crossbar_module=crossbar_module,
        channel_synthesis=channel_synthesis,
        channel_decisions=channel_decisions,
        fifo_deps=fifo_deps,
    )


@dataclass
class Simulation:
    """A ready-to-run simulation of a compiled design."""

    design: CompiledDesign
    kernel: SimulationKernel
    controllers: dict[str, MemoryController]
    executors: dict[str, ThreadExecutor]
    rx: dict[str, RxInterface] = field(default_factory=dict)
    tx: dict[str, TxInterface] = field(default_factory=dict)
    #: telemetry handle, set by :meth:`attach_telemetry` (None = the
    #: zero-overhead disabled path)
    telemetry: Optional[object] = None

    def run(self, cycles: int, until=None, max_wall_seconds=None):
        """Run the kernel; ``max_wall_seconds`` is the livelock valve —
        exceeding it raises :class:`~repro.core.errors.SimulationTimeout`."""
        return self.kernel.run(cycles, until, max_wall_seconds=max_wall_seconds)

    # -- robustness wiring (lazy imports: repro.faults imports this module) ----------

    def attach_watchdog(self, **kwargs):
        """Attach a runtime :class:`repro.faults.Watchdog` (blocked-read
        timeouts, dynamic deadlock detection) and return it."""
        from .faults.watchdog import Watchdog

        return Watchdog(**kwargs).attach(self)

    def inject_faults(self, faults):
        """Arm a list of :mod:`repro.faults.models` faults and return the
        :class:`repro.faults.FaultInjector`."""
        from .faults.injector import FaultInjector

        return FaultInjector(list(faults)).attach(self)

    # -- observability (lazy import: repro.obs imports repro.core) -------------------

    def attach_telemetry(self, **kwargs):
        """Attach a :class:`repro.obs.Telemetry` (event tracing, span
        assembly, metrics) and return it; also sets ``self.telemetry``."""
        from .obs.tracer import Telemetry

        return Telemetry(**kwargs).attach(self)

    def attach_profiler(self, **kwargs):
        """Attach profiling telemetry and return the
        :class:`repro.obs.CycleProfiler` (the telemetry object lands on
        ``self.telemetry``; extra kwargs configure it)."""
        return self.attach_telemetry(profile=True, **kwargs).profiler


#: Simulation kernel backends (see ``docs/simulation_kernels.md``):
#: "reference" ticks every component every cycle; "wheel" is the
#: cycle-equivalent event-wheel kernel that skips provably idle
#: stretches; "compiled" specializes the design into a generated
#: straight-line tick function (codegen cached in-process per design).
SIMULATION_KERNELS = ("reference", "wheel", "compiled")

#: The one shared kernel default: ``build_simulation`` and every CLI
#: surface (`run`, `faults`, `profile`, `predict --validate`) use this
#: constant, pinned by ``tests/test_kernel_defaults.py``.
DEFAULT_KERNEL = "wheel"


def build_simulation(
    design: CompiledDesign,
    functions: Optional[dict[str, Callable[..., int]]] = None,
    *,
    kernel: str = DEFAULT_KERNEL,
) -> Simulation:
    """Instantiate controllers, interfaces, and executors for a design."""
    controllers: dict[str, MemoryController] = {}
    if design.fabric is not None:
        # One fabric behind the logical address space: executors address
        # it like any other controller; routing happens inside.
        controllers[FABRIC_BRAM] = build_fabric(
            design.organization, design.fabric
        )
        return _finish_simulation(design, controllers, functions, kernel)
    for bram_name in design.memory_map.bram_names:
        controllers[bram_name] = build_controller(
            design.organization,
            bram_name,
            design.dep_groups.get(bram_name, []),
            design.deplists[bram_name],
        )

    for bank in design.memory_map.offchip_names:
        controllers[bank] = OffchipController(OffchipMemory(bank))

    for fifo_name in design.memory_map.fifo_names:
        controllers[fifo_name] = FifoChannelController(
            BlockRam(fifo_name), design.fifo_deps[fifo_name]
        )

    return _finish_simulation(design, controllers, functions, kernel)


def _finish_simulation(
    design: CompiledDesign,
    controllers: dict[str, MemoryController],
    functions: Optional[dict[str, Callable[..., int]]],
    kernel: str = DEFAULT_KERNEL,
) -> Simulation:
    """Shared tail of :func:`build_simulation`: interfaces, executors, kernel."""
    rx = {name: RxInterface(name) for name in design.checked.interfaces}
    tx = {name: TxInterface(name) for name in design.checked.interfaces}

    override = _PORT_OVERRIDES[design.organization]
    executors = {
        thread: ThreadExecutor(
            design.checked,
            design.memory_map,
            fsm,
            controllers,
            functions=functions,
            rx_interfaces=rx,
            tx_interfaces=tx,
            guarded_port_override=override,
        )
        for thread, fsm in design.fsms.items()
    }

    if kernel not in SIMULATION_KERNELS:
        raise ValueError(
            f"unknown simulation kernel {kernel!r} "
            f"(expected one of {SIMULATION_KERNELS})"
        )
    if kernel == "wheel":
        from .sim.wheel import FastKernel

        sim_kernel: SimulationKernel = FastKernel(executors, controllers)
    elif kernel == "compiled":
        from .sim.compiled import CompiledKernel

        sim_kernel = CompiledKernel(executors, controllers, design=design)
    else:
        sim_kernel = SimulationKernel(executors, controllers)
    return Simulation(
        design=design,
        kernel=sim_kernel,
        controllers=controllers,
        executors=executors,
        rx=rx,
        tx=tx,
    )
