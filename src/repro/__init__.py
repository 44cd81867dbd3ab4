"""repro — reproduction of *Memory centric thread synchronization on
platform FPGAs* (Kulkarni & Brebner, DATE 2006).

The package implements the paper's entire flow in Python:

* :mod:`repro.hic` — the hic concurrent language front-end;
* :mod:`repro.analysis` — def/use analysis, the memory access graph,
  channel classification, static deadlock detection;
* :mod:`repro.synth` — behavioral synthesis of threads into cycle-accurate
  FSMs (one state per statement, optional packing passes) and datapath
  binding;
* :mod:`repro.memory` — BRAM model, allocation, and the dependency list;
* :mod:`repro.core` — the two memory organizations (arbitrated and
  event-driven statically scheduled) plus a lock-based baseline;
* :mod:`repro.rtl` — structural netlists and Verilog emission;
* :mod:`repro.fpga` — Virtex-II Pro area/timing estimation (the ISE
  substitute);
* :mod:`repro.sim` — a two-phase cycle-accurate simulator;
* :mod:`repro.net` — packets, routing, traffic, and the IP forwarder;
* :mod:`repro.flow` — the end-to-end ``compile_design`` /
  ``build_simulation`` driver;
* :mod:`repro.report` — paper-style result tables.

Quick start::

    from repro.flow import compile_design, build_simulation
    from repro.core import Organization
    from repro.net import forwarding_source, forwarding_functions

    design = compile_design(forwarding_source(4),
                            organization=Organization.ARBITRATED)
    area = design.area_report("bram0")
    print(area.luts, area.ffs, area.slices)   # the paper's table columns
    sim = build_simulation(design, functions=forwarding_functions())
    sim.run(1000)
"""

from .flow import CompiledDesign, Simulation, build_simulation, compile_design

__version__ = "1.0.0"

__all__ = [
    "CompiledDesign",
    "Simulation",
    "build_simulation",
    "compile_design",
    "__version__",
]
