"""Structural netlist intermediate representation.

The RTL generators build each design as a hierarchy of :class:`Module`
objects whose instances are either *macro primitives* (see
:mod:`repro.rtl.primitives` — registers, muxes, comparators, CAM rows, …)
or other modules.  The same netlist feeds both the Verilog emitter and the
FPGA area/timing models, so the numbers reported for a design always come
from the structure that would be synthesized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from .primitives import MacroPrimitive


class PortDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


@dataclass(frozen=True)
class Net:
    """A named wire (or bus) inside a module."""

    name: str
    width: int = 1

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"net {self.name!r} must have positive width")


@dataclass(frozen=True)
class Port:
    """A module boundary connection."""

    name: str
    direction: PortDirection
    width: int = 1


@dataclass
class Instance:
    """One instantiated component: a macro primitive or a child module."""

    name: str
    component: Union[MacroPrimitive, "Module"]
    connections: dict[str, str] = field(default_factory=dict)


@dataclass
class Module:
    """A netlist module: ports, nets, and instances."""

    name: str
    ports: list[Port] = field(default_factory=list)
    nets: dict[str, Net] = field(default_factory=dict)
    instances: list[Instance] = field(default_factory=list)
    #: documented critical paths: name -> logic levels (LUT levels); the
    #: timing model takes the worst.
    critical_paths: dict[str, int] = field(default_factory=dict)
    #: names of :attr:`ports` and of :attr:`instances`, for the duplicate
    #: checks of :meth:`add_port` and :meth:`add_instance`
    _port_names: set[str] = field(init=False, repr=False, compare=False)
    _instance_names: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._port_names = {port.name for port in self.ports}
        self._instance_names = {instance.name for instance in self.instances}

    # -- construction ---------------------------------------------------------------

    def add_port(self, name: str, direction: PortDirection, width: int = 1) -> Port:
        if name in self._port_names:
            raise ValueError(f"duplicate port {name!r} in module {self.name!r}")
        self._port_names.add(name)
        port = Port(name, direction, width)
        self.ports.append(port)
        self.nets.setdefault(name, Net(name, width))
        return port

    def add_net(self, name: str, width: int = 1) -> Net:
        if name in self.nets:
            existing = self.nets[name]
            if existing.width != width:
                raise ValueError(
                    f"net {name!r} redeclared with width {width} "
                    f"(was {existing.width})"
                )
            return existing
        net = Net(name, width)
        self.nets[name] = net
        return net

    def add_instance(
        self,
        name: str,
        component: Union[MacroPrimitive, "Module"],
        connections: dict[str, str] | None = None,
    ) -> Instance:
        if name in self._instance_names:
            raise ValueError(
                f"duplicate instance {name!r} in module {self.name!r}"
            )
        connections = dict(connections or {})
        for net_name in connections.values():
            if net_name not in self.nets:
                raise KeyError(
                    f"instance {name!r} connects to undeclared net "
                    f"{net_name!r} in module {self.name!r}"
                )
        self._instance_names.add(name)
        instance = Instance(name, component, connections)
        self.instances.append(instance)
        return instance

    def note_path(self, name: str, logic_levels: int) -> None:
        """Record a documented critical path through this module."""
        self.critical_paths[name] = logic_levels

    # -- queries --------------------------------------------------------------------

    def resource_totals(self) -> tuple[int, int, int]:
        """``(LUTs, FFs, BRAMs)`` over this module and its children, in
        one pass."""
        luts = ffs = brams = 0
        for instance in self.instances:
            component = instance.component
            if isinstance(component, MacroPrimitive):
                luts += component.luts()
                ffs += component.ffs()
                brams += component.brams()
            else:
                sub_luts, sub_ffs, sub_brams = component.resource_totals()
                luts += sub_luts
                ffs += sub_ffs
                brams += sub_brams
        return luts, ffs, brams

    def worst_path(self) -> tuple[str, int]:
        """The deepest documented path across the hierarchy."""
        worst_name, worst_levels = f"{self.name}:default", 1
        for path_name, levels in self.critical_paths.items():
            if levels > worst_levels:
                worst_name, worst_levels = f"{self.name}:{path_name}", levels
        for instance in self.instances:
            if isinstance(instance.component, Module):
                name, levels = instance.component.worst_path()
                if levels > worst_levels:
                    worst_name, worst_levels = name, levels
        return worst_name, worst_levels

    def hierarchy(self, indent: int = 0) -> str:
        """A printable module tree with per-module LUT/FF counts — the
        reproduction of the paper's Figure 2/3 block structure."""
        pad = "  " * indent
        luts, ffs, brams = self.resource_totals()
        lines = [f"{pad}{self.name}  (LUT={luts}, FF={ffs}, BRAM={brams})"]
        for instance in self.instances:
            if isinstance(instance.component, Module):
                lines.append(instance.component.hierarchy(indent + 1))
            else:
                prim = instance.component
                lines.append(
                    f"{pad}  [{instance.name}] {prim.describe()}"
                )
        return "\n".join(lines)
