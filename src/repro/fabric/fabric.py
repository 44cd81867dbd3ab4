"""The sharded memory fabric: N memory controllers behind one address space.

:class:`MemoryFabric` is itself a :class:`~repro.core.controller.MemoryController`
— executors submit logical-address requests exactly as they would to a
single wrapper, and the fabric:

1. **routes** each request through the sharding policy to the bank owning
   its word (translating to a bank-local address);
2. carries it across the :class:`~repro.fabric.crossbar.Crossbar` (link
   latency + per-bank batched delivery with round-robin output arbitration);
3. lets the *bank's own organization* (arbitrated §3.1 / event-driven §3.2 /
   lock baseline) arbitrate and perform the access;
4. merges bank grants back into fabric-level results, so the base class's
   latency samples measure the full ingress-to-grant path.

Guarded requests whose dependency entry is homed on the bank holding the
guarded data (the default ``dep_home="address"``) are enforced by that
bank's native dependency list, unchanged from the paper.  With
``dep_home="spread"`` entries round-robin across banks to balance CAM and
arbiter load; entries landing away from their data bank become *cross-bank*
dependencies owned by the :class:`~repro.fabric.router.DependencyRouter`,
which holds producer writes and consumer reads at fabric ingress until the
§3.1 protocol allows them (see the router's module docstring).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.advisor import Organization
from ..core.arbitrated import ArbitratedController
from ..core.controller import MemRequest, MemResult, MemoryController
from ..core.event_driven import EventDrivenController
from ..core.lock_baseline import LockBaselineController
from ..hic.pragmas import Dependency
from ..hic.semantic import CheckedProgram
from ..memory.allocation import FABRIC_BRAM, MemoryMap, WORDS_PER_BRAM
from ..memory.bram import BlockRam
from ..memory.deplist import DependencyEntry, DependencyList
from .crossbar import Crossbar
from .router import DependencyRouter, RoutedDependency
from .sharding import ShardingPolicy, make_policy

#: Dependency home-bank policies (where the guard entry lives).
DEP_HOME_POLICIES = ("address", "spread")


@dataclass(frozen=True)
class FabricConfig:
    """Build-time parameters of one fabric."""

    num_banks: int = 1
    shard_policy: str = "interleaved"
    link_latency: int = 1
    batch_size: int = 1
    #: "address" homes each guard entry with its guarded data (all-native);
    #: "spread" homes entries away from their data bank (rotating by
    #: dependency index), creating cross-bank dependencies handled by
    #: the router
    dep_home: str = "address"

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("a fabric needs at least one bank")
        if self.link_latency < 0:
            raise ValueError("link latency cannot be negative")
        if self.batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.dep_home not in DEP_HOME_POLICIES:
            raise ValueError(
                f"unknown dep_home policy {self.dep_home!r} "
                f"(expected one of {DEP_HOME_POLICIES})"
            )


class FabricMemoryView:
    """BlockRam-compatible view of the fabric's logical address space.

    Executor-side message DMA and debug peeks address the fabric logically;
    this view shards each word access to the owning bank's physical BRAM.
    """

    def __init__(self, policy: ShardingPolicy, banks: dict[str, BlockRam]):
        self.name = FABRIC_BRAM
        self._policy = policy
        self._banks = banks

    @property
    def depth(self) -> int:
        return self._policy.capacity

    def _locate(self, address: int) -> tuple[BlockRam, int]:
        bank = self._policy.bank_name(self._policy.bank_for(address))
        return self._banks[bank], self._policy.local_address(address)

    def read(self, address: int, cycle: int = 0, port: str = "A") -> int:
        bram, local = self._locate(address)
        return bram.read(local, cycle, port)

    def write(
        self, address: int, data: int, cycle: int = 0, port: str = "A"
    ) -> None:
        bram, local = self._locate(address)
        bram.write(local, data, cycle, port)

    def peek(self, address: int) -> int:
        bram, local = self._locate(address)
        return bram.peek(local)

    @property
    def width(self) -> int:
        return next(iter(self._banks.values())).width

    def flip_bit(self, address: int, bit: int) -> None:
        """SEU seam: flip one stored bit in the owning bank's BRAM."""
        bram, local = self._locate(address)
        bram.flip_bit(local, bit)

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.peek(a) for a in range(self.depth))


@dataclass
class FabricPlan:
    """Design-time fabric artifact carried on a compiled design."""

    config: FabricConfig
    policy: ShardingPolicy
    bank_names: list[str]
    #: dependencies enforced natively by each bank's own organization
    native_dep_groups: dict[str, list[Dependency]] = field(default_factory=dict)
    #: per-bank dependency lists (bank-local addresses)
    bank_deplists: dict[str, DependencyList] = field(default_factory=dict)
    #: cross-bank dependencies (home bank != data bank), router-owned
    routed_deps: list[RoutedDependency] = field(default_factory=list)
    #: dep_id -> home bank index (native and routed alike)
    dep_home: dict[str, int] = field(default_factory=dict)

    @property
    def cross_bank_count(self) -> int:
        return len(self.routed_deps)


def plan_fabric(
    checked: CheckedProgram, memory_map: MemoryMap, config: FabricConfig
) -> FabricPlan:
    """Split a program's dependencies across the fabric's banks.

    Every dependency's guarded (produced) variable has a logical address;
    the sharding policy determines its *data bank*.  The home-bank policy
    then decides where the guard entry lives — entries homed with their
    data stay native, the rest become router-owned cross-bank entries.
    """
    if memory_map.fabric_banks != config.num_banks:
        raise ValueError(
            f"memory map was allocated for {memory_map.fabric_banks} banks, "
            f"fabric configured with {config.num_banks}"
        )
    policy = make_policy(config.shard_policy, config.num_banks)
    bank_names = [policy.bank_name(i) for i in range(config.num_banks)]
    plan = FabricPlan(
        config=config,
        policy=policy,
        bank_names=bank_names,
        native_dep_groups={name: [] for name in bank_names},
    )

    native_entries: dict[str, list[DependencyEntry]] = {
        name: [] for name in bank_names
    }
    ordered = sorted(checked.dependencies, key=lambda d: d.dep_id)
    for index, dep in enumerate(ordered):
        placement = memory_map.placement(dep.producer_thread, dep.producer_var)
        if not placement.is_bram:
            raise ValueError(
                f"dependency {dep.dep_id!r}: producer variable "
                f"{dep.producer_var!r} must be BRAM-resident"
            )
        logical = placement.base_address
        data_bank = policy.bank_for(logical)
        if config.dep_home == "address":
            home = data_bank
        else:
            # spread: home the entry away from its (hot) data bank,
            # rotating by dependency index to balance CAM/arbiter load.
            # With one bank this degenerates to native.
            home = (data_bank + 1 + index) % config.num_banks
        plan.dep_home[dep.dep_id] = home
        if home == data_bank:
            plan.native_dep_groups[bank_names[data_bank]].append(dep)
            native_entries[bank_names[data_bank]].append(
                DependencyEntry(
                    dep_id=dep.dep_id,
                    dependency_number=dep.dependency_number,
                    base_address=policy.local_address(logical),
                    producer_thread=dep.producer_thread,
                    consumer_threads=dep.consumer_threads(),
                )
            )
        else:
            plan.routed_deps.append(
                RoutedDependency(
                    dep_id=dep.dep_id,
                    dependency_number=dep.dependency_number,
                    logical_address=logical,
                    home_bank=home,
                    data_bank=data_bank,
                    producer_thread=dep.producer_thread,
                    consumer_threads=dep.consumer_threads(),
                )
            )

    plan.bank_deplists = {
        name: DependencyList(bram=name, entries=native_entries[name])
        for name in bank_names
    }
    return plan


class _State(enum.Enum):
    #: held at fabric ingress by the cross-bank dependency router
    GATED = "gated"
    #: travelling through the crossbar
    IN_FLIGHT = "in-flight"
    #: delivered to the bank; asserted there until granted
    DELIVERED = "delivered"


@dataclass
class _Tracked:
    """Progress of one fabric-level request through the pipeline."""

    original: MemRequest
    routed: MemRequest
    bank: str
    state: _State
    managed: bool  # router-owned cross-bank dependency


@dataclass
class FabricBankStats:
    """Per-bank activity summary (see :meth:`MemoryFabric.fabric_stats`)."""

    routed: int = 0
    granted: int = 0


class MemoryFabric(MemoryController):
    """N memory-organization banks behind one logical address space."""

    def __init__(
        self,
        banks: dict[str, MemoryController],
        policy: ShardingPolicy,
        router: DependencyRouter,
        crossbar: Crossbar,
        config: FabricConfig,
    ):
        view = FabricMemoryView(
            policy, {name: bank.bram for name, bank in banks.items()}
        )
        super().__init__(view)
        self.banks = banks
        self.policy = policy
        self.router = router
        self.crossbar = crossbar
        self.config = config
        self.bank_names = list(banks)
        self._tracked: dict[tuple, _Tracked] = {}
        self.bank_stats: dict[str, FabricBankStats] = {
            name: FabricBankStats() for name in banks
        }

    # -- routing --------------------------------------------------------------------

    def _route(self, request: MemRequest, cycle: int) -> _Tracked:
        """Classify a newly asserted request and, when allowed, push it
        into the crossbar."""
        managed = self.router.manages(request.dep_id)
        if managed:
            entry = self.router.entries[request.dep_id]
            bank_index = entry.data_bank
            # Cross-bank guarded traffic reaches the data bank as a plain
            # direct-port access: the guard was already enforced at ingress.
            routed = replace(
                request,
                port="A",
                address=self.policy.local_address(request.address),
            )
        else:
            bank_index = self.policy.bank_for(request.address)
            routed = replace(
                request, address=self.policy.local_address(request.address)
            )
        bank = self.policy.bank_name(bank_index)
        tracked = _Tracked(
            original=request,
            routed=routed,
            bank=bank,
            state=_State.GATED,
            managed=managed,
        )
        self._try_release(tracked, bank_index, cycle)
        return tracked

    def _try_release(
        self, tracked: _Tracked, bank_index: int, cycle: int
    ) -> None:
        """Move a GATED request into the crossbar if the router allows."""
        if tracked.state is not _State.GATED:
            return
        if tracked.managed:
            dep_id = tracked.original.dep_id
            if tracked.original.write:
                if not self.router.write_release_allowed(dep_id):
                    self.router.note_gated(cycle)
                    return
                self.router.on_write_released(dep_id, cycle)
            else:
                if not self.router.read_release_allowed(dep_id):
                    self.router.note_gated(cycle)
                    return
                self.router.on_read_released(dep_id, cycle)
        self.crossbar.push(bank_index, tracked.routed, cycle)
        self.bank_stats[tracked.bank].routed += 1
        tracked.state = _State.IN_FLIGHT
        if tracked.managed and self.observer is not None:
            on_routed = getattr(self.observer, "on_dep_routed", None)
            if on_routed is not None:
                on_routed(
                    self.bram.name,
                    tracked.original.dep_id,
                    tracked.bank,
                    tracked.original.client,
                    tracked.original.write,
                    cycle,
                )

    # -- the fabric cycle -------------------------------------------------------------

    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        # A tracked request's crossbar/bank state can advance every
        # fabric cycle, so cached classifications never outlive one.
        self.classify_epoch += 1
        armed = self.router.tick(cycle)
        if armed and self.observer is not None:
            on_notified = getattr(self.observer, "on_dep_notified", None)
            for dep_id in armed:
                entry = self.router.entries[dep_id]
                home = self.policy.bank_name(entry.home_bank)
                self.observer.on_dep_armed(
                    home,
                    dep_id,
                    entry.producer_thread,
                    entry.logical_address,
                    cycle,
                    entry.outstanding,
                )
                if on_notified is not None:
                    on_notified(
                        self.bram.name,
                        dep_id,
                        home,
                        cycle,
                        self.router.notify_latency,
                    )

        asserted = set()
        for request in sorted(requests):
            key = request.key
            asserted.add(key)
            tracked = self._tracked.get(key)
            if tracked is None:
                self._tracked[key] = self._route(request, cycle)
            elif tracked.state is _State.GATED:
                bank_index = self.bank_names.index(tracked.bank)
                self._try_release(tracked, bank_index, cycle)

        # A gated request whose thread stopped asserting was withdrawn
        # before it ever entered the interconnect.
        for key in [
            k
            for k, t in self._tracked.items()
            if t.state is _State.GATED and k not in asserted
        ]:
            del self._tracked[key]

        # Crossbar deliveries land at their banks.
        for bank_index, delivered in self.crossbar.deliveries(cycle).items():
            bank = self.policy.bank_name(bank_index)
            for routed in delivered:
                for tracked in self._tracked.values():
                    if (
                        tracked.state is _State.IN_FLIGHT
                        and tracked.bank == bank
                        and tracked.routed.key == routed.key
                    ):
                        tracked.state = _State.DELIVERED
                        break

        # Delivered requests assert their lines at the bank every cycle
        # until granted (banks clear pending per cycle, like the kernel).
        for tracked in self._tracked.values():
            if tracked.state is _State.DELIVERED:
                self.banks[tracked.bank].submit(tracked.routed)

        bank_results = {
            name: bank.arbitrate(cycle) for name, bank in self.banks.items()
        }

        # Merge bank grants back into fabric-level results.
        results: dict[str, MemResult] = {}
        consumed: set[tuple[str, str]] = set()
        for key in sorted(
            (k for k, t in self._tracked.items()
             if t.state is _State.DELIVERED),
            key=lambda k: self._tracked[k].original.sort_key,
        ):
            tracked = self._tracked[key]
            slot = (tracked.bank, tracked.routed.client)
            if slot in consumed:
                continue
            result = bank_results[tracked.bank].get(tracked.routed.client)
            if result is None or not result.granted:
                continue
            consumed.add(slot)
            results[tracked.original.client] = result
            self.bank_stats[tracked.bank].granted += 1
            if tracked.managed:
                if tracked.original.write:
                    self.router.on_write_granted(
                        tracked.original.dep_id, cycle
                    )
                else:
                    self.router.on_read_granted(
                        tracked.original.dep_id, cycle
                    )
            del self._tracked[key]
        return results

    # -- quiescence (fast-kernel wake contract) -----------------------------------------

    def next_wake(self, cycle: int):
        """Earliest future cycle the fabric pipeline can move.

        * a *gated* managed request accrues ``gated_cycles`` every
          asserted cycle, so gating is never skippable;
        * *in-flight* requests wake when the crossbar can deliver;
        * an in-flight arm notification wakes the router at arrival;
        * *delivered* requests defer to their banks' own wake rules
          (bank state only moves on grants).
        """
        wakes = []
        notification = self.router.next_notification(cycle)
        if notification is not None:
            wakes.append(notification)
        in_flight = False
        delivered = False
        for tracked in self._tracked.values():
            if tracked.state is _State.GATED:
                return cycle + 1
            if tracked.state is _State.IN_FLIGHT:
                in_flight = True
            elif tracked.state is _State.DELIVERED:
                delivered = True
        if in_flight:
            ready = self.crossbar.next_ready(cycle)
            if ready is not None:
                wakes.append(ready)
        if delivered:
            for bank in self.banks.values():
                wake = bank.next_wake(cycle)
                if wake is not None:
                    wakes.append(wake)
        return min(wakes) if wakes else None

    def note_idle_cycles(self, cycle: int) -> None:
        """Catch the fabric's and every bank's cycle register up after a
        skip (each bank's ``arbitrate`` would have tracked it)."""
        super().note_idle_cycles(cycle)
        for bank in self.banks.values():
            bank.note_idle_cycles(cycle)

    # -- wait attribution (profiler seam) ------------------------------------------------

    def classify_wait(self, request: MemRequest) -> tuple[str, str, str]:
        """Attribute a fabric-blocked cycle to its pipeline stage:
        router-gated at ingress → ``guard-stall``, in the crossbar →
        ``crossbar-transit``, delivered → whatever the owning bank's own
        rules say (so the site label is the *bank*, not the fabric)."""
        tracked = self._tracked.get(request.key)
        if tracked is None:
            return ("arbitration-loss", self.bram.name, request.port)
        if tracked.state is _State.GATED:
            return ("guard-stall", self.bram.name, request.port)
        if tracked.state is _State.IN_FLIGHT:
            return ("crossbar-transit", self.bram.name, request.port)
        return self.banks[tracked.bank].classify_wait(tracked.routed)

    # -- watchdog recovery -------------------------------------------------------------

    def force_unblock(self, request: MemRequest, cycle: int) -> bool:
        self.classify_epoch += 1
        tracked = self._tracked.get(request.key)
        if tracked is not None and tracked.managed:
            if request.write:
                return self.router.force_drain(request.dep_id)
            return self.router.force_arm(request.dep_id)
        if tracked is not None and tracked.state is _State.DELIVERED:
            return self.banks[tracked.bank].force_unblock(
                tracked.routed, cycle
            )
        # Not yet delivered (or untracked): aim at the owning bank.
        bank = self.policy.bank_name(self.policy.bank_for(request.address))
        routed = replace(
            request, address=self.policy.local_address(request.address)
        )
        return self.banks[bank].force_unblock(routed, cycle)

    # -- reporting ---------------------------------------------------------------------

    def fabric_stats(self) -> dict:
        """Structured activity summary for telemetry, the CLI, and examples."""
        return {
            "banks": {
                name: {
                    "routed": stats.routed,
                    "granted": stats.granted,
                    "bank_grants": len(self.banks[name].latency_samples),
                    "queue_occupancy": self.crossbar.occupancy(
                        self.bank_names.index(name)
                    ),
                }
                for name, stats in self.bank_stats.items()
            },
            "crossbar": {
                "forwarded": self.crossbar.stats.forwarded,
                "delivered": self.crossbar.stats.delivered,
                "queue_wait_cycles": self.crossbar.stats.queue_wait_cycles,
                "queued_peak": self.crossbar.stats.queued_peak,
            },
            "router": {
                "entries": len(self.router),
                "writes_routed": self.router.stats.writes_routed,
                "reads_routed": self.router.stats.reads_routed,
                "notifications_sent": self.router.stats.notifications_sent,
                "notifications_applied": (
                    self.router.stats.notifications_applied
                ),
                "gated_cycles": self.router.stats.gated_cycles,
            },
        }

    def reset(self) -> None:
        super().reset()
        for bank in self.banks.values():
            bank.reset()
        self.crossbar.reset()
        self.router.reset()
        self._tracked.clear()
        self.bank_stats = {name: FabricBankStats() for name in self.banks}


def build_fabric(
    organization: Organization | dict[str, Organization],
    plan: FabricPlan,
) -> MemoryFabric:
    """Instantiate bank controllers, router, and crossbar from a plan.

    ``organization`` may be a single organization for every bank or a
    mapping ``bank name -> organization`` for a mixed fabric.
    """
    config = plan.config
    if isinstance(organization, Organization):
        per_bank = {name: organization for name in plan.bank_names}
    else:
        per_bank = dict(organization)
        missing = [n for n in plan.bank_names if n not in per_bank]
        if missing:
            raise ValueError(f"no organization given for banks {missing}")

    banks: dict[str, MemoryController] = {}
    for name in plan.bank_names:
        bram = BlockRam(name)
        deps = plan.native_dep_groups[name]
        # Controllers mutate guard counters; never share the plan's copy.
        deplist = plan.bank_deplists[name].clone()
        org = per_bank[name]
        if org is Organization.ARBITRATED:
            consumers = sorted(
                {t for dep in deps for t in dep.consumer_threads()}
            )
            producers = sorted({dep.producer_thread for dep in deps})
            banks[name] = ArbitratedController(
                bram, deplist, consumers or ["-"], producers or ["-"]
            )
        elif org is Organization.EVENT_DRIVEN:
            banks[name] = EventDrivenController(bram, deps)
        else:
            clients = sorted(
                {dep.producer_thread for dep in deps}
                | {t for dep in deps for t in dep.consumer_threads()}
            )
            banks[name] = LockBaselineController(
                bram, deplist, clients or ["-"]
            )

    router = DependencyRouter(notify_latency=max(1, config.link_latency))
    for template in plan.routed_deps:
        router.add(
            replace(template, outstanding=0, reserved=0, arm_in_flight=False)
        )
    crossbar = Crossbar(
        num_banks=config.num_banks,
        link_latency=config.link_latency,
        batch_size=config.batch_size,
    )
    return MemoryFabric(banks, plan.policy, router, crossbar, config)
