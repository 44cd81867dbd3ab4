"""Controller-selection advisor.

Section 4 of the paper closes with a design guideline: "for designs where
there is enough slack in timing and a need to scale up in the future, the
arbitrated memory organization is useful.  For designs where timing is
critical and needs more optimization, the event-driven memory organization
is useful.  In our design methodology we envisage providing the user with
access to either of these implementations based on design time
implementation constraints and parameters."

This module is that envisaged selector: given the user's constraints, it
recommends an organization and explains why; :func:`build_controller`
then instantiates the chosen organization's wrapper for one BRAM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..hic.pragmas import Dependency
from ..memory.bram import BlockRam
from ..memory.deplist import DependencyList
from .arbitrated import ArbitratedController
from .controller import MemoryController
from .event_driven import EventDrivenController
from .lock_baseline import LockBaselineController


class Organization(enum.Enum):
    """The selectable memory organizations."""

    ARBITRATED = "arbitrated"
    EVENT_DRIVEN = "event_driven"
    LOCK_BASELINE = "lock_baseline"


@dataclass
class DesignConstraints:
    """Design-time constraints and parameters driving the selection."""

    #: Achievable slack: target period as a fraction of the estimated
    #: critical path (>1.0 means timing has margin).
    timing_slack: float = 1.0
    #: Will consumers be added after initial deployment?
    expect_new_consumers: bool = False
    #: Must the post-write consumer latency be deterministic?
    need_deterministic_latency: bool = False
    #: Is reuse of existing bus-style client code desired?
    reuse_bus_style_clients: bool = False


@dataclass
class Recommendation:
    organization: Organization
    reasons: list[str] = field(default_factory=list)

    def explain(self) -> str:
        lines = [f"recommended organization: {self.organization.value}"]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def recommend(constraints: DesignConstraints) -> Recommendation:
    """Pick an organization per the paper's §4 guidance.

    Determinism and tight timing pull toward the event-driven organization;
    scalability and bus-style reuse pull toward the arbitrated one.  On a
    tie, the arbitrated organization wins because its base architecture is
    fixed ("simpler to implement").
    """
    event_score = 0
    arb_score = 0
    reasons: list[str] = []

    if constraints.need_deterministic_latency:
        event_score += 2
        reasons.append(
            "deterministic post-write latency requires the statically "
            "scheduled event chain (§3.2)"
        )
    if constraints.timing_slack < 1.0:
        event_score += 2
        reasons.append(
            "timing is critical: the event-driven organization achieved the "
            "higher post-P&R frequencies in the paper's evaluation (§4)"
        )
    elif constraints.timing_slack >= 1.2:
        arb_score += 1
        reasons.append(
            "ample timing slack tolerates the arbitration logic on the "
            "consumer read path"
        )
    if constraints.expect_new_consumers:
        arb_score += 2
        reasons.append(
            "new consumers only require extra multiplexing in the arbitrated "
            "organization; the event-driven one needs the thread FSMs "
            "regenerated (§3.2)"
        )
    if constraints.reuse_bus_style_clients:
        arb_score += 1
        reasons.append(
            "arbitrated port C behaves like a bus, easing reuse of existing "
            "bus-style client code (§6)"
        )

    if event_score > arb_score:
        organization = Organization.EVENT_DRIVEN
    else:
        organization = Organization.ARBITRATED
        if not reasons:
            reasons.append(
                "no constraint discriminates; the arbitrated organization's "
                "fixed base architecture is simpler to implement (§4)"
            )
    return Recommendation(organization=organization, reasons=reasons)


def build_controller(
    organization: Organization,
    name: str,
    deps: list[Dependency],
    deplist: DependencyList,
) -> MemoryController:
    """The ``organization`` wrapper of BRAM ``name``, guarding ``deps``.

    ``deplist`` is the design's configured list for the BRAM; the
    wrapper gets its own copy, because controllers mutate the guard
    counters and two simulations of one design must not share them.
    """
    bram = BlockRam(name)
    producers = {dep.producer_thread for dep in deps}
    consumers = {thread for dep in deps for thread in dep.consumer_threads()}
    if organization is Organization.ARBITRATED:
        return ArbitratedController(
            bram, deplist.clone(), sorted(consumers), sorted(producers)
        )
    if organization is Organization.EVENT_DRIVEN:
        return EventDrivenController(bram, deps)
    return LockBaselineController(
        bram, deplist.clone(), sorted(producers | consumers)
    )
