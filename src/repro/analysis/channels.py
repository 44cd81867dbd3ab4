"""Channel classification: which dependencies are plain FIFO channels.

The paper's guarded-BRAM organizations (§3.1/§3.2) synchronize *every*
produced variable with CAM-matched dependency entries, whether or not the
communication pattern needs that generality.  For streaming process
networks most channels are far simpler: one producer thread writes a
scalar in program order, exactly one consumer thread reads each value
exactly once, and neither side ever addresses the storage any other way.
Such a channel needs no address CAM and no dependency counter — a plain
FIFO with full/empty handshakes synchronizes it at strictly lower cost
(Alias, arXiv:1801.04821 makes the same observation for process-network
synthesis).

This pass inspects a checked program — dependencies, scopes, and the
def/use sets of each thread's linearized statements — and classifies
every dependency as either

* ``FIFO``     — lowerable to a plain FIFO channel
  (:class:`repro.memory.fifo.FifoChannelController`), or
* ``GUARDED``  — must keep the guarded-BRAM machinery.

The decision rules (see docs/scenarios.md for the catalogue):

1. single consumer: ``dependency_number == 1`` — a broadcast value needs
   the runtime read counter;
2. scalar payload: the produced variable is neither an array nor a
   ``message`` — FIFO slots are not addressable;
3. exclusive channel: no other dependency produces the same variable
   (two dep_ids on one address imply address reuse the FIFO cannot see);
4. write-only producer: the producer thread writes the variable only at
   the producing statement and never reads it back;
5. read-only consumer: the consumer thread reads the variable only at
   the consuming statement (every use carries the dependency's
   ``#producer`` pragma) and never writes it.

Everything the rules consult is static — pragmas, symbol kinds, and
use-def sets — so classification is address-independent and runs before
memory allocation, which then homes each FIFO channel's variable in its
own channel storage instead of a guarded BRAM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..hic import ast
from ..hic.pragmas import Dependency
from ..hic.semantic import CheckedProgram
from ..hic.types import MessageType
from .usedef import linearize


class ChannelClass(enum.Enum):
    """How a dependency's synchronization is synthesized."""

    FIFO = "fifo"
    GUARDED = "guarded"


@dataclass(frozen=True)
class ChannelDecision:
    """Classification of one dependency, with the deciding rule."""

    dep_id: str
    producer_thread: str
    producer_var: str
    consumer_threads: tuple[str, ...]
    channel_class: ChannelClass
    #: human-readable reason (the first rule that forced GUARDED, or
    #: "single-writer in-order stream" for FIFO)
    reason: str

    @property
    def is_fifo(self) -> bool:
        return self.channel_class is ChannelClass.FIFO


def _statement_pragma_ids(info, pragma_type) -> set[str]:
    """dep_ids of pragmas of ``pragma_type`` attached to a statement."""
    stmt = info.stmt
    pragmas = getattr(stmt, "pragmas", None) or []
    return {p.dep_id for p in pragmas if isinstance(p, pragma_type)}


def _producer_rule(dep: Dependency, statements) -> str | None:
    """Rule 4: every def at the producing statement, no reads back."""
    for info in statements:
        produced_here = dep.dep_id in _statement_pragma_ids(
            info, ast.ConsumerPragma
        )
        if dep.producer_var in info.defs and not produced_here:
            return (
                f"producer {dep.producer_thread!r} also writes "
                f"{dep.producer_var!r} outside the producing statement"
            )
        if dep.producer_var in info.uses:
            return (
                f"producer {dep.producer_thread!r} reads "
                f"{dep.producer_var!r} back"
            )
    return None


def _consumer_rule(dep: Dependency, consumer: str, statements) -> str | None:
    """Rule 5: every use at the consuming statement, no writes."""
    for info in statements:
        consumed_here = dep.dep_id in _statement_pragma_ids(
            info, ast.ProducerPragma
        )
        if dep.producer_var in info.defs:
            return (
                f"consumer {consumer!r} writes shared "
                f"{dep.producer_var!r}"
            )
        if dep.producer_var in info.uses and not consumed_here:
            return (
                f"consumer {consumer!r} reads {dep.producer_var!r} "
                "outside the consuming statement"
            )
    return None


def classify_channel(
    dep: Dependency,
    checked: CheckedProgram,
    statements_by_thread: dict[str, list] | None = None,
) -> ChannelDecision:
    """Classify one dependency against the FIFO decision rules."""

    def guarded(reason: str) -> ChannelDecision:
        return ChannelDecision(
            dep_id=dep.dep_id,
            producer_thread=dep.producer_thread,
            producer_var=dep.producer_var,
            consumer_threads=dep.consumer_threads(),
            channel_class=ChannelClass.GUARDED,
            reason=reason,
        )

    # Rule 1: single consumer.
    if dep.dependency_number != 1:
        return guarded(
            f"broadcast: dependency number {dep.dependency_number} > 1"
        )

    # Rule 2: scalar payload.
    symbol = checked.scopes[dep.producer_thread].symbols[dep.producer_var]
    if symbol.is_array:
        return guarded(f"produced variable {dep.producer_var!r} is an array")
    if isinstance(symbol.hic_type, MessageType):
        return guarded(f"produced variable {dep.producer_var!r} is a message")

    # Rule 3: exclusive channel over the produced variable.
    owner = (dep.producer_thread, dep.producer_var)
    for other in checked.dependencies:
        if other.dep_id == dep.dep_id:
            continue
        if (other.producer_thread, other.producer_var) == owner:
            return guarded(
                f"variable shared with dependency {other.dep_id!r}"
            )

    if statements_by_thread is None:
        statements_by_thread = {}

    def statements(thread_name: str):
        if thread_name not in statements_by_thread:
            thread = next(
                t
                for t in checked.program.threads
                if t.name == thread_name
            )
            statements_by_thread[thread_name] = linearize(thread)
        return statements_by_thread[thread_name]

    # Rule 4: write-only producer.
    reason = _producer_rule(dep, statements(dep.producer_thread))
    if reason is not None:
        return guarded(reason)

    # Rule 5: read-only consumer.
    consumer = dep.consumers[0].thread
    reason = _consumer_rule(dep, consumer, statements(consumer))
    if reason is not None:
        return guarded(reason)

    return ChannelDecision(
        dep_id=dep.dep_id,
        producer_thread=dep.producer_thread,
        producer_var=dep.producer_var,
        consumer_threads=dep.consumer_threads(),
        channel_class=ChannelClass.FIFO,
        reason="single-writer in-order stream",
    )


def classify_channels(checked: CheckedProgram) -> dict[str, ChannelDecision]:
    """Classify every dependency of a checked program.

    Returns ``dep_id -> ChannelDecision`` in deterministic (sorted)
    order.  The linearized statement lists are shared across decisions,
    so the pass is linear in program size.
    """
    cache: dict[str, list] = {}
    return {
        dep.dep_id: classify_channel(dep, checked, cache)
        for dep in sorted(checked.dependencies, key=lambda d: d.dep_id)
    }


def fifo_channel_name(dep_id: str) -> str:
    """Controller/storage name of a FIFO-lowered channel."""
    return f"fifo_{dep_id}"


def fifo_lowered_variables(
    decisions: dict[str, ChannelDecision],
) -> dict[tuple[str, str], str]:
    """``(producer_thread, producer_var) -> dep_id`` for FIFO channels —
    the allocator input that re-homes each channel variable into its own
    channel storage."""
    return {
        (decision.producer_thread, decision.producer_var): decision.dep_id
        for decision in decisions.values()
        if decision.is_fifo
    }
