"""Static deadlock detection.

The paper (section 1): "deadlocks are identified statically since the user
explicitly specifies producer(s) and consumer(s)".  With blocking consumer
reads and no rollback, a deadlock occurs exactly when the happens-before
relation required by the dependencies conflicts with each thread's own
program order:

* *cross-thread edges*: the consuming read of a dependency cannot start
  before its producing write;
* *program-order edges*: within one thread, a later statement cannot start
  before an earlier one completes (threads "run to completion" per message,
  so a blocked read stalls everything after it).

A cycle in the union of these two relations is a static deadlock.  The
classic instance: t1 consumes a value produced late in t2, while t2 consumes
a value produced late in t1 — each blocks before reaching its own write.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hic import ast
from ..hic.semantic import CheckedProgram


@dataclass(frozen=True)
class Event:
    """A producing write or consuming read, positioned in its thread."""

    thread: str
    statement_index: int
    dep_id: str
    is_producer: bool

    def describe(self) -> str:
        role = "produce" if self.is_producer else "consume"
        return f"{self.thread}[{self.statement_index}] {role} {self.dep_id}"


@dataclass
class DeadlockReport:
    """Result of the static deadlock check."""

    deadlocked: bool
    cycle: list[Event]

    def explain(self) -> str:
        if not self.deadlocked:
            return "no static deadlock: the dependency order is consistent"
        steps = " -> ".join(event.describe() for event in self.cycle)
        return f"static deadlock cycle: {steps}"


def _collect_events(checked: CheckedProgram) -> list[Event]:
    """Locate every pragma-annotated statement in its thread's linear order."""
    events: list[Event] = []
    for thread in checked.program.threads:
        index = 0
        for node in thread.nodes:
            if not isinstance(node, ast.Stmt) or isinstance(node, ast.Block):
                continue
            if isinstance(node, ast.VarDecl):
                continue
            if isinstance(node, ast.Assign):
                for pragma in node.pragmas:
                    events.append(
                        Event(
                            thread=thread.name,
                            statement_index=index,
                            dep_id=pragma.dep_id,
                            is_producer=isinstance(pragma, ast.ConsumerPragma),
                        )
                    )
            index += 1
    return events


def check_deadlock(checked: CheckedProgram) -> DeadlockReport:
    """Run the static deadlock analysis over a checked program.

    Builds the combined happens-before graph over producer/consumer events
    and searches it for a cycle.
    """
    events = _collect_events(checked)
    dep_ids = {dep.dep_id for dep in checked.dependencies}

    # Adjacency over event indices.
    successors: dict[int, set[int]] = {i: set() for i in range(len(events))}

    # Program order within each thread: earlier event must complete first,
    # so edge earlier -> later ("later waits on earlier").
    by_thread: dict[str, list[int]] = {}
    for i, event in enumerate(events):
        by_thread.setdefault(event.thread, []).append(i)
    for indices in by_thread.values():
        ordered = sorted(indices, key=lambda i: events[i].statement_index)
        for a, b in zip(ordered, ordered[1:]):
            successors[a].add(b)

    # Cross-thread order: produce(dep) -> consume(dep).
    for dep_id in dep_ids:
        producer_events = [
            i for i, e in enumerate(events) if e.dep_id == dep_id and e.is_producer
        ]
        consumer_events = [
            i for i, e in enumerate(events) if e.dep_id == dep_id and not e.is_producer
        ]
        for p in producer_events:
            for c in consumer_events:
                successors[p].add(c)

    # Cycle detection (iterative DFS with colors).
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {i: WHITE for i in range(len(events))}
    parent: dict[int, int] = {}

    def extract_cycle(start: int, end: int) -> list[Event]:
        cycle = [end]
        node = end
        while node != start:
            node = parent[node]
            cycle.append(node)
        cycle.reverse()
        return [events[i] for i in cycle]

    for root in range(len(events)):
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, list[int]]] = [(root, sorted(successors[root]))]
        color[root] = GRAY
        while stack:
            node, pending = stack[-1]
            if pending:
                nxt = pending.pop(0)
                if color[nxt] == GRAY:
                    parent[nxt] = node  # close the back edge for extraction
                    return DeadlockReport(True, extract_cycle(nxt, node))
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, sorted(successors[nxt])))
            else:
                color[node] = BLACK
                stack.pop()
    return DeadlockReport(False, [])


def assert_deadlock_free(checked: CheckedProgram) -> None:
    """Raise ``ValueError`` with an explanation if the program can deadlock."""
    report = check_deadlock(checked)
    if report.deadlocked:
        raise ValueError(report.explain())
