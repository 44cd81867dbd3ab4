"""Resolution of producer/consumer pragmas into dependency records.

Per the paper (section 2), the user marks inter-thread memory dependencies
with paired pragmas:

* In the **producer** thread, ``#consumer{mt1, [t2,y1], [t3,z1]}`` annotates
  the assignment that *writes* the shared value and lists where it will be
  consumed.
* In each **consumer** thread, ``#producer{mt1, [t1,x1]}`` annotates the
  assignment that *reads* the shared value and names the producer.

The identifier (``mt1``) ties the two sides together and distinguishes
multiple dependencies on the same variable.  This module cross-validates the
two sides and produces :class:`Dependency` records, the input to memory
allocation and controller generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .errors import HicPragmaError


@dataclass(frozen=True)
class ConsumerRef:
    """One consumer endpoint of a dependency: the consuming thread and the
    local variable that receives the value."""

    thread: str
    variable: str


@dataclass(frozen=True)
class Dependency:
    """A fully resolved inter-thread memory dependency.

    Attributes:
        dep_id: The pragma identifier (``mt1`` in Figure 1).
        producer_thread: Name of the thread performing the guarded write.
        producer_var: The shared variable written by the producer; its BRAM
            address is the one guarded by the memory controller.
        consumers: Consumer endpoints, in source order.  ``len(consumers)``
            is the paper's *dependency number* ``dn`` — the count of consumer
            reads that must follow each producer write.
    """

    dep_id: str
    producer_thread: str
    producer_var: str
    consumers: tuple[ConsumerRef, ...]

    @property
    def dependency_number(self) -> int:
        """The paper's ``dn``: consumers outstanding after each write."""
        return len(self.consumers)

    def consumer_threads(self) -> tuple[str, ...]:
        return tuple(ref.thread for ref in self.consumers)


def resolve_dependencies(program: ast.Program) -> list[Dependency]:
    """Cross-validate all producer/consumer pragmas and return dependencies.

    Raises:
        HicPragmaError: on any inconsistency — missing counterpart pragma,
            mismatched thread/variable links, duplicate producers for a
            dep_id, or references to unknown threads.
    """
    annotated = ast.dependency_pragmas(program)
    thread_names = set(program.thread_names())

    producers: dict[str, tuple[ast.Thread, ast.Assign, ast.ConsumerPragma]] = {}
    consumer_sides: dict[str, list[tuple[ast.Thread, ast.Assign, ast.ProducerPragma]]] = {}

    for thread, stmt, pragma in annotated:
        for link in pragma.links:
            if link.thread not in thread_names:
                raise HicPragmaError(
                    f"pragma for dependency {pragma.dep_id!r} references "
                    f"unknown thread {link.thread!r}",
                    pragma.location,
                )
        if isinstance(pragma, ast.ConsumerPragma):
            if pragma.dep_id in producers:
                raise HicPragmaError(
                    f"dependency {pragma.dep_id!r} has more than one producing "
                    "statement; use distinct dependency identifiers per producer",
                    pragma.location,
                )
            producers[pragma.dep_id] = (thread, stmt, pragma)
        else:
            consumer_sides.setdefault(pragma.dep_id, []).append(
                (thread, stmt, pragma)
            )

    dependencies: list[Dependency] = []
    for dep_id, (prod_thread, prod_stmt, consumer_pragma) in sorted(
        producers.items()
    ):
        produced_var = ast.target_root(prod_stmt.target)
        declared_consumers = [
            ConsumerRef(link.thread, link.variable)
            for link in consumer_pragma.links
        ]

        consuming = consumer_sides.pop(dep_id, [])
        if not consuming:
            raise HicPragmaError(
                f"dependency {dep_id!r} declares consumers but no consuming "
                "statement carries a matching #producer pragma",
                consumer_pragma.location,
            )

        seen: dict[ConsumerRef, bool] = {ref: False for ref in declared_consumers}
        for cons_thread, cons_stmt, producer_pragma in consuming:
            link = producer_pragma.links[0]
            if len(producer_pragma.links) != 1:
                raise HicPragmaError(
                    f"#producer pragma for {dep_id!r} must name exactly one "
                    "producer [thread, var]",
                    producer_pragma.location,
                )
            if (link.thread, link.variable) != (prod_thread.name, produced_var):
                raise HicPragmaError(
                    f"#producer pragma for {dep_id!r} names "
                    f"[{link.thread},{link.variable}] but the producing "
                    f"statement is [{prod_thread.name},{produced_var}]",
                    producer_pragma.location,
                )
            if produced_var not in ast.names_read(cons_stmt.value):
                raise HicPragmaError(
                    f"consuming statement for {dep_id!r} in thread "
                    f"{cons_thread.name!r} does not read {produced_var!r}",
                    producer_pragma.location,
                )
            ref = ConsumerRef(cons_thread.name, ast.target_root(cons_stmt.target))
            if ref not in seen:
                raise HicPragmaError(
                    f"thread {cons_thread.name!r} consumes dependency "
                    f"{dep_id!r} into {ref.variable!r}, which the producer's "
                    "#consumer pragma does not declare",
                    producer_pragma.location,
                )
            if seen[ref]:
                raise HicPragmaError(
                    f"duplicate consuming statement for dependency {dep_id!r} "
                    f"endpoint [{ref.thread},{ref.variable}]",
                    producer_pragma.location,
                )
            seen[ref] = True

        missing = [ref for ref, found in seen.items() if not found]
        if missing:
            detail = ", ".join(f"[{ref.thread},{ref.variable}]" for ref in missing)
            raise HicPragmaError(
                f"dependency {dep_id!r} declares consumers with no matching "
                f"#producer-annotated statement: {detail}",
                consumer_pragma.location,
            )

        dependencies.append(
            Dependency(
                dep_id=dep_id,
                producer_thread=prod_thread.name,
                producer_var=produced_var,
                consumers=tuple(declared_consumers),
            )
        )

    if consumer_sides:
        stray = sorted(consumer_sides)
        first = consumer_sides[stray[0]][0][2]
        raise HicPragmaError(
            f"#producer pragma(s) reference dependency id(s) with no producing "
            f"statement: {', '.join(stray)}",
            first.location,
        )

    return dependencies
