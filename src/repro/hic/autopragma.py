"""Pragma inference: derive producer/consumer annotations automatically.

Section 2 of the paper notes the explicit pragmas are a front-end
convenience: "In practice, one can use standard compiler use-def analysis
[7] and other lifetime analysis methods [9] to extract producers and
consumers from a given specification."

:func:`apply_inferred_pragmas` implements that path: it runs cross-thread
use-def analysis over a parsed (pragma-free) program and *injects* the
equivalent ``#consumer``/``#producer`` pragmas into the AST, after which
the normal resolution, checking, and controller generation apply
unchanged.  A variable qualifies when it is:

* written by exactly **one** statement in exactly **one** thread (a unique
  producer — the paper's dependency-list model stores one producer per
  entry), and
* read by at least one **other** thread, with each reading thread
  consuming it in exactly one assignment (so the consumer endpoint —
  thread plus target variable — is unambiguous).

Variables that do not qualify are left untouched; explicit pragmas on a
variable suppress inference for it (the user's annotation wins).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast


@dataclass(frozen=True)
class InferredDependency:
    """One injected dependency, for reporting."""

    dep_id: str
    variable: str
    producer_thread: str
    consumer_threads: tuple[str, ...]


def _assignments_of(thread: ast.Thread) -> list[ast.Assign]:
    return [node for node in thread.nodes if isinstance(node, ast.Assign)]


def _pragma_covered_variables(program: ast.Program) -> set[str]:
    covered: set[str] = set()
    for thread in program.threads:
        for stmt in _assignments_of(thread):
            for pragma in stmt.pragmas:
                if isinstance(pragma, ast.ConsumerPragma):
                    covered.add(ast.target_root(stmt.target))
                else:
                    covered.add(pragma.links[0].variable)
    return covered


def apply_inferred_pragmas(program: ast.Program) -> list[InferredDependency]:
    """Inject inferred pragmas into ``program`` (in place).

    Returns the list of injected dependencies.  Safe to call on programs
    that already carry pragmas: explicitly annotated variables are skipped.
    """
    declared: dict[str, set[str]] = {}
    for thread in program.threads:
        names: set[str] = set()
        for decl in thread.declarations():
            names.update(decl.names)
        names.update(thread.params)
        declared[thread.name] = names

    # Writers/readers at statement granularity.
    writing_stmts: dict[str, list[tuple[ast.Thread, ast.Assign]]] = {}
    reading_stmts: dict[str, dict[str, list[ast.Assign]]] = {}
    for thread in program.threads:
        for stmt in _assignments_of(thread):
            root = ast.target_root(stmt.target)
            writing_stmts.setdefault(root, []).append((thread, stmt))
            for name in ast.names_read(stmt.value):
                reading_stmts.setdefault(name, {}).setdefault(
                    thread.name, []
                ).append(stmt)

    covered = _pragma_covered_variables(program)
    inferred: list[InferredDependency] = []

    for variable in sorted(writing_stmts):
        if variable in covered:
            continue
        writers = writing_stmts[variable]
        if len(writers) != 1:
            continue  # needs a unique producing statement
        producer_thread, producing_stmt = writers[0]
        if variable not in declared.get(producer_thread.name, set()):
            continue  # parameters/constants are not storage

        readers = {
            thread_name: stmts
            for thread_name, stmts in reading_stmts.get(variable, {}).items()
            if thread_name != producer_thread.name
        }
        if not readers:
            continue
        if any(len(stmts) != 1 for stmts in readers.values()):
            continue  # ambiguous consumer endpoint
        # The consumer must not declare the name itself (that would be a
        # private variable that merely shadows the producer's).
        if any(
            variable in declared.get(thread_name, set())
            for thread_name in readers
        ):
            continue

        dep_id = f"auto_{variable}"
        links = []
        for thread_name in sorted(readers):
            consuming_stmt = readers[thread_name][0]
            links.append(
                ast.DependencyLink(
                    thread_name, ast.target_root(consuming_stmt.target)
                )
            )
            consuming_stmt.pragmas.append(
                ast.ProducerPragma(
                    dep_id,
                    [ast.DependencyLink(producer_thread.name, variable)],
                    consuming_stmt.location,
                )
            )
        producing_stmt.pragmas.append(
            ast.ConsumerPragma(dep_id, links, producing_stmt.location)
        )
        inferred.append(
            InferredDependency(
                dep_id=dep_id,
                variable=variable,
                producer_thread=producer_thread.name,
                consumer_threads=tuple(sorted(readers)),
            )
        )
    return inferred
