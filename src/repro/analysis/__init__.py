"""Static analyses over checked hic programs.

This package implements the front-end analyses the paper relies on:

* :mod:`~repro.analysis.usedef` — use-def chains and pragma-free
  producer/consumer inference;
* :mod:`~repro.analysis.lifetime` — variable live ranges and memory-size
  analysis;
* :mod:`~repro.analysis.depgraph` — the inter-thread dependency graph;
* :mod:`~repro.analysis.memgraph` — the memory access graph that drives
  memory allocation, and the operation order graph (built on first read);
* :mod:`~repro.analysis.deadlock` — static deadlock detection over the
  producer/consumer happens-before relation.
"""

from .deadlock import (
    DeadlockReport,
    Event,
    assert_deadlock_free,
    check_deadlock,
    wait_chain_depth,
)
from .depgraph import DepEdge, DependencyGraph
from .lifetime import (
    LiveRange,
    StorageRequirement,
    ThreadLifetimes,
    dependency_footprint,
    storage_requirements,
    thread_lifetimes,
    total_bits,
)
from .memgraph import (
    AccessKind,
    MemOperation,
    MemoryAccessGraph,
    OperationOrderGraph,
    build_memory_graphs,
)
from .usedef import (
    StatementInfo,
    ThreadUseDef,
    analyze_thread,
    linearize,
    use_def_chains,
)

__all__ = [
    "DeadlockReport",
    "Event",
    "assert_deadlock_free",
    "check_deadlock",
    "wait_chain_depth",
    "DepEdge",
    "DependencyGraph",
    "LiveRange",
    "StorageRequirement",
    "ThreadLifetimes",
    "dependency_footprint",
    "storage_requirements",
    "thread_lifetimes",
    "total_bits",
    "AccessKind",
    "MemOperation",
    "MemoryAccessGraph",
    "OperationOrderGraph",
    "build_memory_graphs",
    "StatementInfo",
    "ThreadUseDef",
    "analyze_thread",
    "linearize",
    "use_def_chains",
]
