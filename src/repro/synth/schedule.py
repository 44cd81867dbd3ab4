"""Operation scheduling for behavioral synthesis.

The paper (section 3) applies "a series of synthesis steps ... well
researched in the behavioral synthesis community [6]" to turn hic threads
into cycle-accurate state machines.  This module provides the scheduling
half of that: a dataflow graph over the primitive operations of a
straight-line statement sequence, with ASAP, ALAP, and resource-constrained
list scheduling.

The FSM builder uses list scheduling to pack independent register-to-
register computations into shared states; the timing model uses ASAP levels
as the combinational depth of each state's datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hic import ast

#: Default resource constraints: how many operations of each class may be
#: scheduled in one cycle.  Memory ports are the scarce resource the paper
#: cares about; ALU-class limits model a modest datapath.
DEFAULT_RESOURCES: dict[str, int] = {
    "alu": 2,       # add/sub/logic
    "mul": 1,       # multiply/divide/modulo
    "cmp": 2,       # comparisons
    "mem": 1,       # memory accesses per port per cycle
    "call": 1,      # combinational function blocks
}


def op_class(op: str) -> str:
    """Resource class of an expression operator."""
    if op in ("*", "/", "%"):
        return "mul"
    if op in ("==", "!=", "<", "<=", ">", ">=") or op in ("&&", "||", "!"):
        return "cmp"
    return "alu"


def expression_operations(expr: ast.Expr) -> list[tuple[str, str]]:
    """``(resource class, label)`` of every operation in an expression,
    depth-first pre-order."""
    ops: list[tuple[str, str]] = []
    for node in ast.walk(expr):
        if isinstance(node, (ast.Binary, ast.Unary)):
            ops.append((op_class(node.op), node.op))
        elif isinstance(node, ast.Conditional):
            ops.append(("alu", "?:"))
        elif isinstance(node, ast.Call):
            ops.append(("call", node.callee))
    return ops


@dataclass
class DfgNode:
    """One primitive operation in the dataflow graph."""

    index: int
    kind: str            # resource class: alu/mul/cmp/mem/call/const/var
    label: str           # operator symbol or name, for reports
    preds: list[int] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.preds


@dataclass
class DataflowGraph:
    """Dataflow DAG over the operations of a statement sequence."""

    nodes: list[DfgNode] = field(default_factory=list)
    #: nodes that define each variable last (for chaining across statements)
    last_def: dict[str, int] = field(default_factory=dict)

    def add_node(self, kind: str, label: str, preds: list[int]) -> int:
        index = len(self.nodes)
        node = DfgNode(index=index, kind=kind, label=label, preds=list(preds))
        self.nodes.append(node)
        for pred in preds:
            self.nodes[pred].succs.append(index)
        return index

    def op_nodes(self) -> list[DfgNode]:
        """Nodes that consume a resource (excludes constants/variable reads)."""
        return [n for n in self.nodes if n.kind in DEFAULT_RESOURCES]

    def depth(self) -> int:
        """Longest operation chain (critical path in operations)."""
        levels = self.asap()
        if not levels:
            return 0
        return max(levels.values()) + 1

    # -- schedules -----------------------------------------------------------------

    def asap(self) -> dict[int, int]:
        """As-soon-as-possible levels for resource-consuming nodes.

        Leaf/variable/constant nodes sit at level -1 conceptually; the first
        operation level is 0.
        """
        level: dict[int, int] = {}
        for node in self.nodes:  # nodes are in topological order by build
            pred_levels = [
                level.get(p, -1) for p in node.preds
            ]
            base = max(pred_levels, default=-1)
            if node.kind in DEFAULT_RESOURCES:
                level[node.index] = base + 1
            else:
                level[node.index] = base
        return {n.index: level[n.index] for n in self.op_nodes()}

    def alap(self, length: int | None = None) -> dict[int, int]:
        """As-late-as-possible levels against a schedule of ``length`` steps
        (defaults to the ASAP length)."""
        asap_levels = self.asap()
        if not asap_levels:
            return {}
        if length is None:
            length = max(asap_levels.values()) + 1
        level: dict[int, int] = {}
        for node in reversed(self.nodes):
            succ_levels = [level.get(s, length) for s in node.succs]
            ceiling = min(succ_levels, default=length)
            if node.kind in DEFAULT_RESOURCES:
                level[node.index] = ceiling - 1
            else:
                level[node.index] = ceiling
        return {n.index: level[n.index] for n in self.op_nodes()}

    def list_schedule(
        self, resources: dict[str, int] | None = None
    ) -> dict[int, int]:
        """Resource-constrained list scheduling.

        Priority is ALAP level (operations with less slack go first).
        Returns operation node index -> cycle.
        """
        if resources is None:
            resources = dict(DEFAULT_RESOURCES)
        asap_levels = self.asap()
        if not asap_levels:
            return {}
        alap_levels = self.alap(length=len(asap_levels) + self.depth())
        schedule: dict[int, int] = {}
        unscheduled = set(asap_levels)
        cycle = 0
        while unscheduled:
            used: dict[str, int] = {k: 0 for k in resources}
            ready = sorted(
                (
                    idx
                    for idx in unscheduled
                    if all(
                        (p not in asap_levels) or (p in schedule and schedule[p] < cycle)
                        for p in self._op_preds(idx)
                    )
                ),
                key=lambda idx: (alap_levels.get(idx, 0), idx),
            )
            for idx in ready:
                kind = self.nodes[idx].kind
                limit = resources.get(kind, 1)
                if used[kind] < limit:
                    schedule[idx] = cycle
                    used[kind] += 1
                    unscheduled.discard(idx)
            cycle += 1
            if cycle > 4 * (len(self.nodes) + 1):  # pragma: no cover
                raise RuntimeError("list scheduling failed to converge")
        return schedule

    def _op_preds(self, index: int) -> set[int]:
        """Transitive predecessors that are resource-consuming operations."""
        result: set[int] = set()
        stack = list(self.nodes[index].preds)
        while stack:
            p = stack.pop()
            node = self.nodes[p]
            if node.kind in DEFAULT_RESOURCES:
                result.add(p)
            else:
                stack.extend(node.preds)
        return result

    def schedule_length(self, resources: dict[str, int] | None = None) -> int:
        schedule = self.list_schedule(resources)
        if not schedule:
            return 0
        return max(schedule.values()) + 1


def build_expr_dfg(
    graph: DataflowGraph, expr: ast.Expr
) -> int:
    """Add an expression's operations to the graph, returning its root node."""
    if isinstance(expr, (ast.IntLiteral, ast.CharLiteral, ast.BoolLiteral)):
        return graph.add_node("const", str(getattr(expr, "value", "")), [])
    if isinstance(expr, ast.Name):
        if expr.ident in graph.last_def:
            return graph.last_def[expr.ident]
        return graph.add_node("var", expr.ident, [])
    if isinstance(expr, ast.FieldAccess):
        base = build_expr_dfg(graph, expr.base)
        return graph.add_node("mem", f".{expr.field_name}", [base])
    if isinstance(expr, ast.Index):
        base = build_expr_dfg(graph, expr.base)
        index = build_expr_dfg(graph, expr.index)
        return graph.add_node("mem", "[]", [base, index])
    if isinstance(expr, ast.Unary):
        operand = build_expr_dfg(graph, expr.operand)
        return graph.add_node(op_class(expr.op), expr.op, [operand])
    if isinstance(expr, ast.Binary):
        left = build_expr_dfg(graph, expr.left)
        right = build_expr_dfg(graph, expr.right)
        return graph.add_node(op_class(expr.op), expr.op, [left, right])
    if isinstance(expr, ast.Conditional):
        cond = build_expr_dfg(graph, expr.cond)
        then_v = build_expr_dfg(graph, expr.then_value)
        else_v = build_expr_dfg(graph, expr.else_value)
        return graph.add_node("alu", "?:", [cond, then_v, else_v])
    if isinstance(expr, ast.Call):
        args = [build_expr_dfg(graph, a) for a in expr.args]
        return graph.add_node("call", expr.callee, args)
    raise TypeError(f"unsupported expression {type(expr).__name__}")


def build_statement_dfg(statements: list[ast.Assign]) -> DataflowGraph:
    """Build a dataflow graph over a straight-line assignment sequence.

    Def-use chaining between statements is honoured via ``last_def``; this
    is what exposes inter-statement parallelism to the list scheduler.
    """
    graph = DataflowGraph()
    for stmt in statements:
        name = ast.target_root(stmt.target)
        root = build_expr_dfg(graph, stmt.value)
        if stmt.op != "=":
            target_read = graph.last_def.get(
                name, graph.add_node("var", name, [])
            )
            root = graph.add_node(
                op_class(stmt.op[:-1]), stmt.op[:-1], [target_read, root]
            )
        graph.last_def[name] = root
    return graph


def expression_depth(expr: ast.Expr) -> int:
    """Operation depth of a single expression (for timing estimation)."""
    graph = DataflowGraph()
    build_expr_dfg(graph, expr)
    return graph.depth()
