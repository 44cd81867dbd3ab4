"""FSM optimization passes.

The baseline FSM builder emits one state per statement, which is correct
but wastes cycles on straight-line register arithmetic.  These passes
tighten the machines the way a behavioral synthesis backend would:

* :func:`eliminate_dead_states` — drops states unreachable from the
  initial state (left behind by ``break``/``continue``/``return``) and
  collapses empty pass-through states;
* :func:`pack_compute_states` — merges chains of register-only compute
  states whose combined operations fit the datapath's resource budget in
  one cycle (operator chaining), using the resource classes of
  :mod:`repro.synth.schedule`.  Memory-access, receive/transmit, and
  branching states are never merged: the paper's discipline keeps each
  memory access in its own known state.

Both passes preserve the observable dataflow: merged computes execute in
original order within the single cycle, matching sequential chaining of
combinational logic.
"""

from __future__ import annotations

from .fsm import ComputeOp, State, ThreadFsm
from .schedule import DEFAULT_RESOURCES, expression_operations


def eliminate_dead_states(fsm: ThreadFsm) -> int:
    """Remove unreachable states; returns how many were dropped."""
    reachable = fsm.reachable_states()
    dead = [name for name in fsm.states if name not in reachable]
    for name in dead:
        del fsm.states[name]
    for dep_id, names in list(fsm.sync_states.items()):
        fsm.sync_states[dep_id] = [n for n in names if n in reachable]
    return len(dead)


def collapse_passthrough_states(fsm: ThreadFsm) -> int:
    """Collapse empty states with a single unconditional successor.

    An empty state whose only transition is unconditional adds a cycle of
    pure control overhead (join states, loop headers that guard nothing).
    Loop headers (states that are a transition target of a *later* state,
    i.e. back-edge targets) are kept: removing them would change loop
    timing in ways a real synthesis tool would not.
    """
    # Back-edge targets must keep their identity.
    order = {name: i for i, name in enumerate(fsm.states)}
    back_targets = {
        tr.target
        for state in fsm.states.values()
        for tr in state.transitions
        if order.get(tr.target, 0) <= order.get(state.name, 0)
    }

    collapsed = 0
    changed = True
    while changed:
        changed = False
        for name, state in list(fsm.states.items()):
            if name == fsm.initial or name in back_targets:
                continue
            if state.ops or len(state.transitions) != 1:
                continue
            transition = state.transitions[0]
            if transition.guard is not None or transition.target == name:
                continue
            target = transition.target
            for other in fsm.states.values():
                for tr in other.transitions:
                    if tr.target == name:
                        tr.target = target
            del fsm.states[name]
            collapsed += 1
            changed = True
            break
    return collapsed


def _compute_only(state: State) -> bool:
    return bool(state.ops) and all(
        isinstance(op, ComputeOp) for op in state.ops
    )


def _op_demand(state: State) -> dict[str, int]:
    """Resource demand of a state's compute expressions."""
    demand: dict[str, int] = {}
    for op in state.ops:
        assert isinstance(op, ComputeOp)
        for kind, __ in expression_operations(op.expr):
            demand[kind] = demand.get(kind, 0) + 1
    return demand


def pack_compute_states(fsm: ThreadFsm) -> int:
    """Merge linear chains of compute-only states; returns merges done.

    Two adjacent states merge when the first's only transition is an
    unconditional edge to the second, the second has no other predecessors,
    both are compute-only, and their combined resource demand fits the
    per-cycle budget of :data:`DEFAULT_RESOURCES`.  Chained dataflow (the
    second reading what the first wrote) is fine — that is exactly
    operator chaining within one cycle.
    """
    merges = 0
    changed = True
    while changed:
        changed = False
        predecessor_count: dict[str, int] = {}
        for state in fsm.states.values():
            for tr in state.transitions:
                predecessor_count[tr.target] = (
                    predecessor_count.get(tr.target, 0) + 1
                )
        for name, state in list(fsm.states.items()):
            if not _compute_only(state):
                continue
            if len(state.transitions) != 1:
                continue
            transition = state.transitions[0]
            if transition.guard is not None:
                continue
            target_name = transition.target
            if target_name == name or target_name == fsm.initial:
                continue
            target = fsm.states.get(target_name)
            if target is None or not _compute_only(target):
                continue
            if predecessor_count.get(target_name, 0) != 1:
                continue
            combined: dict[str, int] = _op_demand(state)
            for kind, count in _op_demand(target).items():
                combined[kind] = combined.get(kind, 0) + count
            if any(
                count > DEFAULT_RESOURCES.get(kind, 1)
                for kind, count in combined.items()
            ):
                continue
            # Merge: ops execute in order, transitions come from the target.
            state.ops.extend(target.ops)
            state.transitions = target.transitions
            del fsm.states[target_name]
            merges += 1
            changed = True
            break
    return merges


def optimize_fsm(fsm: ThreadFsm) -> dict[str, int]:
    """Run all passes to a fixpoint; returns per-pass counters."""
    counters = {"dead": 0, "collapsed": 0, "packed": 0}
    changed = True
    while changed:
        dead = eliminate_dead_states(fsm)
        collapsed = collapse_passthrough_states(fsm)
        packed = pack_compute_states(fsm)
        counters["dead"] += dead
        counters["collapsed"] += collapsed
        counters["packed"] += packed
        changed = bool(dead or collapsed or packed)
    return counters
