"""Predict-pruned campaigns: simulate only the analytically-promising
slice of a run matrix.

A design-space campaign hands every grid point to the simulator; most
points are nowhere near the Pareto frontier and their simulations buy
nothing.  With a validated closed-form model (:mod:`repro.model`) the
whole grid can be scored analytically first — microseconds per point —
and only the predicted frontier plus a safety margin goes through
:func:`~repro.campaign.engine.run_matrix`.  The margin absorbs the
model's stated error bound, so a point the model *almost* places on the
frontier is simulated rather than risked.

The pruning decision is a pure function of the specs' payloads and the
margin, so a pruned campaign inherits every determinism guarantee of the
engine: the same matrix prunes to the same subset, and the merged
results are byte-identical across worker counts and resume boundaries.
Skipped points are reported as skipped — never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..model.pareto import DEFAULT_MARGIN, prune_objectives
from .engine import EngineConfig, EngineReport, RunSpec, run_matrix


@dataclass
class PruneReport:
    """A predict-pruned campaign: what ran, what was skipped, and why."""

    #: total grid size before pruning
    total: int
    #: spec indices that survived pruning (simulated), sorted
    kept: list = field(default_factory=list)
    #: spec indices the model ruled out, sorted
    skipped: list = field(default_factory=list)
    #: spec index -> the minimization objectives the decision used
    objectives: dict = field(default_factory=dict)
    #: the engine report for the kept subset (``results`` only covers
    #: kept indices)
    engine: Optional[EngineReport] = None

    @property
    def simulated_fraction(self) -> float:
        return len(self.kept) / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "schema": "repro.campaign.prune/1",
            "total": self.total,
            "kept": list(self.kept),
            "skipped": list(self.skipped),
            "simulated_fraction": round(self.simulated_fraction, 6),
        }


def predict_pruned_matrix(
    task: Callable[[dict], object],
    specs: Sequence[RunSpec],
    objectives: Callable[[dict], tuple],
    config: EngineConfig = EngineConfig(),
    *,
    margin: float = DEFAULT_MARGIN,
    exact: Sequence[int] = (),
) -> PruneReport:
    """Score every spec analytically, simulate only the promising ones.

    ``objectives`` maps a spec's payload to a *minimization* tuple (for
    the canonical DSE axes: ``(-throughput, wait, area)``); it must be
    cheap and pure — it runs once per grid point in the orchestrator.
    ``exact`` names tuple positions carrying no model error (measured
    quantities like slice area), which the margin relaxation leaves
    untouched.  Everything that survives
    :func:`~repro.model.pareto.prune_objectives` runs through the
    engine under ``config``; the rest is recorded as skipped.
    """
    ordered = sorted(specs, key=lambda spec: spec.index)
    scored = [tuple(objectives(spec.payload)) for spec in ordered]
    keep_positions = prune_objectives(scored, margin, exact=exact)
    kept_specs = [ordered[position] for position in keep_positions]
    kept_indices = {spec.index for spec in kept_specs}

    report = PruneReport(
        total=len(ordered),
        kept=sorted(kept_indices),
        skipped=sorted(
            spec.index for spec in ordered
            if spec.index not in kept_indices
        ),
        objectives={
            spec.index: scored[position]
            for position, spec in enumerate(ordered)
        },
    )
    report.engine = run_matrix(task, kept_specs, config)
    return report
