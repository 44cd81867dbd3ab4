"""Analytical design-space sweeps and Pareto pruning.

The point of a validated closed-form model is that a design-space grid
stops costing simulations: every point is ~10 microseconds of
arithmetic, so the sweep evaluates the *whole* grid analytically,
computes the Pareto frontier over (throughput up, consumer wait down,
slice area down), and — in predict-prune mode — hands only the frontier
plus a safety margin to the simulator for confirmation.  The margin
absorbs the model's stated error (docs/performance_model.md): a point
the model places within ``margin`` of non-dominated could be on the
true frontier, so it is simulated too.

Everything here is deterministic: the grid enumerates in sorted axis
order and ties break on the point index, so the selected prune set is
byte-stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.advisor import Organization
from .fabric import area_slices
from .parameters import ModelParameters
from .predict import Prediction, predict

#: Safety margin for predict-prune: a point whose objectives are within
#: this relative slack of escaping domination is treated as potentially
#: frontier and simulated.  Sized to the model's validated error bound.
DEFAULT_MARGIN = 0.15


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid configuration."""

    index: int
    params: ModelParameters
    prediction: Prediction
    area: int

    @property
    def objectives(self) -> tuple:
        """Minimization objectives: (-throughput, wait, area)."""
        return (
            -self.prediction.throughput,
            self.prediction.consumer_wait,
            float(self.area),
        )

    def row(self) -> dict:
        p = self.params
        return {
            "index": self.index,
            "organization": p.organization.value,
            "banks": p.banks,
            "link_latency": p.link_latency,
            "traffic_rate": round(p.traffic_rate, 6),
            "throughput": round(self.prediction.throughput, 6),
            "consumer_wait": round(self.prediction.consumer_wait, 6),
            "area_slices": self.area,
        }


@dataclass
class SweepResult:
    """The evaluated grid plus its predicted frontier."""

    points: list = field(default_factory=list)
    frontier: list = field(default_factory=list)  # indices into points
    pruned: list = field(default_factory=list)  # frontier + margin

    def to_dict(self) -> dict:
        return {
            "schema": "repro.model.sweep/1",
            "grid_size": len(self.points),
            "frontier": list(self.frontier),
            "pruned": list(self.pruned),
            "points": [point.row() for point in self.points],
        }


def sweep_grid(
    base: ModelParameters,
    *,
    banks: Sequence[int] = (1, 2, 4),
    link_latencies: Sequence[int] = (1, 2, 3),
    rates: Sequence[float] = (0.02, 0.9),
) -> list:
    """Enumerate the grid over every organization, in sorted axis order
    (deterministic)."""
    grid = []
    for organization in sorted(Organization, key=lambda o: o.value):
        for bank_count in sorted(banks):
            for link in sorted(link_latencies):
                for rate in sorted(rates):
                    grid.append(
                        base.with_config(
                            organization=organization,
                            banks=bank_count,
                            link_latency=link,
                            traffic_rate=rate,
                        )
                    )
    return grid


def evaluate_grid(configs: Iterable[ModelParameters]) -> list:
    """Predict every configuration (area memoized per structural key)."""
    points = []
    for index, params in enumerate(configs):
        points.append(
            SweepPoint(
                index=index,
                params=params,
                prediction=predict(params),
                area=area_slices(params),
            )
        )
    return points


def _dominates(a: tuple, b: tuple) -> bool:
    """Strict Pareto dominance on minimization tuples."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def frontier_objectives(objectives: Sequence[tuple]) -> list:
    """Indices of the non-dominated set over raw minimization tuples.

    The tuple-level primitive under :func:`pareto_frontier`, exported so
    other layers (:mod:`repro.campaign.prune`) can prune arbitrary
    matrices without adopting :class:`SweepPoint`.
    """
    frontier = []
    for i, point in enumerate(objectives):
        if not any(
            _dominates(other, point)
            for j, other in enumerate(objectives)
            if j != i
        ):
            frontier.append(i)
    return frontier


def pareto_frontier(points: Sequence[SweepPoint]) -> list:
    """Indices (into ``points``) of the non-dominated set, sorted."""
    return frontier_objectives([point.objectives for point in points])


def prune_objectives(
    objectives: Sequence[tuple],
    margin: float = DEFAULT_MARGIN,
    *,
    exact: Sequence[int] = (2,),
) -> list:
    """Indices worth simulating over raw minimization tuples: every
    point whose margin-relaxed objectives would be non-dominated.

    ``exact`` names the tuple positions that carry no model error (area,
    by default) and are therefore not relaxed.
    """
    exact_set = set(exact)
    keep = []
    for i, point in enumerate(objectives):
        relaxed = tuple(
            value if axis in exact_set else value - abs(value) * margin
            for axis, value in enumerate(point)
        )
        if not any(
            _dominates(other, relaxed)
            for j, other in enumerate(objectives)
            if j != i
        ):
            keep.append(i)
    return keep


def prune(
    points: Sequence[SweepPoint], margin: float = DEFAULT_MARGIN
) -> list:
    """Indices worth simulating: the predicted frontier plus every point
    whose error-relaxed objectives would be non-dominated."""
    return prune_objectives(
        [point.objectives for point in points], margin
    )


def run_sweep(
    base: ModelParameters,
    *,
    banks: Sequence[int] = (1, 2, 4),
    link_latencies: Sequence[int] = (1, 2, 3),
    rates: Sequence[float] = (0.02, 0.9),
    margin: float = DEFAULT_MARGIN,
) -> SweepResult:
    """Evaluate the grid and mark its frontier and prune set."""
    configs = sweep_grid(
        base, banks=banks, link_latencies=link_latencies, rates=rates
    )
    points = evaluate_grid(configs)
    return SweepResult(
        points=points,
        frontier=pareto_frontier(points),
        pruned=prune(points, margin),
    )
