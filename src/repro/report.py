"""Paper-style result tables.

Renders the reproduction's measurements in the layout of the paper's
Tables 1 and 2 (P/C | LUT | FF | Slices) plus the in-text frequency series,
and records paper-vs-measured comparisons for EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass
class Table:
    """A simple monospace table."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        row = [str(cell) for cell in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        lines = [self.title, rule, fmt(self.headers), rule]
        lines.extend(fmt(row) for row in self.rows)
        lines.append(rule)
        return "\n".join(lines)


def area_table(
    title: str, rows: list[tuple[str, int, int, int]]
) -> Table:
    """The paper's Table 1/2 layout: P/C, LUT, FF, Slices."""
    table = Table(title=title, headers=["P/C", "LUT", "FF", "Slices"])
    for scenario, luts, ffs, slices in rows:
        table.add_row(scenario, luts, ffs, slices)
    return table


def frequency_table(
    title: str, rows: list[tuple[str, float, float, Optional[float]]]
) -> Table:
    """The §4 frequency series: scenario, measured fmax, target, paper."""
    table = Table(
        title=title,
        headers=["P/C", "fmax (MHz)", "target (MHz)", "paper (MHz)"],
    )
    for scenario, fmax, target, paper in rows:
        table.add_row(
            scenario,
            f"{fmax:.0f}",
            f"{target:.0f}",
            "n/a" if paper is None else f"{paper:.0f}",
        )
    return table


@dataclass
class Comparison:
    """One paper-vs-measured record for EXPERIMENTS.md."""

    experiment: str
    quantity: str
    paper_value: str
    measured_value: str
    verdict: str

    def render(self) -> str:
        return (
            f"{self.experiment}: {self.quantity} — paper {self.paper_value}, "
            f"measured {self.measured_value} [{self.verdict}]"
        )


def shape_verdict(paper: Sequence[float], measured: Sequence[float]) -> str:
    """Judge whether a measured series reproduces a paper series' shape.

    Returns ``"mismatch"`` when the two series move in different
    directions between some pair of points, else ``"match"`` when every
    point is within 10% of the paper's, else ``"shape-match"``.
    """
    if len(paper) != len(measured) or not paper:
        raise ValueError("series must be equal-length and non-empty")

    def direction(series: Sequence[float]) -> list[int]:
        return [
            (0 if b == a else (1 if b > a else -1))
            for a, b in zip(series, series[1:])
        ]

    if direction(paper) != direction(measured):
        return "mismatch"
    close = all(
        abs(m - p) / p <= 0.10 for p, m in zip(paper, measured) if p != 0
    )
    return "match" if close else "shape-match"
