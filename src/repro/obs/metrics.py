"""A small labelled-metrics registry: counters, gauges, histograms.

The shape deliberately follows the Prometheus data model (metric name +
help + type, label sets, cumulative histogram buckets) so the text
exposition renderer in :meth:`MetricsRegistry.render_prometheus` is a
direct mapping, but the registry itself has no I/O and no dependencies —
it is just deterministic dictionaries the exporters serialize.

Rendering is byte-stable: metrics appear in registration order, label
sets in sorted order, and values are formatted with a fixed rule
(integers without a decimal point, floats via ``repr``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

Number = Union[int, float]

#: Default histogram buckets, in cycles: powers of two up to a full
#: watchdog window, plus the implicit +Inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # bools are ints; refuse the ambiguity
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(label_names: Sequence[str], key: tuple) -> str:
    if not label_names:
        return ""
    pairs = ",".join(
        f'{name}="{value}"' for name, value in zip(label_names, key)
    )
    return "{" + pairs + "}"


def _sanitize(name: str) -> str:
    out = [c if (c.isalnum() or c in "_:") else "_" for c in name]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


@dataclass
class _Metric:
    """Common shape of one named metric with its label schema."""

    name: str
    help: str
    label_names: tuple[str, ...]

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


@dataclass
class Counter(_Metric):
    """A monotonically increasing count per label set."""

    _values: dict[tuple, Number] = field(default_factory=dict)

    type_name = "counter"

    def inc(self, amount: Number = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> Number:
        return self._values.get(self._key(labels), 0)

    def samples(self) -> list[tuple[tuple, Number]]:
        return sorted(self._values.items())


@dataclass
class Gauge(_Metric):
    """A point-in-time value per label set."""

    _values: dict[tuple, Number] = field(default_factory=dict)

    type_name = "gauge"

    def set(self, value: Number, **labels) -> None:
        self._values[self._key(labels)] = value

    def inc(self, amount: Number = 1, **labels) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> Number:
        return self._values.get(self._key(labels), 0)

    def samples(self) -> list[tuple[tuple, Number]]:
        return sorted(self._values.items())


@dataclass
class _HistogramState:
    counts: list[int]
    total: int = 0
    sum: float = 0.0


@dataclass
class Histogram(_Metric):
    """Cumulative-bucket histogram per label set (Prometheus semantics:
    ``le`` buckets are inclusive upper bounds, +Inf is implicit)."""

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    _values: dict[tuple, _HistogramState] = field(default_factory=dict)

    type_name = "histogram"

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def _state(self, key: tuple) -> _HistogramState:
        state = self._values.get(key)
        if state is None:
            state = _HistogramState(counts=[0] * (len(self.buckets) + 1))
            self._values[key] = state
        return state

    def observe(self, value: Number, **labels) -> None:
        state = self._state(self._key(labels))
        state.counts[bisect.bisect_left(self.buckets, value)] += 1
        state.total += 1
        state.sum += value

    def observe_many(self, values: Iterable[Number], **labels) -> None:
        """``observe`` each value under one label set, resolving the
        label key once rather than per value.  The sum accumulates in
        value order, exactly as the per-value loop does.  A wrong label
        set raises even for empty ``values``; empty ``values`` with the
        right labels records nothing (no empty series appears)."""
        key = self._key(labels)
        buckets = self.buckets
        bisect_left = bisect.bisect_left
        state = None
        for value in values:
            if state is None:
                state = self._state(key)
                counts = state.counts
            counts[bisect_left(buckets, value)] += 1
            state.sum += value
        if state is not None:
            state.total = sum(counts)  # every observation lands in a bucket

    def count(self, **labels) -> int:
        state = self._values.get(self._key(labels))
        return state.total if state is not None else 0

    def samples(self) -> list[tuple[tuple, _HistogramState]]:
        return sorted(self._values.items())


class MetricsRegistry:
    """Ordered collection of named metrics with idempotent registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def clear(self) -> None:
        self._metrics.clear()

    def _register(self, cls, name, help, labels, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered with a different "
                    "type or label schema"
                )
            return existing
        metric = cls(
            name=_sanitize(name), help=help, label_names=tuple(labels), **kwargs
        )
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Histogram:
        return self._register(Histogram, name, help, labels)

    # -- exposition -------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            if isinstance(metric, Histogram):
                self._render_histogram(metric, lines)
                continue
            for key, value in metric.samples():
                labels = _format_labels(metric.label_names, key)
                lines.append(f"{metric.name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(metric: Histogram, lines: list[str]) -> None:
        for key, state in metric.samples():
            cumulative = 0
            for bound, count in zip(metric.buckets, state.counts):
                cumulative += count
                bucket_key = key + (_format_value(bound),)
                labels = _format_labels(
                    metric.label_names + ("le",), bucket_key
                )
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
            inf_key = key + ("+Inf",)
            labels = _format_labels(metric.label_names + ("le",), inf_key)
            lines.append(f"{metric.name}_bucket{labels} {state.total}")
            plain = _format_labels(metric.label_names, key)
            lines.append(f"{metric.name}_sum{plain} {_format_value(state.sum)}")
            lines.append(f"{metric.name}_count{plain} {state.total}")

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (the summary exporter's raw material)."""
        out: dict = {}
        for metric in self._metrics.values():
            entry: dict = {
                "type": metric.type_name,
                "help": metric.help,
                "values": [],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                for key, state in metric.samples():
                    entry["values"].append(
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "counts": list(state.counts),
                            "count": state.total,
                            "sum": state.sum,
                        }
                    )
            else:
                for key, value in metric.samples():
                    entry["values"].append(
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "value": value,
                        }
                    )
            out[metric.name] = entry
        return out
