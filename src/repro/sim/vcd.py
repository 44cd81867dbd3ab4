"""Value-change-dump (VCD) trace writer.

Produces standard VCD text viewable in GTKWave.  The kernel's post-cycle
hook samples registered signals (thread states, controller activity) once
per cycle; only changes are emitted, as the format prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

SignalValue = Union[int, str]

#: Printable VCD identifier characters.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short VCD identifier for the index-th signal."""
    chars = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


@dataclass
class _Signal:
    name: str
    width: int
    ident: str
    sample: Callable[[], SignalValue]
    last: SignalValue = None  # type: ignore[assignment]


@dataclass
class VcdWriter:
    """Collects signal samples and renders a VCD document.

    Usage::

        vcd = VcdWriter(timescale="8 ns")   # one cycle at 125 MHz
        vcd.add_signal("t1.state", 4, lambda: executor_state_code())
        kernel.add_post_cycle_hook(vcd.hook)
        ...
        text = vcd.render()
    """

    timescale: str = "1 ns"
    module: str = "design"
    _signals: list[_Signal] = field(default_factory=list)
    _changes: list[tuple[int, str, int, SignalValue]] = field(default_factory=list)

    def add_signal(
        self, name: str, width: int, sample: Callable[[], SignalValue]
    ) -> None:
        """Register a signal with a sampling callback."""
        if width <= 0:
            raise ValueError("signal width must be positive")
        ident = _identifier(len(self._signals))
        self._signals.append(_Signal(name, width, ident, sample))

    def sample_all(self, cycle: int) -> None:
        """Sample every signal; record only changes."""
        for signal in self._signals:
            value = signal.sample()
            if value != signal.last:
                signal.last = value
                self._changes.append((cycle, signal.ident, signal.width, value))

    def hook(self, cycle: int, kernel) -> None:
        """Kernel post-cycle hook form of :meth:`sample_all`."""
        self.sample_all(cycle)

    @staticmethod
    def _format_value(value: SignalValue, width: int, ident: str) -> str:
        if isinstance(value, str):
            bits = value
        else:
            bits = format(value & ((1 << width) - 1), f"0{width}b")
        if width == 1:
            return f"{bits}{ident}"
        return f"b{bits} {ident}"

    def render(self) -> str:
        lines = [
            "$date repro simulation $end",
            "$version repro.sim.vcd $end",
            f"$timescale {self.timescale} $end",
            f"$scope module {self.module} $end",
        ]
        for signal in self._signals:
            safe = signal.name.replace(" ", "_")
            lines.append(
                f"$var wire {signal.width} {signal.ident} {safe} $end"
            )
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        current_time = None
        for cycle, ident, width, value in self._changes:
            if cycle != current_time:
                lines.append(f"#{cycle}")
                current_time = cycle
            lines.append(self._format_value(value, width, ident))
        return "\n".join(lines) + "\n"
