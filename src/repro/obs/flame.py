"""Flamegraph exporters over the attribution ledger.

Two renderings of the same stacks:

* **folded stacks** (:func:`folded_stacks`) — the Brendan Gregg
  ``frame;frame;frame count`` text format, one line per attribution
  cell, sorted; feed it to any ``flamegraph.pl``-compatible tool;
* **self-contained SVG** (:func:`render_flame_svg`) — a minimal
  three-level icicle (thread → wait state → site:port) rendered with
  integer-free deterministic layout (fixed canvas, widths proportional
  to cycle counts, fixed-precision coordinates), so the artifact is
  byte-identical across runs and platforms.

Stack shape: ``thread;state`` for executing/idle cycles (they happen at
the thread) and ``thread;state;site:port`` for attributed waits.
"""

from __future__ import annotations

from .attribution import NO_SITE
from .profiler import CycleProfiler

#: Fixed fill palette, picked per frame by a stable string hash.
_PALETTE = (
    "#d62728",
    "#ff7f0e",
    "#2ca02c",
    "#1f77b4",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_WIDTH = 1200.0
_ROW_HEIGHT = 18
_FONT_SIZE = 11


def folded_stacks(profiler: CycleProfiler) -> str:
    """The ledger as sorted folded-stack lines."""
    lines = []
    for (thread, state, site, port), count in profiler.ledger.sorted_cells():
        frames = [thread, state]
        if site != NO_SITE:
            frames.append(f"{site}:{port}")
        lines.append(f"{';'.join(frames)} {count}")
    return "\n".join(lines) + "\n" if lines else ""


def _color(frame: str) -> str:
    return _PALETTE[sum(ord(ch) for ch in frame) % len(_PALETTE)]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _boxes(stacks: list[tuple[tuple[str, ...], int]]) -> list[tuple]:
    """Flatten sorted stacks into (depth, x, width, frame, count) boxes."""
    total = sum(count for __, count in stacks)
    if total == 0:
        return []
    boxes: list[tuple] = []

    def walk(items: list[tuple[tuple[str, ...], int]], depth: int, x: float):
        index = 0
        while index < len(items):
            frame = items[index][0][0]
            group: list[tuple[tuple[str, ...], int]] = []
            count = 0
            while index < len(items) and items[index][0][0] == frame:
                stack, cycles = items[index]
                count += cycles
                if len(stack) > 1:
                    group.append((stack[1:], cycles))
                index += 1
            width = _WIDTH * count / total
            boxes.append((depth, x, width, frame, count))
            walk(group, depth + 1, x)
            x += width

    walk(sorted(stacks), 0, 0.0)
    return boxes


def render_flame_svg(profiler: CycleProfiler) -> str:
    """A deterministic, dependency-free flamegraph SVG."""
    stacks: list[tuple[tuple[str, ...], int]] = []
    for (thread, state, site, port), count in profiler.ledger.sorted_cells():
        frames = (thread, state) if site == NO_SITE else (
            thread,
            state,
            f"{site}:{port}",
        )
        stacks.append((frames, count))
    boxes = _boxes(stacks)
    depth = max((box[0] for box in boxes), default=0) + 1
    height = (depth + 2) * _ROW_HEIGHT
    parts = [
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_WIDTH:.0f}" height="{height}" '
            f'font-family="monospace" font-size="{_FONT_SIZE}">'
        ),
        (
            f'<text x="4" y="{_ROW_HEIGHT - 5}">'
            "cycle attribution "
            f"({sum(count for __, count in stacks)} thread-cycles)</text>"
        ),
    ]
    for level, x, width, frame, count in boxes:
        if width <= 0:
            continue
        y = (level + 1) * _ROW_HEIGHT
        label = f"{frame} ({count})"
        parts.append(
            f'<g><title>{_escape(label)}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{width:.2f}" '
            f'height="{_ROW_HEIGHT - 1}" fill="{_color(frame)}" '
            f'stroke="white" stroke-width="0.5"/>'
            + (
                f'<text x="{x + 3:.2f}" y="{y + _ROW_HEIGHT - 5}">'
                f"{_escape(label[: max(0, int(width // 7))])}</text>"
                if width > 20
                else ""
            )
            + "</g>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

