"""The scenario catalogue: generated hic process networks.

Four streaming shapes, each free-running (no network interfaces) so
every simulation kernel produces byte-identical telemetry:

* ``forwarding`` — the paper's own broadcast workload (§4): one
  classifier fans a decision word out to two egress threads.  Every
  dependency is a broadcast, so channel classification changes nothing;
  this is the all-guarded baseline.
* ``pipeline``   — parse → filt → route → stats, a linear four-stage
  pipeline.  All three inter-stage channels are single-writer in-order
  streams, so FIFO synthesis removes the guarded BRAM entirely.
* ``fanout``     — a splitter feeding three parallel workers a private
  stream each, plus a broadcast ``mode`` word to all of them: FIFO and
  guarded channels coexist in one design.
* ``fanin``      — three producers merging into one stats collector over
  three private streams, all FIFO-lowerable.

Every stage folds each consumed value into a running accumulator
(``*_acc`` / ``total``), so two runs consume identical value sequences
iff their accumulators agree after the same number of consumer rounds —
the equivalence oracle used by the differential and property suites
(:func:`collect_round_snapshots`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: 36-bit BRAM word (data_bits of the paper's platform BRAMs).
_MASK = (1 << 36) - 1


def scenario_functions() -> dict[str, Callable[..., int]]:
    """Deterministic intrinsic bindings shared by the generated scenarios.

    Every function is a bijective-ish integer mixer masked to the 36-bit
    BRAM word, so consumed-value sequences are sensitive to ordering,
    duplication, and loss — a reordered or dropped channel value changes
    every later accumulator state.
    """

    def step(x: int) -> int:
        return (x + 1) & _MASK

    def mix(x: int) -> int:
        # Knuth multiplicative hash, truncated to the BRAM word.
        return (x * 2654435761 + 7) & _MASK

    def fold(value: int, acc: int) -> int:
        return (value ^ ((acc << 1) & _MASK) ^ (acc >> 3)) & _MASK

    def gather(value: int, acc: int) -> int:
        return (acc * 31 + value) & _MASK

    def gate(mode: int, acc: int) -> int:
        return (mode + (acc ^ 5)) & _MASK

    return {
        "step": step,
        "mix": mix,
        "fold": fold,
        "gather": gather,
        "gate": gate,
    }


# -- hic source builders ---------------------------------------------------------------


def _stage_names(stages: int) -> list[str]:
    canonical = ("parse", "filt", "route", "stats")
    if stages == len(canonical):
        return list(canonical)
    return [f"stage{i}" for i in range(stages)]


def pipeline_source(stages: int = 4) -> str:
    """A linear ``stages``-stage pipeline; every inter-stage channel is a
    single-writer in-order stream (FIFO-classifiable).

    Stage 0 generates values from a stepped seed; each middle stage folds
    its input into an accumulator and re-emits a mixed value; the last
    stage only folds.  ``stages >= 2``.
    """
    if stages < 2:
        raise ValueError("a pipeline needs at least 2 stages")
    names = _stage_names(stages)
    lines: list[str] = []

    # Stage 0: the source.
    first, second = names[0], names[1]
    lines += [
        f"thread {first} () {{",
        f"  int seed, {first}_out;",
        "  seed = step(seed);",
        f"  #consumer{{ch0,[{second},{second}_in]}}",
        f"  {first}_out = mix(seed);",
        "}",
    ]

    # Middle stages: consume, fold, re-emit.
    for i in range(1, stages - 1):
        name, prev, nxt = names[i], names[i - 1], names[i + 1]
        lines += [
            f"thread {name} () {{",
            f"  int {name}_in, {name}_acc, {name}_out;",
            f"  #producer{{ch{i - 1},[{prev},{prev}_out]}}",
            f"  {name}_in = fold({prev}_out, {name}_acc);",
            f"  {name}_acc = gather({name}_in, {name}_acc);",
            f"  #consumer{{ch{i},[{nxt},{nxt}_in]}}",
            f"  {name}_out = mix({name}_in);",
            "}",
        ]

    # Last stage: the sink.
    last, prev = names[-1], names[-2]
    lines += [
        f"thread {last} () {{",
        f"  int {last}_in, {last}_acc;",
        f"  #producer{{ch{stages - 2},[{prev},{prev}_out]}}",
        f"  {last}_in = fold({prev}_out, {last}_acc);",
        f"  {last}_acc = gather({last}_in, {last}_acc);",
        "}",
    ]
    return "\n".join(lines)


def fanout_source(width: int = 3) -> str:
    """A splitter feeding ``width`` workers a private stream each
    (FIFO-classifiable) plus one broadcast ``mode`` word to all of them
    (guarded: dependency number ``width``)."""
    if width < 2:
        raise ValueError("fan-out needs at least 2 workers")
    lines: list[str] = ["thread split () {"]
    locals_ = (
        ["seed"]
        + [f"u{i}" for i in range(width)]
        + ["mode"]
        + [f"v{i}" for i in range(width)]
    )
    lines.append(f"  int {', '.join(locals_)};")
    lines.append("  seed = step(seed);")
    # Distinct per-lane values, derived without ever reading a produced
    # variable back (rule 4 must hold for every lane channel).
    lines.append("  u0 = mix(seed);")
    for i in range(1, width):
        lines.append(f"  u{i} = mix(u{i - 1});")
    mode_links = ", ".join(f"[w{i},m{i}]" for i in range(width))
    lines.append(f"  #consumer{{chm,{mode_links}}}")
    lines.append(f"  mode = mix(u{width - 1});")
    for i in range(width):
        lines.append(f"  #consumer{{chf{i},[w{i},w{i}_in]}}")
        lines.append(f"  v{i} = mix(u{i});")
    lines.append("}")

    for i in range(width):
        lines += [
            f"thread w{i} () {{",
            f"  int m{i}, w{i}_in, w{i}_acc;",
            f"  #producer{{chm,[split,mode]}}",
            f"  m{i} = gate(mode, w{i}_acc);",
            f"  #producer{{chf{i},[split,v{i}]}}",
            f"  w{i}_in = fold(v{i}, m{i});",
            f"  w{i}_acc = gather(w{i}_in, w{i}_acc);",
            "}",
        ]
    return "\n".join(lines)


def fanin_source(width: int = 3) -> str:
    """``width`` producers merging into one collector over a private
    stream each — every channel FIFO-classifiable."""
    if width < 2:
        raise ValueError("fan-in needs at least 2 producers")
    lines: list[str] = []
    for i in range(width):
        lines += [
            f"thread p{i} () {{",
            f"  int seed{i}, g{i};",
            f"  seed{i} = step(seed{i});",
            f"  #consumer{{cg{i},[collect,c{i}]}}",
            f"  g{i} = mix(seed{i});",
            "}",
        ]
    lines.append("thread collect () {")
    locals_ = [f"c{i}" for i in range(width)] + ["total"]
    lines.append(f"  int {', '.join(locals_)};")
    for i in range(width):
        lines.append(f"  #producer{{cg{i},[p{i},g{i}]}}")
        lines.append(f"  c{i} = fold(g{i}, total);")
        lines.append(f"  total = gather(c{i}, total);")
    lines.append("}")
    return "\n".join(lines)


# -- the catalogue ---------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One catalogued process network."""

    name: str
    title: str
    description: str
    source: str
    #: threads whose ``rounds_completed`` measure end-to-end progress
    sink_threads: tuple[str, ...]
    #: dep_ids the classifier must lower to FIFO channels
    expected_fifo: tuple[str, ...]
    #: dep_ids that must stay on the guarded machinery
    expected_guarded: tuple[str, ...]

    def functions(self) -> dict[str, Callable[..., int]]:
        """Fresh intrinsic bindings for one simulation."""
        if self.name == "forwarding":
            from ..net.forwarding import forwarding_functions

            return forwarding_functions()
        return scenario_functions()


def _build_forwarding() -> Scenario:
    from ..net.forwarding import forwarding_source

    return Scenario(
        name="forwarding",
        title="broadcast forwarding (paper §4)",
        description=(
            "classifier broadcasts a decision word to 2 egress threads; "
            "every channel is a broadcast, so FIFO synthesis changes "
            "nothing (the all-guarded baseline)"
        ),
        source=forwarding_source(2, with_io=False),
        sink_threads=("egress0", "egress1"),
        expected_fifo=(),
        expected_guarded=("fw",),
    )


def _build_pipeline() -> Scenario:
    return Scenario(
        name="pipeline",
        title="4-stage streaming pipeline",
        description=(
            "parse -> filt -> route -> stats; all three inter-stage "
            "channels are single-writer in-order streams, lowered to "
            "plain FIFOs (the guarded BRAM disappears entirely)"
        ),
        source=pipeline_source(4),
        sink_threads=("stats",),
        expected_fifo=("ch0", "ch1", "ch2"),
        expected_guarded=(),
    )


def _build_fanout() -> Scenario:
    return Scenario(
        name="fanout",
        title="fan-out to 3 parallel workers",
        description=(
            "splitter feeds 3 workers a private stream each (FIFO) plus "
            "one broadcast mode word (guarded): both channel classes in "
            "one design"
        ),
        source=fanout_source(3),
        sink_threads=("w0", "w1", "w2"),
        expected_fifo=("chf0", "chf1", "chf2"),
        expected_guarded=("chm",),
    )


def _build_fanin() -> Scenario:
    return Scenario(
        name="fanin",
        title="3-way fan-in to a stats collector",
        description=(
            "3 producers merge into one collector over a private stream "
            "each; every channel lowers to a FIFO"
        ),
        source=fanin_source(3),
        sink_threads=("collect",),
        expected_fifo=("cg0", "cg1", "cg2"),
        expected_guarded=(),
    )


_BUILDERS: dict[str, Callable[[], Scenario]] = {
    "forwarding": _build_forwarding,
    "pipeline": _build_pipeline,
    "fanout": _build_fanout,
    "fanin": _build_fanin,
}

#: CLI choice list (`--scenario`), in catalogue order.
SCENARIO_NAMES = tuple(_BUILDERS)


def get_scenario(name: str) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (expected one of {SCENARIO_NAMES})"
        ) from None
    return builder()


# -- simulation helpers ----------------------------------------------------------------


def build_scenario_simulation(
    scenario: Scenario,
    *,
    channel_synthesis: str = "fifo",
    kernel: Optional[str] = None,
    **compile_kwargs,
):
    """Compile and instantiate one scenario; returns ``(design, sim)``."""
    from ..flow import DEFAULT_KERNEL, build_simulation, compile_design

    design = compile_design(
        scenario.source,
        name=scenario.name,
        channel_synthesis=channel_synthesis,
        **compile_kwargs,
    )
    sim = build_simulation(
        design,
        scenario.functions(),
        kernel=kernel if kernel is not None else DEFAULT_KERNEL,
    )
    return design, sim


def collect_round_snapshots(sim, rounds: int) -> dict[str, dict[str, int]]:
    """Run until every thread has completed ``rounds`` rounds, for at most
    200,000 cycles; return each thread's environment exactly at its
    ``rounds``-th completion.

    Because every scenario stage folds consumed values into an
    accumulator, two simulations consumed identical value sequences iff
    these snapshots are equal — the oracle behind the FIFO-vs-guarded
    equivalence tests.
    """
    snapshots: dict[str, dict[str, int]] = {}
    executors = sim.executors

    def capture(cycle, kernel) -> None:
        for name, executor in executors.items():
            if (
                name not in snapshots
                and executor.stats.rounds_completed >= rounds
            ):
                snapshots[name] = dict(executor.last_round_env)

    sim.kernel.add_post_cycle_hook(capture)
    sim.run(200_000, until=lambda k: len(snapshots) == len(executors))
    if len(snapshots) != len(executors):
        missing = sorted(set(executors) - set(snapshots))
        raise RuntimeError(
            f"threads {missing} did not reach {rounds} rounds within "
            "200000 cycles"
        )
    return snapshots
