"""Seeded stochastic traffic generators.

The paper's §3.1 observation — "the writes happen when packets arrive from
a network and are probabilistic in nature" — is what creates the arbitrated
organization's non-deterministic latency.  These generators reproduce that
probabilistic producer behaviour reproducibly: every generator takes a
seed, so a benchmark run is repeatable while still exercising irregular
arrival patterns.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

from .packet import Ipv4Packet


@dataclass
class PacketFactory:
    """Generates destination/source-varied packets deterministically.

    Every packet a simulated thread receives is drawn here (the attached
    hook queues :meth:`make_message` itself, and the receive calls it),
    so the draw is hand-inlined in :meth:`make_message`: it mirrors
    :meth:`random.Random.randrange`'s rejection sampling bit-for-bit on
    the same generator state, and the checksum is folded from the raw
    header words.  The packet *stream* —
    field values and RNG consumption — is identical to the original
    ``randrange``/``with_checksum`` formulation; committed golden traces
    depend on that, and ``tests/net/test_traffic.py`` pins it.
    """

    seed: int = 1
    ports: int = 4
    _rng: random.Random = field(init=False, repr=False)
    _sequence: int = field(default=0, init=False)
    _ports_bits: int = field(init=False, repr=False)
    #: set once an attached hook draws from this factory
    _attached = False

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._ports_bits = self.ports.bit_length()

    def make(self) -> Ipv4Packet:
        message = self.make_message()
        return Ipv4Packet(
            src_addr=message["src_addr"],
            dst_addr=message["dst_addr"],
            length=message["length"],
            ttl=64,
            checksum=message["checksum"],
            payload=message["payload"],
        )

    def make_message(self) -> dict[str, int]:
        """``make().to_message()`` without materializing the packet —
        what a receive draws when it pops a lazy arrival (interfaces
        carry message dicts; the dataclass would be built only to be
        flattened right back into one).

        Each ``getrandbits`` rejection loop replicates CPython's
        ``Random._randbelow_with_getrandbits`` exactly — ``randrange(n)``
        draws ``n.bit_length()`` bits and rejects values ``>= n`` — so
        the consumed bit stream matches the pre-inline code.
        """
        self._sequence += 1
        getrandbits = self._rng.getrandbits
        port = getrandbits(self._ports_bits)  # randrange(self.ports)
        while port >= self.ports:
            port = getrandbits(self._ports_bits)
        low = getrandbits(13)  # randrange(1 << 12): bit_length(4096) == 13
        while low >= 4096:
            low = getrandbits(13)
        step = getrandbits(5)  # randrange(0, 1400, 64): 64 * randbelow(22)
        while step >= 22:
            step = getrandbits(5)
        dst = (10 << 24) | (port << 16) | low
        src = 0xC0A80000 | (1 + self._sequence % 254)  # 192.168.0.x
        length = 64 + 64 * step
        # RFC 1071 ones'-complement fold over the header words.
        total = (
            length
            + ((64 << 8) | 17)  # the {ttl, protocol} word
            + (src >> 16)
            + (src & 0xFFFF)
            + (dst >> 16)
            + (dst & 0xFFFF)
        )
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return {
            "length": length,
            "port_in": 0,
            "port_out": 0,
            "src_addr": src,
            "dst_addr": dst,
            "ttl": 64,
            "protocol": 17,
            "checksum": (~total) & 0xFFFF,
            "payload": self._sequence,
        }


class TrafficGenerator:
    """Base class: a seeded arrival process plus the :class:`PacketFactory`
    that draws each arriving packet's fields.

    A subclass defines one method, :meth:`arrivals`, and sets
    ``factory``.  Arrivals (the generator's own RNG) and fields (the
    factory's RNG) are separate streams, so the attached hook can draw
    arrivals a span at a time and leave each packet's fields to the
    receive that pops it.
    """

    factory: PacketFactory
    #: set by :meth:`attach`; an attached generator refuses a second hook
    _attached = False

    def arrivals(self, start: int, end: int) -> list[int]:
        """The cycles in ``[start, end)`` at which packets arrive, in
        increasing order, a cycle listed once per packet arriving in it.

        Each call consumes its span's draws: draw every cycle once, in
        increasing cycle order (spans may have any length)."""
        raise NotImplementedError

    def attach(self, rx_interface) -> "_AttachedHook":
        """A kernel pre-cycle hook that injects this generator's packets.

        Fields are drawn in receive order, which is arrival order only
        while one factory feeds one rx queue: a generator attaches once,
        and never while its factory feeds another hook.
        """
        if self._attached:
            raise ValueError(
                f"{type(self).__name__} is already attached to an rx queue"
            )
        if self.factory._attached:
            raise ValueError(
                f"{type(self).__name__}'s PacketFactory already feeds "
                "another hook: one factory feeds one rx queue"
            )
        self._attached = self.factory._attached = True
        return _AttachedHook(self, rx_interface)


#: cycles of arrivals drawn per refill when the hook runs cycle by
#: cycle or looks ahead for the wheel kernel (where span boundaries
#: fall does not change the arrival stream)
_DRAW_SPAN = 256


@dataclass
class _AttachedHook:
    """Pre-cycle hook injecting a generator's arrivals into an rx queue.

    Arrivals are drawn a span at a time (``generator.arrivals``) ahead
    of the executing cycle, and each one enters the rx queue at its
    cycle as a lazy arrival (``rx_interface.arrive``): the factory's
    ``make_message``, which a receive calls when it pops the entry.  A
    packet no thread receives is never built.

    The output is byte-identical to drawing every packet on arrival: the
    arrival cycles come from the generator's RNG in increasing cycle
    order whoever draws them (per-cycle call, the wheel kernel's
    :meth:`next_wake` lookahead, or a compiled span's
    :meth:`prepare_span`); the fields come from the factory's separate
    RNG, and the rx queue is a FIFO, so the k-th receive still gets the
    k-th draw.
    """

    generator: TrafficGenerator
    rx_interface: object
    #: cycles ``< _drawn_until`` have been drawn from the generator
    _drawn_until: int = field(default=0, init=False, repr=False)
    #: arrivals drawn so far
    _drawn: int = field(default=0, init=False, repr=False)
    #: drawn arrival cycles not yet injected, in increasing order
    _due: deque = field(default_factory=deque, init=False, repr=False)
    #: queues one lazy arrival on the rx interface
    _arrive: Callable[[], None] = field(init=False, repr=False)

    #: compiled-kernel fast-path contract: this hook reads nothing from
    #: the kernel and mutates only the rx queue, so a generated span may
    #: keep running it without falling back to the wheel kernel
    mutates_only_rx = True

    def __post_init__(self) -> None:
        self._arrive = partial(
            self.rx_interface.arrive, self.generator.factory.make_message
        )

    @property
    def injected(self) -> int:
        """Arrivals queued on the rx interface so far."""
        return self._drawn - len(self._due)

    def _draw(self, end: int) -> None:
        """Draw every arrival before cycle ``end``."""
        arrivals = self.generator.arrivals(self._drawn_until, end)
        self._due.extend(arrivals)
        self._drawn += len(arrivals)
        self._drawn_until = end

    def __call__(self, cycle: int, kernel) -> None:
        if self._drawn_until <= cycle:
            self._draw(cycle + _DRAW_SPAN)
        due = self._due
        while due and due[0] <= cycle:
            due.popleft()
            self._arrive()

    def prepare_span(self, end: int):
        """Compiled-kernel batched path: draw every arrival through
        cycle ``end - 1`` and return ``(due, arrive)``, the deque of
        drawn arrival cycles not yet injected and the zero-argument
        call that injects one.

        The caller (a generated ``run_span``) pops each arrival whose
        cycle it reaches off ``due`` and calls ``arrive()``: what
        ``__call__`` does cycle by cycle, minus the per-cycle function
        calls.  Arrivals left on an early exit stay in ``due`` for later
        delivery.
        """
        if self._drawn_until < end:
            self._draw(end)
        return self._due, self._arrive

    def next_wake(self, cycle: int, limit: int, kernel):
        """Earliest arrival after ``cycle``; ``None`` if none arrives
        through ``limit``.

        Part of the fast-kernel hook wake contract: the kernel only
        skips a cycle range after every hook has bounded it.  Every
        arrival through ``cycle`` has been injected, so the earliest
        drawn one lies after it; draws stop at ``limit``.
        """
        due = self._due
        while not due and self._drawn_until <= limit:
            self._draw(min(self._drawn_until + _DRAW_SPAN, limit + 1))
        return due[0] if due else None


@dataclass
class BernoulliTraffic(TrafficGenerator):
    """Independent per-cycle arrival with probability ``rate``."""

    rate: float
    seed: int = 1
    factory: Optional[PacketFactory] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be a probability")
        self._rng = random.Random(self.seed)
        if self.factory is None:
            self.factory = PacketFactory(seed=self.seed + 1)

    def arrivals(self, start: int, end: int) -> list[int]:
        draw = self._rng.random
        rate = self.rate
        return [cycle for cycle in range(start, end) if draw() < rate]


def drive_ingress(sim, rate: float, seed: int = 1) -> None:
    """Feed every ingress interface of ``sim`` that a thread receives
    from its own seeded Bernoulli stream: the ``index``-th interface of
    ``sim.rx`` draws from seed ``seed + index``.

    An interface no thread receives from (an egress-only one such as
    the forwarder's ``eth_out``) gets no generator: its arrivals would
    queue unread and wake the wheel kernel for nothing.  Its index is
    still counted, so every received stream is the same as if it had
    one."""
    from ..synth.fsm import ReceiveOp

    received = {
        op.interface
        for fsm in sim.design.fsms.values()
        for state in fsm.states.values()
        for op in state.ops
        if isinstance(op, ReceiveOp)
    }
    for index, (name, rx) in enumerate(sim.rx.items()):
        if name in received:
            generator = BernoulliTraffic(rate=rate, seed=seed + index)
            sim.kernel.add_pre_cycle_hook(generator.attach(rx))


@dataclass
class PoissonTraffic(TrafficGenerator):
    """Geometric inter-arrival gaps (the discrete-time Poisson analogue)."""

    mean_gap: float
    seed: int = 1
    factory: Optional[PacketFactory] = None
    _rng: random.Random = field(init=False, repr=False)
    _next_arrival: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.mean_gap < 1.0:
            raise ValueError("mean gap must be at least one cycle")
        self._rng = random.Random(self.seed)
        if self.factory is None:
            self.factory = PacketFactory(seed=self.seed + 1)
        self._next_arrival = self._gap()

    def _gap(self) -> int:
        # Geometric with mean self.mean_gap.
        p = 1.0 / self.mean_gap
        gap = 1
        while self._rng.random() > p:
            gap += 1
        return gap

    def arrivals(self, start: int, end: int) -> list[int]:
        # An arrival due before ``start`` (in cycles a caller never
        # drew) lands at ``start``; each gap counts from its arrival.
        cycles = []
        cycle = max(self._next_arrival, start)
        while cycle < end:
            cycles.append(cycle)
            cycle += self._gap()
        self._next_arrival = cycle
        return cycles


@dataclass
class BurstyTraffic(TrafficGenerator):
    """On/off bursts: back-to-back packets during bursts, silence between."""

    burst_len: int = 8
    gap_len: int = 24
    seed: int = 1
    factory: Optional[PacketFactory] = None

    def __post_init__(self) -> None:
        if self.burst_len <= 0 or self.gap_len < 0:
            raise ValueError("burst length must be positive, gap non-negative")
        if self.factory is None:
            self.factory = PacketFactory(seed=self.seed + 1)

    def arrivals(self, start: int, end: int) -> list[int]:
        period = self.burst_len + self.gap_len
        return [
            cycle for cycle in range(start, end)
            if cycle % period < self.burst_len
        ]


@dataclass
class DeterministicTraffic(TrafficGenerator):
    """One packet every ``interval`` cycles — the control case."""

    interval: int = 4
    factory: Optional[PacketFactory] = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.factory is None:
            self.factory = PacketFactory(seed=7)

    def arrivals(self, start: int, end: int) -> list[int]:
        return [
            cycle for cycle in range(start, end) if cycle % self.interval == 0
        ]


def replay(generator: TrafficGenerator, cycles: int) -> Iterator[tuple[int, Ipv4Packet]]:
    """Offline expansion of a generator over a cycle range."""
    for cycle in generator.arrivals(0, cycles):
        yield cycle, generator.factory.make()
