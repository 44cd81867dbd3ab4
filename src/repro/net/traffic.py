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
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .packet import Ipv4Packet, ip


@dataclass
class PacketFactory:
    """Generates destination/source-varied packets deterministically.

    The factory sits on the simulator's per-cycle hot path (one to two
    packets per cycle under dense traffic), so the draw is hand-inlined
    in :meth:`make_message`: it mirrors :meth:`random.Random.randrange`'s
    rejection sampling bit-for-bit on the same generator state, and the
    checksum is folded from the raw header words.  The packet *stream* —
    field values and RNG consumption — is identical to the original
    ``randrange``/``with_checksum`` formulation; committed golden traces
    depend on that, and ``tests/net/test_traffic.py`` pins it.
    """

    seed: int = 1
    ports: int = 4
    _rng: random.Random = field(init=False, repr=False)
    _sequence: int = field(default=0, init=False)
    _ports_bits: int = field(init=False, repr=False)

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
        what the attached simulation hook injects (interfaces carry
        message dicts; the dataclass would be built only to be
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
    """Base class: yields 0..n packets per cycle."""

    def packets_at(self, cycle: int) -> list[Ipv4Packet]:
        raise NotImplementedError

    def messages_at(self, cycle: int) -> list[dict[str, int]]:
        """The same arrivals as :meth:`packets_at`, already in interface
        message form — the attached hook's path.  Subclasses with a
        :class:`PacketFactory` override this with ``make_message`` to
        skip the packet dataclass; the base fallback guarantees any
        generator stays attachable.  Call one or the other per cycle,
        never both: each call consumes the cycle's RNG draw."""
        return [packet.to_message() for packet in self.packets_at(cycle)]

    def attach(self, rx_interface) -> "_AttachedHook":
        """A kernel pre-cycle hook that injects this generator's packets."""
        return _AttachedHook(self, rx_interface)


@dataclass
class _AttachedHook:
    """Pre-cycle hook injecting a generator's packets into an rx queue.

    The hook draws ``generator.packets_at(c)`` exactly once per cycle,
    in increasing cycle order — whether the kernel executes every cycle
    (the reference kernel calls ``__call__`` per cycle) or skips idle
    stretches (the fast kernel calls :meth:`next_wake` to look ahead).
    Lookahead draws are buffered and delivered at their exact cycles,
    so the generator's RNG stream and the injected packet sequence are
    identical under both kernels.
    """

    generator: TrafficGenerator
    rx_interface: object
    injected: int = 0
    #: cycles ``< _drawn_until`` have been drawn from the generator
    _drawn_until: int = field(default=0, init=False, repr=False)
    #: drawn-ahead arrivals not yet injected, keyed by cycle
    _buffered: dict = field(default_factory=dict, init=False, repr=False)

    #: compiled-kernel fast-path contract: this hook reads nothing from
    #: the kernel and mutates only the rx queue, so a generated span may
    #: keep running it without falling back to interpreted ticks
    mutates_only_rx = True

    def _draw_through(self, cycle: int) -> None:
        while self._drawn_until <= cycle:
            messages = self.generator.messages_at(self._drawn_until)
            if messages:
                self._buffered[self._drawn_until] = messages
            self._drawn_until += 1

    def __call__(self, cycle: int, kernel) -> None:
        self._draw_through(cycle)
        for message in self._buffered.pop(cycle, ()):
            self.rx_interface.push(message)
            self.injected += 1

    def prepare_span(self, start: int, end: int):
        """Compiled-kernel batched path: pre-draw every arrival through
        cycle ``end - 1`` and expose the internal buffer.

        The caller (a generated ``run_span``) pops each cycle it
        executes from the returned dict, pushes the messages itself, and
        adds to :attr:`injected` — exactly what ``__call__`` would have
        done cycle by cycle, minus the per-cycle function calls.  The
        RNG draw order is untouched (the pre-draw is the same lookahead
        the wheel kernel's ``next_wake`` uses), and arrivals left
        unpopped on an early exit stay buffered for later delivery.
        """
        if self._drawn_until < end:
            span = getattr(self.generator, "messages_span", None)
            if span is None:
                self._draw_through(end - 1)
            else:
                # span cycles start at _drawn_until, so the keys cannot
                # collide with anything already buffered
                self._buffered.update(span(self._drawn_until, end))
                self._drawn_until = end
        return self._buffered

    def next_wake(self, cycle: int, limit: int, kernel):
        """Earliest arrival in ``(cycle, limit]``; ``None`` if silent.

        Part of the fast-kernel hook wake contract: the kernel only
        skips a cycle range after every hook has bounded it.  Draws at
        most through ``limit``, preserving the once-per-cycle order.
        """
        pending = [c for c in self._buffered if c > cycle]
        while self._drawn_until <= limit:
            drawn = self._drawn_until
            messages = self.generator.messages_at(drawn)
            self._drawn_until += 1
            if messages:
                self._buffered[drawn] = messages
                if drawn > cycle:
                    pending.append(drawn)
                    break  # drawn in order: this is the earliest new one
        return min(pending) if pending else None


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

    def packets_at(self, cycle: int) -> list[Ipv4Packet]:
        if self._rng.random() < self.rate:
            return [self.factory.make()]
        return []

    def messages_at(self, cycle: int) -> list[dict[str, int]]:
        if self._rng.random() < self.rate:
            return [self.factory.make_message()]
        return []

    def messages_span(self, start: int, end: int) -> dict[int, list]:
        """Batched ``messages_at`` over ``[start, end)``: identical
        draws in identical order, keyed by cycle (arrival cycles only).
        The compiled kernel's span pre-draw uses this to skip the
        per-cycle method call and empty-list churn."""
        rng_random = self._rng.random
        rate = self.rate
        make_message = self.factory.make_message
        arrivals: dict[int, list] = {}
        for cycle in range(start, end):
            if rng_random() < rate:
                arrivals[cycle] = [make_message()]
        return arrivals


def drive_ingress(sim, rate: float, seed: int = 1) -> None:
    """Feed every ingress interface of ``sim`` its own seeded Bernoulli
    stream: the ``index``-th interface of ``sim.rx`` draws from seed
    ``seed + index``."""
    for index, rx in enumerate(sim.rx.values()):
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

    def packets_at(self, cycle: int) -> list[Ipv4Packet]:
        if cycle >= self._next_arrival:
            self._next_arrival = cycle + self._gap()
            return [self.factory.make()]
        return []

    def messages_at(self, cycle: int) -> list[dict[str, int]]:
        if cycle >= self._next_arrival:
            self._next_arrival = cycle + self._gap()
            return [self.factory.make_message()]
        return []


@dataclass
class BurstyTraffic(TrafficGenerator):
    """On/off bursts: back-to-back packets during bursts, silence between."""

    burst_len: int = 8
    gap_len: int = 24
    seed: int = 1
    factory: Optional[PacketFactory] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.burst_len <= 0 or self.gap_len < 0:
            raise ValueError("burst length must be positive, gap non-negative")
        self._rng = random.Random(self.seed)
        if self.factory is None:
            self.factory = PacketFactory(seed=self.seed + 1)

    def packets_at(self, cycle: int) -> list[Ipv4Packet]:
        period = self.burst_len + self.gap_len
        if (cycle % period) < self.burst_len:
            return [self.factory.make()]
        return []

    def messages_at(self, cycle: int) -> list[dict[str, int]]:
        period = self.burst_len + self.gap_len
        if (cycle % period) < self.burst_len:
            return [self.factory.make_message()]
        return []


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

    def packets_at(self, cycle: int) -> list[Ipv4Packet]:
        if cycle % self.interval == 0:
            return [self.factory.make()]
        return []

    def messages_at(self, cycle: int) -> list[dict[str, int]]:
        if cycle % self.interval == 0:
            return [self.factory.make_message()]
        return []


def replay(generator: TrafficGenerator, cycles: int) -> Iterator[tuple[int, Ipv4Packet]]:
    """Offline expansion of a generator over a cycle range."""
    for cycle in range(cycles):
        for packet in generator.packets_at(cycle):
            yield cycle, packet
