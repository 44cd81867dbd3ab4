"""Pins the traffic generators' RNG streams and injection order.

The packet factory's draw is hand-inlined (``getrandbits`` rejection
loops mirroring ``randrange``, an inline RFC-1071 fold), every
generator draws its arrivals a span at a time, and the attached hook
queues lazy arrivals whose fields a receive draws when it pops them.
Committed golden traces depend on the *stream* — field values and RNG
consumption order — staying identical to the original
``randrange``/``with_checksum`` formulation drawn on arrival, so that
formulation is reimplemented here verbatim as the reference and every
optimized path is checked against it.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    BurstyTraffic,
    DeterministicTraffic,
    PoissonTraffic,
    forwarding_functions,
    forwarding_source,
)
from repro.net.packet import Ipv4Packet, ip
from repro.net.traffic import PacketFactory
from repro.sim import RxInterface


def original_draw(rng, sequence, ports):
    """The pre-inline ``PacketFactory`` draw, kept verbatim: plain
    ``randrange`` calls plus the dataclass checksum path."""
    dst = ip(10, rng.randrange(ports), 0, 0) | rng.randrange(1 << 12)
    src = ip(192, 168, 0, 1 + (sequence % 254))
    return Ipv4Packet(
        src_addr=src,
        dst_addr=dst,
        length=64 + rng.randrange(0, 1400, 64),
        ttl=64,
        payload=sequence,
    ).with_checksum()


class TestPacketFactoryStream:
    @pytest.mark.parametrize("seed", [1, 2, 97])
    @pytest.mark.parametrize("ports", [1, 3, 4, 16])
    def test_make_message_matches_original_formulation(self, seed, ports):
        """The getrandbits rejection loops must consume the RNG
        bit-for-bit like ``randrange`` did — including non-power-of-two
        port counts, where the rejection path actually triggers."""
        factory = PacketFactory(seed=seed, ports=ports)
        rng = random.Random(seed)
        for sequence in range(1, 201):
            expected = original_draw(rng, sequence, ports).to_message()
            assert factory.make_message() == expected
        # both sides consumed the identical bit stream
        assert factory._rng.getstate() == rng.getstate()

    def test_make_matches_make_message(self):
        by_packet = PacketFactory(seed=5)
        by_message = PacketFactory(seed=5)
        for __ in range(50):
            assert by_packet.make().to_message() == by_message.make_message()

    def test_checksum_is_valid(self):
        factory = PacketFactory(seed=3)
        for __ in range(20):
            packet = factory.make()
            assert packet.checksum == packet.compute_checksum()


def original_arrivals(rate, seed, cycles):
    """The per-cycle Bernoulli draw, one ``random()`` per cycle."""
    rng = random.Random(seed)
    return [cycle for cycle in range(cycles) if rng.random() < rate]


def original_messages(seed, count, ports=4):
    """The first ``count`` messages of a factory seeded ``seed``."""
    rng = random.Random(seed)
    return [
        original_draw(rng, sequence, ports).to_message()
        for sequence in range(1, count + 1)
    ]


class TestBernoulliSpanBatching:
    def test_arrivals_span_matches_per_cycle_draws(self):
        """``arrivals`` over a span is the per-cycle draw unrolled: same
        arrival cycles, same messages, same RNG state afterwards."""
        per_cycle = BernoulliTraffic(rate=0.3, seed=9)
        spanned = BernoulliTraffic(rate=0.3, seed=9)
        expected = {}
        for cycle in range(500):
            if per_cycle.arrivals(cycle, cycle + 1):
                expected[cycle] = [per_cycle.factory.make_message()]
        drawn = {
            cycle: [spanned.factory.make_message()]
            for cycle in spanned.arrivals(0, 500)
        }
        assert drawn == expected
        assert spanned._rng.getstate() == per_cycle._rng.getstate()
        assert list(drawn) == original_arrivals(0.3, 9, 500)
        assert [m for [m] in drawn.values()] == original_messages(
            10, len(drawn)
        )

    def test_arrivals_span_is_resumable(self):
        whole = BernoulliTraffic(rate=0.5, seed=4)
        split = BernoulliTraffic(rate=0.5, seed=4)
        merged = split.arrivals(0, 123) + split.arrivals(123, 400)
        assert merged == whole.arrivals(0, 400)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BernoulliTraffic(rate=0.2, seed=3),
        lambda: PoissonTraffic(mean_gap=6.0, seed=3),
        lambda: BurstyTraffic(burst_len=3, gap_len=5),
        lambda: DeterministicTraffic(interval=7),
    ],
    ids=["bernoulli", "poisson", "bursty", "deterministic"],
)
def test_span_boundaries_do_not_change_the_arrivals(make):
    """The hook draws spans of whatever length its kernel asks for; the
    arrival stream must not depend on where the spans end."""
    whole = make().arrivals(0, 1000)
    spanned, start = make(), 0
    pieces = []
    for end in (1, 2, 9, 64, 65, 300, 777, 1000):
        pieces += spanned.arrivals(start, end)
        start = end
    assert pieces == whole
    per_cycle = make()
    assert [
        arrival
        for cycle in range(1000)
        for arrival in per_cycle.arrivals(cycle, cycle + 1)
    ] == whole


class _ListRx:
    """An rx stand-in that draws each lazy arrival as it is queued."""

    def __init__(self):
        self.messages = []

    def arrive(self, draw):
        self.messages.append(draw())


class TestAttachedHookDeliveryOrder:
    """One hook driven per cycle, one driven the way the compiled
    kernel's generated span does it — the injected sequence (message,
    cycle) must be identical, including across the seams."""

    @staticmethod
    def _drain_span(hook, start, end):
        # what a generated run_span does with a prepare_span buffer
        due, arrive = hook.prepare_span(end)
        delivered = []
        for cycle in range(start, end):
            while due and due[0] <= cycle:
                due.popleft()
                arrive()
                delivered.append(cycle)
        return delivered

    def test_prepare_span_matches_per_cycle_calls(self):
        reference = BernoulliTraffic(rate=0.4, seed=6).attach(_ListRx())
        batched = BernoulliTraffic(rate=0.4, seed=6).attach(_ListRx())
        for cycle in range(300):
            reference(cycle, kernel=None)
        delivered = self._drain_span(batched, 0, 300)
        assert batched.rx_interface.messages == reference.rx_interface.messages
        assert batched.injected == reference.injected
        assert delivered == original_arrivals(0.4, 6, 300)
        assert batched.rx_interface.messages == original_messages(
            7, len(delivered)
        )

    def test_span_and_call_interleave(self):
        """Span batches, per-cycle calls, and another span — the exact
        sequence a compiled kernel produces when an observer attaches
        mid-run — deliver the same stream as pure per-cycle calls."""
        reference = BernoulliTraffic(rate=0.4, seed=8).attach(_ListRx())
        mixed = BernoulliTraffic(rate=0.4, seed=8).attach(_ListRx())
        for cycle in range(450):
            reference(cycle, kernel=None)
        self._drain_span(mixed, 0, 150)
        for cycle in range(150, 300):  # the escape hatch's per-cycle calls
            mixed(cycle, kernel=None)
        self._drain_span(mixed, 300, 450)
        assert mixed.rx_interface.messages == reference.rx_interface.messages
        assert mixed.injected == reference.injected

    def test_early_exit_leaves_arrivals_buffered(self):
        """A span that stops early (deadline, until-predicate fallback)
        must not lose the pre-drawn arrivals: per-cycle calls afterwards
        deliver them at their exact cycles."""
        reference = BernoulliTraffic(rate=0.4, seed=2).attach(_ListRx())
        partial = BernoulliTraffic(rate=0.4, seed=2).attach(_ListRx())
        for cycle in range(200):
            reference(cycle, kernel=None)
        # prepare 200 cycles but execute only 80 before bailing out
        due, arrive = partial.prepare_span(200)
        for cycle in range(80):
            while due and due[0] <= cycle:
                due.popleft()
                arrive()
        for cycle in range(80, 200):
            partial(cycle, kernel=None)
        assert partial.rx_interface.messages == reference.rx_interface.messages
        assert partial.injected == reference.injected

    def test_next_wake_never_skips_an_arrival(self):
        """Calls only at the cycles ``next_wake`` reports (what the wheel
        kernel does while every thread holds) inject the same
        stream, at the same cycles, as calls on every cycle."""
        reference = BernoulliTraffic(rate=0.01, seed=5).attach(_ListRx())
        skipping = BernoulliTraffic(rate=0.01, seed=5).attach(_ListRx())
        for cycle in range(3000):
            reference(cycle, kernel=None)
        woken = []
        cycle = 0
        while cycle < 3000:
            before = skipping.injected
            skipping(cycle, kernel=None)
            if skipping.injected != before:
                woken.append(cycle)
            wake = skipping.next_wake(cycle, 2999, kernel=None)
            cycle = 3000 if wake is None else wake
        assert woken == original_arrivals(0.01, 5, 3000)
        assert skipping.rx_interface.messages == reference.rx_interface.messages
        assert skipping.injected == reference.injected


class TestOneQueuePerFactory:
    """Lazy fields are drawn in receive order, which is arrival order
    only while one factory feeds one rx queue."""

    def test_a_generator_attaches_once(self):
        generator = BernoulliTraffic(rate=0.5, seed=1)
        generator.attach(RxInterface("a"))
        with pytest.raises(ValueError, match="already attached"):
            generator.attach(RxInterface("b"))

    def test_a_factory_feeds_one_hook(self):
        factory = PacketFactory(seed=3)
        BernoulliTraffic(rate=0.5, factory=factory).attach(RxInterface("a"))
        with pytest.raises(ValueError, match="PacketFactory already feeds"):
            PoissonTraffic(mean_gap=4.0, factory=factory).attach(
                RxInterface("b")
            )


class TestRxInterface:
    def test_push_copies_and_arrive_draws_on_pop(self):
        rx = RxInterface("eth")
        factory = PacketFactory(seed=4)
        message = {"payload": 5}
        rx.push(message)
        rx.arrive(factory.make_message)
        message["payload"] = 6
        assert rx.backlog == 2
        assert rx.pop() == {"payload": 5}
        assert factory._sequence == 0  # nothing drawn before the pop
        assert rx.pop() == PacketFactory(seed=4).make_message()
        assert rx.pop() is None
        assert rx.delivered == 2


#: one thread that transmits every message it receives, unchanged
ECHO = (
    "#interface{eth_in, gige}\n"
    "#interface{eth_out, gige}\n"
    "thread echo () { message m; receive(m, eth_in); transmit(m, eth_out); }"
)


@lru_cache(maxsize=None)
def _echo_design():
    return compile_design(ECHO)


def _eager_fifo(rate, seed, cycles, pushes):
    """The rx FIFO as an eager model builds it, as ``(lazy, message)``
    entries: every arrival draws its message from
    ``PacketFactory(seed + 1)`` as it arrives, and an explicit push made
    before cycle ``c`` precedes cycle ``c``'s arrivals."""
    factory = PacketFactory(seed=seed + 1)
    pending = list(pushes)
    fifo = []
    for cycle in original_arrivals(rate, seed, cycles):
        while pending and pending[0][0] <= cycle:
            fifo.append((False, pending.pop(0)[1]))
        fifo.append((True, factory.make_message()))
    fifo.extend((False, message) for __, message in pending)
    return fifo


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    segments=st.lists(
        st.integers(min_value=0, max_value=300), min_size=3, max_size=3
    ),
    kernel=st.sampled_from(SIMULATION_KERNELS),
    observe_from=st.integers(min_value=0, max_value=3),
)
# a backlog on the compiled fast path when a push lands, then the seam
@example(rate=0.9, seed=1, segments=[120, 120, 120], kernel="compiled",
         observe_from=2)
def test_every_receive_stores_the_eager_message(
    rate, seed, segments, kernel, observe_from
):
    """Whatever the kernel, with explicit pushes between runs and an
    observer attached mid-run (on the compiled kernel: the seam from
    the generated span to the wheel), the k-th receive stores the k-th
    entry of the eager model's FIFO."""
    sim = build_simulation(_echo_design(), kernel=kernel)
    traffic = BernoulliTraffic(rate=rate, seed=seed)
    sim.kernel.add_pre_cycle_hook(traffic.attach(sim.rx["eth_in"]))
    explicit = PacketFactory(seed=seed + 7)
    pushes = []
    for index, cycles in enumerate(segments):
        if index == observe_from:
            sim.attach_telemetry()
        if index:
            message = explicit.make_message()
            sim.rx["eth_in"].push(message)
            pushes.append((sim.kernel.cycle, message))
        sim.run(cycles)
    received = [message for __, message in sim.tx["eth_out"].messages]
    expected = _eager_fifo(rate, seed, sum(segments), pushes)
    assert received == [message for __, message in expected[: len(received)]]
    rx = sim.rx["eth_in"]
    assert rx.delivered - len(received) in (0, 1)
    assert rx.delivered + rx.backlog == len(expected)
    # only the lazy arrivals a receive popped were ever drawn
    assert traffic.factory._sequence == sum(
        lazy for lazy, __ in expected[: rx.delivered]
    )


@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
def test_a_dense_run_draws_only_the_received_packets(kernel):
    """At rate 0.9 the forwarder receives a small share of what arrives;
    the rest stays queued as lazy arrivals, never drawn."""
    design = compile_design(forwarding_source(2))
    sim = build_simulation(
        design, functions=forwarding_functions(), kernel=kernel
    )
    traffic = BernoulliTraffic(rate=0.9, seed=1)
    hook = traffic.attach(sim.rx["eth_in"])
    sim.kernel.add_pre_cycle_hook(hook)
    sim.run(10_000)
    rx = sim.rx["eth_in"]
    assert 0 < rx.delivered < hook.injected
    assert traffic.factory._sequence == rx.delivered
    assert rx.backlog == hook.injected - rx.delivered
    assert not any(isinstance(entry, dict) for entry in rx._queue)
