"""Pins the traffic generators' RNG streams and injection order.

The packet factory's draw is hand-inlined on the simulator's hot path
(``getrandbits`` rejection loops mirroring ``randrange``, an inline
RFC-1071 fold), and :class:`BernoulliTraffic` batches whole spans of
draws for the compiled kernel.  Committed golden traces depend on the
*stream* — field values and RNG consumption order — staying identical
to the original ``randrange``/``with_checksum`` formulation, so that
formulation is reimplemented here verbatim as the reference and every
optimized path is checked against it.
"""

import random

import pytest

from repro.net import BernoulliTraffic
from repro.net.packet import Ipv4Packet, ip
from repro.net.traffic import PacketFactory


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
            assert factory.make().checksum_ok


class TestBernoulliSpanBatching:
    def test_messages_span_matches_per_cycle_draws(self):
        """``messages_span`` is ``messages_at`` unrolled: same arrival
        cycles, same messages, same RNG state afterwards."""
        per_cycle = BernoulliTraffic(rate=0.3, seed=9)
        spanned = BernoulliTraffic(rate=0.3, seed=9)
        expected = {}
        for cycle in range(500):
            messages = per_cycle.messages_at(cycle)
            if messages:
                expected[cycle] = messages
        assert spanned.messages_span(0, 500) == expected
        assert spanned._rng.getstate() == per_cycle._rng.getstate()

    def test_messages_span_is_resumable(self):
        whole = BernoulliTraffic(rate=0.5, seed=4)
        split = BernoulliTraffic(rate=0.5, seed=4)
        merged = dict(split.messages_span(0, 123))
        merged.update(split.messages_span(123, 400))
        assert merged == whole.messages_span(0, 400)


class _ListRx:
    def __init__(self):
        self.messages = []
        self.backlog = 0

    def push(self, message):
        self.messages.append(message)


class TestAttachedHookDeliveryOrder:
    """One hook driven per cycle, one driven the way the compiled
    kernel's generated span does it — the injected sequence (message,
    cycle) must be identical, including across the seams."""

    @staticmethod
    def _drain_span(hook, start, end):
        # what a generated run_span does with a prepare_span buffer
        buffered = hook.prepare_span(start, end)
        delivered = []
        for cycle in range(start, end):
            for message in buffered.pop(cycle, ()):
                hook.rx_interface.push(message)
                hook.injected += 1
                delivered.append(cycle)
        return delivered

    def test_prepare_span_matches_per_cycle_calls(self):
        reference = BernoulliTraffic(rate=0.4, seed=6).attach(_ListRx())
        batched = BernoulliTraffic(rate=0.4, seed=6).attach(_ListRx())
        for cycle in range(300):
            reference(cycle, kernel=None)
        self._drain_span(batched, 0, 300)
        assert batched.rx_interface.messages == reference.rx_interface.messages
        assert batched.injected == reference.injected

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
        buffered = partial.prepare_span(0, 200)
        for cycle in range(80):
            for message in buffered.pop(cycle, ()):
                partial.rx_interface.push(message)
                partial.injected += 1
        for cycle in range(80, 200):
            partial(cycle, kernel=None)
        assert partial.rx_interface.messages == reference.rx_interface.messages
        assert partial.injected == reference.injected
