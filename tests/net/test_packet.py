"""Unit tests for the IPv4 packet model."""

import pytest

from repro.net import Ipv4Packet, format_ip, ip


class TestAddressHelpers:
    def test_ip_packing(self):
        assert ip(10, 0, 0, 1) == 0x0A000001
        assert ip(255, 255, 255, 255) == 0xFFFFFFFF

    def test_ip_range_check(self):
        with pytest.raises(ValueError):
            ip(256, 0, 0, 0)

    def test_format_roundtrip(self):
        assert format_ip(ip(192, 168, 1, 7)) == "192.168.1.7"


class TestPacket:
    def make(self, **kwargs):
        defaults = dict(src_addr=ip(192, 168, 0, 1), dst_addr=ip(10, 1, 2, 3))
        defaults.update(kwargs)
        return Ipv4Packet(**defaults)

    def test_checksum_roundtrip(self):
        packet = self.make().with_checksum()
        assert packet.checksum == packet.compute_checksum()

    def test_checksum_detects_corruption(self):
        packet = self.make().with_checksum()
        from dataclasses import replace

        corrupted = replace(packet, ttl=packet.ttl - 1)
        assert corrupted.checksum != corrupted.compute_checksum()

    def test_checksum_changes_with_address(self):
        a = self.make(dst_addr=ip(10, 0, 0, 1)).compute_checksum()
        b = self.make(dst_addr=ip(10, 0, 0, 2)).compute_checksum()
        assert a != b

    def test_invalid_ttl(self):
        with pytest.raises(ValueError):
            self.make(ttl=300)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            self.make(length=8)

    def test_forwarded_decrements_ttl_and_fixes_checksum(self):
        packet = self.make(ttl=10).with_checksum()
        hopped = packet.forwarded(egress_port=3)
        assert hopped.ttl == 9
        assert hopped.port_out == 3
        assert hopped.checksum == hopped.compute_checksum()

    def test_forward_expired_rejected(self):
        with pytest.raises(ValueError):
            self.make(ttl=0).forwarded(1)

    def test_expired_property(self):
        assert self.make(ttl=1).expired
        assert not self.make(ttl=2).expired


class TestMessageConversion:
    def test_roundtrip(self):
        packet = Ipv4Packet(
            src_addr=ip(1, 2, 3, 4),
            dst_addr=ip(5, 6, 7, 8),
            ttl=12,
            payload=777,
        ).with_checksum()
        assert Ipv4Packet(**packet.to_message()) == packet

    def test_message_has_all_fields(self):
        from repro.hic.types import MESSAGE_FIELDS

        message = Ipv4Packet(src_addr=1, dst_addr=2).to_message()
        assert set(message) == set(MESSAGE_FIELDS)

class TestIncrementalChecksum:
    def test_rfc1624_matches_full_recompute(self):
        packet = Ipv4Packet(
            src_addr=ip(192, 168, 0, 1), dst_addr=ip(10, 1, 2, 3), ttl=17
        ).with_checksum()
        incremental = Ipv4Packet.ttl_checksum_update(
            packet.checksum, packet.ttl, packet.protocol
        )
        from dataclasses import replace

        full = replace(packet, ttl=packet.ttl - 1).compute_checksum()
        assert incremental == full

    def test_rfc1624_over_many_ttls(self):
        for ttl in (1, 2, 63, 64, 128, 255):
            packet = Ipv4Packet(
                src_addr=ip(1, 2, 3, 4), dst_addr=ip(5, 6, 7, 8), ttl=ttl
            ).with_checksum()
            hopped = packet.forwarded(egress_port=0)
            incremental = Ipv4Packet.ttl_checksum_update(
                packet.checksum, packet.ttl, packet.protocol
            )
            assert incremental == hopped.checksum

    def test_generic_update_word_change(self):
        packet = Ipv4Packet(
            src_addr=ip(1, 1, 1, 1), dst_addr=ip(2, 2, 2, 2), length=100
        ).with_checksum()
        from dataclasses import replace

        new = replace(packet, length=200)
        incremental = Ipv4Packet.incremental_checksum_update(
            packet.checksum, 100, 200
        )
        assert incremental == new.compute_checksum()
