"""Cross-bank dependency router: gating, notification latency, and the
guard-ordering acceptance property."""

import pytest

from repro.fabric import DependencyRouter, RoutedDependency


def entry(dep_id="mt1", dn=2, **kwargs):
    defaults = dict(
        dep_id=dep_id,
        dependency_number=dn,
        logical_address=5,
        home_bank=1,
        data_bank=0,
        producer_thread="t1",
        consumer_threads=("t2", "t3"),
    )
    defaults.update(kwargs)
    return RoutedDependency(**defaults)


class TestGating:
    def test_reads_blocked_until_armed(self):
        router = DependencyRouter(notify_latency=1)
        router.add(entry())
        assert not router.read_release_allowed("mt1")
        assert router.write_release_allowed("mt1")

    def test_write_arms_after_notification_latency(self):
        router = DependencyRouter(notify_latency=2)
        router.add(entry(dn=2))
        router.on_write_released("mt1", cycle=0)
        router.on_write_granted("mt1", cycle=3)
        # The arm notification travels; reads stay gated meanwhile.
        assert router.tick(4) == []
        assert not router.read_release_allowed("mt1")
        assert router.tick(5) == ["mt1"]
        assert router.entries["mt1"].outstanding == 2
        assert router.read_release_allowed("mt1")

    def test_next_write_gated_until_reads_drain(self):
        router = DependencyRouter(notify_latency=0)
        router.add(entry(dn=1))
        router.on_write_granted("mt1", cycle=0)
        router.tick(0)
        # Armed with one grant; the producer's next write must wait.
        assert not router.write_release_allowed("mt1")
        router.on_read_released("mt1", cycle=1)
        # Read in flight: still gated (reserved > 0).
        assert not router.write_release_allowed("mt1")
        router.on_read_granted("mt1", cycle=2)
        assert router.write_release_allowed("mt1")

    def test_reservations_stop_over_release(self):
        router = DependencyRouter(notify_latency=0)
        router.add(entry(dn=1))
        router.on_write_granted("mt1", cycle=0)
        router.tick(0)
        assert router.read_release_allowed("mt1")
        router.on_read_released("mt1", cycle=1)
        # Only dn=1 read may travel; a second consumer must wait.
        assert not router.read_release_allowed("mt1")

    def test_write_gated_while_arm_in_flight(self):
        router = DependencyRouter(notify_latency=5)
        router.add(entry(dn=1))
        router.on_write_granted("mt1", cycle=0)
        assert router.entries["mt1"].arm_in_flight
        assert not router.write_release_allowed("mt1")


class TestGuardOrdering:
    def test_clean_protocol_run_verifies(self):
        router = DependencyRouter(notify_latency=1)
        router.add(entry(dn=2))
        for round_start in (0, 10):
            router.on_write_released("mt1", round_start)
            router.on_write_granted("mt1", round_start + 1)
            router.tick(round_start + 2)
            for consumer_cycle in (3, 4):
                router.on_read_released("mt1", round_start + consumer_cycle)
                router.on_read_granted("mt1", round_start + consumer_cycle + 1)
        assert router.verify_guard_ordering() == []

    def test_read_before_write_is_flagged(self):
        router = DependencyRouter(notify_latency=1)
        router.add(entry(dn=2))
        # A read released with no arm ever applied: a protocol violation.
        router.events.append(("read-released", "mt1", 0))
        violations = router.verify_guard_ordering()
        assert violations and "before the producer write" in violations[0]

    def test_arm_without_write_is_flagged(self):
        router = DependencyRouter(notify_latency=1)
        router.add(entry())
        router.events.append(("arm-applied", "mt1", 0))
        violations = router.verify_guard_ordering()
        assert violations and "without a granted producer write" in violations[0]

    def test_over_budget_reads_are_flagged(self):
        router = DependencyRouter(notify_latency=0)
        router.add(entry(dn=1))
        router.on_write_released("mt1", 0)
        router.on_write_granted("mt1", 0)
        router.tick(0)
        router.events.append(("read-released", "mt1", 1))
        router.events.append(("read-released", "mt1", 1))
        assert len(router.verify_guard_ordering()) == 1


class TestRecoverySeams:
    def test_force_arm_unblocks_a_stuck_read(self):
        router = DependencyRouter()
        router.add(entry(dn=1))
        assert router.force_arm("mt1")
        assert router.read_release_allowed("mt1")
        # Already armed: a second force is a no-op.
        assert not router.force_arm("mt1")

    def test_force_drain_clears_state(self):
        router = DependencyRouter(notify_latency=10)
        router.add(entry(dn=2))
        router.on_write_granted("mt1", cycle=0)
        assert router.force_drain("mt1")
        assert router.write_release_allowed("mt1")
        assert router.tick(10) == []  # notification was cancelled
        assert not router.force_drain("mt1")

    def test_unknown_dep_ids(self):
        router = DependencyRouter()
        assert not router.manages("missing")
        assert not router.manages(None)
        assert not router.force_arm("missing")
        assert not router.force_drain("missing")


class TestMisc:
    def test_stats(self):
        router = DependencyRouter(notify_latency=0)
        router.add(entry(dn=1))
        router.on_write_released("mt1", 0)
        router.on_write_granted("mt1", 0)
        router.tick(0)
        router.on_read_released("mt1", 1)
        router.on_read_granted("mt1", 2)
        stats = router.stats
        assert (stats.writes_routed, stats.reads_routed) == (1, 1)
        assert stats.notifications_sent == stats.notifications_applied == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DependencyRouter(notify_latency=-1)

    def test_len_counts_entries(self):
        router = DependencyRouter()
        router.add(entry("a"))
        router.add(entry("b"))
        assert len(router) == 2
