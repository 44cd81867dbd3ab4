"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("reqs", "", ("port",))
        c.inc(port="A")
        c.inc(2, port="A")
        c.inc(port="B")
        assert c.value(port="A") == 3
        assert c.value(port="B") == 1
        assert c.value(port="C") == 0

    def test_rejects_negative(self):
        c = Counter("reqs", "", ())
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_rejects_wrong_labels(self):
        c = Counter("reqs", "", ("port",))
        with pytest.raises(ValueError):
            c.inc(bram="x")


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("pending", "", ())
        g.set(5)
        assert g.value() == 5
        g.inc(-2)
        assert g.value() == 3


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram("waits", "", (), buckets=(1.0, 4.0, 16.0))
        for value in (0, 1, 2, 5, 20):
            h.observe(value)
        assert h.count() == 5
        state = h.samples()[0][1]
        assert state.sum == 28
        # le semantics: 0,1 -> le=1; 2 -> le=4; 5 -> le=16; 20 -> +Inf
        assert state.counts == [2, 1, 1, 1]

    def test_requires_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", "", (), buckets=())

    def test_observe_many(self):
        h = Histogram("h", "", ("who",))
        h.observe_many([1, 2, 3], who="a")
        assert h.count(who="a") == 3
        assert h.count(who="b") == 0


_values = st.lists(
    st.one_of(
        st.integers(min_value=-(2**60), max_value=2**60),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=40,
)


class TestObserveManyProperty:
    """``observe_many`` resolves its label key once; it must still be
    exactly the per-value ``observe`` loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(st.sampled_from(["a", "b"]), _values), max_size=4
        ),
        buckets=st.lists(
            st.integers(min_value=-50, max_value=200), min_size=1, max_size=6
        ),
    )
    def test_equals_per_value_loop(self, batches, buckets):
        bounds = tuple(float(b) for b in buckets)
        batched = Histogram("h", "", ("who",), buckets=bounds)
        looped = Histogram("h", "", ("who",), buckets=bounds)
        for who, values in batches:
            batched.observe_many(values, who=who)
            for value in values:
                looped.observe(value, who=who)
        assert [
            (key, state.counts, state.total, state.sum)
            for key, state in batched.samples()
        ] == [
            (key, state.counts, state.total, state.sum)
            for key, state in looped.samples()
        ]

    @settings(max_examples=50, deadline=None)
    @given(values=_values, wrong=st.sampled_from([{}, {"bram": "x"},
                                                   {"who": "a", "port": "A"}]))
    def test_wrong_label_set_raises(self, values, wrong):
        h = Histogram("h", "", ("who",))
        with pytest.raises(ValueError):
            h.observe_many(values, **wrong)
        assert h.samples() == []

    def test_empty_values_leave_registry_unchanged(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait", "waits", labels=("p",))
        before = (reg.render_prometheus(), reg.to_dict())
        h.observe_many([], p="C")
        h.observe_many(iter(()), p="C")
        assert (reg.render_prometheus(), reg.to_dict()) == before
        assert h.samples() == []


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", labels=("l",))
        b = reg.counter("x_total", "other help", labels=("l",))
        assert a is b
        assert len(reg) == 1

    def test_conflicting_registration_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("l",))
        with pytest.raises(ValueError):
            reg.gauge("x_total", labels=("l",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labels=("other",))

    def test_render_prometheus_format(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests", labels=("port",))
        c.inc(3, port="A")
        g = reg.gauge("level", "fill level")
        g.set(1.5)
        text = reg.render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{port="A"} 3' in text
        assert "# TYPE level gauge" in text
        assert "level 1.5" in text
        assert text.endswith("\n")

    def test_render_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait", "waits", labels=("p",))
        h.observe_many([0, 5, 100], p="C")
        text = reg.render_prometheus()
        assert 'wait_bucket{p="C",le="1"} 1' in text
        assert 'wait_bucket{p="C",le="8"} 2' in text
        assert 'wait_bucket{p="C",le="+Inf"} 3' in text
        assert 'wait_sum{p="C"} 105' in text
        assert 'wait_count{p="C"} 3' in text

    def test_render_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            c = reg.counter("c_total", labels=("k",))
            # insertion order of label sets differs; render must not
            for key in ("z", "a", "m"):
                c.inc(k=key)
            return reg.render_prometheus()

        assert build() == build()
        assert build().index('k="a"') < build().index('k="z"')

    def test_to_dict_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "h", labels=("l",)).inc(l="x")
        reg.histogram("h_cycles").observe(0)
        out = reg.to_dict()
        assert out["c_total"]["type"] == "counter"
        assert out["c_total"]["values"] == [
            {"labels": {"l": "x"}, "value": 1}
        ]
        assert out["h_cycles"]["buckets"] == list(DEFAULT_BUCKETS)
        assert out["h_cycles"]["values"][0]["count"] == 1

    def test_default_buckets_cover_watchdog_window(self):
        assert DEFAULT_BUCKETS[-1] == 128.0
