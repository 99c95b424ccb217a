"""Tests for the metrics registry and its Prometheus text rendering."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0

    def test_callback_evaluated_at_collection(self):
        box = {"v": 1}
        g = Gauge("g", fn=lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 7
        assert g.value == 7.0


class TestHistogram:
    def test_cumulative_bucket_semantics(self):
        h = Histogram("h", buckets=(1.0, 5.0))
        for v in (0.5, 0.5, 3.0, 100.0):
            h.observe(v)
        samples = {(name, labels): value for name, labels, value in h.samples()}
        assert samples[("h_bucket", (("le", "1"),))] == 2
        assert samples[("h_bucket", (("le", "5"),))] == 3  # cumulative
        assert samples[("h_bucket", (("le", "+Inf"),))] == 4
        assert samples[("h_count", ())] == 4
        assert samples[("h_sum", ())] == pytest.approx(104.0)

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestFamily:
    def test_children_cached_and_label_checked(self):
        fam = Family(Counter, "f", "", ("shard",))
        a = fam.labels(shard=0)
        assert fam.labels(shard=0) is a
        assert fam.labels(shard=1) is not a
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels(wrong=1)

    def test_rendered_sorted_by_label_value(self):
        fam = Family(Counter, "f", "", ("k",))
        fam.labels(k="b").inc()
        fam.labels(k="a").inc(2)
        names = [labels for _, labels, _ in fam.samples()]
        assert names == [(("k", "a"),), (("k", "b"),)]


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x")

    def test_render_text_format(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "Jobs.").inc(3)
        reg.gauge("depth", "Queue depth.").set(2)
        text = reg.render_text()
        assert "# HELP jobs_total Jobs.\n# TYPE jobs_total counter\n" in text
        assert "jobs_total 3\n" in text
        assert "# TYPE depth gauge" in text
        assert text.endswith("depth 2\n")

    def test_render_text_escapes_label_values(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", labelnames=("p",))
        fam.labels(p='a"b\\c\nd').inc()
        assert 'c{p="a\\"b\\\\c\\nd"} 1' in reg.render_text()

    def test_histogram_renders_le_buckets(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.5,)).observe(0.1)
        text = reg.render_text()
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.1" in text
        assert "lat_count 1" in text
