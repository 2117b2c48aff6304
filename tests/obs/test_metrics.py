"""Metrics registry: instruments, snapshots, deltas, deterministic merge."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    cache_stats,
    merge_snapshots,
    parse_key,
)


class TestKeys:
    def test_unlabeled_key_is_plain_name(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        assert list(registry.snapshot()["counters"]) == ["a.b"]

    def test_labels_serialize_sorted(self):
        registry = MetricsRegistry()
        registry.counter("hs", kind="full", kex="dhe").inc()
        key = next(iter(registry.snapshot()["counters"]))
        assert key == "hs{kex=dhe,kind=full}"

    def test_parse_key_inverts_serialization(self):
        assert parse_key("hs{kex=dhe,kind=full}") == (
            "hs", {"kex": "dhe", "kind": "full"}
        )
        assert parse_key("plain") == ("plain", {})


class TestInstruments:
    def test_counter_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("x", a=1)
        second = registry.counter("x", a=1)
        assert first is second
        first.inc()
        second.inc(4)
        assert registry.snapshot()["counters"]["x{a=1}"] == 5

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(7)
        assert registry.snapshot()["gauges"]["depth"] == 7

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        snap = registry.snapshot()["histograms"]["t"]
        assert snap["counts"] == [1, 2, 1]  # <=0.1, <=1.0, +Inf
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)

    def test_reset_zeroes_in_place_keeping_bindings(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h", bounds=(1.0,))
        counter.inc(3)
        hist.observe(0.5)
        registry.reset()
        assert counter.value == 0
        counter.inc()  # prebound instrument still registered
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 1
        assert snap["histograms"]["h"]["count"] == 0


class TestSnapshotDelta:
    def test_delta_subtracts_and_drops_zero_entries(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.counter("b").inc(1)
        base = registry.snapshot()
        registry.counter("a").inc(3)
        delta = registry.snapshot_delta(base)
        assert delta["counters"] == {"a": 3}  # b unchanged -> dropped

    def test_delta_of_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        base = registry.snapshot()
        hist.observe(2.0)
        delta = registry.snapshot_delta(base)["histograms"]["h"]
        assert delta["counts"] == [0, 1]
        assert delta["count"] == 1
        assert delta["sum"] == pytest.approx(2.0)


class TestMerge:
    def test_counters_add_and_keys_sort(self):
        merged = merge_snapshots([
            {"counters": {"b": 1, "a": 2}},
            {"counters": {"a": 3, "c": 1}},
        ])
        assert merged["counters"] == {"a": 5, "b": 1, "c": 1}
        assert list(merged["counters"]) == ["a", "b", "c"]

    def test_merge_is_associative_on_counters(self):
        s1 = {"counters": {"a": 1}}
        s2 = {"counters": {"a": 2, "b": 1}}
        s3 = {"counters": {"b": 4}}
        left = merge_snapshots([merge_snapshots([s1, s2]), s3])
        right = merge_snapshots([s1, merge_snapshots([s2, s3])])
        assert left["counters"] == right["counters"]

    def test_histogram_buckets_add_elementwise(self):
        hist = {"bounds": [1.0], "counts": [1, 2], "sum": 3.0, "count": 3}
        merged = merge_snapshots([
            {"histograms": {"h": hist}},
            {"histograms": {"h": dict(hist)}},
        ])
        assert merged["histograms"]["h"]["counts"] == [2, 4]
        assert merged["histograms"]["h"]["count"] == 6

    def test_gauges_last_wins(self):
        merged = merge_snapshots([
            {"gauges": {"g": 5.0}},
            {"gauges": {"g": 2.0}},
        ])
        assert merged["gauges"]["g"] == 2.0


class TestCacheStats:
    def test_summary_with_evictions(self):
        # The summary is hits, misses and the hit rate; an eviction
        # counter is not part of it.
        snapshot = {"counters": {
            "c.hit": 3, "c.miss": 1, "c.eviction": 2,
        }}
        assert cache_stats(snapshot, "c") == {
            "hits": 3, "misses": 1, "hit_rate": 0.75,
        }

    def test_unused_cache_returns_none(self):
        assert cache_stats({"counters": {}}, "nope") is None
