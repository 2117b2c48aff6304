"""Prometheus exposition correctness: escaping, naming, parse round-trip.

The text format (version 0.0.4) has sharp edges the exporter must get
right for real scrapers: label values escape backslash, double-quote,
and newline; metric names only contain ``[a-zA-Z0-9_:]``; HELP/TYPE
headers appear once per family in deterministic order; histogram
buckets are cumulative and end with ``+Inf``.
"""

from helpers import parse_prometheus, to_prom_snapshot

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_prometheus


def _snapshot(**sections) -> dict:
    base = {"counters": {}, "gauges": {}, "histograms": {}}
    base.update(sections)
    return base


class TestRendering:
    def test_names_are_sanitized_and_prefixed(self):
        prom = render_prometheus(_snapshot(
            counters={"scanner.grab-rate.v2": 7}
        ))
        assert "repro_scanner_grab_rate_v2_total 7" in prom

    def test_label_values_escaped(self):
        prom = render_prometheus(_snapshot(
            counters={'scanner.grab.failure{reason=a"b\\c\nd}': 1}
        ))
        assert 'reason="a\\"b\\\\c\\nd"' in prom
        # The rendered text must stay one sample per line.
        sample_lines = [
            line for line in prom.splitlines() if not line.startswith("#")
        ]
        assert len(sample_lines) == 1

    def test_help_and_type_once_per_family_in_order(self):
        prom = render_prometheus(_snapshot(counters={
            "scanner.grab.failure{reason=nxdomain}": 1,
            "scanner.grab.failure{reason=handshake}": 2,
            "scanner.grab.attempt": 3,
        }))
        lines = prom.splitlines()
        helps = [line for line in lines if line.startswith("# HELP")]
        types = [line for line in lines if line.startswith("# TYPE")]
        assert len(helps) == 2 and len(types) == 2
        # Families render in sorted order: attempt before failure.
        assert "attempt" in helps[0] and "failure" in helps[1]
        # Samples inside a family are sorted by label.
        failure_lines = [line for line in lines if "failure" in line
                         and not line.startswith("#")]
        assert "handshake" in failure_lines[0]
        assert "nxdomain" in failure_lines[1]

    def test_rendering_is_deterministic(self):
        snapshot = _snapshot(
            counters={"b.metric": 1, "a.metric{x=2}": 3},
            gauges={"g.metric": 1.5},
        )
        assert render_prometheus(snapshot) == render_prometheus(snapshot)

    def test_histogram_buckets_cumulative_with_inf(self):
        prom = render_prometheus(_snapshot(histograms={
            "scanner.grab.seconds": {
                "bounds": [0.1, 1.0],
                "counts": [2, 3, 1],  # 2 under 0.1, 3 under 1.0, 1 over
                "sum": 2.5,
                "count": 6,
            }
        }))
        assert '{le="0.1"} 2' in prom
        assert '{le="1.0"} 5' in prom
        assert '{le="+Inf"} 6' in prom
        assert "repro_scanner_grab_seconds_sum 2.5" in prom
        assert "repro_scanner_grab_seconds_count 6" in prom


class TestParseRoundTrip:
    def test_registry_snapshot_roundtrips(self):
        registry = MetricsRegistry()
        registry.counter("scanner.grab.attempt").value = 41
        registry.counter("scanner.grab.failure", reason="nxdomain").value = 4
        registry.gauge("engine.pending_shards").set(2.0)
        hist = registry.histogram("scanner.grab.seconds",
                                  bounds=(0.1, 0.5, 1.0))
        for value in (0.05, 0.3, 0.4, 0.9, 7.0):
            hist.observe(value)
        snapshot = registry.snapshot()
        parsed = parse_prometheus(render_prometheus(snapshot))
        assert parsed == to_prom_snapshot(snapshot)

    def test_escaped_label_values_roundtrip(self):
        snapshot = _snapshot(counters={
            'scanner.grab.failure{reason=we"ird\\pa\nth}': 9
        })
        parsed = parse_prometheus(render_prometheus(snapshot))
        assert parsed == to_prom_snapshot(snapshot)

    def test_empty_snapshot(self):
        assert parse_prometheus(render_prometheus(_snapshot())) == _snapshot()
