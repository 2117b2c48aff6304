"""Event log: schema validation, ordering, and worker-count determinism.

The hard invariant mirrors the metrics one: the event log a study
streams is a function of the shard layout alone.  Running the same
shards serially or through a process pool must yield byte-identical
logs once the volatile wall-clock fields are stripped — that is what
the :class:`~repro.obs.events.OrderedShardWriter` reorder buffer is
for.
"""

import json

import pytest

from repro.hosting import EcosystemConfig, build_ecosystem
from repro.obs.events import (
    EventLog,
    EventWriter,
    LEVELS,
    OrderedShardWriter,
    SCHEMA,
    level_at_least,
    load_events,
    render_event,
    render_summary,
    strip_volatile,
    summarize_events,
    validate_events,
)
from repro.obs.exporter import LivePlane
from repro.scanner import StudyConfig, run_study_with_stats

SMALL_POPULATION = 320
BENCH_SEED = 2016


def _tiny_config(**overrides) -> StudyConfig:
    settings = dict(
        days=2,
        seed=404,
        run_probes=False,
        run_crossdomain=False,
        run_support_scans=False,
    )
    settings.update(overrides)
    return StudyConfig(**settings)


def _run_with_events(tmp_path, name, *, shards=2, **overrides):
    ecosystem = build_ecosystem(
        EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
    )
    path = str(tmp_path / name)
    plane = LivePlane(events_path=path).start()
    try:
        run_study_with_stats(
            ecosystem, _tiny_config(shards=shards, **overrides), live=plane,
        )
    finally:
        plane.stop()
    return path


class TestEventLogPrimitives:
    def test_disabled_log_drops_everything(self):
        log = EventLog()
        log.emit("shard.start", shard=0)
        assert len(log) == 0
        assert log.drain() == []

    def test_enabled_log_records_with_ts_and_level(self):
        log = EventLog()
        log.enable()
        log.emit("scanner.retry", level="warning", domain="a.example")
        (record,) = log.drain()
        assert record["event"] == "scanner.retry"
        assert record["level"] == "warning"
        assert record["domain"] == "a.example"
        assert isinstance(record["ts"], float)

    def test_bad_level_rejected(self):
        log = EventLog()
        log.enable()
        with pytest.raises(ValueError):
            log.emit("x", level="fatal")

    def test_capacity_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        log.enable()
        for i in range(5):
            log.emit("tick", i=i)
        assert len(log) == 3
        records = log.drain()
        assert [r["i"] for r in records] == [2, 3, 4]
        assert len(log) == 0


class TestWriterOrdering:
    def test_ordered_writer_flushes_in_shard_order(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        writer = EventWriter(path)
        ordered = OrderedShardWriter(writer.write_many)
        # Shard 1 finishes first; nothing may be written until shard 0.
        ordered.add_shard(1, [{"event": "shard.end", "level": "info",
                               "ts": 1.0, "shard": 1}])
        ordered.add_shard(0, [{"event": "shard.end", "level": "info",
                               "ts": 2.0, "shard": 0}])
        writer.close()
        records = load_events(path)
        assert [r.get("shard") for r in records] == [None, 0, 1]
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_header_carries_schema(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        EventWriter(path).close()
        (header,) = load_events(path)
        assert header["event"] == "log.open"
        assert header["schema"] == SCHEMA


class TestValidation:
    def test_valid_log_passes(self, tmp_path):
        path = _run_with_events(tmp_path, "events.jsonl")
        assert validate_events(load_events(path)) == []

    def test_missing_header_flagged(self):
        errors = validate_events([{"event": "study.start", "level": "info",
                                   "ts": 1.0, "seq": 0}])
        assert any("log.open" in e for e in errors)

    def test_sequence_gap_flagged(self, tmp_path):
        path = _run_with_events(tmp_path, "events.jsonl")
        records = load_events(path)
        records[2]["seq"] = 99
        assert any("seq" in e for e in validate_events(records))

    def test_bad_level_flagged(self, tmp_path):
        path = _run_with_events(tmp_path, "events.jsonl")
        records = load_events(path)
        records[1]["level"] = "loud"
        assert any("level" in e for e in validate_events(records))


class TestStudyEventStream:
    def test_lifecycle_vocabulary(self, tmp_path):
        path = _run_with_events(tmp_path, "events.jsonl", shards=2)
        records = load_events(path)
        names = [r["event"] for r in records]
        assert names[0] == "log.open"
        assert names[1] == "study.start"
        assert names[-2:] == ["study.merge", "study.end"]
        assert names.count("shard.start") == 2
        assert names.count("shard.end") == 2
        assert names.count("shard.day") == 4  # 2 shards x 2 days

    def test_shard_day_counts_grabs(self, tmp_path):
        path = _run_with_events(tmp_path, "events.jsonl")
        days = [r for r in load_events(path) if r["event"] == "shard.day"]
        assert all(r["grabs"] > 0 for r in days)
        assert all(r["days"] == 2 for r in days)

    def test_byte_identical_across_worker_counts(self, tmp_path):
        stripped = {}
        for workers in (1, 2):
            path = _run_with_events(
                tmp_path, f"events-w{workers}.jsonl",
                workers=workers, shards=2,
            )
            records = strip_volatile(load_events(path))
            stripped[workers] = "\n".join(
                json.dumps(r, sort_keys=True) for r in records
            )
        assert stripped[1] == stripped[2]


class TestSummariesAndRendering:
    def test_summary_headline_counts(self, tmp_path):
        path = _run_with_events(tmp_path, "events.jsonl")
        summary = summarize_events(load_events(path))
        assert summary["total"] == len(load_events(path))
        assert summary["retries"] == 0
        assert summary["aborted"] is False
        assert summary["by_event"]["shard.day"] == 4  # 2 shards x 2 days

    def test_render_event_one_line(self):
        line = render_event({"event": "scanner.retry", "level": "warning",
                             "ts": 1.0, "seq": 3, "domain": "a.example"})
        assert "scanner.retry" in line and "domain=a.example" in line
        assert "\n" not in line

    def test_render_summary_mentions_levels(self, tmp_path):
        path = _run_with_events(tmp_path, "events.jsonl")
        text = render_summary(summarize_events(load_events(path)))
        assert "events" in text

    def test_level_threshold(self):
        warning = {"event": "x", "level": "warning"}
        assert level_at_least(warning, "info")
        assert not level_at_least(warning, "error")
        assert [lv for lv in LEVELS] == ["debug", "info", "warning", "error"]
