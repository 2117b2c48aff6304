"""Progress/ETA folded from event records: shard-day accounting,
idempotency, restored shards, rendering."""

from repro.obs.progress import (
    ProgressTracker,
    format_duration,
    render_progress,
)


class _FakeClock:
    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


def _tracker():
    clock = _FakeClock()
    tracker = ProgressTracker(clock=clock)
    return tracker, clock


def _start(shards, days):
    return {"event": "study.start", "shards": shards, "days": days}


def _day(shard, day, days, grabs=0):
    return {"event": "shard.day", "shard": shard, "day": day,
            "days": days, "grabs": grabs}


def _end(shard):
    return {"event": "shard.end", "shard": shard}


class TestAccounting:
    def test_initial_snapshot_idle(self):
        tracker, _ = _tracker()
        snap = tracker.snapshot()
        assert snap["state"] == "idle"
        assert snap["fraction"] == 0.0
        assert snap["eta_s"] is None

    def test_day_units_accumulate(self):
        tracker, clock = _tracker()
        tracker.fold([_start(shards=2, days=3)])
        clock.value = 10.0
        tracker.fold([_day(0, day=0, days=3, grabs=100)])
        tracker.fold([_day(0, day=1, days=3, grabs=50)])
        snap = tracker.snapshot()
        assert snap["day_units"] == {"total": 6, "completed": 2}
        assert snap["grabs"] == 150
        assert snap["fraction"] == round(2 / 6, 6)

    def test_day_pushes_idempotent(self):
        tracker, _ = _tracker()
        tracker.fold([_start(shards=1, days=2)])
        tracker.fold([_day(0, day=0, days=2)])
        tracker.fold([_day(0, day=0, days=2)])  # duplicate push
        assert tracker.snapshot()["day_units"]["completed"] == 1

    def test_shard_completed_fills_remaining_days(self):
        tracker, _ = _tracker()
        tracker.fold([_start(shards=2, days=3)])
        # Only 1 of 3 day records reached the plane before shard.end.
        tracker.fold([_day(0, day=0, days=3), _end(0)])
        snap = tracker.snapshot()
        assert snap["shards"]["completed"] == 1
        assert snap["day_units"]["completed"] == 3

    def test_eta_uses_live_rate_only(self):
        tracker, clock = _tracker()
        tracker.fold([_start(shards=2, days=2)])
        # One shard restored from a checkpoint: its units complete
        # instantly and must not poison the rate estimate.
        tracker.fold([{"event": "checkpoint.restored", "shard": 0}])
        clock.value = 8.0
        tracker.fold([_day(1, day=0, days=2)])
        snap = tracker.snapshot()
        # 1 live unit in 8s, 1 unit remaining -> ~8s to go.
        assert snap["eta_s"] == 8.0

    def test_replayed_records_count_once_as_restored(self):
        """A restored shard's replayed log (its day and end records)
        ahead of ``checkpoint.restored`` completes it once, with no
        grabs and no share of the rate."""
        tracker, clock = _tracker()
        tracker.fold([_start(shards=2, days=2)])
        tracker.fold([
            {"event": "shard.start", "shard": 0},
            _day(0, day=0, days=2, grabs=70),
            _day(0, day=1, days=2, grabs=70),
            _end(0),
            {"event": "checkpoint.restored", "shard": 0},
        ])
        snap = tracker.snapshot()
        assert snap["shards"]["completed"] == 1
        assert snap["day_units"]["completed"] == 2
        assert snap["grabs"] == 0
        assert snap["eta_s"] is None  # no live unit yet

    def test_only_progress_records_move_it(self):
        tracker, _ = _tracker()
        assert tracker.fold([_start(shards=1, days=1)])
        before = tracker.snapshot()
        assert not tracker.fold([
            {"event": "chaos.injected", "kind": "reset"},
            {"event": "checkpoint.write", "shard": 0},
        ])
        assert tracker.snapshot() == before

    def test_finish_zeroes_eta(self):
        tracker, clock = _tracker()
        tracker.fold([_start(shards=1, days=1)])
        tracker.fold([_day(0, day=0, days=1), _end(0)])
        clock.value = 3.0
        tracker.fold([{"event": "study.end"}])
        snap = tracker.snapshot()
        assert snap["state"] == "done"
        assert snap["eta_s"] == 0.0
        assert snap["elapsed_s"] == 3.0

    def test_abort_state(self):
        tracker, _ = _tracker()
        tracker.fold([_start(shards=1, days=1)])
        tracker.fold([{"event": "study.abort"}])
        assert tracker.snapshot()["state"] == "aborted"


class TestRendering:
    def test_format_duration(self):
        assert format_duration(None) == "?"
        assert format_duration(5.4) == "5s"
        assert format_duration(94) == "1m34s"
        assert format_duration(3720) == "1h02m"

    def test_render_progress_line(self):
        tracker, clock = _tracker()
        tracker.fold([_start(shards=4, days=2)])
        clock.value = 10.0
        tracker.fold([_day(0, day=0, days=2, grabs=500)])
        line = render_progress(tracker.snapshot())
        assert "shards 0/4" in line
        assert "days 1/8" in line
        assert "eta" in line
        assert "\n" not in line
