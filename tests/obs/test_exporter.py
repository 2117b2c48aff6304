"""Live plane over HTTP: scrape /metrics and /progress mid-study.

The acceptance bar for the observability plane: while a study is
running with ``--serve-metrics``, GET /metrics returns valid
Prometheus text whose counters advance between scrapes, and
GET /progress reports completed/total shard-days.  The scrapes are
parsed back with :func:`helpers.parse_prometheus` — the same parser
CI's smoke job uses — so "valid" means round-trippable, not merely
200 OK.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from helpers import parse_prometheus, to_prom_snapshot

from repro.hosting import EcosystemConfig, build_ecosystem
from repro.obs.events import event_record, load_events
from repro.obs.exporter import LivePlane, ObservabilityServer
from repro.scanner import (
    DailySweepExperiment,
    StudyAborted,
    StudyConfig,
    run_study_with_stats,
)

SMALL_POPULATION = 320
BENCH_SEED = 2016

ATTEMPT_KEY = "repro_scanner_grab_attempt"


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


class TestObservabilityServer:
    def _server(self):
        metrics = {"counters": {"scanner.grab.attempt": 3},
                   "gauges": {}, "histograms": {}}
        progress = {"schema": "repro-progress/1", "state": "running"}
        events = [{"event": "study.start", "level": "info", "ts": 1.0}]
        return ObservabilityServer(
            lambda: metrics, lambda: progress, lambda: list(events), port=0,
        )

    def test_endpoints(self):
        server = self._server()
        server.start()
        try:
            status, headers, body = _get(f"{server.url}/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            parsed = parse_prometheus(body.decode("utf-8"))
            assert parsed["counters"][ATTEMPT_KEY] == 3

            status, headers, body = _get(f"{server.url}/progress")
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            assert json.loads(body)["state"] == "running"

            status, _, body = _get(f"{server.url}/healthz")
            assert status == 200 and json.loads(body)["ok"] is True

            status, _, body = _get(f"{server.url}/events")
            assert status == 200
            assert json.loads(body)["recent"][0]["event"] == "study.start"
        finally:
            server.stop()

    def test_unknown_path_is_404(self):
        server = self._server()
        server.start()
        try:
            try:
                _get(f"{server.url}/nope")
                raise AssertionError("expected HTTP 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            server.stop()


class TestMidStudyScrape:
    def test_counters_advance_and_roundtrip(self, tmp_path):
        config = StudyConfig(
            days=3,
            seed=404,
            run_probes=False,
            run_crossdomain=False,
            run_support_scans=False,
            shards=4,
        )
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        plane = LivePlane(
            serve_port=0, events_path=str(tmp_path / "events.jsonl")
        ).start()
        url = plane.url
        errors = []

        def run():
            try:
                run_study_with_stats(ecosystem, config, live=plane)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        attempt_totals = set()
        progress_seen = []
        try:
            while worker.is_alive():
                _, _, body = _get(f"{url}/metrics")
                parsed = parse_prometheus(body.decode("utf-8"))
                total = parsed["counters"].get(ATTEMPT_KEY)
                if total:
                    attempt_totals.add(total)
                _, _, body = _get(f"{url}/progress")
                progress_seen.append(json.loads(body))
                time.sleep(0.02)
        finally:
            worker.join()
        assert not errors, errors

        # Counters advanced between scrapes (several distinct totals).
        assert len(attempt_totals) >= 2
        assert all(total > 0 for total in attempt_totals)

        # Progress reported completed/total shard-days with an ETA once
        # at least one unit had landed.
        running = [p for p in progress_seen if p["state"] == "running"]
        assert running, "never caught the study mid-run"
        assert all(p["day_units"]["total"] == 12 for p in running)
        with_eta = [p for p in running if p["day_units"]["completed"]]
        assert all(p["eta_s"] is not None for p in with_eta)

        # The final scrape parses back to exactly the live snapshot.
        _, _, body = _get(f"{url}/metrics")
        parsed = parse_prometheus(body.decode("utf-8"))
        assert parsed == to_prom_snapshot(plane.live_snapshot())
        plane.stop()

        # After stop() the endpoint is gone.
        try:
            _get(f"{url}/healthz")
            raise AssertionError("server still reachable after stop()")
        except (urllib.error.URLError, ConnectionError, OSError):
            pass


class TestOnProgress:
    """``LivePlane(on_progress=...)``: the one progress feed of a study."""

    def test_pooled_study_reports_every_shard_day(self):
        config = StudyConfig(
            days=2,
            seed=404,
            run_probes=False,
            run_crossdomain=False,
            run_support_scans=False,
            shards=2,
            workers=2,
        )
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        snapshots = []
        run_study_with_stats(
            ecosystem, config, live=LivePlane(on_progress=snapshots.append)
        )
        # Start, one per shard-day (spooled from the pool workers), one
        # per checkpointed shard, finish.
        assert len(snapshots) == 1 + 2 * 2 + 2 + 1
        completed = [s["day_units"]["completed"] for s in snapshots]
        assert completed == sorted(completed)
        assert snapshots[0]["state"] == "running" and completed[0] == 0
        last = snapshots[-1]
        assert last["state"] == "done"
        assert last["day_units"] == {"completed": 4, "total": 4}
        assert last["shards"] == {"completed": 2, "total": 2}

    def test_updates_from_two_threads_never_interleave(self):
        inside, overlaps, seen = [], [], []

        def slow(snapshot):
            if inside:
                overlaps.append(snapshot)
            inside.append(snapshot)
            time.sleep(0.0005)
            seen.append(snapshot["day_units"]["completed"])
            inside.pop()

        plane = LivePlane(on_progress=slow)
        plane.take([event_record("study.start", shards=2, days=40)])
        threads = [
            threading.Thread(target=lambda shard=shard: [
                plane.take([event_record(
                    "shard.day", shard=shard, day=day, days=40, grabs=1,
                )], {}, shard=shard)
                for day in range(40)
            ])
            for shard in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not overlaps
        assert seen == list(range(81))


class TestEventsRing:
    """``/events`` shows the records the plane wrote, each once."""

    def test_resumed_study_lists_each_restored_shard_once(
        self, tmp_path, monkeypatch
    ):
        config = StudyConfig(
            days=2,
            seed=404,
            run_probes=False,
            run_crossdomain=False,
            run_support_scans=False,
            shards=3,
            stream_dir=str(tmp_path / "run"),
        )
        ecosystem = build_ecosystem(
            EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
        )
        sweep = DailySweepExperiment.run_day

        def fail_shard_2(self, ctx, day):
            if ctx.shard_id == 2:
                raise RuntimeError("injected shard failure")
            return sweep(self, ctx, day)

        monkeypatch.setattr(DailySweepExperiment, "run_day", fail_shard_2)
        plane = LivePlane(events_path=str(tmp_path / "failed.jsonl")).start()
        try:
            with pytest.raises(StudyAborted):
                run_study_with_stats(ecosystem, config, live=plane)
        finally:
            plane.stop()
        monkeypatch.undo()

        path = str(tmp_path / "resumed.jsonl")
        plane = LivePlane(events_path=path).start()
        try:
            run_study_with_stats(ecosystem, config, resume=True, live=plane)
        finally:
            plane.stop()
        ring = plane.recent_events()
        restored = [
            record["shard"] for record in ring
            if record["event"] == "checkpoint.restored"
        ]
        assert restored == [0, 1]
        # The whole small log fits the ring, record for record.
        assert ring == load_events(path)[1:]
